"""Ground-state-eliminating measurement protocols and the experiment driver.

Every protocol here projects onto a subset of energy-basis states and
post-selects on success, so it is fully described by the set of surviving
basis indices:

* pairwise chain  - measure adjacent pairs (1,2), (2,3), ..., (N-1,N); a
  basis string survives iff no two neighbouring TLS are both in the ground
  state. The pair projectors commute, so the measurement order is
  irrelevant and the surviving set is plan-order independent.
* global          - remove only the collective ground state |g...g>.
* custom pairs    - any list of (j, k) pairs, each removing |g_j g_k>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .dephasing import DephasingSpec, dephase_local
from .errors import ProtocolImpossibleError
from .measures import GainReport, gain_report
from .states import (
    QuantumState,
    SystemSpec,
    TlsParams,
    mixed_product_state,
    pure_product_state,
)

PAIRWISE_CHAIN = "pairwise-chain"
GLOBAL = "global"
CUSTOM_PAIRS = "custom-pairs"

_MIN_SUCCESS_WEIGHT = 1e-15


@dataclass(frozen=True)
class MeasurementPlan:
    """Ordered TLS pairs to measure (1-based), or the global projector."""

    pairs: tuple[tuple[int, int], ...]
    kind: str = CUSTOM_PAIRS

    @staticmethod
    def chain(n: int) -> "MeasurementPlan":
        """Adjacent pairs (1,2), (2,3), ..., (N-1,N)."""
        if n < 2:
            raise ValueError("chain plan needs at least 2 TLS")
        return MeasurementPlan(tuple((j, j + 1) for j in range(1, n)), PAIRWISE_CHAIN)

    @staticmethod
    def global_protocol() -> "MeasurementPlan":
        """Single projector removing only the collective ground state."""
        return MeasurementPlan((), GLOBAL)

    @staticmethod
    def custom(pairs: Sequence[tuple[int, int]]) -> "MeasurementPlan":
        return MeasurementPlan(tuple((int(j), int(k)) for j, k in pairs), CUSTOM_PAIRS)

    def validate(self, n: int) -> None:
        if self.kind == GLOBAL:
            return
        for j, k in self.pairs:
            if j == k:
                raise ValueError(f"pair ({j}, {k}) measures a TLS against itself")
            if not (1 <= j <= n and 1 <= k <= n):
                raise ValueError(f"pair ({j}, {k}) out of range 1..{n}")


@dataclass(frozen=True)
class ProtocolOutcome:
    """Success probability, conditional state, and the surviving basis strings."""

    success_probability: float
    final_state: QuantumState
    success_mask: np.ndarray


def success_mask(plan: MeasurementPlan, n: int) -> np.ndarray:
    """Boolean array over the 2^N basis indices: True where every projector of the plan passes."""
    plan.validate(n)
    idx = np.arange(2**n)
    if plan.kind == GLOBAL:
        return idx != 0
    alive = np.ones(2**n, dtype=bool)
    for j, k in plan.pairs:
        both_ground = (linalg.bit_of(idx, j, n) == 0) & (linalg.bit_of(idx, k, n) == 0)
        alive &= ~both_ground
    return alive


def apply_protocol(state: QuantumState, plan: MeasurementPlan) -> ProtocolOutcome:
    """
    Project onto the surviving subspace and renormalise.

    Raises ProtocolImpossibleError when the input carries (numerically) no
    weight on the surviving set, e.g. for p = 0 inputs.
    """
    alive = success_mask(plan, state.n)
    p_s = float(state.populations()[alive].sum())
    if p_s <= _MIN_SUCCESS_WEIGHT:
        raise ProtocolImpossibleError("no weight on the success subspace")
    if state.is_pure:
        vec = np.where(alive, state.vector, 0.0) / np.sqrt(p_s)
        final = QuantumState.pure(vec, state.n)
    else:
        rho = np.where(np.outer(alive, alive), state.matrix, 0.0) / p_s
        final = QuantumState.mixed(rho, state.n)
    return ProtocolOutcome(p_s, final, alive)


def rus_failure_probability(p_s: float, repetitions: int) -> float:
    """Failure probability (1 - p_s)^R of the repeat-until-success strategy."""
    if not 0.0 <= p_s <= 1.0:
        raise ValueError(f"p_s={p_s!r} outside [0, 1]")
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    return (1.0 - p_s) ** repetitions


def run_experiment(
    spec: SystemSpec,
    params: Sequence[TlsParams],
    plan: MeasurementPlan,
    dephasing: DephasingSpec | None = None,
) -> GainReport:
    """
    Prepare the product input, dephase, measure, dephase again, and report.

    Pre-protocol dephasing (TlsParams.epsilon combined with DephasingSpec.pre)
    is folded into the initial mixture, so the reported c0/c0_loc always
    refer to the state actually entering the measurement. The final state
    additionally passes through the post channel when one is given.
    """
    if len(params) != spec.n:
        raise ValueError(f"expected {spec.n} TlsParams, got {len(params)}")
    deph = (dephasing or DephasingSpec()).validated(spec.n)

    pre = [1.0] * spec.n if deph.pre is None else list(deph.pre)
    eps_total = [t.epsilon * e for t, e in zip(params, pre)]
    if all(e == 1.0 for e in eps_total):
        initial = pure_product_state(spec, params)
    else:
        initial = mixed_product_state(
            spec, [TlsParams(t.p, e) for t, e in zip(params, eps_total)]
        )

    outcome = apply_protocol(initial, plan)
    final = outcome.final_state
    if deph.post is not None:
        final = dephase_local(final, deph.post)
    return gain_report(initial, final, outcome.success_probability, spec)
