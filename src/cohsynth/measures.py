"""Energy and coherence measures.

Coherence is always the relative entropy of coherence with respect to the
energy eigenbasis, C(rho) = S(rho_diag) - S(rho), reported in nats. Local
coherence sums the single-TLS coherences of the reduced states; mutual
coherence is their gap C - C_loc, zero on every product state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidStateError, ProtocolImpossibleError
from .states import QuantumState, SystemSpec, hamiltonian_diagonal

_CLAMP = 1e-10


def _clamp_residue(value: float, what: str) -> float:
    # floating-point residue on coherence-free states maps to exactly 0
    if value < 0.0:
        if value < -_CLAMP:
            raise InvalidStateError(f"{what} = {value!r} below -1e-10")
        return 0.0
    return value


def average_energy(state: QuantumState, energies: np.ndarray) -> float:
    """Tr(rho H) of a Hamiltonian diagonal in the basis, given its diagonal."""
    energies = np.asarray(energies)
    if energies.shape != (state.dim,):
        raise ValueError(f"energy vector shape {energies.shape} does not match dim {state.dim}")
    return float(state.populations() @ energies)


def _matrix_coherence(
    rho: np.ndarray, product_factors: tuple[np.ndarray, ...] | None = None
) -> float:
    # exactly diagonal input short-circuits to 0 (spares the eigensolver
    # and its one-ulp summation-order residue)
    if np.count_nonzero(rho) == np.count_nonzero(np.diag(rho)):
        return 0.0
    diag_entropy = linalg.entropy_of_probabilities(np.diag(rho).real)
    if product_factors is None:
        return diag_entropy - linalg.von_neumann_entropy(rho)
    product_spectrum = linalg.product_spectrum(product_factors)
    return diag_entropy - linalg.entropy_of_probabilities(product_spectrum)


def rel_entropy_coherence(state: QuantumState) -> float:
    """Relative entropy of coherence S(rho_diag) - S(rho), >= 0, in nats."""
    if state.is_pure:
        return _clamp_residue(
            linalg.entropy_of_probabilities(state.populations()), "coherence"
        )
    value = _matrix_coherence(state.matrix, state.product_factors)
    return _clamp_residue(value, "coherence")


def local_coherence(state: QuantumState) -> float:
    """Sum of the single-TLS coherences of the reduced states."""
    total = 0.0
    for tls in range(1, state.n + 1):
        total += _matrix_coherence(state.marginal(tls))
    return _clamp_residue(total, "local coherence")


def mutual_coherence(state: QuantumState) -> float:
    """Global minus local coherence; zero for product states."""
    return rel_entropy_coherence(state) - local_coherence(state)


@dataclass(frozen=True)
class GainReport:
    """Energies, coherences and their gains for one protocol run.

    Energies are in units of the gap times the gap value (e0, ef) while
    delta_e is normalised by the gap; all coherences are in nats.
    """

    p_s: float
    e0: float
    ef: float
    c0: float
    cf: float
    c0_loc: float
    cf_loc: float
    delta_e: float
    delta_c: float
    delta_cm: float


def gain_report(
    initial: QuantumState,
    final: QuantumState,
    p_s: float,
    spec: SystemSpec,
) -> GainReport:
    """Measure both states and assemble the gain summary."""
    if initial.n != final.n or initial.n != spec.n:
        raise ValueError("initial/final/spec TLS counts differ")
    if not 0.0 < p_s <= 1.0:
        raise ProtocolImpossibleError(f"success probability {p_s!r} outside (0, 1]")
    energies = hamiltonian_diagonal(spec)
    e0 = average_energy(initial, energies)
    ef = average_energy(final, energies)
    c0 = rel_entropy_coherence(initial)
    cf = rel_entropy_coherence(final)
    c0_loc = local_coherence(initial)
    cf_loc = local_coherence(final)
    return GainReport(
        p_s=p_s,
        e0=e0,
        ef=ef,
        c0=c0,
        cf=cf,
        c0_loc=c0_loc,
        cf_loc=cf_loc,
        delta_e=(ef - e0) / spec.energy_gap,
        delta_c=cf - c0,
        delta_cm=(cf - cf_loc) - (c0 - c0_loc),
    )
