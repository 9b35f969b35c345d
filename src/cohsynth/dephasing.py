"""Local dephasing channels with per-TLS rates.

A single-TLS channel with survival factor eps keeps populations and shrinks
the off-diagonal by eps; it is realised by the Kraus pair
K0 = sqrt((1+eps)/2) I, K1 = sqrt((1-eps)/2) sigma_z. On N TLS the product
channel multiplies matrix element (i, j) by the product of eps_k over the
TLS whose bits differ between i and j. The production path applies that
factor table directly; the explicit 2^N-operator Kraus sum is kept only as
a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SystemSizeError
from .states import QuantumState

_KRAUS_ORACLE_MAX_TLS = 10


@dataclass(frozen=True)
class DephasingSpec:
    """Per-TLS survival factors applied before and/or after the protocol.

    Empty (None) means no dephasing on that side. Nonempty tuples must have
    one entry in [0, 1] per TLS.
    """

    pre: tuple[float, ...] | None = None
    post: tuple[float, ...] | None = None

    @staticmethod
    def uniform(n: int, pre: float | None = None, post: float | None = None) -> "DephasingSpec":
        return DephasingSpec(
            pre=None if pre is None else (float(pre),) * n,
            post=None if post is None else (float(post),) * n,
        )

    def validated(self, n: int) -> "DephasingSpec":
        for side in (self.pre, self.post):
            if side is not None:
                _check_eps(side, n)
        return self


def _check_eps(eps: Sequence[float], n: int) -> np.ndarray:
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (n,):
        raise ValueError(f"expected {n} dephasing factors, got {eps.shape}")
    if not np.all((eps >= 0.0) & (eps <= 1.0)):
        raise ValueError("dephasing factors must lie in [0, 1]")
    return eps


def _xor_factors(eps: np.ndarray, n: int) -> np.ndarray:
    """g[m] = product of eps_k over the set bits of m (TLS 1 = MSB)."""
    g = np.ones(2**n)
    idx = np.arange(2**n)
    for tls in range(1, n + 1):
        excited = ((idx >> (n - tls)) & 1).astype(bool)
        g[excited] *= eps[tls - 1]
    return g


def dephase_local(state: QuantumState, eps: Sequence[float]) -> QuantumState:
    """Apply the local dephasing channel with the given per-TLS factors."""
    e = _check_eps(eps, state.n)
    if np.all(e == 1.0):
        return state
    rho = state.to_density_matrix()
    g = _xor_factors(e, state.n)
    idx = np.arange(state.dim)
    factors = g[np.bitwise_xor.outer(idx, idx)]
    return QuantumState.mixed(rho * factors, state.n)


def kraus_oracle(state: QuantumState, eps: Sequence[float]) -> QuantumState:
    """
    Reference implementation: the explicit sum over all 2^N Kraus operators,
    one per binary index whose bits select K0 or K1 on each TLS. Exponential
    cost; tests only.
    """
    n = state.n
    if n > _KRAUS_ORACLE_MAX_TLS:
        raise SystemSizeError(f"Kraus oracle limited to {_KRAUS_ORACLE_MAX_TLS} TLS")
    e = _check_eps(eps, n)
    rho = state.to_density_matrix()
    out = np.zeros_like(rho)
    for i in range(2**n):
        # operators are diagonal, so each is stored as its diagonal
        diag = np.array([1.0])
        for tls in range(1, n + 1):
            bit = (i >> (n - tls)) & 1
            if bit == 0:
                k = math.sqrt((1.0 + e[tls - 1]) / 2.0) * np.array([1.0, 1.0])
            else:
                k = math.sqrt((1.0 - e[tls - 1]) / 2.0) * np.array([1.0, -1.0])
            diag = np.kron(diag, k)
        out += np.outer(diag, diag) * rho
    return QuantumState.mixed(out, n)
