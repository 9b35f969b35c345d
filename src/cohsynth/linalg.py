"""Dense linear algebra over 2^N-dimensional TLS spaces.

Basis convention: index i in [0, 2^N) is read as an N-bit string whose
most-significant bit belongs to TLS 1; bit value 0 is the ground state,
bit value 1 the excited state. All entropies use the natural logarithm.
Matrices may be real or complex; every eigensolve goes through
:func:`spectrum` and computes eigenvalues only.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from .errors import InvalidStateError, SystemSizeError

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
EIG_CLIP = 1e-12

_DEFAULT_MAX_TLS = 14


def max_tls() -> int:
    """Dense-simulation size cap; override with COHSYNTH_MAX_TLS."""
    raw = os.environ.get("COHSYNTH_MAX_TLS")
    if raw is None:
        return _DEFAULT_MAX_TLS
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"COHSYNTH_MAX_TLS={raw!r} is not an integer") from None


def check_system_size(n: int) -> None:
    """Raise SystemSizeError if an N-TLS dense computation is over the cap."""
    if n > max_tls():
        raise SystemSizeError(
            f"{n} TLS exceeds the dense-simulation cap of {max_tls()} "
            "(set COHSYNTH_MAX_TLS to raise it)"
        )


def bit_of(index: int | np.ndarray, tls: int, n: int):
    """Bit (0 = ground, 1 = excited) of TLS `tls` (1-based) in basis index."""
    return (index >> (n - tls)) & 1


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True when m equals its conjugate transpose within tol."""
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def spectrum(rho: np.ndarray) -> np.ndarray:
    """
    Eigenvalues of a density matrix, sorted in descending order.

    The matrix must be Hermitian within HERMITICITY_TOL, its eigenvalues
    >= -PSD_TOL and their sum 1 within PSD_TOL; otherwise
    InvalidStateError is raised.
    """
    if not is_hermitian(rho):
        raise InvalidStateError("matrix is not Hermitian within tolerance")
    w = np.linalg.eigvalsh(rho)[::-1]
    if w.min() < -PSD_TOL:
        raise InvalidStateError(f"negative eigenvalue {w.min():.3e}")
    if abs(w.sum() - 1.0) > PSD_TOL:
        raise InvalidStateError(f"trace {w.sum():.12f} != 1")
    return w


def product_spectrum(factors: Sequence[np.ndarray]) -> np.ndarray:
    """
    Descending eigenvalues of the Kronecker product of density matrices:
    every product of one eigenvalue per factor.
    """
    w = np.ones(1)
    for f in factors:
        w = np.kron(w, spectrum(f))
    return np.sort(w)[::-1]


def entropy_of_probabilities(p: np.ndarray) -> float:
    """Shannon entropy -sum p ln p in nats; entries below EIG_CLIP count as 0."""
    p = np.asarray(p).real
    p = p[p > EIG_CLIP]
    # + 0.0 turns the -0.0 of a single unit entry into 0.0
    return float(-(p * np.log(p)).sum()) + 0.0 if p.size else 0.0


def von_neumann_entropy(rho: np.ndarray) -> float:
    """
    Entropy -Tr(rho ln rho) in nats of a density matrix.

    Rows and columns whose diagonal entry is exactly 0 are dropped before
    the eigensolve; a positive semidefinite matrix is zero along them.
    Such a row or column that is not zero raises InvalidStateError.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError("density matrix must be square")
    support = np.diag(rho) != 0
    if not support.all():
        dead = ~support
        if np.any(rho[dead]) or np.any(rho[:, dead]):
            raise InvalidStateError("zero diagonal entry with a nonzero row or column")
        if not support.any():
            raise InvalidStateError("trace 0 != 1")
        rho = rho[np.ix_(support, support)]
    return entropy_of_probabilities(spectrum(rho))


def random_density_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix on N TLS (Ginibre construction)."""
    d = 2**n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
