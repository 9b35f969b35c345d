"""TLS system description, basis-state energies and the product initial states.

Each TLS has energy gap E between ground and excited state, so a basis
string with n_e excited systems carries energy (E/2)(2 n_e - N). The
Hamiltonian is diagonal in this basis and is only ever used through
:func:`hamiltonian_diagonal`. Product inputs are either pure (amplitude
sqrt(p) on the excited branch) or partially dephased mixtures whose
off-diagonals are shrunk by a factor epsilon in [0, 1]; both are real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import InvalidStateError


@dataclass(frozen=True)
class SystemSpec:
    """Number of TLS and their common energy gap."""

    n: int
    energy_gap: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one TLS")
        linalg.check_system_size(self.n)
        if not self.energy_gap > 0:
            raise ValueError("energy gap must be positive")

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class TlsParams:
    """Excitation probability p and dephasing survival factor epsilon of one TLS."""

    p: float
    epsilon: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon={self.epsilon} outside [0, 1]")


def uniform_params(n: int, p: float, epsilon: float = 1.0) -> list[TlsParams]:
    """N identical copies of TlsParams(p, epsilon)."""
    return [TlsParams(p, epsilon)] * n


class QuantumState:
    """
    State of N TLS, stored either as a state vector or a density matrix.

    Construct via :meth:`pure` or :meth:`mixed`. Real input stays real
    (float64) and complex input stays complex. Unit norm, Hermiticity and
    unit trace are checked on construction; positivity is enforced wherever
    eigenvalues are consumed (entropies, spectra).

    States built by :func:`pure_product_state` and
    :func:`mixed_product_state` also carry their single-TLS density
    matrices (:attr:`product_factors`); every other state, including any
    state derived from a product state, has none.
    """

    __slots__ = ("n", "vector", "matrix", "_factors")

    def __init__(self, n: int, vector: np.ndarray | None, matrix: np.ndarray | None):
        self.n = n
        self.vector = vector
        self.matrix = matrix
        self._factors: tuple[np.ndarray, ...] | None = None

    @classmethod
    def pure(cls, vector: np.ndarray, n: int) -> "QuantumState":
        vector = _real_or_complex(vector)
        if vector.shape != (2**n,):
            raise InvalidStateError(f"expected a vector of length {2**n}")
        norm = np.linalg.norm(vector)
        if abs(norm - 1.0) > 1e-12:
            raise InvalidStateError(f"norm {norm!r} != 1 beyond 1e-12")
        return cls(n, vector, None)

    @classmethod
    def mixed(cls, matrix: np.ndarray, n: int) -> "QuantumState":
        matrix = _real_or_complex(matrix)
        if matrix.shape != (2**n, 2**n):
            raise InvalidStateError(f"expected a {2**n}x{2**n} matrix")
        if not linalg.is_hermitian(matrix):
            raise InvalidStateError("density matrix is not Hermitian")
        tr = np.trace(matrix).real
        if abs(tr - 1.0) > 1e-10:
            raise InvalidStateError(f"trace {tr!r} != 1 beyond 1e-10")
        return cls(n, None, matrix)

    @property
    def product_factors(self) -> tuple[np.ndarray, ...] | None:
        """Single-TLS 2x2 density matrices of a product input, TLS 1 first."""
        return self._factors

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    @property
    def dim(self) -> int:
        return 2**self.n

    def to_density_matrix(self) -> np.ndarray:
        """Density matrix form (outer product for pure states)."""
        if self.matrix is not None:
            return self.matrix
        return np.outer(self.vector, self.vector.conj())

    def populations(self) -> np.ndarray:
        """Diagonal of the density matrix as a real vector."""
        if self.is_pure:
            return np.abs(self.vector) ** 2
        return np.diag(self.matrix).real.copy()

    def marginal(self, tls: int) -> np.ndarray:
        """2x2 reduced density matrix of one TLS (1-based index)."""
        if not 1 <= tls <= self.n:
            raise ValueError(f"TLS index {tls} out of range 1..{self.n}")
        if self._factors is not None:
            return self._factors[tls - 1]
        # pair every index with the TLS in |g> (g) with its partner in |e> (e)
        bit = 1 << (self.n - tls)
        idx = np.arange(self.dim)
        g = idx[(idx & bit) == 0]
        e = g | bit
        if self.is_pure:
            t = np.stack([self.vector[g], self.vector[e]])
            return t @ t.conj().T
        m = self.matrix
        return np.array([[m[g, g].sum(), m[g, e].sum()], [m[e, g].sum(), m[e, e].sum()]])


def hamiltonian_diagonal(spec: SystemSpec) -> np.ndarray:
    """Energies of the 2^N basis states, ordered by basis index."""
    idx = np.arange(spec.dim)
    n_excited = np.zeros(spec.dim, dtype=np.int64)
    for tls in range(1, spec.n + 1):
        n_excited += linalg.bit_of(idx, tls, spec.n)
    return (spec.energy_gap / 2.0) * (2 * n_excited - spec.n)


def _real_or_complex(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


def _check_params(spec: SystemSpec, params: Sequence[TlsParams]) -> None:
    if len(params) != spec.n:
        raise ValueError(f"expected {spec.n} TlsParams, got {len(params)}")


def pure_product_state(spec: SystemSpec, params: Sequence[TlsParams]) -> QuantumState:
    """
    Product of single-TLS superpositions sqrt(p)|e> + sqrt(1-p)|g>.

    Amplitudes are real and nonnegative; any epsilon entries are ignored.
    """
    _check_params(spec, params)
    singles = [np.array([math.sqrt(1.0 - t.p), math.sqrt(t.p)]) for t in params]
    amps = np.array([1.0])
    for single in singles:
        amps = np.kron(amps, single)
    state = QuantumState.pure(amps, spec.n)
    state._factors = tuple(np.outer(a, a) for a in singles)
    return state


def mixed_product_state(spec: SystemSpec, params: Sequence[TlsParams]) -> QuantumState:
    """
    Product of single-TLS matrices with populations (1-p, p) in the (g, e)
    basis and off-diagonals epsilon * sqrt(p(1-p)).
    """
    _check_params(spec, params)
    singles = []
    matrix = np.ones((1, 1))
    for t in params:
        x = t.epsilon * math.sqrt(t.p * (1.0 - t.p))
        singles.append(np.array([[1.0 - t.p, x], [x, t.p]]))
        matrix = np.kron(matrix, singles[-1])
    state = QuantumState.mixed(matrix, spec.n)
    state._factors = tuple(singles)
    return state


def binary_entropy(p: float) -> float:
    """-p ln p - (1-p) ln(1-p) in nats, with 0 ln 0 = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def initial_energy(spec: SystemSpec, p: float) -> float:
    """Energy (N E / 2)(2p - 1) of N TLS at homogeneous excitation p."""
    return 0.5 * spec.n * spec.energy_gap * (2.0 * p - 1.0)


def initial_coherence(spec: SystemSpec, p: float) -> float:
    """Coherence N h(p) of the pure product state at homogeneous p, in nats."""
    return spec.n * binary_entropy(p)
