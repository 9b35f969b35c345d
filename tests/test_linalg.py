import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cohsynth import linalg
from cohsynth.errors import InvalidStateError

from oracles import dephase_full, eigh_entropy, kron_all, partial_trace

RNG = np.random.default_rng(42)

I2 = np.eye(2, dtype=complex)


def test_kron_identities():
    assert np.array_equal(kron_all([I2, I2]), np.eye(4))
    proj = np.diag([1.0, 0.0])
    assert np.array_equal(kron_all([proj, proj]), np.diag([1.0, 0, 0, 0]))


def test_kron_population_product():
    rho_p = np.diag([0.1, 0.9])
    out = kron_all([rho_p, rho_p])
    assert np.allclose(np.diag(out), [0.01, 0.09, 0.09, 0.81], atol=1e-15)


def test_kron_associative_bilinear_trace_multiplicative():
    for _ in range(5):
        a = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        b = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        c = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        left = kron_all([kron_all([a, b]), c])
        right = kron_all([a, kron_all([b, c])])
        assert np.max(np.abs(left - right)) < 1e-14
        assert abs(np.trace(kron_all([a, b])) - np.trace(a) * np.trace(b)) < 1e-12
        summed = kron_all([a + b, c])
        split = kron_all([a, c]) + kron_all([b, c])
        assert np.max(np.abs(summed - split)) < 1e-14


def test_partial_trace_recovers_product_factor():
    rho_a = linalg.random_density_matrix(1, RNG)
    rho_b = linalg.random_density_matrix(1, RNG)
    joint = kron_all([rho_a, rho_b])
    assert np.max(np.abs(partial_trace(joint, {1}, 2) - rho_a)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, {2}, 2) - rho_b)) < 1e-12


def test_partial_trace_maximally_entangled():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho = np.outer(bell, bell.conj())
    reduced = partial_trace(rho, {1}, 2)
    assert np.max(np.abs(reduced - I2 / 2)) < 1e-12


def test_partial_trace_of_conditional_two_tls_state():
    # survivors of the N=2 chain at p=0.1 with amplitudes sqrt(w)/sqrt(0.19);
    # frozen marginal from the enumeration oracle: [[9/19, 3/19], [3/19, 10/19]]
    amps = np.array([0.0, 0.3, 0.3, 0.1], dtype=complex) / math.sqrt(0.19)
    rho = np.outer(amps, amps.conj())
    reduced = partial_trace(rho, {1}, 2)
    expected = np.array([[9 / 19, 3 / 19], [3 / 19, 10 / 19]])
    assert np.max(np.abs(reduced - expected)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
def test_partial_trace_preserves_density_properties(n):
    rho = linalg.random_density_matrix(n, RNG)
    keep = set(range(1, n // 2 + 1))
    reduced = partial_trace(rho, keep, n)
    assert abs(np.trace(reduced).real - 1.0) < 1e-12
    assert linalg.is_hermitian(reduced)
    assert np.linalg.eigvalsh(reduced).min() > -1e-10


def test_partial_trace_rejects_bad_indices():
    rho = linalg.random_density_matrix(2, RNG)
    with pytest.raises(ValueError):
        partial_trace(rho, {0}, 2)
    with pytest.raises(ValueError):
        partial_trace(rho, {3}, 2)
    with pytest.raises(ValueError):
        partial_trace(rho, set(), 2)


def test_entropy_examples():
    assert linalg.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert abs(linalg.von_neumann_entropy(I2 / 2) - math.log(2)) < 1e-12
    assert abs(linalg.von_neumann_entropy(np.diag([0.25, 0.75])) - 0.5623351446188083) < 1e-12


def test_entropy_rejects_invalid_states():
    with pytest.raises(InvalidStateError):
        linalg.von_neumann_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(InvalidStateError):
        linalg.von_neumann_entropy(np.diag([0.8, -0.2]))
    with pytest.raises(InvalidStateError):
        linalg.von_neumann_entropy(np.diag([0.7, 0.7]))


def test_dephase_full():
    diag = np.diag([0.3, 0.7]).astype(complex)
    assert np.array_equal(dephase_full(diag), diag)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.max(np.abs(dephase_full(plus) - I2 / 2)) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dephase_full_idempotent_and_entropy_increasing(n):
    rho = linalg.random_density_matrix(n, RNG)
    once = dephase_full(rho)
    assert np.array_equal(dephase_full(once), once)
    assert linalg.von_neumann_entropy(once) >= linalg.von_neumann_entropy(rho) - 1e-10


def test_spectrum_sorted_descending():
    rho = linalg.random_density_matrix(3, RNG)
    w = linalg.spectrum(rho)
    assert w.shape == (8,) and w.dtype == np.float64
    assert all(a >= b for a, b in zip(w, w[1:]))
    assert np.max(np.abs(w - np.sort(np.linalg.eigh(rho)[0])[::-1])) < 1e-14


def _block_supported(n, support, rng, complex_entries, rank=None):
    """Random density matrix of the given rank on the given basis indices, zero elsewhere."""
    k = len(support)
    g = rng.standard_normal((k, rank or k))
    if complex_entries:
        g = g + 1j * rng.standard_normal(g.shape)
    block = g @ g.conj().T
    rho = np.zeros((2**n, 2**n), dtype=block.dtype)
    rho[np.ix_(support, support)] = block / np.trace(block).real
    return rho


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_support_restricted_entropy_matches_dense(n, seed, complex_entries):
    rng = np.random.default_rng(seed)
    keep = rng.random(2**n) < 0.6
    keep[rng.integers(2**n)] = True
    support = np.flatnonzero(keep)
    # a rank-deficient block keeps some zero eigenvalues inside the support
    rank = int(rng.integers(1, len(support) + 1))
    rho = _block_supported(n, support, rng, complex_entries, rank)
    assert abs(linalg.von_neumann_entropy(rho) - eigh_entropy(rho)) < 1e-12


def test_entropy_keeps_real_block_real(monkeypatch):
    rho = _block_supported(3, [1, 2, 5], RNG, complex_entries=False)
    seen = []
    original = linalg.spectrum
    monkeypatch.setattr(linalg, "spectrum", lambda m: seen.append(m) or original(m))
    linalg.von_neumann_entropy(rho)
    assert [m.shape for m in seen] == [(3, 3)]
    assert seen[0].dtype == np.float64


def test_entropy_rejects_nonzero_row_on_zero_diagonal():
    rho = np.diag([0.5, 0.0, 0.5])
    rho[0, 1] = rho[1, 0] = 0.1
    with pytest.raises(InvalidStateError):
        linalg.von_neumann_entropy(rho)
    one_sided = np.diag([0.5, 0.0, 0.5])
    one_sided[2, 1] = 0.1
    with pytest.raises(InvalidStateError):
        linalg.von_neumann_entropy(one_sided)
    with pytest.raises(InvalidStateError):
        linalg.von_neumann_entropy(np.zeros((2, 2)))


@pytest.mark.parametrize("n", range(1, 9))
def test_product_spectrum_matches_dense_kron(n):
    factors = []
    for _ in range(n):
        p, eps = RNG.uniform(0.0, 1.0, size=2)
        x = eps * math.sqrt(p * (1 - p))
        factors.append(np.array([[1 - p, x], [x, p]]))
    dense = kron_all(factors)
    expected = np.sort(np.linalg.eigvalsh(dense))[::-1]
    assert np.max(np.abs(linalg.product_spectrum(factors) - expected)) < 1e-14


def test_system_size_cap(monkeypatch):
    monkeypatch.setenv("COHSYNTH_MAX_TLS", "5")
    assert linalg.max_tls() == 5
    with pytest.raises(linalg.SystemSizeError):
        linalg.check_system_size(6)
    monkeypatch.delenv("COHSYNTH_MAX_TLS")
    assert linalg.max_tls() == 14


def test_system_size_cap_names_bad_value(monkeypatch):
    monkeypatch.setenv("COHSYNTH_MAX_TLS", "abc")
    with pytest.raises(ValueError, match="COHSYNTH_MAX_TLS='abc'"):
        linalg.max_tls()


def test_entropy_of_pure_distribution_is_positive_zero():
    value = linalg.entropy_of_probabilities(np.array([1.0]))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
