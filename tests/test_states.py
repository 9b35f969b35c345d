import math

import numpy as np
import pytest

from cohsynth import measures
from cohsynth.errors import InvalidStateError, SystemSizeError
from cohsynth.states import (
    QuantumState,
    SystemSpec,
    TlsParams,
    binary_entropy,
    hamiltonian_diagonal,
    initial_coherence,
    initial_energy,
    mixed_product_state,
    pure_product_state,
    uniform_params,
)

from oracles import (
    binomial_initial_coherence,
    dense_hamiltonian,
    partial_trace,
    single_marginal,
)


def test_single_tls_hamiltonian_ordering():
    h = hamiltonian_diagonal(SystemSpec(1, energy_gap=2.0))
    assert np.array_equal(h, [-1.0, 1.0])
    assert np.array_equal(np.diag(dense_hamiltonian(1, gap=2.0)), h)


def test_two_tls_hamiltonian():
    h = hamiltonian_diagonal(SystemSpec(2))
    assert np.array_equal(h, [-1.0, 0.0, 0.0, 1.0])
    for n in (3, 5):
        assert np.array_equal(np.diag(dense_hamiltonian(n)), hamiltonian_diagonal(SystemSpec(n)))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_all_ground_energy(n):
    assert hamiltonian_diagonal(SystemSpec(n))[0] == -n / 2


def test_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec(0)
    with pytest.raises(ValueError):
        SystemSpec(2, energy_gap=0.0)
    with pytest.raises(SystemSizeError):
        SystemSpec(15)


def test_tls_params_validation():
    with pytest.raises(ValueError):
        TlsParams(-0.1)
    with pytest.raises(ValueError):
        TlsParams(0.5, epsilon=1.5)


def test_pure_product_extreme_p():
    spec = SystemSpec(3)
    ground = pure_product_state(spec, uniform_params(3, 0.0))
    assert ground.vector[0] == 1.0 and np.all(ground.vector[1:] == 0.0)
    excited = pure_product_state(spec, uniform_params(3, 1.0))
    assert excited.vector[-1] == 1.0 and np.all(excited.vector[:-1] == 0.0)


def test_pure_product_amplitudes():
    # basis order gg, ge, eg, ee
    state = pure_product_state(SystemSpec(2), uniform_params(2, 0.1))
    assert np.allclose(state.vector, [0.9, 0.3, 0.3, 0.1], atol=1e-15)


def test_pure_product_length_mismatch():
    with pytest.raises(ValueError):
        pure_product_state(SystemSpec(2), uniform_params(3, 0.1))


def test_mixed_equals_pure_outer_product_at_unit_epsilon():
    spec = SystemSpec(3)
    params = [TlsParams(0.1), TlsParams(0.3), TlsParams(0.05)]
    mixed = mixed_product_state(spec, params)
    pure = pure_product_state(spec, params)
    assert np.max(np.abs(mixed.matrix - pure.to_density_matrix())) < 1e-12


def test_mixed_fully_dephased_is_diagonal():
    mixed = mixed_product_state(SystemSpec(2), uniform_params(2, 0.2, epsilon=0.0))
    off = mixed.matrix - np.diag(np.diag(mixed.matrix))
    assert np.max(np.abs(off)) == 0.0
    assert measures.rel_entropy_coherence(mixed) == 0.0


def test_single_tls_mixed_matrix():
    mixed = mixed_product_state(SystemSpec(1), [TlsParams(0.1, epsilon=0.5)])
    # (g, e) basis: populations 0.9 / 0.1, off-diagonal 0.5 * sqrt(0.09) = 0.15
    assert np.allclose(mixed.matrix, [[0.9, 0.15], [0.15, 0.1]], atol=1e-15)


def test_mixed_heterogeneous_factorizes():
    params = [TlsParams(0.1, 0.9), TlsParams(0.3, 0.5), TlsParams(0.7, 0.2)]
    mixed = mixed_product_state(SystemSpec(3), params)
    factors = [
        np.array([[1 - t.p, t.epsilon * math.sqrt(t.p * (1 - t.p))],
                  [t.epsilon * math.sqrt(t.p * (1 - t.p)), t.p]])
        for t in params
    ]
    expected = np.kron(np.kron(factors[0], factors[1]), factors[2])
    assert np.max(np.abs(mixed.matrix - expected)) < 1e-14


def test_initial_energy_examples():
    assert initial_energy(SystemSpec(6), 0.5) == 0.0
    assert initial_energy(SystemSpec(4), 0.0) == -2.0
    assert abs(initial_energy(SystemSpec(3), 0.1) - (-1.2)) < 1e-15


@pytest.mark.parametrize("epsilon", [1.0, 0.7, 0.0])
@pytest.mark.parametrize("p", [0.05, 0.3, 0.8])
def test_energy_invariant_under_dephasing(p, epsilon):
    spec = SystemSpec(3)
    h = hamiltonian_diagonal(spec)
    mixed = mixed_product_state(spec, uniform_params(3, p, epsilon))
    assert abs(measures.average_energy(mixed, h) - initial_energy(spec, p)) < 1e-12


def test_energy_invariant_for_heterogeneous_inputs():
    spec = SystemSpec(3)
    h = hamiltonian_diagonal(spec)
    params_pure = [TlsParams(0.1), TlsParams(0.4), TlsParams(0.7)]
    params_mixed = [TlsParams(0.1, 0.2), TlsParams(0.4, 0.9), TlsParams(0.7, 0.0)]
    e_pure = measures.average_energy(pure_product_state(spec, params_pure), h)
    e_mixed = measures.average_energy(mixed_product_state(spec, params_mixed), h)
    assert abs(e_pure - e_mixed) < 1e-12


def test_initial_coherence_examples():
    assert initial_coherence(SystemSpec(4), 0.0) == 0.0
    assert abs(initial_coherence(SystemSpec(1), 0.5) - math.log(2)) < 1e-15
    assert abs(initial_coherence(SystemSpec(4), 0.1) - 1.3003318935657928) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("p", [0.005, 0.05, 0.3, 0.7])
def test_initial_coherence_matches_class_sum_and_measure(n, p):
    spec = SystemSpec(n)
    value = initial_coherence(spec, p)
    assert abs(value - binomial_initial_coherence(n, p)) < 1e-10
    state = pure_product_state(spec, uniform_params(n, p))
    assert abs(value - measures.rel_entropy_coherence(state)) < 1e-10


def test_quantum_state_validation():
    with pytest.raises(InvalidStateError):
        QuantumState.pure(np.array([1.0, 1.0]), 1)
    with pytest.raises(InvalidStateError):
        QuantumState.mixed(np.array([[0.5, 1.0], [0.0, 0.5]]), 1)
    with pytest.raises(InvalidStateError):
        QuantumState.mixed(np.diag([0.9, 0.9]), 1)


def test_product_states_are_real_and_carry_their_factors():
    spec = SystemSpec(3)
    params = [TlsParams(0.2, 0.5), TlsParams(0.5, 0.9), TlsParams(0.8, 0.0)]
    pure = pure_product_state(spec, params)
    mixed = mixed_product_state(spec, params)
    assert pure.vector.dtype == np.float64 and mixed.matrix.dtype == np.float64
    for state in (pure, mixed):
        assert len(state.product_factors) == 3
        for tls, factor in enumerate(state.product_factors, start=1):
            assert factor.shape == (2, 2)
            assert state.marginal(tls) is factor
    x = 0.5 * math.sqrt(0.2 * 0.8)
    assert np.array_equal(mixed.product_factors[0], [[0.8, x], [x, 0.2]])


def test_derived_states_drop_the_factors():
    from cohsynth.dephasing import dephase_local
    from cohsynth.protocol import MeasurementPlan, apply_protocol

    spec = SystemSpec(3)
    for state in (pure_product_state(spec, uniform_params(3, 0.2)),
                  mixed_product_state(spec, uniform_params(3, 0.2, 0.7))):
        final = apply_protocol(state, MeasurementPlan.chain(3)).final_state
        assert final.product_factors is None
        assert dephase_local(state, [0.5] * 3).product_factors is None
    copied = mixed_product_state(spec, uniform_params(3, 0.2)).matrix
    assert QuantumState.mixed(copied, 3).product_factors is None


def test_quantum_state_keeps_real_input_real():
    assert QuantumState.pure(np.array([0, 1]), 1).vector.dtype == np.float64
    assert QuantumState.mixed(np.eye(2) / 2, 1).matrix.dtype == np.float64
    assert QuantumState.pure(np.array([0, 1j]), 1).vector.dtype == np.complex128
    rho = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    assert QuantumState.mixed(rho, 1).matrix.dtype == np.complex128


def _state_without_factors(kind, n, rng):
    """A random state of the given kind that the marginal must compute from its entries."""
    if kind == "pure":
        v = rng.standard_normal(2**n)
        return QuantumState.pure(v / np.linalg.norm(v), n)
    g = rng.standard_normal((2**n, 2**n))
    if kind == "complex-mixed":
        g = g + 1j * rng.standard_normal(g.shape)
    rho = g @ g.conj().T
    return QuantumState.mixed(rho / np.trace(rho).real, n)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("kind", ["product", "pure", "real-mixed", "complex-mixed"])
def test_marginal_matches_partial_trace(kind, n):
    rng = np.random.default_rng(100 + n)
    if kind == "product":
        state = pure_product_state(SystemSpec(n), [TlsParams(p) for p in rng.uniform(size=n)])
    else:
        state = _state_without_factors(kind, n, rng)
        assert state.product_factors is None
    rho = state.to_density_matrix()
    for tls in range(1, n + 1):
        direct = state.marginal(tls)
        assert direct.shape == (2, 2)
        assert np.max(np.abs(direct - partial_trace(rho, {tls}, n))) < 1e-12
        assert np.max(np.abs(direct - single_marginal(rho, n, tls))) < 1e-12


def test_binary_entropy_bounds():
    assert binary_entropy(0.0) == binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - math.log(2)) < 1e-15
