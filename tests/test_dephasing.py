import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsynth import linalg, measures
from cohsynth.dephasing import DephasingSpec, dephase_local, kraus_oracle
from cohsynth.errors import SystemSizeError
from cohsynth.protocol import MeasurementPlan, apply_protocol
from cohsynth.states import (
    QuantumState,
    SystemSpec,
    TlsParams,
    hamiltonian_diagonal,
    mixed_product_state,
    pure_product_state,
    uniform_params,
)

from oracles import dephase_full

RNG = np.random.default_rng(23)


def random_state(n, rng=RNG):
    return QuantumState.mixed(linalg.random_density_matrix(n, rng), n)


def test_spec_validation():
    with pytest.raises(ValueError):
        DephasingSpec(pre=(0.5, 0.5)).validated(3)
    with pytest.raises(ValueError):
        DephasingSpec(post=(1.2, 0.5)).validated(2)
    with pytest.raises(ValueError):
        DephasingSpec(pre=(float("nan"), 0.5)).validated(2)
    assert DephasingSpec.uniform(3, pre=0.9).pre == (0.9, 0.9, 0.9)
    assert DephasingSpec().validated(5) == DephasingSpec()


def test_unit_epsilon_is_identity():
    state = pure_product_state(SystemSpec(2), uniform_params(2, 0.2))
    out = dephase_local(state, [1.0, 1.0])
    assert out is state  # pure representation preserved


def test_zero_epsilon_kills_all_coherence():
    state = pure_product_state(SystemSpec(3), uniform_params(3, 0.2))
    out = dephase_local(state, [0.0, 0.0, 0.0])
    expected = dephase_full(state.to_density_matrix())
    assert np.max(np.abs(out.matrix - expected)) < 1e-15
    assert measures.rel_entropy_coherence(out) == 0.0


def test_single_tls_channel_matches_mixture_constructor():
    pure = pure_product_state(SystemSpec(1), [TlsParams(0.1)])
    out = dephase_local(pure, [0.5])
    assert abs(out.matrix[0, 1] - 0.15) < 1e-15
    direct = mixed_product_state(SystemSpec(1), [TlsParams(0.1, 0.5)])
    assert np.max(np.abs(out.matrix - direct.matrix)) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kraus_oracle_equivalence(n):
    for _ in range(3):
        state = random_state(n)
        eps = RNG.uniform(0.0, 1.0, size=n).tolist()
        fast = dephase_local(state, eps)
        ref = kraus_oracle(state, eps)
        assert np.max(np.abs(fast.matrix - ref.matrix)) < 1e-12
        assert abs(np.trace(ref.matrix).real - 1.0) < 1e-12


def test_kraus_oracle_single_qubit_form():
    pure = pure_product_state(SystemSpec(1), [TlsParams(0.1)])
    out = kraus_oracle(pure, [0.5])
    expected = mixed_product_state(SystemSpec(1), [TlsParams(0.1, 0.5)])
    assert np.max(np.abs(out.matrix - expected.matrix)) < 1e-15


def test_kraus_oracle_size_cap(monkeypatch):
    monkeypatch.setenv("COHSYNTH_MAX_TLS", "16")
    vec = np.zeros(2**11, dtype=complex)
    vec[0] = 1.0
    state = QuantumState.pure(vec, 11)
    with pytest.raises(SystemSizeError):
        kraus_oracle(state, [0.9] * 11)


@pytest.mark.parametrize("n", range(2, 7))
def test_channel_commutes_with_projectors(n):
    plan = MeasurementPlan.chain(n)
    for _ in range(2):
        state = random_state(n)
        eps = RNG.uniform(0.0, 1.0, size=n).tolist()
        before = apply_protocol(dephase_local(state, eps), plan).final_state
        after = dephase_local(apply_protocol(state, plan).final_state, eps)
        assert np.max(np.abs(before.matrix - after.to_density_matrix())) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_energy_invariance(n):
    h = hamiltonian_diagonal(SystemSpec(n))
    state = random_state(n)
    eps = RNG.uniform(0.0, 1.0, size=n).tolist()
    out = dephase_local(state, eps)
    assert abs(measures.average_energy(out, h) - measures.average_energy(state, h)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coherence_monotone_under_dephasing(n):
    state = random_state(n)
    base = measures.rel_entropy_coherence(state)
    for eps in (0.9, 0.5, 0.1):
        out = dephase_local(state, [eps] * n)
        assert measures.rel_entropy_coherence(out) <= base + 1e-10


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2),
)
@settings(max_examples=30, deadline=None)
def test_composition_is_elementwise_product(eps_a, eps_b):
    state = QuantumState.mixed(linalg.random_density_matrix(2, np.random.default_rng(5)), 2)
    two_pass = dephase_local(dephase_local(state, eps_a), eps_b)
    one_pass = dephase_local(state, [a * b for a, b in zip(eps_a, eps_b)])
    diff = two_pass.to_density_matrix() - one_pass.to_density_matrix()
    assert np.max(np.abs(diff)) < 1e-12


def test_length_mismatch_rejected():
    state = random_state(2)
    with pytest.raises(ValueError):
        dephase_local(state, [0.9])
    with pytest.raises(ValueError):
        dephase_local(state, [0.9, 1.1])
