import math

import numpy as np
import pytest

from cohsynth import linalg
from cohsynth.errors import ProtocolImpossibleError
from cohsynth.measures import (
    average_energy,
    gain_report,
    local_coherence,
    mutual_coherence,
    rel_entropy_coherence,
)
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

from oracles import mutual_coherence_from_relative_entropies, relative_entropy

RNG = np.random.default_rng(7)


def random_state(n):
    return QuantumState.mixed(linalg.random_density_matrix(n, RNG), n)


def test_average_energy_examples():
    spec = SystemSpec(2)
    h = hamiltonian_diagonal(spec)
    ground = QuantumState.pure(np.array([1, 0, 0, 0], dtype=complex), 2)
    assert average_energy(ground, h) == -1.0
    maximally_mixed = QuantumState.mixed(np.eye(4, dtype=complex) / 4, 2)
    assert abs(average_energy(maximally_mixed, h)) < 1e-15


def test_average_energy_matches_closed_form():
    spec = SystemSpec(3)
    state = pure_product_state(spec, uniform_params(3, 0.1))
    assert abs(average_energy(state, hamiltonian_diagonal(spec)) - (-1.2)) < 1e-12


def test_average_energy_dim_mismatch():
    state = pure_product_state(SystemSpec(2), uniform_params(2, 0.1))
    with pytest.raises(ValueError):
        average_energy(state, hamiltonian_diagonal(SystemSpec(3)))


def test_coherence_of_diagonal_mixture_is_exactly_zero():
    state = QuantumState.mixed(np.diag([0.2, 0.3, 0.1, 0.4]).astype(complex), 2)
    assert rel_entropy_coherence(state) == 0.0


def test_coherence_of_plus_state():
    plus = QuantumState.pure(np.array([1, 1], dtype=complex) / math.sqrt(2), 1)
    assert abs(rel_entropy_coherence(plus) - math.log(2)) < 1e-12


def test_coherence_of_partially_dephased_tls():
    # 2x2 eigenvalues (1 +/- sqrt((2p-1)^2 + 4 eps^2 p(1-p)))/2 at p=0.1, eps=0.5
    state = mixed_product_state(SystemSpec(1), [TlsParams(0.1, 0.5)])
    lam = 0.5 * (1 + math.sqrt(0.64 + 0.09))
    expected = (-0.1 * math.log(0.1) - 0.9 * math.log(0.9)) - (
        -lam * math.log(lam) - (1 - lam) * math.log(1 - lam)
    )
    assert abs(rel_entropy_coherence(state) - expected) < 1e-12
    assert abs(expected - 0.06426126000369026) < 1e-15


def test_local_coherence_of_product_equals_global():
    state = pure_product_state(SystemSpec(4), uniform_params(4, 0.05))
    assert abs(local_coherence(state) - rel_entropy_coherence(state)) < 1e-10


def test_local_coherence_of_dephased_state_is_zero():
    state = mixed_product_state(SystemSpec(3), uniform_params(3, 0.3, epsilon=0.0))
    assert local_coherence(state) == 0.0


def test_local_coherence_of_conditional_state():
    state = pure_product_state(SystemSpec(2), uniform_params(2, 0.1))
    final = apply_protocol(state, MeasurementPlan.chain(2)).final_state
    # frozen from the enumeration oracle (symmetric marginals)
    assert abs(local_coherence(final) - 0.10154850604104237) < 1e-12


def test_mutual_coherence_of_product_state_vanishes():
    state = mixed_product_state(SystemSpec(3), uniform_params(3, 0.2, epsilon=0.8))
    assert abs(mutual_coherence(state)) < 1e-10


def test_mutual_coherence_of_shared_excitation():
    vec = np.zeros(4, dtype=complex)
    vec[1] = vec[2] = 1 / math.sqrt(2)  # (|ge> + |eg>)/sqrt(2)
    state = QuantumState.pure(vec, 2)
    assert abs(mutual_coherence(state) - math.log(2)) < 1e-12


def test_mutual_coherence_small_p_limit():
    state = pure_product_state(SystemSpec(4), uniform_params(4, 1e-4))
    final = apply_protocol(state, MeasurementPlan.chain(4)).final_state
    assert abs(mutual_coherence(final) - math.log(3)) < 0.01


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mutual_coherence_two_route_agreement_random(n):
    for _ in range(3):
        state = random_state(n)
        oracle = mutual_coherence_from_relative_entropies(state.to_density_matrix(), n)
        assert abs(mutual_coherence(state) - oracle) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mutual_coherence_two_route_agreement_conditional(n):
    state = pure_product_state(SystemSpec(n), uniform_params(n, 0.1))
    final = apply_protocol(state, MeasurementPlan.chain(n)).final_state
    oracle = mutual_coherence_from_relative_entropies(final.to_density_matrix(), n)
    assert abs(mutual_coherence(final) - oracle) < 1e-9


def test_relative_entropy_requires_full_support_reference():
    rho = linalg.random_density_matrix(1, RNG)
    singular = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        relative_entropy(rho, singular)


def test_coherence_invariant_under_diagonal_unitaries():
    for n in (2, 3):
        state = random_state(n)
        base = rel_entropy_coherence(state)
        phases = np.exp(1j * RNG.uniform(0, 2 * math.pi, size=2**n))
        rotated = QuantumState.mixed(
            state.matrix * np.outer(phases, phases.conj()), n
        )
        assert abs(rel_entropy_coherence(rotated) - base) < 1e-10


def test_gain_report_identity_run():
    spec = SystemSpec(3)
    state = pure_product_state(spec, uniform_params(3, 0.2))
    rep = gain_report(state, state, 1.0, spec)
    assert rep.delta_e == 0.0
    assert rep.delta_c == 0.0
    assert rep.delta_cm == 0.0


def test_gain_report_two_tls_energy_gain():
    spec = SystemSpec(2)
    state = pure_product_state(spec, uniform_params(2, 0.1))
    outcome = apply_protocol(state, MeasurementPlan.chain(2))
    rep = gain_report(state, outcome.final_state, outcome.success_probability, spec)
    assert abs(rep.delta_e - 2 * 0.9**2 / 1.9) < 1e-12
    assert abs(rep.delta_e - (rep.ef - rep.e0) / spec.energy_gap) < 1e-15
    assert abs(rep.delta_c - (rep.cf - rep.c0)) < 1e-15
    assert abs(rep.delta_cm - ((rep.cf - rep.cf_loc) - (rep.c0 - rep.c0_loc))) < 1e-15


def test_gain_report_four_tls_coherence_gain_near_approximation():
    spec = SystemSpec(4)
    p = 0.05
    state = pure_product_state(spec, uniform_params(4, p))
    outcome = apply_protocol(state, MeasurementPlan.chain(4))
    rep = gain_report(state, outcome.final_state, outcome.success_probability, spec)
    approx = math.log(3) - (4 * 16 / 24) * (1 - math.log(p)) * p
    assert abs(rep.delta_c / approx - 1) < 0.10


def test_gain_report_rejects_zero_success():
    spec = SystemSpec(2)
    state = pure_product_state(spec, uniform_params(2, 0.1))
    with pytest.raises(ProtocolImpossibleError):
        gain_report(state, state, 0.0, spec)
