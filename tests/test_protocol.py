import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohsynth import protocol
from cohsynth.closedform import count_no_adjacent_ground
from cohsynth.dephasing import DephasingSpec
from cohsynth.errors import ProtocolImpossibleError
from cohsynth.protocol import (
    MeasurementPlan,
    apply_protocol,
    run_experiment,
    rus_failure_probability,
    success_mask,
)
from cohsynth.states import (
    QuantumState,
    SystemSpec,
    TlsParams,
    mixed_product_state,
    pure_product_state,
    uniform_params,
)

from oracles import (
    all_strings,
    brute_protocol,
    chain_survives,
    dense_report,
    fibonacci,
    global_survives,
)

RNG = np.random.default_rng(11)


def _survivor_indices(n, survives):
    """Basis indices of the surviving strings, enumerated by the oracle."""
    return [i for i, s in enumerate(all_strings(n)) if survives(s)]


def test_chain_mask_two_tls():
    # only |gg> (index 0) is removed
    mask = success_mask(MeasurementPlan.chain(2), 2)
    assert mask.dtype == bool and mask.shape == (4,)
    assert list(np.flatnonzero(mask)) == [1, 2, 3] == _survivor_indices(2, chain_survives)


def test_chain_mask_three_tls():
    # survivors: geg, gee, ege, eeg, eee
    mask = success_mask(MeasurementPlan.chain(3), 3)
    assert list(np.flatnonzero(mask)) == [2, 3, 5, 6, 7] == _survivor_indices(3, chain_survives)


def test_global_mask_removes_only_collective_ground():
    mask = success_mask(MeasurementPlan.global_protocol(), 4)
    assert list(np.flatnonzero(mask)) == list(range(1, 16)) == _survivor_indices(4, global_survives)


@pytest.mark.parametrize("n", range(2, 13))
def test_chain_mask_cardinality(n):
    mask = success_mask(MeasurementPlan.chain(n), n)
    by_class = sum(count_no_adjacent_ground(n, k) for k in range(n + 1))
    assert mask.sum() == by_class == fibonacci(n + 2)
    assert list(np.flatnonzero(mask)) == _survivor_indices(n, chain_survives)


def test_plan_validation():
    with pytest.raises(ValueError):
        success_mask(MeasurementPlan.custom([(1, 1)]), 3)
    with pytest.raises(ValueError):
        success_mask(MeasurementPlan.custom([(1, 4)]), 3)
    with pytest.raises(ValueError):
        MeasurementPlan.chain(1)


def test_success_probability_two_tls():
    state = pure_product_state(SystemSpec(2), uniform_params(2, 0.1))
    outcome = apply_protocol(state, MeasurementPlan.chain(2))
    assert abs(outcome.success_probability - 0.19) < 1e-15


def test_success_probability_three_tls():
    state = pure_product_state(SystemSpec(3), uniform_params(3, 0.1))
    outcome = apply_protocol(state, MeasurementPlan.chain(3))
    assert abs(outcome.success_probability - 0.109) < 1e-15


def test_state_already_on_mask_passes_through():
    vec = np.zeros(4, dtype=complex)
    vec[1], vec[3] = 0.6, 0.8  # weights 0.36 + 0.64 sum to exactly 1.0
    state = QuantumState.pure(vec, 2)
    outcome = apply_protocol(state, MeasurementPlan.chain(2))
    assert outcome.success_probability == 1.0
    assert np.array_equal(outcome.final_state.vector, vec)


def test_final_state_supported_on_mask(monkeypatch):
    used = []
    monkeypatch.setattr(
        protocol, "success_mask", lambda plan, n: used.append(success_mask(plan, n)) or used[-1]
    )
    spec, plan = SystemSpec(5), MeasurementPlan.chain(5)
    for state in (pure_product_state(spec, uniform_params(5, 0.2)),
                  mixed_product_state(spec, uniform_params(5, 0.2, 0.6))):
        outcome = apply_protocol(state, plan)
        # the outcome carries the very boolean array the projection used
        assert outcome.success_mask is used[-1]
        assert outcome.success_mask.dtype == bool and outcome.success_mask.shape == (32,)
        alive = outcome.success_mask
        rho = outcome.final_state.to_density_matrix()
        assert np.all(rho[~alive] == 0.0) and np.all(rho[:, ~alive] == 0.0)
        weight = state.populations()[alive]
        assert abs(outcome.success_probability - weight.sum()) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_order_invariance_of_chain(n):
    state = mixed_product_state(SystemSpec(n), uniform_params(n, 0.15, epsilon=0.7))
    base = apply_protocol(state, MeasurementPlan.chain(n)).final_state
    pairs = list(MeasurementPlan.chain(n).pairs)
    rng = random.Random(3)
    for _ in range(4):
        rng.shuffle(pairs)
        shuffled = apply_protocol(state, MeasurementPlan.custom(pairs)).final_state
        assert np.max(np.abs(shuffled.matrix - base.matrix)) < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_pure_and_mixed_inputs_agree(n):
    spec = SystemSpec(n)
    params = uniform_params(n, 0.12)
    plan = MeasurementPlan.chain(n)
    pure_out = apply_protocol(pure_product_state(spec, params), plan)
    mixed_out = apply_protocol(mixed_product_state(spec, params), plan)
    assert abs(pure_out.success_probability - mixed_out.success_probability) < 1e-12
    diff = pure_out.final_state.to_density_matrix() - mixed_out.final_state.matrix
    assert np.max(np.abs(diff)) < 1e-12


def test_projection_idempotent():
    state = pure_product_state(SystemSpec(4), uniform_params(4, 0.3))
    plan = MeasurementPlan.chain(4)
    first = apply_protocol(state, plan)
    second = apply_protocol(first.final_state, plan)
    assert abs(second.success_probability - 1.0) < 1e-12
    assert np.max(np.abs(second.final_state.vector - first.final_state.vector)) < 1e-12


def test_all_ground_input_is_impossible():
    state = pure_product_state(SystemSpec(3), uniform_params(3, 0.0))
    with pytest.raises(ProtocolImpossibleError):
        apply_protocol(state, MeasurementPlan.chain(3))


def test_simulator_matches_enumeration_oracle():
    for n in (2, 3, 4, 5, 6):
        for p in (0.01, 0.1, 0.3):
            spec = SystemSpec(n)
            outcome = apply_protocol(
                pure_product_state(spec, uniform_params(n, p)), MeasurementPlan.chain(n)
            )
            ps_ref, _, _, _ = brute_protocol(n, [p] * n)
            assert abs(outcome.success_probability - ps_ref) < 1e-12


def test_rus_examples():
    assert rus_failure_probability(0.19, 1) == 1 - 0.19
    assert abs(rus_failure_probability(0.19, 10) - 0.12157665459056936) < 1e-15
    assert rus_failure_probability(1.0, 23) == 0.0
    with pytest.raises(ValueError):
        rus_failure_probability(1.2, 3)
    with pytest.raises(ValueError):
        rus_failure_probability(0.5, 0)


@given(st.floats(min_value=0.01, max_value=0.99), st.integers(min_value=1, max_value=200))
@example(0.99, 154)  # (1 - p_s)^(r+1) is the first subnormal
@example(0.99, 162)  # both sides underflow to 0.0
@settings(max_examples=40, deadline=None)
def test_rus_monotone_in_repetitions(p_s, r):
    later = rus_failure_probability(p_s, r + 1)
    earlier = rus_failure_probability(p_s, r)
    if later >= sys.float_info.min:
        assert later < earlier
    else:
        # below the normal range the power loses precision and may reach 0.0
        assert 0.0 <= later <= earlier


def test_run_experiment_even_gains():
    rep = run_experiment(SystemSpec(4), uniform_params(4, 0.05), MeasurementPlan.chain(4))
    assert rep.delta_c > 0.0
    assert rep.delta_cm > 0.0


def test_run_experiment_odd_suppression():
    rep = run_experiment(SystemSpec(3), uniform_params(3, 0.005), MeasurementPlan.chain(3))
    assert abs(rep.delta_c) < 0.01
    assert abs(rep.delta_e - 1.0) < 0.1


def test_unit_epsilon_dephasing_is_identity():
    spec = SystemSpec(3)
    params = uniform_params(3, 0.08)
    plan = MeasurementPlan.chain(3)
    plain = run_experiment(spec, params, plan)
    with_spec = run_experiment(
        spec, params, plan, DephasingSpec(pre=(1.0,) * 3, post=(1.0,) * 3)
    )
    assert plain == with_spec


@pytest.mark.parametrize("n", range(2, 9))
def test_energy_gain_positive_for_all_p(n):
    plan = MeasurementPlan.chain(n)
    spec = SystemSpec(n)
    for p in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        rep = run_experiment(spec, uniform_params(n, p), plan)
        assert rep.delta_e > 0.0


def test_heterogeneous_excitations_supported():
    params = [TlsParams(0.02), TlsParams(0.07), TlsParams(0.04), TlsParams(0.06)]
    rep = run_experiment(SystemSpec(4), params, MeasurementPlan.chain(4))
    ps_ref, ef_ref, cf_ref, _ = brute_protocol(4, [t.p for t in params])
    assert abs(rep.p_s - ps_ref) < 1e-12
    assert abs(rep.ef - ef_ref) < 1e-12
    assert abs(rep.cf - cf_ref) < 1e-12


_eps_lists = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=8, max_size=8)


@given(
    st.integers(min_value=2, max_value=8),
    st.lists(st.floats(min_value=0.005, max_value=0.95), min_size=8, max_size=8),
    st.sampled_from(["chain", "global"]),
    st.sampled_from(["pre", "post", "both"]),
    _eps_lists,
    _eps_lists,
)
@settings(max_examples=30, deadline=None)
def test_dephased_cells_match_dense_report(n, p_list, plan_kind, sides, pre, post):
    p_list, pre, post = p_list[:n], pre[:n], post[:n]
    pre = None if sides == "post" else tuple(pre)
    post = None if sides == "pre" else tuple(post)
    plan = MeasurementPlan.chain(n) if plan_kind == "chain" else MeasurementPlan.global_protocol()
    survives = chain_survives if plan_kind == "chain" else global_survives
    spec = SystemSpec(n)
    rep = run_experiment(spec, [TlsParams(p) for p in p_list], plan, DephasingSpec(pre, post))
    got = (rep.p_s, rep.e0, rep.ef, rep.c0, rep.cf, rep.c0_loc, rep.cf_loc)
    want = dense_report(n, p_list, survives, pre, post)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-12
