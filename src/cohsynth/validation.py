"""Cross-validation suite: simulator vs closed forms vs stated tolerance bands.

Each check pits two independent routes against each other (dense simulation
vs combinatorial sums, factor-table dephasing vs explicit Kraus sums, ...)
or verifies a published accuracy band. ``run_all`` returns one result per
criterion; the CLI ``validate`` command prints them and exits nonzero if
any fail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import closedform, linalg, measures
from .dephasing import DephasingSpec, dephase_local, kraus_oracle
from .protocol import (
    MeasurementPlan,
    apply_protocol,
    run_experiment,
    rus_failure_probability,
)
from .states import (
    QuantumState,
    SystemSpec,
    TlsParams,
    hamiltonian_diagonal,
    pure_product_state,
    uniform_params,
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: list[str], detail: str = "") -> CriterionResult:
    if failures:
        return CriterionResult(name, False, "; ".join(failures[:4]))
    return CriterionResult(name, True, detail)


def _pairwise_report(n: int, p: float, pre=None, post=None):
    spec = SystemSpec(n)
    return run_experiment(
        spec, uniform_params(n, p), MeasurementPlan.chain(n),
        DephasingSpec.uniform(n, pre=pre, post=post),
    )


def _global_report(n: int, p: float):
    spec = SystemSpec(n)
    return run_experiment(spec, uniform_params(n, p), MeasurementPlan.global_protocol())


def check_oracle_equivalence() -> CriterionResult:
    """Simulated p_s, E_f, C_f match the combinatorial closed forms to 1e-9."""
    start = time.perf_counter()
    failures = []
    for n in range(2, 11):
        spec = SystemSpec(n)
        plan = MeasurementPlan.chain(n)
        h = hamiltonian_diagonal(spec)
        for p in (0.005, 0.01, 0.05, 0.1, 0.3):
            outcome = apply_protocol(pure_product_state(spec, uniform_params(n, p)), plan)
            ef_sim = measures.average_energy(outcome.final_state, h)
            cf_sim = measures.rel_entropy_coherence(outcome.final_state)
            checks = (
                ("p_s", outcome.success_probability, closedform.ps_exact(n, p)),
                ("E_f", ef_sim, closedform.ef_exact(n, p)),
                ("C_f", cf_sim, closedform.cf_exact(n, p)),
            )
            for label, sim, exact in checks:
                if abs(sim - exact) >= 1e-9:
                    failures.append(f"{label} N={n} p={p}: |{sim!r}-{exact!r}|")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    return _result(
        "simulator matches closed-form p_s/E_f/C_f (N 2..10, 1e-9)",
        failures,
        f"45 grid points, {elapsed:.2f}s",
    )


def check_ps_approximation_band() -> CriterionResult:
    """Even-N success-probability approximation stays within 10% up to p = 0.1."""
    failures, worst = [], 0.0
    for n in (2, 4, 6, 8, 10):
        for p in (0.005, 0.01, 0.02, 0.05, 0.08, 0.1):
            dev = abs(closedform.approx_ps(n, p) / closedform.ps_exact(n, p) - 1.0)
            worst = max(worst, dev)
            if dev > 0.10:
                failures.append(f"N={n} p={p}: rel dev {dev:.3f}")
    return _result("even-N p_s approximation within 10% (p <= 0.1)", failures,
                   f"worst rel dev {worst:.4f}")


def check_energy_gain_band() -> CriterionResult:
    """Energy gain tracks n/2 - n(20-n)p/24 (even) and (n-1)/2 (odd)."""
    failures, worst = [], 0.0
    for n in (2, 4, 6, 8):
        for p in (0.005, 0.01, 0.02, 0.05):
            de = _pairwise_report(n, p).delta_e
            dev = abs(de - closedform.approx_de(n, p))
            worst = max(worst, dev)
            if dev > 0.05:
                failures.append(f"even N={n} p={p}: abs dev {dev:.4f}")
    for n in (3, 5, 7, 9):
        de = _pairwise_report(n, 0.005).delta_e
        dev = abs(de - (n - 1) / 2.0)
        worst = max(worst, dev)
        if dev > 0.1:
            failures.append(f"odd N={n}: abs dev {dev:.4f}")
    return _result("energy-gain approximation bands", failures, f"worst abs dev {worst:.4f}")


def check_coherence_gain_limit() -> CriterionResult:
    """Small-p coherence gain: ln(n/2+1) for even n, suppressed for odd n."""
    failures = []
    for n in (2, 4, 6, 8, 10):
        dc = _pairwise_report(n, 0.001).delta_c
        target = math.log(n / 2 + 1)
        dev = abs(dc / target - 1.0)
        if dev > 0.05:
            failures.append(f"even N={n}: dc={dc:.5f} vs ln={target:.5f} ({dev:.3f})")
    for n in (3, 5):
        dc = _pairwise_report(n, 0.005).delta_c
        if abs(dc) >= 0.05:
            failures.append(f"odd N={n}: dc={dc:.5f} not suppressed")
    return _result("coherence-gain small-p limits (even ln(n/2+1), odd ~0)", failures)


def check_mutual_coherence_relation() -> CriterionResult:
    """Mutual gain exceeds plain gain, local coherence is consumed, and the
    even-n mutual-gain approximation stays within 5% up to p = 0.12."""
    failures, worst = [], 0.0
    for n in (2, 4, 6, 8):
        for p in (0.01, 0.05, 0.1):
            rep = _pairwise_report(n, p)
            if not rep.delta_cm > rep.delta_c:
                failures.append(f"N={n} p={p}: delta_cm <= delta_c")
            if not rep.cf_loc < rep.c0_loc:
                failures.append(f"N={n} p={p}: local coherence not consumed")
    for n in (2, 4, 6, 8, 10):
        for p in (0.01, 0.05, 0.1, 0.12):
            dcm = _pairwise_report(n, p).delta_cm
            dev = abs(closedform.approx_dcm(n, p) / dcm - 1.0)
            worst = max(worst, dev)
            if dev > 0.05:
                failures.append(f"approx N={n} p={p}: rel dev {dev:.3f}")
    return _result("mutual-coherence relation and 5% approximation band", failures,
                   f"measured worst rel dev {worst:.4f}")


def check_global_protocol_bands() -> CriterionResult:
    """Global-protocol approximations within 10% over their stated p ranges."""
    failures, worst = [], 0.0
    grids = {
        "ps": ((0.005, 0.01, 0.02), lambda n, p, r: closedform.global_approx(n, p).ps / r.p_s),
        "de": ((0.005, 0.02, 0.05, 0.08), lambda n, p, r: closedform.global_approx(n, p).de / r.delta_e),
        "dc": ((0.005, 0.02, 0.06), lambda n, p, r: closedform.global_approx(n, p).dc / r.delta_c),
        "dcm": ((0.005, 0.05, 0.11), lambda n, p, r: closedform.global_approx(n, p).dcm / r.delta_cm),
    }
    for label, (p_grid, ratio) in grids.items():
        n_lo = 3 if label == "dcm" else 2
        for n in range(n_lo, 9):
            for p in p_grid:
                dev = abs(ratio(n, p, _global_report(n, p)) - 1.0)
                worst = max(worst, dev)
                if dev > 0.10:
                    failures.append(f"{label} N={n} p={p}: rel dev {dev:.3f}")
    return _result("global-protocol approximation bands (10%)", failures,
                   f"worst rel dev {worst:.4f}")


def check_distillation_comparison() -> CriterionResult:
    """Optimal-distillation success probability (2p)^n sits below the chain's."""
    failures = []
    for n in (2, 4, 6, 8):
        for p in (0.005, 0.01, 0.05, 0.1):
            ps_opt = closedform.optimal_comparison(n, p).ps_opt
            if not ps_opt < closedform.ps_exact(n, p):
                failures.append(f"N={n} p={p}")
    return _result("distillation trade-off: (2p)^n below pairwise p_s", failures)


def check_dephasing_channel_properties(seed: int = 1234) -> CriterionResult:
    """Energy invariance, Kraus-sum oracle equivalence, projector commutation."""
    rng = np.random.default_rng(seed)
    failures = []
    for n in range(2, 7):
        h = hamiltonian_diagonal(SystemSpec(n))
        plan = MeasurementPlan.chain(n)
        for _ in range(3):
            rho = QuantumState.mixed(linalg.random_density_matrix(n, rng), n)
            eps = rng.uniform(0.0, 1.0, size=n).tolist()
            dephased = dephase_local(rho, eps)
            if abs(measures.average_energy(dephased, h) - measures.average_energy(rho, h)) > 1e-12:
                failures.append(f"energy shifted N={n}")
            if n <= 5:
                ref = kraus_oracle(rho, eps)
                if np.max(np.abs(dephased.to_density_matrix() - ref.to_density_matrix())) > 1e-12:
                    failures.append(f"Kraus oracle mismatch N={n}")
            a = dephase_local(apply_protocol(rho, plan).final_state, eps)
            b = apply_protocol(dephase_local(rho, eps), plan).final_state
            if np.max(np.abs(a.to_density_matrix() - b.to_density_matrix())) > 1e-12:
                failures.append(f"channel/projector do not commute N={n}")
    return _result("dephasing channel: energy invariant, oracle equal, commutes", failures)


def check_dephasing_critical_behavior() -> CriterionResult:
    """Gain survives eps = 0.9, collapses below the critical region, and the
    pre-only gain stays below the post-only gain at matched eps.

    The last clause is retained as specified even though it cannot hold:
    diagonal Kraus operators commute with the diagonal projectors, so
    pre-only and post-only runs produce the *same* final state and the
    pre-only run subtracts the smaller (already dephased) baseline. The
    measured gap is reported instead of hidden.
    """
    failures = []
    for n in (2, 4, 6):
        strong = _pairwise_report(n, 0.01, pre=0.9).delta_c
        if not strong > 0.0:
            failures.append(f"N={n}: gain lost at eps=0.9 ({strong:.4f})")
        weak = _pairwise_report(n, 0.01, pre=0.4).delta_c
        if not weak <= 0.02:
            failures.append(f"N={n}: gain {weak:.4f} above 0.02 at eps=0.4")
    pre_only = _pairwise_report(4, 0.01, pre=0.9).delta_c
    post_only = _pairwise_report(4, 0.01, post=0.9).delta_c
    pure = _pairwise_report(4, 0.01).delta_c
    if not post_only > 0.0:
        failures.append(f"post-only gain {post_only:.4f} not positive")
    if not post_only < pure:
        failures.append("post-only gain not below the noiseless gain")
    if not pre_only < post_only:
        failures.append(
            f"pre-only gain {pre_only:.6f} >= post-only gain {post_only:.6f} "
            "(final states coincide by channel/projector commutation; only the "
            "baselines differ)"
        )
    return _result("dephasing critical behaviour", failures)


def check_rus_strategy() -> CriterionResult:
    """Failure probability falls with repetitions, rises with N, exact at R=50."""
    failures = []
    p = 0.05
    for n in (2, 4, 6):
        ps = closedform.ps_exact(n, p)
        pf = [rus_failure_probability(ps, r) for r in range(1, 101)]
        if not all(a > b for a, b in zip(pf, pf[1:])):
            failures.append(f"N={n}: not monotone in R")
    for r in (1, 10, 50, 100):
        vals = [rus_failure_probability(closedform.ps_exact(n, p), r) for n in (2, 4, 6)]
        if not (vals[0] < vals[1] < vals[2]):
            failures.append(f"R={r}: not increasing in N")
    expected = 0.005920529220334016  # (1 - 0.0975)^50
    got = rus_failure_probability(closedform.ps_exact(2, 0.05), 50)
    if abs(got - expected) > 1e-15:
        failures.append(f"R=50 value {got!r} != {expected!r}")
    return _result("repeat-until-success failure probabilities", failures)


def check_robustness(seed: int = 7, samples: int = 200) -> CriterionResult:
    """Per-TLS excitation jitter in [0.025, 0.075] never kills the gains (N=4)."""
    rng = np.random.default_rng(seed)
    spec = SystemSpec(4)
    plan = MeasurementPlan.chain(4)
    failures = []
    for i in range(samples):
        ps = rng.uniform(0.025, 0.075, size=4)
        rep = run_experiment(spec, [TlsParams(float(p)) for p in ps], plan)
        if not (rep.delta_e > 0.0 and rep.delta_c > 0.0):
            failures.append(f"draw {i}: de={rep.delta_e:.4f} dc={rep.delta_c:.4f}")
    return _result(f"robustness: {samples} seeded draws keep both gains positive", failures)


def run_all(seed: int = 7, samples: int = 200) -> list[CriterionResult]:
    """Run every acceptance check in order."""
    return [
        check_oracle_equivalence(),
        check_ps_approximation_band(),
        check_energy_gain_band(),
        check_coherence_gain_limit(),
        check_mutual_coherence_relation(),
        check_global_protocol_bands(),
        check_distillation_comparison(),
        check_dephasing_channel_properties(),
        check_dephasing_critical_behavior(),
        check_rus_strategy(),
        check_robustness(seed=seed, samples=samples),
    ]
