"""Acceptance checks: the package's headline guarantees, end to end.

Each test exercises one guarantee at a pinned tolerance: closed-form values
of the probe observable and its jump at the tie, agreement between the exact
and tracked Riemann solutions, scheme behaviour on the bundled scenarios
(transparent riding, queue formation, convergence to the exact shock),
the curve-difference and perturbation-growth envelopes, mass balance with
density bounds, speed rescaling, and recovery of a planted speed-law slope.
Wall-clock ceilings are asserted where a guarantee includes one.
"""

from __future__ import annotations

import math
import time

import numpy as np

from probeflow import (
    EpsilonLaw,
    evaluate_candidate,
    get_scenario,
    l1_distance,
    lemma1_check,
    minimize_E,
    modulus_bound,
    phi_epsilon,
    phi_one_sided_limits,
    PiecewiseLinearFlux,
    rescaling_check,
    run,
    run_scenario,
    scan_E,
    scenario_names,
    solve_riemann,
    stability_constant_C,
)
from probeflow.verify import (
    fuzz_conservation_case,
    fuzz_lemma1_case,
    fuzz_stability_pair,
    stability_setup,
)

EPS_MAX = 1.0 / 3.0


def test_observable_per_time_matches_closed_form():
    start = time.perf_counter()
    for eps in (1.0 / 48.0, 0.1, 0.2, EPS_MAX):
        report = phi_epsilon(eps)
        assert abs(report.per_time - (3.0 / 8.0 + 7.0 * eps / 64.0)) <= 1e-14
        assert report.agrees
    assert time.perf_counter() - start < 1.0


def test_observable_jumps_at_the_tie():
    start = time.perf_counter()
    limits = phi_one_sided_limits()
    assert limits.jump >= 0.25 - 1e-15
    assert limits.from_above - limits.from_below == limits.jump
    # the branch below the tie is reported as off its reference value
    below = phi_epsilon(-0.1)
    assert below.branch == "ahead_of_shock"
    assert below.agrees is False
    assert phi_epsilon(0.0).agrees is False
    assert time.perf_counter() - start < 1.0


def test_tracked_shock_speed_matches_exact_solver():
    start = time.perf_counter()
    rng = np.random.default_rng(20240820)
    for _ in range(20):
        eps = float(rng.uniform(-EPS_MAX, EPS_MAX))
        law = EpsilonLaw(eps)
        exact = solve_riemann(law, 0.125, 0.375)
        assert exact.kind == "shock"
        states, speeds = PiecewiseLinearFlux(law, 12).fan(0.125, 0.375)
        assert len(speeds) == 1
        assert abs(exact.speed - speeds[0]) <= 2.0 * 2.0**-12
    assert time.perf_counter() - start < 10.0


def test_transparent_probe_leaves_uniform_stream_flat():
    start = time.perf_counter()
    result = run_scenario(get_scenario("fig_questa").with_overrides(t_end=5.0))
    worst = max(float(np.max(np.abs(field - 0.5))) for _, field in result.snapshots)
    assert worst <= 1e-12
    assert time.perf_counter() - start < 30.0


def test_queue_forms_behind_a_stopped_probe():
    start = time.perf_counter()
    scenario = get_scenario("fig_int32").with_overrides(t_end=3.0, n_snapshots=4)
    result = run_scenario(scenario)
    stop_x = result.probe_path(0)[-1][1]
    centers = result.grid.centers
    _, field = result.snapshots[-1]
    behind = field[(centers > stop_x - 10.0 * result.grid.dx) & (centers < stop_x)]
    ahead = field[(centers > stop_x) & (centers < stop_x + 0.2)]
    assert behind.size and ahead.size
    assert float(behind.max()) >= 0.95
    assert float(ahead.min()) <= 0.05
    assert time.perf_counter() - start < 60.0


def test_scheme_converges_to_the_exact_shock():
    scenario = get_scenario("riemann_phi")
    exact = solve_riemann(scenario.law, 0.125, 0.375)
    errors = []
    for dx in (2.5e-3, 1.25e-3):
        result = run_scenario(scenario.with_overrides(dx=dx, n_snapshots=2))
        t, field = result.snapshots[-1]
        reference = exact.profile(t, result.grid.centers)
        errors.append(l1_distance(result.grid, field, reference))
    assert errors[0] <= 0.01 and errors[1] <= 0.01
    assert math.log2(errors[0] / errors[1]) >= 0.4


def test_curve_difference_integrals_stay_below_their_bound():
    rng = np.random.default_rng(20240818)
    for _ in range(200):
        law, datum, n, gamma1, gamma2, c, _ = fuzz_lemma1_case(rng)
        report = lemma1_check(law, datum, gamma1, gamma2, c, n)
        assert report.passed
        assert report.lhs <= report.rhs


def test_perturbations_stay_inside_the_growth_envelope():
    model, grid = stability_setup()
    rate = stability_constant_C(model)
    assert not rate.unbounded and rate.value > 0.0
    rng = np.random.default_rng(20240819)
    pairs = []
    while len(pairs) < 10:
        pair = fuzz_stability_pair(rng)
        if pair is not None:
            pairs.append(pair)
    for datum_a, datum_b in pairs:
        res_a = run(model, grid, datum_a, 1.0, n_snapshots=5)
        res_b = run(model, grid, datum_b, 1.0, n_snapshots=5)
        d0 = l1_distance(grid, res_a.snapshots[0][1], res_b.snapshots[0][1])
        assert d0 > 0.0
        for (t, fa), (_, fb) in zip(res_a.snapshots[1:], res_b.snapshots[1:]):
            dist = l1_distance(grid, fa, fb)
            if dist == 0.0:
                continue
            assert math.log(dist) <= math.log(1.05) + math.log(d0) + rate.value * t


def test_mass_balance_and_bounds_on_every_scenario():
    def check(result, label):
        rel = result.mass_balance_residual() / max(1.0, abs(result.initial_mass))
        assert rel <= 1e-10, label
        assert min(row[4] for row in result.diagnostics) >= -1e-12, label
        assert max(row[5] for row in result.diagnostics) <= 1.0 + 1e-12, label

    for name in scenario_names():
        check(run_scenario(get_scenario(name)), name)
    rng = np.random.default_rng(20240817)
    for case in range(100):
        model, grid, datum = fuzz_conservation_case(rng)
        check(run(model, grid, datum, 0.15, n_snapshots=2), f"fuzz case {case}")


def test_speed_rescaling_only_rescales_space():
    from probeflow import PiecewiseConstant

    datum = PiecewiseConstant([0.0], [0.125, 0.375])
    report = rescaling_check(1.0, 2.0, datum, 1.0, dx=2.5e-3)
    assert report.discrepancy == 0.0
    # a ratio that is not a power of two rounds differently, within the bound
    report = rescaling_check(1.0, 1.5, datum, 1.0, dx=2.5e-3)
    assert report.bound == 3.0 * 2.5e-3 * datum.tv()
    assert report.discrepancy <= report.bound


def test_calibration_recovers_the_planted_slope():
    scenario = get_scenario("calibration")
    scan = scan_E(scenario, 0.5, 2.0, 8)
    refined = minimize_E(
        scan.samples,
        refine_iters=20,
        evaluator=lambda v: evaluate_candidate(scenario, v),
    )
    assert abs(refined.v_best - 1.2) <= (2.0 - 0.5) / 8.0 + 1e-3
    assert refined.on_boundary is False
    # the sweep's difference quotients respect the a-priori modulus
    modulus = modulus_bound(scenario, 0.55, 0.5, 2.0)
    quotients = [
        abs(e2 - e1) / (v2 - v1)
        for (v1, e1), (v2, e2) in zip(scan.samples, scan.samples[1:])
    ]
    assert max(quotients) <= modulus.value
