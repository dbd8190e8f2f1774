"""Inverse machinery: misfit scoring, calibration sweeps, the jump
observable, curve-difference checks, rescaling, and the modulus bound."""

import math

import numpy as np
import pytest

from probeflow import (
    Curve,
    DomainError,
    FrontTrackError,
    Greenshields,
    PiecewiseConstant,
    error_functional,
    evaluate_candidate,
    get_scenario,
    lemma1_check,
    minimize_E,
    modulus_bound,
    phi_epsilon,
    phi_one_sided_limits,
    probe_records,
    rescaling_check,
    run_scenario,
    scan_E,
    score_records,
)
from probeflow.estimates import PHI_LEFT, PHI_RIGHT


def coarse_calibration(**overrides):
    """The calibration setup on a cheap grid for unit-test turnaround."""
    scenario = get_scenario("calibration").with_overrides(dx=0.01, t_end=0.5)
    return scenario.with_overrides(**overrides) if overrides else scenario


# ---------------------------------------------------------------------------
# Record scoring
# ---------------------------------------------------------------------------

class TestScoreRecords:
    def test_perfect_agreement_scores_zero(self):
        records = np.array([[0.0, 0.5, 0.5], [0.5, 0.5, 0.5]])
        assert score_records(records, Greenshields(1.0), 1.0) == 0.0

    def test_left_endpoint_weights(self):
        # residuals 0.5 then 0 weighted by the gaps 0.25 and 0.75
        records = np.array([[0.0, 0.0, 0.5], [0.25, 0.5, 0.5]])
        assert score_records(records, Greenshields(1.0), 1.0) == 0.125

    def test_empty_records_score_zero(self):
        assert score_records(np.empty((0, 3)), Greenshields(1.0), 1.0) == 0.0

    def test_validation(self):
        law = Greenshields(1.0)
        with pytest.raises(DomainError):
            score_records(np.zeros((2, 4)), law, 1.0)
        with pytest.raises(DomainError):
            score_records(np.array([[0.5, 0.1, 0.1], [0.5, 0.1, 0.1]]), law, 1.0)
        with pytest.raises(DomainError):
            score_records(np.array([[0.0, 0.1, 0.1], [2.0, 0.1, 0.1]]), law, 1.0)
        # a NaN time passes the ordering and range checks; a NaN or infinite
        # speed or trace, or a trace outside [0, 1], would be scored
        for row in ((math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, math.inf, 0.5),
                    (0.5, 0.5, math.nan)):
            with pytest.raises(DomainError, match="must be finite"):
                score_records(np.array([[0.0, 0.5, 0.5], row]), law, 1.0)
        for trace in (1.5, -0.1):
            with pytest.raises(DomainError, match=r"in \[0, 1\]"):
                score_records(np.array([[0.0, 0.5, 0.5], [0.5, 0.5, trace]]), law, 1.0)
        for t_end in (math.nan, math.inf):
            with pytest.raises(DomainError, match="t_end must be finite"):
                score_records(np.empty((0, 3)), law, t_end)


class TestErrorFunctional:
    def test_report_matches_raw_scoring(self):
        result = run_scenario(coarse_calibration())
        law = Greenshields(1.2)
        report = error_functional(result, 0, law)
        records = probe_records(result, 0)
        assert records.shape[1] == 3
        assert report.value == score_records(records, law, result.t_end)
        assert report.n_steps == records.shape[0]

    def test_true_law_fits_recorded_data(self):
        result = run_scenario(coarse_calibration())
        fit = error_functional(result, 0, Greenshields(1.2)).value
        misfit = error_functional(result, 0, Greenshields(1.0)).value
        assert fit <= 1e-12
        # uniform density 0.7 held at speed 0.36: the v=1 law is off by
        # |0.36 - 0.3| on the whole half-unit horizon
        assert misfit == pytest.approx(0.06 * 0.5, abs=1e-10)


# ---------------------------------------------------------------------------
# Calibration sweep and minimiser
# ---------------------------------------------------------------------------

class TestScan:
    def test_grid_and_best_sample(self):
        scan = scan_E(coarse_calibration(), 0.8, 1.6, 4, workers=1)
        assert scan.v_values == pytest.approx((0.8, 1.0, 1.2, 1.4, 1.6))
        assert len(scan.errors) == 5
        assert minimize_E(scan.samples).v_best == pytest.approx(1.2, abs=1e-12)
        assert min(scan.errors) <= 1e-12
        assert scan.samples[0] == (0.8, scan.errors[0])

    def test_process_pool_matches_the_serial_scan(self):
        scenario = get_scenario("calibration").with_overrides(t_end=0.1)
        serial = scan_E(scenario, 0.5, 2.0, 4, workers=1)
        pooled = scan_E(scenario, 0.5, 2.0, 4, workers=2)
        assert pooled.v_values == serial.v_values
        assert pooled.errors == serial.errors

    def test_validation(self):
        scenario = coarse_calibration()
        with pytest.raises(DomainError):
            scan_E(scenario, 0.0, 1.0, 4)
        with pytest.raises(DomainError):
            scan_E(scenario, 1.0, 0.5, 4)
        with pytest.raises(DomainError):
            scan_E(scenario, 0.5, 1.0, 0)
        for workers in (0, -4):
            with pytest.raises(DomainError, match="at least one worker"):
                scan_E(scenario, 0.5, 1.0, 4, workers=workers)

    @pytest.mark.parametrize("kwargs", [{"n": 2.5}, {"workers": 2.5}], ids=["n", "workers"])
    def test_non_integer_counts_rejected(self, kwargs):
        # n=2.5 would scan 2 intervals, workers=2.5 end in a TypeError
        args = {"n": 4, "workers": 1, **kwargs}
        with pytest.raises(DomainError, match="must be an integer, got 2.5"):
            scan_E(coarse_calibration(), 0.5, 1.0, args["n"], workers=args["workers"])


class TestMinimize:
    def test_grid_minimum_and_bracket(self):
        result = minimize_E([(1.0, 5.0), (2.0, 3.0), (3.0, 4.0)])
        assert result.v_best == 2.0
        assert result.e_best == 3.0
        assert result.bracket == (1.0, 3.0)
        assert not result.on_boundary
        assert result.n_evaluations == 0

    def test_boundary_minimum_is_flagged(self):
        result = minimize_E([(1.0, 1.0), (2.0, 3.0)])
        assert result.v_best == 1.0
        assert result.on_boundary

    def test_ties_go_to_the_smaller_slope(self):
        result = minimize_E([(3.0, 5.0), (1.0, 2.0), (2.0, 2.0)])
        assert result.v_best == 1.0

    def test_golden_section_refinement(self):
        target = 1.37

        def evaluator(v):
            return (v - target) ** 2

        samples = [(v, evaluator(v)) for v in (1.0, 1.2, 1.4, 1.6, 1.8)]
        result = minimize_E(samples, refine_iters=25, evaluator=evaluator)
        assert result.v_best == pytest.approx(target, abs=1e-3)
        assert result.n_evaluations == 27
        a, b = result.bracket
        assert a <= result.v_best <= b

    def test_no_evaluator_skips_refinement(self):
        result = minimize_E([(1.0, 2.0), (2.0, 1.0), (3.0, 2.0)], refine_iters=10)
        assert result.n_evaluations == 0
        assert result.v_best == 2.0

    def test_empty_samples_rejected(self):
        with pytest.raises(DomainError):
            minimize_E([])

    @pytest.mark.parametrize(
        "refine_iters, message",
        [(2.5, "must be an integer, got 2.5"), (-3, "refine_iters must be >= 0, got -3")],
        ids=["fraction", "negative"],
    )
    def test_refine_iters_must_be_a_count(self, refine_iters, message):
        samples = [(1.0, 2.0), (2.0, 1.0), (3.0, 2.0)]
        with pytest.raises(DomainError, match=message):
            minimize_E(samples, refine_iters=refine_iters, evaluator=lambda v: (v - 2.1) ** 2)

    @pytest.mark.parametrize(
        "samples",
        [
            [(1.0, math.nan), (2.0, 1.0)],
            [(math.nan, 1.0), (2.0, 2.0)],
            [(1.0, math.inf), (2.0, 1.0)],
            [(-math.inf, 1.0), (2.0, 2.0)],
        ],
        ids=["nan_error", "nan_slope", "inf_error", "inf_slope"],
    )
    def test_non_finite_samples_rejected(self, samples):
        with pytest.raises(DomainError, match="finite"):
            minimize_E(samples)


class TestEvaluateCandidate:
    def test_true_slope_scores_lowest(self):
        scenario = coarse_calibration()
        e_true = evaluate_candidate(scenario, 1.2)
        e_off = evaluate_candidate(scenario, 0.9)
        assert e_true <= 1e-12
        assert e_off > 1e-3

    def test_probes_are_demoted_to_observers(self):
        # scoring a candidate must not let the probe reshape the flux, so
        # the ambient density stays at its initial uniform value
        scenario = coarse_calibration()
        observer = scenario.probes[0].clone(observer=False)
        scenario = scenario.with_overrides(probes=(observer,))
        assert evaluate_candidate(scenario, 1.2) <= 1e-12


# ---------------------------------------------------------------------------
# The jump observable
# ---------------------------------------------------------------------------

class TestPhi:
    def test_fast_shock_branch_matches_reference(self):
        for eps in (1.0 / 48.0, 0.1, 0.2, 1.0 / 3.0):
            report = phi_epsilon(eps)
            assert report.branch == "behind_shock"
            assert report.trace == PHI_LEFT
            assert report.per_time == pytest.approx(
                3.0 / 8.0 + 7.0 * eps / 64.0, abs=1e-14
            )
            assert report.agrees

    def test_slow_shock_branch_disagrees_by_exactly_one(self):
        for eps in (-0.1, -0.25, -1.0 / 3.0):
            report = phi_epsilon(eps)
            assert report.branch == "ahead_of_shock"
            assert report.trace == PHI_RIGHT
            assert report.per_time == pytest.approx(
                1.0 / 8.0 + 15.0 * eps / 64.0, abs=1e-14
            )
            assert not report.agrees
            assert report.reference_per_time - report.per_time == pytest.approx(
                1.0, abs=1e-14
            )

    def test_tied_speed_reads_the_chosen_side(self):
        right = phi_epsilon(0.0, trace_side="right")
        left = phi_epsilon(0.0, trace_side="left")
        assert right.branch == left.branch == "on_shock"
        assert right.per_time == 0.125
        assert left.per_time == 0.375
        assert left.agrees and not right.agrees

    def test_value_scales_with_horizon(self):
        report = phi_epsilon(0.1, t_end=2.0)
        assert report.value == pytest.approx(2.0 * report.per_time)

    def test_validation(self):
        with pytest.raises(DomainError):
            phi_epsilon(0.1, trace_side="middle")
        with pytest.raises(DomainError):
            phi_epsilon(0.1, t_end=0.0)

    @pytest.mark.parametrize(
        "t_end, message",
        [
            (math.nan, "t_end must be finite, got nan"),
            (-1.0, "t_end must be positive, got -1.0"),
            (math.inf, "t_end must be finite, got inf"),
        ],
    )
    def test_horizon_checked_alike(self, t_end, message):
        with pytest.raises(DomainError, match=message):
            phi_epsilon(0.1, t_end=t_end)
        with pytest.raises(DomainError, match=message):
            phi_one_sided_limits(t_end=t_end)

    def test_one_sided_limits(self):
        limits = phi_one_sided_limits()
        assert limits.from_below == 0.125
        assert limits.from_above == 0.375
        assert limits.jump == 0.25
        assert phi_one_sided_limits(t_end=2.0).jump == 0.5


# ---------------------------------------------------------------------------
# Curve-difference check
# ---------------------------------------------------------------------------

class TestLemma1Check:
    @staticmethod
    def _setup():
        law = Greenshields(1.0)
        datum = PiecewiseConstant.from_blocks(0.125, [(0.0, 2.0, 0.375)])
        gamma1 = Curve.linear(0.0, 1.0, 0.0, 0.9)
        gamma2 = Curve.linear(0.0, 1.0, -0.3, 0.9)
        return law, datum, gamma1, gamma2

    def test_hand_value(self):
        law, datum, gamma1, gamma2 = self._setup()
        report = lemma1_check(law, datum, gamma1, gamma2, 0.14, 7)
        lhs, rhs, passed = report
        assert lhs == pytest.approx(3.0 / 16.0, abs=1e-12)
        assert rhs == pytest.approx(0.5 * 0.3 / 0.14)
        assert passed

    def test_time_range_defaults_to_curve_overlap(self):
        law, datum, gamma1, gamma2 = self._setup()
        implicit = lemma1_check(law, datum, gamma1, gamma2, 0.14, 7)
        explicit = lemma1_check(law, datum, gamma1, gamma2, 0.14, 7, t0=0.0, t1=1.0)
        assert implicit == explicit

    def test_excessive_margin_rejected(self):
        law, datum, gamma1, gamma2 = self._setup()
        with pytest.raises(FrontTrackError):
            lemma1_check(law, datum, gamma1, gamma2, 0.16, 7)

    def test_validation(self):
        law, datum, gamma1, gamma2 = self._setup()
        with pytest.raises(DomainError):
            lemma1_check(law, datum, gamma1, gamma2, -0.1, 7)
        with pytest.raises(DomainError):
            lemma1_check(law, datum, gamma1, gamma2, 0.14, 7, t0=0.9, t1=0.2)


# ---------------------------------------------------------------------------
# Rescaling invariance
# ---------------------------------------------------------------------------

class TestRescaling:
    def test_identity_rescaling_is_exact(self):
        datum = PiecewiseConstant([0.0], [0.125, 0.375])
        report = rescaling_check(1.0, 1.0, datum, 0.5, dx=0.02, refine=False)
        assert report.discrepancy == 0.0
        assert report.passed

    def test_doubling_the_speed_stays_within_bound(self):
        datum = PiecewiseConstant([0.0], [0.125, 0.375])
        report = rescaling_check(1.0, 2.0, datum, 0.5, dx=0.02)
        assert report.bound == pytest.approx(3.0 * 0.02 * 0.25)
        assert report.passed
        assert report.refinement_factor >= 1.25

    def test_validation(self):
        datum = PiecewiseConstant([0.0], [0.125, 0.375])
        with pytest.raises(DomainError):
            rescaling_check(0.0, 1.0, datum, 0.5)
        with pytest.raises(DomainError):
            rescaling_check(1.0, 2.0, datum, -0.5)

    @pytest.mark.parametrize(
        "v1, v2, t_end, message",
        [
            (1.0, math.inf, 0.5, "vmax must be finite, got inf"),
            (math.nan, 1.0, 0.5, "vmax must be finite, got nan"),
            (1.0, -2.0, 0.5, "vmax must be positive, got -2.0"),
            (1.0, 2.0, math.inf, "t_end must be finite, got inf"),
            (1.0, 2.0, math.nan, "t_end must be finite, got nan"),
        ],
    )
    def test_speeds_and_horizon_checked_by_their_owners(self, v1, v2, t_end, message):
        datum = PiecewiseConstant([0.0], [0.125, 0.375])
        with np.errstate(all="raise"), pytest.raises(DomainError, match=message):
            rescaling_check(v1, v2, datum, t_end, dx=0.02)


# ---------------------------------------------------------------------------
# Modulus bound
# ---------------------------------------------------------------------------

class TestModulusBound:
    def test_uniform_datum_reduces_to_horizon(self):
        report = modulus_bound(get_scenario("calibration"), 0.55, 0.5, 2.0)
        assert report.value == 1.0  # TV = 0 leaves only the t_end term
        assert report.c == pytest.approx(0.3)
        assert report.tv == 0.0
        assert report.p_sup == pytest.approx(0.66)

    def test_variation_term(self):
        from probeflow import ExogenousSpeed, ProbeTrajectory, Scenario

        scenario = Scenario(
            name="toy",
            description="",
            x_min=0.0,
            x_max=2.0,
            dx=0.01,
            t_end=1.0,
            law=Greenshields(1.0),
            datum=PiecewiseConstant([1.0], [0.7, 0.9]),
            probes=(
                ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, 0.5),), observer=True),
            ),
        )
        report = modulus_bound(scenario, 0.5, 0.5, 1.0)
        # c = 2 (0.7 - 0.5), p_sup = 0.5 + 0.5, bound = 1/(0.4*0.5)*0.2*1 + 1
        assert report.value == pytest.approx(2.0)

    def test_preconditions(self):
        scenario = get_scenario("calibration")
        with pytest.raises(DomainError):
            modulus_bound(scenario, 0.8, 0.5, 2.0)  # density floor violated
        with pytest.raises(DomainError):
            modulus_bound(scenario, 0.55, 2.0, 0.5)  # inverted range
        with pytest.raises(DomainError):
            modulus_bound(scenario, -0.1, 0.5, 2.0)
        with pytest.raises(DomainError):
            modulus_bound(get_scenario("fig_int3"), 0.0, 0.5, 2.0)  # coupled probe

    def test_probe_speed_floor_enforced(self):
        # a slow observer cannot certify candidates with large v_hi at small
        # rho_check: the required floor v_hi*(1 - 2*rho_check) is positive
        scenario = get_scenario("calibration")
        with pytest.raises(DomainError):
            modulus_bound(scenario, 0.1, 0.5, 2.0)
