"""Speed laws, the harmonic blend, cutoff profiles, and probe programs.

Numeric expectations are hand-computed fractions frozen into the tests;
property-style checks draw their inputs with hypothesis.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probeflow import (
    CutoffProfile,
    DomainError,
    EpsilonLaw,
    ExogenousSpeed,
    FluxModel,
    Greenshields,
    Grid,
    ModelCoupled,
    PiecewiseConstant,
    ProbeStateError,
    ProbeTrajectory,
    TabulatedLaw,
    cfl_dt,
    check_admissible,
    eval_encoded_speed,
    eval_flux,
    eval_g,
    harmonic_speed,
    lipschitz_constants,
    mixed_difference_constant,
    run,
    solve_riemann,
    stability_constant_C,
)
from probeflow.fvsolver import check_run
from probeflow.model import EPSILON_ADMISSIBLE, _knot_lookup, _SpeedTable

densities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
speeds = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Speed laws
# ---------------------------------------------------------------------------

class TestGreenshields:
    def test_values(self):
        law = Greenshields(vmax=2.0)
        assert law(0.0) == 2.0
        assert law(1.0) == 0.0
        assert law(0.25) == 1.5

    def test_flux_and_slope(self):
        law = Greenshields(1.0)
        assert law.flux(0.5) == 0.25
        assert law.flux_slope(0.5) == 0.0
        assert law.flux_slope(0.0) == 1.0
        assert law.lipschitz() == 1.0
        assert law.flux_lipschitz() == 1.0

    def test_rejects_nonpositive_vmax(self):
        with pytest.raises(DomainError):
            Greenshields(0.0)

    def test_rejects_infinite_vmax(self):
        with pytest.raises(DomainError):
            Greenshields(math.inf)


class TestEpsilonLaw:
    def test_reduces_to_linear_at_zero(self):
        law = EpsilonLaw(0.0)
        assert law(3.0 / 8.0) == 5.0 / 8.0

    def test_quadratic_value(self):
        # (1 + (1/3)(1/8)) * (7/8) = (25/24)(7/8) = 175/192
        law = EpsilonLaw(1.0 / 3.0)
        assert law(1.0 / 8.0) == pytest.approx(175.0 / 192.0, abs=1e-15)

    def test_lipschitz_value(self):
        assert EpsilonLaw(-0.25).lipschitz() == 1.25

    def test_lipschitz_is_read_from_the_rounded_coefficients(self):
        # |v'(1)| = |(eps - 1) - 2 eps| is 1.3 in closed form, but the
        # piece coefficients and their sum round
        assert EpsilonLaw(0.3).lipschitz() == 1.2999999999999998

    def test_rejects_eps_below_minus_one(self):
        with pytest.raises(DomainError):
            EpsilonLaw(-1.5)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(DomainError):
            EpsilonLaw(eps)

    @given(st.floats(min_value=-1.0 / 3.0, max_value=1.0 / 3.0), densities)
    def test_speed_stays_in_unit_band(self, eps, rho):
        law = EpsilonLaw(eps)
        v = law(rho)
        assert -1e-12 <= v <= law.v_max + 1e-12


class TestTabulatedLaw:
    def test_interpolates(self):
        law = TabulatedLaw([1.0, 0.5, 0.0])
        assert law(0.25) == 0.75
        assert law.v_max == 1.0
        assert law.lipschitz() == pytest.approx(1.0)

    def test_pieces_are_built_once(self):
        law = TabulatedLaw([1.0, 0.9375, 0.8125, 0.5625, 0.0])
        assert law.pieces is law.pieces
        assert law.pieces[1] == (0.25, 0.5, (1.0625, -0.5, 0.0))

    def test_rejects_bad_tables(self):
        with pytest.raises(DomainError):
            TabulatedLaw([1.0])
        with pytest.raises(DomainError):
            TabulatedLaw([0.5, -0.1])
        with pytest.raises(DomainError):
            TabulatedLaw([1.0, math.nan, 0.0])
        with pytest.raises(DomainError):
            TabulatedLaw([1.0, math.inf, 0.0])


class TestDerivedCalculus:
    """``flux_slope``, ``lipschitz`` and ``flux_lipschitz`` are read from
    a law's pieces, once for every law."""

    @pytest.mark.parametrize(
        "law",
        [Greenshields(1.3), EpsilonLaw(0.2), TabulatedLaw([1.0, 0.9375, 0.8125, 0.5625, 0.0])],
        ids=["greenshields", "epsilon", "table"],
    )
    def test_flux_slope_matches_finite_differences(self, law):
        rho = np.linspace(0.01, 0.99, 22)  # off the table's knots at k/4
        h = 1e-6
        fd = (law.flux(rho + h) - law.flux(rho - h)) / (2.0 * h)
        assert np.max(np.abs(law.flux_slope(rho) - fd)) < 1e-8

    def test_closed_form_slopes_keep_their_bits(self):
        rho = np.linspace(0.0, 1.0, 1001)
        assert Greenshields(1.0).flux_slope(rho).tobytes() == (1.0 * (1.0 - 2.0 * rho)).tobytes()
        for eps in (-1.0 / 3.0, -0.25, 0.0, 0.2, 0.3, 1.0 / 3.0):
            old = 1.0 + 2.0 * (eps - 1.0) * rho - 3.0 * eps * rho * rho
            assert EpsilonLaw(eps).flux_slope(rho).tobytes() == old.tobytes(), eps

    def test_a_knot_is_read_from_the_piece_that_starts_there(self):
        law = TabulatedLaw([1.0, 0.8, 0.5, 0.0])
        # f' = 1 - 1.2 rho below the knot 1/3 and 1.1 - 1.8 rho above it
        assert law.flux_slope(1.0 / 3.0) == pytest.approx(0.5, abs=1e-15)
        assert law.flux_slope(0.0) == 1.0
        assert law.flux_slope(1.0) == pytest.approx(-1.5, abs=1e-15)

    def test_bounds_are_exact(self):
        assert Greenshields(1.3).lipschitz() == Greenshields(1.3).flux_lipschitz() == 1.3
        # v' = -1 - eps (1 - 2 rho) and f' = 1 - 2 (1 - eps) rho - 3 eps rho**2
        assert EpsilonLaw(0.2).lipschitz() == pytest.approx(1.2, abs=1e-15)
        assert EpsilonLaw(0.2).flux_lipschitz() == pytest.approx(1.2, abs=1e-15)
        assert EpsilonLaw(-0.25).flux_lipschitz() == 1.0
        # the steep table's flux is steepest at its first knot, between samples
        steep = TabulatedLaw([0.513, 1.523, 1.425, 1.101, 1.252, 0.883, 0.486, 0.442])
        assert steep.flux_lipschitz() == pytest.approx(2.533, abs=1e-12)
        assert steep.lipschitz() == pytest.approx(7.07, abs=1e-12)


# ---------------------------------------------------------------------------
# Harmonic blend
# ---------------------------------------------------------------------------

class TestHarmonicSpeed:
    def test_hand_value(self):
        # 2 * 0.2 * 0.5 / 0.7 = 0.2 / 0.7
        assert harmonic_speed(0.2, 0.5) == pytest.approx(0.2 / 0.7, abs=1e-16)

    def test_zero_denominator_extends_by_zero(self):
        assert harmonic_speed(0.0, 0.0) == 0.0
        assert harmonic_speed(1e-13, 1e-13) == 1e-13  # equal args short-circuit

    def test_agreement_is_bitwise_fixed_point(self):
        v = 0.1 + 0.2  # deliberately not exactly representable as 0.3
        assert harmonic_speed(v, v) == v

    @given(speeds, speeds)
    def test_symmetric(self, w, v):
        assert harmonic_speed(w, v) == harmonic_speed(v, w)

    @given(
        st.floats(min_value=1e-6, max_value=2.0),
        st.floats(min_value=1e-6, max_value=2.0),
    )
    def test_between_min_and_twice_min(self, w, v):
        h = harmonic_speed(w, v)
        lo = min(w, v)
        assert lo - 1e-12 <= h <= 2.0 * lo + 1e-12

    def test_vectorised(self):
        out = harmonic_speed(np.array([0.2, 0.0]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, [0.2 / 0.7, 0.0], atol=1e-16)

    def test_masked_pass_on_every_pair_of_edge_values(self):
        # the tolerance, values either side of it and pairs summing to it,
        # signed zeros, infinities, NaN and overflowing products, as an
        # (L, 1) x (1, L) grid of every pair, equal pairs included
        values = np.array(HARMONIC_EDGE_VALUES)
        _assert_harmonic_matches_reference(values[:, None], values[None, :])
        for w in HARMONIC_EDGE_VALUES:
            for v in HARMONIC_EDGE_VALUES:
                _assert_harmonic_matches_reference(w, v)

    @given(st.data())
    def test_masked_pass_is_the_three_where_form_to_the_bit(self, data):
        shape_w, shape_v = data.draw(st.sampled_from(HARMONIC_SHAPES))
        w = data.draw(_harmonic_operand(shape_w))
        v = data.draw(_harmonic_operand(shape_v))
        if data.draw(st.booleans()) and np.shape(w) == np.shape(v):
            v = w  # the fixed point at every entry
        _assert_harmonic_matches_reference(w, v)


def _assert_harmonic_matches_reference(w, v):
    with np.errstate(all="ignore"):
        got = harmonic_speed(w, v)
        want = reference_harmonic_speed(w, v)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (w, v, got, want)


def reference_harmonic_speed(w, v):
    """The blend as three ``np.where`` passes, before the masked division."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    denom = w + v
    safe = np.where(denom < 1e-12, 1.0, denom)
    out = np.where(denom < 1e-12, 0.0, 2.0 * w * v / safe)
    out = np.where(w == v, v, out)
    if out.ndim == 0:
        return float(out)
    return out


_TOL = 1e-12
HARMONIC_EDGE_VALUES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, _TOL, -_TOL, 0.5 * _TOL,
    np.nextafter(_TOL, 0.0), np.nextafter(_TOL, 1.0), 0.25 * _TOL, 0.75 * _TOL,
    1e-300, 0.3, 1.0, 2.0, 1e308, -1.0,
]
HARMONIC_SHAPES = [((), ()), ((), (5,)), ((5,), ()), ((5,), (5,)), ((4, 1), (1, 3)), ((1, 3), (4, 1))]


def _harmonic_operand(shape):
    element = st.sampled_from(HARMONIC_EDGE_VALUES) | st.floats(allow_nan=True, allow_infinity=True)
    if shape == ():
        return element
    n = math.prod(shape)
    return st.lists(element, min_size=n, max_size=n).map(lambda xs: np.array(xs).reshape(shape))


# ---------------------------------------------------------------------------
# Cutoff profile
# ---------------------------------------------------------------------------

class TestCutoffProfile:
    def test_plateau_skirt_and_support(self):
        chi = CutoffProfile(inner=0.05, outer=0.15)
        assert chi(0.0) == 1.0
        assert chi(0.05) == 1.0
        assert chi(-0.03) == 1.0
        assert chi(0.15) == 0.0
        assert chi(0.4) == 0.0
        # midpoint of the smoothstep skirt
        assert chi(0.1) == pytest.approx(0.5, abs=1e-15)
        assert chi(-0.1) == pytest.approx(0.5, abs=1e-15)

    def test_lipschitz_is_peak_skirt_slope(self):
        chi = CutoffProfile(inner=0.05, outer=0.15)
        assert chi.lipschitz() == pytest.approx(15.0)
        # every difference quotient stays below it, and the steepest, at
        # the skirt's midpoints, reaches it
        xi = np.linspace(-0.2, 0.2, 4001)
        quotients = np.abs(np.diff(chi(xi))) / (xi[1] - xi[0])
        assert np.max(quotients) <= chi.lipschitz() * (1.0 + 1e-9)
        assert np.max(quotients) >= chi.lipschitz() * (1.0 - 1e-5)

    def test_rejects_degenerate_radii(self):
        with pytest.raises(DomainError):
            CutoffProfile(inner=0.2, outer=0.1)
        with pytest.raises(DomainError):
            CutoffProfile(inner=0.0, outer=0.1)

    @pytest.mark.parametrize("inner, outer", [(0.05, math.inf), (math.nan, 0.1), (0.05, math.nan)])
    def test_rejects_non_finite_radii(self, inner, outer):
        with pytest.raises(DomainError):
            CutoffProfile(inner=inner, outer=outer)


# ---------------------------------------------------------------------------
# Probe programs and trajectories
# ---------------------------------------------------------------------------

class TestProbeTrajectory:
    def test_piecewise_positions_with_gap(self):
        probe = ProbeTrajectory(
            1.0,
            (ExogenousSpeed(0.0, 2.0, 0.5), ExogenousSpeed(3.0, None, 1.0)),
        )
        # [0,2): speed 1/2; [2,3): gap at speed 0; [3,inf): speed 1
        assert probe.state_at(0.0) == (1.0, 0.5)
        assert probe.state_at(2.0) == (2.0, 0.0)
        assert probe.state_at(2.5) == (2.0, 0.0)
        assert probe.state_at(4.0) == (3.0, 1.0)
        assert probe.boundary_times() == [2.0, 3.0]

    def test_mollified_displacement_matches_plateaus(self):
        raw = ProbeTrajectory(0.0, (ExogenousSpeed(0.0, 1.0, 1.0),))
        smooth = ProbeTrajectory(
            0.0, (ExogenousSpeed(0.0, 1.0, 1.0),), mollify_radius=0.1
        )
        # ramps are symmetric box averages: the lost and gained displacement
        # across a ramp cancel, so plateau positions agree
        assert smooth.state_at(2.0)[0] == pytest.approx(raw.state_at(2.0)[0])
        # inside the ramp the speed interpolates linearly
        assert smooth.state_at(1.0)[1] == pytest.approx(0.5)
        assert smooth.speed_at(0.95) == pytest.approx(0.75)

    def test_mollify_radius_capped_by_piece_width(self):
        with pytest.raises(DomainError):
            ProbeTrajectory(
                0.0,
                (ExogenousSpeed(0.0, 0.1, 1.0), ExogenousSpeed(0.1, None, 0.0)),
                mollify_radius=0.2,
            )

    @pytest.mark.parametrize(
        "program, start",
        [
            ((ExogenousSpeed(0.0, 2.0, 0.5), ExogenousSpeed(1.0, 3.0, 1.0)), 1.0),
            ((ExogenousSpeed(0.0, None, 0.5), ExogenousSpeed(2.0, 3.0, 1.0)), 2.0),
            ((ModelCoupled(0.0, None), ExogenousSpeed(0.0, 1.0, 1.0)), 0.0),
            ((ExogenousSpeed(1.0, 2.0, 0.5), ExogenousSpeed(1.0, 3.0, 1.0)), 1.0),
            ((ExogenousSpeed(1.0, 2.0, 0.5), ModelCoupled(1.0, None)), 1.0),
        ],
        ids=[
            "overlap",
            "after_open_end",
            "after_open_end_same_start",
            "equal_starts",
            "equal_starts_coupled",
        ],
    )
    def test_overlapping_segments_rejected(self, program, start):
        with pytest.raises(DomainError, match=f"segments overlap near t={start}$"):
            ProbeTrajectory(0.0, program)

    def test_empty_program_rejected(self):
        with pytest.raises(DomainError):
            ProbeTrajectory(0.0, ())

    def test_negative_speed_rejected(self):
        with pytest.raises(DomainError):
            ExogenousSpeed(0.0, 1.0, -0.5)

    @pytest.mark.parametrize(
        "start, end, speed",
        [
            (0.0, None, math.nan),
            (0.0, None, math.inf),
            (math.nan, None, 1.0),
            (0.0, math.inf, 1.0),
        ],
    )
    def test_non_finite_segment_rejected(self, start, end, speed):
        with pytest.raises(DomainError):
            ExogenousSpeed(start, end, speed)

    @pytest.mark.parametrize("x0, radius", [(math.nan, 0.0), (math.inf, 0.0), (0.0, math.inf)])
    def test_non_finite_position_or_radius_rejected(self, x0, radius):
        with pytest.raises(DomainError):
            ProbeTrajectory(x0, (ExogenousSpeed(0.0, None, 0.5),), mollify_radius=radius)

    def test_coupled_program_needs_runtime_state(self):
        probe = ProbeTrajectory(0.0, (ModelCoupled(0.0, None),))
        assert not probe.is_exogenous
        with pytest.raises(ProbeStateError):
            probe.state_at(0.5)
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        with pytest.raises(ProbeStateError):
            model.probe_states(0.5)
        # a running simulation resolves the state and passes it to the flux
        assert eval_encoded_speed(model, ((0.25, 0.75),), 0.25, 0.5) == 0.6

    def test_exogenous_queries_refuse_a_coupled_piece(self):
        # the coupled piece has no programmed speed: its jump into the
        # exogenous piece and its minimum are unknown, not NaN
        probe = ProbeTrajectory(0.6, (ModelCoupled(0.0, 0.25), ExogenousSpeed(0.25, None, 0.3)))
        for query in (probe.speed_jumps, probe.min_speed):
            with pytest.raises(ProbeStateError):
                query()
        # the bounds that cap the coupled piece at the law's speed still answer
        assert probe.max_speed(1.0) == 1.0
        assert probe.boundary_times() == [0.25]

    def test_coupled_program_cannot_be_mollified(self):
        with pytest.raises(DomainError):
            ProbeTrajectory(0.0, (ModelCoupled(0.0, None),), mollify_radius=0.1)

    def test_speed_at_is_none_on_coupled_segment(self):
        probe = ProbeTrajectory(0.0, (ModelCoupled(0.0, 1.0),))
        assert probe.speed_at(0.5) is None
        assert probe.speed_at(1.0) == 0.0  # the gap after the segment

    def test_nan_time_rejected(self):
        # a NaN time read no knot: speed_at answered None, as on a coupled
        # piece, and state_at a NaN state that probe_states passed on
        probe = ProbeTrajectory(0.0, (ExogenousSpeed(0.0, 1.0, 0.5),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        queries = (probe.speed_at, probe.state_at, model.probe_states)
        for query in queries:
            with pytest.raises(DomainError, match="time must not be NaN"):
                query(math.nan)

    def test_clone_resets_runtime_and_can_demote(self):
        probe = ProbeTrajectory(0.0, (ExogenousSpeed(0.0, None, 0.5),))
        fresh = probe.clone(observer=True)
        assert fresh.observer and not probe.observer
        assert fresh.program == probe.program
        assert fresh.state_at(1.0) == probe.state_at(1.0)
        # a trajectory is its program: no run-time state to reset
        program_only = {"x0", "program", "mollify_radius", "observer", "_table"}
        assert set(vars(probe)) == set(vars(fresh)) == program_only

    def test_max_speed_uses_law_cap_for_coupled_segments(self):
        probe = ProbeTrajectory(
            0.0, (ExogenousSpeed(0.0, 1.0, 0.3), ModelCoupled(1.0, None))
        )
        assert probe.max_speed(law_vmax=1.2) == 1.2


def _random_program(rng, coupled):
    """A piecewise program with gaps, zero speeds and, half the time, an
    open last segment; with ``coupled``, some segments ride the traffic."""
    program, t = [], 0.0
    n = int(rng.integers(1, 8))
    for k in range(n):
        if rng.random() < 0.3:
            t += float(rng.uniform(0.01, 1.0))  # a gap at speed 0
        end = None if k == n - 1 and rng.random() < 0.5 else t + float(rng.uniform(0.01, 2.0))
        if coupled and rng.random() < 0.4:
            program.append(ModelCoupled(t, end))
        else:
            speed = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 2.0))
            program.append(ExogenousSpeed(t, end, speed))
        t = end
        if t is None:
            break
    return tuple(program)


def reference_program_state(probe, t):
    """Speed (``None`` on a coupled segment) and position (``None`` for a
    program with a coupled segment) at ``t >= 0``, by cumulative piecewise
    integration over the program's contiguous pieces."""
    pieces, end = [], 0.0  # (start, speed), gaps at speed 0
    for s in sorted(probe.program, key=lambda s: s.start):
        if s.start > end:
            pieces.append((end, 0.0))
        pieces.append((s.start, s.speed if isinstance(s, ExogenousSpeed) else None))
        end = s.end
        if end is None:
            break
    if end is not None:
        pieces.append((end, 0.0))
    k = max(i for i, (start, _) in enumerate(pieces) if start <= t)
    if any(w is None for _, w in pieces):
        return pieces[k][1], None
    disp = 0.0
    for (a, w), (b, _) in zip(pieces[:k], pieces[1 : k + 1]):
        disp += (b - a) * w
    start, speed = pieces[k]
    return speed, probe.x0 + (disp + speed * (t - start))


def reference_boundary_times(probe):
    """Segment-walk reference for :meth:`ProbeTrajectory.boundary_times`:
    the table's knot times plus every segment edge after 0."""
    times = {t for t in probe._table.ts if t > 0.0}
    for s in probe.program:
        for t in (s.start, s.end):
            if t is not None and t > 0.0:
                times.add(float(t))
    return sorted(times)


def reference_max_speed(probe, law_vmax):
    """Segment-walk reference for :meth:`ProbeTrajectory.max_speed`."""
    bound = 0.0
    for s in probe.program:
        if isinstance(s, ExogenousSpeed):
            bound = max(bound, s.speed)
        else:
            bound = max(bound, law_vmax)
    return bound


def reference_min_speed(probe):
    """Segment-walk reference for :meth:`ProbeTrajectory.min_speed` of a
    fully exogenous program: its least segment speed, or 0 if it leaves a
    gap or ends."""
    speeds, end = [], 0.0
    for s in sorted(probe.program, key=lambda s: s.start):
        if s.start > end:
            speeds.append(0.0)
        speeds.append(s.speed)
        end = s.end
        if end is None:
            break
    if end is not None:
        speeds.append(0.0)
    return min(speeds)


class TestSpeedTable:
    @pytest.mark.parametrize("tau", [0.0, 0.001, 0.004])
    @pytest.mark.parametrize("coupled", [False, True], ids=["exogenous", "coupled"])
    def test_program_queries_equal_segment_walks(self, coupled, tau):
        rng = np.random.default_rng(20261019)
        n_compared = n_refused = 0
        for _ in range(150):
            program = _random_program(rng, coupled)
            if tau > 0.0 and any(isinstance(s, ModelCoupled) for s in program):
                with pytest.raises(DomainError, match="fully exogenous"):
                    ProbeTrajectory(0.0, program, mollify_radius=tau)
                n_refused += 1
                continue
            probe = ProbeTrajectory(float(rng.uniform(-1.0, 1.0)), program, mollify_radius=tau)
            got, want = probe.boundary_times(), reference_boundary_times(probe)
            assert [t.hex() for t in got] == [t.hex() for t in want]
            for vmax in (0.7, 1.2):
                assert probe.max_speed(vmax).hex() == reference_max_speed(probe, vmax).hex()
            if probe.is_exogenous:
                assert probe.min_speed().hex() == reference_min_speed(probe).hex()
            else:
                with pytest.raises(ProbeStateError):
                    probe.min_speed()
            n_compared += 1
        assert n_compared > 30 and (n_refused > 30 if coupled and tau > 0.0 else n_refused == 0)

    def test_queries_need_only_the_compiled_table(self):
        # the program is kept for serialisation and clone; every query and
        # a run read the table it compiled to
        gappy = (ExogenousSpeed(0.0, 0.2, 0.5), ExogenousSpeed(0.3, None, 0.1))
        coupled = (ModelCoupled(0.0, 0.25), ExogenousSpeed(0.25, None, 0.3))

        def probes():
            return (
                ProbeTrajectory(0.2, gappy, mollify_radius=0.02),
                ProbeTrajectory(0.6, coupled),
            )

        kept, emptied = probes(), probes()
        for probe in emptied:
            probe.program = None
        law, grid = Greenshields(1.0), Grid.from_extent(0.0, 1.0, 0.02)
        for a, b in zip(kept, emptied):
            assert a.max_speed(law.v_max) == b.max_speed(law.v_max)
            assert a.boundary_times() == b.boundary_times()
            if a.is_exogenous:
                assert a.speed_jumps() == b.speed_jumps()
                assert a.min_speed() == b.min_speed()
            else:
                for probe in (a, b):
                    for query in (probe.speed_jumps, probe.min_speed):
                        with pytest.raises(ProbeStateError):
                            query()
        for a, b in ((kept, emptied), (kept[:1], emptied[:1])):
            ma, mb = FluxModel(speed_law=law, probes=a), FluxModel(speed_law=law, probes=b)
            assert lipschitz_constants(ma) == lipschitz_constants(mb)
            assert stability_constant_C(ma) == stability_constant_C(mb)
        # the gap runs at speed 0, where the moving probe has no finite rate
        gappy_rate = stability_constant_C(FluxModel(speed_law=law, probes=emptied[:1]))
        assert gappy_rate.unbounded and gappy_rate.reason.startswith("probe 0 reaches speed 0")
        datum = PiecewiseConstant([0.5], [0.2, 0.6])
        ra = run(FluxModel(speed_law=law, probes=kept), grid, datum, 0.4, n_snapshots=2)
        rb = run(FluxModel(speed_law=law, probes=emptied), grid, datum, 0.4, n_snapshots=2)
        assert np.array_equal(ra.log, rb.log)
        assert all(np.array_equal(pa, pb) for pa, pb in zip(ra.probe_paths, rb.probe_paths))
        assert np.array_equal(ra.snapshots[-1][1], rb.snapshots[-1][1])

    @pytest.mark.parametrize("coupled", [False, True], ids=["exogenous", "coupled"])
    def test_queries_equal_piecewise_integration_to_the_bit(self, coupled):
        rng = np.random.default_rng(20261018)
        n_checked = 0
        for _ in range(100):
            probe = ProbeTrajectory(float(rng.uniform(-1.0, 1.0)), _random_program(rng, coupled))
            edges = sorted({e for s in probe.program for e in (s.start, s.end) if e is not None})
            times = edges + [math.nextafter(e, -math.inf) for e in edges if e > 0.0]
            times += rng.uniform(0.0, edges[-1] + 1.0, 20).tolist()
            for t in times:
                speed, position = reference_program_state(probe, t)
                got = probe.speed_at(t)
                if speed is None:
                    assert got is None
                else:
                    assert got.hex() == speed.hex()
                if probe.is_exogenous:
                    x, w = probe.state_at(t)
                    assert (x.hex(), w.hex()) == (position.hex(), speed.hex())
                else:
                    with pytest.raises(ProbeStateError):
                        probe.state_at(t)
                n_checked += 1
            coupled_starts = {s.start for s in probe.program if isinstance(s, ModelCoupled)}
            for s in probe.program:
                if isinstance(s, ModelCoupled):
                    # coupled from the segment's start, not at its end
                    assert probe.speed_at(s.start) is None
                    if s.end is not None and s.end not in coupled_starts:
                        assert probe.speed_at(s.end) is not None
        assert n_checked > 2000

    @given(
        knots=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]) | st.floats(-1.0, 4.0),
                st.floats(0.0, 2.0) | st.sampled_from([0.0, math.nan, math.inf, 1e308]),
            ),
            min_size=1,
            max_size=8,
        ),
        extra=st.lists(st.floats(-2.0, 5.0), max_size=4),
    )
    # NaN one way and not the other; NaN both ways between equal values
    @example(knots=[(0.0, math.inf), (1.0, 0.5)], extra=[])
    @example(knots=[(0.0, math.inf), (1.0, math.inf)], extra=[])
    def test_knot_lookup_is_numpy_to_the_bit(self, knots, extra):
        # any sorted knot table: repeated times (tau = 0 jumps), NaN values
        # (model-coupled pieces), overflowing and infinite slopes
        knots.sort(key=lambda knot: knot[0])
        ts = [t for t, _ in knots]
        ws = [w for _, w in knots]
        self._assert_lookup_matches_numpy(ts, ws, extra)

    @given(
        seed=st.integers(0, 2**32 - 1),
        coupled=st.booleans(),
        tau=st.sampled_from([0.0, 0.001, 0.004]),
    )
    def test_program_tables_are_numpy_to_the_bit(self, seed, coupled, tau):
        # the tables programs compile to: jumps as repeated knots, mollified
        # ramps, and ramps into and out of NaN (model-coupled) pieces
        table = _SpeedTable(_random_program(np.random.default_rng(seed), coupled), tau)
        self._assert_lookup_matches_numpy(table.ts, table.ws, [])
        # the table's own lookup, which keeps its last answer, asked twice
        knots, speeds = np.array(table.ts), np.array(table.ws)
        for t in table.ts + [-1.0, table.ts[-1] + 1.0]:
            want = self._bits(np.interp(t, knots, speeds))
            assert self._bits(table.lookup(t)[1]) == self._bits(table.lookup(t)[1]) == want

    @staticmethod
    def _bits(value):
        return np.float64(value).tobytes()

    def _assert_lookup_matches_numpy(self, ts, ws, extra):
        times = list(ts) + extra + [ts[0] - 1.0, ts[-1] + 1.0, -math.inf, math.inf, math.nan]
        times += [math.nextafter(t, s) for t in ts for s in (-math.inf, math.inf)]
        times += [0.5 * (a + b) for a, b in zip(ts, ts[1:])]
        xp, fp = np.array(ts), np.array(ws)
        for t in times:
            i, w = _knot_lookup(ts, ws, t)
            assert i == max(int(np.searchsorted(xp, t, side="right")) - 1, 0)
            with np.errstate(all="ignore"):
                want = np.interp(t, xp, fp)
            assert self._bits(w) == self._bits(want), (t, w, want)

    def test_jump_is_two_knots_and_ramp_is_its_box_average(self):
        program = (ExogenousSpeed(0.0, 1.0, 1.0), ExogenousSpeed(1.0, None, 0.2))
        raw = ProbeTrajectory(0.0, program)
        smooth = ProbeTrajectory(0.0, program, mollify_radius=0.25)
        assert raw.speed_at(math.nextafter(1.0, 0.0)) == 1.0 and raw.speed_at(1.0) == 0.2
        assert raw.speed_jumps() == smooth.speed_jumps() == [pytest.approx(0.8)]
        assert raw.boundary_times() == [1.0]
        assert smooth.boundary_times() == [0.75, 1.0, 1.25]
        assert smooth.speed_at(1.0) == pytest.approx(0.6)
        assert smooth.state_at(2.0) == pytest.approx(raw.state_at(2.0))
        assert smooth.min_speed() == raw.min_speed() == 0.2


# ---------------------------------------------------------------------------
# The encoded speed field
# ---------------------------------------------------------------------------

def _single_probe_model(speed, x0=0.0, law=None):
    probe = ProbeTrajectory(x0, (ExogenousSpeed(0.0, None, speed),))
    return FluxModel(speed_law=law or Greenshields(1.0), probes=(probe,))


class TestEncodedSpeed:
    def test_reduces_to_law_away_from_probes(self):
        model = _single_probe_model(0.2)
        v = eval_encoded_speed(model, model.probe_states(0.0), 3.0, 0.5)
        assert v == 0.5  # bitwise: zero weight contributes exactly nothing

    def test_half_weight_blend_hand_value(self):
        # chi = 1/2 at the skirt midpoint x = 0.1; blend of 2/7 and 1/2
        # with weight 1/2 is 11/28
        model = _single_probe_model(0.2)
        v = eval_encoded_speed(model, model.probe_states(0.0), 0.1, 0.5)
        assert v == pytest.approx(11.0 / 28.0, abs=1e-15)

    def test_full_weight_gives_pure_harmonic(self):
        model = _single_probe_model(0.2)
        v = eval_encoded_speed(model, model.probe_states(0.0), 0.0, 0.5)
        assert v == pytest.approx(0.2 / 0.7, abs=1e-15)

    def test_agreement_is_bitwise_transparent(self):
        # a probe moving exactly at the law speed leaves the field untouched
        model = _single_probe_model(0.5)
        rho = np.full(7, 0.5)
        x = np.linspace(-0.2, 0.2, 7)
        out = eval_encoded_speed(model, model.probe_states(0.0), x, rho)
        assert np.all(out == 0.5)

    def test_overlapping_weights_renormalise(self):
        # two stopped probes at the same spot: weights sum to 2, the
        # normalised blend puts all mass on the harmonic speed 0
        probes = (
            ProbeTrajectory(0.0, (ExogenousSpeed(0.0, None, 0.0),)),
            ProbeTrajectory(0.0, (ExogenousSpeed(0.0, None, 0.0),)),
        )
        model = FluxModel(speed_law=Greenshields(1.0), probes=probes)
        assert eval_encoded_speed(model, model.probe_states(0.0), 0.0, 0.5) == 0.0

    def test_observers_do_not_feed_back(self):
        probe = ProbeTrajectory(
            0.0, (ExogenousSpeed(0.0, None, 0.0),), observer=True
        )
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        assert model.coupled_probes == ()
        assert eval_encoded_speed(model, model.probe_states(0.0), 0.0, 0.5) == 0.5

    def test_states_need_one_entry_per_coupled_probe(self):
        probe = ProbeTrajectory(0.0, (ModelCoupled(0.0, None),))
        model = FluxModel(Greenshields(1.0), probes=(probe, probe.clone(observer=True)))
        grid = Grid.from_extent(-1.0, 1.0, 0.01)
        for states in (((0.0, 0.5), (0.1, 0.5)), ()):
            for call in (
                lambda: eval_encoded_speed(model, states, 0.0, 0.5),
                lambda: eval_flux(model, states, 0.0, 0.5),
                lambda: cfl_dt(model, grid, states, (0.0, 1.0)),
            ):
                with pytest.raises(DomainError, match="coupled probes"):
                    call()
        # one state per coupled probe; the observer takes none
        assert eval_encoded_speed(model, ((0.0, 0.2),), 0.0, 0.5) == pytest.approx(
            0.2 / 0.7, abs=1e-15
        )
        assert cfl_dt(model, grid, ((0.0, 0.2),), (0.0, 1.0)) > 0.0

    @pytest.mark.parametrize("speed", [-0.3, -math.inf, math.nan, math.inf])
    def test_probe_speed_must_be_finite_and_not_negative(self, speed):
        # a negative speed blended a flux of -0.75 at the probe, a NaN one
        # gave NaN everywhere, and cfl_dt read a negative one as a
        # numerical failure (StabilityError) rather than bad input
        probe = ProbeTrajectory(0.5, (ModelCoupled(0.0, None),))
        model = FluxModel(Greenshields(1.0), probes=(probe,))
        grid = Grid.from_extent(0.0, 1.0, 0.1)
        x, rho = np.linspace(0.0, 1.0, 11), np.full(11, 0.5)
        states = ((0.5, speed),)
        for call in (
            lambda: eval_encoded_speed(model, states, x, rho),
            lambda: eval_flux(model, states, x, rho),
            lambda: eval_flux(model, states, x, rho, [slice(2, 9)]),
            lambda: cfl_dt(model, grid, states, (0.0, 1.0)),
        ):
            with pytest.raises(DomainError, match="probe speed must be finite and >= 0"):
                call()

    def test_a_stopped_probe_may_read_either_signed_zero(self):
        probe = ProbeTrajectory(0.5, (ModelCoupled(0.0, None),))
        model = FluxModel(Greenshields(1.0), probes=(probe,))
        x, rho = np.linspace(0.0, 1.0, 11), np.full(11, 0.5)
        for speed in (0.0, -0.0):
            assert eval_flux(model, ((0.5, speed),), x, rho)[5] == 0.0

    def test_flux_is_density_times_speed(self):
        model = _single_probe_model(0.2)
        x = np.linspace(-0.3, 0.3, 13)
        rho = np.linspace(0.1, 0.9, 13)
        np.testing.assert_array_equal(
            eval_flux(model, model.probe_states(0.0), x, rho),
            rho * eval_encoded_speed(model, model.probe_states(0.0), x, rho),
        )

    def test_rejects_out_of_range_density(self):
        model = _single_probe_model(0.2)
        with pytest.raises(DomainError):
            eval_encoded_speed(model, model.probe_states(0.0), 0.0, 1.2)
        for rho in (1.2, -0.1, np.array([0.5, 1.0 + 1e-9])):
            with pytest.raises(DomainError):
                eval_flux(model, model.probe_states(0.0), 0.0, rho)

    @pytest.mark.parametrize(
        "rho",
        [math.nan, [0.5, math.nan], [math.nan, 0.5], [math.nan] * 3],
        ids=["scalar", "last", "first", "all"],
    )
    def test_rejects_nan_density(self, rho):
        # NaN is no density in [0, 1]: every checked entry point rejects it
        law = Greenshields(1.0)
        model = _single_probe_model(0.2)
        states = model.probe_states(0.0)
        x = np.zeros(np.shape(rho))
        for call in (
            lambda: eval_flux(model, states, x, rho),
            lambda: eval_flux(FluxModel(law), (), x, rho),
            lambda: eval_encoded_speed(model, states, x, rho),
            lambda: eval_g(law, rho, 0.5),
        ):
            with pytest.raises(DomainError, match="outside"):
                call()

    @given(
        st.floats(min_value=0.0, max_value=1.5),
        densities,
        st.floats(min_value=-0.3, max_value=0.3),
    )
    def test_stays_between_law_and_blend(self, w, rho, x):
        model = _single_probe_model(w)
        v = float(model.speed_law(rho))
        h = harmonic_speed(w, v)
        out = eval_encoded_speed(model, model.probe_states(0.0), x, rho)
        assert min(v, h) - 1e-12 <= out <= max(v, h) + 1e-12

    def test_sampled_slope_bounds(self):
        # |dV/drho| <= Lrho and |dV/dx| <= Lx on a fine grid
        model = _single_probe_model(0.2)
        lips = lipschitz_constants(model)
        x = np.linspace(-0.25, 0.25, 101)[:, None]
        rho = np.linspace(0.0, 1.0, 101)[None, :]
        field = eval_encoded_speed(model, model.probe_states(0.0), x, rho)
        drho = float(rho[0, 1] - rho[0, 0])
        dx = float(x[1, 0] - x[0, 0])
        assert np.max(np.abs(np.diff(field, axis=1))) / drho <= lips.Lrho * (1 + 1e-6)
        assert np.max(np.abs(np.diff(field, axis=0))) / dx <= lips.Lx * (1 + 1e-6)


class TestFluxModel:
    def test_trace_side_validated(self):
        with pytest.raises(DomainError):
            FluxModel(speed_law=Greenshields(1.0), trace_side="middle")

    def test_max_probe_speed(self):
        model = _single_probe_model(0.7)
        assert model.max_probe_speed() == 0.7
        empty = FluxModel(speed_law=Greenshields(1.0))
        assert empty.max_probe_speed() == 0.0

    def test_unhashable_law_rejected(self, plain_law):
        # the CFL bound keeps slopes per law, so a law must be hashable
        with pytest.raises(DomainError, match="not hashable"):
            FluxModel(speed_law=plain_law)


# ---------------------------------------------------------------------------
# The auxiliary map g and its moduli
# ---------------------------------------------------------------------------

class TestAuxiliaryMap:
    def test_hand_value(self):
        # g(1/2, 1/2) = (1/2)(1/2)(1/2) / 1 = 1/8 under v = 1 - rho
        assert eval_g(Greenshields(1.0), 0.5, 0.5) == 0.125

    def test_zero_denominator(self):
        assert eval_g(Greenshields(1.0), 1.0, 0.0) == 0.0

    def test_curvature_closed_form(self):
        # g'' = q^2 [ (v+q) f'' - 2 rho (v')^2 ] / (v+q)^3 for f = rho v;
        # under v = 1 - rho, q = 1/2, rho = 1/2: g'' = (1/4)(-2 - 1)/1 = -3/4
        law = Greenshields(1.0)
        h = 1e-4
        rho = 0.5
        fd = (
            eval_g(law, rho + h, 0.5)
            - 2.0 * eval_g(law, rho, 0.5)
            + eval_g(law, rho - h, 0.5)
        ) / (h * h)
        assert fd == pytest.approx(-0.75, rel=1e-4)

    def test_constant_is_unbounded_down_to_speed_zero(self):
        # along 1 - rho = q the mixed derivative under Greenshields is
        # 1/2 - 1/(4 q), which no constant bounds as q -> 0
        law = Greenshields(1.0)
        assert mixed_difference_constant(law, 0.0) == math.inf
        for q in (0.1, 0.01, 0.001):
            r, h = 1.0 - q, 1e-3 * q
            mixed = (
                eval_g(law, r + h, q + h)
                - eval_g(law, r + h, q - h)
                - eval_g(law, r - h, q + h)
                + eval_g(law, r - h, q - h)
            ) / (4.0 * h * h)
            assert mixed == pytest.approx(0.5 - 0.25 / q, rel=1e-4)
            assert abs(mixed) <= mixed_difference_constant(law, q)


class TestLipschitzConstants:
    def test_probe_free_model(self):
        lips = lipschitz_constants(FluxModel(speed_law=Greenshields(1.0)))
        assert lips.M == 0.0
        assert lips.Lx == 0.0
        assert lips.Lrho == 2.0
        assert lips.Lxrho == 0.0

    def test_single_probe_model(self):
        model = _single_probe_model(0.5)
        lips = lipschitz_constants(model)
        assert lips.M == pytest.approx(2.0 / 3.0)
        assert lips.Lx == pytest.approx((2.0 / 3.0 + 1.0) * 15.0)
        assert lips.Lxrho == model.cutoff.lipschitz() * 1.0


class TestStabilityConstant:
    def test_probe_free_rate_is_zero(self):
        c = stability_constant_C(FluxModel(speed_law=Greenshields(1.0)))
        assert c.value == 0.0 and not c.unbounded

    def test_coupled_probe_is_unbounded(self):
        probe = ProbeTrajectory(0.0, (ModelCoupled(0.0, None),))
        c = stability_constant_C(FluxModel(speed_law=Greenshields(1.0), probes=(probe,)))
        assert c.unbounded and "model-coupled" in c.reason

    def test_unmollified_jump_is_unbounded(self):
        probe = ProbeTrajectory(
            0.0, (ExogenousSpeed(0.0, 1.0, 0.5), ExogenousSpeed(1.0, None, 0.0))
        )
        c = stability_constant_C(FluxModel(speed_law=Greenshields(1.0), probes=(probe,)))
        assert c.unbounded and "unmollified" in c.reason

    def test_mollified_program_gets_finite_rate(self):
        probe = ProbeTrajectory(
            0.0,
            (ExogenousSpeed(0.0, 1.0, 0.5), ExogenousSpeed(1.0, None, 0.25)),
            mollify_radius=0.1,
        )
        c = stability_constant_C(FluxModel(speed_law=Greenshields(1.0), probes=(probe,)))
        part = c.per_probe[0]
        assert (part["P"], part["q_lo"]) == (0.5, 0.25)
        assert part["L_hm"] == 1.0 + 1.0 / 0.25
        assert part["lip_g"] == 1.0 + 1.0 / (2.0 * 0.25)
        assert part["lip_pdot"] == pytest.approx(1.25)
        # Lip(chi) (1 + P) (P L_hm + Lip(f)) + Lip(g) Lip(pdot)
        assert c.value == pytest.approx(15.0 * 1.5 * (0.5 * 5.0 + 1.0) + 3.0 * 1.25)

    def test_moving_probe_reaching_speed_zero_is_unbounded(self):
        probe = ProbeTrajectory(
            0.0,
            (ExogenousSpeed(0.0, 1.0, 0.5), ExogenousSpeed(1.0, None, 0.0)),
            mollify_radius=0.1,
        )
        still = ProbeTrajectory(1.0, (ExogenousSpeed(0.0, None, 0.0),))
        c = stability_constant_C(FluxModel(speed_law=Greenshields(1.0), probes=(still, probe)))
        assert c.unbounded and c.reason.startswith("probe 1 reaches speed 0")

    def test_probe_that_never_moves_adds_the_cutoff_term(self):
        still = ProbeTrajectory(0.0, (ExogenousSpeed(0.0, None, 0.0),))
        law = EpsilonLaw(0.2)
        c = stability_constant_C(FluxModel(speed_law=law, probes=(still,)))
        assert c.value == 15.0 * law.flux_lipschitz()
        assert c.per_probe[0]["L_hm"] == c.per_probe[0]["lip_g"] == 0.0

    def test_constant_speed_probe_has_no_jump_term(self):
        c = stability_constant_C(_single_probe_model(0.5))
        assert not c.unbounded
        assert c.per_probe[0]["lip_pdot"] == 0.0


#: Laws for the closed-form moduli: linear, concave and convex quadratic,
#: and a table that ends at 0; the probe speeds run over [Q_LO, Q_HI].
CLOSED_FORM_LAWS = [
    Greenshields(1.0),
    EpsilonLaw(0.3),
    EpsilonLaw(-0.3),
    TabulatedLaw([1.0, 0.8, 0.5, 0.0]),
]
Q_LO, Q_HI = 0.05, 0.8


def _ramp_model(law):
    """One probe ramping from ``Q_HI`` down to ``Q_LO``."""
    probe = ProbeTrajectory(
        0.0,
        (ExogenousSpeed(0.0, 1.0, Q_HI), ExogenousSpeed(1.0, None, Q_LO)),
        mollify_radius=0.1,
    )
    return FluxModel(speed_law=law, probes=(probe,))


def _nearby_pairs(rng, lo, hi, n, spread):
    """``n`` draws on ``[lo, hi]`` and partners at most ``spread`` away."""
    a = rng.uniform(lo, hi, n)
    return a, np.clip(a + rng.uniform(-spread, spread, n), lo, hi)


@pytest.mark.parametrize("law", CLOSED_FORM_LAWS, ids=repr)
class TestClosedFormModuli:
    """Each closed form bounds difference quotients of the map it is the
    modulus of; the speeds reach down to ``Q_LO``, where the bounds that
    depend on the speed are largest."""

    def test_lxrho_bounds_mixed_differences_of_the_encoded_speed(self, law):
        rng = np.random.default_rng(20261021)
        bound = lipschitz_constants(_ramp_model(law)).Lxrho
        assert bound == CutoffProfile().lipschitz() * law.lipschitz()
        n, h = 20_000, 1e-5
        x = rng.uniform(-0.16, 0.16, n)
        r1, r2 = _nearby_pairs(rng, 0.0, 1.0, n, 0.02)
        keep = r1 != r2
        worst = 0.0
        for w in (0.0, Q_LO, 0.3, Q_HI):
            model = _single_probe_model(w, law=law)
            states = model.probe_states(0.0)

            def speed(x, rho):
                return eval_encoded_speed(model, states, x, rho)

            mixed = (speed(x + h, r2) - speed(x, r2) - speed(x + h, r1) + speed(x, r1))[keep]
            quotient = np.abs(mixed) / (h * np.abs(r2 - r1)[keep])
            assert np.all(quotient <= bound * (1.0 + 1e-6) + 1e-6)
            worst = max(worst, float(np.max(quotient)))
        assert worst >= 0.9 * bound  # attained at w = 0, where |dH/dv - 1| = 1

    def test_l_hm_bounds_slopes_of_the_harmonic_map(self, law):
        rng = np.random.default_rng(20261022)
        part = stability_constant_C(_ramp_model(law)).per_probe[0]
        assert (part["P"], part["q_lo"]) == (Q_HI, Q_LO)
        n = 40_000
        r1, r2 = _nearby_pairs(rng, 0.0, 1.0, n, 0.02)
        w = rng.uniform(Q_LO, Q_HI, n)
        keep = r1 != r2

        def m(rho):
            v = law(rho)
            return rho * v / (w + v)

        quotient = (np.abs(m(r1) - m(r2)) / np.abs(r1 - r2))[keep]
        assert np.all(quotient <= part["L_hm"] * (1.0 + 1e-9))

    def test_lip_g_bounds_mixed_differences_of_g(self, law):
        rng = np.random.default_rng(20261023)
        part = stability_constant_C(_ramp_model(law)).per_probe[0]
        assert part["lip_g"] == mixed_difference_constant(law, Q_LO)
        n = 40_000
        r1, r2 = _nearby_pairs(rng, 0.0, 1.0, n, 0.02)
        q1, q2 = _nearby_pairs(rng, Q_LO, Q_HI, n, 0.02)
        keep = (r1 != r2) & (q1 != q2)
        mixed = eval_g(law, r1, q1) - eval_g(law, r1, q2) - eval_g(law, r2, q1) + eval_g(law, r2, q2)
        quotient = (np.abs(mixed) / (np.abs(r1 - r2) * np.abs(q1 - q2)))[keep]
        assert np.all(quotient <= part["lip_g"] * (1.0 + 1e-6) + 1e-6)


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

def condition(report, name):
    """The named check of an admissibility report."""
    return next(c for c in report.conditions if c.name == name)


def table_failures(values):
    """The conditions a :class:`TabulatedLaw` of ``values`` fails, decided
    in exact rational arithmetic from the signs of its slopes and of its
    second differences.  Its values are non-negative and its ``v_max`` is
    their maximum, so it is always within range.  On a linear piece the
    blend's ``h = -a b`` is positive wherever ``b < 0`` (the intercept ``a``
    is then positive), so the blend fails exactly where the flux does."""
    v = [Fraction(x) for x in values]
    h = Fraction(1, len(v) - 1)
    slopes = [(v1 - v0) / h for v0, v1 in zip(v, v[1:])]
    bends = [s1 - s0 for s0, s1 in zip(slopes, slopes[1:])]
    failed = []
    if v[-1] != 0:
        failed.append("speed_vanishes_at_full_density")
    if any(s > 0 for s in slopes):
        failed.append("speed_monotone_nonincreasing")
    if not (all(s < 0 for s in slopes) and all(d <= 0 for d in bends)):
        failed += ["flux_strictly_concave", "blend_strictly_concave"]
    return tuple(failed)


def epsilon_failures(eps):
    """The conditions ``EpsilonLaw(eps)`` fails, in the closed form that
    :func:`check_admissible` states."""
    lo, hi = EPSILON_ADMISSIBLE
    failed = []
    if eps > 1.0:
        failed.append("speed_monotone_nonincreasing")
    if not -0.5 < eps < 1.0:
        failed.append("flux_strictly_concave")
    if not -0.5 <= eps < 1.0:
        failed.append("blend_strictly_concave")
    if not lo <= eps <= hi:
        failed.append("family_parameter_range")
    return tuple(failed)


#: Tables of ``k / 8`` on 2, 3, 5 or 9 knots, whose slopes and intercepts
#: are all exact in float64: any values, or a concave decreasing table
#: built from non-decreasing drops that ends at 0.
dyadic_tables = st.one_of(
    st.sampled_from([2, 3, 5, 9]).flatmap(
        lambda n: st.lists(st.integers(0, 16), min_size=n, max_size=n)
    ),
    st.sampled_from([1, 2, 4, 8]).flatmap(
        lambda n: st.lists(st.integers(0, 6), min_size=n, max_size=n)
    ).map(lambda drops: [sum(sorted(drops)[i:]) for i in range(len(drops) + 1)]),
).map(lambda ks: [k / 8.0 for k in ks])

#: Around each boundary of the closed form: the value and its neighbours.
EPSILON_EDGES = [
    x
    for edge in (-1.0, -0.5, -1.0 / 3.0, 1.0 / 3.0, 1.0, 2.0)
    for x in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))
    if -1.0 <= x <= 2.0
]


class TestAdmissibility:
    def test_linear_law_passes(self):
        report = check_admissible(Greenshields(1.0))
        assert report.passed
        assert condition(report, "flux_strictly_concave").passed

    @pytest.mark.parametrize("eps", [-1.0 / 3.0, -0.1, 0.0, 0.2, 1.0 / 3.0])
    def test_quadratic_family_passes_inside_range(self, eps):
        assert check_admissible(EpsilonLaw(eps)).passed

    @pytest.mark.parametrize("eps", [-0.5, 0.4, 1.0 / 3.0 + 1e-9])
    def test_quadratic_family_fails_outside_range(self, eps):
        report = check_admissible(EpsilonLaw(eps))
        assert not condition(report, "family_parameter_range").passed
        assert not report.passed

    def test_nonvanishing_terminal_speed_fails(self):
        report = check_admissible(TabulatedLaw([1.0, 0.6, 0.2]))
        assert not condition(report, "speed_vanishes_at_full_density").passed

    def test_speed_just_above_zero_at_full_density_fails_as_a_run_does(self):
        # one verdict on v(1): the scan and the run's input check both ask
        # for exactly 0
        law = TabulatedLaw([1.0, 0.5, 1e-13])
        check = condition(check_admissible(law), "speed_vanishes_at_full_density")
        assert not check.passed
        assert check.worst_violation == 1e-13
        assert "speed_vanishes_at_full_density" in law.failed_conditions
        with pytest.raises(DomainError, match="must vanish at full density"):
            check_run(FluxModel(law), Grid.from_extent(0.0, 1.0, 0.1), 1.0)

    def test_increasing_speed_fails(self):
        report = check_admissible(TabulatedLaw([1.0, 0.2, 0.5, 0.0]))
        assert not condition(report, "speed_monotone_nonincreasing").passed

    def test_report_str(self):
        report = check_admissible(Greenshields(1.0))
        assert "PASS" in str(report)

    @settings(max_examples=400)
    @given(dyadic_tables)
    @example([0.0, 0.0])
    @example([1.0, 0.5, 0.0])
    @example([2.0, 1.875, 1.625, 1.25, 0.0])
    @example([1.0, 0.375, 0.0])
    def test_tables_match_the_exact_reference(self, values):
        law = TabulatedLaw(values)
        expected = table_failures(values)
        assert law.failed_conditions == expected
        assert check_admissible(law).passed == (not expected)

    def test_epsilon_family_matches_the_closed_form(self):
        # every 0.001 on [-1, 2], and each edge of the closed form with its
        # two neighbouring floats
        for eps in [k / 1000.0 for k in range(-1000, 2001)] + EPSILON_EDGES:
            assert EpsilonLaw(eps).failed_conditions == epsilon_failures(eps), eps

    def test_nan_coefficient_fails_and_has_no_riemann_solution(self, nan_slope_law):
        # the second piece's NaN intercept enters the blend's test
        assert not condition(check_admissible(nan_slope_law), "blend_strictly_concave").passed
        assert nan_slope_law.failed_conditions
        with pytest.raises(DomainError, match="not admissible"):
            solve_riemann(nan_slope_law, 0.75, 0.0)

    def test_convex_kink_fails(self):
        # f'(1/2-) = -0.00735 < f'(1/2+) = 0: a fan from 0.75 to 0.25
        # would cross a convex kink
        law = TabulatedLaw([1.131540015072459, 0.5620939947453619, 0.0])
        report = check_admissible(law)
        assert not condition(report, "flux_strictly_concave").passed
        assert not condition(report, "blend_strictly_concave").passed
        with pytest.raises(DomainError, match="not admissible"):
            solve_riemann(law, 0.75, 0.25)

    def test_worst_violation_is_the_rise_of_the_flux_slope(self):
        # slopes -5/4 then -3/4: f' rises by (1/2)(1/2) at the knot
        report = check_admissible(TabulatedLaw([1.0, 0.375, 0.0]))
        assert condition(report, "flux_strictly_concave").worst_violation == 0.25
        assert condition(report, "blend_strictly_concave").worst_violation == 0.25

    def test_shallow_strictly_concave_piece_passes(self):
        # f'' = 2 (-2e-6) < 0 on the first piece, however small beside the
        # second piece's
        report = check_admissible(TabulatedLaw([1.0, 0.999999, 0.0]))
        assert report.passed
        assert all(c.worst_violation == 0.0 for c in report.conditions)

    def test_flux_fails_at_equality_while_the_blend_holds(self):
        # EpsilonLaw(-1/2): f''(1) = 0, yet g_w''(1) = -2 w**2 h(1) / w**3 < 0
        report = check_admissible(EpsilonLaw(-0.5))
        flux = condition(report, "flux_strictly_concave")
        assert not flux.passed and flux.worst_violation == 0.0
        assert condition(report, "blend_strictly_concave").passed
