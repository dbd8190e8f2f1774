"""Speed laws, the harmonic blend, cutoff profiles, and probe programs.

Numeric expectations are hand-computed fractions frozen into the tests;
property-style checks draw their inputs with hypothesis.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given
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
    ProbeStateError,
    ProbeTrajectory,
    SpeedLaw,
    TabulatedLaw,
    cfl_dt,
    check_admissible,
    eval_encoded_speed,
    eval_flux,
    eval_g,
    eval_speed_law,
    harmonic_speed,
    lipschitz_constants,
    mixed_difference_constant,
    stability_constant_C,
)
from probeflow.model import _knot_lookup, _SpeedTable

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

    def test_flux_slope_matches_finite_differences(self):
        law = EpsilonLaw(0.2)
        rho = np.linspace(0.01, 0.99, 23)
        h = 1e-6
        fd = (law.flux(rho + h) - law.flux(rho - h)) / (2.0 * h)
        assert np.max(np.abs(law.flux_slope(rho) - fd)) < 1e-8

    def test_lipschitz_value(self):
        assert EpsilonLaw(-0.25).lipschitz() == 1.25

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

    def test_rejects_bad_tables(self):
        with pytest.raises(DomainError):
            TabulatedLaw([1.0])
        with pytest.raises(DomainError):
            TabulatedLaw([0.5, -0.1])
        with pytest.raises(DomainError):
            TabulatedLaw([1.0, math.nan, 0.0])
        with pytest.raises(DomainError):
            TabulatedLaw([1.0, math.inf, 0.0])


def test_eval_speed_law_rejects_out_of_range_density():
    with pytest.raises(DomainError):
        eval_speed_law(Greenshields(1.0), 1.5)
    with pytest.raises(DomainError):
        eval_speed_law(Greenshields(1.0), -0.2)


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

    def test_derivative_matches_finite_differences(self):
        chi = CutoffProfile(inner=0.05, outer=0.15)
        xi = np.linspace(-0.2, 0.2, 81)
        h = 1e-7
        fd = (chi(xi + h) - chi(xi - h)) / (2.0 * h)
        # centred differences are only O(h) accurate at the skirt kinks
        assert np.max(np.abs(chi.derivative(xi) - fd)) < 1e-4

    def test_lipschitz_is_peak_skirt_slope(self):
        chi = CutoffProfile(inner=0.05, outer=0.15)
        assert chi.lipschitz() == pytest.approx(15.0)
        xi = np.linspace(-0.2, 0.2, 4001)
        assert np.max(np.abs(chi.derivative(xi))) <= chi.lipschitz() + 1e-12

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

    def test_overlapping_segments_rejected(self):
        with pytest.raises(DomainError):
            ProbeTrajectory(
                0.0,
                (ExogenousSpeed(0.0, 2.0, 0.5), ExogenousSpeed(1.0, 3.0, 1.0)),
            )

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

    def test_coupled_program_cannot_be_mollified(self):
        with pytest.raises(DomainError):
            ProbeTrajectory(0.0, (ModelCoupled(0.0, None),), mollify_radius=0.1)

    def test_speed_at_is_none_on_coupled_segment(self):
        probe = ProbeTrajectory(0.0, (ModelCoupled(0.0, 1.0),))
        assert probe.speed_at(0.5) is None
        assert probe.speed_at(1.0) == 0.0  # the gap after the segment

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


class TestSpeedTable:
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
        assert raw.profile_speeds() == [0.2, 1.0]
        assert len(smooth.profile_speeds()) == 9


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
                lambda: cfl_dt(model, grid, states),
            ):
                with pytest.raises(DomainError, match="coupled probes"):
                    call()
        # one state per coupled probe; the observer takes none
        assert eval_encoded_speed(model, ((0.0, 0.2),), 0.0, 0.5) == pytest.approx(
            0.2 / 0.7, abs=1e-15
        )
        assert cfl_dt(model, grid, ((0.0, 0.2),)) > 0.0

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
            lambda: eval_speed_law(law, rho),
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

    def test_unhashable_law_rejected(self):
        # the CFL bound keeps slopes per law, so a law must be hashable
        @dataclass
        class PlainLaw(SpeedLaw):  # eq=True without frozen sets __hash__ = None
            vmax: float = 1.0

            def __call__(self, rho):
                return self.vmax * (1.0 - np.asarray(rho, dtype=float))

            @property
            def v_max(self):
                return self.vmax

            def lipschitz(self):
                return self.vmax

        with pytest.raises(DomainError, match="not hashable"):
            FluxModel(speed_law=PlainLaw())


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

    def test_mixed_difference_constant_bounds_quadruples(self):
        law = Greenshields(1.0)
        P = 0.8
        B = mixed_difference_constant(law, P)
        assert B > 0.0
        rng = np.random.default_rng(20240815)
        r = rng.uniform(0.0, 1.0, size=(2, 10_000))
        q = rng.uniform(0.0, P, size=(2, 10_000))
        lhs = np.abs(
            eval_g(law, r[0], q[0])
            - eval_g(law, r[0], q[1])
            - eval_g(law, r[1], q[0])
            + eval_g(law, r[1], q[1])
        )
        rhs = 1.05 * B * np.abs(r[0] - r[1]) * np.abs(q[0] - q[1])
        assert np.all(lhs <= rhs + 1e-12)

    def test_constant_vanishes_without_probe_speed(self):
        assert mixed_difference_constant(Greenshields(1.0), 0.0) == 0.0


class TestLipschitzConstants:
    def test_probe_free_model(self):
        lips = lipschitz_constants(FluxModel(speed_law=Greenshields(1.0)))
        assert lips.M == 0.0
        assert lips.Lx == 0.0
        assert lips.Lrho == 2.0
        assert lips.Lxrho_sampled == 0.0

    def test_single_probe_model(self):
        model = _single_probe_model(0.5)
        lips = lipschitz_constants(model)
        assert lips.M == pytest.approx(2.0 / 3.0)
        assert lips.Lx == pytest.approx((2.0 / 3.0 + 1.0) * 15.0)
        assert lips.Lxrho_sampled > 0.0


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
            (ExogenousSpeed(0.0, 1.0, 0.5), ExogenousSpeed(1.0, None, 0.0)),
            mollify_radius=0.1,
        )
        c = stability_constant_C(FluxModel(speed_law=Greenshields(1.0), probes=(probe,)))
        assert not c.unbounded and c.value > 0.0
        assert c.per_probe[0]["lip_pdot"] == pytest.approx(2.5)

    def test_constant_speed_probe_has_no_jump_term(self):
        c = stability_constant_C(_single_probe_model(0.5))
        assert not c.unbounded
        assert c.per_probe[0]["lip_pdot"] == 0.0


# ---------------------------------------------------------------------------
# Admissibility scan
# ---------------------------------------------------------------------------

class TestAdmissibility:
    def test_linear_law_passes(self):
        report = check_admissible(Greenshields(1.0))
        assert report.passed
        assert report.condition("flux_strictly_concave").passed

    @pytest.mark.parametrize("eps", [-1.0 / 3.0, -0.1, 0.0, 0.2, 1.0 / 3.0])
    def test_quadratic_family_passes_inside_range(self, eps):
        assert check_admissible(EpsilonLaw(eps)).passed

    @pytest.mark.parametrize("eps", [-0.5, 0.4, 1.0 / 3.0 + 1e-9])
    def test_quadratic_family_fails_outside_range(self, eps):
        report = check_admissible(EpsilonLaw(eps))
        assert not report.condition("family_parameter_range").passed
        assert not report.passed

    def test_nonvanishing_terminal_speed_fails(self):
        report = check_admissible(TabulatedLaw([1.0, 0.6, 0.2]))
        assert not report.condition("speed_vanishes_at_full_density").passed

    def test_increasing_speed_fails(self):
        report = check_admissible(TabulatedLaw([1.0, 0.2, 0.5, 0.0]))
        assert not report.condition("speed_monotone_nonincreasing").passed

    def test_report_lookup_and_str(self):
        report = check_admissible(Greenshields(1.0))
        with pytest.raises(KeyError):
            report.condition("no_such_condition")
        assert "PASS" in str(report)
