"""Wave front tracking: dyadic flux tables, collisions, curve integrals.

Hand-computed references use the quadratic flux table of the linear speed
law on coarse dyadic grids, where envelopes and collision times are exact
fractions.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from probeflow import (
    Curve,
    DomainError,
    EpsilonLaw,
    FrontTrackError,
    Greenshields,
    PiecewiseConstant,
    PiecewiseLinearFlux,
    from_datum,
    ft_evolve,
    ft_riemann,
    sample_curve_integral,
    solve_riemann,
)
from probeflow import fronttrack
from probeflow.fronttrack import COLLISION_TOL, FrontState


def window_mass(state, t, a, b):
    """Integral of the front profile over [a, b] at time t."""
    pos = np.clip(state.positions(t), a, b)
    edges = np.concatenate([[a], pos, [b]])
    return float(np.sum(np.diff(edges) * state.vals))


# ---------------------------------------------------------------------------
# Piecewise constant data
# ---------------------------------------------------------------------------

class TestPiecewiseConstant:
    def test_from_blocks(self):
        datum = PiecewiseConstant.from_blocks(0.125, [(0.0, 2.0, 0.375)])
        assert datum.xs == (0.0, 2.0)
        assert datum.values == (0.125, 0.375, 0.125)
        assert datum.tv() == 0.5
        assert datum.range() == (0.125, 0.375)

    def test_right_continuous_evaluation(self):
        datum = PiecewiseConstant([0.0, 1.0], [0.2, 0.8, 0.4])
        assert datum.value_at(-0.5) == 0.2
        assert datum.value_at(0.0) == 0.8
        assert datum.value_at(1.0) == 0.4
        np.testing.assert_array_equal(
            datum.value_at(np.array([-1.0, 0.5, 2.0])), [0.2, 0.8, 0.4]
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            PiecewiseConstant([0.0], [0.5])  # state count mismatch
        with pytest.raises(DomainError):
            PiecewiseConstant([1.0, 0.5], [0.1, 0.2, 0.3])  # unsorted jumps
        with pytest.raises(DomainError):
            PiecewiseConstant([0.0], [0.5, 1.5])  # out of range
        with pytest.raises(DomainError):
            PiecewiseConstant([0.0], [0.5, 0.5])  # equal neighbours
        with pytest.raises(DomainError):
            PiecewiseConstant([float("nan")], [0.5, 0.25])  # non-finite jump
        with pytest.raises(DomainError):
            PiecewiseConstant([0.0], [0.5, float("nan")])  # non-finite state
        with pytest.raises(DomainError):
            PiecewiseConstant.from_blocks(0.0, [(0.0, 2.0, 0.5), (1.0, 3.0, 0.7)])
        with pytest.raises(DomainError):
            PiecewiseConstant.from_blocks(0.0, [(2.0, 2.0, 0.5)])

    def test_block_matching_background_is_dropped(self):
        datum = PiecewiseConstant.from_blocks(0.5, [(0.0, 1.0, 0.5)])
        assert datum.xs == ()
        assert datum.values == (0.5,)


class TestQuantize:
    def test_rounds_to_dyadic_grid(self):
        result = PiecewiseConstant([0.0], [0.3, 0.7]).quantize(3)
        assert result.datum.values == (0.25, 0.75)
        assert result.n == 3
        # 0.4 of variation became 0.5: preserved only up to the grid bound
        assert not result.tv_preserved

    def test_on_grid_values_unchanged(self):
        datum = PiecewiseConstant([0.0], [0.125, 0.375])
        result = datum.quantize(3)
        assert result.datum.values == datum.values
        assert result.tv_preserved

    def test_merges_states_that_round_together(self):
        result = PiecewiseConstant([0.0], [0.49, 0.51]).quantize(1)
        assert result.datum.xs == ()
        assert result.datum.values == (0.5,)

    def test_variation_bounded_by_jump_count(self):
        rng = np.random.default_rng(20240816)
        for _ in range(50):
            k = rng.integers(1, 6)
            xs = np.sort(rng.uniform(0.0, 10.0, size=k))
            if np.any(np.diff(xs) < 1e-6):
                continue
            values = rng.uniform(0.0, 1.0, size=k + 1)
            while np.any(np.diff(values) == 0.0):
                values = rng.uniform(0.0, 1.0, size=k + 1)
            datum = PiecewiseConstant(xs, values)
            for n in (2, 5, 9):
                result = datum.quantize(n)
                assert result.datum.tv() <= datum.tv() + k * 2.0 ** -n + 1e-12

    def test_rejects_bad_exponent(self):
        with pytest.raises(DomainError):
            PiecewiseConstant([], [0.5]).quantize(0)


# ---------------------------------------------------------------------------
# Dyadic flux tables
# ---------------------------------------------------------------------------

class TestPiecewiseLinearFlux:
    def test_table_of_quadratic_flux(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 2)
        np.testing.assert_array_equal(flux.grid, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_array_equal(
            flux.values, [0.0, 3.0 / 16.0, 0.25, 3.0 / 16.0, 0.0]
        )

    def test_difference_quotients(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 2)
        assert flux.quotient(0.0, 0.25) == 0.75
        assert flux.quotient(0.25, 0.75) == 0.0
        assert flux.quotient(0.75, 1.0) == -0.75

    def test_off_grid_density_rejected(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 2)
        with pytest.raises(DomainError):
            flux.index_of(0.3)
        with pytest.raises(DomainError):
            flux.quotient(0.25, 0.25)

    def test_speed_bound_covers_adjacent_cells(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 2)
        assert flux.speed_bound(0.0, 1.0) == 0.75
        # the bound widens by one cell on each side of the density range
        assert flux.speed_bound(0.5, 0.75) == 0.25

    def test_grid_exponent_is_kept_and_must_be_positive(self):
        assert PiecewiseLinearFlux(EpsilonLaw(0.2), 4).n == 4
        with pytest.raises(DomainError):
            PiecewiseLinearFlux(Greenshields(1.0), 0)


class TestFtRiemann:
    def test_increasing_jump_with_concave_table_is_one_shock(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 3)
        states, speeds = ft_riemann(flux, 0.125, 0.375)
        assert states == [0.125, 0.375]
        assert speeds == [0.5]

    def test_shock_speed_matches_exact_chord(self):
        # grid states: the table interpolates the flux exactly there, so the
        # envelope chord is the true jump speed
        law = EpsilonLaw(0.2)
        flux = PiecewiseLinearFlux(law, 12)
        exact = solve_riemann(law, 0.125, 0.375).speed
        _, speeds = ft_riemann(flux, 0.125, 0.375)
        assert speeds == [exact]

    def test_decreasing_jump_fans_into_grid_steps(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 2)
        states, speeds = ft_riemann(flux, 0.75, 0.0)
        assert states == [0.75, 0.5, 0.25, 0.0]
        assert speeds == [-0.25, 0.25, 0.75]

    def test_equal_states_produce_no_front(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 2)
        states, speeds = ft_riemann(flux, 0.5, 0.5)
        assert states == [0.5] and speeds == []

    @given(
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=16),
        st.floats(min_value=-1.0 / 3.0, max_value=1.0 / 3.0),
    )
    def test_speeds_strictly_increase(self, ka, kb, eps):
        flux = PiecewiseLinearFlux(EpsilonLaw(eps), 4)
        states, speeds = ft_riemann(flux, ka / 16.0, kb / 16.0)
        assert len(states) == len(speeds) + 1
        assert all(s2 > s1 for s1, s2 in zip(speeds, speeds[1:]))
        assert states[0] == ka / 16.0 and states[-1] == kb / 16.0


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

class TestEvolve:
    def test_two_shocks_merge(self):
        # speeds 1/2 and -1/4 meet at (t, x) = (2/3, 1/3); the merged jump
        # from 0 to 3/4 travels at the chord slope 1/4
        datum = PiecewiseConstant([0.0, 0.5], [0.0, 0.5, 0.75])
        sol = ft_evolve(from_datum(Greenshields(1.0), datum, 2), 1.0)
        assert len(sol.collisions) == 1
        t_hit, x_hit, rho_l, rho_r = sol.collisions[0]
        assert t_hit == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert x_hit == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert (rho_l, rho_r) == (0.0, 0.75)
        assert sol.final.n_fronts == 1
        assert sol.final.speeds[0] == 0.25
        assert sol.sample(1.0, 5.0 / 12.0 - 1e-9) == 0.0
        assert sol.sample(1.0, 5.0 / 12.0 + 1e-9) == 0.75

    def test_variation_and_front_count_never_grow(self):
        datum = PiecewiseConstant(
            [0.0, 0.5, 1.0, 1.5], [0.125, 0.875, 0.25, 0.75, 0.375]
        )
        sol = ft_evolve(from_datum(Greenshields(1.0), datum, 3), 4.0)
        assert len(sol.epochs) > 1
        for before, after in zip(sol.epochs, sol.epochs[1:]):
            assert after.tv() <= before.tv() + 1e-12
            assert after.n_fronts <= before.n_fronts
        lo, hi = sol.final.range()
        assert lo >= 0.0 and hi <= 1.0

    def test_mass_balance_in_a_window_containing_all_fronts(self):
        datum = PiecewiseConstant([0.0, 0.5], [0.0, 0.5, 0.75])
        state0 = from_datum(Greenshields(1.0), datum, 2)
        sol = ft_evolve(state0, 1.0)
        a, b = -1.0, 2.0
        flux = state0.flux
        influx = flux.values[flux.index_of(0.0)]
        outflux = flux.values[flux.index_of(0.75)]
        for t in (0.25, 0.5, 0.75, 1.0):
            state = sol.state_at(t)
            assert np.min(state.positions(t)) > a
            assert np.max(state.positions(t)) < b
            expected = window_mass(state0, 0.0, a, b) + t * (influx - outflux)
            assert window_mass(state, t, a, b) == pytest.approx(expected, abs=1e-10)

    def test_refining_the_grid_halves_the_fan_error(self):
        # single decreasing jump: compare against the exact rarefaction
        law = Greenshields(1.0)
        exact = solve_riemann(law, 0.75, 0.0)
        x = np.linspace(-2.0, 2.0, 8001)
        mid = 0.5 * (x[1:] + x[:-1])
        dx = x[1] - x[0]
        errors = {}
        for n in (4, 6):
            datum = PiecewiseConstant([0.0], [0.75, 0.0])
            sol = ft_evolve(from_datum(law, datum, n), 1.0)
            approx = sol.sample(1.0, mid)
            errors[n] = float(np.sum(np.abs(approx - exact.sample(mid))) * dx)
        assert errors[4] <= 4.0 * 2.0 ** -4
        assert errors[6] <= 4.0 * 2.0 ** -6
        assert errors[4] / errors[6] >= 2.0

    def test_constant_datum_stays_constant(self):
        sol = ft_evolve(from_datum(Greenshields(1.0), PiecewiseConstant([], [0.5]), 2), 3.0)
        assert sol.final.n_fronts == 0
        assert sol.sample(2.0, 0.0) == 0.5

    def test_time_range_validated(self):
        state = from_datum(Greenshields(1.0), PiecewiseConstant([], [0.5]), 2)
        with pytest.raises(DomainError):
            ft_evolve(state, -1.0)
        sol = ft_evolve(state, 1.0)
        with pytest.raises(DomainError):
            sol.state_at(2.0)

    def test_nan_horizon_rejected_before_any_work(self, monkeypatch):
        datum = PiecewiseConstant([0.0, 0.5], [0.0, 0.5, 0.75])
        state = from_datum(Greenshields(1.0), datum, 2)
        monkeypatch.setattr(fronttrack, "_next_collision_time", None)  # no work done
        with pytest.raises(DomainError, match="got nan"):
            ft_evolve(state, float("nan"))

    def test_infinite_horizon_stops_once_no_fronts_approach(self):
        datum = PiecewiseConstant([0.0, 0.5], [0.0, 0.5, 0.75])
        sol = ft_evolve(from_datum(Greenshields(1.0), datum, 2), float("inf"))
        assert sol.t_end == float("inf")
        assert len(sol.epochs) == 2  # the one collision, then fronts that part
        assert sol.final is sol.state_at(1e6)

    def test_state_at_picks_the_epoch_in_force(self):
        datum = PiecewiseConstant([0.0, 0.5], [0.0, 0.5, 0.75])
        sol = ft_evolve(from_datum(Greenshields(1.0), datum, 2), 1.0)
        first, merged = sol.epochs
        assert sol.state_at(0.0) is first
        assert sol.state_at(merged.time - 1e-9) is first
        assert sol.state_at(merged.time) is merged
        assert sol.state_at(1.0) is merged


# ---------------------------------------------------------------------------
# Collision resolution against the per-front loop
# ---------------------------------------------------------------------------

def reference_resolve_collisions(state, t_hit, cluster_sizes):
    """Per-front reference for ``fronttrack._resolve_collisions``: walks the
    fronts one by one, growing each cluster while the next neighbour lies
    within ``COLLISION_TOL``.  Records every cluster's front count."""
    pos = state.positions(t_hit)
    mono = np.maximum.accumulate(pos)
    if np.max(mono - pos) > 1e-9:
        raise FrontTrackError(f"front ordering broke down at t={t_hit}")
    pos = mono
    xs, vals, speeds = [], [state.vals[0]], []
    events = []
    i = 0
    while i < state.n_fronts:
        j = i
        while j + 1 < state.n_fronts and pos[j + 1] - pos[j] <= COLLISION_TOL:
            j += 1
        if j == i:
            xs.append(pos[i])
            vals.append(state.vals[i + 1])
            speeds.append(state.speeds[i])
        else:
            cluster_sizes.append(j - i + 1)
            x_c = pos[i]
            rho_l = state.vals[i]
            rho_r = state.vals[j + 1]
            events.append((t_hit, float(x_c), float(rho_l), float(rho_r)))
            states, fan = ft_riemann(state.flux, rho_l, rho_r)
            for s_mid, s_speed in zip(states[1:], fan):
                xs.append(x_c)
                vals.append(s_mid)
                speeds.append(s_speed)
        i = j + 1
    return FrontState(state.flux, t_hit, xs, vals, speeds), events


def random_dyadic_datum(seed, n, jumps):
    """Seeded datum with states on the ``2**-n`` grid and jumps on a 1/8
    lattice, where fronts often meet in clusters and at shared times."""
    rng = np.random.default_rng(seed)
    k = 2**n
    xs, values = [], [int(rng.integers(0, k + 1))]
    for x in np.sort(rng.choice(8 * jumps, size=jumps, replace=False)) / 8.0:
        v = int(rng.integers(0, k + 1))
        if v != values[-1]:
            xs.append(float(x))
            values.append(v)
    return PiecewiseConstant(xs, [v / k for v in values])


def assert_same_bits(a, b):
    assert a.time == b.time
    for name in ("xs", "vals", "speeds"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype == np.float64
        assert left.tobytes() == right.tobytes(), name


class TestCollisionResolution:
    @pytest.mark.parametrize("n", [3, 5])
    def test_matches_the_per_front_loop_bitwise(self, n, monkeypatch):
        sizes, shared_times = [], 0
        for seed in range(4):
            state0 = from_datum(Greenshields(1.0), random_dyadic_datum(seed, n, 30), n)
            fast = ft_evolve(state0, 4.0)
            with monkeypatch.context() as patch:
                patch.setattr(
                    fronttrack,
                    "_resolve_collisions",
                    lambda state, t_hit: reference_resolve_collisions(state, t_hit, sizes),
                )
                slow = ft_evolve(state0, 4.0)
            assert fast.collisions == slow.collisions
            assert len(fast.epochs) == len(slow.epochs)
            for a, b in zip(fast.epochs, slow.epochs):
                assert_same_bits(a, b)
            counts = Counter(event[0] for event in fast.collisions)
            shared_times += sum(1 for c in counts.values() if c > 1)
        # the data exercise clusters of three or more fronts and several
        # clusters resolved at one collision time
        assert max(sizes) >= 3
        assert shared_times > 0

    def test_two_pairs_meeting_at_once_give_two_fans(self):
        # shocks 0|1/4|1/2 and 1/2|3/4|1 close at speed 1/2 from gaps of
        # 1/2: both pairs meet at t = 1, at x = 3/4 and x = 7/4
        datum = PiecewiseConstant([0.0, 0.5, 2.0, 2.5], [0.0, 0.25, 0.5, 0.75, 1.0])
        sol = ft_evolve(from_datum(Greenshields(1.0), datum, 2), 1.5)
        assert sol.collisions == [(1.0, 0.75, 0.0, 0.5), (1.0, 1.75, 0.5, 1.0)]
        assert len(sol.epochs) == 2
        merged = sol.final
        assert merged.time == 1.0
        assert merged.xs.tolist() == [0.75, 1.75]
        assert merged.vals.tolist() == [0.0, 0.5, 1.0]
        assert merged.speeds.tolist() == [0.5, -0.5]


# ---------------------------------------------------------------------------
# Curves and the sampled line integral
# ---------------------------------------------------------------------------

class TestCurve:
    def test_linear_constructor_and_evaluation(self):
        curve = Curve.linear(0.0, 2.0, 1.0, 0.5)
        assert curve(0.0) == 1.0
        assert curve(2.0) == 2.0
        np.testing.assert_allclose(curve(np.array([0.5, 1.0])), [1.25, 1.5])

    def test_min_slope_over_spans(self):
        curve = Curve([0.0, 1.0, 2.0], [0.0, 1.0, 1.2])
        slope, at = curve.min_slope(0.0, 2.0)
        assert slope == pytest.approx(0.2)
        assert at == 1.0
        slope, _ = curve.min_slope(0.0, 0.5)
        assert slope == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            Curve([0.0], [0.0])
        with pytest.raises(DomainError):
            Curve([0.0, 0.0], [0.0, 1.0])
        curve = Curve.linear(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            curve(1.5)
        with pytest.raises(DomainError):
            curve.min_slope(2.0, 3.0)


class TestSampleCurveIntegral:
    @staticmethod
    def _solution(n=7, t_end=1.0):
        datum = PiecewiseConstant.from_blocks(0.125, [(0.0, 2.0, 0.375)])
        return ft_evolve(from_datum(Greenshields(1.0), datum, n), t_end)

    def test_hand_value_for_parallel_curves(self):
        # gamma1 rides inside the raised block (state 3/8) throughout; gamma2
        # starts 0.3 behind on the background 1/8 and crosses the leading
        # shock (speed 1/2) at t = 0.3 / (0.9 - 0.5) = 3/4.  The integrand is
        # 1/4 until then and 0 after: integral = (1/4)(3/4) = 3/16.
        sol = self._solution()
        gamma1 = Curve.linear(0.0, 1.0, 0.0, 0.9)
        gamma2 = Curve.linear(0.0, 1.0, -0.3, 0.9)
        value, bound = sample_curve_integral(sol, gamma1, gamma2, 0.14, 0.0, 1.0)
        assert value == pytest.approx(3.0 / 16.0, abs=1e-12)
        assert bound == pytest.approx(0.5 * 0.3 / 0.14)
        assert value <= bound

    def test_identical_curves_integrate_to_zero(self):
        sol = self._solution()
        gamma = Curve.linear(0.0, 1.0, 0.0, 0.9)
        value, _ = sample_curve_integral(
            sol, gamma, Curve.linear(0.0, 1.0, 0.0, 0.9), 0.14, 0.0, 1.0
        )
        assert value == 0.0

    def test_characteristic_speed_margin_enforced(self):
        sol = self._solution()
        gamma1 = Curve.linear(0.0, 1.0, 0.0, 0.9)
        gamma2 = Curve.linear(0.0, 1.0, -0.3, 0.9)
        with pytest.raises(FrontTrackError):
            sample_curve_integral(sol, gamma1, gamma2, 0.16, 0.0, 1.0)
        slow = Curve.linear(0.0, 1.0, 0.0, 0.5)
        with pytest.raises(FrontTrackError):
            sample_curve_integral(sol, slow, gamma2, 0.14, 0.0, 1.0)

    def test_argument_validation(self):
        sol = self._solution()
        gamma1 = Curve.linear(0.0, 1.0, 0.0, 0.9)
        gamma2 = Curve.linear(0.0, 1.0, -0.3, 0.9)
        with pytest.raises(DomainError):
            sample_curve_integral(sol, gamma1, gamma2, 0.14, 1.0, 0.5)
        with pytest.raises(DomainError):
            sample_curve_integral(sol, gamma1, gamma2, 0.0, 0.0, 1.0)

    def test_integral_respects_its_bound_on_varied_offsets(self):
        sol = self._solution()
        for offset in (-0.45, -0.2, -0.05):
            gamma1 = Curve.linear(0.0, 1.0, 0.1, 0.95)
            gamma2 = Curve.linear(0.0, 1.0, 0.1 + offset, 0.95)
            value, bound = sample_curve_integral(sol, gamma1, gamma2, 0.14, 0.0, 1.0)
            assert 0.0 <= value <= bound + 1e-12
