"""Wave front tracking: dyadic flux tables, collisions, curve integrals.

Hand-computed references use the quadratic flux table of the linear speed
law on coarse dyadic grids, where envelopes and collision times are exact
fractions.
"""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

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
    TabulatedLaw,
    from_datum,
    ft_evolve,
    sample_curve_integral,
    solve_riemann,
)
from probeflow import fronttrack
from probeflow.fronttrack import COLLISION_TOL, FrontState


#: A table whose speed is not monotone: its flux turns both ways.
NON_CONCAVE = TabulatedLaw([1.0, 0.2, 0.9, 0.1, 0.5, 0.0])

#: A tabulated law steeper between its knots than at the slope samples.
STEEP_TABLE = TabulatedLaw([0.513, 1.523, 1.425, 1.101, 1.252, 0.883, 0.486, 0.442])


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
        # 2.5 would round onto the non-dyadic grid {k * 2**-2.5}
        for n in (2.5, 3.0, math.nan, "3"):
            with pytest.raises(DomainError, match="must be an integer"):
                PiecewiseConstant([0.0], [0.3, 0.7]).quantize(n)


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

    def test_fan_speeds_are_difference_quotients(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 2)
        assert flux.fan(0.0, 0.25) == ((0.0, 0.25), (0.75,))
        assert flux.fan(0.25, 0.75) == ((0.25, 0.75), (0.0,))
        assert flux.fan(0.75, 1.0) == ((0.75, 1.0), (-0.75,))

    def test_off_grid_density_rejected(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 2)
        with pytest.raises(DomainError):
            flux.index_of(0.3)
        with pytest.raises(DomainError):
            flux.fan(0.25, 0.3)
        # the last four lie within 1e-12 of the grid: rho * 2**n is no integer
        near = (0.25 + 1e-13, 0.25 - 1e-13, math.nextafter(1.0, 0.0), 5e-324)
        for rho in (1.25, -0.25, math.nan, math.inf) + near:
            with pytest.raises(DomainError):
                flux.index_of(rho)
        for rho_r in (0.25, 0.5):
            with pytest.raises(DomainError):
                flux.fan(near[0], rho_r)

    def test_speed_bound_covers_adjacent_cells(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 2)
        assert flux.speed_bound(0.0, 1.0) == 0.75
        # the bound widens by one cell on each side of the density range
        assert flux.speed_bound(0.5, 0.75) == 0.25

    def test_speed_bound_rejects_nan_and_reversed_bounds(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 2)
        for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (0.75, 0.25), (-math.inf, 1.0)):
            with pytest.raises(DomainError):
                flux.speed_bound(lo, hi)

    def test_speed_bound_reads_the_tables_difference_quotients(self):
        for law in (Greenshields(1.7), EpsilonLaw(0.1), NON_CONCAVE):
            flux = PiecewiseLinearFlux(law, 5)
            slopes = np.diff(flux.values) * 2.0**5
            for k in range(33):
                for j in range(k, 33):
                    lo, hi = max(0, k - 1), min(32, j + 1)
                    assert flux.speed_bound(k / 32, j / 32) == np.max(slopes[lo:hi])

    def test_flux_is_shared_per_law_and_exponent_and_never_changes(self):
        datum = random_dyadic_datum(1, 5, 30)
        state = from_datum(Greenshields(1.0), datum, 5)
        flux = state.flux
        assert from_datum(Greenshields(1.0), PiecewiseConstant([], [0.5]), 5).flux is flux
        assert from_datum(Greenshields(1.0), datum, 6).flux is not flux
        # a direct construction builds a flux of its own
        assert PiecewiseLinearFlux(Greenshields(1.0), 5) is not flux
        arrays = [v for v in vars(flux).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 6 and not any(a.flags.writeable for a in arrays)
        before = dict(vars(flux))
        assert len(ft_evolve(state, 4.0).collisions) > 10
        assert vars(flux).keys() == before.keys()
        assert all(vars(flux)[name] is value for name, value in before.items())

    def test_unhashable_law_gets_its_own_table(self, plain_law):
        datum = PiecewiseConstant([0.0], [0.75, 0.25])
        a, b = from_datum(plain_law, datum, 3).flux, from_datum(plain_law, datum, 3).flux
        assert a is not b and a.values is not b.values
        np.testing.assert_array_equal(a.values, PiecewiseLinearFlux(Greenshields(1.0), 3).values)
        states, speeds = a.fan(0.75, 0.25)
        assert states == (0.75, 0.625, 0.5, 0.375, 0.25)
        assert speeds == (-0.375, -0.125, 0.125, 0.375)

    def test_grid_exponent_is_kept_and_must_be_positive(self):
        assert PiecewiseLinearFlux(EpsilonLaw(0.2), 4).n == 4
        with pytest.raises(DomainError):
            PiecewiseLinearFlux(Greenshields(1.0), 0)
        assert PiecewiseLinearFlux(Greenshields(1.0), np.int64(3)).n == 3
        # 1.5 would space the grid 2**-1.5 and run it past density 1
        for n in (1.5, 2.0, math.nan):
            with pytest.raises(DomainError, match="must be an integer"):
                PiecewiseLinearFlux(Greenshields(1.0), n)


class TestFan:
    def test_increasing_jump_with_concave_table_is_one_shock(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 3)
        assert flux.fan(0.125, 0.375) == ((0.125, 0.375), (0.5,))

    def test_shock_speed_matches_exact_chord(self):
        # grid states: the table interpolates the flux exactly there, so the
        # envelope chord is the true jump speed
        law = EpsilonLaw(0.2)
        flux = PiecewiseLinearFlux(law, 12)
        exact = solve_riemann(law, 0.125, 0.375).speed
        _, speeds = flux.fan(0.125, 0.375)
        assert speeds == (exact,)

    def test_decreasing_jump_fans_into_grid_steps(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 2)
        assert flux.fan(0.75, 0.0) == ((0.75, 0.5, 0.25, 0.0), (-0.25, 0.25, 0.75))

    def test_equal_states_produce_no_front(self):
        flux = PiecewiseLinearFlux(Greenshields(1.0), 2)
        assert flux.fan(0.5, 0.5) == ((0.5,), ())

    @given(
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=16),
        st.floats(min_value=-1.0 / 3.0, max_value=1.0 / 3.0),
    )
    def test_speeds_strictly_increase(self, ka, kb, eps):
        flux = PiecewiseLinearFlux(EpsilonLaw(eps), 4)
        states, speeds = flux.fan(ka / 16.0, kb / 16.0)
        assert len(states) == len(speeds) + 1
        assert all(s2 > s1 for s1, s2 in zip(speeds, speeds[1:]))
        assert states[0] == ka / 16.0 and states[-1] == kb / 16.0


def reference_fan(grid, values, ka, kb):
    """The Riemann fan between grid indices ``ka`` and ``kb`` by the
    monotone-chain loop over every table point between them: the lower
    convex envelope for ``ka < kb``, the upper concave one (the lower
    envelope of the negated table) for ``ka > kb``."""
    if ka == kb:
        return (grid[ka],), ()
    sign = 1.0 if ka < kb else -1.0
    lo, hi = sorted((ka, kb))
    hull = []
    for p in [(x, sign * y) for x, y in zip(grid[lo : hi + 1], values[lo : hi + 1])]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    if sign < 0:
        hull = [(x, -y) for (x, y) in reversed(hull)]
    speeds = tuple((y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    if any(s2 <= s1 for s1, s2 in zip(speeds, speeds[1:])):
        raise FrontTrackError("envelope produced non-increasing front speeds")
    return tuple(x for x, _ in hull), speeds


def outcome(build, *args):
    """``repr`` of what ``build(*args)`` returns, so that signed zeros
    count, or the type of the error it raises."""
    try:
        return repr(build(*args))
    except Exception as exc:  # the error type is compared
        return type(exc)


def assert_fans_match_reference(law, n):
    flux = PiecewiseLinearFlux(law, n)
    grid, values = flux.grid.tolist(), flux.values.tolist()
    for ka, rho_l in enumerate(grid):
        for kb, rho_r in enumerate(grid):
            assert outcome(flux.fan, rho_l, rho_r) == outcome(
                reference_fan, grid, values, ka, kb
            ), (law, n, ka, kb)


class TestFanMatchesReference:
    """The table's fans are bit for bit those of the monotone-chain loop,
    whichever of the table slices, the chord or the loop builds them."""

    @pytest.mark.parametrize(
        "law",
        [
            Greenshields(1.0),
            Greenshields(1.7),
            EpsilonLaw(-1.0 / 3.0),
            EpsilonLaw(0.1),
            EpsilonLaw(1.0 / 3.0),
            STEEP_TABLE,
            NON_CONCAVE,
        ],
        ids=repr,
    )
    def test_every_ordered_pair(self, law, monkeypatch):
        loop, loops = fronttrack._envelope_fan, []

        def counted(*args):
            loops.append(args[2:])
            return loop(*args)

        monkeypatch.setattr(fronttrack, "_envelope_fan", counted)
        for n in range(1, 7):
            assert_fans_match_reference(law, n)
        # concave tables never need the loop; a table that turns both ways
        # does, and the comparison above covers that path too
        assert bool(loops) == (law is NON_CONCAVE or law is STEEP_TABLE)

    @given(
        st.lists(
            st.one_of(st.integers(0, 8).map(lambda k: k / 4.0), st.floats(0.0, 2.0)),
            min_size=2,
            max_size=9,
        ),
        st.integers(1, 4),
    )
    def test_random_tables(self, speeds, n):
        assert_fans_match_reference(TabulatedLaw(speeds), n)


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
        assert sol.epochs[-1].n_fronts == 1
        assert sol.epochs[-1].speeds[0] == 0.25
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
        lo, hi = sol.epochs[-1].range()
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
        assert sol.epochs[-1].n_fronts == 0
        assert sol.sample(2.0, 0.0) == 0.5

    def test_time_range_validated(self):
        state = from_datum(Greenshields(1.0), PiecewiseConstant([], [0.5]), 2)
        with pytest.raises(DomainError):
            ft_evolve(state, -1.0)
        sol = ft_evolve(state, 1.0)
        with pytest.raises(DomainError):
            sol.state_at(2.0)
        with pytest.raises(DomainError):
            sol.sample(float("nan"), 0.0)

    def test_state_refuses_times_before_its_own(self):
        # the shock 1/8 | 3/8 at speed 1/2 would be extrapolated backwards
        state = from_datum(Greenshields(1.0), PiecewiseConstant([0.0], [0.125, 0.375]), 3)
        with pytest.raises(DomainError, match="before the state's"):
            state.sample(-1.0, -0.4)
        with pytest.raises(DomainError, match="before the state's"):
            state.positions(-1.0)
        assert state.sample(0.0, -0.4) == 0.125
        assert state.positions(2.0).tolist() == [1.0]
        # the solution keeps state_at's margin of 1e-12 before its start
        sol = ft_evolve(state, 1.0)
        assert sol.sample(-1e-13, -1e-12) == 0.125 and sol.sample(-1e-13, 0.0) == 0.375
        with pytest.raises(DomainError):
            sol.sample(-1e-11, 0.0)

    def test_nan_position_rejected_by_the_solution_sampler(self):
        # NaN sorts last, so a search alone would answer the right state
        state = from_datum(Greenshields(1.0), PiecewiseConstant([0.0], [0.25, 0.75]), 3)
        sol = ft_evolve(state, 1.0)
        for x in (math.nan, np.array([0.0, math.nan])):
            with pytest.raises(DomainError, match="NaN"):
                sol.sample(0.5, x)
        assert sol.sample(0.5, -math.inf) == 0.25 and sol.sample(0.5, math.inf) == 0.75

    def test_nan_coordinate_rejected_by_the_state_sampler(self):
        state = from_datum(Greenshields(1.0), PiecewiseConstant([0.0], [0.25, 0.75]), 3)
        for t, x in ((0.5, math.nan), (math.nan, 0.0), (0.5, np.array([math.nan, 0.0]))):
            with pytest.raises(DomainError, match="NaN"):
                state.sample(t, x)
        np.testing.assert_array_equal(state.sample(0.5, [-math.inf, math.inf]), [0.25, 0.75])

    def test_nan_horizon_rejected_before_any_work(self, monkeypatch):
        datum = PiecewiseConstant([0.0, 0.5], [0.0, 0.5, 0.75])
        state = from_datum(Greenshields(1.0), datum, 2)
        monkeypatch.setattr(fronttrack, "_FrontLog", None)  # no work done
        with pytest.raises(DomainError, match="got nan"):
            ft_evolve(state, float("nan"))

    def test_a_fan_that_raises_total_variation_is_rejected(self, monkeypatch):
        datum = PiecewiseConstant([0.0, 0.5], [0.0, 0.5, 0.75])
        state = from_datum(Greenshields(1.0), datum, 2)
        # the two shocks' merger (variation 3/4) answered by a fan that
        # overshoots and comes back (variation 7/4)
        monkeypatch.setattr(
            PiecewiseLinearFlux,
            "fan",
            lambda flux, rho_l, rho_r: ((0.0, 0.75, 0.25, 0.75), (-0.5, 0.0, 0.5)),
        )
        with pytest.raises(FrontTrackError, match="raises total variation from 0.75 to 1.75"):
            ft_evolve(state, 1.0)

    def test_a_collision_may_add_fronts_under_a_non_convex_table(self):
        # the fronts 33/256 -> 37/256 -> 36/256 meet, and the Riemann
        # problem 33/256 -> 36/256 of the steep table has three fronts
        datum = PiecewiseConstant([0.0, 0.01], [33 / 256, 37 / 256, 36 / 256])
        sol = ft_evolve(from_datum(STEEP_TABLE, datum, 8), 1.0)
        assert [e.n_fronts for e in sol.epochs] == [2, 3]
        assert sol.epochs[-1].vals.tolist() == [33 / 256, 34 / 256, 35 / 256, 36 / 256]

    def test_a_non_convex_table_tracks_the_oracle_datum_without_raising_variation(
        self, load_perfbench
    ):
        datum = load_perfbench("workloads").oracle_datum(7)
        sol = ft_evolve(from_datum(STEEP_TABLE, datum, 8), 2.0)
        counts = [e.n_fronts for e in sol.epochs]
        assert any(b > a for a, b in zip(counts, counts[1:]))  # fronts were added
        tv = [np.abs(np.diff(e.vals)).sum() for e in sol.epochs]
        assert len(tv) > 800
        assert all(b <= a for a, b in zip(tv, tv[1:]))

    def test_infinite_horizon_stops_once_no_fronts_approach(self):
        datum = PiecewiseConstant([0.0, 0.5], [0.0, 0.5, 0.75])
        sol = ft_evolve(from_datum(Greenshields(1.0), datum, 2), float("inf"))
        assert sol.t_end == float("inf")
        assert len(sol.epochs) == 2  # the one collision, then fronts that part
        assert sol.epochs[-1] is sol.state_at(1e6)

    def test_state_at_picks_the_epoch_in_force(self):
        datum = PiecewiseConstant([0.0, 0.5], [0.0, 0.5, 0.75])
        sol = ft_evolve(from_datum(Greenshields(1.0), datum, 2), 1.0)
        first, merged = sol.epochs
        for t, epoch in ((0.0, first), (merged.time - 1e-9, first),
                         (merged.time, merged), (1.0, merged)):
            state = sol.state_at(t)
            assert state.time == epoch.time
            for name in ("xs", "vals", "speeds"):
                assert getattr(state, name).tobytes() == getattr(epoch, name).tobytes()


# ---------------------------------------------------------------------------
# The event loop against the array reference
# ---------------------------------------------------------------------------

def reference_evolve(state, t_end, cluster_sizes=None):
    """The array-based epoch loop that the event loop replaced: at each
    collision time it rescans every adjacent pair, advances every front and
    stores a full copy of all fronts.  Returns ``(epochs, collisions)`` and
    appends every resolved cluster's front count to ``cluster_sizes``."""
    epochs, collisions = [state], []
    for _ in range(100_000):
        current = epochs[-1]
        t_hit = reference_next_collision_time(current)
        if t_hit >= t_end:
            return epochs, collisions
        next_state, events = reference_resolve_collisions(current, t_hit, cluster_sizes)
        if next_state.n_fronts > current.n_fronts:
            raise FrontTrackError(f"front count grew at t={t_hit}")
        collisions.extend(events)
        epochs.append(next_state)
    raise FrontTrackError("reference loop did not terminate")


def reference_next_collision_time(state):
    """Earliest time at which an adjacent pair of fronts meets."""
    if state.n_fronts < 2:
        return float("inf")
    gap = np.diff(state.xs)
    closing = state.speeds[:-1] - state.speeds[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_c = np.where(closing > 0.0, state.time + gap / closing, float("inf"))
    return float(np.min(t_c))


def reference_resolve_collisions(state, t_hit, cluster_sizes=None):
    """Advance every front to ``t_hit`` and replace each maximal run of
    fronts within :data:`COLLISION_TOL` of each other by the fan of its
    outermost states; the fronts between runs are carried over as slices."""
    pos = state.positions(t_hit)
    mono = np.maximum.accumulate(pos)
    if np.max(mono - pos) > 1e-9:
        raise FrontTrackError(f"front ordering broke down at t={t_hit}")
    pos = mono
    clusters = []
    for k in np.flatnonzero(np.diff(pos) <= COLLISION_TOL).tolist():
        if clusters and clusters[-1][1] == k:
            clusters[-1][1] = k + 1
        else:
            clusters.append([k, k + 1])
    xs, vals, speeds = [], [state.vals[:1]], []
    events = []
    done = 0
    for i, j in clusters:
        if cluster_sizes is not None:
            cluster_sizes.append(j - i + 1)
        x_c = pos[i]
        rho_l = state.vals[i]
        rho_r = state.vals[j + 1]
        events.append((t_hit, float(x_c), float(rho_l), float(rho_r)))
        states, fan = state.flux.fan(rho_l, rho_r)
        xs += [pos[done:i], np.full(len(fan), x_c)]
        vals += [state.vals[done + 1 : i + 1], states[1:]]
        speeds += [state.speeds[done:i], fan]
        done = j + 1
    xs.append(pos[done:])
    vals.append(state.vals[done + 1 :])
    speeds.append(state.speeds[done:])
    parts = (np.concatenate(xs), np.concatenate(vals), np.concatenate(speeds))
    return FrontState(state.flux, t_hit, *parts), events


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


def assert_matches_reference(state0, t_end, cluster_sizes=None):
    """The event loop's epochs and collisions against the array reference.

    The states and speeds are exact dyadic values and difference quotients,
    so they, the epoch count and the collisions per epoch must agree bit
    for bit.  Times and positions may differ by roundoff: the event loop
    computes every position once from the front's birth, while the
    reference re-bases all positions at every epoch.  So a collision within
    that roundoff of ``t_end`` may fall on either side of it: those are
    left out of the comparison."""
    sol = ft_evolve(state0, t_end)
    epochs, collisions = reference_evolve(state0, t_end, cluster_sizes)
    cut = t_end - 1e-9
    ours_all = [e for e in sol.epochs if e.time < cut]
    epochs = [e for e in epochs if e.time < cut]
    collisions = [c for c in collisions if c[0] < cut]
    assert len(ours_all) == len(epochs)
    for ours, ref in zip(ours_all, epochs):
        assert ours.time == pytest.approx(ref.time, abs=1e-9)
        for name in ("vals", "speeds"):
            assert getattr(ours, name).tobytes() == getattr(ref, name).tobytes(), name
        np.testing.assert_allclose(ours.xs, ref.xs, rtol=0.0, atol=1e-9)
    per_epoch = Counter(c[0] for c in sol.collisions)
    ref_per_epoch = Counter(c[0] for c in collisions)
    assert [per_epoch[e.time] for e in ours_all[1:]] == [
        ref_per_epoch[e.time] for e in epochs[1:]
    ]
    ours_collisions = [c for c in sol.collisions if c[0] < cut]
    assert [c[2:] for c in ours_collisions] == [c[2:] for c in collisions]
    for ours, ref in zip(ours_collisions, collisions):
        assert ours[:2] == pytest.approx(ref[:2], abs=1e-9)
    return sol


class TestEventLoop:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([3, 5]),
        st.integers(min_value=1, max_value=30),
    )
    def test_matches_the_array_reference(self, seed, n, jumps):
        # on these grids and up to 30 jumps the reference's re-based
        # positions stay well inside COLLISION_TOL; on finer grids or with
        # more collisions their drift can reach it and split a meeting that
        # is simultaneous in exact arithmetic (TestExactArithmetic has one)
        datum = random_dyadic_datum(seed, n, jumps)
        assert_matches_reference(from_datum(Greenshields(1.0), datum, n), 4.0)

    @pytest.mark.parametrize("n", [3, 5])
    def test_seeded_clusters_and_shared_times_match(self, n):
        sizes, shared_times = [], 0
        for seed in range(4):
            state0 = from_datum(Greenshields(1.0), random_dyadic_datum(seed, n, 30), n)
            sol = assert_matches_reference(state0, 4.0, sizes)
            counts = Counter(event[0] for event in sol.collisions)
            shared_times += sum(1 for c in counts.values() if c > 1)
        # the data exercise clusters of three or more fronts and several
        # clusters resolved at one collision time
        assert max(sizes) >= 3
        assert shared_times > 0

    def test_epochs_are_a_read_only_sequence(self):
        state0 = from_datum(Greenshields(1.0), random_dyadic_datum(1, 5, 30), 5)
        sol = ft_evolve(state0, 4.0)
        epochs, _ = reference_evolve(state0, 4.0)
        n = len(sol.epochs)
        assert n == len(epochs) > 10
        assert sol.epochs[0].vals.tobytes() == state0.vals.tobytes()
        assert sol.epochs[-1].time == sol.epochs[n - 1].time
        picked = sol.epochs[2:9:3]
        assert [e.time for e in picked] == [sol.epochs[k].time for k in (2, 5, 8)]
        assert [e.n_fronts for e in sol.epochs] == [e.n_fronts for e in epochs]
        with pytest.raises(IndexError):
            sol.epochs[n]
        with pytest.raises(IndexError):
            sol.epochs[-n - 1]
        with pytest.raises(TypeError):
            sol.epochs[0] = epochs[0]

    def test_a_run_builds_each_fan_once(self, monkeypatch, load_perfbench):
        # the benchmark's seeded 50-jump datum on the 2**-8 grid
        datum = load_perfbench("workloads").oracle_datum(7)
        state = from_datum(Greenshields(1.0), datum, 8)
        fan, calls = PiecewiseLinearFlux.fan, []

        def counted(flux, rho_l, rho_r):
            calls.append((rho_l, rho_r))
            return fan(flux, rho_l, rho_r)

        monkeypatch.setattr(PiecewiseLinearFlux, "fan", counted)
        sol = ft_evolve(state, 2.0)
        pairs = [c[2:] for c in sol.collisions]
        assert len(pairs) > len(set(pairs))  # the datum repeats pairs
        assert sorted(calls) == sorted(set(pairs))
        # the fans do not outlive the run: a second run builds its own
        ft_evolve(state, 2.0)
        assert Counter(calls) == {pair: 2 for pair in set(pairs)}

    def test_two_pairs_meeting_at_once_give_two_fans(self):
        # shocks 0|1/4|1/2 and 1/2|3/4|1 close at speed 1/2 from gaps of
        # 1/2: both pairs meet at t = 1, at x = 3/4 and x = 7/4
        datum = PiecewiseConstant([0.0, 0.5, 2.0, 2.5], [0.0, 0.25, 0.5, 0.75, 1.0])
        sol = ft_evolve(from_datum(Greenshields(1.0), datum, 2), 1.5)
        assert sol.collisions == [(1.0, 0.75, 0.0, 0.5), (1.0, 1.75, 0.5, 1.0)]
        assert len(sol.epochs) == 2
        merged = sol.epochs[-1]
        assert merged.time == 1.0
        assert merged.xs.tolist() == [0.75, 1.75]
        assert merged.vals.tolist() == [0.0, 0.5, 1.0]
        assert merged.speeds.tolist() == [0.5, -0.5]


def exact_collisions(state0, t_end):
    """The collisions ``(t, x, rho_l, rho_r)`` of the array reference's
    algorithm in exact rational arithmetic, from the float inputs (initial
    positions, and the fan speeds as floats)."""
    tol = Fraction(COLLISION_TOL)
    t = Fraction(state0.time)
    xs = [Fraction(x) for x in state0.xs.tolist()]
    speeds = [Fraction(s) for s in state0.speeds.tolist()]
    vals = state0.vals.tolist()
    events = []
    while True:
        hits = [
            t + (xs[i + 1] - xs[i]) / (speeds[i] - speeds[i + 1])
            for i in range(len(xs) - 1)
            if speeds[i] > speeds[i + 1]
        ]
        if not hits or min(hits) >= t_end:
            return events
        t_hit = min(hits)
        xs = [x + s * (t_hit - t) for x, s in zip(xs, speeds)]
        t = t_hit
        new_xs, new_speeds, new_vals = [], [], [vals[0]]
        i = 0
        while i < len(xs):
            j = i
            while j + 1 < len(xs) and xs[j + 1] - xs[j] <= tol:
                j += 1
            if j == i:
                new_xs.append(xs[i])
                new_speeds.append(speeds[i])
                new_vals.append(vals[i + 1])
            else:
                events.append((t, xs[i], vals[i], vals[j + 1]))
                states, fan = state0.flux.fan(vals[i], vals[j + 1])
                new_xs += [xs[i]] * len(fan)
                new_speeds += [Fraction(s) for s in fan]
                new_vals += states[1:]
            i = j + 1
        xs, speeds, vals = new_xs, new_speeds, new_vals


def worst_error(collisions, exact, t_end):
    """Largest time or position error of ``collisions`` against the exact
    ones, ``inf`` when their sequence of states differs.  Collisions within
    1e-9 of ``t_end`` are left out (roundoff decides their side)."""
    cut = t_end - 1e-9
    collisions = [c for c in collisions if c[0] < cut]
    exact = [c for c in exact if c[0] < cut]
    if [c[2:] for c in collisions] != [c[2:] for c in exact]:
        return math.inf
    return max(
        (max(abs(Fraction(c[0]) - e[0]), abs(Fraction(c[1]) - e[1]))
         for c, e in zip(collisions, exact)),
        default=0.0,
    )


class TestExactArithmetic:
    # (seed, n, jumps); on the last datum about 130 epochs of re-based
    # positions put the reference 1.5e-12 off in time, past COLLISION_TOL,
    # and it splits an exact three-front meeting at t = 40/13 in two.  Both
    # trackers' roundoff can reach COLLISION_TOL on long runs: over 2 700
    # seeded data the reference split such meetings in 26 and the event
    # loop in one (seed 265, n = 7, 60 jumps, at t = 168/53)
    @pytest.mark.parametrize(
        "seed, n, jumps", [(0, 3, 30), (1, 5, 30), (2, 5, 30), (3, 3, 30), (44, 5, 60)]
    )
    def test_event_loop_is_no_farther_from_exact_than_the_reference(self, seed, n, jumps):
        state0 = from_datum(Greenshields(1.0), random_dyadic_datum(seed, n, jumps), n)
        exact = exact_collisions(state0, 4.0)
        assert len(exact) > 10
        ours = worst_error(ft_evolve(state0, 4.0).collisions, exact, 4.0)
        reference = worst_error(reference_evolve(state0, 4.0)[1], exact, 4.0)
        assert ours <= reference
        assert ours < 1e-12


class TestFrontLogMemory:
    def test_retained_size_grows_with_logged_fronts(self):
        # 30 blocks on a 2**-7 grid: a thousand fronts and 732 collisions,
        # over which a copy of every front per collision would hold 24 B
        # (position, state, speed) times 468 387 front updates
        rng = np.random.default_rng(11)
        blocks = [
            (i + 0.1, i + 0.1 + float(rng.uniform(0.3, 0.7)), int(rng.integers(32, 65)) / 128)
            for i in range(30)
        ]
        datum = PiecewiseConstant.from_blocks(16 / 128, blocks)
        state0 = from_datum(Greenshields(1.0), datum, 7)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sol = ft_evolve(state0, 8.0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        snapshots = 24 * sum(e.n_fronts for e in sol.epochs)
        assert len(sol.collisions) > 500
        assert retained < 400 * len(sol.log)
        assert retained < snapshots / 10


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
        assert type(slope) is float and type(at) is float
        slope, _ = curve.min_slope(0.0, 0.5)
        assert slope == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            Curve([0.0], [0.0])
        with pytest.raises(DomainError):
            Curve([0.0, 0.0], [0.0, 1.0])
        for ts, xs in (([0.0, math.nan], [0.0, 1.0]), ([0.0, 1.0], [0.0, math.inf])):
            with pytest.raises(DomainError, match="must be finite"):
                Curve(ts, xs)
        curve = Curve.linear(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            curve(1.5)
        with pytest.raises(DomainError):
            curve.min_slope(2.0, 3.0)
        # the open interval (1/2, 1/2) holds no span
        with pytest.raises(DomainError, match="need t0 < t1"):
            curve.min_slope(0.5, 0.5)

    def test_nan_time_rejected(self):
        curve = Curve.linear(0.0, 1.0, 0.0, 1.0)
        for t in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(DomainError):
                curve(t)
        with pytest.raises(DomainError):
            curve.min_slope(math.nan, 1.0)
        assert curve(np.array([])).shape == (0,)


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
