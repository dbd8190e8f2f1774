"""Finite-volume machinery: grids, cell averages, CFL steps, full runs."""

import collections
import copy
import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeflow import (
    CFL_DEFAULT,
    CutoffProfile,
    DomainError,
    EpsilonLaw,
    ExogenousSpeed,
    FluxModel,
    Greenshields,
    Grid,
    ModelCoupled,
    PiecewiseConstant,
    ProbeTrajectory,
    SpeedLaw,
    StabilityError,
    TabulatedLaw,
    advance_probes,
    boundary_flux_rates,
    cfl_dt,
    eval_encoded_speed,
    eval_flux,
    get_scenario,
    harmonic_speed,
    init_field,
    l1_distance,
    lxf_step,
    resolve_probe_speeds,
    run,
    solve_riemann,
    trace_density,
)
from probeflow import fvsolver
from probeflow import model as model_module
from probeflow.fvsolver import _ghost_buffer, _ghosted_flux, _lxf_update
from probeflow.model import _stacked_weights


def quarter_grid():
    return Grid.from_extent(0.0, 1.0, 0.25)


class TestGrid:
    def test_from_extent(self):
        grid = quarter_grid()
        assert grid.n_cells == 4
        assert grid.dx == 0.25
        np.testing.assert_allclose(grid.edges, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(grid.centers, [0.125, 0.375, 0.625, 0.875])

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid.from_extent(0.0, 1.0, 0.3)  # not a whole number of cells
        with pytest.raises(DomainError):
            Grid.from_extent(0.0, 1.0, -0.1)
        with pytest.raises(DomainError):
            Grid.from_extent(0.0, 1.0, 0.5)  # only 2 cells
        with pytest.raises(DomainError):
            Grid(x_min=1.0, x_max=0.0, n_cells=8)

    @pytest.mark.parametrize(
        "build, fragment",
        [
            (lambda: Grid(-math.inf, math.inf, 10), "x_min must be finite, got -inf"),
            (lambda: Grid(0.0, math.nan, 10), "x_max must be finite, got nan"),
            (lambda: Grid(-1e308, 1e308, 10), "no finite number of cells"),
            (lambda: Grid(0.0, 1.0, 10.5), "n_cells must be an integer, got 10.5"),
            (lambda: Grid.from_extent(math.nan, 1.0, 0.1), "x_min must be finite, got nan"),
            (lambda: Grid.from_extent(0.0, math.inf, 0.1), "x_max must be finite, got inf"),
            (lambda: Grid.from_extent(-1e308, 1e308, 1e-300), "no finite number of cells"),
            (lambda: Grid.from_extent(0.0, 1.0, 1e-320), "no finite number of cells"),
            (lambda: Grid.from_extent(0.0, 1.0, math.inf), "dx must be finite, got inf"),
            (lambda: Grid.from_extent(1.0, 1.0, 0.1), "empty domain"),
        ],
        ids=[
            "infinite-ends",
            "nan-end",
            "extent-overflow",
            "fractional-cells",
            "extent-nan",
            "extent-inf",
            "extent-overflow-from-extent",
            "ratio-overflow",
            "dx-inf",
            "empty-from-extent",
        ],
    )
    def test_bad_inputs_are_domain_errors(self, build, fragment):
        with pytest.raises(DomainError, match=re.escape(fragment)):
            build()

    def test_integer_like_cell_counts_accepted(self):
        assert Grid(0.0, 1.0, np.int64(8)).dx == 0.125


class TestInitField:
    def test_straddling_cell_averages_the_overlap(self):
        field = init_field(quarter_grid(), PiecewiseConstant([0.3], [1.0, 0.0]))
        np.testing.assert_allclose(field, [1.0, 0.2, 0.0, 0.0], atol=1e-15)

    def test_jump_on_an_edge_splits_cleanly(self):
        field = init_field(quarter_grid(), PiecewiseConstant([0.25], [1.0, 0.0]))
        np.testing.assert_array_equal(field, [1.0, 0.0, 0.0, 0.0])

    def test_two_jumps_inside_one_cell(self):
        field = init_field(
            quarter_grid(), PiecewiseConstant([0.3, 0.35], [0.0, 1.0, 0.0])
        )
        np.testing.assert_allclose(field, [0.0, 0.2, 0.0, 0.0], atol=1e-15)

    def test_constant_pieces_copy_bitwise(self):
        value = 1.0 / 3.0
        field = init_field(quarter_grid(), PiecewiseConstant([], [value]))
        assert np.all(field == value)

    def test_block_list_form(self):
        datum = PiecewiseConstant.from_blocks(0.5, [(0.25, 0.5, 1.0)])
        field = init_field(quarter_grid(), datum)
        np.testing.assert_array_equal(field, [0.5, 1.0, 0.5, 0.5])


class TestL1Distance:
    def test_hand_value(self):
        grid = quarter_grid()
        a = np.array([0.0, 0.5, 1.0, 0.25])
        b = np.array([0.0, 0.25, 0.5, 0.25])
        assert l1_distance(grid, a, b) == 0.25 * 0.75

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            l1_distance(quarter_grid(), np.zeros(4), np.zeros(5))


class TestTraceDensity:
    def test_sides(self):
        grid = quarter_grid()
        field = np.array([0.1, 0.2, 0.3, 0.4])
        assert trace_density(grid, field, 0.2, "right") == 0.2
        assert trace_density(grid, field, 0.2, "left") == 0.1
        # a probe exactly on a centre reads that cell from either side
        assert trace_density(grid, field, 0.375, "right") == 0.2
        assert trace_density(grid, field, 0.375, "left") == 0.2

    def test_clamped_at_domain_ends(self):
        grid = quarter_grid()
        field = np.array([0.1, 0.2, 0.3, 0.4])
        assert trace_density(grid, field, -5.0, "right") == 0.1
        assert trace_density(grid, field, -5.0, "left") == 0.1
        assert trace_density(grid, field, 5.0, "right") == 0.4
        assert trace_density(grid, field, 5.0, "left") == 0.4

    def test_bad_side(self):
        with pytest.raises(DomainError):
            trace_density(quarter_grid(), np.zeros(4), 0.5, "middle")

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_nan_position_rejected(self, side):
        # searchsorted sorts NaN last, so the read was the last cell
        with pytest.raises(DomainError, match="probe position must not be NaN"):
            trace_density(quarter_grid(), np.array([0.1, 0.2, 0.3, 0.4]), math.nan, side)


#: The density range of a field holding every density.
FULL = (0.0, 1.0)


class TestCflDt:
    def test_probe_free_linear_law(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        assert cfl_dt(model, grid, model.probe_states(0.0), FULL) == CFL_DEFAULT * grid.dx

    @pytest.mark.parametrize(
        "rho_range, slope",
        [((0.3, 0.7), 0.40625), ((0.5, 0.5), 0.0), ((0.5, 0.51), 0.03125), ((0.0, 0.2), 1.0)],
        ids=["around-half", "at-half", "just-above-half", "near-empty"],
    )
    def test_probe_free_linear_law_over_a_range(self, rho_range, slope):
        # |f'| = |1 - 2 rho| on the range snapped outward to multiples of
        # 1/64: [0.296875, 0.703125], [0.5, 0.5], [0.5, 0.515625], [0, 0.203125]
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        want = CFL_DEFAULT * grid.dx / max(slope, 1e-10)
        assert cfl_dt(model, grid, (), rho_range) == pytest.approx(want, rel=1e-12)

    def test_quadratic_law_steepest_at_full_density(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=EpsilonLaw(1.0 / 3.0))
        # |f'(1)| = 4/3 dominates the probe-free characteristic speed
        assert cfl_dt(model, grid, model.probe_states(0.0), FULL) == pytest.approx(
            CFL_DEFAULT * grid.dx * 0.75, rel=1e-12
        )

    def test_moving_probe_halves_the_step(self):
        # inside the cutoff plateau the flux slope at full density doubles
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, 0.5),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        assert cfl_dt(model, grid, model.probe_states(0.0), FULL) == CFL_DEFAULT * grid.dx / 2.0

    @pytest.mark.parametrize(
        "speed, factor", [(0.0, 1.0), (1e-9, 0.5)], ids=["stopped", "creeping"]
    )
    def test_endpoint_slope_counts_only_moving_probes(self, speed, factor):
        # at rho = 1 a probe with any positive speed doubles the flux slope,
        # in a band the sampled scan misses; a stopped probe flattens it
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, speed),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        assert cfl_dt(model, grid, ((0.5, speed),), FULL) == CFL_DEFAULT * grid.dx * factor

    @pytest.mark.parametrize("hi, slope", [(1.0, 2.0), (0.99, 2.0), (0.98, 0.984375)])
    def test_endpoint_slope_counts_only_ranges_reaching_full_density(self, hi, slope):
        # a creeping probe doubles the flux slope only in a band at rho = 1,
        # so the closed-form 2 |f'(1)| counts only if the range, snapped
        # outward to multiples of 1/64, reaches 1: 0.99 snaps to 1, 0.98 to
        # 63/64, where the law's |1 - 2 rho| is 0.96875 and the probe's
        # blend moves a density towards 1 by up to rho |H - v| / (1 - rho),
        # about 63/64 of dt / dx
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, 1e-9),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        dt = cfl_dt(model, grid, ((0.5, 1e-9),), (0.5, hi))
        assert dt == pytest.approx(CFL_DEFAULT * grid.dx / slope, rel=1e-6)

    def test_distant_probe_does_not_restrict(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(10.0, (ExogenousSpeed(0.0, None, 0.5),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        assert cfl_dt(model, grid, model.probe_states(0.0), FULL) == CFL_DEFAULT * grid.dx

    def test_non_finite_blended_slope_raises(self):
        # 2 w v overflows in the harmonic mean, so the sampled slopes are
        # NaN; max(S, nan) would keep S and let the step overshoot
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.5, (ModelCoupled(0.0, None),))
        model = FluxModel(speed_law=Greenshields(1e200), probes=(probe,))
        with np.errstate(all="ignore"), pytest.raises(StabilityError, match="not finite"):
            cfl_dt(model, grid, ((0.5, 1e200),), FULL)

    def test_cfl_number_validated(self):
        grid = quarter_grid()
        model = FluxModel(speed_law=Greenshields(1.0))
        with pytest.raises(DomainError):
            cfl_dt(model, grid, model.probe_states(0.0), FULL, cfl=0.0)
        with pytest.raises(DomainError):
            cfl_dt(model, grid, model.probe_states(0.0), FULL, cfl=1.5)

    @pytest.mark.parametrize("speed", [0.0, 0.2, 3.0])
    def test_a_probe_in_a_uniform_field_keeps_it_in_bounds(self, speed):
        # the range holds one density, where the law's slope is 0; the
        # probe's blend still moves the field, as the flux depends on x
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, speed),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        result = run(model, grid, PiecewiseConstant([], [0.5]), 0.5, n_snapshots=2)
        assert 0.0 < result.log[:, 4].min() and result.log[:, 5].max() < 1.0
        assert result.mass_balance_residual() <= 1e-14

    def test_a_probe_reaching_only_a_ghost_cell_counts(self):
        # the probe's support reaches the ghost cell beyond the last centre,
        # whose blended flux the last cell's update reads
        grid = Grid.from_extent(0.0, 1.0, 0.025)
        cutoff = CutoffProfile(0.03125, 0.046875)
        states = ((1.046875, 2.0),)
        probe = ProbeTrajectory(1.046875, (ExogenousSpeed(0.0, None, 2.0),))
        model = FluxModel(speed_law=Greenshields(1.0), cutoff=cutoff, probes=(probe,))
        field = np.zeros(grid.n_cells)
        field[-1] = 0.03125
        for rho_range in (FULL, (0.0, 0.03125)):
            dt = cfl_dt(model, grid, states, rho_range)
            assert dt < CFL_DEFAULT * grid.dx
            assert lxf_step(model, grid, states, field, dt).min() >= 0.0

    def test_nan_probe_position_rejected(self):
        # a NaN position is no place on the road: it was left out of the
        # bound, and the update then turned the probe into NaN densities
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, 0.3),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        with pytest.raises(DomainError, match="probe position must not be NaN"):
            cfl_dt(model, grid, ((math.nan, 0.3),), FULL)

    def test_a_steep_tables_bound_is_its_steepest_slope(self, monkeypatch):
        # on the first knot interval v = 0.513 + 7.07 rho, so the flux's
        # slope 0.513 + 14.14 rho reaches 2.533 at the knot 1/7, between
        # 21 even samples of [0, 1]; the run's step budget reads it too
        law = TabulatedLaw([0.513, 1.523, 1.425, 1.101, 1.252, 0.883, 0.486, 0.442])
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=law)
        dt = cfl_dt(model, grid, (), FULL)
        assert CFL_DEFAULT * grid.dx / dt == pytest.approx(2.533, rel=1e-12)
        # 0.0373 / dt is 10.5 steps: over MAX_STEPS = 10 at 2.533, not at 1.927
        monkeypatch.setattr(fvsolver, "MAX_STEPS", 10)
        with pytest.raises(DomainError, match="MAX_STEPS=10 steps"):
            fvsolver.check_run(model, grid, 0.0373, n_snapshots=2)

    @pytest.mark.parametrize(
        "rho_range",
        [(0.6, 0.4), (-0.1, 0.5), (0.5, 1.1), (math.nan, 0.5), (0.2, math.nan)],
        ids=["reversed", "below-0", "above-1", "nan-lo", "nan-hi"],
    )
    def test_density_range_validated(self, rho_range):
        grid = quarter_grid()
        model = FluxModel(speed_law=Greenshields(1.0))
        with pytest.raises(DomainError, match="density range must satisfy 0 <= lo <= hi <= 1"):
            cfl_dt(model, grid, (), rho_range)


class TestLxfStep:
    def test_uniform_field_is_a_bitwise_fixed_point(self):
        grid = Grid.from_extent(0.0, 1.0, 0.125)
        model = FluxModel(speed_law=Greenshields(1.0))
        field = np.full(grid.n_cells, 0.3)
        out = lxf_step(model, grid, model.probe_states(0.0), field, 0.9 * grid.dx)
        assert np.all(out == 0.3)

    def test_probe_at_law_speed_leaves_uniform_field_alone(self):
        grid = Grid.from_extent(0.0, 1.0, 0.125)
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, 0.5),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        field = np.full(grid.n_cells, 0.5)
        out = lxf_step(model, grid, model.probe_states(0.0), field, 0.4 * grid.dx)
        assert np.all(out == 0.5)

    def test_cfl_violation_raises(self):
        grid = Grid.from_extent(0.0, 1.0, 0.125)
        model = FluxModel(speed_law=Greenshields(1.0))
        field = init_field(grid, PiecewiseConstant([0.5], [0.1, 0.5]))
        with pytest.raises(StabilityError):
            lxf_step(model, grid, model.probe_states(0.0), field, 10.0 * grid.dx)

    def test_nan_in_the_field_raises(self):
        # a NaN density is outside [0, 1]: the flux rejects it like 1.2
        grid = Grid.from_extent(0.0, 1.0, 0.125)
        model = FluxModel(speed_law=Greenshields(1.0))
        field = np.full(grid.n_cells, 0.3)
        field[3] = math.nan
        with pytest.raises(DomainError, match="outside"):
            lxf_step(model, grid, model.probe_states(0.0), field, 0.5 * grid.dx)

    def test_nan_from_the_update_raises(self):
        # a finite field whose blended flux overflows: 2 w v is inf, and a
        # zero weight times inf is NaN, so the update holds NaN
        grid = Grid.from_extent(0.0, 1.0, 0.125)
        probe = ProbeTrajectory(0.5, (ModelCoupled(0.0, None),))
        model = FluxModel(speed_law=Greenshields(2.0), probes=(probe,))
        field = np.full(grid.n_cells, 0.3)
        with np.errstate(all="ignore"), pytest.raises(StabilityError, match="update left"):
            lxf_step(model, grid, ((0.5, 8e307),), field, 0.5 * grid.dx)

    @pytest.mark.parametrize("dx", [0.125, 0.0625])
    def test_the_update_warns_of_nothing_its_range_check_catches(self, dx):
        # the datum above: the blend's overflow still warns, from the
        # model; the update's own inf - inf (on the finer grid, where two
        # cells two apart carry an infinite flux) does not, and the error
        # state is left as it was found
        grid = Grid.from_extent(0.0, 1.0, dx)
        probe = ProbeTrajectory(0.5, (ModelCoupled(0.0, None),))
        model = FluxModel(speed_law=Greenshields(2.0), probes=(probe,))
        field = np.full(grid.n_cells, 0.3)
        before = np.geterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StabilityError, match="update left"):
                lxf_step(model, grid, ((0.5, 8e307),), field, 0.5 * grid.dx)
        assert np.geterr() == before
        assert [w.filename for w in caught if w.category is RuntimeWarning]
        assert not [w for w in caught if w.filename == fvsolver.__file__]

    def test_mass_change_matches_boundary_rates(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        field = init_field(grid, PiecewiseConstant([0.5], [0.1, 0.7]))
        dt = cfl_dt(model, grid, model.probe_states(0.0), (float(field.min()), float(field.max())))
        rate_in, rate_out = boundary_flux_rates(model, grid, model.probe_states(0.0), field)
        new = lxf_step(model, grid, model.probe_states(0.0), field, dt)
        change = grid.dx * (float(np.sum(new)) - float(np.sum(field)))
        assert change == pytest.approx(dt * (rate_in - rate_out), abs=1e-15)

    def test_boundary_rates_on_uniform_field(self):
        grid = quarter_grid()
        model = FluxModel(speed_law=Greenshields(1.0))
        rate_in, rate_out = boundary_flux_rates(
            model, grid, model.probe_states(0.0), np.full(4, 0.5)
        )
        assert rate_in == 0.25 and rate_out == 0.25


class TestProbeStepping:
    def test_coupled_probe_reads_the_trace_ahead(self):
        grid = quarter_grid()
        field = np.array([0.1, 0.2, 0.3, 0.4])
        probe = ProbeTrajectory(0.2, (ModelCoupled(0.0, None),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        speeds, traces = resolve_probe_speeds(model, grid, 0.0, field, [0.2])
        assert (speeds, traces) == ([0.8], [0.2])  # v(0.2) on the right trace

    def test_trace_side_left(self):
        grid = quarter_grid()
        field = np.array([0.1, 0.2, 0.3, 0.4])
        probe = ProbeTrajectory(0.2, (ModelCoupled(0.0, None),))
        model = FluxModel(
            speed_law=Greenshields(1.0), probes=(probe,), trace_side="left"
        )
        speeds, traces = resolve_probe_speeds(model, grid, 0.0, field, [0.2])
        assert (speeds, traces) == ([0.9], [0.1])

    def test_advance_records_pre_step_state(self):
        grid = quarter_grid()
        field = np.array([0.1, 0.2, 0.3, 0.4])
        probe = ProbeTrajectory(0.2, (ModelCoupled(0.0, None),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        speeds, _ = resolve_probe_speeds(model, grid, 0.0, field, [0.2])
        assert advance_probes(model, [0.2], speeds, 0.1, 0.1) == [0.2 + 0.8 * 0.1]
        result = run(model, grid, PiecewiseConstant([], [0.2]), 0.1, n_snapshots=2)
        np.testing.assert_array_equal(result.probe_path(0)[0], [0.0, 0.2, 0.8, 0.2])


class TestRun:
    @staticmethod
    def _bump_datum():
        return PiecewiseConstant.from_blocks(0.2, [(0.4, 0.6, 0.6)])

    @pytest.mark.parametrize("dx", [0.125, 0.0625])
    def test_an_overflowing_blend_raises_without_a_warning(self, dx, monkeypatch):
        # the datum of TestLxfStep.test_nan_from_the_update_raises, its
        # probe programmed to the overflowing speed
        grid = Grid.from_extent(0.0, 1.0, dx)
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, 8e307),))
        model = FluxModel(speed_law=Greenshields(2.0), probes=(probe,))
        datum = PiecewiseConstant([], [0.3])
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the CFL bound sees the overflow first
            with pytest.raises(StabilityError, match="slope is not finite"):
                run(model, grid, datum, 1.0)
            assert np.geterr() == before
            # past the bound, the blend overflows and the update holds NaN
            monkeypatch.setattr(fvsolver, "cfl_dt", lambda *args: 0.5 * grid.dx)
            with pytest.raises(StabilityError, match="update left"):
                run(model, grid, datum, 1.0)
        assert np.geterr() == before

    def test_snapshot_cadence_and_diagnostics(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        result = run(model, grid, self._bump_datum(), 0.2, n_snapshots=5)
        np.testing.assert_allclose([t for t, _ in result.snapshots], np.linspace(0.0, 0.2, 5))
        assert len(result.diagnostics) == len(result.log)
        assert result.diagnostics[-1][0] == len(result.diagnostics)
        assert result.diagnostics[-1][1] == pytest.approx(0.2)
        assert all(field.shape == (grid.n_cells,) for _, field in result.snapshots)

    def test_mass_conserved_with_matched_boundaries(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        result = run(model, grid, self._bump_datum(), 0.1, n_snapshots=2)
        assert np.abs(result.log[:, 3] - result.initial_mass).max() <= 1e-13

    def test_balance_residual_tracks_outflow(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        datum = PiecewiseConstant([0.5], [0.1, 0.7])
        result = run(model, grid, datum, 0.3, n_snapshots=2)
        # mass genuinely leaves
        assert np.abs(result.log[:, 3] - result.initial_mass).max() > 1e-4
        assert result.mass_balance_residual() <= 1e-13

    def test_nan_mass_is_reported_not_hidden(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        result = run(model, grid, self._bump_datum(), 0.05, n_snapshots=2)
        log = result.log.copy()
        log[0, 3] = math.nan
        poisoned = replace(result, log=log)
        assert math.isnan(poisoned.mass_balance_residual())

    def test_discrete_max_principle(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        result = run(model, grid, self._bump_datum(), 0.3, n_snapshots=2)
        for _, _, _, _, lo, hi in result.diagnostics:
            assert lo >= 0.2 - 1e-12
            assert hi <= 0.6 + 1e-12

    def test_probe_paths_recorded_on_the_result(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.3, (ExogenousSpeed(0.0, None, 0.4),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        result = run(model, grid, self._bump_datum(), 0.2, n_snapshots=2)
        assert len(result.probe_paths) == 1
        path = result.probe_path(0)
        assert len(path) == len(result.diagnostics)
        assert path[0][0] == 0.0 and path[0][1] == 0.3
        # exogenous probes ride their closed-form trajectory
        t_last, x_last = path[-1][0], path[-1][1]
        assert x_last == pytest.approx(0.3 + 0.4 * t_last, abs=1e-14)

    def test_one_model_serves_repeated_runs(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.3, (ModelCoupled(0.0, None),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        first = run(model, grid, self._bump_datum(), 0.2, n_snapshots=2)
        run(model, grid, PiecewiseConstant([], [0.7]), 0.1, n_snapshots=2)
        second = run(model, grid, self._bump_datum(), 0.2, n_snapshots=2)
        assert first.model is model and second.model is model
        assert model == FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        np.testing.assert_array_equal(first.final_field, second.final_field)
        assert first.diagnostics.tobytes() == second.diagnostics.tobytes()
        assert first.log.tobytes() == second.log.tobytes()
        np.testing.assert_array_equal(first.probe_path(0), second.probe_path(0))

    def test_steps_land_on_program_boundaries(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(
            0.3, (ExogenousSpeed(0.0, 0.1234, 0.4), ExogenousSpeed(0.1234, None, 0.0))
        )
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        result = run(model, grid, self._bump_datum(), 0.2, n_snapshots=2)
        times = [row[1] for row in result.diagnostics]
        assert any(abs(t - 0.1234) <= 1e-12 for t in times)

    def test_validation(self, monkeypatch):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        with pytest.raises(DomainError):
            run(model, grid, self._bump_datum(), 0.0)
        with pytest.raises(DomainError):
            run(model, grid, self._bump_datum(), 0.1, n_snapshots=0)
        # the law alone over [0, 1] takes steps of 0.009, so the budget is
        # 12 steps; a moving probe in a field reaching full density halves
        # the steps (22 here), which only the step loop finds out
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, 0.5),))
        coupled = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        jam = PiecewiseConstant.from_blocks(0.2, [(0.4, 0.6, 1.0)])
        monkeypatch.setattr(fvsolver, "MAX_STEPS", 15)
        with pytest.raises(StabilityError, match="MAX_STEPS=15 steps at t="):
            run(coupled, grid, jam, 0.1, n_snapshots=2)

    @pytest.mark.parametrize(
        "n_snapshots", [2.5, np.float64(3.0), "3"], ids=["float", "np-float", "str"]
    )
    def test_non_integer_snapshot_count_rejected(self, monkeypatch, n_snapshots):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        monkeypatch.setattr(fvsolver, "init_field", None)  # nothing allocated
        message = f"n_snapshots must be an integer, got {n_snapshots!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            run(model, grid, self._bump_datum(), 0.1, n_snapshots=n_snapshots)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"t_end": math.inf}, "t_end must be finite, got inf"),
            ({"t_end": math.nan}, "t_end must be finite, got nan"),
            ({"cfl": math.inf}, "cfl must be finite, got inf"),
            ({"cfl": math.nan}, "cfl must be finite, got nan"),
        ],
        ids=["t_end-inf", "t_end-nan", "cfl-inf", "cfl-nan"],
    )
    def test_bad_numbers_rejected_before_any_arithmetic(self, monkeypatch, kwargs, message):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        monkeypatch.setattr(fvsolver, "init_field", None)  # nothing allocated
        args = {"t_end": 0.1, "n_snapshots": 2, "cfl": CFL_DEFAULT, **kwargs}
        with np.errstate(all="raise"), pytest.raises(DomainError, match=re.escape(message)):
            run(model, grid, self._bump_datum(), **args)

    def test_check_run_returns_the_times_the_run_lands_on(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        program = (ExogenousSpeed(0.0, 0.05, 0.3), ExogenousSpeed(0.05, None, 0.0))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(ProbeTrajectory(0.5, program),))
        snap_times, boundaries = fvsolver.check_run(model, grid, 0.2, n_snapshots=3)
        assert list(snap_times) == [0.0, 0.1, 0.2]
        assert boundaries == [0.05, 0.1, 0.2]
        result = run(model, grid, self._bump_datum(), 0.2, n_snapshots=3)
        assert [t for t, _ in result.snapshots] == list(snap_times)
        assert set(boundaries) <= set(result.log[:, 1])

    @pytest.mark.parametrize(
        "cfl, limit", [(CFL_DEFAULT, 1), (CFL_DEFAULT, 11), (1e-300, 2_000_000)]
    )
    def test_run_over_the_full_range_step_budget_rejected_up_front(
        self, monkeypatch, cfl, limit
    ):
        # steps of the law's CFL step over all of [0, 1], cfl * dx / S_law =
        # 0.009 here, need 11.1 steps to reach t_end = 0.1
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        monkeypatch.setattr(fvsolver, "init_field", None)  # nothing allocated
        monkeypatch.setattr(fvsolver, "MAX_STEPS", limit)
        with pytest.raises(DomainError, match=f"MAX_STEPS={limit} steps"):
            run(model, grid, self._bump_datum(), 0.1, n_snapshots=2, cfl=cfl)

    def test_run_at_its_step_count_completes(self, monkeypatch):
        # the up-front budget counts the law's steps over all of [0, 1]
        # (11.1 here), so MAX_STEPS = 12 admits the run; over its own range
        # [0.2, 0.6] the run takes 7
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        monkeypatch.setattr(fvsolver, "MAX_STEPS", 12)
        result = run(model, grid, self._bump_datum(), 0.1, n_snapshots=2)
        assert len(result.log) == 7

    @pytest.mark.parametrize("n_snapshots", [5, 10**300], ids=["five", "huge"])
    def test_impossible_snapshot_count_rejected_up_front(self, monkeypatch, n_snapshots):
        # every snapshot interval takes a step: 5 snapshots span 4 intervals
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        monkeypatch.setattr(fvsolver, "init_field", None)  # nothing allocated
        monkeypatch.setattr(fvsolver, "MAX_STEPS", 3)
        with pytest.raises(DomainError, match="MAX_STEPS=3 steps"):
            run(model, grid, self._bump_datum(), 0.1, n_snapshots=n_snapshots)

    @pytest.mark.parametrize(
        "t_end, n_snapshots",
        [(1e-300, 50), (1e-13, 50), (fvsolver.TIME_TOL, 1), (5e-14, 6)],
        ids=["tiny", "dense", "at_tolerance", "spacing_at_tolerance"],
    )
    def test_spacing_at_or_below_the_time_tolerance_rejected(self, t_end, n_snapshots):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        with pytest.raises(DomainError, match="time tolerance"):
            run(model, grid, self._bump_datum(), t_end, n_snapshots=n_snapshots)

    def test_spacing_just_above_the_time_tolerance_completes(self):
        # the smallest t_end that validation accepts for 6 snapshots, a few
        # ulps above 5 * TIME_TOL, runs to the end and records every one
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, 0.3),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        t_end = 5.0 * fvsolver.TIME_TOL
        for _ in range(100):
            try:
                result = run(model, grid, self._bump_datum(), t_end, n_snapshots=6)
                break
            except DomainError:
                t_end = np.nextafter(t_end, 1.0)
        assert t_end < 5.0 * fvsolver.TIME_TOL * (1.0 + 1e-14)
        assert [t for t, _ in result.snapshots] == list(np.linspace(0.0, t_end, 6))
        assert len(result.diagnostics) == 5

    def test_snapshots_hold_the_field_at_their_time(self, monkeypatch):
        # snapshots 1e-13 apart with a program boundary 5e-14 before one of
        # them: each snapshot is the field of the step ending at its time
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        program = (ExogenousSpeed(0.0, 1.5e-13, 0.3), ExogenousSpeed(1.5e-13, None, 0.0))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(ProbeTrajectory(0.5, program),))
        fields = []
        update = fvsolver._lxf_update

        def recording(*args):
            new, lo, hi = update(*args)
            fields.append(new.copy())  # the run reuses its buffers
            return new, lo, hi

        monkeypatch.setattr(fvsolver, "_lxf_update", recording)
        result = run(model, grid, self._bump_datum(), 5e-13, n_snapshots=6)
        after = {row[1]: field for row, field in zip(result.diagnostics, fields)}
        assert 1.5e-13 in after and len(result.snapshots) == 6
        for t, field in result.snapshots[1:]:
            assert field.tobytes() == after[t].tobytes()

    def test_snapshots_share_no_memory_with_each_other_or_later_steps(self, monkeypatch):
        # the run computes into two reused buffers: what it returns must be
        # copies, untouched by the steps that follow
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.3, (ExogenousSpeed(0.0, None, 0.2),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        outputs = []
        update = fvsolver._lxf_update

        def recording(*args):
            new, lo, hi = update(*args)
            outputs.append(new)
            return new, lo, hi

        monkeypatch.setattr(fvsolver, "_lxf_update", recording)
        result = run(model, grid, self._bump_datum(), 0.2, n_snapshots=5)
        fields = [field for _, field in result.snapshots]
        assert len(outputs) > len(fields)
        for i, field in enumerate(fields):
            assert not any(np.shares_memory(field, other) for other in fields[i + 1 :])
            assert not any(np.shares_memory(field, new) for new in outputs)
        assert not any(np.shares_memory(result.final_field, f) for f in fields[:-1])

    def test_each_program_is_looked_up_once_per_probe_and_step(self, monkeypatch):
        # advance_probes asks for the closed-form state at the step's end,
        # resolve_probe_speeds for the speed at the same time: one search
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probes = (
            ProbeTrajectory(0.3, (ExogenousSpeed(0.0, 0.05, 0.4), ExogenousSpeed(0.05, None, 0.1))),
            ProbeTrajectory(0.6, (ExogenousSpeed(0.0, None, 0.2),), observer=True),
            ProbeTrajectory(0.5, (ModelCoupled(0.0, None),)),
        )
        model = FluxModel(speed_law=Greenshields(1.0), probes=probes)
        searches = {id(probe._table.ts): 0 for probe in probes}
        lookup = model_module._knot_lookup

        def counting(ts, ws, t):
            searches[id(ts)] += 1
            return lookup(ts, ws, t)

        monkeypatch.setattr(model_module, "_knot_lookup", counting)
        result = run(model, grid, self._bump_datum(), 0.2, n_snapshots=2)
        n_steps = len(result.log)
        assert n_steps > 10
        assert list(searches.values()) == [n_steps + 1] * len(probes)

    def test_run_constructs_no_flux_model(self, monkeypatch):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probes = (
            ProbeTrajectory(0.3, (ModelCoupled(0.0, None),)),
            ProbeTrajectory(0.6, (ExogenousSpeed(0.0, None, 0.2),)),
        )
        model = FluxModel(speed_law=Greenshields(1.0), probes=probes)
        built = []
        post_init = FluxModel.__post_init__
        monkeypatch.setattr(
            FluxModel, "__post_init__", lambda self: built.append(self) or post_init(self)
        )
        result = run(model, grid, self._bump_datum(), 0.1, n_snapshots=2)
        assert len(result.diagnostics) > 5
        assert built == []

    def test_refinement_shrinks_the_shock_error(self):
        law = Greenshields(1.0)
        exact = solve_riemann(law, 0.125, 0.375)
        model = FluxModel(speed_law=law)
        t_end = 0.3
        errors = {}
        for dx in (0.01, 0.005):
            grid = Grid.from_extent(0.0, 1.0, dx)
            datum = PiecewiseConstant([0.3], [0.125, 0.375])
            result = run(model, grid, datum, t_end, n_snapshots=2)
            reference = exact.profile(t_end, grid.centers - 0.3)
            errors[dx] = l1_distance(grid, result.final_field, reference)
        assert errors[0.01] / errors[0.005] >= 1.25
        assert errors[0.005] <= 0.02


# ---------------------------------------------------------------------------
# The step loop against the one it replaced
# ---------------------------------------------------------------------------
#
# The reference below is the step sequence ``run`` had before it evaluated
# the flux once per step: grid centres rebuilt on every call, a separate
# four-point flux evaluation for the boundary rates, the density checked
# again inside the blend, and the diagnostics' range read from the clipped
# field.  Its blend computes the cutoff weights at the broadcast shape of
# ``(x, rho)``; probe states are passed as an argument.  It takes its steps
# from ``cfl_dt``, whose bound the cell scan ``reference_cfl_dt`` checks:
# that scan differences the flux on the cells at densities over the field's
# range, widened to multiples of 1/64, and measures how far the probes'
# blend moves a uniform field at either end of it towards 0 or 1.


def reference_centers(grid):
    return grid.x_min + grid.dx * (np.arange(grid.n_cells) + 0.5)


def reference_blended_speed(model, states, x, rho):
    x = np.asarray(x, dtype=float)
    v = model.speed_law(rho)
    shape = np.broadcast_shapes(x.shape, rho.shape)
    total = np.zeros(shape)
    weights = []
    for p, pdot in states:
        w = model.cutoff(x - p)
        weights.append((w, pdot))
        total = total + w
    scale = np.maximum(total, 1.0)
    out = v + np.zeros(shape)
    for w, pdot in weights:
        out = out + (w / scale) * (harmonic_speed(pdot, v) - v)
    return out


def reference_flux(model, states, x, rho):
    rho = np.asarray(rho, dtype=float)
    if rho.size and (np.min(rho) < -1e-12 or np.max(rho) > 1 + 1e-12):
        raise DomainError("density outside [0, 1]")
    return rho * reference_blended_speed(model, states, x, rho)


def reference_snap(rho_range):
    """``(lo, hi)`` widened to multiples of 1/64."""
    lo, hi = rho_range
    return math.floor(lo * 64.0) / 64.0, math.ceil(hi * 64.0) / 64.0


def reference_scan(model, grid, states, a, b, shift):
    """The largest ``|df/drho|`` a cell scan finds at densities in
    ``[a, b]``: the law's slope, the blended flux's on every cell near a
    probe, ghost cells included, and, if ``b`` is 1 and the law vanishes
    there, the closed-form slope at full density.  Over ``a < b`` the
    slopes are central differences at 21 evenly spaced densities, each kept
    inside ``[a, b]``; at ``a == b`` they are the exact slopes at that one
    density, ``law.flux_slope`` and, per probe, ``g' = H + rho v' dH/dv``.
    With ``shift``, also how far the blend moves a uniform field on the
    cells near a probe: ``|f(x, a) - a v(a)| / a`` unless ``a`` is 0, and
    ``|f(x, b) - b v(b)| / (1 - b)`` unless ``b`` is 1."""
    law = model.speed_law
    if a == b:
        v, df = float(law(a)), float(law.flux_slope(a))
        S = abs(df)
    else:
        rho = np.linspace(a, b, 21)
        h = 1e-7
        lo = np.clip(rho - h, a, b)
        hi = np.clip(rho + h, a, b)
        S = float(np.max(np.abs((law.flux(hi) - law.flux(lo)) / (hi - lo))))
    if not states:
        return S
    centers = _reference_ghosted_centers(grid)  # the update reads the ghosts' flux
    reach = model.cutoff.outer + grid.dx
    near = np.zeros(centers.shape, dtype=bool)
    for p, _ in states:
        near |= np.abs(centers - p) <= reach
    x = centers[near]
    if x.size:
        xc = x[:, None]
        if a == b:
            # the blend's weights chi_i / max(sum chi, 1) mix the vertex
            # fluxes' slopes; rho v' is f' - v
            chi = [model.cutoff(x - p) for p, _ in states]
            scale = np.maximum(sum(chi), 1.0)
            slopes = np.full(x.shape, df)
            for c, (_, w) in zip(chi, states):
                ratio = w / (w + v) if w else 0.0
                g = 2.0 * v * ratio + (df - v) * 2.0 * ratio * ratio
                slopes = slopes + (c / scale) * (g - df)
        else:
            F_hi = reference_flux(model, states, xc, hi[None, :])
            F_lo = reference_flux(model, states, xc, lo[None, :])
            slopes = (F_hi - F_lo) / (hi - lo)[None, :]
        S = max(S, float(np.max(np.abs(slopes))))
        if shift:
            for end, gap in ((a, a), (b, 1.0 - b)):
                if gap > 0.0:
                    F = reference_flux(model, states, xc, np.array([[end]]))
                    S = max(S, float(np.max(np.abs(F - end * law(end)))) / gap)
        if b == 1.0 and law(1.0) == 0.0:
            chi_tot = np.zeros_like(x)
            signed = np.zeros_like(x)
            for p, w in states:
                c = model.cutoff(x - p)
                chi_tot += c
                signed += c * (2.0 * float(w > 0.0) - 1.0)
            scale = np.maximum(chi_tot, 1.0)
            end_slope = np.abs(float(law.flux_slope(1.0))) * np.abs(1.0 + signed / scale)
            S = max(S, float(np.max(end_slope)))
    return S


def reference_cfl_dt(model, grid, states, cfl, rho_range):
    """The step of the cell scan over the snapped range, with the shift
    towards 0 and 1, or of the scan of slopes over [0, 1] if that is
    longer."""
    S = min(
        reference_scan(model, grid, states, *reference_snap(rho_range), shift=True),
        reference_scan(model, grid, states, 0.0, 1.0, shift=False),
    )
    return cfl * grid.dx / max(S, 1e-10)


def reference_boundary_rates(model, grid, states, field):
    centers = reference_centers(grid)
    x = np.array([centers[0] - grid.dx, centers[0], centers[-1], centers[-1] + grid.dx])
    rho = np.array([field[0], field[0], field[-1], field[-1]])
    F = reference_flux(model, states, x, rho)
    return 0.5 * (float(F[0]) + float(F[1])), 0.5 * (float(F[2]) + float(F[3]))


def reference_lxf_step(model, grid, states, field, dt):
    rho = np.concatenate([[field[0]], field, [field[-1]]])
    centers = reference_centers(grid)
    x = np.concatenate([[centers[0] - grid.dx], centers, [centers[-1] + grid.dx]])
    F = reference_flux(model, states, x, rho)
    new = 0.5 * (rho[:-2] + rho[2:]) - 0.5 * (dt / grid.dx) * (F[2:] - F[:-2])
    lo, hi = float(np.min(new)), float(np.max(new))
    if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):
        raise StabilityError("update left [0, 1]")
    if lo < 0.0 or hi > 1.0:
        new = np.clip(new, 0.0, 1.0)
    return new


def reference_probe_speeds(model, grid, t, field, positions):
    centers = reference_centers(grid)
    speeds, traces = [], []
    for probe, p in zip(model.probes, positions):
        if model.trace_side == "right":
            j = min(int(np.searchsorted(centers, p, side="left")), grid.n_cells - 1)
        else:
            j = max(int(np.searchsorted(centers, p, side="right")) - 1, 0)
        trace = float(field[j])
        # a linear scan of the raw program: the reference cases mollify no
        # speed jump, so no ramp is missed
        segment = next(
            (s for s in probe.program if s.start <= t and (s.end is None or t < s.end)), None
        )
        if isinstance(segment, ModelCoupled):
            speeds.append(float(model.speed_law(trace)))
        else:
            speeds.append(0.0 if segment is None else segment.speed)
        traces.append(trace)
    return speeds, traces


def reference_run(model, grid, datum, t_end, n_snapshots, cfl=CFL_DEFAULT):
    field = init_field(grid, datum)
    snap_times = np.linspace(0.0, t_end, n_snapshots)
    boundaries = {float(t_end)}
    boundaries.update(float(t) for t in snap_times if 0.0 < t <= t_end)
    for probe in model.probes:
        boundaries.update(t for t in probe.boundary_times() if t < t_end)
    boundaries = sorted(boundaries)
    coupled = [i for i, probe in enumerate(model.probes) if not probe.observer]
    positions = [probe.x0 for probe in model.probes]
    speeds, traces = reference_probe_speeds(model, grid, 0.0, field, positions)
    paths = [[] for _ in model.probes]
    snapshots = [(0.0, field.copy())]
    diagnostics, boundary_flux = [], []
    t, step, snap_idx = 0.0, 0, 1
    while t < t_end - 1e-14:
        states = tuple((positions[i], speeds[i]) for i in coupled)
        dt = cfl_dt(model, grid, states, (float(np.min(field)), float(np.max(field))), cfl)
        b_idx = int(np.searchsorted(boundaries, t + 1e-14, side="right"))
        b_next = boundaries[b_idx] if b_idx < len(boundaries) else t_end
        if dt >= b_next - t - 1e-14:
            dt = b_next - t
            t_new = b_next
        else:
            t_new = t + dt
        rate_in, rate_out = reference_boundary_rates(model, grid, states, field)
        new_field = reference_lxf_step(model, grid, states, field, dt)
        for path, p, w, trace in zip(paths, positions, speeds, traces):
            path.append((t, p, w, trace))
        positions = advance_probes(model, positions, speeds, dt, t_new)
        field = new_field
        t = t_new
        step += 1
        speeds, traces = reference_probe_speeds(model, grid, t, field, positions)
        diagnostics.append(
            (
                step,
                t,
                dt,
                float(np.sum(field)) * grid.dx,
                float(np.min(field)),
                float(np.max(field)),
            )
        )
        boundary_flux.append((step, t, dt, rate_in, rate_out))
        if snap_idx < len(snap_times) and abs(t - snap_times[snap_idx]) <= 1e-12:
            snapshots.append((float(snap_times[snap_idx]), field.copy()))
            snap_idx += 1
    return snapshots, diagnostics, boundary_flux, paths


def _as_bytes(rows):
    return np.asarray(rows, dtype=float).tobytes()


def reference_mass_balance_residual(result):
    """The per-step running sum :meth:`RunResult.mass_balance_residual`
    replaced with a cumulative sum over the log."""
    gaps = [0.0]
    expected = result.initial_mass
    for _, _, dt, mass, _, _, rate_in, rate_out in result.log.tolist():
        expected += dt * (rate_in - rate_out)
        gaps.append(abs(mass - expected))
    return float(np.max(gaps))


def _fleet_case():
    # two traffic-coupled probes (one braking to a stop), two exogenous
    # stop-and-go probes and an observer, on a road of dense blocks
    probes = (
        ProbeTrajectory(0.3, (ModelCoupled(0.0, None),)),
        ProbeTrajectory(0.55, (ExogenousSpeed(0.0, 0.07, 0.3), ExogenousSpeed(0.07, None, 0.0))),
        ProbeTrajectory(0.9, (ModelCoupled(0.0, 0.11), ExogenousSpeed(0.11, None, 0.0))),
        ProbeTrajectory(1.3, (ExogenousSpeed(0.0, None, 0.6),), mollify_radius=0.02),
        ProbeTrajectory(0.6, (ExogenousSpeed(0.0, None, 0.4),), observer=True),
    )
    model = FluxModel(
        speed_law=EpsilonLaw(0.25), cutoff=CutoffProfile(0.02, 0.06), probes=probes
    )
    datum = PiecewiseConstant.from_blocks(0.2, [(0.1, 0.5, 0.9), (0.7, 1.1, 1.0)])
    return model, Grid.from_extent(0.0, 2.0, 0.005), datum, 0.25


def _interior_range_case():
    # coupled probes on a road whose densities stay inside (0, 1): the CFL
    # step reads a range whose snapped ends move off 0 and 1
    probes = (
        ProbeTrajectory(0.25, (ModelCoupled(0.0, None),)),
        ProbeTrajectory(0.7, (ExogenousSpeed(0.0, 0.06, 0.5), ExogenousSpeed(0.06, None, 0.05))),
    )
    model = FluxModel(speed_law=Greenshields(1.0), cutoff=CutoffProfile(0.03, 0.08), probes=probes)
    datum = PiecewiseConstant.from_blocks(0.15, [(0.3, 0.5, 0.8), (0.6, 0.9, 0.45)])
    return model, Grid.from_extent(0.0, 1.2, 0.005), datum, 0.3


def _calibration_case():
    scenario = get_scenario("calibration").with_overrides(t_end=0.1)
    return scenario.flux_model(), scenario.grid(), scenario.datum, scenario.t_end


def _probe_free_case():
    # waves cross both boundaries, so the edge fluxes differ from their
    # neighbours' on most steps
    model = FluxModel(speed_law=EpsilonLaw(-0.2))
    datum = PiecewiseConstant([0.02, 0.3, 0.6, 0.97], [0.8, 0.1, 1.0, 0.0, 0.5])
    return model, Grid.from_extent(0.0, 1.0, 0.01), datum, 0.3


class TestStepLog:
    def test_layout_and_views(self):
        model, grid, datum, t_end = _fleet_case()
        result = run(model, grid, datum, t_end, n_snapshots=6)
        log = result.log
        n = len(log)
        assert log.shape == (n, 8) and n > 10
        assert log.dtype == np.float64
        assert log.flags.c_contiguous and not log.flags.writeable
        with pytest.raises(ValueError):
            log[0, 3] = 0.0
        np.testing.assert_array_equal(log[:, 0], np.arange(1, n + 1))
        assert log[-1, 1] == t_end
        assert result.diagnostics.tobytes() == log[:, :6].tobytes()
        assert len(result.diagnostics) == n
        for path in result.probe_paths:
            assert path.shape == (n, 4) and path.dtype == np.float64
            assert path.flags.c_contiguous and not path.flags.writeable

    def test_a_step_holds_float64_rows_only(self):
        # 1876 steps of a 50-cell road with an observer probe: the log row
        # and the path row take 64 + 32 B, so anything near 128 B per step
        # means Python objects are held per step while the run lasts
        grid = Grid.from_extent(0.0, 1.0, 0.02)
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, 0.3),), observer=True)
        model = FluxModel(Greenshields(1.0), probes=(probe,))
        datum = PiecewiseConstant.from_blocks(0.2, [(0.4, 0.6, 0.6)])
        run(model, grid, datum, 54.0, n_snapshots=2)  # fill caches and free lists
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = run(model, grid, datum, 54.0, n_snapshots=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.log) == 1876
        assert (peak - base) / len(result.log) < 128.0

    @pytest.mark.parametrize(
        "case", [_probe_free_case, _calibration_case, _fleet_case], ids=lambda c: c.__name__
    )
    def test_mass_figures_equal_the_per_step_loop(self, case):
        model, grid, datum, t_end = case()
        result = run(model, grid, datum, t_end, n_snapshots=6)
        residual = result.mass_balance_residual()
        assert residual.hex() == reference_mass_balance_residual(result).hex()
        if case is _probe_free_case:
            # waves cross both boundaries: both rates move, mass leaves
            assert np.ptp(result.log[:, 6]) > 0.0 and np.ptp(result.log[:, 7]) > 0.0
            assert np.abs(result.log[:, 3] - result.initial_mass).max() > 1e-3
            assert 0.0 < residual <= 1e-13


STEP_LOOP_CASES = [_probe_free_case, _calibration_case, _fleet_case, _interior_range_case]


class TestStepLoopMatchesReference:
    @pytest.mark.parametrize("case", STEP_LOOP_CASES, ids=lambda c: c.__name__)
    def test_run_is_bitwise_equal_to_the_reference(self, case):
        model, grid, datum, t_end = case()
        result = run(model, grid, datum, t_end, n_snapshots=6)
        snapshots, diagnostics, boundary_flux, paths = reference_run(
            model, grid, datum, t_end, n_snapshots=6
        )
        assert len(result.diagnostics) == len(diagnostics) > 10
        assert result.final_field.tobytes() == snapshots[-1][1].tobytes()
        assert [t for t, _ in result.snapshots] == [t for t, _ in snapshots]
        for (_, got), (_, want) in zip(result.snapshots, snapshots):
            assert got.tobytes() == want.tobytes()
        assert _as_bytes(result.diagnostics) == _as_bytes(diagnostics)
        assert _as_bytes(result.log[:, [0, 1, 2, 6, 7]]) == _as_bytes(boundary_flux)
        assert len(result.probe_paths) == len(paths)
        for got, want in zip(result.probe_paths, paths):
            assert got.tobytes() == _as_bytes(want)

    def test_public_step_functions_match_the_reference(self):
        model, grid, datum, _ = _fleet_case()
        field = init_field(grid, datum)
        states = ((0.3, 0.5), (0.9, 0.1), (1.3, 0.6), (0.55, 0.0))
        rho_range = (float(field.min()), float(field.max()))
        dt = cfl_dt(model, grid, states, rho_range)
        assert dt == reference_cfl_dt(model, grid, states, CFL_DEFAULT, rho_range)
        assert boundary_flux_rates(model, grid, states, field) == reference_boundary_rates(
            model, grid, states, field
        )
        new = lxf_step(model, grid, states, field, dt)
        assert new.tobytes() == reference_lxf_step(model, grid, states, field, dt).tobytes()

    @pytest.mark.parametrize("case", STEP_LOOP_CASES, ids=lambda c: c.__name__)
    def test_every_step_calls_each_traced_seam_once(self, case, monkeypatch):
        # the benchmark's spans wrap these module attributes: a step that
        # routed round one of them would leave its time untraced
        calls = collections.Counter()

        def counted(name, func):
            def counting(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return counting

        for name in ("cfl_dt", "eval_flux", "resolve_probe_speeds", "advance_probes"):
            monkeypatch.setattr(fvsolver, name, counted(name, getattr(fvsolver, name)))
        model, grid, datum, t_end = case()
        steps = len(run(model, grid, datum, t_end, n_snapshots=6).log)
        assert steps > 10
        # the probes' speeds are resolved once more, before the first step
        assert calls == {
            "cfl_dt": steps,
            "eval_flux": steps,
            "advance_probes": steps,
            "resolve_probe_speeds": steps + 1,
        }

    def test_one_flux_evaluation_per_step_with_coupled_probes(self, monkeypatch):
        # the CFL bound evaluates no flux: the step's one evaluation is the
        # update's, on the ghosted field
        model, grid, datum, t_end = _fleet_case()
        calls = []

        def counting(*args):
            calls.append(args[2].shape)
            return eval_flux(*args)

        monkeypatch.setattr(fvsolver, "eval_flux", counting)
        result = run(model, grid, datum, t_end, n_snapshots=6)
        assert len(result.log) > 10
        assert calls == [(grid.n_cells + 2,)] * len(result.log)

    def test_grid_geometry_is_computed_once_and_read_only(self):
        grid = Grid.from_extent(-1.0, 2.0, 0.01)
        for name in ("edges", "centers", "ghosted_centers"):
            first = getattr(grid, name)
            assert getattr(grid, name) is first
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = 0.0
        assert grid.centers.tobytes() == reference_centers(grid).tobytes()
        assert grid.edges.tobytes() == (grid.x_min + grid.dx * np.arange(301)).tobytes()
        np.testing.assert_array_equal(grid.ghosted_centers[1:-1], grid.centers)
        assert grid.ghosted_centers[0] == grid.centers[0] - grid.dx
        assert grid.ghosted_centers[-1] == grid.centers[-1] + grid.dx

    @pytest.mark.parametrize(
        "background, spike", [(0.0, 1e-13), (1.0, 1.0 - 1e-13)], ids=["below", "above"]
    )
    def test_update_range_is_the_range_of_the_clipped_field(self, background, spike):
        # an oversized step pushes one cell past the bound by less than the
        # tolerance, so the update clips; run's diagnostics read lo and hi
        grid = Grid.from_extent(0.0, 1.0, 0.125)
        model = FluxModel(speed_law=Greenshields(1.0))
        field = np.full(grid.n_cells, background)
        field[4] = spike
        rho = _ghost_buffer(field)
        F = _ghosted_flux(model, grid, (), rho)
        new, lo, hi = _lxf_update(grid, rho, F, 2.0 * grid.dx, None, *np.empty((2, grid.n_cells)))
        unclipped = 0.5 * (rho[:-2] + rho[2:]) - (F[2:] - F[:-2])
        assert np.min(unclipped) < 0.0 or np.max(unclipped) > 1.0
        assert new.tobytes() == lxf_step(model, grid, (), field, 2.0 * grid.dx).tobytes()
        assert (lo, hi) == (float(np.min(new)), float(np.max(new)))
        # the run's path: the field is the interior of a ghosted buffer, and
        # the update clips in place in the interior of another
        current, following = np.full((2, grid.n_cells + 2), np.nan)
        current[1:-1] = field
        scratch = np.full(grid.n_cells, np.nan)
        F_b = _ghosted_flux(model, grid, (), current)
        assert current.tobytes() == rho.tobytes()
        assert F_b.tobytes() == F.tobytes()
        out = following[1:-1]
        new_b, lo_b, hi_b = _lxf_update(grid, current, F_b, 2.0 * grid.dx, None, out, scratch)
        assert new_b is out and new_b.tobytes() == new.tobytes()
        assert (lo_b, hi_b) == (lo, hi)
        assert np.isnan(following[[0, -1]]).all()  # the next step writes these ghosts


# ---------------------------------------------------------------------------
# The windowed blend against the whole-array reference
# ---------------------------------------------------------------------------
#
# The kernel blends each coupled probe only over its window of points; the
# reference above blends every point against every probe.  Both must agree
# byte for byte.


def _probe_model(cutoff, states):
    probes = tuple(ProbeTrajectory(p, (ExogenousSpeed(0.0, None, w),)) for p, w in states)
    return FluxModel(speed_law=EpsilonLaw(0.25), cutoff=cutoff, probes=probes)


def _overlapping_supports():
    states = ((0.40, 0.3), (0.47, 0.0), (0.55, 0.9), (0.5, 0.6))
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), states


def _clipped_at_both_ends():
    # within outer of either boundary, just outside the domain, and far away
    states = ((0.03, 0.5), (0.98, 0.2), (-0.1, 0.4), (1.12, 0.1), (5.0, 0.7))
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), states


def _outer_from_a_centre():
    # dyadic geometry: 0.90625 lies exactly outer = 0.25 from the centres
    # 0.65625 and 1.15625; 0.5 is a cell edge
    states = ((0.90625, 0.4), (0.5, 0.2))
    return CutoffProfile(0.125, 0.25), Grid.from_extent(0.0, 2.0, 0.0625), states


def _stopped_probes():
    states = ((0.3, 0.0), (0.35, 0.0), (0.8, 0.0))
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), states


BLEND_CASES = [_overlapping_supports, _clipped_at_both_ends, _outer_from_a_centre, _stopped_probes]


def _blend_field(grid):
    field = np.random.default_rng(5).uniform(0.0, 1.0, grid.n_cells)
    field[::7] = 0.0
    field[3::7] = 1.0
    return field


def _reference_ghosted_centers(grid):
    centers = reference_centers(grid)
    return np.concatenate([[centers[0] - grid.dx], centers, [centers[-1] + grid.dx]])


def _tight_windows(model, states, x):
    """Slices of sorted ``x`` holding exactly the points within ``outer``."""
    outer = model.cutoff.outer
    return [
        slice(int(np.searchsorted(x, p - outer)), int(np.searchsorted(x, p + outer, "right")))
        for p, _ in states
    ]


def _assert_matches_the_reference_scan(case, dt, model, grid, states, rho_range):
    want = reference_cfl_dt(model, grid, states, CFL_DEFAULT, rho_range)
    if rho_range[1] == 1.0:
        assert dt == want  # the end slope sets both
    elif case in (_overlapping_supports, _clipped_at_both_ends, _forty_probes):
        # some probe carries no cell at weight 1, so the vertex bound may
        # be the shorter step
        assert dt <= want * (1.0 + 1e-12)
    else:
        # the slopes peak at the range's ends, where the scan's one-sided
        # difference over 1e-7 is about 1e-7 |f''| off the exact slope
        assert dt == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("case", BLEND_CASES, ids=lambda c: c.__name__.strip("_"))
class TestWindowedBlendMatchesReference:
    def test_ghosted_flux(self, case):
        cutoff, grid, states = case()
        model = _probe_model(cutoff, states)
        field = _blend_field(grid)
        rho = _ghost_buffer(field)
        F = _ghosted_flux(model, grid, states, rho)
        want = reference_flux(model, states, _reference_ghosted_centers(grid), rho)
        assert F.tobytes() == want.tobytes()

    def test_windows_cover_the_supports_and_no_more_than_a_cell_beyond(self, case):
        cutoff, grid, states = case()
        x = grid.ghosted_centers
        first = grid.x_min - 0.5 * grid.dx
        windows = fvsolver._cell_windows(states, first, grid.dx, cutoff.outer, x.size)
        for (p, _), win in zip(states, windows):
            inside = np.zeros(x.size, dtype=bool)
            inside[win] = True
            assert not np.any(cutoff(x[~inside] - p))
            assert np.all(np.abs(x[inside] - p) < cutoff.outer + 2.0 * grid.dx)

    @pytest.mark.parametrize("rho_range", [FULL, (0.3, 0.7), (0.05, 0.95), (0.6, 1.0)])
    def test_cfl_dt_equals_the_reference_scan(self, case, rho_range, monkeypatch):
        # the vertex bound evaluates no flux on the cells
        cutoff, grid, states = case()
        model = _probe_model(cutoff, states)
        calls = []
        monkeypatch.setattr(fvsolver, "eval_flux", lambda *args: calls.append(args))
        dt = cfl_dt(model, grid, states, rho_range)
        assert calls == []
        _assert_matches_the_reference_scan(case, dt, model, grid, states, rho_range)

    def test_public_kernels_at_every_shape(self, case):
        cutoff, grid, states = case()
        model = _probe_model(cutoff, states)
        centers = grid.centers
        densities = np.linspace(0.0, 1.0, 7)
        inputs = [
            (np.float64(states[0][0] + 0.01), np.float64(0.7)),  # 0-d
            (centers, _blend_field(grid)),  # 1-d
            (centers[:, None], densities[None, :]),  # (m, 1) x (1, k)
        ]
        for x, rho in inputs:
            rho = np.asarray(rho)
            want_speed = np.asarray(reference_blended_speed(model, states, x, rho))
            want_flux = np.asarray(reference_flux(model, states, x, rho))
            speed = eval_encoded_speed(model, states, x, rho)
            assert np.shape(speed) == want_speed.shape
            assert np.asarray(speed).tobytes() == want_speed.tobytes()
            flux = eval_flux(model, states, x, rho)
            assert np.asarray(flux).tobytes() == want_flux.tobytes()
            if np.ndim(x) == 1:  # windows slice 1-d x and rho of one shape
                windows = _tight_windows(model, states, x)
                flux = eval_flux(model, states, x, rho, windows)
                assert flux.tobytes() == want_flux.tobytes()

    def test_windowed_weights_are_the_whole_array_weights(self, case):
        cutoff, grid, states = case()
        model = _probe_model(cutoff, states)
        x = grid.centers
        windows = _tight_windows(model, states, x)
        _, full_counts, full, full_total = _stacked_weights(model, states, x, None)
        idx, counts, chi, total = _stacked_weights(model, states, x, windows)
        assert total.tobytes() == full_total.tobytes()
        assert full_counts == [x.size] * len(states)
        assert idx.tobytes() == np.concatenate(
            [np.arange(x.size)[win] for win in windows] or [np.arange(0)]
        ).tobytes()
        starts = np.cumsum([0, *counts])
        for i, win in enumerate(windows):
            w, c = chi[starts[i] : starts[i + 1]], full[i * x.size : (i + 1) * x.size]
            assert w.tobytes() == c[win].tobytes()
            outside = np.ones(x.size, dtype=bool)
            outside[win] = False
            assert not np.any(c[outside])


# ---------------------------------------------------------------------------
# The vertex bound against the cell scan
# ---------------------------------------------------------------------------
#
# ``cfl_dt`` bounds the blended flux slope by the exact slopes of the
# vertex fluxes instead of scanning the cells near the probes, as
# ``reference_cfl_dt`` does.  Where some cell carries one probe at weight 1
# and the scan samples the steepest density the two agree; elsewhere the
# bound may only give the shorter step.


def _random_cfl_case(rng):
    """A random law, grid, cutoff and set of probe states: probes anywhere
    near the domain, within ``outer`` of either end, or overlapping the
    previous probe's support; stopped, creeping, moderate or fast; and
    cutoff plateaus from a tenth of a cell to six cells wide."""
    kind = rng.integers(3)
    if kind == 0:
        law = Greenshields(float(rng.uniform(0.5, 2.0)))
    elif kind == 1:
        law = EpsilonLaw(float(rng.uniform(-1.0, 1.5)))
    else:
        law = TabulatedLaw(rng.uniform(0.0, 2.0, int(rng.integers(2, 9))))
    dx = float(rng.uniform(0.005, 0.05))
    n_cells = int(rng.integers(4, 121))
    x_min = float(rng.uniform(-1.0, 1.0))
    grid = Grid(x_min, x_min + n_cells * dx, n_cells)
    inner = dx * float(rng.uniform(0.05, 0.5) if rng.integers(2) else rng.uniform(0.5, 6.0))
    cutoff = CutoffProfile(inner, inner + dx * float(rng.uniform(0.1, 6.0)))
    outer = cutoff.outer
    vmax = law.v_max
    states = []
    for _ in range(int(rng.integers(1, 6))):
        where = rng.integers(4) if states else 0
        if where == 0:
            p = rng.uniform(grid.x_min - 2.0 * outer, grid.x_max + 2.0 * outer)
        elif where == 1:
            p = grid.x_min + rng.uniform(-outer, outer)
        elif where == 2:
            p = grid.x_max + rng.uniform(-outer, outer)
        else:
            p = states[-1][0] + rng.uniform(-outer, outer)
        speed = [0.0, 1e-9, rng.uniform(0.0, vmax), rng.uniform(vmax, 10.0 * vmax)][
            rng.integers(4)
        ]
        states.append((float(p), float(speed)))
    probes = tuple(ProbeTrajectory(p, (ExogenousSpeed(0.0, None, w),)) for p, w in states)
    return FluxModel(law, cutoff=cutoff, probes=probes), grid, tuple(states)


def _random_range(rng):
    """A random density range: all of [0, 1], one reaching 0 or 1, one
    inside, or a single density."""
    kind = rng.integers(4)
    lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
    if kind == 0:
        return FULL
    if kind == 1:
        return (0.0, hi) if rng.integers(2) else (lo, 1.0)
    return (lo, hi) if kind == 2 else (lo, lo)


def test_vertex_bound_is_never_less_safe_than_the_scan():
    rng = np.random.default_rng(20141)
    n_cases = 2000
    smaller = 0
    kinds = ["overlap", "near_end", "narrow_plateau", "stopped", "creeping", "fast"]
    seen = dict.fromkeys(kinds, 0)
    smooth = 0
    for _ in range(n_cases):
        model, grid, states = _random_cfl_case(rng)
        outer = model.cutoff.outer
        positions = sorted(p for p, _ in states)
        seen["overlap"] += any(b - a < 2.0 * outer for a, b in zip(positions, positions[1:]))
        seen["near_end"] += any(
            min(abs(p - grid.x_min), abs(p - grid.x_max)) < outer for p in positions
        )
        seen["narrow_plateau"] += model.cutoff.inner < 0.5 * grid.dx
        seen["stopped"] += any(w == 0.0 for _, w in states)
        seen["creeping"] += any(w == 1e-9 for _, w in states)
        seen["fast"] += any(w > model.speed_law.v_max for _, w in states)
        rho_range = _random_range(rng)
        dt = cfl_dt(model, grid, states, rho_range)
        reference = reference_cfl_dt(model, grid, states, CFL_DEFAULT, rho_range)
        # the exact slopes are at least the scan's differences, up to rounding
        assert dt <= reference * (1.0 + 1e-12), (model, grid, states, rho_range)
        # a table's knots fall between the scan's samples
        if not isinstance(model.speed_law, TabulatedLaw):
            smooth += 1
            smaller += dt < reference * (1.0 - 1e-6)
    assert min(seen.values()) >= 200, seen
    # the bound is the scan's own maximum on most configurations
    assert smaller <= 0.4 * smooth


def _laws():
    """Greenshields, ``EpsilonLaw`` with ``eps`` in [-1, 1.5], and tables of
    two to eight speeds in [0, 2]."""
    tables = st.lists(st.floats(0.0, 2.0), min_size=2, max_size=8).map(TabulatedLaw)
    return st.one_of(
        st.floats(0.5, 2.0).map(Greenshields), st.floats(-1.0, 1.5).map(EpsilonLaw), tables
    )


@st.composite
def _cfl_setups(draw):
    """A law that vanishes at full density (a table that ends at 0), a
    40-cell grid, a cutoff, coupled probe states and a field."""
    law = draw(_laws())
    if isinstance(law, TabulatedLaw):
        law = TabulatedLaw([*law.values[:-1], 0.0])
    grid = Grid.from_extent(0.0, 1.0, 0.025)
    inner = draw(st.floats(0.005, 0.1))
    cutoff = CutoffProfile(inner, inner + draw(st.floats(0.01, 0.1)))
    speeds = st.one_of(st.just(0.0), st.just(1e-9), st.floats(0.0, 4.0))
    states = tuple(
        draw(st.lists(st.tuples(st.floats(-0.2, 1.2), speeds), min_size=0, max_size=4))
    )
    probes = tuple(ProbeTrajectory(p, (ExogenousSpeed(0.0, None, w),)) for p, w in states)
    densities = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))
    if draw(st.booleans()):
        field = np.array(draw(st.lists(densities, min_size=grid.n_cells, max_size=grid.n_cells)))
    else:  # one density, or two close ones: a range far narrower than [0, 1]
        base = draw(densities)
        field = np.clip(base + draw(st.floats(0.0, 0.05)) * (np.arange(grid.n_cells) % 2), 0, 1)
    return FluxModel(law, cutoff=cutoff, probes=probes), grid, states, field


@given(_cfl_setups())
def test_no_density_in_the_field_range_needs_a_shorter_step(setup):
    # a per-cell scan at densities over the field's snapped range finds no
    # slope, or shift towards 0 or 1, above the S cfl_dt steps with (up to
    # the rounding of the differences); the range never shortens the step,
    # and the step keeps the field in [0, 1] although the flux depends on x
    model, grid, states, field = setup
    rho_range = (float(field.min()), float(field.max()))
    dt = cfl_dt(model, grid, states, rho_range)
    S = CFL_DEFAULT * grid.dx / dt
    scan = reference_scan(model, grid, states, *reference_snap(rho_range), shift=True)
    assert scan <= max(S, 1e-10) * (1.0 + 1e-8)
    assert dt >= cfl_dt(model, grid, states, FULL)
    new = lxf_step(model, grid, states, field, dt)  # StabilityError outside [0, 1]
    assert 0.0 <= new.min() and new.max() <= 1.0


@settings(max_examples=300)
@given(_laws(), st.data())
def test_slope_bounds_are_never_below_a_dense_sample(law, data):
    # a secant of the flux over a dense grid of a lattice range is the mean
    # of its slope over that cell, so none may exceed the exact bound of
    # the law's flux, or of a probe's vertex flux, beyond rounding
    i = data.draw(st.integers(0, 63))
    j = data.draw(st.integers(i + 1, 64))
    vmax = law.v_max
    speeds = [st.just(0.0), st.just(1e-9), st.floats(0.0, vmax), st.floats(vmax, 10.0 * vmax)]
    w = data.draw(st.one_of(st.none(), *speeds))
    rho = np.linspace(i / 64, j / 64, 10001)
    v = law(rho)
    secants = np.abs(np.diff(rho * (v if w is None else harmonic_speed(w, v))) / np.diff(rho))
    bound = fvsolver._peak_slope(law, i / 64, j / 64, w)[0]
    if w is None:
        assert fvsolver._law_slope(law, i, j)[0] == bound
        # and it is attained: with |f''| <= 28 on these laws, a secant over
        # a cell of at most 1e-4 lies within 2.8e-3 of the slope at its ends
        assert bound <= np.max(secants) + 3e-3
    else:
        assert bound <= fvsolver._vertex_slope(law, w, i, j)[0]
    assert np.max(secants) <= bound + 1e-8 * (1.0 + bound)


@pytest.mark.parametrize(
    "eps, w", [(-1.0, 0.01), (1e-202, 0.0), (1e-202, 0.3), (1e-160, 0.3)],
    ids=["interior-peak", "tiny-eps-stopped", "tiny-eps", "tiny-eps-subnormal-square"],
)
def test_vertex_bound_of_a_quadratic_law(eps, w):
    # under EpsilonLaw(-1), v = (1 - rho)**2, a creeping probe's vertex
    # slope peaks near rho = 0.947 at six times its value at either end,
    # where g'' changes sign; a tiny eps puts the cubic's coefficients some
    # 1e200 apart, beyond what a companion matrix of it can hold
    law = EpsilonLaw(eps)
    rho = np.linspace(0.0, 1.0, 100001)
    v = law(rho)
    dense = np.max(np.abs(np.diff(rho * harmonic_speed(w, v)) / np.diff(rho)))
    bound = fvsolver._vertex_slope(law, w, 0, 64)[1]
    assert dense <= bound * (1.0 + 1e-9) and bound <= dense + 1e-3


class TestBlendWindowsValidated:
    def test_one_window_per_state(self):
        cutoff, grid, states = _overlapping_supports()
        model = _probe_model(cutoff, states)
        field = np.full(grid.n_cells, 0.5)
        with pytest.raises(DomainError, match="3 windows for 4 probe states"):
            eval_flux(model, states, grid.centers, field, [slice(None)] * 3)

    @pytest.mark.parametrize(
        "x_shape, rho_shape",
        [((10,), ()), ((10,), (1,)), ((10,), (9,)), ((1, 10), (10,)), ((3, 10), (3, 10)),
         ((10, 1), (10, 3)), ((), ())],
        ids=["scalar_rho", "length_one_rho", "shorter_rho", "2d_x", "both_2d", "broadcast",
             "both_0d"],
    )
    def test_windows_need_1d_x_and_rho_of_one_shape(self, x_shape, rho_shape):
        # windows slice one flat row; any other form is refused, not
        # broadcast, whatever the memory order
        cutoff, grid, states = _overlapping_supports()
        model = _probe_model(cutoff, states)
        x = np.resize(grid.centers, x_shape)
        rho = np.full(rho_shape, 0.5)
        windows = [slice(None)] * len(states)
        for x_in in (x, np.asfortranarray(x)):
            with pytest.raises(DomainError, match="windows need 1-d x and rho of one shape"):
                eval_flux(model, states, x_in, rho, windows)
            with pytest.raises(DomainError, match="windows need 1-d x and rho of one shape"):
                model_module._blended_speed(model, states, x_in, rho, windows)


# ---------------------------------------------------------------------------
# The stacked blend against the per-probe reference
# ---------------------------------------------------------------------------
#
# ``_blended_speed`` blends two or more probes' windows in one pass: the
# windows' indices concatenated in probe order, one cutoff evaluation, a
# bincount normaliser and one ``np.add.at``; one probe, on its window's own
# slice.  ``reference_blended_speed`` above loops over the probes on the
# whole array; the two must agree byte for byte.


def _one_probe():
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), ((0.5, 0.3),)


def _clipped_at_the_left_end():
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), ((0.04, 0.3), (0.6, 0.8))


def _clipped_at_the_right_end():
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), ((0.4, 0.1), (0.97, 0.6))


def _nan_position():
    # a NaN position's window spans every point, so its NaN weight reaches
    # every point as it would without windows
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), ((0.3, 0.2), (math.nan, 0.4))


def _empty_window():
    # probes far outside the domain select no point at all
    states = ((-25.0, 0.5), (0.5, 0.3), (25.0, 0.4))
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), states


def _forty_probes():
    # 40 probes over a 1.4-wide stretch: every support overlaps its neighbours'
    rng = np.random.default_rng(40)
    states = tuple(
        (float(p), float(w)) for p, w in zip(rng.uniform(-0.2, 1.2, 40), rng.uniform(0.0, 1.5, 40))
    )
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), states


# One-probe cases: the window's own slice of x, v and out, cut short at
# either end, empty, everywhere NaN, and at speeds that leave v unmoved.


def _one_probe_clipped_at_the_left_end():
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), ((0.04, 0.3),)


def _one_probe_clipped_at_the_right_end():
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), ((0.97, 0.6),)


def _nan_position_alone():
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), ((math.nan, 0.4),)


def _empty_window_alone():
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), ((25.0, 0.4),)


def _one_stopped_probe():
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), ((0.5, 0.0),)


def _one_probe_at_the_law_speed():
    # v(0) = 1 under EpsilonLaw(0.25), and every seventh cell of
    # _blend_field is empty: there the blend is the exact fixed point
    return CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01), ((0.5, 1.0),)


def _stacked_model(cutoff, states):
    # the blend reads positions from the states; a program needs a finite start
    return _probe_model(cutoff, [(p if math.isfinite(p) else 0.0, w) for p, w in states])


STACKED_CASES = [
    _overlapping_supports,
    _clipped_at_the_left_end,
    _clipped_at_the_right_end,
    _nan_position,
    _empty_window,
    _one_probe,
    _forty_probes,
    _one_probe_clipped_at_the_left_end,
    _one_probe_clipped_at_the_right_end,
    _nan_position_alone,
    _empty_window_alone,
    _one_stopped_probe,
    _one_probe_at_the_law_speed,
]


@pytest.mark.parametrize("case", STACKED_CASES, ids=lambda c: c.__name__.strip("_"))
class TestStackedBlendMatchesReference:
    def test_ghosted_flux(self, case):
        cutoff, grid, states = case()
        model = _stacked_model(cutoff, states)
        rho = _ghost_buffer(_blend_field(grid))
        F = _ghosted_flux(model, grid, states, rho)
        want = reference_flux(model, states, _reference_ghosted_centers(grid), rho)
        assert F.tobytes() == want.tobytes()

    def test_one_dimensional_with_and_without_windows(self, case):
        cutoff, grid, states = case()
        model = _stacked_model(cutoff, states)
        x, rho = grid.centers, _blend_field(grid)
        want = reference_blended_speed(model, states, x, rho)
        assert eval_encoded_speed(model, states, x, rho).tobytes() == want.tobytes()
        assert eval_flux(model, states, x, rho).tobytes() == (rho * want).tobytes()
        windows = fvsolver._cell_windows(states, x[0], grid.dx, cutoff.outer, x.size)
        assert eval_flux(model, states, x, rho, windows).tobytes() == (rho * want).tobytes()

    def test_two_dimensional_x(self, case):
        # any other shapes blend as one flat C-ordered row, whatever the
        # memory order of the inputs
        cutoff, grid, states = case()
        model = _stacked_model(cutoff, states)
        centers = grid.centers
        densities = np.linspace(0.0, 1.0, 7)
        field = _blend_field(grid)
        x2 = np.stack([centers, centers], axis=1)
        rho2 = np.stack([field, 1.0 - field], axis=1)
        inputs = [
            (centers[:, None], densities[None, :]),  # (m, 1) x (1, k)
            (x2, rho2),
            # column-major inputs of the same values, and (k, m) arrays
            # transposed
            (np.asfortranarray(x2), np.asfortranarray(rho2)),
            (x2, np.asfortranarray(rho2)),
            (np.stack([centers] * 3).T, np.stack([field, 1.0 - field, 0.5 * field]).T),
        ]
        for x, rho in inputs:
            want = reference_flux(model, states, x, rho)
            # compared in C order: only the values must match, not the layout
            assert np.ascontiguousarray(eval_flux(model, states, x, rho)).tobytes() == (
                np.ascontiguousarray(want).tobytes()
            )
            speed = eval_encoded_speed(model, states, x, rho)
            want_speed = reference_blended_speed(model, states, x, rho)
            assert np.ascontiguousarray(speed).tobytes() == (
                np.ascontiguousarray(want_speed).tobytes()
            )


@pytest.mark.parametrize("n_probes", [1, 8, 40])
def test_one_cutoff_and_one_blend_per_flux_evaluation(n_probes, monkeypatch):
    # the blend's cost does not grow with the number of per-probe calls
    rng = np.random.default_rng(n_probes)
    states = tuple((float(p), 0.4) for p in rng.uniform(0.0, 1.0, n_probes))
    cutoff, grid = CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01)
    model = _stacked_model(cutoff, states)
    calls = {"cutoff": 0, "blend": 0}
    cutoff_call = CutoffProfile.__call__
    blend = model_module.harmonic_speed

    def counting_cutoff(self, xi):
        calls["cutoff"] += 1
        return cutoff_call(self, xi)

    def counting_blend(w, v):
        calls["blend"] += 1
        return blend(w, v)

    monkeypatch.setattr(CutoffProfile, "__call__", counting_cutoff)
    monkeypatch.setattr(model_module, "harmonic_speed", counting_blend)
    field = _blend_field(grid)
    for evaluate in (
        lambda: _ghosted_flux(model, grid, states, _ghost_buffer(field)),
        lambda: eval_flux(model, states, grid.centers, field),
        lambda: eval_encoded_speed(model, states, grid.centers[:, None], field[None, :5]),
    ):
        calls.update(cutoff=0, blend=0)
        evaluate()
        assert calls == {"cutoff": 1, "blend": 1}


# ---------------------------------------------------------------------------
# Disjoint windows
# ---------------------------------------------------------------------------
#
# Where no two windows share a point, ``_blended_speed`` adds each weighted
# term straight in and skips the normaliser: bit for bit the normalised
# ``np.add.at`` below, which is what every other set of windows takes.


def _normalised_blend(model, states, x, rho, windows):
    """The blend with the per-point normaliser and one ``np.add.at``."""
    idx, counts, chi, _ = _stacked_weights(model, states, x, windows)
    total = np.bincount(idx, weights=chi, minlength=x.size)
    v = model.speed_law(rho)
    vw = v[idx]
    speeds = np.repeat(np.array([w for _, w in states], dtype=float), counts)
    out = v + 0.0
    np.add.at(out, idx, (chi / np.maximum(total[idx], 1.0)) * (harmonic_speed(speeds, vw) - vw))
    return out


@st.composite
def _disjoint_blends(draw):
    """1-8 probes on disjoint windows in a shuffled order: some adjacent
    (one stopping where the next starts), some empty, the first clipped
    at the left end, the last at the right; probe speeds of 0, of the
    law's speed at a window point, or anything up to 2."""
    n = draw(st.integers(1, 8))
    stop = draw(st.integers(0, 3))
    spans = []
    for _ in range(n):
        start = stop + draw(st.integers(0, 4))
        stop = start + draw(st.integers(0, 12))
        spans.append((start, stop))
    m = max(stop + draw(st.integers(-3, 4)), 4)
    x = np.linspace(-0.1, 0.02 * m, m)
    rho = np.array(
        draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=m, max_size=m))
    )
    law = draw(st.sampled_from([Greenshields(1.0), EpsilonLaw(0.25)]))
    states = []
    for start, stop in spans:
        inside = range(m)[start:stop]
        centre = x[inside[len(inside) // 2]] if inside else draw(st.floats(-1.0, 1.0))
        p = centre + draw(st.floats(-0.2, 0.2))
        at_law_speed = float(law(rho[draw(st.sampled_from(inside))])) if inside else 0.5
        w = draw(st.sampled_from([0.0, at_law_speed]) | st.floats(0.0, 2.0))
        states.append((p, w))
    order = draw(st.permutations(range(n)))
    windows = [slice(*spans[i]) for i in order]
    states = tuple(states[i] for i in order)
    probes = tuple(ProbeTrajectory(p, (ExogenousSpeed(0.0, None, w),)) for p, w in states)
    model = FluxModel(law, cutoff=CutoffProfile(0.05, 0.15), probes=probes)
    return model, states, x, rho, windows


@given(_disjoint_blends())
def test_disjoint_windows_blend_as_the_normalised_sum(blend):
    model, states, x, rho, windows = blend
    assert _stacked_weights(model, states, x, windows)[3] is None
    got = model_module._blended_speed(model, states, x, rho, windows)
    assert got.tobytes() == _normalised_blend(model, states, x, rho, windows).tobytes()


@pytest.mark.parametrize(
    "states, windows",
    [
        (((0.3, 0.2), (0.4, 0.5)), [slice(20, 41), slice(40, 60)]),  # one shared point
        (((0.3, 0.2), (0.4, 0.5)), [slice(20, 60), slice(30, 40)]),  # one inside another
        (((0.3, 0.2), (0.4, 0.5)), None),
        (((0.3, 0.2),), None),
        (((math.nan, 0.2),), [slice(0, 100)]),
        (((0.3, 0.2), (math.nan, 0.5)), [slice(20, 40), slice(0, 100)]),
        (((0.3, 0.2), (0.6, 0.5)), [slice(20, 40, 2), slice(50, 70)]),  # not contiguous
    ],
    ids=["shared_point", "nested", "none", "one_probe_none", "nan", "nan_among_two", "strided"],
)
def test_other_windows_take_the_normalised_sum(states, windows):
    cutoff, grid = CutoffProfile(0.05, 0.15), Grid.from_extent(0.0, 1.0, 0.01)
    model = _stacked_model(cutoff, states)
    x, rho = grid.centers, _blend_field(grid)
    assert _stacked_weights(model, states, x, windows)[3] is not None
    got = model_module._blended_speed(model, states, x, rho, windows)
    assert got.tobytes() == _normalised_blend(model, states, x, rho, windows).tobytes()


# ---------------------------------------------------------------------------
# The memoised vertex slopes
# ---------------------------------------------------------------------------


def _forget_vertex_slopes():
    fvsolver._law_slope.cache_clear()
    fvsolver._vertex_slope.cache_clear()


def _no_bound(*args):
    raise AssertionError("a warm cfl_dt computed a slope bound")


# a NaN position is no probe the vertex bound counts, and no bound the scan
# can take a maximum with, so those cases have no reference step; nor has
# a lone probe that reaches no cell, where the scan keeps the law's
# one-sided differences, about 1e-7 off its exact slope at full density
@pytest.mark.parametrize(
    "case",
    [
        c
        for c in dict.fromkeys(BLEND_CASES + STACKED_CASES)
        if c not in (_nan_position, _nan_position_alone, _empty_window_alone)
    ],
    ids=lambda c: c.__name__.strip("_"),
)
@pytest.mark.parametrize("rho_range", [FULL, (0.3, 0.7)])
def test_cfl_dt_cold_and_warm_equals_the_reference_scan(case, rho_range, monkeypatch):
    cutoff, grid, states = case()
    model = _stacked_model(cutoff, states)
    _forget_vertex_slopes()
    want = cfl_dt(model, grid, states, rho_range)
    _assert_matches_the_reference_scan(case, want, model, grid, states, rho_range)
    # every speed and the range seen: the step reads the memos and does no
    # array work, also for a range that snaps to the same lattice points
    monkeypatch.setattr(fvsolver, "_peak_slope", _no_bound)
    assert cfl_dt(model, grid, states, rho_range) == want
    assert cfl_dt(model, grid, states[::-1], rho_range) == want
    lo, hi = rho_range
    assert cfl_dt(model, grid, states, (lo + 1e-3 * (lo < hi), hi - 1e-3 * (lo < hi))) == want


def test_warm_vertex_bound_is_the_cold_bound():
    rng = np.random.default_rng(7)
    for _ in range(300):
        model, grid, states = _random_cfl_case(rng)
        rho_range = _random_range(rng)
        _forget_vertex_slopes()
        cold = cfl_dt(model, grid, states, rho_range)
        assert cfl_dt(model, grid, states, rho_range) == cold
        # a copy's law is equal (a tabulated one: a new key): the same step
        assert cfl_dt(copy.deepcopy(model), grid, states, rho_range) == cold
        reference = reference_cfl_dt(model, grid, states, CFL_DEFAULT, rho_range)
        assert cold <= reference * (1.0 + 1e-12)  # as in the test above


def test_vertex_memo_stays_within_its_bound_on_a_long_coupled_run():
    # four traffic-coupled probes read a new density, so take a new speed,
    # nearly every step, and stay on the road to the end: more distinct
    # speeds than the memo keeps
    grid = Grid.from_extent(0.0, 4.0, 0.01)
    probes = tuple(ProbeTrajectory(x, (ModelCoupled(0.0, None),)) for x in (0.3, 0.7, 1.1, 1.5))
    model = FluxModel(Greenshields(1.0), cutoff=CutoffProfile(0.05, 0.15), probes=probes)
    datum = PiecewiseConstant.from_blocks(0.3, [(0.2, 0.6, 0.9), (0.9, 1.5, 0.7)])
    _forget_vertex_slopes()
    result = run(model, grid, datum, 6.0, n_snapshots=2)
    info = fvsolver._vertex_slope.cache_info()
    assert info.maxsize == fvsolver._VERTEX_MEMO_SIZE
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize
    # one law, kept once per lattice range a step read, and for [0, 1],
    # which the step budget reads
    field = init_field(grid, datum)
    ranges = [(field.min(), field.max()), *result.log[:-1, 4:6]]
    lattice = {(math.floor(lo * 64), math.ceil(hi * 64)) for lo, hi in ranges}
    assert fvsolver._law_slope.cache_info().currsize == len(lattice | {(0, 64)}) > 1
    # the same run on the full memo takes the same steps
    again = run(model, grid, datum, 6.0, n_snapshots=2)
    assert again.log.tobytes() == result.log.tobytes()
    assert fvsolver._vertex_slope.cache_info().currsize <= info.maxsize


def test_non_finite_blended_slope_raises_on_every_call():
    # 2 w v overflows: the memoised NaN slope still raises, cold and warm
    grid = Grid.from_extent(0.0, 1.0, 0.01)
    probe = ProbeTrajectory(0.5, (ModelCoupled(0.0, None),))
    model = FluxModel(speed_law=Greenshields(1e200), probes=(probe,))
    _forget_vertex_slopes()
    for _ in range(3):
        with pytest.raises(StabilityError, match="not finite"):
            cfl_dt(model, grid, ((0.5, 1e200),), FULL)
    assert fvsolver._vertex_slope.cache_info().hits >= 2


# ---------------------------------------------------------------------------
# A NaN slope, wherever it stands
# ---------------------------------------------------------------------------
#
# Python's ``max`` keeps a NaN only in first place; the slope bounds must
# keep it in any place, as ``np.max`` does.


@pytest.mark.parametrize("k", range(4))
def test_max_keeping_nan_wherever_it_stands(k):
    values = [0.5, 2.0, 1.0, 0.25]
    values[k] = math.nan
    assert math.isnan(model_module._max_keeping_nan(values))
    assert model_module._max_keeping_nan(values[:k] + values[k + 1 :]) == max(
        values[:k] + values[k + 1 :]
    )


@dataclass(frozen=True)
class _PiecesLaw(SpeedLaw):
    """A law given by its pieces alone."""

    table: tuple

    def __call__(self, rho):
        raise AssertionError("the slope bounds read the pieces only")

    @property
    def v_max(self):
        return 1.0

    @property
    def pieces(self):
        return self.table


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("w", [None, 0.0, 0.5])
def test_peak_slope_keeps_a_nan_piece_wherever_it_stands(k, w):
    # three pieces of v = 1 - rho, the k-th with a NaN coefficient: its two
    # ends give the k-th pair of the slopes taken the maximum of
    table = [(i / 3.0, (i + 1) / 3.0, (1.0, -1.0, 0.0)) for i in range(3)]
    table[k] = (table[k][0], table[k][1], (math.nan, -1.0, 0.0))
    assert math.isnan(model_module._peak_slope(_PiecesLaw(tuple(table)), 0.0, 1.0, w)[0])


@pytest.mark.parametrize("k", range(3))
def test_vertex_slope_keeps_a_nan_wherever_it_stands(k, monkeypatch):
    # NaN in the probe's slope, in its shift at lo or in its shift at hi:
    # Python's max over (1, 2, 9) would drop the last two
    bounds = [1.0, 2.0, 3.0]
    bounds[k] = math.nan

    def peak_slope(law, lo, hi, w=None):
        return (1.0, 1.0, 1.0) if w is None or (lo, hi) == (0.0, 1.0) else tuple(bounds)

    grid = Grid.from_extent(0.0, 1.0, 0.01)
    probe = ProbeTrajectory(0.5, (ModelCoupled(0.0, None),))
    model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
    _forget_vertex_slopes()
    monkeypatch.setattr(fvsolver, "_peak_slope", peak_slope)
    try:
        assert math.isnan(fvsolver._vertex_slope(model.speed_law, 0.5, 16, 48)[0])
        message = "blended-flux slope is not finite near the coupled probes: nan"
        with pytest.raises(StabilityError, match=message):
            cfl_dt(model, grid, ((0.5, 0.5),), (0.25, 0.75))
    finally:
        _forget_vertex_slopes()


@pytest.mark.parametrize("rho_range", [FULL, (0.0, 0.25)], ids=["nan_piece_in_range", "outside"])
def test_nan_law_slope_raises_without_coupled_probes(nan_slope_law, rho_range):
    # the law's own slope over [0, 1] is NaN: no dt = nan, even where the
    # field's range misses the NaN piece
    grid = Grid.from_extent(0.0, 1.0, 0.01)
    model = FluxModel(speed_law=nan_slope_law)
    with pytest.raises(StabilityError, match=r"flux slope of speed law NaNSlopeLaw\(\) is not"):
        cfl_dt(model, grid, (), rho_range)


def test_nan_law_slope_is_the_runs_input_error(nan_slope_law):
    # rejected before the first step, not as a CFL violation with dt = nan
    grid = Grid.from_extent(0.0, 1.0, 0.01)
    model = FluxModel(speed_law=nan_slope_law)
    message = r"speed law NaNSlopeLaw\(\) has a non-finite flux slope over \[0, 1\]: nan"
    with pytest.raises(DomainError, match=message):
        fvsolver.check_run(model, grid, 1.0)
    with pytest.raises(DomainError, match=message):
        run(model, grid, PiecewiseConstant([0.5], [0.2, 0.6]), 1.0)
