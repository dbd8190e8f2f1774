"""Finite-volume machinery: grids, cell averages, CFL steps, full runs."""

import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

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
    run_scenario,
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


class TestCflDt:
    def test_probe_free_linear_law(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        assert cfl_dt(model, grid, model.probe_states(0.0)) == CFL_DEFAULT * grid.dx

    def test_quadratic_law_steepest_at_full_density(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=EpsilonLaw(1.0 / 3.0))
        # |f'(1)| = 4/3 dominates the probe-free characteristic speed
        assert cfl_dt(model, grid, model.probe_states(0.0)) == pytest.approx(
            CFL_DEFAULT * grid.dx * 0.75, rel=1e-12
        )

    def test_moving_probe_halves_the_step(self):
        # inside the cutoff plateau the flux slope at full density doubles
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, 0.5),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        assert cfl_dt(model, grid, model.probe_states(0.0)) == CFL_DEFAULT * grid.dx / 2.0

    @pytest.mark.parametrize(
        "speed, factor", [(0.0, 1.0), (1e-9, 0.5)], ids=["stopped", "creeping"]
    )
    def test_endpoint_slope_counts_only_moving_probes(self, speed, factor):
        # at rho = 1 a probe with any positive speed doubles the flux slope,
        # in a band the sampled scan misses; a stopped probe flattens it
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, speed),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        assert cfl_dt(model, grid, ((0.5, speed),)) == CFL_DEFAULT * grid.dx * factor

    def test_distant_probe_does_not_restrict(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(10.0, (ExogenousSpeed(0.0, None, 0.5),))
        model = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        assert cfl_dt(model, grid, model.probe_states(0.0)) == CFL_DEFAULT * grid.dx

    def test_non_finite_blended_slope_raises(self):
        # 2 w v overflows in the harmonic mean, so the sampled slopes are
        # NaN; max(S, nan) would keep S and let the step overshoot
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        probe = ProbeTrajectory(0.5, (ModelCoupled(0.0, None),))
        model = FluxModel(speed_law=Greenshields(1e200), probes=(probe,))
        with np.errstate(all="ignore"), pytest.raises(StabilityError, match="not finite"):
            cfl_dt(model, grid, ((0.5, 1e200),))

    def test_cfl_number_validated(self):
        grid = quarter_grid()
        model = FluxModel(speed_law=Greenshields(1.0))
        with pytest.raises(DomainError):
            cfl_dt(model, grid, model.probe_states(0.0), cfl=0.0)
        with pytest.raises(DomainError):
            cfl_dt(model, grid, model.probe_states(0.0), cfl=1.5)


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

    def test_mass_change_matches_boundary_rates(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        field = init_field(grid, PiecewiseConstant([0.5], [0.1, 0.7]))
        dt = cfl_dt(model, grid, model.probe_states(0.0))
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

    def test_snapshot_cadence_and_diagnostics(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        result = run(model, grid, self._bump_datum(), 0.2, n_snapshots=5)
        np.testing.assert_allclose(result.snapshot_times, np.linspace(0.0, 0.2, 5))
        assert len(result.diagnostics) == len(result.log)
        assert result.diagnostics[-1][0] == len(result.diagnostics)
        assert result.diagnostics[-1][1] == pytest.approx(0.2)
        assert result.field_at(0.1).shape == (grid.n_cells,)
        with pytest.raises(DomainError):
            result.field_at(0.123)

    def test_field_at_returns_the_nearest_snapshot(self):
        # snapshots 1e-9 apart: each lies within 1e-9 of its neighbours too
        scenario = get_scenario("calibration").with_overrides(
            dx=0.01, t_end=1e-8, n_snapshots=11
        )
        result = run_scenario(scenario)
        for t, field in result.snapshots:
            assert result.field_at(t) is field
        assert result.field_at(5e-9) is result.snapshots[5][1]
        for t in (1.2e-8, -2e-9, math.nan):
            with pytest.raises(DomainError):
                result.field_at(t)

    def test_mass_conserved_with_matched_boundaries(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        result = run(model, grid, self._bump_datum(), 0.1, n_snapshots=2)
        assert result.mass_drift() <= 1e-13

    def test_balance_residual_tracks_outflow(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        datum = PiecewiseConstant([0.5], [0.1, 0.7])
        result = run(model, grid, datum, 0.3, n_snapshots=2)
        assert result.mass_drift() > 1e-4  # mass genuinely leaves
        assert result.mass_balance_residual() <= 1e-13

    def test_nan_mass_is_reported_not_hidden(self):
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        result = run(model, grid, self._bump_datum(), 0.05, n_snapshots=2)
        log = result.log.copy()
        log[0, 3] = math.nan
        poisoned = replace(result, log=log)
        assert math.isnan(poisoned.mass_drift())
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
        # the law alone caps each step at 0.009, so 12 steps could do; a
        # moving probe halves the steps, which only the step loop finds out
        probe = ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, 0.5),))
        coupled = FluxModel(speed_law=Greenshields(1.0), probes=(probe,))
        monkeypatch.setattr(fvsolver, "MAX_STEPS", 15)
        with pytest.raises(StabilityError, match="MAX_STEPS=15 steps at t="):
            run(coupled, grid, self._bump_datum(), 0.1, n_snapshots=2)

    @pytest.mark.parametrize(
        "cfl, limit", [(CFL_DEFAULT, 1), (CFL_DEFAULT, 11), (1e-300, 2_000_000)]
    )
    def test_run_that_certainly_exceeds_max_steps_rejected_up_front(
        self, monkeypatch, cfl, limit
    ):
        # no step is longer than cfl * dx / S_law = 0.009 here, so t_end =
        # 0.1 takes at least 11.1 steps
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        monkeypatch.setattr(fvsolver, "init_field", None)  # nothing allocated
        monkeypatch.setattr(fvsolver, "MAX_STEPS", limit)
        with pytest.raises(DomainError, match=f"MAX_STEPS={limit} steps"):
            run(model, grid, self._bump_datum(), 0.1, n_snapshots=2, cfl=cfl)

    def test_run_at_its_step_count_completes(self, monkeypatch):
        # the up-front bound is a lower bound: the run that takes 12 steps
        # still runs with MAX_STEPS = 12
        grid = Grid.from_extent(0.0, 1.0, 0.01)
        model = FluxModel(speed_law=Greenshields(1.0))
        monkeypatch.setattr(fvsolver, "MAX_STEPS", 12)
        result = run(model, grid, self._bump_datum(), 0.1, n_snapshots=2)
        assert len(result.log) == 12

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
        assert result.snapshot_times == list(np.linspace(0.0, t_end, 6))
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
        result = run(model, grid, self._bump_datum(), 0.1, n_snapshots=2)
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
# the flux once per step: grid centres rebuilt on every call, the CFL
# samples and the law's slope recomputed every step, a separate four-point
# flux evaluation for the boundary rates, the density checked again inside
# the blend, and the diagnostics' range read from the clipped field.  Its
# blend computes the cutoff weights at the broadcast shape of ``(x, rho)``
# and the CFL endpoint slope sums them again, as the code before the shared
# weight function did; probe states are passed as an argument.


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


def reference_cfl_dt(model, grid, states, cfl):
    rho = np.linspace(0.0, 1.0, 21)
    S = float(np.max(np.abs(model.speed_law.flux_slope(rho))))
    if not states:
        return cfl * grid.dx / max(S, 1e-10)
    centers = reference_centers(grid)
    reach = model.cutoff.outer + grid.dx
    near = np.zeros(centers.shape, dtype=bool)
    for p, _ in states:
        near |= np.abs(centers - p) <= reach
    x = centers[near]
    if x.size:
        h = 1e-7
        lo = np.clip(rho - h, 0.0, 1.0)
        hi = np.clip(rho + h, 0.0, 1.0)
        xc = x[:, None]
        slopes = (
            reference_flux(model, states, xc, hi[None, :])
            - reference_flux(model, states, xc, lo[None, :])
        ) / (hi - lo)[None, :]
        S = max(S, float(np.max(np.abs(slopes))))
        chi_tot = np.zeros_like(x)
        signed = np.zeros_like(x)
        for p, w in states:
            c = model.cutoff(x - p)
            chi_tot += c
            signed += c * (2.0 * float(w > 0.0) - 1.0)
        scale = np.maximum(chi_tot, 1.0)
        end_slope = np.abs(float(model.speed_law.flux_slope(1.0))) * np.abs(
            1.0 + signed / scale
        )
        S = max(S, float(np.max(end_slope)))
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
        dt = reference_cfl_dt(model, grid, states, cfl)
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


def reference_mass_drift(result):
    masses = np.array([result.initial_mass] + [row[3] for row in result.log.tolist()])
    return float(np.max(np.abs(masses - masses[0])))


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
        # 3000 steps of a 50-cell road with an observer probe: the log row
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
        assert len(result.log) == 3000
        assert (peak - base) / len(result.log) < 128.0

    @pytest.mark.parametrize(
        "case", [_probe_free_case, _calibration_case, _fleet_case], ids=lambda c: c.__name__
    )
    def test_mass_figures_equal_the_per_step_loop(self, case):
        model, grid, datum, t_end = case()
        result = run(model, grid, datum, t_end, n_snapshots=6)
        residual = result.mass_balance_residual()
        drift = result.mass_drift()
        assert residual.hex() == reference_mass_balance_residual(result).hex()
        assert drift.hex() == reference_mass_drift(result).hex()
        if case is _probe_free_case:
            # waves cross both boundaries: both rates move, mass leaves
            assert np.ptp(result.log[:, 6]) > 0.0 and np.ptp(result.log[:, 7]) > 0.0
            assert drift > 1e-3 and 0.0 < residual <= 1e-13


class TestStepLoopMatchesReference:
    @pytest.mark.parametrize(
        "case", [_probe_free_case, _calibration_case, _fleet_case], ids=lambda c: c.__name__
    )
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
        dt = cfl_dt(model, grid, states)
        assert dt == reference_cfl_dt(model, grid, states, CFL_DEFAULT)
        assert boundary_flux_rates(model, grid, states, field) == reference_boundary_rates(
            model, grid, states, field
        )
        new = lxf_step(model, grid, states, field, dt)
        assert new.tobytes() == reference_lxf_step(model, grid, states, field, dt).tobytes()

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

    def test_cfl_dt_equals_the_reference_scan(self, case, monkeypatch):
        # the vertex bound evaluates no flux on the cells
        cutoff, grid, states = case()
        model = _probe_model(cutoff, states)
        calls = []
        monkeypatch.setattr(fvsolver, "eval_flux", lambda *args: calls.append(args))
        assert cfl_dt(model, grid, states) == reference_cfl_dt(model, grid, states, CFL_DEFAULT)
        assert calls == []

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
# ``cfl_dt`` bounds the blended flux slope by the slopes of the vertex
# fluxes instead of scanning the cells near the probes, as
# ``reference_cfl_dt`` does.  Where some cell carries one probe at weight 1
# the two agree; elsewhere the bound may only give the shorter step.


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


def test_vertex_bound_is_never_less_safe_than_the_scan():
    rng = np.random.default_rng(20141)
    n_cases = 2000
    smaller = 0
    kinds = ["overlap", "near_end", "narrow_plateau", "stopped", "creeping", "fast"]
    seen = dict.fromkeys(kinds, 0)
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
        dt = cfl_dt(model, grid, states)
        reference = reference_cfl_dt(model, grid, states, CFL_DEFAULT)
        assert dt <= reference, (model, grid, states)
        smaller += dt < reference
    assert min(seen.values()) >= 200, seen
    # the bound is the scan's own maximum on most configurations
    assert smaller <= 0.4 * n_cases


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
# ``_blended_speed`` blends every probe's window in one pass: the windows'
# indices concatenated in probe order, one cutoff evaluation, a bincount
# normaliser and one ``np.add.at``.  ``reference_blended_speed`` above loops
# over the probes on the whole array; the two must agree byte for byte.


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
# The memoised vertex slopes
# ---------------------------------------------------------------------------


def _forget_vertex_slopes():
    fvsolver._law_vertex.cache_clear()
    fvsolver._vertex_slope.cache_clear()


def _no_stencil(F):
    raise AssertionError("a warm cfl_dt evaluated the stencil")


# a NaN position is no probe the vertex bound counts, and no bound the scan
# can take a maximum with, so that case has no reference step
@pytest.mark.parametrize(
    "case",
    [c for c in dict.fromkeys(BLEND_CASES + STACKED_CASES) if c is not _nan_position],
    ids=lambda c: c.__name__.strip("_"),
)
def test_cfl_dt_cold_and_warm_equals_the_reference_scan(case, monkeypatch):
    cutoff, grid, states = case()
    model = _stacked_model(cutoff, states)
    want = reference_cfl_dt(model, grid, states, CFL_DEFAULT)
    _forget_vertex_slopes()
    assert cfl_dt(model, grid, states) == want
    # every speed seen: the step reads the memo and does no array work
    monkeypatch.setattr(fvsolver, "_stencil_slope", _no_stencil)
    assert cfl_dt(model, grid, states) == want
    assert cfl_dt(model, grid, states[::-1]) == want


def test_warm_vertex_bound_is_the_cold_bound():
    rng = np.random.default_rng(7)
    for _ in range(300):
        model, grid, states = _random_cfl_case(rng)
        _forget_vertex_slopes()
        cold = cfl_dt(model, grid, states)
        assert cfl_dt(model, grid, states) == cold
        # a copy's law is equal (a tabulated one: a new key): the same step
        assert cfl_dt(copy.deepcopy(model), grid, states) == cold
        assert cold <= reference_cfl_dt(model, grid, states, CFL_DEFAULT)


def test_vertex_memo_stays_within_its_bound_on_a_long_coupled_run():
    # two traffic-coupled probes read a new density, so take a new speed,
    # nearly every step: more distinct speeds than the memo keeps
    grid = Grid.from_extent(0.0, 2.0, 0.01)
    probes = (
        ProbeTrajectory(0.3, (ModelCoupled(0.0, None),)),
        ProbeTrajectory(1.1, (ModelCoupled(0.0, None),)),
    )
    model = FluxModel(Greenshields(1.0), cutoff=CutoffProfile(0.05, 0.15), probes=probes)
    datum = PiecewiseConstant.from_blocks(0.3, [(0.2, 0.6, 0.9), (0.9, 1.5, 0.7)])
    _forget_vertex_slopes()
    result = run(model, grid, datum, 6.0, n_snapshots=2)
    info = fvsolver._vertex_slope.cache_info()
    assert info.maxsize == fvsolver._VERTEX_MEMO_SIZE
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize
    assert fvsolver._law_vertex.cache_info().currsize == 1
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
            cfl_dt(model, grid, ((0.5, 1e200),))
    assert fvsolver._vertex_slope.cache_info().hits >= 2
