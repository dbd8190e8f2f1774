"""The benchmark's workloads: seeded inputs, one timed operation each, and
the correctness gates every operation's output must pass.

A workload is built once per process from the seed (that is set-up); its
``op()`` is the timed operation and returns what ``check()`` needs, the
workload's unit of work, and the seconds that work took.  ``check()`` runs
outside the timed region and returns the gates the output failed.

Every call into the library goes through a module attribute
(``scenarios.run_scenario``, ``fronttrack.ft_evolve``, ...) so that the
tracer in ``tracing.py`` can replace those attributes and see the calls.
The library receives only the generated ``Scenario`` or
``PiecewiseConstant``; the seed stays on this side.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from probeflow import fronttrack, inverse, riemann, scenarios
from probeflow import io as pf_io
from probeflow.fronttrack import PiecewiseConstant
from probeflow.model import ExogenousSpeed, Greenshields, ModelCoupled, ProbeTrajectory
from probeflow.scenarios import Scenario

#: Mass-balance residual a finite-volume run may leave (rounding only).
MASS_TOL = 1e-10


@dataclass
class Output:
    """One operation's output, its units of work and the seconds they took."""

    value: object
    work: float
    work_s: float


def _gate(failures, ok, message):
    if not ok:
        failures.append(message)


def _check_field_run(result, failures):
    """Gates shared by every finite-volume run: mass balance and bounds."""
    residual = result.mass_balance_residual()
    _gate(failures, residual <= MASS_TOL, f"mass balance residual {residual:.3e}")
    lo = min(row[4] for row in result.diagnostics)
    hi = max(row[5] for row in result.diagnostics)
    _gate(failures, 0.0 <= lo and hi <= 1.0, f"densities left [0, 1]: [{lo}, {hi}]")


def _validated(scenario):
    findings = scenario.validate()
    if findings:
        raise ValueError(f"{scenario.name}: " + "; ".join(f.message for f in findings))
    return scenario


def _cell_updates(result):
    return len(result.diagnostics) * result.grid.n_cells


# ---------------------------------------------------------------------------
# queue: the headline experiment and the `probeflow run` path
# ---------------------------------------------------------------------------

class Queue:
    """``fig_int32`` over its full horizon, exported and read back."""

    def __init__(self, seed, scratch_dir):
        del seed  # the reference experiment has fixed inputs
        self.scenario = _validated(scenarios.get_scenario("fig_int32"))
        self.out_dir = os.path.join(scratch_dir, "queue")

    def op(self):
        t0 = time.perf_counter()
        result = scenarios.run_scenario(self.scenario)
        solver_s = time.perf_counter() - t0
        bundle = pf_io.write_bundle(self.out_dir, result, self.scenario)
        read_back = (
            pf_io.read_density_csv(bundle.density_csv),
            pf_io.read_probe_csv(bundle.probe_csv),
            pf_io.read_diagnostics_csv(bundle.diagnostics_csv),
            pf_io.read_pgm(bundle.heatmap),
            pf_io.read_metadata(bundle.metadata),
        )
        return Output((result, read_back), _cell_updates(result), solver_s)

    def check(self, value):
        result, (density, probe, diagnostics, image, metadata) = value
        steps = len(result.diagnostics)
        n_cells = result.grid.n_cells
        n_snap = len(result.snapshots)
        failures = []
        _check_field_run(result, failures)
        # the same criterion as the acceptance test of this experiment
        stop_x = result.probe_path(0)[-1][1]
        centers = result.grid.centers
        final = result.final_field
        behind = final[(centers > stop_x - 10.0 * result.grid.dx) & (centers < stop_x)]
        ahead = final[(centers > stop_x) & (centers < stop_x + 0.2)]
        _gate(
            failures,
            behind.size > 0 and float(behind.max()) >= 0.95,
            "no standing queue behind the stopped probe",
        )
        _gate(
            failures,
            ahead.size > 0 and float(ahead.min()) <= 0.05,
            "road ahead of the stopped probe not emptied",
        )
        _gate(
            failures,
            len(density) == n_snap
            and all(len(rhos) == n_cells for _, _, rhos in density)
            and np.array_equal(density[-1][2], final),
            "density.csv does not read back",
        )
        _gate(
            failures,
            sorted(probe) == [0] and probe[0].shape == (steps, 4),
            "probe.csv does not read back",
        )
        _gate(failures, len(diagnostics) == steps, "diagnostics.csv does not read back")
        _gate(failures, image.shape == (n_snap, n_cells), "density.pgm does not read back")
        _gate(
            failures,
            metadata["run"]["steps"] == steps and metadata["run"]["n_snapshots"] == n_snap,
            "metadata.json does not read back",
        )
        return failures


# ---------------------------------------------------------------------------
# fleet: many probes, most of them blending into the flux
# ---------------------------------------------------------------------------

def fleet_scenario(seed, n_probes=8, t_end=0.5):
    """A seeded many-probe road: ``[0, 8]`` at ``dx = 2.5e-3``.

    Every fourth probe rides the traffic; the others follow random
    stop-and-go programs.  The initial density is six random blocks on a
    random background.  Probes start one per slot, clear of the
    boundaries' cutoff support.
    """
    rng = np.random.default_rng(seed)
    background = float(rng.uniform(0.2, 0.4))
    blocks = []
    for i in range(6):
        a = i * 8.0 / 6.0 + float(rng.uniform(0.1, 0.4))
        width = float(rng.uniform(0.3, 0.7))
        blocks.append((a, a + width, float(rng.uniform(0.5, 0.95))))
    datum = PiecewiseConstant.from_blocks(background, blocks)
    slot = 7.0 / n_probes
    probes = []
    for i in range(n_probes):
        x0 = 0.5 + i * slot + float(rng.uniform(0.0, 0.5)) * slot
        if i % 4 == 0:
            probes.append(ProbeTrajectory(x0, (ModelCoupled(0.0, None),)))
            continue
        cuts = [0.0] + sorted(float(c) for c in rng.uniform(0.0, t_end, 3)) + [None]
        program = []
        for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
            speed = 0.0 if j % 2 else float(rng.uniform(0.2, 0.8))
            program.append(ExogenousSpeed(a, b, speed))
        probes.append(ProbeTrajectory(x0, program))
    return Scenario(
        name=f"fleet_{seed}",
        description="Seeded stop-and-go fleet over a blocky density profile.",
        x_min=0.0,
        x_max=8.0,
        dx=2.5e-3,
        t_end=t_end,
        law=Greenshields(1.0),
        datum=datum,
        probes=tuple(probes),
    )


class Fleet:
    """A seeded eight-probe road run to ``t_end = 0.5``."""

    def __init__(self, seed, scratch_dir):
        del scratch_dir
        self.scenario = _validated(fleet_scenario(seed))

    def op(self):
        t0 = time.perf_counter()
        result = scenarios.run_scenario(self.scenario)
        solver_s = time.perf_counter() - t0
        return Output(result, _cell_updates(result), solver_s)

    def check(self, result):
        failures = []
        _check_field_run(result, failures)
        return failures


# ---------------------------------------------------------------------------
# calibrate: many short runs with observer probes
# ---------------------------------------------------------------------------

class Calibrate:
    """Slope calibration: a nine-point scan plus 20 golden-section steps.

    ``workers=1`` is passed explicitly so ``PROBEFLOW_THREADS`` cannot
    change the workload.
    """

    V_LO, V_HI, N = 0.5, 2.0, 8

    def __init__(self, seed, scratch_dir):
        del seed, scratch_dir  # the calibration scenario has fixed inputs
        self.scenario = _validated(scenarios.get_scenario("calibration"))

    def op(self):
        scenario = self.scenario
        refined = 0

        def evaluator(v):
            nonlocal refined
            refined += 1
            return inverse.evaluate_candidate(scenario, v)

        t0 = time.perf_counter()
        scan = inverse.scan_E(scenario, self.V_LO, self.V_HI, self.N, workers=1)
        best = inverse.minimize_E(scan.samples, refine_iters=20, evaluator=evaluator)
        elapsed = time.perf_counter() - t0
        return Output(best, len(scan.v_values) + refined, elapsed)

    def check(self, best):
        # the criterion of the calibration verification suite
        tol = (self.V_HI - self.V_LO) / self.N + 1e-3
        if abs(best.v_best - 1.2) <= tol and not best.on_boundary:
            return []
        return [f"slope 1.2 not recovered: {best.v_best} (boundary={best.on_boundary})"]


# ---------------------------------------------------------------------------
# oracle: exact front tracking and Riemann solutions, no finite volumes
# ---------------------------------------------------------------------------

#: Dyadic grid exponent of the oracle datum's states.
ORACLE_N = 8


def oracle_datum(seed, n_blocks=25, n=ORACLE_N):
    """A seeded dyadic datum of ``2 * n_blocks`` jumps on ``[0, 8]``.

    Blocks rise from a background of 1/8 to levels that are a shuffled,
    fixed set of grid values, so every seed starts from the same number of
    fronts and the tracking cost hardly depends on the seed; block
    positions and widths are random within fixed slots.  Jump positions
    sit on a 1/1024 lattice.
    """
    rng = np.random.default_rng(seed)
    k = 2**n
    levels = np.linspace(k // 4, k // 2, n_blocks).round().astype(int)
    rng.shuffle(levels)
    slot = 8.0 / n_blocks
    blocks = []
    for i, level in enumerate(levels):
        a = round((i + float(rng.uniform(0.05, 0.25))) * slot * 1024.0) / 1024.0
        b = round((a + float(rng.uniform(0.3, 0.6)) * slot) * 1024.0) / 1024.0
        blocks.append((a, b, level / k))
    return PiecewiseConstant.from_blocks((k // 8) / k, blocks)


class Oracle:
    """Front tracking of a 50-jump dyadic datum to ``t = 2``, and every jump
    solved as a Riemann problem and compared with single-jump tracking."""

    T_END = 2.0
    #: Similarity coordinates at which Riemann solutions are compared.
    XI = np.linspace(-1.1, 1.1, 2001)

    def __init__(self, seed, scratch_dir):
        del scratch_dir
        self.law = Greenshields(1.0)
        self.datum = oracle_datum(seed)
        if self.datum.quantize(ORACLE_N).datum.values != self.datum.values:
            raise ValueError("oracle datum is not on the dyadic grid")

    def op(self):
        law, datum = self.law, self.datum
        t0 = time.perf_counter()
        state = fronttrack.from_datum(law, datum, ORACLE_N)
        solution = fronttrack.ft_evolve(state, self.T_END)
        track_s = time.perf_counter() - t0
        worst = 0.0
        for rho_l, rho_r in zip(datum.values, datum.values[1:]):
            exact = riemann.solve_riemann(law, rho_l, rho_r)
            exact_xi = riemann.sample_solution(exact, self.XI)
            single = PiecewiseConstant([0.0], [rho_l, rho_r])
            tracked = fronttrack.ft_evolve(
                fronttrack.from_datum(law, single, ORACLE_N), 1.0
            ).sample(1.0, self.XI)
            worst = max(worst, float(np.max(np.abs(tracked - exact_xi))))
        return Output((solution, worst), len(solution.collisions), track_s)

    def check(self, value):
        solution, worst = value
        failures = []
        lo, hi = self.datum.range()
        tv = self.datum.tv()
        for epoch in solution.epochs:
            if epoch.tv() > tv + 1e-12:
                failures.append(f"total variation grew at t={epoch.time}")
            tv = epoch.tv()
            e_lo, e_hi = epoch.range()
            if e_lo < lo or e_hi > hi:
                failures.append(f"range left [{lo}, {hi}] at t={epoch.time}")
        _gate(
            failures,
            worst <= 2.0 * 2.0**-ORACLE_N,
            f"single-jump tracking off the exact Riemann solution by {worst}",
        )
        return failures


#: Workload name -> (class, the unit of work behind ``work_per_s``).
WORKLOADS = {
    "queue": (Queue, "cell_updates"),
    "fleet": (Fleet, "cell_updates"),
    "calibrate": (Calibrate, "evals"),
    "oracle": (Oracle, "collisions"),
}
