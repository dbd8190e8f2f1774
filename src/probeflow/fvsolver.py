"""Finite-volume evolution of the probe-coupled conservation law.

A uniform grid carries cell-averaged densities; each step applies the
Lax-Friedrichs update
``rho_j' = (rho_{j-1} + rho_{j+1}) / 2 - dt/(2 dx) (F_{j+1} - F_{j-1})``
with zero-order extrapolation ghost cells and the probe-blended flux
``F_j = f(t, x_j, rho_j)``.  Probes advance in lock-step with the field:
model-coupled probes read their speed from the density trace just ahead,
exogenous probes follow their (possibly mollified) program in closed form.

Time steps respect the CFL bound of the blended flux and are capped so the
simulation lands exactly on probe program boundaries and snapshot times.
"""

from __future__ import annotations

import functools
import math
import struct
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, StabilityError
from .model import SLOPE_SAMPLES, check_states, eval_flux, harmonic_speed

#: Default CFL safety factor.
CFL_DEFAULT = 0.9

#: Default number of evenly spaced snapshots a run records.
SNAPSHOTS_DEFAULT = 50

#: Most steps a run may take.
MAX_STEPS = 2_000_000

#: Most bytes of per-cell float64 arrays a run may hold (2 GiB; see :func:`run`).
MAX_FIELD_BYTES = 2 * 1024**3

#: Densities outside [0 - tol, 1 + tol] after an update abort the run.
BOUND_TOL = 1e-12

#: Times closer than this count as equal in the step loop: a step that
#: would end this close to the next boundary lands on it instead, and a
#: step ending this close to a snapshot time records that snapshot.
TIME_TOL = 1e-14

#: Central-difference stencil of the CFL bound's vertex fluxes around
#: ``SLOPE_SAMPLES``: its upper and lower densities side by side in one row,
#: so each vertex flux is one row of a single evaluation.
_SLOPE_H = 1e-7
_SLOPE_LO = np.clip(SLOPE_SAMPLES - _SLOPE_H, 0.0, 1.0)
_SLOPE_HI = np.clip(SLOPE_SAMPLES + _SLOPE_H, 0.0, 1.0)
_SLOPE_SPAN = _SLOPE_HI - _SLOPE_LO
_SLOPE_RHO = np.concatenate([_SLOPE_HI, _SLOPE_LO])[None, :]

#: Laws, and ``(law, probe speed)`` pairs, whose CFL vertex slopes are
#: kept, the least recently used dropped first: a traffic-coupled probe
#: takes a new speed nearly every step, so the memos need a bound.
_VERTEX_MEMO_SIZE = 1024


#: Packers of one step-log row and one probe-path row, as raw float64 bytes.
_LOG_ROW = struct.Struct("8d").pack
_PATH_ROW = struct.Struct("4d").pack


def _read_only(values):
    values.flags.writeable = False
    return values


def _rows(buffer, width):
    """A float64 ``array`` buffer as a read-only ``(n, width)`` array,
    without a copy."""
    return _read_only(np.frombuffer(buffer).reshape(-1, width))


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centred grid on ``[x_min, x_max]``.

    The geometry (``dx``, ``edges``, ``centers``, ``ghosted_centers``) is
    computed on first use and kept; the arrays are read-only and shared by
    every caller.
    """

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 4:
            raise DomainError(f"need at least 4 cells, got {self.n_cells}")
        if not self.x_max > self.x_min:
            raise DomainError(f"empty domain [{self.x_min}, {self.x_max}]")

    @classmethod
    def from_extent(cls, x_min, x_max, dx):
        """Grid with cell width ``dx``; the extent must be a whole number of
        cells (relative tolerance 1e-9)."""
        if not dx > 0.0:
            raise DomainError(f"dx must be positive, got {dx}")
        ratio = (x_max - x_min) / dx
        n = int(round(ratio))
        if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
            raise DomainError(
                f"extent [{x_min}, {x_max}] is not a whole number of cells of "
                f"width {dx} (ratio {ratio})"
            )
        return cls(x_min=float(x_min), x_max=float(x_max), n_cells=n)

    @cached_property
    def dx(self):
        return (self.x_max - self.x_min) / self.n_cells

    @cached_property
    def edges(self):
        return _read_only(self.x_min + self.dx * np.arange(self.n_cells + 1))

    @cached_property
    def centers(self):
        return _read_only(self.x_min + self.dx * (np.arange(self.n_cells) + 0.5))

    @cached_property
    def ghosted_centers(self):
        """``centers`` with one ghost cell centre added at either end."""
        centers = self.centers
        return _read_only(
            np.concatenate([[centers[0] - self.dx], centers, [centers[-1] + self.dx]])
        )


def init_field(grid, datum):
    """Exact cell averages of a piecewise constant profile.

    ``datum`` is a profile object with ``xs`` / ``value_at`` (such as
    :class:`~probeflow.fronttrack.PiecewiseConstant`).  Cells lying inside
    one constancy piece receive its value verbatim (no arithmetic at all);
    only cells straddling a jump compute the overlap-weighted average, from
    purely local quantities so no precision is lost to large intermediate
    magnitudes.
    """
    edges = grid.edges
    field = np.asarray(datum.value_at(grid.centers), dtype=float)
    for x in datum.xs:
        if not grid.x_min < x < grid.x_max:
            continue
        j = int(np.searchsorted(edges, x, side="right")) - 1
        j = min(max(j, 0), grid.n_cells - 1)
        if edges[j] == x:
            continue  # the jump splits two cells cleanly
        cuts = [float(edges[j])]
        cuts += [xx for xx in datum.xs if edges[j] < xx < edges[j + 1]]
        cuts.append(float(edges[j + 1]))
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            total += (b - a) * datum.value_at(0.5 * (a + b))
        field[j] = total / grid.dx
    return np.clip(field, 0.0, 1.0)


def l1_distance(grid, field_a, field_b):
    """``dx * sum |a - b|`` for two fields on the same grid."""
    field_a = np.asarray(field_a, dtype=float)
    field_b = np.asarray(field_b, dtype=float)
    if field_a.shape != field_b.shape or len(field_a) != grid.n_cells:
        raise DomainError("fields must both live on the given grid")
    return float(grid.dx * np.sum(np.abs(field_a - field_b)))


def trace_density(grid, field, x, side="right"):
    """Density read at a probe position: the first cell centred at or ahead
    of ``x`` (``side='right'``), or the last at or behind it (``'left'``)."""
    centers = grid.centers
    if side == "right":
        j = min(int(centers.searchsorted(x, "left")), grid.n_cells - 1)
    elif side == "left":
        j = max(int(centers.searchsorted(x, "right")) - 1, 0)
    else:
        raise DomainError(f"side must be 'right' or 'left', got {side!r}")
    return float(field[j])


def _cell_windows(states, first, dx, reach, n):
    """One slice per probe state over the ``n`` points ``first + j * dx``:
    those within ``reach`` of the probe, widened by one point on either
    side against rounding.  Grid arithmetic only; a NaN position selects
    every point, so its NaN weights reach every point as without windows."""
    windows = []
    for p, _ in states:
        lo = (p - reach - first) / dx
        hi = (p + reach - first) / dx
        start = math.ceil(min(lo, n + 1)) - 1 if lo > 0.0 else 0
        stop = math.floor(max(hi, -2.0)) + 2 if hi < n else n
        windows.append(slice(start, stop))
    return windows


def _stencil_slope(F):
    """``max |(F_hi - F_lo) / span|`` over the rows of vertex fluxes ``F``
    evaluated on :data:`_SLOPE_RHO`."""
    k = _SLOPE_SPAN.size
    return float(np.max(np.abs((F[:, :k] - F[:, k:]) / _SLOPE_SPAN)))


@functools.lru_cache(maxsize=_VERTEX_MEMO_SIZE)
def _law_vertex(law):
    """The law's speeds on the stencil, the sampled slope of its own vertex
    flux ``rho v``, and its slope ``|f'(1)|`` at full density."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = _read_only(np.asarray(law(_SLOPE_RHO), dtype=float))
        return v, _stencil_slope(_SLOPE_RHO * v), abs(float(law.flux_slope(1.0)))


@functools.lru_cache(maxsize=_VERTEX_MEMO_SIZE)
def _vertex_slope(law, w):
    """The sampled slope of the vertex flux ``rho H(w, v)`` of a probe at
    speed ``w``, as the blend adds it at weight 1 (possibly non-finite: an
    overflowing blend is reported by :func:`cfl_dt`, not warned about)."""
    v = _law_vertex(law)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        return _stencil_slope(_SLOPE_RHO * (v + (harmonic_speed(w, v) - v)))


def cfl_dt(model, grid, states, cfl=CFL_DEFAULT):
    """Largest stable step: ``cfl * dx / S`` with ``S`` the sampled maximal
    characteristic speed ``|d f / d rho|`` of the blended flux, with the
    coupled probes' ``states`` as in :func:`~probeflow.model.eval_flux`.

    Away from every probe the flux reduces to the speed law's, whose
    sampled slope maximum (:attr:`~probeflow.model.SpeedLaw.max_flux_slope`)
    is computed once per law, so a step without coupled probes does no
    array work.  Near the probes no cell is scanned: the blended speed
    ``(1 - sum a_i) v + sum a_i H(w_i, v)`` has weights ``a_i`` that depend
    on ``x`` alone and sum to at most 1, so every cell's flux slope is a
    convex combination of the slopes of the vertex fluxes ``rho v`` and
    ``rho H(w_i, v)``, one per probe whose support reaches a cell centre.
    Their sampled slopes, evaluated as the blend adds a probe at weight 1,
    bound it, with the slope at ``rho = 1`` (``2 |f'(1)|`` if a counted
    probe moves, which the samples miss for small ``w``) in closed form.
    Where no cell has a weight of exactly 1 (overlapping supports, a probe
    within ``outer`` of a domain end, a plateau narrower than a cell) the
    bound is conservative: the step may be shorter than a cell scan's,
    never longer.

    The law's own vertex slope and end slope are kept per law, and each
    probe's vertex slope per ``(law, speed)`` (the
    :data:`_VERTEX_MEMO_SIZE` most recently used of each), so a step whose
    probe speeds were all seen before does no array work either.  The memos
    hold only what the law and the speed determine, so they never change a
    step.  A non-finite slope raises :class:`StabilityError` on every call.
    """
    if not 0.0 < cfl <= 1.0:
        raise DomainError(f"cfl must lie in (0, 1], got {cfl}")
    check_states(model, states)
    law = model.speed_law
    S = law.max_flux_slope
    if not states:
        return cfl * grid.dx / max(S, 1e-10)
    lo = float(grid.centers[0]) - model.cutoff.outer
    hi = float(grid.centers[-1]) + model.cutoff.outer
    ws = [w for p, w in states if lo < p < hi]
    if ws:
        _, own, end = _law_vertex(law)
        if any(w > 0.0 for w in ws):
            end = 2.0 * end
        slopes = [S, own, end] + [_vertex_slope(law, w) for w in ws]
        S = max(slopes)
        if not all(map(math.isfinite, slopes)):
            # np.max keeps a NaN slope, which max() may drop in favour of S
            raise StabilityError(
                f"blended-flux slope is not finite near the coupled probes: {np.max(slopes)}"
            )
    return cfl * grid.dx / max(S, 1e-10)


def _ghost_buffer(field):
    """A new ghosted buffer holding ``field`` in its interior."""
    return np.concatenate([[0.0], field, [0.0]])


def _ghosted_flux(model, grid, states, rho):
    """The blended flux on the ghosted buffer ``rho``, whose interior
    ``rho[1:-1]`` holds the field: the one flux evaluation of a step.  The
    two ghost cells are first set by zero-order extrapolation.  Each
    coupled probe is blended over the ghosted cells of its cutoff support,
    found from the grid's geometry.
    """
    rho[0] = rho[1]
    rho[-1] = rho[-2]
    windows = None
    if states:
        windows = _cell_windows(
            states, grid.x_min - 0.5 * grid.dx, grid.dx, model.cutoff.outer, grid.n_cells + 2
        )
    return eval_flux(model, states, grid.ghosted_centers, rho, windows)


def _edge_rates(F):
    """``(rate_in, rate_out)`` from a ghosted flux: the averages of the
    flux at the ghost cell and the adjacent interior cell on each side."""
    return 0.5 * (float(F[0]) + float(F[1])), 0.5 * (float(F[-2]) + float(F[-1]))


def _lxf_update(grid, rho, F, dt, t, out, scratch):
    """The Lax-Friedrichs update from a ghosted density and flux, computed
    into ``out`` with the help of ``scratch``, two ``(n,)`` arrays.

    Returns ``out`` holding the new field, and its minimum and maximum.
    Raises :class:`StabilityError` (naming ``t`` unless it is ``None``) if
    the update leaves ``[0, 1]`` beyond tolerance or holds a NaN; values
    within tolerance are clamped.
    """
    lam = dt / grid.dx
    # new = 0.5 * (rho[:-2] + rho[2:]) - (0.5 * lam) * (F[2:] - F[:-2])
    with np.errstate(over="ignore", invalid="ignore"):  # the range check below catches it
        new = np.add(rho[:-2], rho[2:], out=out)
        new *= 0.5
        np.subtract(F[2:], F[:-2], out=scratch)
        scratch *= 0.5 * lam
        new -= scratch
    lo = float(new.min())
    hi = float(new.max())
    if not (lo >= -BOUND_TOL and hi <= 1.0 + BOUND_TOL):
        raise StabilityError(
            f"update left [0, 1]{'' if t is None else f' at t={t}'}: range [{lo}, {hi}] "
            f"(dt={dt}, likely a CFL violation)"
        )
    if lo < 0.0 or hi > 1.0:
        np.clip(new, 0.0, 1.0, out=new)
        # clipping is monotone, so the clipped field's extrema are lo, hi clipped
        lo = min(max(lo, 0.0), 1.0)
        hi = min(max(hi, 0.0), 1.0)
    return new, lo, hi


def lxf_step(model, grid, states, field, dt):
    """One Lax-Friedrichs update with zero-order extrapolation ghosts and
    the coupled probes' ``states`` (as in :func:`cfl_dt`).

    Raises :class:`StabilityError` if the update leaves ``[0, 1]`` beyond
    floating-point tolerance or holds a NaN; values within tolerance are
    clamped.
    """
    rho = _ghost_buffer(field)
    F = _ghosted_flux(model, grid, states, rho)
    return _lxf_update(grid, rho, F, dt, None, np.empty(grid.n_cells), np.empty(grid.n_cells))[0]


def boundary_flux_rates(model, grid, states, field):
    """Instantaneous mass flow ``(rate_in, rate_out)`` through the domain
    boundaries for the scheme's update: the averages of the blended flux at
    the ghost cell and the adjacent interior cell on each side.  Summing
    ``dt * (rate_in - rate_out)`` over steps reproduces the change of the
    tracked mass exactly, up to rounding."""
    return _edge_rates(_ghosted_flux(model, grid, states, _ghost_buffer(field)))


def resolve_probe_speeds(model, grid, t, field, positions):
    """Speed and density trace of every probe at time ``t``.

    ``positions`` lists the probes' positions at ``t`` in ``model.probes``
    order.  Model-coupled segments read the trace on ``model.trace_side``
    and evaluate the speed law on it; other segments take the programmed
    speed.  Returns the lists ``(speeds, traces)``.
    """
    speeds, traces = [], []
    for probe, p in zip(model.probes, positions):
        trace = trace_density(grid, field, p, model.trace_side)
        w = probe.speed_at(t)
        speeds.append(float(model.speed_law(trace)) if w is None else w)
        traces.append(trace)
    return speeds, traces


def advance_probes(model, positions, speeds, dt, t_new):
    """Positions of every probe after a step of ``dt`` that ends at
    ``t_new``.

    Exogenous probes land on their closed-form path; coupled probes take an
    explicit Euler step with their resolved speed.
    """
    return [
        probe.state_at(t_new)[0] if probe.is_exogenous else p + w * dt
        for probe, p, w in zip(model.probes, positions, speeds)
    ]


@dataclass(frozen=True)
class RunResult:
    """Everything a finished run produced.

    ``snapshots`` is a list of ``(t, field)`` pairs including the initial
    state; ``log`` is the read-only ``(n_steps, 8)`` float64 step log, one
    ``(step, t, dt, mass, min, max, rate_in, rate_out)`` row per completed
    step (the state before the first step is summarised by
    ``initial_mass``; the rates are evaluated on the pre-step field);
    ``model`` is the model the run was given, unchanged; ``probe_paths``
    holds one read-only ``(n_steps, 4)`` float64 array of pre-step
    ``(t, x, speed, trace)`` rows per probe, in ``model.probes`` order.
    """

    scenario: str | None
    grid: Grid
    model: object
    datum: object
    t_end: float
    cfl: float
    snapshots: list
    log: np.ndarray
    initial_mass: float
    probe_paths: tuple

    @property
    def diagnostics(self):
        """The ``(step, t, dt, mass, min, max)`` columns of :attr:`log`
        (the benchmark in ``perfbench/`` reads a run's steps and range here)."""
        return self.log[:, :6]

    @property
    def snapshot_times(self):
        return [t for t, _ in self.snapshots]

    def field_at(self, t):
        """The snapshot field nearest ``t``, which must lie within 1e-9 of
        it."""
        ts, field = min(self.snapshots, key=lambda snap: abs(snap[0] - t))
        if not abs(ts - t) <= 1e-9:
            raise DomainError(f"no snapshot at t={t}; have {self.snapshot_times}")
        return field

    @property
    def final_field(self):
        return self.snapshots[-1][1]

    def probe_path(self, index):
        """Recorded ``(t, x, speed, trace)`` rows of probe ``index``."""
        return self.probe_paths[index]

    def mass_drift(self):
        """Largest deviation of the tracked mass from its initial value;
        NaN if any tracked mass is NaN."""
        return float(np.max(np.abs(self.log[:, 3] - self.initial_mass), initial=0.0))

    def mass_balance_residual(self):
        """Largest deviation of the tracked mass from the initial mass plus
        the accumulated boundary in/outflow — zero up to rounding even when
        waves leave the domain.  NaN if any tracked mass is NaN."""
        log = self.log
        # cumsum accumulates in step order, as a running sum would
        expected = np.cumsum(
            np.concatenate([[self.initial_mass], log[:, 2] * (log[:, 6] - log[:, 7])])
        )
        return float(np.max(np.abs(log[:, 3] - expected[1:]), initial=0.0))


def run(
    model,
    grid,
    datum,
    t_end,
    n_snapshots=SNAPSHOTS_DEFAULT,
    cfl=CFL_DEFAULT,
    scenario=None,
):
    """Evolve ``datum`` under ``model`` until ``t_end``.

    The run keeps its probes' positions, speeds and recorded paths itself;
    ``model`` is left unchanged and can be shared by any number of runs.
    Each step passes the coupled probes' ``(position, speed)`` pairs to the
    flux as an argument.  Snapshots are taken at ``n_snapshots`` evenly
    spaced times including 0 and ``t_end``; steps are shortened to land on
    these and on probe program boundaries exactly, so ``n_snapshots`` may
    not exceed ``MAX_STEPS + 1``, and the snapshot spacing
    ``t_end / (n_snapshots - 1)`` (``t_end`` for one snapshot) must exceed
    :data:`TIME_TOL`.  No step is longer than the law's own CFL step, so
    a run that would need more than :data:`MAX_STEPS` steps even at that
    step is rejected before :func:`init_field`, and so is a run whose
    float64 arrays of one value per cell would exceed
    :data:`MAX_FIELD_BYTES`: the ``n_snapshots`` snapshots and nine working
    arrays (the grid's edges, centres and ghosted centres, two ghosted
    buffers and a scratch array, and up to three temporaries of a step or
    of :func:`init_field`).

    A step evaluates the blended flux once, on the ghosted field: the
    update (as :func:`lxf_step`) and the boundary rates (as
    :func:`boundary_flux_rates`) both read that one evaluation, and the
    step log's minimum and maximum come from the update's own range
    check.  A run allocates its arrays once: two ghosted buffers take
    turns holding the field in their interior, the update writing the
    next field into the other one, and every snapshot is a copy.
    """
    if not t_end > 0.0:
        raise DomainError(f"t_end must be positive, got {t_end}")
    if n_snapshots < 1:
        raise DomainError(f"n_snapshots must be >= 1, got {n_snapshots}")
    if n_snapshots > MAX_STEPS + 1:  # each snapshot interval takes a step
        raise DomainError(f"n_snapshots={n_snapshots} needs more than {MAX_STEPS=} steps")
    # 0, the snapshot times and t_end, in the arithmetic of the step loop's
    # next-boundary and end tests: each must lie beyond TIME_TOL of the last
    marks = np.linspace(0.0, t_end, max(n_snapshots, 2))
    if not np.all((marks[1:] > marks[:-1] + TIME_TOL) & (marks[:-1] < marks[1:] - TIME_TOL)):
        raise DomainError(
            f"t_end={t_end} over {n_snapshots} snapshots leaves a spacing at or below "
            f"the time tolerance {TIME_TOL}"
        )
    snap_times = marks if n_snapshots > 1 else marks[:1]
    boundaries = {float(t_end)}
    boundaries.update(float(t) for t in snap_times if 0.0 < t <= t_end)
    for probe in model.probes:
        boundaries.update(t for t in probe.boundary_times() if t < t_end)
    boundaries = sorted(boundaries)
    if not 0.0 < cfl <= 1.0:
        raise DomainError(f"cfl must lie in (0, 1], got {cfl}")
    # no step is longer than cfl * dx / S_law, bar the at most TIME_TOL a
    # step gains landing on a boundary; the margin covers rounding
    span = (t_end - len(boundaries) * TIME_TOL) * max(model.speed_law.max_flux_slope, 1e-10)
    if span * (1.0 - 1e-9) > MAX_STEPS * cfl * grid.dx:
        raise DomainError(
            f"t_end={t_end} at cfl={cfl} and dx={grid.dx} needs more than {MAX_STEPS=} steps"
        )
    n_bytes = 8 * (n_snapshots + 9) * grid.n_cells  # the snapshots and working arrays
    if n_bytes > MAX_FIELD_BYTES:
        raise DomainError(f"{grid.n_cells} cells need {n_bytes} B of arrays > {MAX_FIELD_BYTES=}")
    rho, spare = np.empty(grid.n_cells + 2), np.empty(grid.n_cells + 2)
    scratch = np.empty(grid.n_cells)
    field = rho[1:-1]
    field[:] = init_field(grid, datum)
    coupled = [i for i, probe in enumerate(model.probes) if not probe.observer]
    positions = [probe.x0 for probe in model.probes]
    speeds, traces = resolve_probe_speeds(model, grid, 0.0, field, positions)
    # float64 buffers: 64 B per step for the log, 32 B per probe and step
    paths = [array("d") for _ in model.probes]
    snapshots = [(0.0, field.copy())]
    initial_mass = float(field.sum()) * grid.dx
    log = array("d")
    n_steps = 0
    t = 0.0
    snap_idx = 1
    b_idx = 0  # boundaries[b_idx] is the first boundary beyond t + TIME_TOL
    while t < t_end - TIME_TOL:
        if n_steps >= MAX_STEPS:
            raise StabilityError(f"exceeded {MAX_STEPS=} steps at t={t}")
        states = tuple((positions[i], speeds[i]) for i in coupled)
        dt = cfl_dt(model, grid, states, cfl)
        while b_idx < len(boundaries) and boundaries[b_idx] <= t + TIME_TOL:
            b_idx += 1
        b_next = boundaries[b_idx] if b_idx < len(boundaries) else t_end
        if dt >= b_next - t - TIME_TOL:
            dt = b_next - t
            t_new = b_next
        else:
            t_new = t + dt
        F = _ghosted_flux(model, grid, states, rho)
        rate_in, rate_out = _edge_rates(F)
        field, lo, hi = _lxf_update(grid, rho, F, dt, t, spare[1:-1], scratch)
        rho, spare = spare, rho
        for path, p, w, trace in zip(paths, positions, speeds, traces):
            path.frombytes(_PATH_ROW(t, p, w, trace))
        positions = advance_probes(model, positions, speeds, dt, t_new)
        t = t_new
        speeds, traces = resolve_probe_speeds(model, grid, t, field, positions)
        mass = float(field.sum()) * grid.dx
        n_steps += 1
        log.frombytes(_LOG_ROW(n_steps, t, dt, mass, lo, hi, rate_in, rate_out))
        if snap_idx < len(snap_times) and abs(t - snap_times[snap_idx]) <= TIME_TOL:
            snapshots.append((float(snap_times[snap_idx]), field.copy()))
            snap_idx += 1
    if len(snapshots) != len(snap_times):
        raise StabilityError(
            f"missed snapshot times: recorded {len(snapshots)} of {len(snap_times)}"
        )
    return RunResult(
        scenario=scenario,
        grid=grid,
        model=model,
        datum=datum,
        t_end=float(t_end),
        cfl=cfl,
        snapshots=snapshots,
        log=_rows(log, 8),
        initial_mass=initial_mass,
        probe_paths=tuple(_rows(path, 4) for path in paths),
    )
