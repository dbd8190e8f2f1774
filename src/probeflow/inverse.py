"""Recovering model ingredients from probe measurements, and the analytic
estimates that justify the procedure.

* :func:`error_functional` scores a speed-law candidate against a probe's
  recorded (speed, density-trace) pairs.
* :func:`scan_E` / :func:`minimize_E` calibrate the slope of a linear speed
  law by simulating candidates and minimising the misfit.
* :func:`phi_epsilon` computes the travel-time-style observable of a probe
  crossing a single density jump, whose one-sided limits in the family
  parameter quantify an identifiability gap.
* :func:`lemma1_check`, :func:`rescaling_check` and :func:`modulus_bound`
  verify quantitative estimates (curve-difference integrals, invariance
  under speed rescaling, and a Lipschitz modulus for the calibration
  functional) on concrete configurations.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DomainError, require_finite, require_index
from .fronttrack import (
    PiecewiseConstant,
    from_datum,
    ft_evolve,
    sample_curve_integral,
)
from .fvsolver import Grid, run
from .model import EpsilonLaw, FluxModel, Greenshields
from .riemann import solve_riemann
from .scenarios import run_scenario

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Error functional and calibration scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorFunctionalReport:
    """Misfit of a speed law against one probe's recorded data.

    ``value`` is the time integral of ``|measured speed - law(trace)|``
    along the probe, evaluated by the left-endpoint rule on the recorded
    rows; ``n_steps`` is the number of quadrature steps.
    """

    value: float
    n_steps: int


def score_records(records, law, t_end):
    """Quadrature of ``|speed - law(trace)|`` over record rows.

    ``records`` is an ``(n, 3)`` array of finite rows ``(t, speed, trace)``
    with increasing times in ``[0, t_end]`` and traces in ``[0, 1]``; each
    row's residual is weighted by the gap to the next row (the last by the
    gap to ``t_end``).
    """
    require_finite("t_end", t_end)
    records = np.asarray(records, dtype=float)
    if records.ndim != 2 or records.shape[1] != 3:
        raise DomainError("records must be an (n, 3) array of (t, speed, trace)")
    if records.shape[0] == 0:
        return 0.0
    if not np.all(np.isfinite(records)):
        raise DomainError("record times, speeds and traces must be finite")
    if np.any((records[:, 2] < 0.0) | (records[:, 2] > 1.0)):
        raise DomainError("record traces must lie in [0, 1]")
    ts = records[:, 0]
    if np.any(np.diff(ts) <= 0.0):
        raise DomainError("record times must be strictly increasing")
    if ts[0] < -1e-12 or ts[-1] > t_end + 1e-12:
        raise DomainError(f"record times must lie in [0, {t_end}]")
    dts = np.diff(np.concatenate([ts, [t_end]]))
    residual = np.abs(records[:, 1] - np.asarray(law(records[:, 2]), dtype=float))
    return float(np.sum(residual * dts))


def probe_records(result, index=0):
    """The ``(t, speed, trace)`` rows of a run's probe, ready for
    :func:`score_records`."""
    rows = result.probe_path(index)
    return rows[:, [0, 2, 3]]


def error_functional(result, probe_index, law):
    """Score a speed-law candidate against one probe of a finished run.

    The probe's recorded ``(t, speed, trace)`` rows are integrated against
    the candidate over the run's full horizon; see :func:`score_records`
    for the quadrature.
    """
    records = probe_records(result, probe_index)
    value = score_records(records, law, result.t_end)
    return ErrorFunctionalReport(value=float(value), n_steps=int(records.shape[0]))


def evaluate_candidate(scenario, v):
    """Misfit of ``Greenshields(v)`` on a scenario's probe data.

    The scenario is re-simulated under the candidate law with every probe
    demoted to a pure observer (the measured speed programs must not feed
    back through a law that is being varied); the candidate is then scored
    against the observed (speed, trace) records of all probes.
    """
    law = Greenshields(v)
    observers = tuple(p.clone(observer=True) for p in scenario.probes)
    result = run_scenario(scenario.with_overrides(law=law, probes=observers))
    total = 0.0
    for i in range(len(result.model.probes)):
        total += error_functional(result, i, law).value
    return total


@dataclass(frozen=True)
class ScanResult:
    """Calibration sweep: candidate slopes and their misfits."""

    v_values: tuple
    errors: tuple

    @property
    def samples(self):
        return list(zip(self.v_values, self.errors))


def scan_E(scenario, v_lo, v_hi, n, workers=1):
    """Evaluate :func:`evaluate_candidate` on ``n + 1`` evenly spaced slopes
    covering ``[v_lo, v_hi]``.

    ``workers > 1`` distributes the simulations over that many processes
    once the grid has at least 4 points.
    """
    if not 0.0 < v_lo < v_hi:
        raise DomainError(f"need 0 < v_lo < v_hi, got ({v_lo}, {v_hi})")
    n = require_index("n", n)
    workers = require_index("workers", workers)
    if n < 1:
        raise DomainError(f"scan needs at least one subinterval, got n={n}")
    if workers < 1:
        raise DomainError(f"scan needs at least one worker, got workers={workers}")
    v_values = [float(v) for v in np.linspace(v_lo, v_hi, n + 1)]
    if workers > 1 and len(v_values) >= 4:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            errors = list(pool.map(evaluate_candidate, repeat(scenario), v_values))
    else:
        errors = [evaluate_candidate(scenario, v) for v in v_values]
    return ScanResult(v_values=tuple(v_values), errors=tuple(float(e) for e in errors))


@dataclass(frozen=True)
class MinimizeResult:
    """Minimiser record: the winning slope, its misfit, the final bracket,
    how many extra evaluations refinement spent, and whether the winner sat
    on the edge of the scanned range (a hint the range should be widened)."""

    v_best: float
    e_best: float
    bracket: tuple
    n_evaluations: int
    on_boundary: bool


def minimize_E(samples, refine_iters=0, evaluator=None):
    """Best slope from sweep samples, optionally golden-section refined.

    ``samples`` is a list of finite ``(v, E)`` pairs.  Exact ties go to the
    smaller slope.  Without an ``evaluator`` (or with ``refine_iters ==
    0``) the grid minimiser is returned with the bracket formed by its
    neighbours; otherwise ``refine_iters`` golden-section steps shrink that
    bracket, calling ``evaluator(v)`` for each new point.
    """
    refine_iters = require_index("refine_iters", refine_iters)
    if refine_iters < 0:
        raise DomainError(f"refine_iters must be >= 0, got {refine_iters}")
    samples = sorted((float(v), float(e)) for v, e in samples)
    if not samples:
        raise DomainError("minimize_E needs at least one sample")
    if not all(math.isfinite(v) and math.isfinite(e) for v, e in samples):
        raise DomainError("minimize_E needs finite (v, E) samples")
    vs = [v for v, _ in samples]
    es = [e for _, e in samples]
    # first minimum of the ascending slope grid: ties go to the smaller v
    idx = int(np.argmin(es))
    on_boundary = idx in (0, len(vs) - 1)
    a = vs[max(idx - 1, 0)]
    b = vs[min(idx + 1, len(vs) - 1)]
    best_v, best_e = vs[idx], es[idx]
    evaluations = 0
    if evaluator is not None and refine_iters > 0 and b > a:
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        fc, fd = evaluator(c), evaluator(d)
        evaluations = 2
        for _ in range(refine_iters):
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - _INV_PHI * (b - a)
                fc = evaluator(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INV_PHI * (b - a)
                fd = evaluator(d)
            evaluations += 1
        for v, e in ((c, fc), (d, fd)):
            if e < best_e or (e == best_e and v < best_v):
                best_v, best_e = v, e
    return MinimizeResult(
        v_best=float(best_v),
        e_best=float(best_e),
        bracket=(float(a), float(b)),
        n_evaluations=evaluations,
        on_boundary=on_boundary,
    )


# ---------------------------------------------------------------------------
# The jump observable phi
# ---------------------------------------------------------------------------

#: The fixed Riemann data behind the phi observable.
PHI_LEFT = 1.0 / 8.0
PHI_RIGHT = 3.0 / 8.0
#: The observer's constant speed.
PHI_PROBE_SPEED = 0.5


@dataclass(frozen=True)
class PhiReport:
    """The observable, its ingredients, and the published closed form.

    ``per_time`` is the observable divided by the horizon.  ``reference``
    is a closed-form value this implementation is compared against;
    ``agrees`` records whether the two match to 1e-12 (they do not on the
    slow-shock branch, where the computed trace value contradicts the
    reference expression by exactly 1).
    """

    eps: float
    t_end: float
    trace_side: str
    shock_speed: float
    branch: str
    trace: float
    value: float
    per_time: float
    reference_per_time: float
    agrees: bool


def phi_epsilon(eps, t_end=1.0, trace_side="right"):
    """Relative-flow observable of a probe riding along a density jump.

    Data ``1/8`` to ``3/8`` at the origin under the quadratic family law
    with parameter ``eps``; a probe leaves the origin at speed ``1/2``.
    The observable integrates ``v_eps(rho at probe) - 1/2`` over
    ``[0, t_end]``.  The probe stays on one side of the shock (its speed
    ties the shock's exactly at ``eps = 0``, where ``trace_side`` decides
    which density it reads), so the integrand is constant.
    """
    if trace_side not in ("right", "left"):
        raise DomainError(f"trace_side must be 'right' or 'left', got {trace_side!r}")
    require_finite("t_end", t_end)
    if not t_end > 0.0:
        raise DomainError(f"t_end must be positive, got {t_end}")
    law = EpsilonLaw(eps)
    sol = solve_riemann(law, PHI_LEFT, PHI_RIGHT)
    s = sol.speed
    if s > PHI_PROBE_SPEED:
        branch, trace = "behind_shock", PHI_LEFT
    elif s < PHI_PROBE_SPEED:
        branch, trace = "ahead_of_shock", PHI_RIGHT
    else:
        branch = "on_shock"
        trace = PHI_RIGHT if trace_side == "right" else PHI_LEFT
    per_time = float(law(trace)) - PHI_PROBE_SPEED
    reference = _phi_reference(eps, trace_side)
    return PhiReport(
        eps=float(eps),
        t_end=float(t_end),
        trace_side=trace_side,
        shock_speed=float(s),
        branch=branch,
        trace=float(trace),
        value=per_time * t_end,
        per_time=per_time,
        reference_per_time=reference,
        agrees=abs(per_time - reference) <= 1e-12,
    )


def _phi_reference(eps, trace_side):
    """Published closed form of the observable per unit time."""
    if eps > 0.0:
        return 3.0 / 8.0 + 7.0 * eps / 64.0
    if eps < 0.0:
        return 9.0 / 8.0 + 15.0 * eps / 64.0
    return 3.0 / 8.0 if trace_side == "left" else 9.0 / 8.0


@dataclass(frozen=True)
class PhiLimits:
    """Exact one-sided limits of the observable at ``eps = 0``."""

    t_end: float
    from_below: float
    from_above: float

    @property
    def jump(self):
        return self.from_above - self.from_below


def phi_one_sided_limits(t_end=1.0):
    """Limits of :func:`phi_epsilon` as ``eps`` tends to 0 from either side.

    The trace tends to ``3/8`` from below (slow shock, probe ahead) and to
    ``1/8`` from above (fast shock, probe behind) and the law to the linear
    one, so the limits are the tie's values read on the right and the left.
    """
    below = phi_epsilon(0.0, t_end, "right").value
    above = phi_epsilon(0.0, t_end, "left").value
    return PhiLimits(t_end=float(t_end), from_below=below, from_above=above)


# ---------------------------------------------------------------------------
# Curve-difference estimate
# ---------------------------------------------------------------------------

class Lemma1Report(NamedTuple):
    """An exact curve-difference integral against its a-priori bound;
    unpacks as ``(lhs, rhs, passed)``."""

    lhs: float
    rhs: float
    passed: bool


def lemma1_check(law, datum, gamma1, gamma2, c, n, t0=None, t1=None):
    """Verify the curve-difference estimate on a tracked evolution.

    The datum is quantized to the ``2**-n`` grid and tracked exactly; both
    curves must outrun every front by the margin ``c``
    (:class:`FrontTrackError` otherwise).  The exact integral of
    ``|rho(t, gamma1) - rho(t, gamma2)|`` over the curves' common time
    range (or ``[t0, t1]`` when given) is checked against
    ``TV * sup|gamma1 - gamma2| / c``.
    """
    if not c > 0.0:
        raise DomainError(f"margin c must be positive, got {c}")
    if t0 is None:
        t0 = max(float(gamma1.ts[0]), float(gamma2.ts[0]))
    if t1 is None:
        t1 = min(float(gamma1.ts[-1]), float(gamma2.ts[-1]))
    if not t1 > t0:
        raise DomainError(f"need t0 < t1, got ({t0}, {t1})")
    state0 = from_datum(law, datum.quantize(n).datum, n)
    solution = ft_evolve(state0, t1)
    integral, bound = sample_curve_integral(solution, gamma1, gamma2, c, t0, t1)
    return Lemma1Report(
        lhs=float(integral),
        rhs=float(bound),
        passed=bool(integral <= bound + 1e-12),
    )


# ---------------------------------------------------------------------------
# Rescaling invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RescalingReport:
    """Discrepancy between a run and its speed-rescaled counterpart."""

    v1: float
    v2: float
    dx: float
    t_end: float
    tv: float
    discrepancy: float
    bound: float
    refined_discrepancy: float | None = None

    @property
    def refinement_factor(self):
        if self.refined_discrepancy in (None, 0.0):
            return math.inf if self.discrepancy else 1.0
        return self.discrepancy / self.refined_discrepancy

    @property
    def passed(self):
        return self.discrepancy <= self.bound


def _rescaled_pair(law_a, law_b, datum, t_end, dx):
    """Run ``datum`` under ``law_a`` on the reference grid and its stretched
    image under ``law_b`` on the space-stretched grid; return the largest L1
    discrepancy in reference coordinates over five matched snapshots.

    Stretching space by ``v2/v1`` (the Greenshields laws' ``vmax``) turns
    the ``v1`` solution into the ``v2`` one at equal times; the stretched
    grid keeps the cell count, so the two runs are snapshot-for-snapshot
    comparable.  The stretched window is
    shifted by half a cell whenever the speeds differ, so a datum jump
    never sits ambiguously on a cell edge of both grids at once; stretched
    cells are compared against the reference field by linear interpolation
    between its cell centres.
    """
    xs = datum.xs
    x_lo = math.floor(min(xs, default=0.0)) - 1.0
    x_hi = math.ceil(max(xs, default=0.0)) + 2.0
    scale = law_b.vmax / law_a.vmax
    dx_b = scale * dx
    offset = 0.0 if law_a == law_b else dx_b / 2.0
    grid_a = Grid.from_extent(x_lo, x_hi, dx)
    n = grid_a.n_cells
    grid_b = Grid(
        x_min=scale * x_lo + offset, x_max=scale * x_hi + offset, n_cells=n
    )
    datum_b = PiecewiseConstant([scale * x for x in xs], datum.values)

    result_a = run(FluxModel(law_a), grid_a, datum, t_end, n_snapshots=5)
    result_b = run(FluxModel(law_b), grid_b, datum_b, t_end, n_snapshots=5)
    pulled = grid_b.centers / scale
    worst = 0.0
    for (ta, field_a), (tb, field_b) in zip(result_a.snapshots, result_b.snapshots):
        if abs(ta - tb) > 1e-12:
            raise DomainError(f"snapshot times diverged: {ta} vs {tb}")
        interp = np.interp(pulled, grid_a.centers, field_a)
        worst = max(worst, float(grid_a.dx * np.sum(np.abs(field_b - interp))))
    return worst


def rescaling_check(v1, v2, datum, t_end, dx=2.5e-3, refine=True):
    """Check that rescaling the speed only rescales space.

    The largest snapshot discrepancy must stay below ``3 * dx * TV``; with
    ``refine`` a second pair of runs at ``dx/2`` measures how the
    discrepancy shrinks.
    """
    laws = Greenshields(v1), Greenshields(v2)
    discrepancy = _rescaled_pair(*laws, datum, t_end, dx)
    refined = None
    if refine:
        refined = _rescaled_pair(*laws, datum, t_end, dx / 2.0)
    return RescalingReport(
        v1=float(v1),
        v2=float(v2),
        dx=float(dx),
        t_end=float(t_end),
        tv=float(datum.tv()),
        discrepancy=discrepancy,
        bound=3.0 * dx * datum.tv(),
        refined_discrepancy=refined,
    )


# ---------------------------------------------------------------------------
# Modulus bound for the calibration functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulusReport:
    """Lipschitz modulus bound for the slope-calibration functional."""

    value: float
    c: float
    tv: float
    p_sup: float
    inf_density: float
    inf_probe_speed: float
    v_lo: float
    v_hi: float
    t_end: float


def modulus_bound(scenario, rho_check, v_lo, v_hi):
    """A-priori Lipschitz bound for ``v -> E(v)`` over ``[v_lo, v_hi]``.

    Requires the non-degeneracy conditions: the initial density must stay
    strictly above ``rho_check`` and every probe speed at least
    ``v_hi * (1 - 2 * rho_check)``.  The bound is
    ``v_hi / (c * v_lo) * TV * sup|p| + t_end`` with
    ``c = 2 * (inf rho0 - rho_check)``.
    """
    if not 0.0 < v_lo <= v_hi:
        raise DomainError(f"need 0 < v_lo <= v_hi, got ({v_lo}, {v_hi})")
    if not 0.0 <= rho_check < 1.0:
        raise DomainError(f"rho_check must lie in [0, 1), got {rho_check}")
    inf_density = min(scenario.datum.values)
    if not inf_density > rho_check:
        raise DomainError(
            f"initial density reaches {inf_density}, not above "
            f"rho_check={rho_check}"
        )
    inf_speed = math.inf
    p_sup = 0.0
    for probe in scenario.probes:
        if not probe.is_exogenous:
            raise DomainError(
                "modulus bound needs fully programmed probes; a traffic-"
                "coupled segment has no certified speed floor"
            )
        inf_speed = min(inf_speed, probe.min_speed())
        # speeds are non-negative, so the position is monotone
        p_end, _ = probe.state_at(scenario.t_end)
        p_sup = max(p_sup, abs(probe.x0), abs(p_end))
    if inf_speed is math.inf:
        inf_speed = 0.0
    floor = v_hi * (1.0 - 2.0 * rho_check)
    if inf_speed < floor - 1e-12:
        raise DomainError(
            f"probe speeds reach {inf_speed}, below the required floor {floor}"
        )
    c = 2.0 * (inf_density - rho_check)
    value = v_hi / (c * v_lo) * scenario.datum.tv() * p_sup + scenario.t_end
    return ModulusReport(
        value=float(value),
        c=float(c),
        tv=float(scenario.datum.tv()),
        p_sup=float(p_sup),
        inf_density=float(inf_density),
        inf_probe_speed=float(inf_speed),
        v_lo=float(v_lo),
        v_hi=float(v_hi),
        t_end=float(scenario.t_end),
    )
