"""Recovering a speed law's slope from probe measurements.

* :func:`error_functional` scores a speed-law candidate against a probe's
  recorded (speed, density-trace) pairs.
* :func:`scan_E` / :func:`minimize_E` calibrate the slope of a linear speed
  law by simulating candidates and minimising the misfit.

The analytic estimates that justify the procedure are in
:mod:`probeflow.estimates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError, require_finite, require_index
from .model import Greenshields
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
    once the grid has at least 4 points; the process pool's modules load
    on the first such call.
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
        from concurrent.futures import ProcessPoolExecutor

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
