"""Speed laws, cutoff profiles, probe trajectories, and the probe-encoded flux.

The traffic state is a density ``rho`` in ``[0, 1]``.  A speed law ``v(rho)``
gives the preferred speed of cars.  A probe vehicle at position ``p(t)``
moving with measured speed ``pdot(t)`` modifies the speed field near itself:
within the support of a cutoff profile ``chi`` centred on the probe, the
effective speed is the harmonic-type blend ``2*pdot*v / (pdot + v)`` of the
measured and the modelled speed, interpolated by ``chi`` back to ``v(rho)``
away from the probe.  The conservation-law flux is
``f(t, x, rho) = rho * V(t, x, rho)`` with ``V`` the blended speed field.

This module also provides the analytic moduli attached to that flux: the
Lipschitz constants of the blended speed, the mixed-difference bound of the
auxiliary map ``g(rho, q) = q*rho*v(rho) / (q + v(rho))``, and the growth
rate ``C`` entering the L1 stability estimate
``||rho1(t) - rho2(t)||_L1 <= exp(C*t) * ||rho1(0) - rho2(0)||_L1``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, ProbeStateError

#: Denominators below this threshold make the harmonic blend (and the map g)
#: return 0, the continuous extension at (probe speed, law speed) = (0, 0).
ZERO_DENOM_TOL = 1e-12

#: Densities at which the characteristic speed ``|f'|`` is sampled for the
#: CFL bound (read-only).
SLOPE_SAMPLES = np.linspace(0.0, 1.0, 21)
SLOPE_SAMPLES.flags.writeable = False


def _require_finite(what, *values):
    """Reject NaN and infinite parameters with :class:`DomainError`."""
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"{what} must be finite, got {', '.join(map(str, values))}")


def _as_density(rho):
    """Coerce to float array; reject values outside [0, 1] and NaN."""
    rho = np.asarray(rho, dtype=float)
    if rho.size:
        lo, hi = rho.min(), rho.max()
        # written negated so that a NaN extremum fails it
        if not (lo >= -1e-12 and hi <= 1 + 1e-12):
            raise DomainError(f"density outside [0, 1]: range [{lo}, {hi}]")
    return rho


# ---------------------------------------------------------------------------
# Speed laws
# ---------------------------------------------------------------------------

class SpeedLaw(ABC):
    """Density-dependent speed ``v(rho)`` on ``[0, 1]``.

    Implementations are immutable, hashable (the CFL bound keeps slopes
    per law; :class:`FluxModel` rejects an unhashable law) and vectorised:
    ``law(rho)`` accepts scalars or arrays.
    ``v_max`` is the maximal speed, ``lipschitz`` a Lipschitz constant of
    ``v`` and ``flux_lipschitz`` one of the flux ``rho -> rho*v(rho)``,
    both on ``[0, 1]``.
    """

    @abstractmethod
    def __call__(self, rho):
        """Evaluate the speed at density ``rho`` (no domain check)."""

    @property
    @abstractmethod
    def v_max(self):
        """Maximal speed over ``[0, 1]``."""

    @abstractmethod
    def lipschitz(self):
        """Lipschitz constant of ``rho -> v(rho)`` on ``[0, 1]``."""

    def flux(self, rho):
        """The flux ``rho * v(rho)``."""
        rho = np.asarray(rho, dtype=float)
        return rho * self(rho)

    def flux_slope(self, rho):
        """Derivative of the flux; central finite differences by default."""
        rho = np.asarray(rho, dtype=float)
        h = 1e-7
        lo = np.clip(rho - h, 0.0, 1.0)
        hi = np.clip(rho + h, 0.0, 1.0)
        return (self.flux(hi) - self.flux(lo)) / (hi - lo)

    def flux_lipschitz(self):
        """Sampled Lipschitz constant of the flux (sup of secant slopes)."""
        r = np.linspace(0.0, 1.0, 4097)
        f = self.flux(r)
        return float(np.max(np.abs(np.diff(f))) / (r[1] - r[0]))

    @cached_property
    def max_flux_slope(self):
        """``max |flux_slope|`` over :data:`SLOPE_SAMPLES`: the CFL speed of
        the law alone, computed once per law."""
        return float(np.max(np.abs(self.flux_slope(SLOPE_SAMPLES))))


@dataclass(frozen=True)
class Greenshields(SpeedLaw):
    """Linear speed law ``v(rho) = v_max * (1 - rho)``."""

    vmax: float = 1.0

    def __post_init__(self):
        _require_finite("vmax", self.vmax)
        if not self.vmax > 0:
            raise DomainError(f"vmax must be positive, got {self.vmax}")

    def __call__(self, rho):
        return self.vmax * (1.0 - np.asarray(rho, dtype=float))

    @property
    def v_max(self):
        return self.vmax

    def lipschitz(self):
        return self.vmax

    def flux_slope(self, rho):
        return self.vmax * (1.0 - 2.0 * np.asarray(rho, dtype=float))

    def flux_lipschitz(self):
        return self.vmax


@dataclass(frozen=True)
class EpsilonLaw(SpeedLaw):
    """Quadratic one-parameter family ``v(rho) = (1 + eps*rho) * (1 - rho)``.

    The family keeps ``v >= 0`` on ``[0, 1]`` for ``eps >= -1``; it is
    admissible (strictly concave flux, declared validity range) only for
    ``eps`` in ``[-1/3, 1/3]``, which :func:`check_admissible` reports.
    """

    eps: float

    def __post_init__(self):
        _require_finite("eps", self.eps)
        if self.eps < -1.0:
            raise DomainError(f"eps must be >= -1 to keep v >= 0, got {self.eps}")

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (1.0 + self.eps * rho) * (1.0 - rho)

    @property
    def v_max(self):
        if self.eps <= 1.0:
            return 1.0
        # interior maximum at rho = (eps - 1) / (2 eps)
        return (1.0 + self.eps) ** 2 / (4.0 * self.eps)

    def lipschitz(self):
        # v' = eps - 2*eps*rho - 1 is linear; extrema at the endpoints.
        return 1.0 + abs(self.eps)

    def flux_slope(self, rho):
        rho = np.asarray(rho, dtype=float)
        return 1.0 + 2.0 * (self.eps - 1.0) * rho - 3.0 * self.eps * rho * rho


class TabulatedLaw(SpeedLaw):
    """Speed law given by samples on a uniform density grid over [0, 1],
    evaluated by linear interpolation."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise DomainError("tabulated law needs a 1-d table of >= 2 values")
        if not np.all(np.isfinite(values)):
            raise DomainError("tabulated speeds must be finite")
        if np.min(values) < 0:
            raise DomainError("tabulated speeds must be non-negative")
        self._values = values
        self._values.setflags(write=False)
        self._grid = np.linspace(0.0, 1.0, values.size)

    @property
    def values(self):
        return self._values

    def __call__(self, rho):
        return np.interp(np.asarray(rho, dtype=float), self._grid, self._values)

    @property
    def v_max(self):
        return float(np.max(self._values))

    def lipschitz(self):
        dr = self._grid[1] - self._grid[0]
        return float(np.max(np.abs(np.diff(self._values))) / dr)

    def __repr__(self):
        return f"TabulatedLaw(n={self._values.size}, v_max={self.v_max})"


# ---------------------------------------------------------------------------
# Cutoff profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffProfile:
    """Even, compactly supported C^1 weight with a cubic smoothstep skirt.

    ``chi(xi) = 1`` for ``|xi| <= inner``, ``0`` for ``|xi| >= outer`` and
    ``1 - s^2 (3 - 2 s)`` with ``s = (|xi| - inner) / (outer - inner)``
    in between.
    """

    inner: float = 0.05
    outer: float = 0.15

    def __post_init__(self):
        _require_finite("cutoff radii", self.inner, self.outer)
        if not 0.0 < self.inner < self.outer:
            raise DomainError(
                f"cutoff radii must satisfy 0 < inner < outer, "
                f"got ({self.inner}, {self.outer})"
            )

    def __call__(self, xi):
        a = np.abs(np.asarray(xi, dtype=float))
        s = np.clip((a - self.inner) / (self.outer - self.inner), 0.0, 1.0)
        return 1.0 - s * s * (3.0 - 2.0 * s)

    def derivative(self, xi):
        """d chi / d xi, closed form."""
        xi = np.asarray(xi, dtype=float)
        a = np.abs(xi)
        width = self.outer - self.inner
        s = (a - self.inner) / width
        inside = (s > 0.0) & (s < 1.0)
        slope = np.where(inside, -6.0 * s * (1.0 - s) / width, 0.0)
        return slope * np.sign(xi)

    def lipschitz(self):
        """Lipschitz constant of chi: the skirt's maximal slope 1.5/(outer-inner)."""
        return 1.5 / (self.outer - self.inner)


# ---------------------------------------------------------------------------
# Probe trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExogenousSpeed:
    """Program segment with a prescribed constant speed on [start, end)."""

    start: float
    end: float | None
    speed: float

    def __post_init__(self):
        _require_finite("probe speed", self.speed)
        if self.speed < 0.0:
            raise DomainError(f"probe speeds must be >= 0, got {self.speed}")
        _check_interval(self.start, self.end)


@dataclass(frozen=True)
class ModelCoupled:
    """Program segment on [start, end) where the probe rides the traffic:
    its speed is the law evaluated at the density trace just ahead."""

    start: float
    end: float | None

    def __post_init__(self):
        _check_interval(self.start, self.end)


def _check_interval(start, end):
    _require_finite("segment start", start)
    if end is not None:
        _require_finite("segment end", end)
    if start < 0.0:
        raise DomainError(f"segment start must be >= 0, got {start}")
    if end is not None and end <= start:
        raise DomainError(f"empty segment [{start}, {end})")


class _SpeedTable:
    """A probe program compiled once into one table of speed knots.

    The speed is the piecewise-linear interpolant of the knots ``(t, w)``,
    and ``disp`` holds the displacement accumulated at each knot
    (trapezoid rule on each span, exact for a linear speed).  Knot 0 sits
    at ``t = 0``; knots ``2k + 1`` and ``2k + 2`` carry the ``k``-th switch
    between program pieces, at ``t_b - tau`` and ``t_b + tau``: a speed jump
    when ``tau == 0`` (two knots at one time, the later one in force from
    ``t_b`` on), a linear ramp (the moving box average of the jump) when
    ``tau > 0``.  The last piece runs on past the last knot.  A
    model-coupled piece has no programmed speed: its knots hold NaN.

    ``ts``, ``ws`` and ``disp`` are lists of Python floats, for the scalar
    queries of a run's step loop.
    """

    def __init__(self, segments, tau):
        pieces = _program_pieces(segments)
        widths = [(b if b is not None else math.inf) - a for a, b, _ in pieces]
        if tau > min(widths) / 2.0:
            raise DomainError(
                f"mollification radius {tau} exceeds half the narrowest "
                f"program piece ({min(widths)})"
            )
        ts, ws = [0.0], [pieces[0][2]]
        for (_, t_b, w0), (_, _, w1) in zip(pieces, pieces[1:]):
            ts += [t_b - tau, t_b + tau]
            ws += [w0, w1]
        t, w = np.array(ts), np.array(ws, dtype=float)
        # an overflowing displacement is rejected below, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            disp = np.concatenate([[0.0], np.cumsum(np.diff(t) * (w[1:] + w[:-1]) / 2.0)])
        self.exogenous = not np.isnan(w).any()
        # past the last knot the trapezoid adds w[-1] + w[-1]
        if self.exogenous and not (np.all(np.isfinite(disp)) and math.isfinite(2.0 * ws[-1])):
            raise DomainError(
                f"probe program's closed-form displacement is not finite: "
                f"speeds up to {max(ws)} overflow it"
            )
        self.ts, self.ws, self.disp = t.tolist(), w.tolist(), disp.tolist()
        self._last = (math.nan, 0, math.nan)  # no time equals NaN

    def lookup(self, t):
        """:func:`_knot_lookup` on this table's knots.  The last answer is
        kept, so the state and the speed a run step asks for at one time
        cost one search.  It is one tuple, replaced whole, so runs sharing
        the table in threads read a consistent answer."""
        last = self._last
        if last[0] == t:
            return last[1], last[2]
        t = float(t)
        i, w = _knot_lookup(self.ts, self.ws, t)
        self._last = (t, i, w)
        return i, w


def _knot_lookup(ts, ws, t):
    """``(i, w)`` at the float time ``t`` for the knots ``(ts, ws)``, lists
    of floats with ``ts`` sorted: the index ``i`` of the last knot at or
    before ``t`` (0 before the first) and the interpolated value ``w``, bit
    for bit ``max(np.searchsorted(ts, t, "right") - 1, 0)`` and
    ``np.interp(t, ts, ws)`` without numpy's per-call cost."""
    k = bisect_right(ts, t)
    i = max(k - 1, 0)
    # np.interp's branches, in its order, with the same arithmetic
    if len(ts) == 1:
        return i, ws[0]
    if t != t:
        return i, t
    if k == 0:
        return i, ws[0]
    if k == len(ts):
        return i, ws[-1]
    if ts[i] == t:
        return i, ws[i]
    slope = (ws[i + 1] - ws[i]) / (ts[i + 1] - ts[i])
    w = slope * (t - ts[i]) + ws[i]
    if w != w:  # NaN one way: try from the other end of the span
        w = slope * (t - ts[i + 1]) + ws[i + 1]
        if w != w and ws[i] == ws[i + 1]:
            w = ws[i]
    return i, w


def _program_pieces(segments):
    """Normalise a segment list into contiguous (start, end, speed) pieces
    covering [0, inf); uncovered time runs at speed 0 and a model-coupled
    segment has speed NaN."""
    segs = sorted(segments, key=lambda s: s.start)
    pieces = []
    t = 0.0
    for s in segs:
        if s.start > t:
            pieces.append((t, s.start, 0.0))
        pieces.append((s.start, s.end, s.speed if isinstance(s, ExogenousSpeed) else math.nan))
        if s.end is None:
            return pieces
        t = s.end
    pieces.append((t, None, 0.0))
    return pieces


class ProbeTrajectory:
    """A probe vehicle: initial position and speed program.

    The program is an ordered list of :class:`ExogenousSpeed` /
    :class:`ModelCoupled` segments with disjoint half-open intervals; time
    not covered by any segment runs at exogenous speed 0.  ``mollify_radius``
    smooths speed jumps of fully exogenous programs into linear ramps (used
    both when driving the probe and when computing stability constants).
    ``observer=True`` excludes the probe from the flux blend: it is advanced
    and recorded, but does not feed back into the equation.

    The program is compiled once into one speed table, which answers
    :meth:`speed_at` and :meth:`state_at`.  A trajectory carries no run-time
    state, so one object can serve any number of runs; a run keeps its
    probes' positions, speeds and recorded paths itself.
    """

    def __init__(self, x0, program, mollify_radius=0.0, observer=False):
        program = tuple(program)
        if not program:
            raise DomainError("probe program must contain at least one segment")
        _check_disjoint(program)
        _require_finite("x0 and mollify_radius", x0, mollify_radius)
        if mollify_radius < 0.0:
            raise DomainError("mollify_radius must be >= 0")
        if mollify_radius > 0.0 and any(isinstance(s, ModelCoupled) for s in program):
            raise DomainError(
                "mollification is defined only for fully exogenous programs"
            )
        self.x0 = float(x0)
        self.program = program
        self.mollify_radius = float(mollify_radius)
        self.observer = bool(observer)
        self._table = _SpeedTable(program, self.mollify_radius)

    # -- program queries ---------------------------------------------------

    @property
    def is_exogenous(self):
        return self._table.exogenous

    def speed_at(self, t):
        """Programmed (possibly mollified) speed at time t, or ``None`` where
        the program is model-coupled."""
        _, w = self._table.lookup(t)
        return None if w != w else w

    def state_at(self, t):
        """Position and speed at time t of a fully exogenous program, in
        closed form.

        A program with a model-coupled segment has no closed form: its path
        depends on the density field, so it raises
        :class:`ProbeStateError`.
        """
        if not self.is_exogenous:
            raise ProbeStateError(
                f"model-coupled probe has no closed-form state at t={t}; "
                "positions become available only while a simulation advances it"
            )
        table = self._table
        i, w = table.lookup(t)
        disp = table.disp[i] + (float(t) - table.ts[i]) * (table.ws[i] + w) / 2.0
        return self.x0 + disp, w

    def max_speed(self, law_vmax):
        """Upper bound for the probe's speed over its whole program."""
        bound = 0.0
        for s in self.program:
            if isinstance(s, ExogenousSpeed):
                bound = max(bound, s.speed)
            else:
                bound = max(bound, law_vmax)
        return bound

    def min_speed(self):
        """Smallest speed a fully exogenous program takes (ramps are
        monotone, so the knots suffice)."""
        return float(np.min(self._table.ws))

    def speed_jumps(self):
        """Size of each switch between program pieces, in time order."""
        ws = self._table.ws
        return [abs(w1 - w0) for w0, w1 in zip(ws[1::2], ws[2::2])]

    def profile_speeds(self):
        """Representative speeds above :data:`ZERO_DENOM_TOL` that a fully
        exogenous program takes: its knot values plus nine samples across
        each ramp."""
        t, w = self._table.ts, self._table.ws
        values = set(w)
        for t0, t1, w0, w1 in zip(t, t[1:], w, w[1:]):
            if t0 != t1 and w0 != w1:
                values.update(float(v) for v in np.linspace(w0, w1, 9))
        return sorted(v for v in values if v > ZERO_DENOM_TOL)

    def boundary_times(self):
        """Times where the program's speed law changes (segment edges and
        mollification ramp edges), for exact time-step alignment."""
        times = {t for t in self._table.ts if t > 0.0}
        for s in self.program:
            for t in (s.start, s.end):
                if t is not None and t > 0.0:
                    times.add(float(t))
        return sorted(times)

    def clone(self, observer=None):
        """Probe with the same program, optionally with the observer flag
        changed."""
        return ProbeTrajectory(
            self.x0,
            self.program,
            mollify_radius=self.mollify_radius,
            observer=self.observer if observer is None else observer,
        )


def _check_disjoint(program):
    spans = sorted(
        ((s.start, math.inf if s.end is None else s.end) for s in program),
        key=lambda ab: ab[0],
    )
    for (a0, b0), (a1, _) in zip(spans, spans[1:]):
        if a1 < b0:
            raise DomainError(
                f"probe program segments overlap near t={a1}"
            )


# ---------------------------------------------------------------------------
# Flux model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluxModel:
    """The conservation-law flux assembled from a speed law, a cutoff
    profile, and probe trajectories.

    ``trace_side`` fixes how the density field is read at a probe position:
    ``"right"`` takes the first cell at or ahead of the probe, ``"left"``
    the last cell at or behind it.
    """

    speed_law: SpeedLaw
    cutoff: CutoffProfile = field(default_factory=CutoffProfile)
    probes: tuple = ()
    trace_side: str = "right"

    def __post_init__(self):
        if self.trace_side not in ("right", "left"):
            raise DomainError(f"trace_side must be 'right' or 'left', got {self.trace_side!r}")
        try:  # the CFL bound keeps slopes per law
            hash(self.speed_law)
        except TypeError:
            raise DomainError(f"speed law {type(self.speed_law).__name__} is not hashable") from None
        object.__setattr__(self, "probes", tuple(self.probes))

    @cached_property
    def coupled_probes(self):
        """Probes that participate in the flux blend (non-observers)."""
        return tuple(p for p in self.probes if not p.observer)

    def probe_states(self, t):
        """``(position, speed)`` of every coupled probe at time ``t`` from
        the closed-form paths of exogenous programs
        (:class:`ProbeStateError` for a model-coupled program)."""
        return tuple(p.state_at(t) for p in self.coupled_probes)

    def max_probe_speed(self):
        """Largest speed any blended probe can be programmed to take."""
        vmax = self.speed_law.v_max
        speeds = [p.max_speed(vmax) for p in self.coupled_probes]
        return max(speeds) if speeds else 0.0


def eval_speed_law(law, rho):
    """Evaluate a speed law at densities ``rho`` in [0, 1].

    Raises :class:`DomainError` for out-of-range densities.
    """
    return law(_as_density(rho))


def harmonic_speed(w, v):
    """Blend of a measured speed ``w`` and a law speed ``v``:
    ``2*w*v / (w + v)``, extended by 0 where ``w + v`` vanishes.

    The blend is symmetric, lies in ``[min(w, v), 2*min(w, v)]`` for
    positive arguments, and returns ``v`` exactly when ``w == v``.
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    denom = w + v
    # one masked division; where it is skipped the result stays 0.  A NaN
    # denominator fails ``denom < tol``, so it is divided by and stays NaN.
    out = np.divide(
        2.0 * w * v, denom, out=np.zeros(np.shape(denom)), where=~(denom < ZERO_DENOM_TOL)
    )
    # exact fixed point: agreement between the two speeds is preserved bitwise
    np.copyto(out, v, where=w == v)
    if out.ndim == 0:
        return float(out)
    return out


def check_states(model, states):
    """Reject ``states`` unless it holds one entry per coupled probe."""
    if len(states) != len(model.coupled_probes):
        raise DomainError(f"{len(states)} states for {len(model.coupled_probes)} coupled probes")


def _stacked_weights(model, states, x, windows):
    """Every coupled probe's cutoff weight over its window of 1-d ``x``, all
    probes in one pass.

    ``windows`` holds one slice of ``x`` per probe, or is ``None`` for the
    whole of ``x``.  Returns ``idx``, the indices into ``x`` of every
    window concatenated in probe order; ``counts``, the number of them per
    probe; ``chi``, the weights ``chi(x - p_i)`` at ``idx``; and ``total``,
    the per-point sum of the weights, added in probe order as one running
    sum per point would be.  A window must cover every point with
    ``|x - p_i| < outer``: ``chi`` is exactly 0 elsewhere, so a skipped
    point only loses a ``+0`` and ``total`` is bit-for-bit the one summed
    over the whole of ``x``.
    """
    if windows is None:
        windows = (slice(None),) * len(states)
    elif len(windows) != len(states):
        raise DomainError(f"{len(windows)} windows for {len(states)} probe states")
    rows = [range(x.size)[win] for win in windows]
    idx = np.concatenate([np.arange(r.start, r.stop, r.step) for r in rows] or [np.arange(0)])
    counts = [len(r) for r in rows]
    positions = np.repeat(np.array([p for p, _ in states], dtype=float), counts)
    chi = model.cutoff(x[idx] - positions)
    # bincount adds in the order of idx: probe order at every point
    total = np.bincount(idx, weights=chi, minlength=x.size)
    return idx, counts, chi, total


def eval_encoded_speed(model, states, x, rho):
    """The blended speed field ``V(x, rho)``.

    ``states`` holds the ``(position p_i, speed pdot_i)`` of every coupled
    probe, in :attr:`FluxModel.coupled_probes` order (:class:`DomainError`
    otherwise): :meth:`FluxModel.probe_states` for programmed probes, or
    what a running simulation resolves.  Each probe contributes a weight
    ``w_i = chi(x - p_i)``.  With ``W = sum(w_i) <= 1`` the speed is
    ``(1 - W) * v(rho) + sum_i w_i * harmonic_speed(pdot_i, v(rho))``; for
    ``W > 1`` the weights are first normalised by ``W`` (the blend stays a
    convex combination).  ``x`` and ``rho`` may be of any broadcast shapes.
    """
    return _blended_speed(model, states, x, _as_density(rho))


def _blended_speed(model, states, x, rho, windows=None):
    """:func:`eval_encoded_speed` on a density array already checked, each
    probe blended only over its window of ``x`` (see
    :func:`_stacked_weights`).  Shapes other than 1-d ``x`` and ``rho`` of
    one shape are broadcast together, blended as one flat C-ordered row and
    reshaped back; ``windows`` need the 1-d form (:class:`DomainError`).

    Every probe's window is blended in one stacked pass, whatever the
    number of probes: one cutoff evaluation and one harmonic blend over the
    concatenated windows, and one unbuffered ``np.add.at``, which adds in
    index order, so each point receives its probes' terms in probe order,
    as a loop over the probes would add them.
    """
    check_states(model, states)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape != rho.shape:
        if windows is not None:
            raise DomainError(f"windows need 1-d x and rho of one shape: {x.shape}, {rho.shape}")
        x, rho = np.broadcast_arrays(x, rho)
        return _blended_speed(model, states, x.ravel(), rho.ravel()).reshape(x.shape)[()]
    v = model.speed_law(rho)
    # accumulate as v + sum w_i (H_i - v): algebraically the convex
    # combination, but exact (not just close) wherever every H_i equals v.
    # Outside its window a probe's term would be (0 / scale) * (H_i - v),
    # a signed zero, which leaves every bit of out (never -0) unchanged.
    # Adding 0.0 turns a -0 of v into +0, as adding the zeros would.
    out = v + 0.0
    if states:
        idx, counts, chi, total = _stacked_weights(model, states, x, windows)
        vw = v[idx]
        speeds = np.repeat(np.array([pdot for _, pdot in states], dtype=float), counts)
        term = (chi / np.maximum(total[idx], 1.0)) * (harmonic_speed(speeds, vw) - vw)
        np.add.at(out, idx, term)
    return out


def eval_flux(model, states, x, rho, windows=None):
    """The conservation-law flux ``rho * V(x, rho)``, with the coupled
    probes' ``states`` as in :func:`eval_encoded_speed`, each blended only
    over its slice of ``windows`` of 1-d ``x`` (see
    :func:`_stacked_weights`; by default the whole of ``x``)."""
    rho = _as_density(rho)
    return rho * _blended_speed(model, states, x, rho, windows)


def eval_g(law, rho, q):
    """The auxiliary map ``g(rho, q) = q * rho * v(rho) / (q + v(rho))``,
    extended by 0 where the denominator vanishes."""
    rho = _as_density(rho)
    q = np.asarray(q, dtype=float)
    v = law(rho)
    denom = q + v
    safe = np.where(denom < ZERO_DENOM_TOL, 1.0, denom)
    out = np.where(denom < ZERO_DENOM_TOL, 0.0, q * rho * v / safe)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    worst_violation: float


@dataclass(frozen=True)
class AdmissibilityReport:
    law: SpeedLaw
    conditions: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.conditions)

    def condition(self, name):
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self):
        lines = [f"admissibility of {self.law!r}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.conditions:
            lines.append(
                f"  {'ok  ' if c.passed else 'FAIL'} {c.name}"
                f" (worst violation {c.worst_violation:.3e})"
            )
        return "\n".join(lines)


def _second_differences(values, h):
    """Normalised interior second differences (approximate f'')."""
    return (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h * h)


def _boundary_curvature(f, at_zero, h=1e-4):
    """Second derivative of ``f`` at an endpoint of [0, 1], one-sided.

    Uses Richardson extrapolation ``2 D(h/2) - D(h)`` of the one-sided
    second difference, which cancels the O(h) skew of the one-sided stencil
    (exact for cubic f, up to rounding).
    """
    def one_sided(hh):
        if at_zero:
            pts = f(np.array([0.0, hh, 2.0 * hh]))
        else:
            pts = f(np.array([1.0, 1.0 - hh, 1.0 - 2.0 * hh]))
        return (pts[2] - 2.0 * pts[1] + pts[0]) / (hh * hh)

    return 2.0 * one_sided(h / 2.0) - one_sided(h)


#: Relative strictness floor for the flux-concavity scan: the estimated f''
#: must stay below -STRICT_CONCAVITY_REL * max|f''|.  This resolves genuine
#: curvature degeneracy (f'' -> 0 somewhere on the closed interval) while
#: sitting far above finite-difference noise (~1e-7).
STRICT_CONCAVITY_REL = 1e-4

#: Declared validity range of the quadratic family parameter.
EPSILON_ADMISSIBLE = (-1.0 / 3.0, 1.0 / 3.0)


def check_admissible(law):
    """Scan a speed law on 201 evenly spaced densities for the
    admissibility conditions.

    Checks, each reported with its worst violation magnitude:

    * ``v(1) = 0``;
    * ``v`` non-increasing on a sampled grid (tolerance 1e-12);
    * ``0 <= v <= v_max``;
    * strict concavity of the flux ``rho*v(rho)`` on the closed interval,
      via interior second differences plus extrapolated one-sided second
      derivatives at both endpoints;
    * strict concavity (interior samples) of the blended flux
      ``rho -> w*rho*v/(w+v)`` for ``w`` in ``{0.1, 0.5, 1, 2} * v_max``;
    * for :class:`EpsilonLaw`, the declared parameter range [-1/3, 1/3].
    """
    grid = np.linspace(0.0, 1.0, 201)
    h = grid[1] - grid[0]
    v = law(grid)
    conditions = []

    viol = abs(float(v[-1]))
    conditions.append(ConditionCheck("speed_vanishes_at_full_density", viol <= 1e-12, viol))

    increase = float(np.max(np.diff(v), initial=-np.inf))
    viol = max(0.0, increase)
    conditions.append(ConditionCheck("speed_monotone_nonincreasing", viol <= 1e-12, viol))

    viol = max(0.0, float(np.max(-v)), float(np.max(v - law.v_max)))
    conditions.append(ConditionCheck("speed_within_range", viol <= 1e-12, viol))

    flux = grid * v
    curv = list(_second_differences(flux, h))
    curv.append(_boundary_curvature(law.flux, at_zero=True))
    curv.append(_boundary_curvature(law.flux, at_zero=False))
    curv = np.asarray(curv)
    scale = float(np.max(np.abs(curv)))
    threshold = -STRICT_CONCAVITY_REL * scale
    worst = float(np.max(curv))
    passed = scale > 0.0 and worst <= threshold
    conditions.append(
        ConditionCheck("flux_strictly_concave", passed, max(0.0, worst - threshold))
    )

    worst_blend = -math.inf
    for w in (0.1, 0.5, 1.0, 2.0):
        g = eval_g(law, grid, w * law.v_max)
        worst_blend = max(worst_blend, float(np.max(_second_differences(g, h))))
    passed = worst_blend <= -1e-12
    conditions.append(
        ConditionCheck("blend_strictly_concave", passed, max(0.0, worst_blend + 1e-12))
    )

    if isinstance(law, EpsilonLaw):
        lo, hi = EPSILON_ADMISSIBLE
        viol = max(0.0, lo - law.eps, law.eps - hi)
        conditions.append(ConditionCheck("family_parameter_range", viol == 0.0, viol))

    return AdmissibilityReport(law=law, conditions=tuple(conditions))


# ---------------------------------------------------------------------------
# Lipschitz moduli and the stability rate C
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzConstants:
    """Moduli of the blended speed field.

    ``M``: maximal value of the blend ``2*w*v/(w+v)`` over programmed probe
    speeds and law speeds.  ``Lx`` bounds ``|d V / d x|``, ``Lrho`` bounds
    ``|d V / d rho|``.  ``Lxrho_sampled`` is a finite-difference estimate of
    the Lipschitz constant of ``rho -> dV/dx``, reported next to two
    reference bounds it can be compared against.
    """

    M: float
    Lx: float
    Lrho: float
    Lxrho_sampled: float
    Lxrho_reference: float
    Lxrho_direct: float


def lipschitz_constants(model):
    """Compute the moduli of the blended speed field of ``model``."""
    law = model.speed_law
    vmax = law.v_max
    lip_v = law.lipschitz()
    lip_chi = model.cutoff.lipschitz()
    P = model.max_probe_speed()
    # the blend is monotone in both arguments: maximum at the corner (P, vmax)
    M = 0.0 if P == 0.0 else 2.0 * P * vmax / (P + vmax)
    has_probes = bool(model.coupled_probes)
    Lx = (M + vmax) * lip_chi if has_probes else 0.0
    Lrho = 2.0 * lip_v
    return LipschitzConstants(
        M=M,
        Lx=Lx,
        Lrho=Lrho,
        Lxrho_sampled=_sampled_xrho_lipschitz(model),
        Lxrho_reference=(1.0 + lip_chi) * lip_v,
        Lxrho_direct=3.0 * lip_chi * lip_v,
    )


def _sampled_xrho_lipschitz(model):
    """Finite-difference estimate of Lip of ``rho -> dV/dx``.

    ``dV/dx = chi'(x - p) * (blend(pdot, v) - v)`` depends on (t, x) only
    through the offset ``xi = x - p(t)`` and the probe speed, so the sup is
    taken over a (xi, speed, rho) grid; probe speeds are sampled from each
    program (the law's maximal speed stands in for model-coupled segments).
    """
    if not model.coupled_probes:
        return 0.0
    law = model.speed_law
    speeds = set()
    for probe in model.coupled_probes:
        for seg in probe.program:
            if isinstance(seg, ExogenousSpeed):
                speeds.add(seg.speed)
            else:
                speeds.add(law.v_max)
        speeds.add(0.0)  # gaps and program end run at speed 0
    xi = np.linspace(-model.cutoff.outer, model.cutoff.outer, 201)
    slope = model.cutoff.derivative(xi)[:, None]
    rho = np.linspace(0.0, 1.0, 201)
    v = law(rho)[None, :]
    worst = 0.0
    drho = rho[1] - rho[0]
    for w in sorted(speeds):
        dvdx = slope * (harmonic_speed(w, v) - v)
        worst = max(worst, float(np.max(np.abs(np.diff(dvdx, axis=1))) / drho))
    return worst


def mixed_difference_constant(law, P):
    """Sampled bound on the mixed second derivative of ``g``.

    Returns the sup over a 241 x 241 ``(rho, q)`` grid of
    ``|d^2 g / (d rho d q)|`` estimated by nested central differences of
    :func:`eval_g`; this constant ``B`` satisfies (up to sampling)
    ``|g(r1,q1) - g(r1,q2) - g(r2,q1) + g(r2,q2)| <= B |r1-r2| |q1-q2|``.
    """
    if P <= 0.0:
        return 0.0
    n, h = 241, 1e-5
    k = min(h, P / 4.0)
    rho = np.linspace(h, 1.0 - h, n)[:, None]
    q = np.linspace(k, P - k, n)[None, :]
    mixed = (
        eval_g(law, rho + h, q + k)
        - eval_g(law, rho + h, q - k)
        - eval_g(law, rho - h, q + k)
        + eval_g(law, rho - h, q - k)
    ) / (4.0 * h * k)
    return float(np.max(np.abs(mixed)))


@dataclass(frozen=True)
class StabilityConstant:
    """The L1-stability growth rate, with its ingredients.

    ``value`` is ``+inf`` when the probe program does not admit a finite
    rate (a model-coupled segment, or unmollified speed jumps).
    """

    value: float
    per_probe: tuple
    reason: str = ""

    @property
    def unbounded(self):
        return math.isinf(self.value)

    def __str__(self):
        if self.unbounded:
            return f"StabilityConstant(unbounded: {self.reason})"
        return f"StabilityConstant({self.value:.6g})"


def stability_constant_C(model):
    """Growth rate ``C`` of the L1 stability estimate for ``model``.

    Per probe, ``C_i = Lip(chi) * (1 + P) * (P * L_hm + Lip(rho*v))
    + Lip(g) * Lip(pdot)`` where ``P`` is the probe's maximal speed,
    ``L_hm`` the sampled Lipschitz constant of
    ``rho -> rho*v(rho)/(w + v(rho))`` over the speeds ``w`` the (possibly
    mollified) program takes, ``Lip(g)`` the mixed-difference constant, and
    ``Lip(pdot)`` the slope bound of the mollified speed profile.  The total
    is the sum over probes; no probes give ``C = 0``.
    """
    law = model.speed_law
    probes = model.coupled_probes
    if not probes:
        return StabilityConstant(value=0.0, per_probe=())
    lip_chi = model.cutoff.lipschitz()
    lip_flux = law.flux_lipschitz()
    parts = []
    total = 0.0
    for i, probe in enumerate(probes):
        if not probe.is_exogenous:
            return StabilityConstant(
                value=math.inf,
                per_probe=(),
                reason=f"probe {i} has a model-coupled segment; its speed "
                "inherits jumps from the density trace",
            )
        jumps = [j for j in probe.speed_jumps() if j > 0.0]
        if jumps and probe.mollify_radius == 0.0:
            return StabilityConstant(
                value=math.inf,
                per_probe=(),
                reason=f"probe {i} has unmollified speed jumps "
                "(piecewise-constant program)",
            )
        lip_pdot = max(jumps) / (2.0 * probe.mollify_radius) if jumps else 0.0
        P = probe.max_speed(law.v_max)
        L_hm = _sampled_harmonic_lipschitz(law, probe.profile_speeds())
        lip_g = mixed_difference_constant(law, P)
        contribution = lip_chi * (1.0 + P) * (P * L_hm + lip_flux) + lip_g * lip_pdot
        parts.append(
            {
                "P": P,
                "L_hm": L_hm,
                "lip_flux": lip_flux,
                "lip_g": lip_g,
                "lip_pdot": lip_pdot,
                "value": contribution,
            }
        )
        total += contribution
    return StabilityConstant(value=total, per_probe=tuple(parts))


def _sampled_harmonic_lipschitz(law, speeds):
    """Sampled sup over probe speeds ``w`` of the Lipschitz constant of
    ``rho -> rho * v(rho) / (w + v(rho))``."""
    if not speeds:
        return 0.0
    rho = np.linspace(0.0, 1.0, 2001)
    v = law(rho)
    drho = rho[1] - rho[0]
    worst = 0.0
    for w in speeds:
        m = rho * v / (w + v)
        worst = max(worst, float(np.max(np.abs(np.diff(m))) / drho))
    return worst
