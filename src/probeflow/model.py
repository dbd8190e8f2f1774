"""Speed laws, cutoff profiles, probe trajectories, and the probe-encoded flux.

The traffic state is a density ``rho`` in ``[0, 1]``.  A speed law ``v(rho)``
gives the preferred speed of cars.  A probe vehicle at position ``p(t)``
moving with measured speed ``pdot(t)`` modifies the speed field near itself:
within the support of a cutoff profile ``chi`` centred on the probe, the
effective speed is the harmonic-type blend ``2*pdot*v / (pdot + v)`` of the
measured and the modelled speed, interpolated by ``chi`` back to ``v(rho)``
away from the probe.  The conservation-law flux is
``f(t, x, rho) = rho * V(t, x, rho)`` with ``V`` the blended speed field.

The analytic moduli attached to that flux (Lipschitz constants, the
auxiliary map ``g`` and its mixed-difference bound, and the L1 stability
rate ``C``) are in :mod:`probeflow.estimates`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import DomainError, ProbeStateError, require_finite

#: Denominators below this threshold make the harmonic blend (and the map g)
#: return 0, the continuous extension at (probe speed, law speed) = (0, 0).
ZERO_DENOM_TOL = 1e-12


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
    ``law(rho)`` accepts scalars or arrays.  A law provides ``__call__``,
    ``v_max``, its maximal speed, and ``pieces``, ``v`` in closed form;
    every derivative, bound and inverse is read from ``pieces``.
    """

    @abstractmethod
    def __call__(self, rho):
        """Evaluate the speed at density ``rho`` (no domain check)."""

    @property
    @abstractmethod
    def v_max(self):
        """Maximal speed over ``[0, 1]``."""

    @property
    @abstractmethod
    def pieces(self):
        """``(start, end, (a, b, c))`` per piece, in order, tiling [0, 1]:
        ``v(rho) = a + b rho + c rho**2`` on ``[start, end]``."""

    def flux(self, rho):
        """The flux ``rho * v(rho)``."""
        rho = np.asarray(rho, dtype=float)
        return rho * self(rho)

    def flux_slope(self, rho):
        """Derivative of the flux, ``a + 2 b rho + 3 c rho**2`` on the
        piece that starts at ``rho`` or holds it (the last piece at 1)."""
        return _flux_slope(self, rho, "right")

    def lipschitz(self):
        """Lipschitz constant of ``v`` on ``[0, 1]``: ``|v'| = |b + 2 c
        rho|`` is largest at an end of a piece.  It is read from the
        piece coefficients as rounded to float64, so it may differ from
        the closed form in the last place: ``EpsilonLaw(0.3)`` gives
        ``|(0.3 - 1.0) + 2 (-0.3)| = 1.2999999999999998``, not 1.3."""
        return max(abs(b + 2.0 * c * r) for s, e, (_, b, c) in self.pieces for r in (s, e))

    def flux_lipschitz(self):
        """Lipschitz constant of the flux ``rho -> rho*v(rho)`` on
        ``[0, 1]``, its exact maximal slope."""
        return _peak_slope(self, 0.0, 1.0)[0]

    @cached_property
    def failed_conditions(self):
        """Names of the :func:`check_admissible` conditions this law fails,
        empty for an admissible law; decided once per law."""
        report = check_admissible(self)
        return tuple(c.name for c in report.conditions if not c.passed)


@dataclass(frozen=True)
class Greenshields(SpeedLaw):
    """Linear speed law ``v(rho) = v_max * (1 - rho)``."""

    vmax: float = 1.0

    def __post_init__(self):
        require_finite("vmax", self.vmax)
        if not self.vmax > 0:
            raise DomainError(f"vmax must be positive, got {self.vmax}")

    def __call__(self, rho):
        return self.vmax * (1.0 - np.asarray(rho, dtype=float))

    @property
    def v_max(self):
        return self.vmax

    @property
    def pieces(self):
        return ((0.0, 1.0, (self.vmax, -self.vmax, 0.0)),)


@dataclass(frozen=True)
class EpsilonLaw(SpeedLaw):
    """Quadratic one-parameter family ``v(rho) = (1 + eps*rho) * (1 - rho)``.

    The family keeps ``v >= 0`` on ``[0, 1]`` for ``eps >= -1``; it is
    admissible (strictly concave flux, declared validity range) only for
    ``eps`` in ``[-1/3, 1/3]``, which :func:`check_admissible` reports.
    """

    eps: float

    def __post_init__(self):
        require_finite("eps", self.eps)
        if self.eps < -1.0:
            raise DomainError(f"eps must be >= -1 to keep v >= 0, got {self.eps}")

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (1.0 + self.eps * rho) * (1.0 - rho)

    @property
    def v_max(self):
        if self.eps <= 1.0:
            return 1.0
        # the larger of the law's own values at 0 and at its interior
        # maximum, so that rounding leaves neither above v_max
        return max(1.0, float(self((self.eps - 1.0) / (2.0 * self.eps))))

    @property
    def pieces(self):
        return ((0.0, 1.0, (1.0, self.eps - 1.0, -self.eps)),)


class TabulatedLaw(SpeedLaw):
    """Speed law given by samples on a uniform density grid over [0, 1],
    evaluated by linear interpolation: one linear piece per pair of
    neighbouring knots."""

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
        rho, v = self._grid.tolist(), values.tolist()
        slopes = [(v1 - v0) / (r1 - r0) for r0, r1, v0, v1 in zip(rho, rho[1:], v, v[1:])]
        self._pieces = tuple(
            (r0, r1, (v0 - b * r0, b, 0.0)) for r0, r1, v0, b in zip(rho, rho[1:], v, slopes)
        )

    @property
    def values(self):
        return self._values

    def __call__(self, rho):
        return np.interp(np.asarray(rho, dtype=float), self._grid, self._values)

    @property
    def v_max(self):
        return float(np.max(self._values))

    @property
    def pieces(self):
        return self._pieces

    def __repr__(self):
        return f"TabulatedLaw(n={self._values.size}, v_max={self.v_max})"


# ---------------------------------------------------------------------------
# Calculus of a law's pieces
# ---------------------------------------------------------------------------

def _flux_slope(law, rho, side):
    """``f'(rho)`` from ``law.pieces``, vectorised.  At a knot, ``side``
    picks the piece as :func:`numpy.searchsorted` does among the piece
    starts: ``"right"`` the piece that starts there, ``"left"`` the one
    that ends there (the first piece at 0 and the last at 1 either way)."""
    rho = np.asarray(rho, dtype=float)
    pieces = law.pieces
    starts = np.array([start for start, _, _ in pieces])
    i = np.clip(np.searchsorted(starts, rho, side) - 1, 0, len(pieces) - 1)
    a, b, c = np.array([coefs for _, _, coefs in pieces]).T[:, i]
    return a + 2.0 * b * rho + 3.0 * c * rho * rho


def _blend_cubic(c, k, b, r):
    """``c**2 r**3 - 3 c k r - b k``: with ``k = w + a``, the sign of ``-g''``
    for a probe at speed ``w`` on a piece ``v = a + b r + c r**2``."""
    cr = c * r
    return cr * cr * r - 3.0 * k * cr - b * k


def _cubic_turn(c, k, s, e):
    """The turning point ``r**2 = k / c`` of :func:`_blend_cubic`, clipped
    to ``[s, e]``; ``e`` when it has none."""
    return min(max(math.sqrt(k / c), s), e) if k / c > 0.0 else e


def _cubic_roots(c, k, b, s, e):
    """The roots in ``[s, e]`` of :func:`_blend_cubic`, by bisection on
    either side of its turning point: no coefficient is divided by ``c``,
    so none overflows."""
    cubic = partial(_blend_cubic, c, k, b)
    turn = _cubic_turn(c, k, s, e)
    roots = []
    for left, right in ((s, turn), (turn, e)):
        negative = cubic(left) < 0.0
        if negative == (cubic(right) < 0.0):
            continue
        for _ in range(60):
            mid = 0.5 * (left + right)
            left, right = (mid, right) if (cubic(mid) < 0.0) == negative else (left, mid)
        roots.append(left)
    return roots


def _peak_slope(law, lo, hi, w=None):
    """``max |d (rho V) / d rho|`` over ``[lo, hi]`` from the law's
    :attr:`~SpeedLaw.pieces`, and ``|V - v|`` at ``lo`` and at ``hi``:
    ``V`` is the law's speed ``v``, or for a probe at speed ``w >= 0`` the
    blend ``H = 2 w v / (w + v)`` in closed form.

    On a piece ``v = a + b rho + c rho**2``.  The law's ``f'`` peaks at an
    end or at its vertex ``-b / (3 c)``.  The probe's
    ``g' = H + rho v' dH/dv``, with ``dH/dv = 2 (w / (w + v))**2``, peaks
    at an end or at a root of ``g''``, whose sign is that of
    ``-(c**2 rho**3 - 3 c (w + a) rho - b (w + a))``: no root on a linear
    piece.  Each piece's ends use its own coefficients, so a knot is read
    from both sides.
    """
    slopes, moved = [], []
    for start, end, (a, b, c) in law.pieces:
        s, e = max(start, lo), min(end, hi)
        if s > e:
            continue
        if c == 0.0 or w == 0.0:  # H(0, v) = 0 at every density
            inner = []
        elif w is None:
            inner = [-b / (3.0 * c)]
        else:
            inner = _cubic_roots(c, w + a, b, s, e)
        for r in (s, *inner, e):
            r = min(max(r, s), e)
            v = a + r * (b + c * r)
            ratio = w / (w + v) if w else 0.0
            H, dH = (v, 1.0) if w is None else (2.0 * v * ratio, 2.0 * ratio * ratio)
            slopes.append(abs(H + r * (b + 2.0 * c * r) * dH))
            moved.append(abs(H - v))
    return _max_keeping_nan(slopes), moved[0], moved[-1]


def _max_keeping_nan(values):
    """The largest of a few floats, or NaN if any of them is NaN, as
    :func:`numpy.max` gives it without building an array.  Python's
    ``max`` alone keeps or drops a NaN depending on where it stands."""
    if any(value != value for value in values):
        return math.nan
    return float(max(values))


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
        require_finite("cutoff radii", self.inner, self.outer)
        if not 0.0 < self.inner < self.outer:
            raise DomainError(
                f"cutoff radii must satisfy 0 < inner < outer, "
                f"got ({self.inner}, {self.outer})"
            )

    def __call__(self, xi):
        a = np.abs(np.asarray(xi, dtype=float))
        # np.clip's bits, NaN included, without its Python dispatch
        s = np.minimum(np.maximum((a - self.inner) / (self.outer - self.inner), 0.0), 1.0)
        return 1.0 - s * s * (3.0 - 2.0 * s)

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
        require_finite("probe speed", self.speed)
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
    require_finite("segment start", start)
    if end is not None:
        require_finite("segment end", end)
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
    queries of a run's step loop; ``switches`` holds the switch times
    ``t_b``, which are not knots when ``tau > 0``.
    """

    def __init__(self, segments, tau):
        pieces = _program_pieces(segments)
        widths = [(b if b is not None else math.inf) - a for a, b, _ in pieces]
        if tau > min(widths) / 2.0:
            raise DomainError(
                f"mollification radius {tau} exceeds half the narrowest "
                f"program piece ({min(widths)})"
            )
        self.switches = [float(b) for _, b, _ in pieces[:-1]]
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
        """:func:`_knot_lookup` on this table's knots (:class:`DomainError`
        for a NaN ``t``).  The last answer is kept, so the state and the
        speed a run step asks for at one time cost one search.  It is one
        tuple, replaced whole, so runs sharing the table in threads read a
        consistent answer."""
        last = self._last
        if last[0] == t:
            return last[1], last[2]
        t = float(t)
        if t != t:
            raise DomainError("time must not be NaN")
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
    segment has speed NaN.  Overlapping segments, and a segment after an
    open-ended one, are a :class:`DomainError`."""
    pieces = []
    t = 0.0
    for s in sorted(segments, key=lambda s: s.start):
        if s.start < t:
            raise DomainError(f"probe program segments overlap near t={s.start}")
        if s.start > t:
            pieces.append((t, s.start, 0.0))
        pieces.append((s.start, s.end, s.speed if isinstance(s, ExogenousSpeed) else math.nan))
        t = math.inf if s.end is None else s.end
    if t < math.inf:
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

    The program is compiled once into one speed table, which answers every
    query (:meth:`speed_at`, :meth:`state_at`, :meth:`max_speed`,
    :meth:`boundary_times`, ...) and so the solver and the analytic
    constants; ``program`` is kept only for :meth:`clone` and
    serialisation.  A trajectory carries no run-time state, so one object
    can serve any number of runs; a run keeps its probes' positions, speeds
    and recorded paths itself.
    """

    def __init__(self, x0, program, mollify_radius=0.0, observer=False):
        program = tuple(program)
        if not program:
            raise DomainError("probe program must contain at least one segment")
        require_finite("x0 and mollify_radius", x0, mollify_radius)
        if mollify_radius < 0.0:
            raise DomainError("mollify_radius must be >= 0")
        self.x0 = float(x0)
        self.program = program
        self.mollify_radius = float(mollify_radius)
        self.observer = bool(observer)
        self._table = _SpeedTable(program, self.mollify_radius)
        if self.mollify_radius > 0.0 and not self.is_exogenous:
            raise DomainError(
                "mollification is defined only for fully exogenous programs"
            )

    # -- program queries ---------------------------------------------------

    @property
    def is_exogenous(self):
        return self._table.exogenous

    def speed_at(self, t):
        """Programmed (possibly mollified) speed at time t, or ``None`` where
        the program is model-coupled; :class:`DomainError` for a NaN t."""
        _, w = self._table.lookup(t)
        return None if w != w else w

    def _require_exogenous(self, what):
        """Raise :class:`ProbeStateError` unless the program is fully
        exogenous: a model-coupled piece's speed follows the density field,
        so the program alone cannot answer for ``what``."""
        if not self.is_exogenous:
            raise ProbeStateError(
                f"model-coupled probe has no closed-form {what}: its speed "
                "follows the density field while a simulation advances it"
            )

    def state_at(self, t):
        """Position and speed at time t of a fully exogenous program, in
        closed form (:class:`ProbeStateError` for a model-coupled one,
        :class:`DomainError` for a NaN t)."""
        self._require_exogenous(f"state at t={t}")
        table = self._table
        i, w = table.lookup(t)
        disp = table.disp[i] + (float(t) - table.ts[i]) * (table.ws[i] + w) / 2.0
        return self.x0 + disp, w

    def max_speed(self, law_vmax):
        """Upper bound for the probe's speed over its whole program (ramps
        are monotone, so the knots suffice), ``law_vmax`` standing in for
        the NaN knots of a model-coupled piece."""
        return max(0.0, *(law_vmax if w != w else w for w in self._table.ws))

    def min_speed(self):
        """Smallest speed a fully exogenous program takes (ramps are
        monotone, so the knots suffice); :class:`ProbeStateError` for a
        model-coupled one."""
        self._require_exogenous("minimum speed")
        return float(np.min(self._table.ws))

    def speed_jumps(self):
        """Size of each switch between the pieces of a fully exogenous
        program, in time order; :class:`ProbeStateError` for a
        model-coupled one."""
        self._require_exogenous("speed jumps")
        ws = self._table.ws
        return [abs(w1 - w0) for w0, w1 in zip(ws[1::2], ws[2::2])]

    def boundary_times(self):
        """Times where the program's speed law changes (segment edges and
        mollification ramp edges), for exact time-step alignment."""
        table = self._table
        return sorted({t for t in table.ts if t > 0.0}.union(table.switches))

    def clone(self, observer=None):
        """Probe with the same program, optionally with the observer flag
        changed."""
        return ProbeTrajectory(
            self.x0,
            self.program,
            mollify_radius=self.mollify_radius,
            observer=self.observer if observer is None else observer,
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


def harmonic_speed(w, v):
    """Blend of a measured speed ``w`` and a law speed ``v``:
    ``2*w*v / (w + v)``, extended by 0 where ``w + v`` vanishes.

    The blend is symmetric, lies in ``[min(w, v), 2*min(w, v)]`` for
    positive arguments, and returns ``v`` exactly when ``w == v``.
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    denom = w + v
    small = denom < ZERO_DENOM_TOL
    out = np.asarray((w + w) * v)  # w + w is 2 w to the bit
    if np.count_nonzero(small):
        # a masked division; where it is skipped the result stays 0.  A NaN
        # denominator fails ``denom < tol``, so it is divided by and stays NaN.
        out = np.divide(out, denom, out=np.zeros(np.shape(denom)), where=~small)
    else:
        out /= denom
    # exact fixed point: agreement between the two speeds is preserved bitwise
    np.copyto(out, v, where=w == v)
    if out.ndim == 0:
        return float(out)
    return out


def check_states(model, states):
    """Reject ``states`` unless it holds one entry per coupled probe, each
    with a finite speed of at least 0.  Positions are not checked here."""
    if len(states) != len(model.coupled_probes):
        raise DomainError(f"{len(states)} states for {len(model.coupled_probes)} coupled probes")
    for _, w in states:
        # written negated so that a NaN speed fails it
        if not 0.0 <= w < math.inf:
            raise DomainError(f"probe speed must be finite and >= 0, got {w}")


def _stacked_weights(model, states, x, windows):
    """Every coupled probe's cutoff weight over its window of 1-d ``x``, all
    probes in one pass: the stacked layout :func:`_blended_speed` takes for
    two or more probes.

    ``windows`` holds one slice of ``x`` per probe, or is ``None`` for the
    whole of ``x``.  Returns ``idx``, the indices into ``x`` of every
    window concatenated in probe order; ``counts``, the number of them per
    probe; ``chi``, the weights ``chi(x - p_i)`` at ``idx``; and ``total``,
    the per-point sum of the weights, added in probe order as one running
    sum per point would be.  A window must cover every point with
    ``|x - p_i| < outer``: ``chi`` is exactly 0 elsewhere, so a skipped
    point only loses a ``+0`` and ``total`` is bit-for-bit the one summed
    over the whole of ``x``.

    ``total`` is ``None`` when the windows are given, contiguous and
    disjoint (one ending where the next starts counts as disjoint) and no
    position is NaN: every point then holds at most one weight, so its
    sum is ``0.0 + chi == chi`` and no sum needs computing.  ``None``
    windows, overlapping ones and a NaN position (whose window covers
    every point) get ``total``.
    """
    disjoint = windows is not None
    if windows is None:
        windows = (slice(None),) * len(states)
    rows = [range(x.size)[win] for win in windows]
    if disjoint:
        spans = sorted((r.start, r.stop) for r in rows if r)
        disjoint = (
            all(r.step == 1 for r in rows)
            and all(stop <= start for (_, stop), (start, _) in zip(spans, spans[1:]))
            and not any(p != p for p, _ in states)
        )
    idx = np.concatenate([np.arange(r.start, r.stop, r.step) for r in rows] or [np.arange(0)])
    counts = [len(r) for r in rows]
    positions = np.repeat(np.array([p for p, _ in states], dtype=float), counts)
    chi = model.cutoff(x[idx] - positions)
    # bincount adds in the order of idx: probe order at every point
    total = None if disjoint else np.bincount(idx, weights=chi, minlength=x.size)
    return idx, counts, chi, total


def eval_encoded_speed(model, states, x, rho):
    """The blended speed field ``V(x, rho)``.

    ``states`` holds the ``(position p_i, speed pdot_i)`` of every coupled
    probe, in :attr:`FluxModel.coupled_probes` order, each speed finite and
    at least 0 (:class:`DomainError` otherwise):
    :meth:`FluxModel.probe_states` for programmed probes, or what a running
    simulation resolves.  Each probe contributes a weight
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

    Whatever the number of probes, an evaluation makes one cutoff call and
    one harmonic blend.  One probe, the common case, is blended on its
    window's own slice of ``x``, ``v`` and ``out`` (the whole of them
    without windows), with its position and speed as floats: no index is
    built, nothing gathered or scattered.  Its weight is its own sum and
    at most 1, so ``chi / max(chi, 1.0) == chi`` exactly and ``chi`` is
    applied as it is; at a NaN position the normaliser would only divide
    the weight's NaN by the same NaN.

    Two or more probes are blended in one stacked pass: one cutoff
    evaluation and one harmonic blend over the concatenated windows, and
    one unbuffered ``np.add.at``, which adds in index order, so each point
    receives its probes' terms in probe order, as a loop over the probes
    would add them.  Disjoint windows (``total`` is ``None``) skip the
    normaliser and the ``np.add.at``, bit for bit: a point's one weight is
    its own sum, and on indices that are all distinct ``out[idx] += term``
    is the same one add per point.
    """
    check_states(model, states)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape != rho.shape:
        if windows is not None:
            raise DomainError(f"windows need 1-d x and rho of one shape: {x.shape}, {rho.shape}")
        x, rho = np.broadcast_arrays(x, rho)
        return _blended_speed(model, states, x.ravel(), rho.ravel()).reshape(x.shape)[()]
    if windows is not None and len(windows) != len(states):
        raise DomainError(f"{len(windows)} windows for {len(states)} probe states")
    v = model.speed_law(rho)
    # accumulate as v + sum w_i (H_i - v): algebraically the convex
    # combination, but exact (not just close) wherever every H_i equals v.
    # Outside its window a probe's term would be (0 / scale) * (H_i - v),
    # a signed zero, which leaves every bit of out (never -0) unchanged.
    # Adding 0.0 turns a -0 of v into +0, as adding the zeros would.
    out = v + 0.0
    if len(states) == 1:
        ((p, pdot),) = states
        win = slice(None) if windows is None else windows[0]
        vw = v[win]
        moved = harmonic_speed(float(pdot), vw) - vw
        view = out[win]
        view += model.cutoff(x[win] - float(p)) * moved
    elif states:
        idx, counts, chi, total = _stacked_weights(model, states, x, windows)
        vw = v[idx]
        speeds = np.repeat(np.array([pdot for _, pdot in states], dtype=float), counts)
        moved = harmonic_speed(speeds, vw) - vw
        if total is None:
            out[idx] += chi * moved
        else:
            np.add.at(out, idx, (chi / np.maximum(total[idx], 1.0)) * moved)
    return out


def eval_flux(model, states, x, rho, windows=None):
    """The conservation-law flux ``rho * V(x, rho)``, with the coupled
    probes' ``states`` as in :func:`eval_encoded_speed`, each blended only
    over its slice of ``windows`` of 1-d ``x`` (see
    :func:`_stacked_weights`; by default the whole of ``x``)."""
    rho = _as_density(rho)
    return rho * _blended_speed(model, states, x, rho, windows)


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

    def __str__(self):
        lines = [f"admissibility of {self.law!r}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.conditions:
            lines.append(
                f"  {'ok  ' if c.passed else 'FAIL'} {c.name}"
                f" (worst violation {c.worst_violation:.3e})"
            )
        return "\n".join(lines)


#: Declared validity range of the quadratic family parameter.
EPSILON_ADMISSIBLE = (-1.0 / 3.0, 1.0 / 3.0)


def check_admissible(law):
    """Decide each admissibility condition exactly from ``law.pieces``,
    ``v = a + b rho + c rho**2`` on each piece.  ``worst_violation`` is the
    amount by which a condition fails (0 when it holds, or fails only at
    equality); a NaN fails every test it enters, as in :func:`_as_density`.

    Values of ``v`` are read from ``law(rho)``, as
    :func:`~probeflow.fvsolver.check_run` reads ``v(1)``, at 0, the knots,
    the vertices ``-b / (2 c)`` inside pieces and 1: the coefficients are
    rounded (for ``EpsilonLaw(-0.3)``, ``(a + b) + c`` reads -5.6e-17 at 1).
    They give the derivatives, tested at both ends of every piece:

    * ``speed_vanishes_at_full_density``: ``v(1) == 0`` exactly;
    * ``speed_monotone_nonincreasing``: ``v' = b + 2 c rho <= 0``, and no
      value read exceeds the one before it;
    * ``speed_within_range``: ``0 <= v <= v_max`` at every value read;
    * ``flux_strictly_concave``: ``f'' = 2 (b + 3 c rho) < 0``, and ``f'``
      does not rise across a knot: ``rho (v'(rho+) - v'(rho-)) <= 0``;
    * ``blend_strictly_concave``: ``g_w = w rho v / (w + v)`` is strictly
      concave for every ``w > 0``.  With ``k = b + 3 c rho`` and ``h =
      c**2 rho**3 - a k``, ``g_w'' = -2 w**2 (h - w k) / (w + v)**3`` is
      linear in ``w``, so negative for every ``w > 0`` exactly where
      ``h >= 0 >= k`` and ``h > k``: where ``h >= 0`` once the flux
      condition holds.  ``h`` is convex on ``rho >= 0``, so a piece's ends
      and its turning point ``rho**2 = a / c`` decide it.  At a knot
      ``g_w'`` jumps by ``(w / (w + v))**2`` times ``f'``'s jump, so the
      knot test is the flux's.  The violation is the largest of ``-h``,
      ``f''`` (the limit ``w -> inf``) and the rise of ``f'``;
    * ``family_parameter_range`` (:class:`EpsilonLaw` only): ``eps`` in
      :data:`EPSILON_ADMISSIBLE`.

    So ``EpsilonLaw(eps)`` is monotone for ``eps <= 1``, its flux strictly
    concave for ``-1/2 < eps < 1`` and its blend for ``-1/2 <= eps < 1``;
    it vanishes at 1 and stays within range for every ``eps``.
    """
    pieces = law.pieces
    points = [pieces[0][0]]  # where v is read: 0, then in order to 1
    slopes, curvatures, blends = [], [], []
    for start, end, (a, b, c) in pieces:
        vertex = -b / (2.0 * c) if c else math.nan
        points += [vertex, end] if start < vertex < end else [end]
        slopes += [b + 2.0 * c * start, b + 2.0 * c * end]
        curvatures += [2.0 * (b + 3.0 * c * start), 2.0 * (b + 3.0 * c * end)]
        turn = _cubic_turn(c, a, start, end) if c else end
        blends += [(_blend_cubic(c, a, b, r), b + 3.0 * c * r) for r in (start, turn, end)]
    knots = [end for _, end, _ in pieces[:-1]]
    kinks = [r * (right - left) for r, left, right in zip(knots, slopes[1::2], slopes[2::2])]
    v = [float(value) for value in law(np.array(points))]
    rises = [v1 - v0 for v0, v1 in zip(v, v[1:])]
    v_full, v_max = float(law(1.0)), law.v_max
    within = all(0.0 <= x <= v_max for x in v)
    concave_knots = all(x <= 0.0 for x in kinks)
    flux = all(x < 0.0 for x in curvatures) and concave_knots
    blend = all(h >= 0.0 >= k and h > k for h, k in blends) and concave_knots
    checks = [
        ("speed_vanishes_at_full_density", v_full == 0.0, [abs(v_full)]),
        ("speed_monotone_nonincreasing", all(x <= 0.0 for x in slopes + rises), slopes + rises),
        ("speed_within_range", within, [-x for x in v] + [x - v_max for x in v]),
        ("flux_strictly_concave", flux, curvatures + kinks),
        ("blend_strictly_concave", blend, [-h for h, _ in blends] + curvatures + kinks),
    ]
    if isinstance(law, EpsilonLaw):
        lo, hi = EPSILON_ADMISSIBLE
        viol = max(0.0, lo - law.eps, law.eps - hi)
        checks.append(("family_parameter_range", viol == 0.0, [viol]))
    conditions = tuple(
        ConditionCheck(name, passed, _max_keeping_nan([0.0, *amounts]))
        for name, passed, amounts in checks
    )
    return AdmissibilityReport(law=law, conditions=conditions)
