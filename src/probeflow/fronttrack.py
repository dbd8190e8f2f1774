"""Wave-front tracking: exact evolution of piecewise constant profiles.

The flux is replaced by its piecewise linear interpolation on the dyadic
density grid ``{k * 2**-n}``; piecewise constant data with values on that
grid then evolve exactly as a finite set of travelling discontinuities
("fronts").  Each local Riemann problem is solved by a convex-envelope
construction, fronts travel at difference-quotient speeds, and collisions
are resolved by re-solving the Riemann problem of the outermost states.
The number of fronts never increases, so the evolution terminates.

Dyadic grid values ``k * 2**-n`` are exact in binary floating point, which
keeps all state comparisons exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FrontTrackError

#: Spatial tolerance under which fronts are considered to have collided.
COLLISION_TOL = 1e-12

#: Tolerance for checking that a value lies on the dyadic grid.
_GRID_TOL = 1e-12


# ---------------------------------------------------------------------------
# Piecewise constant data
# ---------------------------------------------------------------------------

class PiecewiseConstant:
    """A piecewise constant density profile.

    ``xs`` are the strictly increasing jump locations, ``values`` the
    ``len(xs) + 1`` states (left of ``xs[0]``, between consecutive jumps,
    right of ``xs[-1]``).  The profile is right-continuous.
    """

    def __init__(self, xs, values):
        xs = tuple(float(x) for x in xs)
        values = tuple(float(v) for v in values)
        if len(values) != len(xs) + 1:
            raise DomainError(
                f"need len(xs) + 1 states, got {len(xs)} jumps and {len(values)} states"
            )
        if not all(math.isfinite(v) for v in xs + values):
            raise DomainError("jump locations and states must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("jump locations must be strictly increasing")
        if values and (min(values) < 0.0 or max(values) > 1.0):
            raise DomainError("densities must lie in [0, 1]")
        for a, b in zip(values, values[1:]):
            if a == b:
                raise DomainError("adjacent states must differ (merge equal states)")
        self.xs = xs
        self.values = values

    @classmethod
    def from_blocks(cls, background, blocks):
        """Background density overridden on disjoint intervals.

        ``blocks`` is an iterable of ``(a, b, value)`` with ``a < b``; the
        intervals must not overlap.
        """
        blocks = sorted(blocks, key=lambda blk: blk[0])
        for (a, b, _), (a2, _, _) in zip(blocks, blocks[1:]):
            if a2 < b:
                raise DomainError(f"blocks overlap near x={a2}")
        xs, values = [], [float(background)]
        for a, b, v in blocks:
            if a >= b:
                raise DomainError(f"empty block [{a}, {b})")
            for x, val in ((a, float(v)), (b, float(background))):
                if values[-1] != val:
                    xs.append(float(x))
                    values.append(val)
        return cls(xs, values)

    def value_at(self, x):
        """Evaluate the profile (right-continuous) at ``x``."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(np.asarray(self.xs), x, side="right")
        out = np.asarray(self.values)[idx]
        if out.ndim == 0:
            return float(out)
        return out

    def tv(self):
        """Total variation: the sum of all jump magnitudes."""
        return float(sum(abs(b - a) for a, b in zip(self.values, self.values[1:])))

    def range(self):
        """(min, max) over all states."""
        return min(self.values), max(self.values)

    def quantize(self, n):
        """Round all states to the grid ``{k * 2**-n}`` (ties to even) and
        merge any neighbouring states that become equal."""
        if n < 1:
            raise DomainError(f"grid exponent n must be >= 1, got {n}")
        scale = 2.0 ** n
        rounded = [float(np.rint(v * scale) / scale) for v in self.values]
        xs, values = [], [rounded[0]]
        for x, v in zip(self.xs, rounded[1:]):
            if v != values[-1]:
                xs.append(x)
                values.append(v)
        quantized = PiecewiseConstant(xs, values)
        tv0 = self.tv()
        tvq = quantized.tv()
        if tvq > tv0 + len(self.xs) * 2.0 ** -n + 1e-12:
            raise FrontTrackError(
                f"quantization increased variation beyond its bound: {tvq} vs {tv0}"
            )
        return QuantizeResult(datum=quantized, n=n, tv_preserved=tvq <= tv0 + 1e-12)

    def __repr__(self):
        return f"PiecewiseConstant(jumps={len(self.xs)}, tv={self.tv():.4g})"


@dataclass(frozen=True)
class QuantizeResult:
    """Outcome of rounding a profile onto a dyadic grid.

    ``tv_preserved`` records whether the rounded profile's total variation
    stayed within rounding tolerance of the original's (rounding can both
    shrink jumps away and, for adversarial states astride a grid midpoint,
    enlarge them; the guaranteed bound is ``tv + 2**-n * #jumps``).
    """

    datum: PiecewiseConstant
    n: int
    tv_preserved: bool


# ---------------------------------------------------------------------------
# Dyadic piecewise linear flux
# ---------------------------------------------------------------------------

class PiecewiseLinearFlux:
    """Piecewise linear interpolation of a flux on the dyadic density grid.

    ``values[k] = flux(k * 2**-n)``.  Front speeds are difference quotients
    of this table, so two fronts with the same state pair always have
    bitwise equal speeds.
    """

    def __init__(self, law, n):
        if n < 1:
            raise DomainError(f"grid exponent n must be >= 1, got {n}")
        self.law = law
        self.n = int(n)
        self.grid = np.arange(2 ** n + 1) * 2.0 ** -n
        self.values = np.asarray(law.flux(self.grid), dtype=float)

    def index_of(self, rho):
        """Grid index of a density that must lie on the grid."""
        k = int(round(rho * 2 ** self.n))
        if abs(rho - self.grid[k]) > _GRID_TOL:
            raise DomainError(f"density {rho} is not a multiple of 2**-{self.n}")
        return k

    def quotient(self, rho_a, rho_b):
        """Difference quotient of the flux table between two grid states."""
        ka, kb = self.index_of(rho_a), self.index_of(rho_b)
        if ka == kb:
            raise DomainError("difference quotient needs distinct states")
        return float(
            (self.values[kb] - self.values[ka]) / (self.grid[kb] - self.grid[ka])
        )

    def speed_bound(self, rho_min, rho_max):
        """Largest segment slope of the table over all grid cells whose
        closed density interval meets ``[rho_min, rho_max]``.

        Every front arising from data with states in that range travels no
        faster than this.
        """
        slopes = np.diff(self.values) * (2.0 ** self.n)
        k_lo = max(0, int(math.floor(rho_min * 2 ** self.n + _GRID_TOL)) - 1)
        k_hi = min(len(slopes), int(math.ceil(rho_max * 2 ** self.n - _GRID_TOL)) + 1)
        return float(np.max(slopes[k_lo:k_hi]))


def _lower_convex_path(points):
    """Lower convex envelope of ``(rho, F)`` points with increasing rho,
    keeping first and last; collinear interior points are dropped."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def ft_riemann(flux, rho_l, rho_r):
    """Intermediate states and speeds of the piecewise linear Riemann problem.

    Returns ``(states, speeds)``: ``states`` runs from ``rho_l`` to
    ``rho_r`` inclusive, and ``speeds[i]`` is the (strictly increasing)
    speed of the front joining ``states[i]`` to ``states[i + 1]``.  For
    ``rho_l < rho_r`` the solution follows the lower convex envelope of the
    flux table between the states; for ``rho_l > rho_r`` the upper concave
    envelope (the lower envelope of the negated table).
    """
    ka, kb = flux.index_of(rho_l), flux.index_of(rho_r)
    if ka == kb:
        return [float(rho_l)], []
    sign = 1.0 if ka < kb else -1.0
    lo, hi = (ka, kb) if ka < kb else (kb, ka)
    pts = [(flux.grid[k], sign * flux.values[k]) for k in range(lo, hi + 1)]
    hull = _lower_convex_path(pts)
    if sign < 0:
        hull = [(x, -y) for (x, y) in reversed(hull)]
    states = [x for x, _ in hull]
    speeds = [
        (y2 - y1) / (x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    ]
    if any(s2 <= s1 for s1, s2 in zip(speeds, speeds[1:])):
        raise FrontTrackError("envelope produced non-increasing front speeds")
    return states, speeds


# ---------------------------------------------------------------------------
# Front states and evolution
# ---------------------------------------------------------------------------

class FrontState:
    """A finite set of fronts at a fixed time.

    ``xs`` (sorted), ``speeds`` and the ``len(xs) + 1`` states ``vals``
    describe the profile; between times the fronts travel in straight lines.
    """

    def __init__(self, flux, time, xs, vals, speeds):
        self.flux = flux
        self.time = float(time)
        self.xs = np.asarray(xs, dtype=float)
        self.vals = np.asarray(vals, dtype=float)
        self.speeds = np.asarray(speeds, dtype=float)
        if not (len(self.vals) == len(self.xs) + 1 == len(self.speeds) + 1):
            raise FrontTrackError("inconsistent front arrays")

    @property
    def n_fronts(self):
        return len(self.xs)

    def positions(self, t):
        """Front positions at time ``t >= self.time`` (straight lines)."""
        return self.xs + self.speeds * (t - self.time)

    def sample(self, t, x):
        """Profile value at ``(t, x)``, right-continuous in ``x``."""
        pos = self.positions(t)
        idx = np.searchsorted(pos, np.asarray(x, dtype=float), side="right")
        out = self.vals[idx]
        if out.ndim == 0:
            return float(out)
        return out

    def tv(self):
        return float(np.sum(np.abs(np.diff(self.vals))))

    def range(self):
        return float(np.min(self.vals)), float(np.max(self.vals))

    def __repr__(self):
        return f"FrontState(t={self.time:.6g}, fronts={self.n_fronts})"


def from_datum(law, datum, n):
    """Initial front configuration for a profile with states on the
    ``2**-n`` grid: each jump is fanned into its envelope fronts."""
    flux = PiecewiseLinearFlux(law, n)
    xs, vals, speeds = [], [datum.values[0]], []
    for x, rho_r in zip(datum.xs, datum.values[1:]):
        states, fan = ft_riemann(flux, vals[-1], rho_r)
        for state, speed in zip(states[1:], fan):
            xs.append(x)
            vals.append(state)
            speeds.append(speed)
    return FrontState(flux, 0.0, xs, vals, speeds)


class FrontTrackSolution:
    """The full evolution: a sequence of front configurations ("epochs"),
    each valid from its time until the next epoch's, plus the collision
    events in between."""

    def __init__(self, epochs, t_end, collisions):
        self.epochs = list(epochs)
        self.t_end = float(t_end)
        self.collisions = list(collisions)
        self._starts = np.array([e.time for e in self.epochs])

    def state_at(self, t):
        """The epoch in force at time ``t``."""
        if t < self.epochs[0].time - 1e-12 or t > self.t_end + 1e-12:
            raise DomainError(
                f"t={t} outside the computed range "
                f"[{self.epochs[0].time}, {self.t_end}]"
            )
        idx = max(0, int(np.searchsorted(self._starts, t, side="right")) - 1)
        return self.epochs[idx]

    def sample(self, t, x):
        """Profile value at ``(t, x)``."""
        return self.state_at(t).sample(t, x)

    @property
    def final(self):
        return self.epochs[-1]


def ft_evolve(state, t_end):
    """Track all fronts from ``state.time`` to ``t_end``.

    Collisions are located exactly (positions are linear in time), resolved
    by the Riemann problem of the cluster's outermost states, and must not
    increase the total front count (else :class:`FrontTrackError`).
    ``t_end`` may be ``inf``, as tracking ends once no fronts approach.
    """
    if not t_end >= state.time:
        raise DomainError(f"t_end must be at or after the state's time {state.time}, got {t_end}")
    epochs = [state]
    collisions = []
    # collisions strictly decrease total variation by at least one grid jump
    # pair; this cap is generous
    max_events = 4 * (state.n_fronts + 2) ** 2 + 64
    for _ in range(max_events):
        current = epochs[-1]
        t_hit = _next_collision_time(current)
        if t_hit >= t_end:
            return FrontTrackSolution(epochs, t_end, collisions)
        next_state, events = _resolve_collisions(current, t_hit)
        if next_state.n_fronts > current.n_fronts:
            raise FrontTrackError(
                f"front count grew from {current.n_fronts} to "
                f"{next_state.n_fronts} at t={t_hit}"
            )
        collisions.extend(events)
        epochs.append(next_state)
    raise FrontTrackError(f"collision count exceeded the cap of {max_events}")


def _next_collision_time(state):
    """Earliest time at which an adjacent pair of fronts meets."""
    if state.n_fronts < 2:
        return math.inf
    gap = np.diff(state.xs)
    closing = state.speeds[:-1] - state.speeds[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_c = np.where(closing > 0.0, state.time + gap / closing, math.inf)
    return float(np.min(t_c))


def _resolve_collisions(state, t_hit):
    """Advance to ``t_hit`` and re-solve every cluster of coincident fronts.

    A cluster is a maximal run of fronts ``i..j`` whose neighbouring
    positions lie within :data:`COLLISION_TOL`; it is replaced by the fan of
    the Riemann problem between ``vals[i]`` and ``vals[j + 1]``.  The fronts
    between clusters are carried over as array slices, so the cost is
    whole-array work plus one Riemann solve per cluster.
    """
    pos = state.positions(t_hit)
    # enforce ordering against roundoff; genuine disorder is a logic error
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
        x_c = pos[i]
        rho_l = state.vals[i]
        rho_r = state.vals[j + 1]
        events.append((t_hit, float(x_c), float(rho_l), float(rho_r)))
        states, fan = ft_riemann(state.flux, rho_l, rho_r)
        xs += [pos[done:i], np.full(len(fan), x_c)]
        vals += [state.vals[done + 1 : i + 1], states[1:]]
        speeds += [state.speeds[done:i], fan]
        done = j + 1
    xs.append(pos[done:])
    vals.append(state.vals[done + 1 :])
    speeds.append(state.speeds[done:])
    parts = (np.concatenate(xs), np.concatenate(vals), np.concatenate(speeds))
    return FrontState(state.flux, t_hit, *parts), events


# ---------------------------------------------------------------------------
# Curves and exact line integrals
# ---------------------------------------------------------------------------

class Curve:
    """Piecewise linear space-time path ``t -> x``."""

    def __init__(self, ts, xs):
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        if self.ts.ndim != 1 or self.ts.shape != self.xs.shape or len(self.ts) < 2:
            raise DomainError("a curve needs matching 1-d knot arrays, >= 2 knots")
        if np.any(np.diff(self.ts) <= 0.0):
            raise DomainError("curve knot times must be strictly increasing")

    @classmethod
    def linear(cls, t0, t1, x0, slope):
        return cls([t0, t1], [x0, x0 + slope * (t1 - t0)])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self.ts[0] - 1e-12) or np.any(t > self.ts[-1] + 1e-12):
            raise DomainError("curve evaluated outside its knot range")
        out = np.interp(t, self.ts, self.xs)
        if out.ndim == 0:
            return float(out)
        return out

    def min_slope(self, t0, t1):
        """Smallest slope among spans overlapping ``(t0, t1)``; also returns
        the start time of the span attaining it."""
        best = math.inf
        best_t = None
        for a, b, xa, xb in zip(self.ts, self.ts[1:], self.xs, self.xs[1:]):
            if b <= t0 or a >= t1:
                continue
            slope = (xb - xa) / (b - a)
            if slope < best:
                best = slope
                best_t = max(a, t0)
        if best_t is None:
            raise DomainError(f"curve has no span inside ({t0}, {t1})")
        return best, best_t

    def knots_within(self, t0, t1):
        return [float(t) for t in self.ts if t0 < t < t1]


def sample_curve_integral(solution, gamma1, gamma2, c, t0, t1):
    """Exact ``integral over [t0, t1] of |rho(t, gamma1) - rho(t, gamma2)| dt``
    along two ``c``-non-characteristic curves, with its a-priori bound.

    Both curves must outrun every front by margin ``c``: each curve span's
    slope has to exceed the flux table's largest segment slope over the
    solution's density range by at least ``c`` (:class:`FrontTrackError`
    otherwise).  Under that condition the integral is at most
    ``TV * max|gamma1 - gamma2| / c``, which is returned alongside it.

    The integrand is piecewise constant: it can only change where an epoch
    begins, a curve has a knot, or a curve crosses a front.  The partition
    collects all such times; each piece is evaluated at its midpoint.
    """
    if not t1 > t0:
        raise DomainError(f"need t0 < t1, got ({t0}, {t1})")
    if not c > 0.0:
        raise DomainError(f"non-characteristic margin c must be positive, got {c}")
    rho_lo = min(e.range()[0] for e in solution.epochs)
    rho_hi = max(e.range()[1] for e in solution.epochs)
    s_max = solution.epochs[0].flux.speed_bound(rho_lo, rho_hi)
    for label, curve in (("gamma1", gamma1), ("gamma2", gamma2)):
        slope, at = curve.min_slope(t0, t1)
        if slope < s_max + c - 1e-12:
            raise FrontTrackError(
                f"{label} is not c-non-characteristic: slope {slope} at t={at} "
                f"vs front speed bound {s_max} + c={c}"
            )
    cuts = {float(t0), float(t1)}
    for epoch in solution.epochs:
        if t0 < epoch.time < t1:
            cuts.add(float(epoch.time))
    for curve in (gamma1, gamma2):
        cuts.update(curve.knots_within(t0, t1))
        cuts.update(_front_crossings(solution, curve, t0, t1))
    times = sorted(cuts)
    total = 0.0
    for a, b in zip(times, times[1:]):
        if b - a <= 1e-14:
            continue
        tm = 0.5 * (a + b)
        diff = abs(solution.sample(tm, gamma1(tm)) - solution.sample(tm, gamma2(tm)))
        total += diff * (b - a)
    knots = sorted(
        {float(t0), float(t1)}
        | {float(t) for t in gamma1.ts if t0 <= t <= t1}
        | {float(t) for t in gamma2.ts if t0 <= t <= t1}
    )
    sep = max(abs(gamma1(t) - gamma2(t)) for t in knots)
    bound = solution.epochs[0].tv() * sep / c
    return total, bound


def _front_crossings(solution, curve, t0, t1):
    """Times in (t0, t1) at which the curve meets any front."""
    out = []
    epoch_ends = [e.time for e in solution.epochs[1:]] + [solution.t_end]
    for epoch, e_end in zip(solution.epochs, epoch_ends):
        lo = max(t0, epoch.time)
        hi = min(t1, e_end)
        if hi <= lo:
            continue
        for a, b, xa, xb in zip(curve.ts, curve.ts[1:], curve.xs, curve.xs[1:]):
            sa = max(lo, a)
            sb = min(hi, b)
            if sb <= sa:
                continue
            m = (xb - xa) / (b - a)
            for x0f, sf in zip(epoch.xs, epoch.speeds):
                if m == sf:
                    continue
                # xa + m (t - a) = x0f + sf (t - epoch.time)
                t_cross = (x0f - sf * epoch.time - xa + m * a) / (m - sf)
                if sa < t_cross < sb:
                    out.append(float(t_cross))
    return out
