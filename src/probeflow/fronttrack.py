"""Wave-front tracking: exact evolution of piecewise constant profiles.

The flux is replaced by its piecewise linear interpolation on the dyadic
density grid ``{k * 2**-n}``; piecewise constant data with values on that
grid then evolve exactly as a finite set of travelling discontinuities
("fronts").  Each local Riemann problem is solved by a convex-envelope
construction, fronts travel at difference-quotient speeds, and collisions
are resolved by re-solving the Riemann problem of the outermost states.
No collision raises the total variation, which each collision checks; a
cap on the number of collisions ends a run that would not stop.

Tracking is an event loop: a heap holds the meeting time of each adjacent
pair of approaching fronts, and a collision touches only its cluster and
that cluster's neighbours.  Every front is written once to an append-only
front log (birth, speed, states, death); the configuration at any epoch is
rebuilt from the log when it is read, so a solution's size grows with the
number of fronts, not with fronts times collisions.

Dyadic grid values ``k * 2**-n`` are exact in binary floating point, which
keeps all state comparisons exact.  Exact line integrals along space-time
curves through a tracked solution are in :mod:`probeflow.estimates`.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FrontTrackError, require_index, require_not_nan

#: Spatial tolerance under which fronts are considered to have collided.
COLLISION_TOL = 1e-12

#: Tolerance with which :meth:`PiecewiseLinearFlux.speed_bound` snaps a
#: density range to grid cells.
_GRID_TOL = 1e-12


def _grid_exponent(n):
    """``n`` as an ``int``; :class:`DomainError` unless it is an integer >= 1."""
    n = require_index("grid exponent n", n)
    if n < 1:
        raise DomainError(f"grid exponent n must be >= 1, got {n}")
    return n


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
        n = _grid_exponent(n)
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
    """Piecewise linear interpolation of a flux on the dyadic density grid,
    with the envelope data derived from it; nothing changes after
    construction, and :func:`from_datum` shares one flux per ``(law, n)``.

    ``grid[k] = k * 2**-n`` and ``values[k] = flux(grid[k])``; ``grid_f``
    and ``values_f`` are the same as tuples of Python floats.  ``slopes[k]``
    is the difference quotient of the points ``k, k + 1`` taken left to
    right, ``back[k]`` the same taken right to left (they differ only in
    the sign of a zero).  ``up[k]`` (``down[k]``) counts the points ``1 ..
    k`` at which the table turns strictly left (right), by the turn test of
    :func:`_envelope_fan`.  Front speeds are difference quotients of the
    table, so two fronts with the same state pair always have bitwise equal
    speeds.
    """

    def __init__(self, law, n):
        n = _grid_exponent(n)
        self.law = law
        self.n = n
        grid = np.arange(2 ** n + 1) * 2.0 ** -n
        values = np.asarray(law.flux(grid), dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            slopes = (values[1:] - values[:-1]) / (grid[1:] - grid[:-1])
            back = (values[:-1] - values[1:]) / (grid[:-1] - grid[1:])
            # hull[-2], hull[-1] and p of the envelope loop at the table
            # points k - 1, k and k + 1
            turn = (grid[1:-1] - grid[:-2]) * (values[2:] - values[:-2]) - (
                values[1:-1] - values[:-2]
            ) * (grid[2:] - grid[:-2])
        up = np.concatenate([[0], np.cumsum(turn > 0.0)])
        down = np.concatenate([[0], np.cumsum(turn < 0.0)])
        for a in (grid, values, slopes, back, up, down):
            a.setflags(write=False)
        self.grid, self.values, self.slopes, self.back = grid, values, slopes, back
        self.up, self.down = up, down
        self.grid_f = tuple(grid.tolist())
        self.values_f = tuple(values.tolist())

    def index_of(self, rho):
        """Grid index of a density that must lie on the grid: scaling by
        ``2**n`` is exact, so ``rho * 2**n`` must be an integer in ``[0,
        2**n]``."""
        scaled = rho * 2 ** self.n
        if not 0 <= scaled <= 2 ** self.n or scaled != math.floor(scaled):
            raise DomainError(f"density {rho} is not a multiple of 2**-{self.n} in [0, 1]")
        return int(scaled)

    def fan(self, rho_l, rho_r):
        """The Riemann fan from ``rho_l`` to ``rho_r``, both on the grid.

        Returns tuples ``(states, speeds)``: ``states`` runs from ``rho_l``
        to ``rho_r`` inclusive, and ``speeds[i]`` is the (strictly
        increasing) speed of the front joining ``states[i]`` to
        ``states[i + 1]``.  For ``rho_l < rho_r`` the fan follows the lower
        convex envelope of the table between the states; for ``rho_l >
        rho_r`` the upper concave envelope (the lower envelope of the
        negated table).  Equal states give ``((rho_l,), ())``.

        The result is bit for bit what :func:`_envelope_fan` builds.  When
        every interior point turns strictly the envelope's way, the loop
        keeps them all, so the fan is the table itself; when every turn
        measured from the first point is non-positive, the loop pops each
        point as it goes, so the fan is the chord.  Negating the table
        negates each turn exactly, so one turn count serves either
        direction.  Anything else runs the loop.
        """
        ka, kb = self.index_of(rho_l), self.index_of(rho_r)
        if ka == kb:
            return (float(rho_l),), ()
        rising = ka < kb
        lo, hi = (ka, kb) if rising else (kb, ka)
        turns = self.up if rising else self.down
        if turns[hi - 1] - turns[lo] == hi - lo - 1:
            states = self.grid_f[lo : hi + 1]
            if rising:
                speeds = tuple(self.slopes[lo:hi].tolist())
            else:
                states, speeds = states[::-1], tuple(self.back[lo:hi][::-1].tolist())
            _check_increasing(speeds)
            return states, speeds
        xs = self.grid[lo : hi + 1]
        ys = self.values[lo : hi + 1] if rising else -self.values[lo : hi + 1]
        dx, dy = xs - xs[0], ys - ys[0]
        # a NaN turn makes the maximum NaN, and the loop keeps that point
        if (dx[1:-1] * dy[2:] - dy[1:-1] * dx[2:]).max() <= 0.0:
            grid, values = self.grid_f, self.values_f
            return (grid[ka], grid[kb]), ((values[kb] - values[ka]) / (grid[kb] - grid[ka]),)
        return _envelope_fan(self.grid_f, self.values_f, ka, kb)

    def speed_bound(self, rho_min, rho_max):
        """Largest segment slope of the table over all grid cells whose
        closed density interval meets ``[rho_min, rho_max]``.

        Every front arising from data with states in that range travels no
        faster than this.
        """
        if not (math.isfinite(rho_min) and math.isfinite(rho_max) and rho_min <= rho_max):
            raise DomainError(f"need finite rho_min <= rho_max, got ({rho_min}, {rho_max})")
        slopes = self.slopes
        k_lo = max(0, int(math.floor(rho_min * 2 ** self.n + _GRID_TOL)) - 1)
        k_hi = min(len(slopes), int(math.ceil(rho_max * 2 ** self.n - _GRID_TOL)) + 1)
        return float(np.max(slopes[k_lo:k_hi]))


#: Fluxes kept for reuse, the least recently used dropped first.  A flux
#: holds about 100 bytes per grid point (0.4 MB at ``n = 12``).
_FLUX_MEMO_SIZE = 8

_memo_flux = functools.lru_cache(maxsize=_FLUX_MEMO_SIZE)(PiecewiseLinearFlux)


def _shared_flux(law, n):
    """The :class:`PiecewiseLinearFlux` of ``(law, n)``, shared while it
    stays in a small memo; an unhashable law gets a flux of its own."""
    try:
        hash(law)
    except TypeError:
        return PiecewiseLinearFlux(law, n)
    return _memo_flux(law, n)


def _envelope_fan(grid, values, ka, kb):
    """The fan of :meth:`PiecewiseLinearFlux.fan` between grid indices
    ``ka != kb`` of a flux table given as sequences of Python floats, built
    by the monotone-chain loop: the lower convex envelope of the (for
    ``ka > kb`` negated) table points between them, keeping the first and
    last and dropping collinear interior points."""
    sign = 1.0 if ka < kb else -1.0
    lo, hi = (ka, kb) if ka < kb else (kb, ka)
    hull = []
    for p in zip(grid[lo : hi + 1], [sign * y for y in values[lo : hi + 1]]):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    if sign < 0:
        hull = [(x, -y) for (x, y) in reversed(hull)]
    states = tuple(x for x, _ in hull)
    speeds = tuple(
        (y2 - y1) / (x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    )
    _check_increasing(speeds)
    return states, speeds


def _check_increasing(speeds):
    if any(s2 <= s1 for s1, s2 in zip(speeds, speeds[1:])):
        raise FrontTrackError("envelope produced non-increasing front speeds")


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
        """Front positions at time ``t >= self.time`` (straight lines); an
        earlier or NaN ``t`` is a :class:`DomainError`."""
        if not t >= self.time:
            raise DomainError(f"time t={t} must not be NaN or before the state's {self.time}")
        return self.xs + self.speeds * (t - self.time)

    def sample(self, t, x):
        """Profile value at ``(t, x)`` for ``t >= self.time``,
        right-continuous in ``x``; ``x = -inf`` and ``inf`` give the far
        states, a NaN ``t`` or ``x`` or an earlier ``t`` is a
        :class:`DomainError`."""
        return self._lookup(self.positions(t), x)

    def _lookup(self, pos, x):
        """The state at ``x`` among fronts at positions ``pos``."""
        x = require_not_nan("position x", x)
        out = self.vals[np.searchsorted(pos, x, side="right")]
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
    flux = _shared_flux(law, n)
    xs, vals, speeds = [], [datum.values[0]], []
    for x, rho_r in zip(datum.xs, datum.values[1:]):
        states, fan = flux.fan(vals[-1], rho_r)
        for state, speed in zip(states[1:], fan):
            xs.append(x)
            vals.append(state)
            speeds.append(speed)
    return FrontState(flux, 0.0, xs, vals, speeds)


class _FrontLog:
    """Append-only record of every front a tracking run produced, indexed
    by front id (ids count up in order of birth).

    Per front: position and epoch at birth, speed, the states on its left
    and right, and the epoch at which it died (``-1`` while it lives).
    ``after`` threads every front ever logged into one left-to-right
    order: a fan is inserted after the last front of the cluster it
    replaces, so the fronts alive at any epoch, taken in this order, are
    sorted by position.
    """

    def __init__(self, state):
        n = state.n_fronts
        vals = state.vals.tolist()
        self.x0 = state.xs.tolist()
        self.speed = state.speeds.tolist()
        self.left = vals[:-1]
        self.right = vals[1:]
        self.born = [0] * n
        self.died = [-1] * n
        self.after = list(range(1, n)) + [-1] if n else []
        self.rho_left = vals[0]

    def __len__(self):
        return len(self.x0)

    def columns(self, times, t_end):
        """The log as arrays in left-to-right order: birth position,
        speed, right state, birth and death epochs, birth and death times
        (``t_end`` for fronts still alive)."""
        order, i = [], 0 if self.x0 else -1
        while i >= 0:
            order.append(i)
            i = self.after[i]
        n_epochs = len(times)
        died = np.array([n_epochs if d < 0 else d for d in self.died], dtype=np.intp)
        born = np.asarray(self.born, dtype=np.intp)
        clock = np.append(np.asarray(times, dtype=float), float(t_end))
        cols = {
            "x0": np.asarray(self.x0, dtype=float),
            "speed": np.asarray(self.speed, dtype=float),
            "right": np.asarray(self.right, dtype=float),
            "born": born,
            "died": died,
            "t_born": clock[born],
            "t_died": clock[died],
        }
        return {name: col[order] for name, col in cols.items()}


class _Epochs(Sequence):
    """Read-only sequence of a solution's epochs.  Each epoch is built from
    the front log when it is read; only the last one built is kept."""

    def __init__(self, flux, times, t_end, log):
        self._flux = flux
        self._times = times
        self._t_end = t_end
        self._log = log
        self._cols = None
        self._last = None

    def log_columns(self):
        """The front log as arrays (:meth:`_FrontLog.columns`), built once."""
        if self._cols is None:
            self._cols = self._log.columns(self._times, self._t_end)
        return self._cols

    def __len__(self):
        return len(self._times)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"epoch {k} out of range for {len(self)} epochs")
        if self._last is None or self._last[0] != k:
            self._last = (k, self._build(k))
        return self._last[1]

    def _build(self, k):
        cols = self.log_columns()
        live = (cols["born"] <= k) & (cols["died"] > k)
        t = self._times[k]
        speeds = cols["speed"][live]
        xs = cols["x0"][live] + speeds * (t - cols["t_born"][live])
        if len(xs):
            # positions taken from birth agree with the order up to roundoff;
            # genuine disorder is a logic error
            mono = np.maximum.accumulate(xs)
            if np.max(mono - xs) > 1e-9:
                raise FrontTrackError(f"front ordering broke down at t={t}")
            xs = mono
        vals = np.concatenate([[self._log.rho_left], cols["right"][live]])
        return FrontState(self._flux, t, xs, vals, speeds)


class FrontTrackSolution:
    """The full evolution, stored as a front log.

    ``times`` are the epoch times: the start, then each collision time.
    ``collisions`` lists ``(t, x, rho_l, rho_r)`` per resolved cluster,
    left to right within a time.  ``log`` holds one record per front ever
    tracked (see :class:`_FrontLog`), so the storage grows with the
    number of fronts, not with fronts times collisions.  ``epochs`` is a
    read-only sequence of :class:`FrontState`, the configuration in force
    from each epoch time until the next, built from the log when read.
    """

    def __init__(self, flux, t_end, times, collisions, log):
        self.flux = flux
        self.t_end = float(t_end)
        self.times = times
        self.collisions = collisions
        self.log = log
        self.epochs = _Epochs(flux, times, self.t_end, log)

    def state_at(self, t):
        """The epoch in force at time ``t``."""
        if not self.times[0] - 1e-12 <= t <= self.t_end + 1e-12:
            raise DomainError(
                f"t={t} outside the computed range [{self.times[0]}, {self.t_end}]"
            )
        return self.epochs[max(0, bisect.bisect_right(self.times, t) - 1)]

    def sample(self, t, x):
        """Profile value at ``(t, x)``; like :meth:`state_at`, it accepts
        ``t`` up to 1e-12 before the first epoch and extrapolates there."""
        state = self.state_at(t)
        return state._lookup(state.xs + state.speeds * (t - state.time), x)


def ft_evolve(state, t_end):
    """Track all fronts from ``state.time`` to ``t_end``.

    An event loop: a heap holds the meeting time of every adjacent pair of
    approaching fronts, and a doubly linked list their left-to-right order.
    At each collision time every pair that has met (gap at most
    :data:`COLLISION_TOL`) is taken off the heap, each run of met fronts is
    grown over neighbours within the tolerance, and the run is replaced by
    the fan of the Riemann problem of its outermost states.  Only the new
    neighbour pairs are pushed.  A fan carries no more total variation than
    the run it replaces (else :class:`FrontTrackError`); it may hold more
    fronts, where the table is not convex between its states.  ``t_end``
    may be ``inf``, as tracking ends once no fronts approach.
    """
    if not t_end >= state.time:
        raise DomainError(f"t_end must be at or after the state's time {state.time}, got {t_end}")
    flux = state.flux
    log = _FrontLog(state)
    x0, speed, left, right = log.x0, log.speed, log.left, log.right
    born, died, after = log.born, log.died, log.after
    times = [state.time]
    collisions = []
    # the fans of this run, by pair of outer states: clusters repeat pairs
    fans = {}
    n_fronts = len(log)
    prev = list(range(-1, n_fronts - 1))
    nxt = after[:]

    def at(i, t):
        return x0[i] + speed[i] * (t - times[born[i]])

    def run(first, last):
        while first != last:
            yield first
            first = nxt[first]
        yield last

    def meeting(a, b):
        closing = speed[a] - speed[b]
        if closing > 0.0:
            t_ref = times[max(born[a], born[b])]
            heapq.heappush(heap, (t_ref + (at(b, t_ref) - at(a, t_ref)) / closing, a, b))

    heap = []
    for i in range(n_fronts - 1):
        meeting(i, i + 1)
    # no collision raises total variation, but under a non-convex table one
    # may add fronts, so no count falls at every collision; this cap only
    # ends a run that would not stop
    max_events = 4 * (n_fronts + 2) ** 2 + 64
    while heap:
        t_hit, a, b = heap[0]
        if died[a] >= 0 or died[b] >= 0:
            heapq.heappop(heap)
            continue
        if t_hit >= t_end:
            break
        if t_hit < times[-1]:
            raise FrontTrackError(f"collision at t={t_hit} precedes the epoch at {times[-1]}")
        if len(times) > max_events:
            raise FrontTrackError(f"collision count exceeded the cap of {max_events}")
        # every pair that has met by t_hit, in time order, up to the first
        # still-valid pair that has not
        met = {}
        while heap:
            _, a, b = heap[0]
            if died[a] < 0 and died[b] < 0:
                if met and at(b, t_hit) - at(a, t_hit) > COLLISION_TOL:
                    break
                met[a] = b
            heapq.heappop(heap)
        # runs of met fronts, each grown over neighbours within the tolerance
        clusters, taken = [], set()
        ends = set(met.values())
        for first in met:
            if first in ends or first in taken:
                continue
            last = first
            while last in met:
                last = met[last]
            while prev[first] >= 0 and at(first, t_hit) - at(prev[first], t_hit) <= COLLISION_TOL:
                first = prev[first]
            while nxt[last] >= 0 and at(nxt[last], t_hit) - at(last, t_hit) <= COLLISION_TOL:
                last = nxt[last]
            taken.update(run(first, last))
            clusters.append((at(first, t_hit), first, last))
        k = len(times)
        times.append(t_hit)
        for x_c, first, last in sorted(clusters):
            rho_l, rho_r = left[first], right[last]
            collisions.append((t_hit, x_c, rho_l, rho_r))
            for i in run(first, last):
                died[i] = k
            fan = fans.get((rho_l, rho_r))
            if fan is None:
                fan = fans[rho_l, rho_r] = flux.fan(rho_l, rho_r)
            states, speeds = fan
            # a single front carries |rho_r - rho_l|, which the run's
            # variation is at least; grid states make both sums exact
            if len(speeds) > 1:
                tv_fan = sum(abs(q - p) for p, q in zip(states, states[1:]))
                tv_run = sum(abs(right[i] - left[i]) for i in run(first, last))
                if tv_fan > tv_run:
                    raise FrontTrackError(
                        f"fan from {rho_l} to {rho_r} raises total variation from "
                        f"{tv_run} to {tv_fan} at t={t_hit}"
                    )
            new = list(range(len(x0), len(x0) + len(speeds)))
            x0.extend([x_c] * len(new))
            speed.extend(speeds)
            left.extend(states[:-1])
            right.extend(states[1:])
            born.extend([k] * len(new))
            died.extend([-1] * len(new))
            prev.extend([-1] * len(new))
            nxt.extend([-1] * len(new))
            if new:
                after.extend(new[1:] + [after[last]])
                after[last] = new[0]
            chain = [prev[first]] + new + [nxt[last]]
            for p, q in zip(chain, chain[1:]):
                if p >= 0:
                    nxt[p] = q
                if q >= 0:
                    prev[q] = p
            if chain[0] >= 0 and chain[1] >= 0:
                meeting(chain[0], chain[1])
            if len(chain) > 2 and chain[-2] >= 0 and chain[-1] >= 0:
                meeting(chain[-2], chain[-1])
    return FrontTrackSolution(flux, t_end, times, collisions, log)
