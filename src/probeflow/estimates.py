"""The paper's analytic estimates, checked on concrete configurations.

None of these runs inside a simulation, a calibration scan, an export or
an exact oracle; :mod:`probeflow.verify`, the CLI and the tests read them.

* :func:`lipschitz_constants` and :func:`stability_constant_C` compute the
  moduli of the probe-blended speed field and the growth rate ``C`` of the
  L1 stability estimate
  ``||rho1(t) - rho2(t)||_L1 <= exp(C*t) * ||rho1(0) - rho2(0)||_L1``;
  :func:`mixed_difference_constant` bounds the mixed difference of the
  auxiliary map :func:`eval_g`, ``g(rho, q) = q*rho*v(rho) / (q + v(rho))``.
  Each modulus is a closed form in constants the law, the cutoff and the
  probe programs expose (``Lip(v)``, ``Lip(chi)``, the least and largest
  programmed speeds); its derivation, which needs ``v >= 0`` on [0, 1] as
  every library law has, is in its docstring.  Nothing is sampled.
* :func:`phi_epsilon` computes the travel-time-style observable of a probe
  crossing a single density jump, whose one-sided limits in the family
  parameter quantify an identifiability gap.
* :class:`Curve` and :func:`sample_curve_integral` integrate the density
  difference along two space-time paths exactly on a front-tracking
  solution.
* :func:`lemma1_check`, :func:`rescaling_check` and :func:`modulus_bound`
  verify quantitative estimates (curve-difference integrals, invariance
  under speed rescaling, and a Lipschitz modulus for the calibration
  functional) on concrete configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FrontTrackError, require_finite
from .fronttrack import PiecewiseConstant, from_datum, ft_evolve
from .fvsolver import Grid, l1_distance, run
from .model import ZERO_DENOM_TOL, EpsilonLaw, FluxModel, Greenshields, _as_density
from .riemann import solve_riemann


# ---------------------------------------------------------------------------
# Lipschitz moduli and the stability rate C
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzConstants:
    """Moduli of the blended speed field ``V = v + chi(x - p) (H(w, v) - v)``
    with ``H(w, v) = 2*w*v/(w+v)``.

    ``M``: maximal value of the blend over programmed probe speeds and law
    speeds.  ``Lx`` bounds ``|d V / d x|``, ``Lrho`` bounds
    ``|d V / d rho|`` and ``Lxrho`` is the Lipschitz constant of
    ``rho -> dV/dx``.
    """

    M: float
    Lx: float
    Lrho: float
    Lxrho: float


def lipschitz_constants(model):
    """Compute the moduli of the blended speed field of ``model``.

    ``dV/dx = chi'(x - p) (H(w, v) - v)``, so ``rho -> dV/dx`` has the
    derivative ``chi'(x - p) (dH/dv - 1) v'(rho)``.  For ``w, v >= 0``,
    ``dH/dv = 2 (w / (w + v))**2`` lies in ``[0, 2]``, so
    ``|dH/dv - 1| <= 1``, with equality at ``w = 0``; the three factors
    peak independently, hence ``Lxrho = Lip(chi) * Lip(v)`` with probes
    coupled, whatever speeds their programs take, and 0 without.
    """
    law = model.speed_law
    vmax = law.v_max
    lip_v = law.lipschitz()
    lip_chi = model.cutoff.lipschitz()
    P = model.max_probe_speed()
    # the blend is monotone in both arguments: maximum at the corner (P, vmax)
    M = 0.0 if P == 0.0 else 2.0 * P * vmax / (P + vmax)
    has_probes = bool(model.coupled_probes)
    Lx = (M + vmax) * lip_chi if has_probes else 0.0
    Lxrho = lip_chi * lip_v if has_probes else 0.0
    return LipschitzConstants(M=M, Lx=Lx, Lrho=2.0 * lip_v, Lxrho=Lxrho)


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


def mixed_difference_constant(law, q_lo):
    """Bound ``B`` on ``|d^2 g / (d rho d q)|`` over ``rho`` in [0, 1] and
    ``q >= q_lo``, so that ``|g(r1,q1) - g(r1,q2) - g(r2,q1) + g(r2,q2)|
    <= B |r1-r2| |q1-q2|`` for any ``q1, q2 >= q_lo``.

    ``d^2 g / (d rho d q) = (v / (q + v))**2 + 2 rho v' v q / (q + v)**3``.
    The first term lies in [0, 1] for ``v >= 0``; ``(q + v)**2 >= 4 q v``
    gives ``v q / (q + v)**3 <= 1 / (4 (q + v)) <= 1 / (4 q)``, and
    ``rho |v'| <= Lip(v)``, so ``B = 1 + Lip(v) / (2 q_lo)``.  On a
    piecewise law ``g`` is continuous and piecewise smooth in ``rho``, so
    the bound holds across knots.  It is ``inf`` at ``q_lo <= 0``: under
    Greenshields the derivative is ``1/2 - 1/(4 q)`` along ``1 - rho = q``.
    """
    if q_lo <= 0.0:
        return math.inf
    return 1.0 + law.lipschitz() / (2.0 * q_lo)


@dataclass(frozen=True)
class StabilityConstant:
    """The L1-stability growth rate, with its ingredients.

    ``value`` is ``+inf`` when the probe program does not admit a finite
    rate (a model-coupled segment, unmollified speed jumps, or a moving
    probe that reaches speed 0).
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
    + Lip(g) * Lip(pdot)``, read from constants of the law, the cutoff and
    the program; the total is the sum over probes, and no probes give
    ``C = 0``.  ``P`` and ``q_lo`` are the probe's largest and smallest
    speeds (its program's knots: ramps are monotone), ``Lip(pdot)`` the
    slope of its mollified ramps and ``Lip(g)`` is
    :func:`mixed_difference_constant` at ``q_lo``.  ``L_hm`` bounds the
    slope of ``m_w(rho) = rho v / (w + v)`` for every ``w`` in
    ``[q_lo, P]``: ``m_w' = v / (w + v) + rho v' w / (w + v)**2``, whose
    first term lies in [0, 1] for ``v >= 0`` and whose second is at most
    ``Lip(v) / w``, so ``L_hm = 1 + Lip(v) / q_lo``.

    A probe that never moves (``P == 0``) adds ``Lip(chi) * Lip(rho*v)``.
    A moving probe whose program reaches speed 0 has no finite ``L_hm``
    nor ``Lip(g)``, and ``C`` is ``inf`` with a reason naming it.
    """
    law = model.speed_law
    probes = model.coupled_probes
    if not probes:
        return StabilityConstant(value=0.0, per_probe=())
    lip_chi = model.cutoff.lipschitz()
    lip_v = law.lipschitz()
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
        q_lo = probe.min_speed()
        if P == 0.0:
            L_hm = lip_g = 0.0
        elif q_lo == 0.0:
            return StabilityConstant(
                value=math.inf,
                per_probe=(),
                reason=f"probe {i} reaches speed 0 and moves up to speed {P}: "
                "rho*v/(w+v) and g have no finite modulus at w = 0",
            )
        else:
            L_hm = 1.0 + lip_v / q_lo
            lip_g = mixed_difference_constant(law, q_lo)
        contribution = lip_chi * (1.0 + P) * (P * L_hm + lip_flux) + lip_g * lip_pdot
        parts.append(
            {
                "P": P,
                "q_lo": q_lo,
                "L_hm": L_hm,
                "lip_flux": lip_flux,
                "lip_g": lip_g,
                "lip_pdot": lip_pdot,
                "value": contribution,
            }
        )
        total += contribution
    return StabilityConstant(value=total, per_probe=tuple(parts))


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
# Curves and exact line integrals
# ---------------------------------------------------------------------------

class Curve:
    """Piecewise linear space-time path ``t -> x``."""

    def __init__(self, ts, xs):
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        if self.ts.ndim != 1 or self.ts.shape != self.xs.shape or len(self.ts) < 2:
            raise DomainError("a curve needs matching 1-d knot arrays, >= 2 knots")
        if not (np.all(np.isfinite(self.ts)) and np.all(np.isfinite(self.xs))):
            raise DomainError("curve knot times and positions must be finite")
        if np.any(np.diff(self.ts) <= 0.0):
            raise DomainError("curve knot times must be strictly increasing")

    @classmethod
    def linear(cls, t0, t1, x0, slope):
        return cls([t0, t1], [x0, x0 + slope * (t1 - t0)])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # written negated so that a NaN extremum fails it
        if t.size and not (t.min() >= self.ts[0] - 1e-12 and t.max() <= self.ts[-1] + 1e-12):
            raise DomainError("curve evaluated outside its knot range or at NaN")
        out = np.interp(t, self.ts, self.xs)
        if out.ndim == 0:
            return float(out)
        return out

    def min_slope(self, t0, t1):
        """Smallest slope among spans overlapping ``(t0, t1)``, ``t0 < t1``;
        also returns the start time of the span attaining it."""
        if not t0 < t1:
            raise DomainError(f"need t0 < t1, got ({t0}, {t1})")
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
        return float(best), float(best_t)

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
    collects all such times, reading the density range and the front
    crossings from the solution's front log; each piece is evaluated at its
    midpoint.
    """
    if not t1 > t0:
        raise DomainError(f"need t0 < t1, got ({t0}, {t1})")
    if not c > 0.0:
        raise DomainError(f"non-characteristic margin c must be positive, got {c}")
    states = solution.log.right + [solution.log.rho_left]
    s_max = solution.flux.speed_bound(min(states), max(states))
    for label, curve in (("gamma1", gamma1), ("gamma2", gamma2)):
        slope, at = curve.min_slope(t0, t1)
        if slope < s_max + c - 1e-12:
            raise FrontTrackError(
                f"{label} is not c-non-characteristic: slope {slope} at t={at} "
                f"vs front speed bound {s_max} + c={c}"
            )
    cuts = {float(t0), float(t1)}
    cuts.update(float(t) for t in solution.times if t0 < t < t1)
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
    """Times in (t0, t1) at which the curve meets any logged front, each
    front checked over its own lifetime."""
    cols = solution.epochs.log_columns()
    x0, speed, t_born = cols["x0"], cols["speed"], cols["t_born"]
    out = []
    for a, b, xa, xb in zip(curve.ts, curve.ts[1:], curve.xs, curve.xs[1:]):
        lo = np.maximum(max(t0, a), t_born)
        hi = np.minimum(min(t1, b), cols["t_died"])
        m = (xb - xa) / (b - a)
        # xa + m (t - a) = x0 + speed (t - t_born)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_cross = (x0 - speed * t_born - xa + m * a) / (m - speed)
        hit = (speed != m) & (lo < t_cross) & (t_cross < hi)
        out.extend(t_cross[hit].tolist())
    return out


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
    """Discrepancy between a run and its speed-rescaled counterpart.

    When ``v2 / v1`` is a power of two, stretching space by it scales every
    cell width, flux and wave speed by the same exact factor, so the
    stretched run reproduces the reference run bit for bit and
    ``discrepancy`` is 0.0.  Other ratios round differently in the two
    runs; ``passed`` then compares the discrepancy against
    ``bound = 3 * dx * TV``.
    """

    v1: float
    v2: float
    dx: float
    t_end: float
    tv: float
    discrepancy: float
    bound: float

    @property
    def passed(self):
        return self.discrepancy <= self.bound


def _rescaled_pair(law_a, law_b, datum, t_end, dx):
    """Run ``datum`` under ``law_a`` on the reference grid and its stretched
    image under ``law_b`` on the grid stretched by ``v2/v1`` (the
    Greenshields laws' ``vmax``); return the largest L1 discrepancy over
    five matched snapshots.

    Stretching space, not time, turns the ``v1`` solution into the ``v2``
    one at equal times: ``t``, ``dt`` and every snapshot time stay the
    same in both runs.  The stretched grid keeps the cell count, so cell
    ``j`` of one run is cell ``j`` of the other, measured on the reference
    grid.
    """
    xs = datum.xs
    x_lo = math.floor(min(xs, default=0.0)) - 1.0
    x_hi = math.ceil(max(xs, default=0.0)) + 2.0
    scale = law_b.vmax / law_a.vmax
    grid_a = Grid.from_extent(x_lo, x_hi, dx)
    grid_b = Grid(x_min=scale * x_lo, x_max=scale * x_hi, n_cells=grid_a.n_cells)
    datum_b = PiecewiseConstant([scale * x for x in xs], datum.values)

    result_a = run(FluxModel(law_a), grid_a, datum, t_end, n_snapshots=5)
    result_b = run(FluxModel(law_b), grid_b, datum_b, t_end, n_snapshots=5)
    worst = 0.0
    for (ta, field_a), (tb, field_b) in zip(result_a.snapshots, result_b.snapshots):
        if abs(ta - tb) > 1e-12:
            raise DomainError(f"snapshot times diverged: {ta} vs {tb}")
        worst = max(worst, l1_distance(grid_a, field_a, field_b))
    return worst


def rescaling_check(v1, v2, datum, t_end, dx=2.5e-3):
    """Check that rescaling the speed only rescales space: the largest
    snapshot discrepancy is 0.0 when ``v2 / v1`` is a power of two, and
    below ``3 * dx * TV`` otherwise."""
    discrepancy = _rescaled_pair(Greenshields(v1), Greenshields(v2), datum, t_end, dx)
    return RescalingReport(
        v1=float(v1),
        v2=float(v2),
        dx=float(dx),
        t_end=float(t_end),
        tv=float(datum.tv()),
        discrepancy=discrepancy,
        bound=3.0 * dx * datum.tv(),
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
