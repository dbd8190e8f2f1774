"""Self-contained verification suites over the package's moving parts.

Each suite runs a handful of quantitative checks — exact observables,
oracle comparisons, conservation audits, stability envelopes — and returns
a structured report.  The suites back the ``verify`` command of the CLI
and are reused by the test suite with pinned tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FrontTrackError, require_index
from .estimates import (
    Curve,
    lemma1_check,
    modulus_bound,
    phi_epsilon,
    phi_one_sided_limits,
    rescaling_check,
    stability_constant_C,
)
from .fronttrack import PiecewiseConstant, from_datum, ft_evolve
from .fvsolver import BOUND_TOL, Grid, l1_distance, run
from .inverse import evaluate_candidate, minimize_E, scan_E
from .model import ExogenousSpeed, FluxModel, Greenshields, ProbeTrajectory
from .riemann import solve_riemann
from .scenarios import get_scenario, run_scenario, scenario_names

@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            out.append(f"[{mark}] {self.name}: {c.label} ({c.detail})")
        return out


def _check(label, passed, detail):
    return CheckResult(label=label, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------

def verify_phi():
    """The jump observable: closed-form values, the one-sided gap, and the
    flagged disagreement on the slow-shock branch."""
    tol = 1e-14
    checks = []
    limits = phi_one_sided_limits(t_end=1.0)
    checks.append(
        _check(
            "one-sided limits bracket a jump of exactly 1/4",
            abs(limits.jump - 0.25) <= tol
            and abs(limits.from_above - 0.375) <= tol
            and abs(limits.from_below - 0.125) <= tol,
            f"from_below={limits.from_below}, from_above={limits.from_above}",
        )
    )
    fast = phi_epsilon(0.1)
    checks.append(
        _check(
            "fast-shock branch matches its closed form",
            abs(fast.per_time - 0.3859375) <= tol and fast.agrees,
            f"per_time={fast.per_time!r}, reference={fast.reference_per_time!r}",
        )
    )
    slow = phi_epsilon(-0.1)
    expected_slow = 1.0 / 8.0 + 15.0 * (-0.1) / 64.0
    checks.append(
        _check(
            "slow-shock branch computes the trace-side value",
            abs(slow.per_time - expected_slow) <= tol and slow.trace == 3.0 / 8.0,
            f"per_time={slow.per_time!r}, trace={slow.trace}",
        )
    )
    checks.append(
        _check(
            "slow-shock reference disagreement is flagged (off by 1)",
            (not slow.agrees)
            and abs(slow.reference_per_time - slow.per_time - 1.0) <= tol,
            f"computed={slow.per_time!r}, reference={slow.reference_per_time!r}",
        )
    )
    on_right = phi_epsilon(0.0, trace_side="right")
    on_left = phi_epsilon(0.0, trace_side="left")
    checks.append(
        _check(
            "at eps=0 the trace side selects the branch",
            on_right.per_time == limits.from_below
            and on_left.per_time == limits.from_above,
            f"right={on_right.per_time}, left={on_left.per_time}",
        )
    )
    return SuiteResult(name="phi", checks=tuple(checks))


# ---------------------------------------------------------------------------
# riemann
# ---------------------------------------------------------------------------

def verify_riemann():
    """Front tracking against the exact Riemann solution: the tracked shock
    speed and the tracked rarefaction profile.  The finite-volume scheme's
    convergence towards these solutions is :func:`verify_convergence`'s."""
    n = 12
    profile_tol = 2.0 * 2.0 ** -n
    checks = []
    law = Greenshields(1.0)

    shock = solve_riemann(law, 1.0 / 8.0, 3.0 / 8.0)
    state = from_datum(law, PiecewiseConstant([0.0], [1.0 / 8.0, 3.0 / 8.0]), n)
    checks.append(
        _check(
            f"shock speed from tracking equals the exact chord (n={n})",
            state.n_fronts == 1 and float(state.speeds[0]) == shock.speed,
            f"tracked={float(state.speeds[0])!r}, exact={shock.speed!r}",
        )
    )

    fan_exact = solve_riemann(law, 3.0 / 4.0, 0.0)
    fan_state = from_datum(law, PiecewiseConstant([0.0], [3.0 / 4.0, 0.0]), n)
    solution = ft_evolve(fan_state, 1.0)
    xi = np.linspace(-0.9, 1.1, 1001)
    tracked = solution.sample(1.0, xi)
    exact = fan_exact.sample(xi)
    worst = float(np.max(np.abs(tracked - exact)))
    checks.append(
        _check(
            f"rarefaction profile within 2*2^-{n} of the exact fan",
            worst <= profile_tol,
            f"max deviation {worst:.3e} vs {profile_tol:.3e}",
        )
    )
    return SuiteResult(name="riemann", checks=tuple(checks))


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

#: One-jump Greenshields data ``(rho_l, rho_r)`` of the convergence suite:
#: three shocks and two rarefactions, and the largest L1 error each may show
#: on the finest of :data:`_LADDER_DX` (the errors of the first release of
#: the suite, rounded up).
_CONVERGENCE_DATA = {
    (0.125, 0.375): 3.2e-3,
    (0.2, 0.8): 4.4e-3,
    (0.8, 0.2): 1.1e-2,
    (0.1, 0.3): 2.8e-3,
    (0.6, 0.9): 3.3e-3,
}

#: Cell widths of the Riemann ladder, on [-1, 1] to t = 0.5.
_LADDER_DX = (0.02, 0.01, 0.005)

#: Least order of the Riemann ladder, per rung: Kuznetsov's estimate gives
#: a monotone scheme order 1/2 in L1 on data of bounded variation.
_RIEMANN_ORDER_MIN = 0.4

#: Least observed order of the fig_int32 self-convergence ladder, per rung.
_SELF_ORDER_MIN = 0.8


def _riemann_ladder(law, rho_l, rho_r):
    """L1 errors against :func:`solve_riemann` of one jump at x = 0 on
    [-1, 1] at t = 0.5, one per :data:`_LADDER_DX`; no wave reaches a
    boundary by then."""
    exact = solve_riemann(law, rho_l, rho_r)
    errors = []
    for dx in _LADDER_DX:
        grid = Grid.from_extent(-1.0, 1.0, dx)
        datum = PiecewiseConstant([0.0], [rho_l, rho_r])
        result = run(FluxModel(law), grid, datum, 0.5, n_snapshots=2)
        errors.append(l1_distance(grid, result.final_field, exact.profile(0.5, grid.centers)))
    return errors


def _self_convergence(scenario, rungs):
    """L1 distances of ``scenario`` run at ``dx / 2**k``, ``k < rungs``,
    from its run at ``dx / 2**rungs``, whose field is averaged onto each
    coarser grid."""
    fields = []
    for k in range(rungs + 1):
        result = run_scenario(scenario.with_overrides(dx=scenario.dx / 2**k, n_snapshots=2))
        fields.append((result.grid, result.final_field))
    finest = fields[-1][1]
    errors = []
    for k, (grid, field) in enumerate(fields[:-1]):
        averaged = finest.reshape(grid.n_cells, 2 ** (rungs - k)).mean(axis=1)
        errors.append(l1_distance(grid, field, averaged))
    return errors


def verify_convergence():
    """Accuracy of the finite-volume scheme on a grid ladder: probe-free
    Riemann data against the exact solution, and the probe-coupled
    ``fig_int32`` against its own finest run."""
    checks = []
    law = Greenshields(1.0)
    for (rho_l, rho_r), ceiling in _CONVERGENCE_DATA.items():
        errors = _riemann_ladder(law, rho_l, rho_r)
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        checks.append(
            _check(
                f"Riemann ({rho_l} | {rho_r}): order >= {_RIEMANN_ORDER_MIN} on each "
                f"rung, L1 error at most {ceiling:.2g} at dx={_LADDER_DX[-1]}",
                min(orders) >= _RIEMANN_ORDER_MIN and errors[-1] <= ceiling,
                "L1 errors "
                + ", ".join(f"dx={dx}: {e:.6e}" for dx, e in zip(_LADDER_DX, errors))
                + "; orders "
                + ", ".join(f"{order:.3f}" for order in orders),
            )
        )
    scenario = get_scenario("fig_int32").with_overrides(t_end=1.0)
    errors = _self_convergence(scenario, 3)
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    checks.append(
        _check(
            f"fig_int32 to t=1: self-convergence order >= {_SELF_ORDER_MIN} on each rung",
            min(orders) >= _SELF_ORDER_MIN,
            "L1 distances from dx/8: "
            + ", ".join(f"dx/{2**k}: {e:.6e}" for k, e in enumerate(errors))
            + "; orders "
            + ", ".join(f"{order:.3f}" for order in orders),
        )
    )
    return SuiteResult(name="convergence", checks=tuple(checks))


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------

def fuzz_conservation_case(rng):
    """One random compact-support setup with a certified quiet boundary."""
    grid = Grid.from_extent(0.0, 1.0, 0.01)
    background = float(rng.choice([0.0, 0.2, 0.5]))
    n_blocks = int(rng.integers(1, 4))
    edges = np.sort(rng.uniform(0.25, 0.75, size=2 * n_blocks))
    blocks = []
    for i in range(n_blocks):
        a, b = float(edges[2 * i]), float(edges[2 * i + 1])
        if b - a < 1e-3:
            continue
        value = float(rng.integers(0, 9)) / 8.0
        if value != background:
            blocks.append((a, b, value))
    datum = PiecewiseConstant.from_blocks(background, blocks)
    probes = ()
    if rng.random() < 0.5:
        speed = float(rng.uniform(0.0, 1.0))
        probes = (ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, speed),)),)
    model = FluxModel(Greenshields(1.0), probes=probes)
    return model, grid, datum


def _balance_stats(result):
    """(relative mass residual, density min, density max) of a run; the
    residual compares the tracked mass against the initial mass plus the
    accumulated boundary flux."""
    residual = result.mass_balance_residual()
    rel = residual / max(1.0, abs(result.initial_mass))
    lo = float(np.min(result.log[:, 4]))
    hi = float(np.max(result.log[:, 5]))
    return rel, lo, hi


def verify_conservation(seed=20240817):
    """Mass balance and [0, 1] bounds on every built-in scenario over its
    full horizon, and on random compact setups."""
    n_fuzz = 100
    mass_tol = 1e-10
    checks = []
    for name in scenario_names():
        result = run_scenario(get_scenario(name))
        rel, lo, hi = _balance_stats(result)
        checks.append(
            _check(
                f"{name}: mass balanced and density within bounds",
                rel <= mass_tol and lo >= -BOUND_TOL and hi <= 1.0 + BOUND_TOL,
                f"relative residual={rel:.3e}, range=[{lo:.3e}, {hi:.6f}]",
            )
        )
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    worst_lo, worst_hi = 0.0, 1.0
    for _ in range(n_fuzz):
        model, grid, datum = fuzz_conservation_case(rng)
        result = run(model, grid, datum, 0.15, n_snapshots=2)
        rel, lo, hi = _balance_stats(result)
        worst_rel = max(worst_rel, rel)
        worst_lo = min(worst_lo, lo)
        worst_hi = max(worst_hi, hi)
    checks.append(
        _check(
            f"{n_fuzz} random setups: mass balanced and density within bounds",
            worst_rel <= mass_tol
            and worst_lo >= -BOUND_TOL
            and worst_hi <= 1.0 + BOUND_TOL,
            f"worst relative residual={worst_rel:.3e}, "
            f"range=[{worst_lo:.3e}, {worst_hi:.6f}]",
        )
    )
    return SuiteResult(name="conservation", checks=tuple(checks))


# ---------------------------------------------------------------------------
# lemma1
# ---------------------------------------------------------------------------

#: Dyadic grid exponent of the lemma1 suite's tracked data.
_LEMMA1_N = 7


def fuzz_lemma1_case(rng):
    """A random tracked datum plus a parallel pair of fast curves."""
    n = _LEMMA1_N
    n_jumps = int(rng.integers(1, 5))
    xs = np.sort(rng.uniform(-0.5, 0.5, size=n_jumps))
    while np.any(np.diff(xs) < 1e-6):
        xs = np.sort(rng.uniform(-0.5, 0.5, size=n_jumps))
    values = [int(rng.integers(0, 58))]
    for _ in range(n_jumps):
        nxt = int(rng.integers(0, 58))
        while nxt == values[-1]:
            nxt = int(rng.integers(0, 58))
        values.append(nxt)
    datum = PiecewiseConstant(xs, [v * 2.0 ** -n for v in values])
    c = float(rng.uniform(0.05, 0.2))
    t1 = float(rng.uniform(0.5, 1.5))
    law = Greenshields(1.0)
    state = from_datum(law, datum, n)
    bound = state.flux.speed_bound(*state.range())
    # two or three spans, every slope clear of the wave speeds by >= c
    n_spans = int(rng.integers(2, 4))
    knot_t = np.concatenate(
        [[0.0], np.sort(rng.uniform(0.1, t1 - 0.05, n_spans - 1)), [t1]]
    )
    slopes = bound + c + rng.uniform(0.0, 0.3, size=n_spans)
    x0 = float(rng.uniform(-1.0, 0.0))
    knot_x = x0 + np.concatenate([[0.0], np.cumsum(np.diff(knot_t) * slopes)])
    delta = float(rng.uniform(0.01, 0.5))
    gamma1 = Curve(knot_t, knot_x)
    gamma2 = Curve(knot_t, knot_x - delta)
    return law, datum, n, gamma1, gamma2, c, t1


def verify_lemma1(seed=20240818):
    """The curve-difference estimate on a hand case and random cases."""
    n_cases = 200
    checks = []
    law = Greenshields(1.0)
    datum = PiecewiseConstant([0.0], [1.0 / 8.0, 3.0 / 8.0])
    delta = 0.3
    gamma1 = Curve.linear(0.0, 1.0, 0.0, 0.9)
    gamma2 = Curve.linear(0.0, 1.0, -delta, 0.9)
    report = lemma1_check(law, datum, gamma1, gamma2, 0.14, _LEMMA1_N)
    expected = 0.25 * delta / 0.4
    checks.append(
        _check(
            "hand case: integral is the exact crossing-lag value",
            abs(report.lhs - expected) <= 1e-12 and report.passed,
            f"integral={report.lhs!r}, expected={expected!r}, "
            f"bound={report.rhs:.6g}",
        )
    )
    try:
        lemma1_check(law, datum, gamma1, gamma2, 0.16, _LEMMA1_N)
        rejected = False
    except FrontTrackError:
        rejected = True
    checks.append(
        _check(
            "a margin the curves cannot honour is rejected",
            rejected,
            "slope 0.9 vs wave bound + 0.16",
        )
    )
    rng = np.random.default_rng(seed)
    failures = 0
    worst_ratio = 0.0
    for _ in range(n_cases):
        law_i, datum_i, n_i, g1, g2, c, t1 = fuzz_lemma1_case(rng)
        rep = lemma1_check(law_i, datum_i, g1, g2, c, n_i, 0.0, t1)
        if not rep.passed:
            failures += 1
        if rep.rhs > 0:
            worst_ratio = max(worst_ratio, rep.lhs / rep.rhs)
    checks.append(
        _check(
            f"{n_cases} random cases stay within the bound",
            failures == 0,
            f"failures={failures}, worst integral/bound={worst_ratio:.3f}",
        )
    )
    return SuiteResult(name="lemma1", checks=tuple(checks))


# ---------------------------------------------------------------------------
# lipschitz-stability
# ---------------------------------------------------------------------------

def stability_setup():
    """A mollified exogenous probe with a finite stability rate."""
    probe = ProbeTrajectory(
        0.5,
        (
            ExogenousSpeed(0.0, 0.4, 0.5),
            ExogenousSpeed(0.4, 0.7, 0.3),
            ExogenousSpeed(0.7, None, 0.55),
        ),
        mollify_radius=0.05,
    )
    model = FluxModel(Greenshields(1.0), probes=(probe,))
    grid = Grid.from_extent(-2.0, 6.0, 5e-3)
    return model, grid


def fuzz_stability_pair(rng):
    """A random base profile and a perturbed companion, or ``None`` when
    the draw degenerates."""
    base = float(rng.uniform(0.2, 0.7))
    a, b = np.sort(rng.uniform(-1.0, 4.0, size=2))
    other = float(np.clip(base + rng.uniform(-0.2, 0.2), 0.0, 1.0))
    if other == base or b - a < 0.05:
        return None
    return (
        PiecewiseConstant([], [base]),
        PiecewiseConstant.from_blocks(base, [(float(a), float(b), other)]),
    )


def verify_lipschitz_stability(seed=20240819):
    """L1 distances of perturbed runs against the exponential envelope."""
    checks = []
    model, grid = stability_setup()
    rate = stability_constant_C(model)
    moduli = "".join(
        f"; probe {i}: "
        + ", ".join(f"{k}={part[k]:.4g}" for k in ("P", "q_lo", "L_hm", "lip_g", "lip_pdot"))
        for i, part in enumerate(rate.per_probe)
    )
    checks.append(
        _check(
            "the smoothed probe program has a finite growth rate",
            not rate.unbounded and rate.value > 0.0,
            f"C={rate.value:.4g}{moduli}",
        )
    )
    jumpy = FluxModel(
        Greenshields(1.0),
        probes=(ProbeTrajectory(0.0, (ExogenousSpeed(0.0, 1.0, 0.5),)),),
    )
    jumpy_rate = stability_constant_C(jumpy)
    checks.append(
        _check(
            "an abrupt speed program is reported as unbounded",
            jumpy_rate.unbounded and "jump" in jumpy_rate.reason,
            f"reason: {jumpy_rate.reason or 'none'}",
        )
    )
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < 10:
        pair = fuzz_stability_pair(rng)
        if pair is not None:
            pairs.append(pair)
    envelope_ok = True
    detail = []
    for datum_a, datum_b in pairs:
        res_a = run(model, grid, datum_a, 1.0, n_snapshots=5)
        res_b = run(model, grid, datum_b, 1.0, n_snapshots=5)
        d0 = l1_distance(grid, res_a.snapshots[0][1], res_b.snapshots[0][1])
        for (t, fa), (_, fb) in zip(res_a.snapshots[1:], res_b.snapshots[1:]):
            dt_dist = l1_distance(grid, fa, fb)
            # envelope compared in log space, with 5 % slack:
            # log d(t) <= log d(0) + C t + log 1.05
            if math.log(dt_dist) > math.log(d0) + rate.value * t + math.log(1.05):
                envelope_ok = False
                detail.append(
                    f"t={t}: {dt_dist:.4g} vs {d0:.4g}*exp({rate.value:.3g}*t)"
                )
    checks.append(
        _check(
            f"{len(pairs)} perturbation pairs stay inside the envelope",
            envelope_ok,
            "; ".join(detail) if detail else "all distances below exp(C t) * initial",
        )
    )
    return SuiteResult(name="lipschitz-stability", checks=tuple(checks))


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------

#: Single-jump profile the rescaling suite stretches.
_RESCALE_DATUM = ([0.0], [1.0 / 8.0, 3.0 / 8.0])


def verify_rescaling():
    """Speed rescaling moves the solution to a stretched grid and nothing
    else: exactly for power-of-two speed ratios, within the grid bound for
    another ratio."""
    checks = []
    datum = PiecewiseConstant(*_RESCALE_DATUM)
    exact = ((2.0, "doubling the speed"), (0.5, "halving the speed"), (1.0, "equal speeds"))
    for v2, label in exact:
        report = rescaling_check(1.0, v2, datum, 1.0)
        checks.append(
            _check(
                f"{label}: the stretched run is reproduced exactly",
                report.discrepancy == 0.0,
                f"discrepancy={report.discrepancy!r}",
            )
        )
    report = rescaling_check(1.0, 1.5, datum, 1.0)
    checks.append(
        _check(
            "speed ratio 1.5: discrepancy within the grid bound",
            report.passed,
            f"discrepancy={report.discrepancy:.4g}, bound={report.bound:.4g}",
        )
    )
    return SuiteResult(name="rescaling", checks=tuple(checks))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def verify_calibration():
    """Recover the planted speed-law slope from observer records."""
    checks = []
    scenario = get_scenario("calibration")
    v_lo, v_hi, n_intervals = 0.5, 2.0, 8
    scan = scan_E(scenario, v_lo, v_hi, n_intervals)
    refined = minimize_E(
        scan.samples,
        refine_iters=20,
        evaluator=lambda v: evaluate_candidate(scenario, v),
    )
    tol = (v_hi - v_lo) / n_intervals + 1e-3
    checks.append(
        _check(
            "the planted slope 1.2 is recovered",
            abs(refined.v_best - 1.2) <= tol and not refined.on_boundary,
            f"estimate={refined.v_best:.6f}, tolerance={tol:.4f}, "
            f"boundary={refined.on_boundary}",
        )
    )
    mod = modulus_bound(scenario, rho_check=0.55, v_lo=v_lo, v_hi=v_hi)
    slopes = [
        abs(e2 - e1) / (w2 - w1)
        for (w1, e1), (w2, e2) in zip(scan.samples, scan.samples[1:])
    ]
    checks.append(
        _check(
            "scan increments respect the modulus bound",
            max(slopes) <= mod.value + 1e-12,
            f"max slope={max(slopes):.4g}, bound={mod.value:.4g}",
        )
    )
    return SuiteResult(name="calibration", checks=tuple(checks))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

#: Suite name -> (function, whether it takes a fuzz ``seed``), in run order.
SUITES = {
    "phi": (verify_phi, False),
    "riemann": (verify_riemann, False),
    "convergence": (verify_convergence, False),
    "conservation": (verify_conservation, True),
    "lemma1": (verify_lemma1, True),
    "lipschitz-stability": (verify_lipschitz_stability, True),
    "rescaling": (verify_rescaling, False),
    "calibration": (verify_calibration, False),
}


def run_suite(name, seed=None):
    """Run one named suite; ``seed`` overrides its fuzz seed when it has
    one.  A seed that is not an integer >= 0 is a :class:`DomainError`."""
    if seed is not None and require_index("seed", seed) < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    try:
        func, takes_seed = SUITES[name]
    except KeyError:
        raise DomainError(
            f"unknown suite {name!r}; available: {', '.join(SUITES)} or 'all'"
        ) from None
    if seed is not None and takes_seed:
        return func(seed=seed)
    return func()


def run_all(seed=None):
    """Run every suite, in a fixed order (a negative ``seed`` stops the
    first, before it runs)."""
    return [run_suite(name, seed=seed) for name in SUITES]
