"""Command-line interface.

Subcommands:

* ``run`` — simulate a scenario (built-in name or JSON file) and export a
  bundle of CSV tables, a PGM heatmap, and run metadata;
* ``phi`` — evaluate the jump observable on listed or ranged parameters;
* ``inverse`` — calibrate a linear speed law from probe records;
* ``verify`` — run the built-in verification suites;
* ``list-scenarios`` — show the available scenario names.

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import verify
from .errors import DomainError, FrontTrackError, ProbeStateError, StabilityError
from .estimates import phi_epsilon, phi_one_sided_limits
from .inverse import evaluate_candidate, minimize_E, scan_E
from .io import write_bundle
from .scenarios import Scenario, get_scenario, run_scenario, scenario_names


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="probeflow",
        description="Probe-coupled traffic-flow simulation and calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and export results")
    p_run.add_argument(
        "scenario", help="built-in scenario name or path to a scenario JSON file"
    )
    p_run.add_argument("--out", default="probeflow_out", help="output directory")
    p_run.add_argument("--T", type=float, dest="t_end", help="override the horizon")
    p_run.add_argument("--dx", type=float, help="override the cell width")
    p_run.add_argument("--snapshots", type=int, help="override the snapshot count")
    p_run.add_argument("--cfl", type=float, help="override the CFL factor")
    p_run.add_argument(
        "--trace-side",
        choices=("right", "left"),
        help="override the probes' trace side",
    )
    p_run.add_argument(
        "--no-image", action="store_true", help="skip the PGM space-time image"
    )
    p_run.set_defaults(func=_cmd_run)

    p_phi = sub.add_parser("phi", help="evaluate the jump observable")
    p_phi.add_argument(
        "eps",
        type=float,
        nargs="*",
        help="family parameters to evaluate",
    )
    p_phi.add_argument(
        "--range",
        type=float,
        nargs=3,
        metavar=("START", "STOP", "STEP"),
        help="evaluate an inclusive range of parameters instead of a list",
    )
    p_phi.add_argument("--T", type=float, dest="t_end", default=1.0)
    p_phi.add_argument("--trace-side", choices=("right", "left"), default="right")
    p_phi.add_argument("--out", help="write the CSV here instead of stdout")
    p_phi.add_argument(
        "--limits", action="store_true", help="also print the one-sided limits at 0"
    )
    p_phi.set_defaults(func=_cmd_phi)

    p_inv = sub.add_parser("inverse", help="calibrate a linear speed law")
    p_inv.add_argument(
        "scenario",
        nargs="?",
        default="calibration",
        help="built-in scenario name or scenario JSON file (default: calibration)",
    )
    p_inv.add_argument("--v-lo", type=float, default=0.5, help="smallest slope")
    p_inv.add_argument("--v-hi", type=float, default=2.0, help="largest slope")
    p_inv.add_argument(
        "-n",
        "--intervals",
        type=int,
        default=8,
        dest="intervals",
        help="scan subintervals (n+1 samples)",
    )
    p_inv.add_argument(
        "--refine", type=int, default=20, help="golden-section refinement steps"
    )
    p_inv.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the scan (default: 1)",
    )
    p_inv.add_argument("--out", default="probeflow_out", help="output directory")
    p_inv.set_defaults(func=_cmd_inverse)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "suite",
        nargs="?",
        default="all",
        help=", ".join(verify.SUITES) + ", or all",
    )
    p_verify.add_argument(
        "--seed", type=int, default=None, help="override the fuzz seeds"
    )
    p_verify.add_argument("--json", dest="json_path", help="write the JSON report here")
    p_verify.set_defaults(func=_cmd_verify)

    p_list = sub.add_parser("list-scenarios", help="show built-in scenarios")
    p_list.set_defaults(func=_cmd_list)
    return parser


def _load_scenario(name_or_path):
    """A built-in scenario by name, or one parsed from a JSON file."""
    looks_like_path = (
        os.path.exists(name_or_path)
        or name_or_path.endswith(".json")
        or os.sep in name_or_path
    )
    if looks_like_path and name_or_path not in scenario_names():
        with open(name_or_path) as handle:
            return Scenario.from_json(handle.read())
    return get_scenario(name_or_path)


def _print_warnings(scenario):
    """Each warning-level validation finding, to stderr."""
    for finding in scenario.validate():
        if finding.level == "warning":
            print(f"warning: {finding.message}", file=sys.stderr)


def _cmd_run(args):
    scenario = _load_scenario(args.scenario)
    overrides = {}
    if args.t_end is not None:
        overrides["t_end"] = args.t_end
    if args.dx is not None:
        overrides["dx"] = args.dx
    if args.snapshots is not None:
        overrides["n_snapshots"] = args.snapshots
    if args.cfl is not None:
        overrides["cfl"] = args.cfl
    if args.trace_side is not None:
        overrides["trace_side"] = args.trace_side
    if overrides:
        scenario = scenario.with_overrides(**overrides)
    _print_warnings(scenario)
    result = run_scenario(scenario)
    bundle = write_bundle(
        args.out, result, scenario, overrides=overrides, image=not args.no_image
    )
    _, t, _, mass, lo, hi, _, _ = result.log[-1].tolist()
    print(
        f"{scenario.name}: {len(result.log)} steps to t={t:g}, "
        f"final mass {mass:.12g}, density range [{lo:.6g}, {hi:.6g}]"
    )
    for path in bundle.paths:
        print(f"wrote {path}")
    return 0


#: Most parameters ``phi --range`` evaluates: about 27 s of evaluations and
#: a 7.8 MB CSV on a 2-vCPU VM.
MAX_RANGE_VALUES = 100_000


def _phi_values(args):
    values = [float(e) for e in args.eps]
    if args.range is not None:
        start, stop, step = args.range
        if not all(map(math.isfinite, args.range)):
            raise DomainError(f"range bounds and step must be finite, got {start}, {stop}, {step}")
        if not step > 0.0:
            raise DomainError(f"range step must be positive, got {step}")
        span = (stop - start) / step + 1e-9
        if not span < MAX_RANGE_VALUES:
            raise DomainError(f"range has more than MAX_RANGE_VALUES={MAX_RANGE_VALUES} values")
        count = math.floor(span) + 1
        if count < 1:
            raise DomainError(f"empty range [{start}, {stop}] with step {step}")
        values.extend(start + k * step for k in range(count))
    if not values:
        raise DomainError("no family parameters given (list them or use --range)")
    return values


def _cmd_phi(args):
    values = _phi_values(args)
    lines = ["eps,computed,reference,branch,agrees"]
    for eps in values:
        report = phi_epsilon(eps, t_end=args.t_end, trace_side=args.trace_side)
        lines.append(
            "%.17g,%.17g,%.17g,%s,%s"
            % (
                report.eps,
                report.per_time,
                report.reference_per_time,
                report.branch,
                "true" if report.agrees else "false",
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as handle:
            handle.write(text)
        print(f"wrote {args.out} ({len(values)} rows)")
    else:
        sys.stdout.write(text)
    if args.limits:
        limits = phi_one_sided_limits(t_end=args.t_end)
        print(
            f"limits at eps=0: from below {limits.from_below:.10g}, "
            f"from above {limits.from_above:.10g}, jump {limits.jump:.10g}"
        )
    return 0


def _cmd_inverse(args):
    scenario = _load_scenario(args.scenario)
    if not args.v_hi > args.v_lo:
        raise DomainError(
            f"need v-lo < v-hi, got [{args.v_lo}, {args.v_hi}]"
        )
    _print_warnings(scenario)
    scan = scan_E(
        scenario, args.v_lo, args.v_hi, args.intervals, workers=args.workers
    )
    refined = minimize_E(
        scan.samples,
        refine_iters=args.refine,
        evaluator=lambda v: evaluate_candidate(scenario, v),
    )
    os.makedirs(args.out, exist_ok=True)
    scan_path = os.path.join(args.out, "scan.csv")
    with open(scan_path, "w", newline="\n") as handle:
        handle.write("v,E\n")
        for v, e in scan.samples:
            handle.write("%.17g,%.17g\n" % (v, e))
    record = {
        "scenario": scenario.name,
        "v_lo": args.v_lo,
        "v_hi": args.v_hi,
        "intervals": args.intervals,
        "v_best": refined.v_best,
        "e_best": refined.e_best,
        "bracket": list(refined.bracket),
        "refinement_evaluations": refined.n_evaluations,
        "on_boundary": refined.on_boundary,
    }
    record_path = os.path.join(args.out, "minimizer.json")
    with open(record_path, "w", newline="\n") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for v, e in scan.samples:
        print(f"E({v:.6f}) = {e:.10g}")
    print(
        f"best slope {refined.v_best:.8f} (misfit {refined.e_best:.6g}, "
        f"bracket [{refined.bracket[0]:.6f}, {refined.bracket[1]:.6f}], "
        f"{refined.n_evaluations} refinement evaluations)"
    )
    if refined.on_boundary:
        print("warning: minimum sits on the scan boundary; widen [v-lo, v-hi]")
    print(f"wrote {scan_path}")
    print(f"wrote {record_path}")
    return 0


def _cmd_verify(args):
    if args.suite == "all":
        suites = verify.run_all(seed=args.seed)
    else:
        suites = [verify.run_suite(args.suite, seed=args.seed)]
    failed = False
    for suite in suites:
        for line in suite.lines():
            print(line)
        failed = failed or not suite.passed
    report = {
        "passed": not failed,
        "suites": [
            {
                "name": suite.name,
                "passed": suite.passed,
                "checks": [
                    {"label": c.label, "passed": c.passed, "detail": c.detail}
                    for c in suite.checks
                ],
            }
            for suite in suites
        ],
    }
    if args.json_path:
        with open(args.json_path, "w", newline="\n") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_path}")
    else:
        print(json.dumps(report, sort_keys=True))
    print("result: " + ("FAIL" if failed else "PASS"))
    return 3 if failed else 0


def _cmd_list(args):
    del args
    for name in scenario_names():
        scenario = get_scenario(name)
        print(f"{name}: {scenario.description}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StabilityError, FrontTrackError, ProbeStateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
