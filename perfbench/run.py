"""Run one benchmark workload of probeflow and print its metrics.

    python3 perfbench/run.py --workload queue --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: the workload's operation runs back to
back, each call after the previous one returned, until ``--seconds`` have
passed, and every output is checked by the workload's correctness gates.
With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported; with ``--trace 1`` operations alternate between untraced and
traced, and the per-layer metrics are reported, including the tracing
overhead (median traced minus median untraced operation time).

All reported times are in reference seconds.  On a shared machine the
speed of a core drifts by up to a factor of two over tens of seconds, far
more than any bound a regression check could use, so a fixed reference
kernel (see ``_reference_kernel_s``) is timed before and after every
operation and every set-up, and each measured time is multiplied by
``REF_NOMINAL_S`` over the kernel's mean time around it.  Raw medians and
the kernel time are printed beside the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people: every metric with its unit, the workload's own throughput,
the error rate and the pinned environment.  The exit code is 0 when every
operation passed its gates, 1 when one did not, and 2 when the benchmark
cannot run (no ``src/probeflow`` next to it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Native thread pools are pinned to one thread so a workload runs the same
#: on any machine; these are set before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: How many times set-up is measured per run (this process and fresh ones).
SETUP_SAMPLES = 5

#: The reference kernel's time on an uncontended x86_64 core (Python 3.11,
#: numpy 2.4); a measured time t is reported as t * REF_NOMINAL_S / kernel.
REF_NOMINAL_S = 0.250


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up, print the set-up time and exit: one sample of setup_s
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def _setup_samples(args, first):
    """``SETUP_SAMPLES`` set-up times in reference seconds: ``first`` (this
    process) and fresh processes'.  Also returns the last kernel time."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    ref = _reference_kernel_s()
    samples = [first * REF_NOMINAL_S / ref]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT
        )
        ref_before, ref = ref, _reference_kernel_s()
        raw = float(out.stdout.strip().splitlines()[-1])
        samples.append(raw * REF_NOMINAL_S / (0.5 * (ref_before + ref)))
    return samples, ref


def _reference_kernel_s():
    """Seconds the fixed reference kernel takes right now.

    The kernel mixes what the workloads spend their time on: numpy ufuncs
    on small arrays, many small arrays and Python floats allocated and
    kept, float formatting and parsing, and sorts of a 1 MB array.
    """
    import numpy as np

    small = np.linspace(0.0, 1.0, 3200)
    big = (np.arange(131_072) * 40_503 % 131_071) / 131_071.0
    buffer = np.empty_like(big)
    t0 = time.perf_counter()
    total = 0.0
    for i in range(18000):
        total += float(np.abs(small * (1.0 + i * 1e-9) - 0.5).sum())
    # in rounds, so the kernel adds only a few MB to the peak RSS
    for _ in range(12):
        kept = []
        for i in range(400):
            row = np.arange(64, dtype=float) * (1.0 + i)
            kept.append((row, [float(x) for x in row[:50]]))
        lines = ["%.17g,%.17g" % (i * 0.1, i * 0.3) for i in range(2500)]
        total += sum(float(line.split(",")[1]) for line in lines)
        for _ in range(2):
            buffer[:] = big
            buffer.sort()
            total += float(buffer[::1000].sum())
    return time.perf_counter() - t0


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _layer_values(layers, rooted, counts, wall, scale):
    """One traced operation's per-layer figures, flat by metric name, with
    times in reference seconds."""
    flat = dict(counts)
    for name, layer in layers.items():
        flat[f"{name}.calls"] = layer["calls"]
        flat[f"{name}.s"] = layer["s"] * scale
        flat[f"{name}.self_s"] = layer["self_s"] * scale
    flat["trace.wall_s"] = wall * scale
    flat["trace.unattributed_s"] = (wall - rooted) * scale
    flat["trace.attributed_share"] = rooted / wall
    return flat


def main(argv=None):
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "probeflow" / "__init__.py").is_file():
        print(f"perfbench: no probeflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import probeflow
    import workloads

    if Path(probeflow.__file__).resolve().parent != SRC / "probeflow":
        print(f"perfbench: imported probeflow from {probeflow.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    factory, work_unit = workloads.WORKLOADS[args.workload]
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = factory(args.seed, scratch)
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        return _measure(args, workload, work_unit, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, workload, work_unit, setup_s):
    import numpy as np
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        ref = _reference_kernel_s()
        setup = [setup_s * REF_NOMINAL_S / ref]
    else:
        setup, ref = _setup_samples(args, setup_s)
    tracer = Tracer() if args.trace else None

    walls, raw_walls, rates, refs, traced = [], [], [], [ref], []
    attempted = failed = 0
    start = time.perf_counter()
    # with tracing, operations alternate untraced / traced, untraced first
    while attempted < 1 + args.trace or time.perf_counter() - start < args.seconds:
        tracing = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        if tracing:
            tracer.install()
        t = time.perf_counter()
        try:
            out = workload.op()
        except Exception:
            traceback.print_exc()
            out = None
        finally:
            wall = time.perf_counter() - t
            if tracing:
                tracer.uninstall()
        failures = ["raised"] if out is None else workload.check(out.value)
        if failures:
            failed += 1
            print(f"operation failed: {'; '.join(failures[:5])}", file=sys.stderr)
        layers = tracer.collect() if tracing else None
        work = None if out is None else (out.work, out.work_s)
        # the output is freed first so that peak RSS stays the library's
        out = None
        refs.append(_reference_kernel_s())
        scale = REF_NOMINAL_S / (0.5 * (refs[-2] + refs[-1]))
        if work is None:
            continue
        if tracing:
            traced.append(_layer_values(*layers, wall, scale))
        else:
            walls.append(wall * scale)
            raw_walls.append(wall)
            rates.append(work[0] / (work[1] * scale))

    values = {
        "wall_s": _median(walls),
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": _median(rates),
    }
    if args.trace:
        values["trace.untraced_wall_s"] = values["wall_s"]
        for name in {key for op in traced for key in op}:
            values[name] = _median([op.get(name, 0) for op in traced])
        values["trace.overhead_s"] = values.get("trace.wall_s", 0.0) - values["wall_s"]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec[kind]
    }

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "scan_workers": 1,
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"operations {attempted} (untraced {len(walls)}, traced {len(traced)})")
    if walls:
        print(
            f"untraced operation time: median {_median(walls):.6g} ref s over {len(walls)}, "
            f"min {min(walls):.6g}, max {max(walls):.6g}; raw median {_median(raw_walls):.6g} s"
        )
    print(
        f"reference kernel: median {_median(refs):.6g} s over {len(refs)} "
        f"(nominal {REF_NOMINAL_S} s)"
    )
    print("raw operation times (s): " + " ".join(f"{w:.4f}" for w in raw_walls))
    print("reference kernel times (s): " + " ".join(f"{r:.4f}" for r in refs))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{work_unit}_per_s {values['work_per_s']:.6g} 1/s")
    print(f"error_rate {failed / attempted:.6g} ratio")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
