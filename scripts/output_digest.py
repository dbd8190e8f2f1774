"""Fingerprint the simulation outputs of a source tree: one sha256 per case.

    python scripts/output_digest.py             # every case
    python scripts/output_digest.py calibration fleet_7
    python scripts/output_digest.py --bundle    # the exported files instead

Each case is one finite-volume run.  The cases are every built-in scenario
(``fig_questa`` shortened to ``t_end=3``); ``fig_questa_mollified``, whose
two probes smooth their speed jumps over ``mollify_radius=0.25`` and which
runs to ``t_end=5.5``, across the ramp on [4.75, 5.25], so the mollified
probe path is exercised; and the benchmark's seeded fleet roads ``fleet_7``
and ``fleet_31`` (``perfbench/workloads.fleet_scenario``), plus
``fleet_7x40``: seed 7 with 40 probes, whose 0.175-wide slots are narrower
than the 0.3-wide cutoff support, so neighbouring supports overlap; and
``fleet_7_clipped``: seed 7 with its first, traffic-coupled probe started
at ``x = 0.1``, within the cutoff's ``outer = 0.15`` of ``x_min = 0``, so
its blend window is clipped at the domain's left end.  Two coupled cases
run under a law that is not Greenshields: ``fig_int32_eps``, ``fig_int32``
under ``EpsilonLaw(0.3)``, and ``fig_int3_tabulated``, ``fig_int3`` under
a concave ``TabulatedLaw`` that ends at 0.  ``fig_int32_clipped`` is
``fig_int32`` with its one, traffic-coupled probe started at ``x = -0.49``,
within the cutoff's ``outer = 0.03`` of ``x_min = -0.5``, so that probe's
one blend window is clipped at the domain's left end.
For each it prints ``<case> <sha256>``, the hash taken over the bytes of
every snapshot (time and field), the diagnostics rows, the boundary-flux
rows (the log's ``step, t, dt, rate_in, rate_out`` columns) and every
probe path.  With ``--bundle`` the hash is taken instead
over every file ``io.write_bundle`` writes for the run (name, size and
bytes, in ``OutputBundle.paths`` order), so the exports can be compared
byte for byte, and a second line ``<case>:read <sha256>`` hashes what
``io.read_density_csv``, ``io.read_probe_csv``, ``io.read_diagnostics_csv``
and ``io.read_pgm`` return for those files, so the read path can be
compared array for array.

Two more cases, ``oracle_7`` and ``oracle_31``, are front tracking, not
finite-volume runs: they track the benchmark's seeded 50-jump dyadic datum
(``perfbench/workloads.oracle_datum``) to ``t = 2``.  Their hash covers the
bits that are exact: the epoch count, each epoch's states and front speeds,
and each collision's pair of states.  Epoch times and front positions carry
roundoff, so they are left out.  They have no exported files, so
``--bundle`` skips them.

The case ``riemann_7`` solves Riemann problems exactly: every jump of the
seed-7 oracle datum under ``Greenshields(1.0)``, then the jumps of
``RIEMANN_JUMPS`` under ``EpsilonLaw(0.2)`` and under
``fig_int3_tabulated``'s table, whose fans start and end at its knots and
cross the slope gaps of its kinks.  Its hash covers each solution's kind,
shock speed or fan edges, and its samples at the benchmark's similarity
coordinates (``perfbench/workloads.Oracle.XI``).  ``--bundle`` skips it too.

Run it on two checkouts and diff the outputs: a refactor that keeps outputs
bit-for-bit equal shows no difference.  The library is imported from the
``src/`` directory next to this script, and ``perfbench/workloads.py`` is
loaded from its file, unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from probeflow import (  # noqa: E402
    EpsilonLaw,
    Greenshields,
    TabulatedLaw,
    from_datum,
    ft_evolve,
    scenarios,
    solve_riemann,
)
from probeflow import io  # noqa: E402
from probeflow.io import write_bundle  # noqa: E402
from probeflow.model import ProbeTrajectory  # noqa: E402

#: Overrides that keep a built-in scenario's run short.
OVERRIDES = {"fig_questa": {"t_end": 3.0}}

#: Mollified cases: name -> (built-in scenario, mollify_radius, t_end).
MOLLIFIED = {"fig_questa_mollified": ("fig_questa", 0.25, 5.5)}

#: Fleet road cases: name -> (seed, number of probes, start of the first
#: probe, or None for the seeded start).
FLEETS = {
    "fleet_7": (7, 8, None),
    "fleet_31": (31, 8, None),
    "fleet_7x40": (7, 40, None),
    "fleet_7_clipped": (7, 8, 0.1),
}

#: Cases under another speed law: name -> (built-in scenario, law).
LAWS = {
    "fig_int32_eps": ("fig_int32", EpsilonLaw(0.3)),
    "fig_int3_tabulated": ("fig_int3", TabulatedLaw([1.0, 0.9375, 0.8125, 0.5625, 0.0])),
}

#: Cases whose first probe starts elsewhere: name -> (built-in scenario,
#: start of its first probe).
STARTS = {"fig_int32_clipped": ("fig_int32", -0.49)}

#: Front-tracking cases: name -> seed of the benchmark's oracle datum.
ORACLES = {"oracle_7": 7, "oracle_31": 31}

#: Exact Riemann cases: name -> seed of the benchmark's oracle datum.
RIEMANNS = {"riemann_7": 7}

#: Jumps a Riemann case also solves under each of :data:`RIEMANN_LAWS`.
RIEMANN_JUMPS = ((1.0, 0.0), (0.75, 0.25), (0.625, 0.125), (0.25, 0.75))

#: The laws other than Greenshields' of a Riemann case.
RIEMANN_LAWS = (EpsilonLaw(0.2), LAWS["fig_int3_tabulated"][1])


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _first_probe_at(scenario, start):
    first, *rest = scenario.probes
    moved = ProbeTrajectory(start, first.program, first.mollify_radius, first.observer)
    return scenario.with_overrides(probes=(moved, *rest))


def _fleet_scenario(seed, n_probes, first_start):
    scenario = _workloads().fleet_scenario(seed, n_probes=n_probes)
    if first_start is None:
        return scenario
    return _first_probe_at(scenario, first_start)


def _mollified_scenario(name, radius):
    scenario = scenarios.get_scenario(name)
    probes = tuple(
        ProbeTrajectory(p.x0, p.program, mollify_radius=radius, observer=p.observer)
        for p in scenario.probes
    )
    return scenario.with_overrides(probes=probes)


def run_case_names():
    return (
        scenarios.scenario_names() + list(MOLLIFIED) + list(FLEETS) + list(LAWS) + list(STARTS)
    )


def case_names():
    return run_case_names() + list(ORACLES) + list(RIEMANNS)


def load_case(name):
    """The scenario of case ``name`` and the overrides it runs with."""
    if name in MOLLIFIED:
        base, radius, t_end = MOLLIFIED[name]
        return _mollified_scenario(base, radius), {"t_end": t_end}
    if name in FLEETS:
        return _fleet_scenario(*FLEETS[name]), {}
    if name in LAWS:
        base, law = LAWS[name]
        return scenarios.get_scenario(base).with_overrides(law=law), {}
    if name in STARTS:
        base, start = STARTS[name]
        return _first_probe_at(scenarios.get_scenario(base), start), {}
    return scenarios.get_scenario(name), OVERRIDES.get(name, {})


def digest(result):
    """sha256 over a run's snapshots, diagnostics, boundary flux and probe
    paths."""
    h = hashlib.sha256()
    for t, field in result.snapshots:
        h.update(np.float64(t).tobytes())
        h.update(np.ascontiguousarray(field, dtype=float).tobytes())
    h.update(np.asarray(result.diagnostics, dtype=float).tobytes())
    h.update(np.asarray(result.log[:, [0, 1, 2, 6, 7]], dtype=float).tobytes())
    for path in result.probe_paths:
        h.update(np.ascontiguousarray(path, dtype=float).tobytes())
    return h.hexdigest()


def track_oracle(name):
    """Front tracking of oracle case ``name``, as the benchmark runs it."""
    workloads = _workloads()
    datum = workloads.oracle_datum(ORACLES[name])
    state = from_datum(Greenshields(1.0), datum, workloads.ORACLE_N)
    return ft_evolve(state, workloads.Oracle.T_END)


def oracle_digest(solution):
    """sha256 over a tracked solution's exact bits: the epoch count, each
    epoch's states and speeds, and each collision's states."""
    h = hashlib.sha256()
    h.update(np.int64(len(solution.epochs)).tobytes())
    for epoch in solution.epochs:
        h.update(np.int64(epoch.n_fronts).tobytes())
        h.update(epoch.vals.tobytes())
        h.update(epoch.speeds.tobytes())
    h.update(np.asarray([c[2:] for c in solution.collisions], dtype=float).tobytes())
    return h.hexdigest()


def solve_riemanns(name):
    """The Riemann solutions of case ``name``: every jump of its oracle
    datum under Greenshields' law, then :data:`RIEMANN_JUMPS` under each of
    :data:`RIEMANN_LAWS`."""
    values = _workloads().oracle_datum(RIEMANNS[name]).values
    problems = [(Greenshields(1.0), *jump) for jump in zip(values, values[1:])]
    problems += [(law, *jump) for law in RIEMANN_LAWS for jump in RIEMANN_JUMPS]
    return [solve_riemann(*problem) for problem in problems]


def riemann_digest(solutions, xi):
    """sha256 over each solution's kind, shock speed and fan edges (NaN
    where it has none), and its samples at ``xi``."""
    h = hashlib.sha256()
    for solution in solutions:
        h.update(solution.kind.encode())
        edges = [solution.speed, *(solution.fan or (None, None))]
        h.update(np.array(edges, dtype=float).tobytes())
        h.update(solution.sample(xi).tobytes())
    return h.hexdigest()


def read_digest(bundle):
    """sha256 over what the readers return for ``bundle``'s files: each
    snapshot's time, cell count, centres and densities; each probe's id,
    row count and rows; the diagnostics rows (``step`` as a float); and the
    heatmap's shape and pixels."""
    h = hashlib.sha256()
    for t, xs, rhos in io.read_density_csv(bundle.density_csv):
        h.update(np.array([t, len(xs)], dtype=float).tobytes())
        h.update(xs.tobytes())
        h.update(rhos.tobytes())
    for pid, path in io.read_probe_csv(bundle.probe_csv).items():
        h.update(np.array([pid, len(path)], dtype=float).tobytes())
        h.update(path.tobytes())
    h.update(np.array(io.read_diagnostics_csv(bundle.diagnostics_csv), dtype=float).tobytes())
    image = io.read_pgm(bundle.heatmap)
    h.update(np.array(image.shape, dtype=float).tobytes())
    h.update(image.tobytes())
    return h.hexdigest()


def bundle_digests(result, scenario, overrides):
    """Two sha256 of the bundle :func:`write_bundle` writes for ``result``:
    one over every file (each file's name and size, then its bytes), and
    :func:`read_digest` of the same files."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out_dir:
        bundle = write_bundle(out_dir, result, scenario, overrides)
        for path in bundle.paths:
            blob = Path(path).read_bytes()
            h.update(f"{Path(path).name} {len(blob)}\n".encode())
            h.update(blob)
        return h.hexdigest(), read_digest(bundle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="*", help="case names (default: every case)")
    parser.add_argument("--bundle", action="store_true",
                        help="hash the files write_bundle writes, not the arrays")
    args = parser.parse_args(argv)
    known = run_case_names() if args.bundle else case_names()
    names = args.cases or known
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown case(s) {', '.join(unknown)}; have {', '.join(known)}",
              file=sys.stderr)
        return 2
    for name in names:
        if name in ORACLES:
            print(name, oracle_digest(track_oracle(name)), flush=True)
            continue
        if name in RIEMANNS:
            print(name, riemann_digest(solve_riemanns(name), _workloads().Oracle.XI), flush=True)
            continue
        scenario, overrides = load_case(name)
        scenario = scenario.with_overrides(**overrides)
        result = scenarios.run_scenario(scenario)
        if not args.bundle:
            print(name, digest(result), flush=True)
            continue
        files, read = bundle_digests(result, scenario, overrides)
        print(name, files, flush=True)
        print(f"{name}:read", read, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
