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
its blend window is clipped at the domain's left end.
For each it prints ``<case> <sha256>``, the hash taken over the bytes of
every snapshot (time and field), the diagnostics rows, the boundary-flux
rows (the log's ``step, t, dt, rate_in, rate_out`` columns) and every
probe path.  With ``--bundle`` the hash is taken instead
over every file ``io.write_bundle`` writes for the run (name, size and
bytes, in ``OutputBundle.paths`` order), so the exports can be compared
byte for byte.

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

from probeflow import scenarios  # noqa: E402
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


def _fleet_scenario(seed, n_probes, first_start):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    scenario = module.fleet_scenario(seed, n_probes=n_probes)
    if first_start is None:
        return scenario
    first, *rest = scenario.probes
    moved = ProbeTrajectory(first_start, first.program, first.mollify_radius, first.observer)
    return scenario.with_overrides(probes=(moved, *rest))


def _mollified_scenario(name, radius):
    scenario = scenarios.get_scenario(name)
    probes = tuple(
        ProbeTrajectory(p.x0, p.program, mollify_radius=radius, observer=p.observer)
        for p in scenario.probes
    )
    return scenario.with_overrides(probes=probes)


def case_names():
    return scenarios.scenario_names() + list(MOLLIFIED) + list(FLEETS)


def load_case(name):
    """The scenario of case ``name`` and the overrides it runs with."""
    if name in MOLLIFIED:
        base, radius, t_end = MOLLIFIED[name]
        return _mollified_scenario(base, radius), {"t_end": t_end}
    if name in FLEETS:
        return _fleet_scenario(*FLEETS[name]), {}
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


def bundle_digest(result, scenario, overrides):
    """sha256 over every file :func:`write_bundle` writes for ``result``:
    each file's name and size, then its bytes."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out_dir:
        for path in write_bundle(out_dir, result, scenario, overrides).paths:
            blob = Path(path).read_bytes()
            h.update(f"{Path(path).name} {len(blob)}\n".encode())
            h.update(blob)
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="*", help="case names (default: every case)")
    parser.add_argument("--bundle", action="store_true",
                        help="hash the files write_bundle writes, not the arrays")
    args = parser.parse_args(argv)
    names = args.cases or case_names()
    unknown = [name for name in names if name not in case_names()]
    if unknown:
        print(f"unknown case(s) {', '.join(unknown)}; have {', '.join(case_names())}",
              file=sys.stderr)
        return 2
    for name in names:
        scenario, overrides = load_case(name)
        scenario = scenario.with_overrides(**overrides)
        result = scenarios.run_scenario(scenario)
        fingerprint = bundle_digest(result, scenario, overrides) if args.bundle else digest(result)
        print(name, fingerprint, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
