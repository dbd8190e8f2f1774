"""The package's export list: sorted, resolvable, and free of retired names;
the analytic estimates load on first access, never with a run's modules.

Names that nothing outside the tests called were retired; the names the
benchmark in ``perfbench/`` patches or reads stay, whether or not the
library itself calls them.
"""

import inspect
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import probeflow
from probeflow import estimates, fronttrack, fvsolver, inverse, io, model, riemann, scenarios

#: (owner, retired name): an attribute, dataclass field or function parameter
#: that went with its only callers, the tests, or had no reader at all.
RETIRED = [
    (fvsolver.RunResult, "mass_drift"),
    (fvsolver.RunResult, "field_at"),
    (fvsolver.RunResult, "snapshot_times"),
    (inverse.ScanResult, "best_error"),
    (inverse.ScanResult, "best_index"),
    (scenarios.Scenario, "to_json"),
    (model, "eval_speed_law"),
    (fronttrack, "quantize_datum"),
    (fronttrack, "ft_riemann"),
    (fronttrack.PiecewiseLinearFlux, "_fan"),
    (fronttrack.FrontTrackSolution, "final"),
    (model.AdmissibilityReport, "condition"),
    (inverse.ScanResult, "best_v"),
    (fvsolver.RunResult, "datum"),
    (fvsolver.RunResult, "scenario"),
    (fvsolver.run, "scenario"),
    (io.OutputBundle, "directory"),
]

#: The exports of :mod:`probeflow.estimates`, which the package imports on
#: first access.
ESTIMATES = [
    "Curve",
    "Lemma1Report",
    "LipschitzConstants",
    "ModulusReport",
    "PhiLimits",
    "PhiReport",
    "RescalingReport",
    "StabilityConstant",
    "eval_g",
    "lemma1_check",
    "lipschitz_constants",
    "mixed_difference_constant",
    "modulus_bound",
    "phi_epsilon",
    "phi_one_sided_limits",
    "rescaling_check",
    "sample_curve_integral",
    "stability_constant_C",
]

#: Modules that no run, scan, export or oracle needs: importing the package
#: and the modules the benchmark's workloads use loads none of them.
NOT_LOADED_BY_A_RUN = [
    "concurrent.futures",
    "multiprocessing",
    "probeflow.estimates",
    "probeflow.verify",
    "probeflow.cli",
]

#: (owner, attribute) the benchmark patches or reads by name.
KEPT_FOR_PERFBENCH = [
    (fvsolver, "lxf_step"),
    (fvsolver, "boundary_flux_rates"),
    (fvsolver.RunResult, "diagnostics"),
    (fvsolver.RunResult, "probe_path"),
    (riemann, "sample_solution"),
]


def members(owner):
    """The attributes of ``owner``, with its fields if it is a dataclass and
    its parameters if it is a function."""
    names = set(dir(owner))
    if is_dataclass(owner):
        names.update(f.name for f in fields(owner))
    if inspect.isfunction(owner):
        names.update(inspect.signature(owner).parameters)
    return names


def test_all_is_sorted_and_unique():
    assert probeflow.__all__ == sorted(set(probeflow.__all__))


def test_every_export_resolves():
    for name in probeflow.__all__:
        assert getattr(probeflow, name) is not None, name


@pytest.mark.parametrize("owner, name", RETIRED, ids=lambda v: getattr(v, "__name__", v))
def test_retired_names_are_gone(owner, name):
    assert name not in members(owner)
    assert name not in probeflow.__all__
    assert not hasattr(probeflow, name)


def test_error_functional_report_keeps_only_its_figures():
    # its times, speeds and traces tuples only copied probe_records
    assert [f.name for f in fields(inverse.ErrorFunctionalReport)] == ["value", "n_steps"]


@pytest.mark.parametrize(
    "owner, name", KEPT_FOR_PERFBENCH, ids=lambda v: getattr(v, "__name__", v)
)
def test_names_the_benchmark_uses_stay(owner, name):
    assert hasattr(owner, name)


@pytest.mark.parametrize("name", ESTIMATES)
def test_estimates_resolve_to_their_one_home(name):
    assert name in probeflow.__all__
    assert getattr(probeflow, name) is getattr(estimates, name)
    for old_home in (model, inverse, fronttrack):
        assert not hasattr(old_home, name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from probeflow import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == probeflow.__all__
    assert len(probeflow.__all__) == 72


def test_dir_lists_every_export():
    assert set(probeflow.__all__) <= set(dir(probeflow))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'phi_epsilonn'"):
        probeflow.phi_epsilonn


def test_a_run_loads_neither_the_process_pool_nor_the_estimates():
    # the modules perfbench/workloads.py imports, in a fresh interpreter
    code = (
        "import sys\n"
        "import probeflow\n"
        "from probeflow import fronttrack, inverse, io, model, riemann, scenarios\n"
        "print('\\n'.join(sys.modules))\n"
    )
    src = str(Path(probeflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    loaded = set(out.stdout.splitlines())
    assert "probeflow.scenarios" in loaded
    assert [name for name in NOT_LOADED_BY_A_RUN if name in loaded] == []
