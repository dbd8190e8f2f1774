"""The package's export list: sorted, resolvable, and free of retired names.

Names that nothing outside the tests called were retired; the names the
benchmark in ``perfbench/`` patches or reads stay, whether or not the
library itself calls them.
"""

import inspect
from dataclasses import fields, is_dataclass

import pytest

import probeflow
from probeflow import fronttrack, fvsolver, inverse, io, model, riemann, scenarios

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
