"""The package's export list: sorted, resolvable, and free of retired names.

Names that nothing outside the tests called were retired; the names the
benchmark in ``perfbench/`` patches or reads stay, whether or not the
library itself calls them.
"""

from dataclasses import fields

import pytest

import probeflow
from probeflow import fronttrack, fvsolver, inverse, model, riemann, scenarios

#: (owner, retired attribute): each went with its only callers, the tests.
RETIRED = [
    (fvsolver.RunResult, "mass_drift"),
    (fvsolver.RunResult, "field_at"),
    (fvsolver.RunResult, "snapshot_times"),
    (inverse.ScanResult, "best_error"),
    (inverse.ScanResult, "best_index"),
    (scenarios.Scenario, "to_json"),
    (model, "eval_speed_law"),
    (fronttrack, "quantize_datum"),
]

#: (owner, attribute) the benchmark patches or reads by name.
KEPT_FOR_PERFBENCH = [
    (fvsolver, "lxf_step"),
    (fvsolver, "boundary_flux_rates"),
    (fvsolver.RunResult, "diagnostics"),
    (fvsolver.RunResult, "probe_path"),
    (riemann, "sample_solution"),
]


def test_all_is_sorted_and_unique():
    assert probeflow.__all__ == sorted(set(probeflow.__all__))


def test_every_export_resolves():
    for name in probeflow.__all__:
        assert getattr(probeflow, name) is not None, name


@pytest.mark.parametrize("owner, name", RETIRED, ids=lambda v: getattr(v, "__name__", v))
def test_retired_names_are_gone(owner, name):
    assert not hasattr(owner, name)
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
