"""The benchmark in ``perfbench/`` still runs on the library and passes its
own gates.

``perfbench/workloads.py`` calls the library with fixed names and options
(``scan_E(..., workers=1)``, ``RunResult.diagnostics``, ...) and
``perfbench/tracing.py`` patches module attributes by name.  A library
change that breaks either would end a benchmark run in a failed run or
incorrect outputs; here it fails a test instead.  Both files are loaded
from their paths, read only: no bytecode cache is written next to them.
"""

import pytest


@pytest.fixture
def workloads(load_perfbench):
    return load_perfbench("workloads")


def test_every_traced_name_resolves(load_perfbench):
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()  # looks up every PATCHES attribute
    assert tracer.collect() == ({}, 0.0, {})


@pytest.mark.parametrize("name", ["queue", "fleet", "calibrate", "oracle"])
def test_workload_operation_passes_its_gates(workloads, tmp_path, name):
    factory, _ = workloads.WORKLOADS[name]
    workload = factory(7, str(tmp_path))
    output = workload.op()
    assert output.work > 0 and output.work_s > 0.0
    assert workload.check(output.value) == []


def test_every_workload_is_covered(workloads):
    assert sorted(workloads.WORKLOADS) == ["calibrate", "fleet", "oracle", "queue"]
