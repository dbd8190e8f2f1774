"""The benchmark's trace hooks still find every library function they wrap.

``perfbench/tracing.py`` patches module attributes of the library by name;
a refactor that renames or drops one of them would break ``--trace 1``.
The module is loaded from its file, read only.
"""

from probeflow import get_scenario, scenarios


def test_every_patch_resolves_and_records_spans(load_perfbench):
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()  # looks up every PATCHES attribute
    originals = [getattr(module, attr) for module, attr, _, _ in tracing.PATCHES]
    scenario = get_scenario("calibration").with_overrides(dx=0.01, t_end=0.05)
    tracer.install()
    try:
        result = scenarios.run_scenario(scenario)
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _, _ in tracing.PATCHES] == originals
    layers, rooted, counts = tracer.collect()
    steps = len(result.diagnostics)
    assert steps > 0 and rooted > 0.0
    assert layers["scenarios.run_scenario"]["calls"] == 1
    assert layers["fvsolver.run"]["calls"] == 1
    assert layers["fvsolver.cfl_dt"]["calls"] == steps
    # one flux evaluation per step: no coupled probe, so cfl_dt needs none
    assert layers["model.eval_flux"]["calls"] == steps
    assert counts["fvsolver.steps"] == steps
    assert counts["model.eval_flux.points"] == steps * (result.grid.n_cells + 2)
