"""``scripts/output_digest.py``, the bit-for-bit output gate for refactors,
still runs and hashes what it says it hashes."""

import importlib.util
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from probeflow import EpsilonLaw, get_scenario, run_scenario, scenario_names
from probeflow.fronttrack import FrontState

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibration_digest_from_the_command_line():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "calibration"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()
    assert len(out) == 2 and out[0] == "calibration"
    digest = _load_script().digest(run_scenario(get_scenario("calibration")))
    assert out[1] == digest and len(digest) == 64


def test_cases_cover_every_builtin_and_both_fleet_roads():
    script = _load_script()
    assert script.case_names() == scenario_names() + [
        "fig_questa_mollified",
        "fleet_7",
        "fleet_31",
        "fleet_7x40",
        "fleet_7_clipped",
        "fig_int32_eps",
        "fig_int3_tabulated",
        "oracle_7",
        "oracle_31",
        "riemann_7",
    ]
    assert script.run_case_names() == script.case_names()[:-3]
    scenario, overrides = script.load_case("fig_questa")
    assert scenario.name == "fig_questa" and overrides == {"t_end": 3.0}
    # both probes ramp their speeds, and the run crosses the ramp on [4.75, 5.25]
    scenario, overrides = script.load_case("fig_questa_mollified")
    assert scenario.name == "fig_questa" and overrides == {"t_end": 5.5}
    plain = get_scenario("fig_questa").probes
    assert len(scenario.probes) == len(plain) == 2
    for probe, base in zip(scenario.probes, plain):
        assert probe.mollify_radius == 0.25
        assert (probe.x0, probe.program, probe.observer) == (base.x0, base.program, base.observer)
    assert {4.75, 5.25} <= set(scenario.probes[0].boundary_times())
    scenario, overrides = script.load_case("fleet_31")
    assert scenario.name == "fleet_31" and overrides == {}
    assert len(scenario.flux_model().probes) == 8
    # 40 probes on the same road: slots narrower than a cutoff support
    scenario, overrides = script.load_case("fleet_7x40")
    assert scenario.name == "fleet_7" and overrides == {}
    assert len(scenario.flux_model().probes) == 40
    # the first, traffic-coupled probe starts within outer of x_min, so its
    # blend window is clipped at the left end; the other probes are fleet_7's
    scenario, overrides = script.load_case("fleet_7_clipped")
    seeded, _ = script.load_case("fleet_7")
    first, *rest = scenario.probes
    assert scenario.name == "fleet_7" and overrides == {}
    assert 0.0 < first.x0 - scenario.x_min < scenario.cutoff.outer
    assert first.program == seeded.probes[0].program and not first.is_exogenous
    assert [(p.x0, p.program) for p in rest] == [(p.x0, p.program) for p in seeded.probes[1:]]
    # two coupled runs under laws that are not Greenshields, one a table
    for name, base in (("fig_int32_eps", "fig_int32"), ("fig_int3_tabulated", "fig_int3")):
        scenario, overrides = script.load_case(name)
        plain = get_scenario(base)
        assert scenario.name == base and overrides == {}
        assert scenario.law != plain.law
        assert [(p.x0, p.program) for p in scenario.probes] == [
            (p.x0, p.program) for p in plain.probes
        ]
        assert not scenario.flux_model().speed_law.failed_conditions
    assert script.load_case("fig_int32_eps")[0].law == EpsilonLaw(0.3)
    assert script.load_case("fig_int3_tabulated")[0].law.values[-1] == 0.0


def test_digest_sees_every_output():
    script = _load_script()
    result = run_scenario(get_scenario("calibration").with_overrides(t_end=0.05))
    base = script.digest(result)
    t, field = result.snapshots[-1]
    nudged = field.copy()
    nudged[0] = np.nextafter(field[0], 2.0)  # one ulp
    result.snapshots[-1] = (t, nudged)
    assert script.digest(result) != base
    result.snapshots[-1] = (t, field)
    assert script.digest(result) == base
    for column in range(result.log.shape[1]):
        log = result.log.copy()
        log[0, column] += 1.0
        assert script.digest(replace(result, log=log)) != base


def test_unknown_case_exits_2(capsys):
    assert _load_script().main(["no_such_case"]) == 2
    assert "unknown case" in capsys.readouterr().err
    assert _load_script().main(["--bundle", "no_such_case"]) == 2
    # front tracking and Riemann solutions export no files
    assert _load_script().main(["--bundle", "oracle_7"]) == 2
    assert _load_script().main(["--bundle", "riemann_7"]) == 2


def test_oracle_digest_from_the_command_line():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "oracle_31"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()
    script = _load_script()
    solution = script.track_oracle("oracle_31")
    assert len(solution.collisions) > 1000
    assert out == ["oracle_31", script.oracle_digest(solution)]


def test_riemann_digest_from_the_command_line():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "riemann_7"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()
    script = _load_script()
    solutions = script.solve_riemanns("riemann_7")
    assert out == ["riemann_7", script.riemann_digest(solutions, script._workloads().Oracle.XI)]
    # every jump of the 51-state datum, then four jumps under each other law
    assert len(solutions) == 50 + 4 * 2
    assert {s.kind for s in solutions[:50]} == {"shock", "rarefaction"}
    assert [s.law for s in solutions[50:]] == [law for law in script.RIEMANN_LAWS for _ in range(4)]


def test_riemann_digest_sees_every_edge_and_sample():
    script = _load_script()
    solutions = script.solve_riemanns("riemann_7")[-4:]  # under the table
    xi = np.linspace(-1.1, 1.1, 41)
    base = script.riemann_digest(solutions, xi)
    fan, shock = solutions[1], solutions[3]
    assert (fan.kind, shock.kind) == ("rarefaction", "shock")
    lo, hi = fan.fan
    changed = [
        replace(fan, fan=(np.nextafter(lo, -2.0), hi)),
        replace(fan, fan=(lo, np.nextafter(hi, 2.0))),
        replace(fan, rho_r=np.nextafter(fan.rho_r, 1.0)),  # moves the samples only
    ]
    for solution in changed:
        assert script.riemann_digest([solutions[0], solution, *solutions[2:]], xi) != base
    nudged = replace(shock, speed=np.nextafter(shock.speed, 2.0))
    assert script.riemann_digest([*solutions[:3], nudged], xi) != base


class _Solution:
    """The parts of a tracked solution that ``oracle_digest`` reads."""

    def __init__(self, epochs, collisions):
        self.epochs = epochs
        self.collisions = collisions


def test_oracle_digest_sees_every_exact_bit_and_no_position():
    script = _load_script()
    tracked = script.track_oracle("oracle_7")
    epochs, collisions = list(tracked.epochs[:40]), tracked.collisions[:39]
    base = script.oracle_digest(_Solution(epochs, collisions))
    assert script.oracle_digest(_Solution(epochs[:-1], collisions)) != base
    last = epochs[-1]
    for name in ("vals", "speeds"):
        nudged = FrontState(
            last.flux, last.time, last.xs.copy(), last.vals.copy(), last.speeds.copy()
        )
        values = getattr(nudged, name)
        values[-1] = np.nextafter(values[-1], 2.0)  # one ulp
        assert script.oracle_digest(_Solution(epochs[:-1] + [nudged], collisions)) != base
    t, x, rho_l, rho_r = collisions[-1]
    for changed in ((t, x, rho_l, rho_r + 2.0**-8), (t, x, rho_l - 2.0**-8, rho_r)):
        assert script.oracle_digest(_Solution(epochs, collisions[:-1] + [changed])) != base
    # times and positions carry roundoff, so the digest leaves them out
    moved = FrontState(last.flux, last.time + 1e-13, last.xs + 1e-13, last.vals, last.speeds)
    shifted = collisions[:-1] + [(t + 1e-13, x + 1e-13, rho_l, rho_r)]
    assert script.oracle_digest(_Solution(epochs[:-1] + [moved], shifted)) == base


def test_bundle_digest_from_the_command_line():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--bundle", "calibration"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()
    assert len(out) == 4 and out[0] == "calibration" and out[2] == "calibration:read"
    scenario = get_scenario("calibration")
    script = _load_script()
    files, read = script.bundle_digests(run_scenario(scenario), scenario, {})
    assert [out[1], out[3]] == [files, read] and len(files) == len(read) == 64
    assert files != script.digest(run_scenario(scenario))


def test_bundle_digest_sees_every_file(monkeypatch):
    script = _load_script()
    scenario = get_scenario("calibration").with_overrides(t_end=0.05)
    result = run_scenario(scenario)
    base = script.bundle_digests(result, scenario, {"t_end": 0.05})[0]
    assert script.bundle_digests(result, scenario, {"t_end": 0.05})[0] == base
    # metadata.json records the overrides
    assert script.bundle_digests(result, scenario, {})[0] != base
    write_bundle = script.write_bundle
    for index in range(5):  # metadata, the three tables, the heatmap

        def flip_last_bit(*args, index=index):
            bundle = write_bundle(*args)
            path = Path(bundle.paths[index])
            blob = path.read_bytes()
            path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
            return bundle

        monkeypatch.setattr(script, "write_bundle", flip_last_bit)
        assert script.bundle_digests(result, scenario, {"t_end": 0.05})[0] != base, index


def test_read_digest_sees_every_reader(monkeypatch):
    script = _load_script()
    scenario = get_scenario("fig_int3").with_overrides(t_end=0.05)
    result = run_scenario(scenario)
    base = script.bundle_digests(result, scenario, {})[1]
    assert script.bundle_digests(result, scenario, {})[1] == base
    nudges = {
        "read_density_csv": lambda snaps: snaps[:-1] + [(*snaps[-1][:2], -snaps[-1][2])],
        "read_probe_csv": lambda paths: {pid: path[::-1] for pid, path in paths.items()},
        "read_diagnostics_csv": lambda rows: rows[:-1],
        "read_pgm": lambda image: image.T,  # same pixels, other shape
    }
    for name, nudge in nudges.items():
        reader = getattr(script.io, name)
        with monkeypatch.context() as patch:
            patch.setattr(script.io, name, lambda p, reader=reader, nudge=nudge: nudge(reader(p)))
            assert script.bundle_digests(result, scenario, {})[1] != base, name
