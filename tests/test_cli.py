"""End-to-end tests for the command-line interface.

Every command runs in-process through ``main(argv)``; exported files land in
pytest temporaries and are parsed back with the package's own readers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeflow import cli, fvsolver
from probeflow.cli import main
from probeflow.io import (
    read_density_csv,
    read_diagnostics_csv,
    read_metadata,
    read_pgm,
    read_probe_csv,
)
from probeflow.scenarios import get_scenario, scenario_names

N_CELLS = 300  # riemann_phi domain [-1, 2] at the overridden dx


def _run_args(out_dir, *extra):
    """A cheap ``run`` invocation: coarse grid, short horizon."""
    return [
        "run",
        "riemann_phi",
        "--out",
        str(out_dir),
        "--dx",
        "0.01",
        "--T",
        "0.2",
        "--snapshots",
        "5",
        *extra,
    ]


def _overflowing_probe_scenario():
    """``fig_int32`` with its probe programmed to a speed ``w`` so large
    that ``2 w v`` overflows in the harmonic mean where the law's speed
    ``v`` exceeds 1.125; the probe's path stays finite, and the law's
    ``v_max = 2`` keeps the run within ``MAX_STEPS``."""
    data = get_scenario("fig_int32").to_dict()
    data["law"] = {"kind": "greenshields", "v_max": 2.0}
    data["probes"][0]["program"][0] = {"from": 0.0, "to": 1.0, "mode": "speed", "speed": 8e307}
    return data


class TestRunCommand:
    def test_bundle_files_exist(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(_run_args(out)) == 0
        for name in (
            "metadata.json",
            "density.csv",
            "probe.csv",
            "diagnostics.csv",
            "density.pgm",
        ):
            assert (out / name).is_file()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("riemann_phi: ")
        assert "steps to t=0.2" in lines[0]
        assert sum(line.startswith("wrote ") for line in lines) == 5

    def test_step_count_is_printed_and_stored_as_an_integer(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(_run_args(out)) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        steps = len(read_diagnostics_csv(out / "diagnostics.csv"))
        assert summary.startswith(f"riemann_phi: {steps} steps to t=0.2, ")
        text = (out / "metadata.json").read_text()
        assert f'"steps": {steps},' in text
        assert type(json.loads(text)["run"]["steps"]) is int

    def test_metadata_records_overrides_and_run(self, tmp_path):
        out = tmp_path / "bundle"
        main(_run_args(out))
        meta = read_metadata(out / "metadata.json")
        assert meta["package"] == "probeflow"
        assert meta["scenario"] == "riemann_phi"
        assert meta["overrides"] == {"dx": 0.01, "t_end": 0.2, "n_snapshots": 5}
        assert meta["reconstructed"]["domain"] is True
        assert all(flag is True for flag in meta["reconstructed"].values())
        assert meta["run"]["t_end"] == 0.2
        assert meta["run"]["steps"] > 0
        assert meta["outputs"]["heatmap"] == "density.pgm"

    def test_density_rows_group_into_snapshots(self, tmp_path):
        out = tmp_path / "bundle"
        main(_run_args(out))
        meta = read_metadata(out / "metadata.json")
        groups = read_density_csv(out / "density.csv")
        assert len(groups) == meta["run"]["n_snapshots"]
        assert groups[0][0] == 0.0
        assert groups[-1][0] == pytest.approx(0.2, abs=1e-12)
        for _, xs, rhos in groups:
            assert xs.size == N_CELLS
            assert np.all(np.diff(xs) > 0.0)
            assert np.all((rhos >= 0.0) & (rhos <= 1.0))

    def test_diagnostics_rows_match_step_count(self, tmp_path):
        out = tmp_path / "bundle"
        main(_run_args(out))
        meta = read_metadata(out / "metadata.json")
        rows = read_diagnostics_csv(out / "diagnostics.csv")
        assert len(rows) == meta["run"]["steps"]
        assert [row[0] for row in rows] == list(range(1, len(rows) + 1))
        assert rows[-1][3] == pytest.approx(meta["run"]["final_mass"], abs=1e-15)

    def test_probe_path_follows_its_program(self, tmp_path):
        out = tmp_path / "bundle"
        main(_run_args(out))
        paths = read_probe_csv(out / "probe.csv")
        assert set(paths) == {0}
        arr = paths[0]
        assert arr.shape[1] == 4
        # one row per step, logged at the step's start time
        meta = read_metadata(out / "metadata.json")
        assert arr.shape[0] == meta["run"]["steps"]
        assert arr[0, 0] == 0.0
        assert arr[-1, 0] < 0.2
        assert np.all(np.diff(arr[:, 0]) > 0.0)
        # the observer rides at exactly half speed from the origin
        np.testing.assert_allclose(arr[:, 1], 0.5 * arr[:, 0], atol=1e-12)
        np.testing.assert_array_equal(arr[:, 2], 0.5)
        assert np.all((arr[:, 3] >= 0.0) & (arr[:, 3] <= 1.0))

    def test_heatmap_shape_matches_density_table(self, tmp_path):
        out = tmp_path / "bundle"
        main(_run_args(out))
        image = read_pgm(out / "density.pgm")
        groups = read_density_csv(out / "density.csv")
        assert image.shape == (len(groups), N_CELLS)
        # darker where denser: the downstream 3/8 band beats the 1/8 band
        assert image[0, :50].mean() > image[0, -50:].mean()

    def test_no_image_skips_the_heatmap(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(_run_args(out, "--no-image")) == 0
        assert not (out / "density.pgm").exists()
        meta = read_metadata(out / "metadata.json")
        assert "heatmap" not in meta["outputs"]
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("wrote ") for line in lines) == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        main(_run_args(first))
        main(_run_args(second))
        for name in (
            "metadata.json",
            "density.csv",
            "probe.csv",
            "diagnostics.csv",
            "density.pgm",
        ):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_validation_warnings_go_to_stderr(self, tmp_path, capsys):
        data = get_scenario("riemann_phi").to_dict()
        data["probes"][0]["x0"] = data["domain"]["x_min"] + 0.1
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(data))
        args = _run_args(tmp_path / "x")
        args[1] = str(scenario_file)
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: probe 0 starts within the cutoff support of a boundary"
        ]
        assert captured.out.startswith("riemann_phi: ")

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        assert main(["run", "no_such_scenario", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_override_exits_2(self, tmp_path, capsys):
        args = _run_args(tmp_path / "x")
        args[args.index("0.01")] = "-0.01"
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("domain", "x_min"), "NaN"),
            (("domain", "dx"), "NaN"),
            (("cutoff", "outer"), "Infinity"),
        ],
    )
    def test_non_finite_scenario_json_exits_2(self, tmp_path, capsys, path, value):
        data = get_scenario("riemann_phi").to_dict()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = float(value)
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(data))
        assert value in scenario_file.read_text()
        assert main(["run", str(scenario_file), "--out", str(tmp_path / "x")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "path, value, fragment",
        [
            (("domain", "dx"), "abc", "malformed scenario data"),
            (("t_end",), "soon", "malformed scenario data"),
            (("n_snapshots",), 2.5, "whole number"),
            (("n_snapshots",), 1.5e300, "MAX_STEPS"),
        ],
    )
    def test_bad_scenario_json_number_exits_2(self, tmp_path, capsys, path, value, fragment):
        data = get_scenario("riemann_phi").to_dict()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(data))
        assert main(["run", str(scenario_file), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert not (tmp_path / "x").exists()

    def test_datum_without_values_exits_2(self, tmp_path, capsys):
        data = get_scenario("riemann_phi").to_dict()
        data["datum"] = {"background": 0.125, "blocks": [[0.0, 2.0, 0.375]]}
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(data))
        assert main(["run", str(scenario_file), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "malformed scenario data" in err
        assert not (tmp_path / "x").exists()

    def test_speed_left_at_full_density_exits_2(self, tmp_path, capsys):
        # a full road under v = 1 - rho / 2 next to a probe at speed 0.2:
        # rejected before the run, not as a CFL violation at its first step
        data = get_scenario("riemann_phi").to_dict()
        data["law"] = {"kind": "tabulated", "values": [1.0, 0.5]}
        data["datum"] = {"xs": [], "values": [1.0]}
        data["probes"][0].update(x0=0.5, observer=False)
        data["probes"][0]["program"][0]["speed"] = 0.2
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(data))
        assert main(["run", str(scenario_file), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "speed law must vanish at full density, got v(1) = 0.5" in err
        assert "CFL violation" not in err
        assert not (tmp_path / "x").exists()

    def test_nan_law_slope_exits_2(self, tmp_path, capsys, monkeypatch, nan_slope_law):
        # no JSON law has a NaN coefficient: the scenario comes from a user
        # subclass, rejected by validation rather than failing at dt = nan
        scenario = get_scenario("riemann_phi").with_overrides(law=nan_slope_law)
        monkeypatch.setattr(cli, "get_scenario", lambda name: scenario)
        assert main(["run", "riemann_phi", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: scenario invalid: speed law NaNSlopeLaw() has a non-finite flux "
            "slope over [0, 1]: nan"
        ]
        assert not (tmp_path / "x").exists()

    def test_non_finite_flux_slope_exits_3(self, tmp_path, capsys):
        # 2 w v overflows in the harmonic mean near the coupled probe: the
        # CFL bound must say so, not let the update fail as a CFL violation
        data = _overflowing_probe_scenario()
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(data))
        with np.errstate(all="ignore"):
            code = main(["run", str(scenario_file), "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert "blended-flux slope is not finite" in err and "CFL violation" not in err

    def test_non_finite_flux_slope_prints_only_the_error_line(self, tmp_path, capsys):
        # the overflowing blend is checked right after: no RuntimeWarning
        # from numpy may reach stderr ahead of the error line
        data = _overflowing_probe_scenario()
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(scenario_file), "--out", str(tmp_path / "x")])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: blended-flux slope is not finite near the coupled probes: nan"
        ]

    @pytest.mark.parametrize("end", [2.0, None], ids=["two_time_units", "open_ended"])
    def test_overflowing_program_displacement_exits_2_with_only_the_error_line(
        self, tmp_path, capsys, end
    ):
        # at 1.5e308 the closed-form path overflows, over [0, 2) or on the
        # open last piece: an invalid program, not a numerical failure
        data = get_scenario("fig_int32").to_dict()
        segment = {"from": 0.0, "to": end, "mode": "speed", "speed": 1.5e308}
        # an open-ended segment replaces the whole program
        rest = data["probes"][0]["program"][1:] if end is not None else []
        data["probes"][0]["program"] = [segment, *rest]
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(scenario_file), "--out", str(tmp_path / "x")])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not finite" in err[0]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "key, value", [("cfl", 1e-300), ("law", {"kind": "greenshields", "v_max": 1e200})]
    )
    def test_run_that_certainly_exceeds_max_steps_exits_2(self, tmp_path, capsys, key, value):
        # no step is longer than cfl * dx over the law's CFL speed, so these
        # runs need far more than MAX_STEPS steps: rejected before the first
        data = get_scenario("fig_int32").to_dict()
        data[key] = value
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(data))
        start = time.perf_counter()
        assert main(["run", str(scenario_file), "--out", str(tmp_path / "x")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "MAX_STEPS" in err
        assert not (tmp_path / "x").exists()

    def test_run_whose_field_arrays_exceed_the_memory_cap_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        # 45e6 cells stay under MAX_STEPS (at least 1.11e6 steps), but 50
        # snapshots and the working arrays would hold about 21 GB of float64:
        # rejected before the field is ever built
        calls = []

        def no_field(*args):
            calls.append(args)
            raise AssertionError("init_field called")

        monkeypatch.setattr(fvsolver, "init_field", no_field)
        out = tmp_path / "x"
        start = time.perf_counter()
        assert main(["run", "fig_int32", "--out", str(out), "--dx", "1e-7", "--T", "0.1"]) == 2
        assert time.perf_counter() - start < 1.0
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and "45000000 cells" in err and "MAX_FIELD_BYTES" in err
        assert not out.exists()

    @pytest.mark.parametrize("t_end", [1e-300, 1e-13])
    def test_snapshot_spacing_below_the_time_tolerance_exits_2(self, tmp_path, capsys, t_end):
        # 50 snapshots over t_end = 1e-13 are 2e-15 apart, too close for
        # the step loop to land on each
        data = get_scenario("riemann_phi").to_dict()
        data["t_end"] = t_end
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(data))
        assert main(["run", str(scenario_file), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "time tolerance" in err
        assert not (tmp_path / "x").exists()


def _number_paths(data, path=()):
    """The key path of every number in a scenario dict."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        is_number = isinstance(data, (int, float)) and not isinstance(data, bool)
        return [path] if is_number else []
    return [p for key, value in items for p in _number_paths(value, path + (key,))]


def _fuzz_base(name):
    """A built-in scenario's dict, its horizon capped at 0.3 and five
    snapshots, so that each exported run is cheap."""
    data = get_scenario(name).to_dict()
    data["t_end"] = min(data["t_end"], 0.3)
    data["n_snapshots"] = 5
    return data


#: Half the mutations set a special value, half scale the number.
_FUZZ_VALUES = st.one_of(
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300)),
    st.sampled_from(("half", "twice")),
)


@st.composite
def _mutated_scenarios(draw):
    """``calibration`` or ``fig_int32`` with two or three numbers set to a
    special value, or to half or twice their own."""
    data = _fuzz_base(draw(st.sampled_from(("calibration", "fig_int32"))))
    paths = draw(st.lists(st.sampled_from(_number_paths(data)), min_size=2, max_size=3, unique=True))
    for path in paths:
        container = data
        for key in path[:-1]:
            container = container[key]
        old, value = container[path[-1]], draw(_FUZZ_VALUES)
        container[path[-1]] = {"half": old / 2, "twice": old * 2}.get(value, value)
    return data


class TestRunFuzz:
    @settings(max_examples=150)
    @given(_mutated_scenarios())
    def test_mutated_scenarios_exit_cleanly_and_export_finite_numbers(
        self, tmp_path_factory, data
    ):
        # rejected with exit 2, a numerical failure with exit 3, or a run
        # whose export is finite and whose stderr holds only warnings
        tmp_path = tmp_path_factory.mktemp("fuzz")
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["run", str(scenario_file), "--out", str(tmp_path / "out")])
        assert code in (0, 2, 3), err.getvalue()
        if code != 0:
            return
        assert [str(w.message) for w in caught] == []
        assert all(line.startswith("warning: ") for line in err.getvalue().splitlines())
        for name in ("density.csv", "probe.csv", "diagnostics.csv"):
            text = (tmp_path / "out" / name).read_text()
            assert "nan" not in text and "inf" not in text, name


class TestPhiCommand:
    def test_single_parameter_row(self, capsys):
        assert main(["phi", "0.2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "eps,computed,reference,branch,agrees"
        assert len(lines) == 2
        eps, computed, reference, branch, agrees = lines[1].split(",")
        assert float(eps) == 0.2
        assert float(computed) == pytest.approx(float(reference), abs=1e-12)
        assert branch == "behind_shock"
        assert agrees == "true"

    def test_tied_parameter_is_flagged(self, capsys):
        assert main(["phi", "0"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.split(",")[3] == "on_shock"
        assert row.split(",")[4] == "false"

    def test_range_writes_inclusive_grid(self, tmp_path, capsys):
        path = tmp_path / "phi.csv"
        args = [
            "phi",
            "--range",
            str(-1.0 / 3.0),
            str(1.0 / 3.0),
            str(1.0 / 48.0),
            "--out",
            str(path),
        ]
        assert main(args) == 0
        assert f"wrote {path} (33 rows)" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert len(lines) == 34
        eps = [float(line.split(",")[0]) for line in lines[1:]]
        assert eps[0] == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert eps[-1] == pytest.approx(1.0 / 3.0, abs=1e-15)
        flags = {line.split(",")[4] for line in lines[1:]}
        assert flags == {"true", "false"}

    def test_limits_line(self, capsys):
        assert main(["phi", "0.1", "--limits"]) == 0
        out = capsys.readouterr().out
        assert "limits at eps=0: from below 0.125, from above 0.375, jump 0.25" in out

    @pytest.mark.parametrize("t_end", ["inf", "nan", "-1"])
    def test_bad_horizon_exits_2(self, t_end, capsys):
        assert main(["phi", "0.1", "--T", t_end, "--limits"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: t_end must be" in captured.err

    def test_no_parameters_exits_2(self, capsys):
        assert main(["phi"]) == 2
        assert "no family parameters given" in capsys.readouterr().err

    def test_bad_range_step_exits_2(self, capsys):
        assert main(["phi", "--range", "0", "1", "-0.1"]) == 2
        assert "step must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bounds", [("nan", "1", "0.1"), ("0", "inf", "1"), ("inf", "2", "1"), ("0", "1", "nan")]
    )
    def test_non_finite_range_exits_2(self, bounds, capsys):
        assert main(["phi", "--range", *bounds]) == 2
        assert "range bounds and step must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [("0", "1", "1e-300"), ("0", "1e308", "1e-300")])
    def test_range_of_too_many_values_exits_2(self, bounds, capsys):
        started = time.perf_counter()
        assert main(["phi", "--range", *bounds]) == 2
        assert time.perf_counter() - started < 5.0
        assert f"MAX_RANGE_VALUES={cli.MAX_RANGE_VALUES}" in capsys.readouterr().err

    def test_range_of_max_range_values_is_evaluated(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_RANGE_VALUES", 5)
        assert main(["phi", "--range", "0", "0.2", "0.05"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6
        assert main(["phi", "--range", "0", "0.25", "0.05"]) == 2
        assert "more than MAX_RANGE_VALUES=5 values" in capsys.readouterr().err

    def test_unwritable_out_exits_4(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "phi.csv"
        assert main(["phi", "0.1", "--out", str(target)]) == 4
        assert "i/o failure" in capsys.readouterr().err


class TestInverseCommand:
    @pytest.fixture()
    def coarse_json(self, tmp_path):
        scenario = get_scenario("calibration").with_overrides(dx=0.01, t_end=0.5)
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(scenario.to_dict()))
        return path

    def test_recovers_planted_slope(self, tmp_path, coarse_json, capsys):
        out = tmp_path / "inv"
        args = [
            "inverse",
            str(coarse_json),
            "--v-lo",
            "0.8",
            "--v-hi",
            "1.6",
            "-n",
            "4",
            "--refine",
            "12",
            "--out",
            str(out),
        ]
        assert main(args) == 0

        scan_lines = (out / "scan.csv").read_text().splitlines()
        assert scan_lines[0] == "v,E"
        assert len(scan_lines) == 6
        v_column = [float(line.split(",")[0]) for line in scan_lines[1:]]
        assert v_column == pytest.approx(list(np.linspace(0.8, 1.6, 5)), abs=1e-12)

        record = json.loads((out / "minimizer.json").read_text())
        assert record["scenario"] == "calibration"
        assert record["v_lo"] == 0.8 and record["v_hi"] == 1.6
        assert record["intervals"] == 4
        assert record["v_best"] == pytest.approx(1.2, abs=2e-3)
        assert record["e_best"] < 1e-3
        assert record["bracket"][0] <= record["v_best"] <= record["bracket"][1]
        assert record["refinement_evaluations"] == 14
        assert record["on_boundary"] is False

        text = capsys.readouterr().out
        assert "best slope 1.20" in text
        assert f"wrote {out / 'scan.csv'}" in text
        assert f"wrote {out / 'minimizer.json'}" in text

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_fewer_than_one_worker_exits_2(self, tmp_path, coarse_json, capsys, workers):
        out = tmp_path / "inv"
        args = ["inverse", str(coarse_json), "--workers", workers, "--out", str(out)]
        assert main(args) == 2
        assert "at least one worker" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_warnings_go_to_stderr(self, tmp_path, coarse_json, capsys):
        data = json.loads(coarse_json.read_text())
        data["probes"][0]["x0"] = data["domain"]["x_min"] + 0.1
        coarse_json.write_text(json.dumps(data))
        args = ["inverse", str(coarse_json), "-n", "1", "--refine", "0"]
        assert main(args + ["--out", str(tmp_path / "inv")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: probe 0 starts within the cutoff support of a boundary"
        ]

    def test_reversed_bracket_exits_2(self, capsys):
        assert main(["inverse", "--v-lo", "1.5", "--v-hi", "1.0"]) == 2
        assert "need v-lo < v-hi" in capsys.readouterr().err


class TestVerifyCommand:
    def test_suite_report_json(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["verify", "phi", "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["passed"] is True
        (suite,) = report["suites"]
        assert suite["name"] == "phi"
        assert suite["passed"] is True
        assert suite["checks"]
        assert all(check["passed"] for check in suite["checks"])
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert out.splitlines()[-1] == "result: PASS"

    def test_compact_report_on_stdout(self, capsys):
        assert main(["verify", "phi"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "result: PASS"
        report = json.loads(lines[-2])
        assert report["passed"] is True

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "no_such_suite"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["lemma1", "conservation", "all"])
    def test_negative_seed_exits_2_before_any_run(self, suite, capsys):
        started = time.perf_counter()
        assert main(["verify", suite, "--seed", "-1"]) == 2
        assert time.perf_counter() - started < 1.0
        assert "seed must be a non-negative integer" in capsys.readouterr().err


class TestListScenarios:
    def test_lists_every_builtin(self, capsys):
        assert main(["list-scenarios"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == scenario_names()
        assert all(": " in line for line in lines)


def test_missing_command_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
