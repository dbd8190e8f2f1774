"""Scenario registry, validation findings, JSON round-trips, end-to-end runs."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from probeflow import (
    CutoffProfile,
    DomainError,
    ExogenousSpeed,
    Greenshields,
    ModelCoupled,
    PiecewiseConstant,
    ProbeTrajectory,
    Scenario,
    TabulatedLaw,
    get_scenario,
    lipschitz_constants,
    run,
    run_scenario,
    scenario_names,
    stability_constant_C,
)
from probeflow.verify import stability_setup


def toy_scenario(**overrides):
    base = Scenario(
        name="toy",
        description="two-state jump on a short road",
        x_min=0.0,
        x_max=1.0,
        dx=0.01,
        t_end=0.5,
        law=Greenshields(1.0),
        datum=PiecewiseConstant([0.5], [0.2, 0.4]),
    )
    return base.with_overrides(**overrides) if overrides else base


class TestRegistry:
    def test_names_are_sorted_and_complete(self):
        names = scenario_names()
        assert names == sorted(names)
        assert set(names) == {
            "calibration",
            "fig_int3",
            "fig_int32",
            "fig_int33",
            "fig_questa",
            "riemann_phi",
        }

    def test_instances_are_fresh(self):
        a = get_scenario("fig_questa")
        b = get_scenario("fig_questa")
        assert a is not b
        assert a.name == b.name == "fig_questa"
        assert a.probes[0] is not b.probes[0]

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            get_scenario("no_such_scenario")

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_builtin_is_error_free(self, name):
        assert get_scenario(name).errors() == []

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_builtin_declares_reconstructed_parameters(self, name):
        scenario = get_scenario(name)
        assert scenario.reconstructed
        assert "domain" in scenario.reconstructed


class TestOverrides:
    def test_with_overrides_copies(self):
        base = toy_scenario()
        changed = base.with_overrides(dx=0.02, t_end=1.0)
        assert changed.dx == 0.02 and changed.t_end == 1.0
        assert base.dx == 0.01 and base.t_end == 0.5
        assert changed.name == base.name


class TestValidation:
    def test_clean_scenario(self):
        assert toy_scenario().validate() == []

    def test_non_integer_cell_count(self):
        findings = toy_scenario(dx=0.013).validate()
        assert any(f.level == "error" and "cells" in f.message for f in findings)

    def test_nonpositive_horizon(self):
        findings = toy_scenario(t_end=0.0).validate()
        assert any(f.level == "error" and "t_end" in f.message for f in findings)

    def test_datum_jump_outside_domain(self):
        findings = toy_scenario(
            datum=PiecewiseConstant([2.0], [0.2, 0.4])
        ).validate()
        assert any(f.level == "error" and "jump" in f.message for f in findings)

    def test_probe_outside_domain_is_an_error(self):
        probe = ProbeTrajectory(1.5, (ExogenousSpeed(0.0, None, 0.5),))
        findings = toy_scenario(probes=(probe,)).validate()
        assert any(f.level == "error" and "probe" in f.message for f in findings)

    def test_probe_near_boundary_is_a_warning(self):
        probe = ProbeTrajectory(0.1, (ExogenousSpeed(0.0, None, 0.5),))
        scenario = toy_scenario(probes=(probe,))
        findings = scenario.validate()
        assert any(f.level == "warning" for f in findings)
        assert scenario.errors() == []

    @pytest.mark.parametrize("name", ["x_min", "x_max", "dx", "t_end", "cfl"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_are_errors(self, name, value):
        messages = [f.message for f in toy_scenario(**{name: value}).errors()]
        assert f"{name} must be finite, got {value}" in messages

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"dx": 0.0}, "dx must be positive"),
            ({"dx": -0.01}, "dx must be positive"),
            ({"cfl": 0.0}, "cfl must lie in (0, 1]"),
            ({"cfl": 1.5}, "cfl must lie in (0, 1]"),
            ({"x_min": 1.0}, "empty domain"),
            ({"x_min": -1e308, "x_max": 1e308}, "no finite number of cells"),
            ({"dx": 1e-320}, "no finite number of cells"),
        ],
        ids=[
            "dx-zero",
            "dx-negative",
            "cfl-zero",
            "cfl-above-one",
            "empty-domain",
            "extent-overflow",
            "cell-count-overflow",
        ],
    )
    def test_out_of_range_numbers_are_errors(self, overrides, fragment):
        messages = [f.message for f in toy_scenario(**overrides).errors()]
        assert any(fragment in m for m in messages), messages

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dx": 1.0},
            {"n_snapshots": 0},
            {"t_end": 1e-12, "n_snapshots": 1000},
            {"dx": 1e-7},
            {"t_end": 1e6},
            {"n_snapshots": 2.5},
        ],
        ids=[
            "three-cells",
            "no-snapshots",
            "dense-snapshots",
            "tiny-dx",
            "long-horizon",
            "fractional-snapshots",
        ],
    )
    def test_errors_carry_the_runs_own_message(self, overrides):
        # validate() reports the check run_scenario makes, in its words
        scenario = get_scenario("calibration").with_overrides(**overrides)
        messages = [f.message for f in scenario.errors()]
        assert len(messages) == 1
        with pytest.raises(DomainError) as raised:
            run(scenario.flux_model(), scenario.grid(), scenario.datum, scenario.t_end,
                n_snapshots=scenario.n_snapshots, cfl=scenario.cfl)
        assert messages == [str(raised.value)]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"x_min": math.nan}, "x_min must be finite, got nan"),
            ({"x_max": -2.0}, "empty domain [-1.0, -2.0]"),
        ],
        ids=["nan-end", "empty-domain"],
    )
    def test_without_a_grid_only_the_grids_error(self, overrides, message):
        # no domain to place the probe start in, or to hold the cutoff
        scenario = get_scenario("calibration").with_overrides(**overrides)
        assert scenario.probes
        assert [(f.level, f.message) for f in scenario.validate()] == [("error", message)]

    def test_speed_left_at_full_density_is_the_runs_error(self):
        # under v = 1 - rho / 2 a full road still flows: next to a probe at
        # speed 0.2 the first update left [0, 1], a StabilityError mid-run
        scenario = toy_scenario(
            law=TabulatedLaw([1.0, 0.5]),
            datum=PiecewiseConstant([], [1.0]),
            probes=(ProbeTrajectory(0.5, (ExogenousSpeed(0.0, None, 0.2),)),),
        )
        message = "speed law must vanish at full density, got v(1) = 0.5"
        assert [(f.level, f.message) for f in scenario.validate()] == [("error", message)]
        with pytest.raises(DomainError) as raised:
            run(scenario.flux_model(), scenario.grid(), scenario.datum, scenario.t_end)
        assert str(raised.value) == message

    def test_nan_law_slope_is_one_error(self, nan_slope_law):
        # a NaN flux slope would give dt = nan at the first step
        message = "speed law NaNSlopeLaw() has a non-finite flux slope over [0, 1]: nan"
        findings = toy_scenario(law=nan_slope_law).validate()
        assert [(f.level, f.message) for f in findings] == [("error", message)]

    def test_bad_trace_side_is_one_error(self):
        messages = [f.message for f in toy_scenario(trace_side="middle").errors()]
        assert messages == ["trace_side must be 'right' or 'left', got 'middle'"]

    def test_oversized_cutoff_is_a_warning(self):
        findings = toy_scenario(cutoff=CutoffProfile(0.2, 0.6)).validate()
        assert any(f.level == "warning" and "cutoff" in f.message for f in findings)


class TestSerialization:
    @pytest.mark.parametrize("name", scenario_names())
    def test_json_round_trip(self, name):
        scenario = get_scenario(name)
        restored = Scenario.from_json(json.dumps(scenario.to_dict()))
        assert restored.to_dict() == scenario.to_dict()

    def test_dict_shape(self):
        data = get_scenario("riemann_phi").to_dict()
        assert data["domain"] == {"x_min": -1.0, "x_max": 2.0, "dx": 2.5e-3}
        assert data["law"] == {"kind": "epsilon", "eps": 0.0}
        assert data["probes"][0]["observer"] is True
        assert data["probes"][0]["program"][0]["mode"] == "speed"
        assert data["reconstructed"] == ["domain", "t_end"]

    def test_coupled_probe_round_trip(self):
        scenario = get_scenario("fig_int32")
        restored = Scenario.from_json(json.dumps(scenario.to_dict()))
        program = restored.probes[0].program
        assert isinstance(program[0], ModelCoupled)
        assert isinstance(program[1], ExogenousSpeed)
        assert program[1].speed == 0.0
        assert restored.cutoff == CutoffProfile(inner=0.01, outer=0.03)

    def test_minimal_dict_takes_defaults(self):
        scenario = Scenario.from_dict(
            {
                "name": "minimal",
                "domain": {"x_min": 0.0, "x_max": 1.0, "dx": 0.01},
                "t_end": 0.5,
                "law": {"kind": "greenshields", "v_max": 1.0},
                "datum": {"xs": [0.2, 0.4], "values": [0.1, 0.8, 0.1]},
            }
        )
        assert scenario.datum.values == (0.1, 0.8, 0.1)
        assert scenario.cfl == pytest.approx(0.9)
        assert scenario.trace_side == "right"

    def test_malformed_inputs(self):
        with pytest.raises(DomainError):
            Scenario.from_json("not json at all {")
        with pytest.raises(DomainError):
            Scenario.from_dict({"name": "missing everything"})
        with pytest.raises(DomainError):
            Scenario.from_dict(
                {
                    "name": "bad law",
                    "domain": {"x_min": 0.0, "x_max": 1.0, "dx": 0.01},
                    "t_end": 0.5,
                    "law": {"kind": "cubic"},
                    "datum": {"values": [0.5]},
                }
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("t_end", "soon"),
            ("n_snapshots", 2.5),
            ("n_snapshots", math.nan),
            ("n_snapshots", math.inf),
            ("n_snapshots", "many"),
            ("n_snapshots", 10**400),
        ],
        ids=["text", "fraction", "nan", "inf", "word", "overflow"],
    )
    def test_unconvertible_numbers_rejected(self, key, value):
        data = toy_scenario().to_dict()
        data[key] = value
        with pytest.raises(DomainError):
            Scenario.from_dict(data)

    def test_whole_snapshot_count_accepted_as_float(self):
        data = toy_scenario().to_dict()
        data["n_snapshots"] = 7.0
        assert Scenario.from_dict(data).n_snapshots == 7

    def test_non_finite_cutoff_radius_rejected(self):
        data = toy_scenario().to_dict()
        data["cutoff"]["outer"] = math.inf
        with pytest.raises(DomainError):
            Scenario.from_dict(data)

    def test_unknown_probe_mode(self):
        with pytest.raises(DomainError):
            Scenario.from_dict(
                {
                    "name": "bad probe",
                    "domain": {"x_min": 0.0, "x_max": 1.0, "dx": 0.01},
                    "t_end": 0.5,
                    "law": {"kind": "greenshields"},
                    "datum": {"values": [0.5]},
                    "probes": [{"x0": 0.5, "program": [{"from": 0, "to": None, "mode": "teleport"}]}],
                }
            )


#: Every number of the ``calibration`` scenario's dict, as a key path.
_NUMBER_PATHS = (
    ("domain", "x_min"),
    ("domain", "x_max"),
    ("domain", "dx"),
    ("t_end",),
    ("cfl",),
    ("n_snapshots",),
    ("law", "v_max"),
    ("cutoff", "inner"),
    ("cutoff", "outer"),
    ("datum", "values", 0),
    ("probes", 0, "x0"),
    ("probes", 0, "mollify_radius"),
    ("probes", 0, "program", 0, "from"),
    ("probes", 0, "program", 0, "speed"),
)

_SPECIAL_NUMBERS = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300)


def _calibration_data():
    return Scenario.from_dict(get_scenario("calibration").to_dict()).to_dict()


def _leaf(data, path):
    for key in path[:-1]:
        data = data[key]
    return data, path[-1]


@st.composite
def _mutations(draw):
    path = draw(st.sampled_from(_NUMBER_PATHS))
    container, key = _leaf(_calibration_data(), path)
    value = draw(
        st.one_of(
            st.sampled_from(_SPECIAL_NUMBERS),
            st.floats(0.5, 2.0).map(lambda factor: container[key] * factor),
        )
    )
    return path, value


class TestReaderFuzz:
    @given(_mutations())
    @example((("n_snapshots",), 0))
    @example((("domain", "dx"), 1.0))
    @example((("t_end",), 1e300))
    @example((("domain", "x_max"), 1e300))
    def test_one_mutated_number_is_rejected_or_runs_clean(self, mutation):
        # one number changed: the reader or validation rejects it with
        # DomainError, or the run finishes finite, in [0, 1], mass-balanced
        path, value = mutation
        data = _calibration_data()
        container, key = _leaf(data, path)
        container[key] = value
        try:
            scenario = Scenario.from_dict(data)
        except DomainError:
            return
        if scenario.errors():
            return
        result = run_scenario(scenario)
        fields = np.array([field for _, field in result.snapshots])
        assert np.all(np.isfinite(fields))
        assert fields.min() >= 0.0 and fields.max() <= 1.0
        assert result.mass_balance_residual() <= 1e-10


class TestRunScenario:
    def test_runs_to_the_scenario_horizon(self):
        result = run_scenario(toy_scenario().with_overrides(t_end=0.05, n_snapshots=3))
        assert len(result.snapshots) == 3
        assert result.t_end == 0.05

    def test_invalid_scenario_blocks_the_run(self):
        with pytest.raises(DomainError):
            run_scenario(toy_scenario().with_overrides(t_end=-1.0))

    def test_warnings_do_not_block(self):
        probe = ProbeTrajectory(0.1, (ExogenousSpeed(0.0, None, 0.5),))
        result = run_scenario(
            toy_scenario(probes=(probe,)).with_overrides(t_end=0.02, n_snapshots=2)
        )
        assert result.probe_path(0).shape[1] == 4


#: The analytic constants of every built-in scenario, of ``fig_questa``
#: with both probes mollified over ``mollify_radius=0.25`` and of
#: ``verify.stability_setup()``'s model, the one with a finite, nonzero
#: ``C``, as ``float.hex``: the four :class:`LipschitzConstants` fields in
#: field order, ``stability_constant_C(...).value`` and
#: ``max_probe_speed()``.  No run output contains them, so a change to how
#: programs are read is checked against these.
CONSTANT_PINS = {
    "calibration": (
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.3333333333333p+1",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x0.0p+0",
    ),
    "fig_int3": (
        "0x1.0000000000000p+0",
        "0x1.e000000000001p+4",
        "0x1.0000000000000p+1",
        "0x1.e000000000001p+3",
        "inf",
        "0x1.0000000000000p+0",
    ),
    "fig_int32": (
        "0x1.0000000000000p+0",
        "0x1.2c00000000001p+7",
        "0x1.0000000000000p+1",
        "0x1.2c00000000001p+6",
        "inf",
        "0x1.0000000000000p+0",
    ),
    "fig_int33": (
        "0x1.0000000000000p+0",
        "0x1.e000000000001p+4",
        "0x1.0000000000000p+1",
        "0x1.e000000000001p+3",
        "inf",
        "0x1.0000000000000p+0",
    ),
    "fig_questa": (
        "0x1.7ffffffffffffp-1",
        "0x1.a400000000001p+4",
        "0x1.0000000000000p+1",
        "0x1.e000000000001p+3",
        "inf",
        "0x1.3333333333333p-1",
    ),
    "riemann_phi": (
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.0000000000000p+1",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x0.0p+0",
    ),
    "fig_questa_mollified": (
        "0x1.7ffffffffffffp-1",
        "0x1.a400000000001p+4",
        "0x1.0000000000000p+1",
        "0x1.e000000000001p+3",
        "inf",
        "0x1.3333333333333p-1",
    ),
    "stability_setup": (
        "0x1.6b5ad6b5ad6b6p-1",
        "0x1.9a5294a5294a6p+4",
        "0x1.0000000000000p+1",
        "0x1.e000000000001p+3",
        "0x1.5551111111113p+6",
        "0x1.199999999999ap-1",
    ),
}


def _constant_cases():
    for name in scenario_names():
        yield name, get_scenario(name).flux_model()
    base = get_scenario("fig_questa")
    probes = tuple(
        ProbeTrajectory(p.x0, p.program, mollify_radius=0.25, observer=p.observer)
        for p in base.probes
    )
    yield "fig_questa_mollified", base.with_overrides(probes=probes).flux_model()
    yield "stability_setup", stability_setup()[0]


def test_analytic_constants_are_pinned_to_the_bit():
    got = {}
    for name, model in _constant_cases():
        lip = lipschitz_constants(model)
        values = [getattr(lip, f.name) for f in fields(lip)]
        values += [stability_constant_C(model).value, model.max_probe_speed()]
        got[name] = tuple(float(v).hex() for v in values)
    assert got == CONSTANT_PINS
