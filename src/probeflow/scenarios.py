"""Named simulation setups and their JSON round-trip.

A :class:`Scenario` bundles everything a run needs: the spatial domain and
resolution, the horizon, the speed law, the cutoff profile, the initial
density profile, and the probe fleet.  The built-in scenarios cover the
package's reference experiments: a uniform stream perturbed by two
programmed probes (``fig_questa``), a three-block profile driven by a
traffic-coupled probe with stopping variants (``fig_int3``, ``fig_int32``,
``fig_int33``), a Riemann problem watched by a moving observer
(``riemann_phi``), and a constant stream used to calibrate a speed law from
probe data (``calibration``).

Parameters that are package reconstructions rather than part of the
reference problem statements (domains, horizons, probe start positions,
cutoff radii) are listed in each scenario's ``reconstructed`` field so
downstream reports can flag them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .errors import DomainError
from .fronttrack import PiecewiseConstant
from .fvsolver import CFL_DEFAULT, SNAPSHOTS_DEFAULT, Grid, check_run, run
from .model import (
    CutoffProfile,
    EpsilonLaw,
    ExogenousSpeed,
    FluxModel,
    Greenshields,
    ModelCoupled,
    ProbeTrajectory,
    TabulatedLaw,
)


@dataclass(frozen=True)
class Finding:
    """One validation finding: ``level`` is ``"error"`` or ``"warning"``."""

    level: str
    message: str


@dataclass(frozen=True)
class Scenario:
    """A fully specified simulation setup."""

    name: str
    description: str
    x_min: float
    x_max: float
    dx: float
    t_end: float
    law: object
    datum: PiecewiseConstant
    probes: tuple = ()
    cutoff: CutoffProfile = field(default_factory=CutoffProfile)
    trace_side: str = "right"
    cfl: float = CFL_DEFAULT
    n_snapshots: int = SNAPSHOTS_DEFAULT
    reconstructed: tuple = ()

    def grid(self):
        return Grid.from_extent(self.x_min, self.x_max, self.dx)

    def flux_model(self):
        return FluxModel(
            speed_law=self.law,
            cutoff=self.cutoff,
            probes=self.probes,
            trace_side=self.trace_side,
        )

    def with_overrides(self, **kwargs):
        """Copy with selected fields replaced (e.g. a different dx or t_end)."""
        return replace(self, **kwargs)

    def validate(self):
        """List of :class:`Finding`; empty when clean. ``error`` findings
        block a run, ``warning`` findings do not.  The :class:`DomainError`
        of :meth:`grid`, :meth:`flux_model` or
        :func:`~probeflow.fvsolver.check_run` is one error each; without a
        grid, the checks against the domain are skipped."""
        findings = []

        def error(msg):
            findings.append(Finding("error", msg))

        def warning(msg):
            findings.append(Finding("warning", msg))

        def verdict(check, *args):
            try:
                return check(*args)
            except DomainError as exc:
                error(str(exc))

        grid, model = verdict(self.grid), verdict(self.flux_model)
        if grid is None:  # no domain to place the datum and probes in
            return findings
        if model is not None:
            verdict(check_run, model, grid, self.t_end, self.n_snapshots, self.cfl)
        for x in self.datum.xs:
            if not self.x_min <= x <= self.x_max:
                error(f"datum jump at x={x} lies outside the domain")
        for i, probe in enumerate(self.probes):
            if not self.x_min <= probe.x0 <= self.x_max:
                error(f"probe {i} starts at x0={probe.x0}, outside the domain")
            elif (
                probe.x0 - self.cutoff.outer <= self.x_min
                or probe.x0 + self.cutoff.outer >= self.x_max
            ):
                warning(
                    f"probe {i} starts within the cutoff support of a boundary"
                )
        if self.cutoff.outer >= (self.x_max - self.x_min) / 2.0:
            warning(f"cutoff support {self.cutoff.outer} is not small against the domain")
        return findings

    def errors(self):
        """Only the error-level validation findings."""
        return [f for f in self.validate() if f.level == "error"]

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        return {
            "name": self.name,
            "description": self.description,
            "domain": {"x_min": self.x_min, "x_max": self.x_max, "dx": self.dx},
            "t_end": self.t_end,
            "cfl": self.cfl,
            "n_snapshots": self.n_snapshots,
            "trace_side": self.trace_side,
            "law": _law_to_dict(self.law),
            "cutoff": {"inner": self.cutoff.inner, "outer": self.cutoff.outer},
            "datum": {"xs": list(self.datum.xs), "values": list(self.datum.values)},
            "probes": [_probe_to_dict(p) for p in self.probes],
            "reconstructed": list(self.reconstructed),
        }

    @classmethod
    def from_dict(cls, data):
        try:
            domain = data["domain"]
            datum = data["datum"]
            profile = PiecewiseConstant(datum.get("xs", []), datum["values"])
            cutoff = data.get("cutoff", {})
            return cls(
                name=data["name"],
                description=data.get("description", ""),
                x_min=float(domain["x_min"]),
                x_max=float(domain["x_max"]),
                dx=float(domain["dx"]),
                t_end=float(data["t_end"]),
                cfl=float(data.get("cfl", CFL_DEFAULT)),
                n_snapshots=_whole_number(data.get("n_snapshots", SNAPSHOTS_DEFAULT)),
                trace_side=data.get("trace_side", "right"),
                law=_law_from_dict(data["law"]),
                cutoff=CutoffProfile(
                    inner=float(cutoff.get("inner", 0.05)),
                    outer=float(cutoff.get("outer", 0.15)),
                ),
                datum=profile,
                probes=tuple(_probe_from_dict(p) for p in data.get("probes", [])),
                reconstructed=tuple(data.get("reconstructed", ())),
            )
        except DomainError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed scenario data: {exc}") from exc

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(data)


def _whole_number(value):
    """``value`` as an int; :class:`DomainError` unless it is integral."""
    number = float(value)
    if not number.is_integer():
        raise DomainError(f"n_snapshots must be a whole number, got {value!r}")
    return int(number)


def _law_to_dict(law):
    if isinstance(law, Greenshields):
        return {"kind": "greenshields", "v_max": law.vmax}
    if isinstance(law, EpsilonLaw):
        return {"kind": "epsilon", "eps": law.eps}
    if isinstance(law, TabulatedLaw):
        return {"kind": "tabulated", "values": [float(v) for v in law.values]}
    raise DomainError(f"cannot serialise speed law {law!r}")


def _law_from_dict(data):
    kind = data.get("kind")
    if kind == "greenshields":
        return Greenshields(vmax=float(data.get("v_max", 1.0)))
    if kind == "epsilon":
        return EpsilonLaw(eps=float(data["eps"]))
    if kind == "tabulated":
        return TabulatedLaw(data["values"])
    raise DomainError(f"unknown speed-law kind {kind!r}")


def _probe_to_dict(probe):
    program = []
    for seg in probe.program:
        entry = {"from": seg.start, "to": seg.end}
        if isinstance(seg, ExogenousSpeed):
            entry["mode"] = "speed"
            entry["speed"] = seg.speed
        else:
            entry["mode"] = "coupled"
        program.append(entry)
    return {
        "x0": probe.x0,
        "observer": probe.observer,
        "mollify_radius": probe.mollify_radius,
        "program": program,
    }


def _probe_from_dict(data):
    program = []
    for entry in data.get("program", []):
        start = float(entry["from"])
        end = entry.get("to")
        end = None if end is None else float(end)
        mode = entry.get("mode", "speed")
        if mode == "speed":
            program.append(ExogenousSpeed(start, end, float(entry["speed"])))
        elif mode == "coupled":
            program.append(ModelCoupled(start, end))
        else:
            raise DomainError(f"unknown probe segment mode {mode!r}")
    return ProbeTrajectory(
        x0=float(data["x0"]),
        program=program,
        mollify_radius=float(data.get("mollify_radius", 0.0)),
        observer=bool(data.get("observer", False)),
    )


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

#: The two-probe speed program: cruise, speed up, pause, crawl, pause,
#: resume, stop.
_TWO_PROBE_PROGRAM = (
    ExogenousSpeed(0.0, 5.0, 0.5),
    ExogenousSpeed(5.0, 6.0, 0.6),
    ExogenousSpeed(8.0, 11.0, 0.2),
    ExogenousSpeed(13.0, 18.0, 0.4),
)

#: Three-block initial profile used by the coupled-probe scenarios.
_THREE_BLOCKS = ((0.001, 0.1, 1.0), (0.2, 0.4, 1.0), (0.5, 0.8, 1.0))


def _fig_questa():
    return Scenario(
        name="fig_questa",
        description=(
            "Uniform density 0.5 perturbed by two probes that follow the same "
            "stop-and-go speed program from staggered starting points."
        ),
        x_min=-2.0,
        x_max=14.0,
        dx=2.5e-3,
        t_end=20.0,
        law=Greenshields(1.0),
        datum=PiecewiseConstant([], [0.5]),
        probes=(
            ProbeTrajectory(0.0, _TWO_PROBE_PROGRAM),
            ProbeTrajectory(2.0, _TWO_PROBE_PROGRAM),
        ),
        reconstructed=("domain", "t_end", "cutoff"),
    )


def _fig_int3():
    return Scenario(
        name="fig_int3",
        description=(
            "Three dense blocks ahead of a probe that always rides the "
            "surrounding traffic."
        ),
        x_min=-0.5,
        x_max=4.0,
        dx=2.5e-3,
        t_end=4.0,
        law=Greenshields(1.0),
        datum=PiecewiseConstant.from_blocks(0.0, _THREE_BLOCKS),
        probes=(ProbeTrajectory(0.0, (ModelCoupled(0.0, None),)),),
        reconstructed=("domain", "t_end", "probe_start", "cutoff"),
    )


def _fig_int32():
    # The probe starts in the gap ahead of the last dense block so that when
    # it halts at t=2 there is still traffic arriving from behind; the small
    # cutoff keeps the resulting queue head within a few cells of the probe.
    return Scenario(
        name="fig_int32",
        description=(
            "Three dense blocks around a traffic-riding probe that brakes to "
            "a halt at t=2 and stays stopped, leaving a standing queue behind "
            "it and an emptying road ahead."
        ),
        x_min=-0.5,
        x_max=4.0,
        dx=2.5e-3,
        t_end=4.0,
        law=Greenshields(1.0),
        datum=PiecewiseConstant.from_blocks(0.0, _THREE_BLOCKS),
        probes=(
            ProbeTrajectory(
                0.45,
                (ModelCoupled(0.0, 2.0), ExogenousSpeed(2.0, None, 0.0)),
            ),
        ),
        cutoff=CutoffProfile(inner=0.01, outer=0.03),
        reconstructed=("domain", "t_end", "probe_start", "cutoff"),
    )


def _fig_int33():
    return Scenario(
        name="fig_int33",
        description=(
            "Three dense blocks ahead of a traffic-riding probe that stops "
            "during [0.75, 1.5] and then rejoins the flow."
        ),
        x_min=-0.5,
        x_max=4.0,
        dx=2.5e-3,
        t_end=4.0,
        law=Greenshields(1.0),
        datum=PiecewiseConstant.from_blocks(0.0, _THREE_BLOCKS),
        probes=(
            ProbeTrajectory(
                0.0,
                (
                    ModelCoupled(0.0, 0.75),
                    ExogenousSpeed(0.75, 1.5, 0.0),
                    ModelCoupled(1.5, None),
                ),
            ),
        ),
        reconstructed=("domain", "t_end", "probe_start", "cutoff"),
    )


def _riemann_phi():
    return Scenario(
        name="riemann_phi",
        description=(
            "A single density jump 1/8 -> 3/8 released at x=0, watched by a "
            "non-interacting observer moving at speed 1/2 from the jump."
        ),
        x_min=-1.0,
        x_max=2.0,
        dx=2.5e-3,
        t_end=1.0,
        law=EpsilonLaw(0.0),
        datum=PiecewiseConstant.from_blocks(1.0 / 8.0, [(0.0, 2.0, 3.0 / 8.0)]),
        probes=(
            ProbeTrajectory(0.0, (ExogenousSpeed(0.0, None, 0.5),), observer=True),
        ),
        reconstructed=("domain", "t_end"),
    )


def _calibration():
    # the observer cruises at 1.2 * (1 - 0.7), the speed a Greenshields law
    # with v_max = 1.2 assigns to the ambient density 0.7
    return Scenario(
        name="calibration",
        description=(
            "Constant density 0.7 with a non-interacting observer cruising at "
            "0.36; its speed/trace records single out the speed law that "
            "produced them."
        ),
        x_min=-1.0,
        x_max=2.0,
        dx=2.5e-3,
        t_end=1.0,
        law=Greenshields(1.2),
        datum=PiecewiseConstant([], [0.7]),
        probes=(
            ProbeTrajectory(0.3, (ExogenousSpeed(0.0, None, 0.36),), observer=True),
        ),
        reconstructed=("domain", "t_end", "probe_start"),
    )


_BUILTINS = {
    "fig_questa": _fig_questa,
    "fig_int3": _fig_int3,
    "fig_int32": _fig_int32,
    "fig_int33": _fig_int33,
    "riemann_phi": _riemann_phi,
    "calibration": _calibration,
}


def scenario_names():
    """Names of all built-in scenarios, sorted."""
    return sorted(_BUILTINS)


def get_scenario(name):
    """A fresh instance of a built-in scenario."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise DomainError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None
    return factory()


def run_scenario(scenario):
    """Validate a scenario and run it end to end; override its fields with
    :meth:`Scenario.with_overrides` first (e.g. ``t_end=2.0`` for a shorter
    run)."""
    problems = scenario.errors()
    if problems:
        raise DomainError(
            "scenario invalid: " + "; ".join(f.message for f in problems)
        )
    return run(
        scenario.flux_model(),
        scenario.grid(),
        scenario.datum,
        scenario.t_end,
        n_snapshots=scenario.n_snapshots,
        cfl=scenario.cfl,
    )
