"""Probe-coupled scalar traffic flow: modelling, exact solvers, and
calibration.

The package simulates a one-dimensional traffic density whose flux is
locally reshaped by probe vehicles with measured speeds, provides exact
Riemann and wave-front-tracking references for the underlying conservation
law, and recovers speed-law parameters from the records such probes
produce.
"""

from .errors import DomainError, FrontTrackError, ProbeStateError, StabilityError
from .fronttrack import (
    FrontState,
    FrontTrackSolution,
    PiecewiseConstant,
    PiecewiseLinearFlux,
    from_datum,
    ft_evolve,
)
from .fvsolver import (
    CFL_DEFAULT,
    SNAPSHOTS_DEFAULT,
    Grid,
    RunResult,
    advance_probes,
    boundary_flux_rates,
    cfl_dt,
    init_field,
    l1_distance,
    lxf_step,
    resolve_probe_speeds,
    run,
    trace_density,
)
from .inverse import (
    MinimizeResult,
    ScanResult,
    error_functional,
    evaluate_candidate,
    minimize_E,
    scan_E,
    score_records,
)
from .model import (
    AdmissibilityReport,
    CutoffProfile,
    EpsilonLaw,
    ExogenousSpeed,
    FluxModel,
    Greenshields,
    ModelCoupled,
    ProbeTrajectory,
    SpeedLaw,
    TabulatedLaw,
    check_admissible,
    eval_encoded_speed,
    eval_flux,
    harmonic_speed,
)
from .riemann import RiemannSolution, sample_solution, solve_riemann
from .scenarios import (
    Finding,
    Scenario,
    get_scenario,
    run_scenario,
    scenario_names,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "CFL_DEFAULT",
    "Curve",
    "CutoffProfile",
    "DomainError",
    "EpsilonLaw",
    "ExogenousSpeed",
    "Finding",
    "FluxModel",
    "FrontState",
    "FrontTrackError",
    "FrontTrackSolution",
    "Greenshields",
    "Grid",
    "Lemma1Report",
    "LipschitzConstants",
    "MinimizeResult",
    "ModelCoupled",
    "ModulusReport",
    "PhiLimits",
    "PhiReport",
    "PiecewiseConstant",
    "PiecewiseLinearFlux",
    "ProbeStateError",
    "ProbeTrajectory",
    "RescalingReport",
    "RiemannSolution",
    "RunResult",
    "SNAPSHOTS_DEFAULT",
    "ScanResult",
    "Scenario",
    "SpeedLaw",
    "StabilityConstant",
    "StabilityError",
    "TabulatedLaw",
    "advance_probes",
    "boundary_flux_rates",
    "cfl_dt",
    "check_admissible",
    "error_functional",
    "eval_encoded_speed",
    "eval_flux",
    "eval_g",
    "evaluate_candidate",
    "from_datum",
    "ft_evolve",
    "get_scenario",
    "harmonic_speed",
    "init_field",
    "l1_distance",
    "lemma1_check",
    "lipschitz_constants",
    "lxf_step",
    "minimize_E",
    "mixed_difference_constant",
    "modulus_bound",
    "phi_epsilon",
    "phi_one_sided_limits",
    "rescaling_check",
    "resolve_probe_speeds",
    "run",
    "run_scenario",
    "sample_curve_integral",
    "sample_solution",
    "scan_E",
    "scenario_names",
    "score_records",
    "solve_riemann",
    "stability_constant_C",
    "trace_density",
]


def __getattr__(name):
    # the names of __all__ not imported above are the paper's analytic
    # estimates: no run, scan, export or oracle calls them, so their module
    # is imported on first access
    if name in __all__:
        from . import estimates

        return getattr(estimates, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
