"""Exact Riemann solutions: shock speeds, fans, admissibility gating.

The quadratic-family shock between the states 1/8 and 3/8 has the closed
form speed 1/2 + 19*eps/64, used here as a frozen reference.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from probeflow import (
    DomainError,
    EpsilonLaw,
    Greenshields,
    TabulatedLaw,
    sample_solution,
    solve_riemann,
)
from probeflow import model
from probeflow.riemann import _invert_slope

eps_values = st.floats(min_value=-1.0 / 3.0, max_value=1.0 / 3.0, allow_nan=False)
densities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def shock_speed_reference(eps):
    """Chord slope of rho*(1+eps*rho)*(1-rho) between 1/8 and 3/8."""
    return 0.5 + 19.0 * eps / 64.0


class TestShock:
    def test_classification(self):
        sol = solve_riemann(Greenshields(1.0), 0.125, 0.375)
        assert sol.kind == "shock"
        assert sol.fan is None

    @pytest.mark.parametrize("eps", [0.0, 1.0 / 48.0, 0.1, 0.2, 1.0 / 3.0, -0.25])
    def test_speed_closed_form(self, eps):
        sol = solve_riemann(EpsilonLaw(eps), 0.125, 0.375)
        assert sol.speed == pytest.approx(shock_speed_reference(eps), abs=1e-15)

    def test_linear_law_speed_is_exactly_half(self):
        assert solve_riemann(EpsilonLaw(0.0), 0.125, 0.375).speed == 0.5

    def test_sampling_is_right_continuous(self):
        sol = solve_riemann(Greenshields(1.0), 0.125, 0.375)
        assert sol.sample(sol.speed) == 0.375
        assert sol.sample(sol.speed - 1e-12) == 0.125

    @given(eps_values, densities, densities)
    def test_rankine_hugoniot_residual(self, eps, a, b):
        rho_l, rho_r = min(a, b), max(a, b)
        if rho_r - rho_l < 1e-6:
            return
        law = EpsilonLaw(eps)
        sol = solve_riemann(law, rho_l, rho_r)
        residual = (
            law.flux(rho_r) - law.flux(rho_l) - sol.speed * (rho_r - rho_l)
        )
        assert abs(residual) <= 1e-14

    @given(eps_values, densities, densities)
    def test_lax_admissibility(self, eps, a, b):
        rho_l, rho_r = min(a, b), max(a, b)
        if rho_r - rho_l < 1e-6:
            return
        law = EpsilonLaw(eps)
        sol = solve_riemann(law, rho_l, rho_r)
        # strictly concave flux: characteristics run into the shock
        assert law.flux_slope(rho_l) > sol.speed > law.flux_slope(rho_r)


class TestRarefaction:
    def test_classification_and_edges(self):
        sol = solve_riemann(Greenshields(1.0), 1.0, 0.0)
        assert sol.kind == "rarefaction"
        assert sol.speed is None
        assert sol.fan == (-1.0, 1.0)

    def test_self_similar_interior(self):
        # under v = 1 - rho the fan solves 1 - 2*rho = xi
        sol = solve_riemann(Greenshields(1.0), 1.0, 0.0)
        for xi, expected in [(0.0, 0.5), (0.5, 0.25), (-0.5, 0.75)]:
            assert sol.sample(xi) == pytest.approx(expected, abs=1e-11)

    def test_constant_states_outside_fan(self):
        sol = solve_riemann(Greenshields(1.0), 0.75, 0.25)
        lo, hi = sol.fan
        assert sol.sample(lo - 0.1) == 0.75
        assert sol.sample(hi + 0.1) == 0.25
        assert sol.sample(lo) == 0.75
        assert sol.sample(hi) == 0.25

    @given(eps_values, densities, densities)
    def test_fan_edges_are_characteristic_speeds(self, eps, a, b):
        rho_l, rho_r = max(a, b), min(a, b)
        if rho_l - rho_r < 1e-6:
            return
        law = EpsilonLaw(eps)
        sol = solve_riemann(law, rho_l, rho_r)
        assert sol.kind == "rarefaction"
        lo, hi = sol.fan
        assert lo == pytest.approx(float(law.flux_slope(rho_l)))
        assert hi == pytest.approx(float(law.flux_slope(rho_r)))
        assert lo < hi


class TestPiecewiseFans:
    """Fans under laws with knots, where ``f'`` jumps."""

    def test_tabulated_fan_edges_are_exact(self):
        # f' = 1 - 2 rho on both pieces, -1 at full density and 1 at 0
        assert solve_riemann(TabulatedLaw([1, 0.5, 0]), 1, 0).fan == (-1.0, 1.0)

    def test_fan_edges_are_the_slopes_inside_the_jump(self):
        # f' = 1.0625 - rho on [1/4, 1/2] and 1.3125 - 2 rho on [1/2, 3/4];
        # outside [1/4, 3/4] the slopes are 0.875 at 1/4 and -1.125 at 3/4
        law = TabulatedLaw([1.0, 0.9375, 0.8125, 0.5625, 0.0])
        assert solve_riemann(law, 0.75, 0.25).fan == (-0.1875, 0.8125)

    def test_a_knot_fills_its_slope_gap(self):
        # f' = 1 - 1.2 rho below the knot 1/3 and 1.1 - 1.8 rho above it,
        # so it drops from 0.6 to 0.5 there; at 2/3 it drops from -0.1 to -0.5
        law = TabulatedLaw([1.0, 0.8, 0.5, 0.0])
        knots = np.linspace(0.0, 1.0, 4)
        sol = solve_riemann(law, 1.0, 0.0)
        assert np.all(sol.sample(np.linspace(0.5, 0.6, 11)[1:-1]) == knots[1])
        assert np.all(sol.sample(np.linspace(-0.5, -0.1, 11)[1:-1]) == knots[2])
        # each piece between the gaps inverts its own slope
        assert sol.sample(0.8) == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert sol.sample(0.2) == pytest.approx(0.5, abs=1e-15)
        assert sol.sample(-1.0) == pytest.approx(5.0 / 6.0, abs=1e-15)

    @pytest.mark.parametrize(
        "law",
        [
            Greenshields(1.0),
            EpsilonLaw(0.2),
            EpsilonLaw(-1.0 / 3.0),
            # a quadratic piece with b >= 0: f' = 1 + rho - 4.5 rho**2 on [0.2, 1]
            SimpleNamespace(pieces=((0.2, 1.0, (1.0, 0.5, -1.5)),)),
        ],
        ids=["linear", "quadratic", "quadratic-steep", "quadratic-rising-speed"],
    )
    def test_closed_form_inverse_solves_for_the_slope(self, law):
        (start, end, (a, b, c)), *_ = law.pieces
        rho = np.linspace(start, end, 101)
        xi = a + 2.0 * b * rho + 3.0 * c * rho * rho
        np.testing.assert_allclose(_invert_slope(law, xi), rho, rtol=0.0, atol=1e-14)


class TestConstant:
    def test_equal_states(self):
        sol = solve_riemann(Greenshields(1.0), 0.3, 0.3)
        assert sol.kind == "constant"
        np.testing.assert_array_equal(sol.sample(np.linspace(-2, 2, 9)), 0.3)


class TestSampling:
    @given(eps_values, densities, densities)
    def test_profile_monotone_between_states(self, eps, a, b):
        sol = solve_riemann(EpsilonLaw(eps), a, b)
        xi = np.linspace(-3.0, 3.0, 41)
        out = sol.sample(xi)
        diffs = np.diff(out)
        if a <= b:
            assert np.all(diffs >= -1e-12)
        else:
            assert np.all(diffs <= 1e-12)
        assert out[0] == pytest.approx(a, abs=1e-11)
        assert out[-1] == pytest.approx(b, abs=1e-11)

    def test_profile_in_physical_coordinates(self):
        sol = solve_riemann(Greenshields(1.0), 0.125, 0.375)
        x = np.array([-1.0, 0.2, 1.0])
        np.testing.assert_array_equal(sol.profile(2.0, x), sol.sample(x / 2.0))
        # at t = 0 the profile is the raw jump at the origin
        np.testing.assert_array_equal(sol.profile(0.0, x), [0.125, 0.375, 0.375])

    @pytest.mark.parametrize("rho_l,rho_r", [(0.25, 0.75), (0.75, 0.25), (0.5, 0.5)])
    def test_nan_coordinate_rejected(self, rho_l, rho_r):
        # NaN compares false with every edge, which would read as the right state
        sol = solve_riemann(Greenshields(1.0), rho_l, rho_r)
        for xi in (math.nan, np.array([0.0, math.nan])):
            with pytest.raises(DomainError, match="NaN"):
                sol.sample(xi)
        np.testing.assert_array_equal(sol.sample([-math.inf, math.inf]), [rho_l, rho_r])

    def test_module_level_sampler_delegates(self):
        sol = solve_riemann(Greenshields(1.0), 0.125, 0.375)
        xi = np.linspace(-1.0, 1.0, 11)
        np.testing.assert_array_equal(sample_solution(sol, xi), sol.sample(xi))
        assert sample_solution(sol, 0.0) == sol.sample(0.0)


class TestValidation:
    def test_inadmissible_law_rejected(self):
        with pytest.raises(DomainError):
            solve_riemann(EpsilonLaw(0.5), 0.125, 0.375)

    @pytest.mark.parametrize("rho_l,rho_r", [(-0.1, 0.5), (0.5, 1.2)])
    def test_out_of_range_states_rejected(self, rho_l, rho_r):
        with pytest.raises(DomainError):
            solve_riemann(Greenshields(1.0), rho_l, rho_r)



class TestAdmissibilityVerdictPerLaw:
    def test_one_scan_serves_every_solve(self, monkeypatch):
        scans = []

        def counted(law):
            scans.append(law)
            return check_admissible(law)

        check_admissible = model.check_admissible
        monkeypatch.setattr(model, "check_admissible", counted)
        law = EpsilonLaw(0.2)
        for k in range(50):
            solve_riemann(law, k / 50.0, 1.0 - k / 50.0)
        assert scans == [law]

    def test_inadmissible_law_rejected_on_every_call(self):
        law = EpsilonLaw(0.5)
        for _ in range(3):
            with pytest.raises(DomainError, match="family_parameter_range"):
                solve_riemann(law, 0.125, 0.375)

    def test_unhashable_law_solves(self, plain_law):
        for _ in range(2):
            sol = solve_riemann(plain_law, 0.125, 0.375)
            assert (sol.kind, sol.speed) == ("shock", 0.5)
