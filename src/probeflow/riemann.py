"""Exact solution of the Riemann problem for a concave-flux conservation law.

For ``rho_t + f(rho)_x = 0`` with strictly concave flux and piecewise
constant data ``(rho_l, rho_r)``, the entropy solution is self-similar in
``xi = x / t``: a shock travelling at the Rankine-Hugoniot speed when
``rho_l < rho_r``, a rarefaction fan spanning the characteristic speeds
``f'(rho_l-) < f'(rho_r+)`` when ``rho_l > rho_r`` (``f'`` decreases), and
the constant state otherwise, each read in closed form from the law's pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_not_nan
from .model import _flux_slope


@dataclass(frozen=True)
class RiemannSolution:
    """Self-similar solution of a single Riemann problem.

    ``kind`` is ``"constant"``, ``"shock"`` or ``"rarefaction"``.  A shock
    carries its ``speed``; a rarefaction its edge speeds
    ``fan = (f'(rho_l-), f'(rho_r+))``, lower first: the one-sided slopes
    from inside ``[rho_r, rho_l]``, which differ from the other side's at
    a knot where ``f'`` jumps.  ``rho_l > rho_r`` and ``f'`` decreases, so
    the fan's tail ``f'(rho_l-)`` is slower than its head ``f'(rho_r+)``.
    """

    law: object
    rho_l: float
    rho_r: float
    kind: str
    speed: float | None = None
    fan: tuple | None = None

    def sample(self, xi):
        """Evaluate the solution at similarity coordinates ``xi = x/t``.

        Along a shock the right state is reported (the solution is taken
        right-continuous in ``xi``).  Accepts scalars or arrays; ``-inf``
        and ``inf`` give the far states and a NaN is a :class:`DomainError`.
        """
        xi = require_not_nan("similarity coordinate xi", xi)
        if self.kind == "constant":
            out = np.full(xi.shape, self.rho_l)
        elif self.kind == "shock":
            out = np.where(xi < self.speed, self.rho_l, self.rho_r)
        else:
            lo, hi = self.fan
            out = np.empty(xi.shape)
            left = xi <= lo
            right = xi >= hi
            out[left] = self.rho_l
            out[right] = self.rho_r
            inside = ~(left | right)
            if np.any(inside):
                out[inside] = _invert_slope(self.law, xi[inside])
        if out.ndim == 0:
            return float(out)
        return out

    def profile(self, t, x):
        """Evaluate at physical coordinates (t, x), jump centred at x = 0."""
        x = np.asarray(x, dtype=float)
        if t <= 0.0:
            out = np.where(x < 0.0, self.rho_l, self.rho_r)
            return float(out) if out.ndim == 0 else out
        return self.sample(x / t)


def solve_riemann(law, rho_l, rho_r):
    """Entropy solution of the Riemann problem for the flux ``rho*v(rho)``.

    The law must pass :func:`probeflow.model.check_admissible`; otherwise
    :class:`DomainError` is raised.  States must lie in [0, 1].
    """
    if law.failed_conditions:
        raise DomainError(f"speed law not admissible ({', '.join(law.failed_conditions)})")
    rho_l = float(rho_l)
    rho_r = float(rho_r)
    for name, r in (("rho_l", rho_l), ("rho_r", rho_r)):
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"{name} = {r} outside [0, 1]")
    if rho_l == rho_r:
        return RiemannSolution(law=law, rho_l=rho_l, rho_r=rho_r, kind="constant")
    if rho_l < rho_r:
        # concave flux, increasing jump: admissible shock at the chord slope
        speed = (law.flux(rho_r) - law.flux(rho_l)) / (rho_r - rho_l)
        return RiemannSolution(
            law=law, rho_l=rho_l, rho_r=rho_r, kind="shock", speed=float(speed)
        )
    tail = float(_flux_slope(law, rho_l, "left"))
    head = float(_flux_slope(law, rho_r, "right"))
    return RiemannSolution(
        law=law, rho_l=rho_l, rho_r=rho_r, kind="rarefaction", fan=(tail, head)
    )


def sample_solution(solution, xi):
    """Evaluate a Riemann solution at similarity coordinates ``xi = x/t``
    (right-continuous across a shock).  Accepts scalars or arrays."""
    return solution.sample(xi)


def _invert_slope(law, xi):
    """The density whose flux slope is ``xi``, from the law's pieces.

    ``f'`` decreases, so ``xi`` falls on the first piece whose slope at its
    end reaches down to it; above the slope at the piece's start it lies
    in the gap of the kink there, and the knot is the density.  On a piece
    ``f' = a + 2 b rho + 3 c rho**2``, so a linear piece gives
    ``(xi - a) / 2b`` and a quadratic one the stable root where ``f'' < 0``.
    """
    start, end, coefs = (np.array(column) for column in zip(*law.pieces))
    i = np.minimum(np.searchsorted(-_flux_slope(law, end, "left"), -xi), len(start) - 1)
    a, b, c = coefs[i].T
    d = a - xi
    # np.where keeps one value of each pair; the other may divide by 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        half_root = np.sqrt(np.maximum(b * b - 3.0 * c * d, 0.0))
        quadratic = np.where(b < 0.0, d / (half_root - b), -(b + half_root) / (3.0 * c))
        root = np.where(c == 0.0, (xi - a) / (2.0 * b), quadratic)
    start, end = start[i], end[i]
    return np.where(xi > _flux_slope(law, start, "right"), start, np.clip(root, start, end))
