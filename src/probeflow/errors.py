"""Exception types shared across the package, and finiteness, NaN and
integer checks."""

import math
import operator

import numpy as np


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ProbeStateError(RuntimeError):
    """A probe's kinematic state is required at a time where it has not been
    resolved (e.g. a model-coupled probe queried outside a running
    simulation)."""


class StabilityError(RuntimeError):
    """A finite-volume update produced densities outside [0, 1] beyond
    floating-point tolerance."""


class FrontTrackError(RuntimeError):
    """Internal inconsistency in the wave-front evolution (event bookkeeping,
    a rise in total variation, or a run past its collision cap)."""


def require_finite(what, *values):
    """Reject NaN and infinite parameters with :class:`DomainError`."""
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"{what} must be finite, got {', '.join(map(str, values))}")


def require_not_nan(what, values):
    """``values`` as a float array; :class:`DomainError` if any is NaN.
    Infinities pass.  One reduction: a NaN makes the minimum NaN."""
    values = np.asarray(values, dtype=float)
    if math.isnan(values.min(initial=math.inf)):
        raise DomainError(f"{what} must not be NaN")
    return values


def require_index(what, value):
    """``value`` as an ``int`` (:func:`operator.index`); :class:`DomainError`
    unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
