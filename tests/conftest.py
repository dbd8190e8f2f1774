"""Shared pytest configuration: deterministic, CI-friendly hypothesis
settings, and an unhashable speed law."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from probeflow import SpeedLaw

settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@dataclass
class PlainLaw(SpeedLaw):  # eq=True without frozen sets __hash__ = None
    """An unhashable copy of ``Greenshields(1.0)``."""

    vmax: float = 1.0

    def __call__(self, rho):
        return self.vmax * (1.0 - np.asarray(rho, dtype=float))

    @property
    def v_max(self):
        return self.vmax

    def lipschitz(self):
        return self.vmax


@pytest.fixture
def plain_law():
    """A :class:`SpeedLaw` that cannot be hashed."""
    return PlainLaw()
