"""Shared pytest configuration: deterministic, CI-friendly hypothesis
settings, an unhashable speed law, a speed law with a NaN flux slope, and a
loader for the benchmark's modules."""

import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

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

    @property
    def pieces(self):
        return ((0.0, 1.0, (self.vmax, -self.vmax, 0.0)),)


@pytest.fixture
def plain_law():
    """A :class:`SpeedLaw` that cannot be hashed."""
    return PlainLaw()


@dataclass(frozen=True)
class NaNSlopeLaw(SpeedLaw):
    """``v = 1 - rho`` whose second piece has a NaN coefficient: a user
    subclass that no library law, whose coefficients are validated finite,
    can be."""

    def __call__(self, rho):
        return 1.0 - np.asarray(rho, dtype=float)

    @property
    def v_max(self):
        return 1.0

    @property
    def pieces(self):
        return ((0.0, 0.5, (1.0, -1.0, 0.0)), (0.5, 1.0, (math.nan, -1.0, 0.0)))


@pytest.fixture
def nan_slope_law():
    """A :class:`SpeedLaw` whose pieces give a NaN flux slope on [0.5, 1]."""
    return NaNSlopeLaw()


@pytest.fixture
def load_perfbench(monkeypatch):
    """Load ``perfbench/<name>.py`` from its path, read only: no bytecode
    cache is written next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
        return module

    return load
