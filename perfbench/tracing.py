"""In-memory span tracing of the library's layers, from outside the library.

:class:`Tracer` replaces module attributes such as
``probeflow.fvsolver.cfl_dt`` with wrappers that record a span (name,
parent span, start, end) per call, and restores them on uninstall.  Each
name is patched in the module where it is looked up: ``fvsolver.run``
calls ``cfl_dt`` through ``probeflow.fvsolver``'s globals, ``scan_E``
calls ``evaluate_candidate`` through ``probeflow.inverse``'s, and the
benchmark itself calls through module attributes.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.  Counting
hooks run after a span closes and add exact work counts (steps, points,
collisions, bytes) to the same layer.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

from probeflow import fronttrack, fvsolver, inverse, riemann, scenarios
from probeflow import io as pf_io


def _count_run(counts, args, kwargs, result):
    steps = len(result.diagnostics)
    counts["fvsolver.steps"] += steps
    counts["fvsolver.cell_updates"] += steps * result.grid.n_cells


def _count_lxf(counts, args, kwargs, result):
    # Computed, not measured: the update reads the ghosted density and flux
    # (n + 2 values each) and writes n new densities, all float64.
    counts["fvsolver.lxf_step.bytes_computed"] += 8 * (3 * result.size + 4)


def _count_eval_flux(counts, args, kwargs, result):
    model = args[0]
    points = int(np.size(result))
    counts["model.eval_flux.points"] += points
    counts["model.blend_terms"] += points * len(model.coupled_probes)


def _count_evaluation(counts, args, kwargs, result):
    counts["inverse.evaluations"] += 1


def _count_write(counts, args, kwargs, result):
    counts["io.bytes_written"] += sum(os.path.getsize(p) for p in result.paths)


def _count_read(counts, args, kwargs, result):
    counts["io.bytes_read"] += os.path.getsize(args[0])


def _count_evolve(counts, args, kwargs, result):
    counts["fronttrack.collisions"] += len(result.collisions)
    counts["fronttrack.epochs"] += len(result.epochs)
    counts["fronttrack.front_updates"] += sum(e.n_fronts for e in result.epochs)


#: (module, attribute, span name, counting hook).  Two attributes may share a
#: span name when they are one layer (``fvsolver.probes``) or one function
#: bound in two modules (``run_scenario``).
PATCHES = (
    (scenarios, "run_scenario", "scenarios.run_scenario", None),
    (inverse, "run_scenario", "scenarios.run_scenario", None),
    (scenarios, "run", "fvsolver.run", _count_run),
    (fvsolver, "init_field", "fvsolver.init_field", None),
    (fvsolver, "cfl_dt", "fvsolver.cfl_dt", None),
    (fvsolver, "lxf_step", "fvsolver.lxf_step", _count_lxf),
    (fvsolver, "boundary_flux_rates", "fvsolver.boundary_flux_rates", None),
    (fvsolver, "resolve_probe_speeds", "fvsolver.probes", None),
    (fvsolver, "advance_probes", "fvsolver.probes", None),
    (fvsolver, "eval_flux", "model.eval_flux", _count_eval_flux),
    (inverse, "scan_E", "inverse.scan_E", None),
    (inverse, "minimize_E", "inverse.minimize_E", None),
    (inverse, "evaluate_candidate", "inverse.evaluate_candidate", _count_evaluation),
    (inverse, "error_functional", "inverse.error_functional", None),
    (pf_io, "write_bundle", "io.write_bundle", _count_write),
    (pf_io, "read_density_csv", "io.read", _count_read),
    (pf_io, "read_probe_csv", "io.read", _count_read),
    (pf_io, "read_diagnostics_csv", "io.read", _count_read),
    (pf_io, "read_pgm", "io.read", _count_read),
    (pf_io, "read_metadata", "io.read", _count_read),
    (fronttrack, "from_datum", "fronttrack.from_datum", None),
    (fronttrack, "ft_evolve", "fronttrack.ft_evolve", _count_evolve),
    (riemann, "solve_riemann", "riemann.solve_riemann", None),
    (riemann, "sample_solution", "riemann.sample_solution", None),
)


class Tracer:
    """Records spans while installed; :meth:`collect` summarises and clears
    them.  One tracer traces one thread."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self._stack = []
        self._originals = [
            (module, attr, getattr(module, attr)) for module, attr, _, _ in PATCHES
        ]
        self._wrapped = [
            self._wrap(name, getattr(module, attr), hook)
            for module, attr, name, hook in PATCHES
        ]

    def _wrap(self, name, func, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        for (module, attr, _), wrapped in zip(self._originals, self._wrapped):
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original in self._originals:
            setattr(module, attr, original)

    def collect(self):
        """Per-name ``{"calls", "s", "self_s"}``, the summed duration of the
        root spans, and the counts; then forget them all."""
        children = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        layers = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        rooted = 0.0
        for (name, parent, start, end), child_s in zip(self.spans, children):
            layer = layers[name]
            layer["calls"] += 1
            layer["s"] += end - start
            layer["self_s"] += end - start - child_s
            if parent < 0:
                rooted += end - start
        counts = dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return dict(layers), rooted, counts
