"""Deterministic exports of run results: CSV tables, PGM images, and run
metadata, plus readers that parse every emitted file back.

All floats are rendered with ``%.17g`` (round-trip exact for binary64), all
text files use ``\\n`` newlines, and rows follow a fixed order, so repeated
exports of the same result are byte-identical.  The CSV writers format each
value once and render a whole snapshot or table with one ``%`` over a row
template.

The readers parse each CSV body in one numpy pass and return arrays: each
snapshot's cells, each probe's rows, and the diagnostics as tuples.  A file
that does not have the exact header, a row that is not the header's number
of numbers (``#`` lines included), a non-integral ``step`` or ``probe_id``,
and a PGM whose dimensions or pixel count do not match are each a
:class:`DomainError` naming the file.  A header-only CSV reads back as an
empty table.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DomainError


def density_csv_text(result):
    """``t,x,rho`` rows: snapshots in time order, cells left to right.

    The cell centres are formatted once per call and each snapshot's ``t``
    once; a snapshot is then one ``%`` over its row template
    (``"{t},{x},%.17g\\n"`` per cell) with its field."""
    xs = ["%.17g" % x for x in result.grid.centers.tolist()]
    cells = [""] + [f",{x},%.17g\n" for x in xs]
    chunks = ["t,x,rho\n"]
    for t, field in result.snapshots:
        template = ("%.17g" % t).join(cells)
        chunks.append(template % tuple(field.tolist()))
    return "".join(chunks)


def probe_csv_text(result):
    """``t,probe_id,x,speed,trace_rho`` rows: probe-major, then time."""
    paths = result.probe_paths
    template = "".join(
        f"%.17g,{pid},%.17g,%.17g,%.17g\n" * len(path) for pid, path in enumerate(paths)
    )
    values = chain.from_iterable(path.ravel().tolist() for path in paths)
    return "t,probe_id,x,speed,trace_rho\n" + template % tuple(values)


def diagnostics_csv_text(result):
    """``step,t,dt,mass,min,max`` rows, one per recorded step."""
    rows = result.diagnostics
    template = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(rows)
    return "step,t,dt,mass,min,max\n" + template % tuple(rows.ravel().tolist())


def pgm_bytes(result):
    """Binary PGM (P5) space-time image of the density.

    One image row per snapshot, earliest at the top; one column per cell,
    leftmost first.  Gray value is ``round(255 * (1 - rho))``: free road
    white, full density black.
    """
    fields = [field for _, field in result.snapshots]
    if not fields:
        raise DomainError("result holds no snapshots")
    width = len(fields[0])
    height = len(fields)
    gray = np.rint(255.0 * (1.0 - np.asarray(fields)))
    gray = np.clip(gray, 0, 255).astype(np.uint8)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + gray.tobytes()


def metadata_dict(result, scenario, overrides=None):
    """Run metadata: the full parameter set, any overrides that were
    applied, which parameters are reconstructions (``true`` per name), the
    package version, and run summary figures; :func:`write_bundle` adds the
    ``outputs`` it wrote."""
    from . import __version__

    return {
        "package": "probeflow",
        "version": __version__,
        "scenario": scenario.name,
        "parameters": scenario.to_dict(),
        "overrides": dict(overrides or {}),
        "reconstructed": {name: True for name in scenario.reconstructed},
        "run": {
            "steps": len(result.log),
            "t_end": result.t_end,
            "cfl": result.cfl,
            "initial_mass": result.initial_mass,
            "final_mass": float(result.log[-1, 3]) if len(result.log) else result.initial_mass,
            "n_snapshots": len(result.snapshots),
        },
    }


@dataclass(frozen=True)
class OutputBundle:
    """Paths of everything one run export wrote."""

    metadata: str
    density_csv: str
    probe_csv: str
    diagnostics_csv: str
    heatmap: str | None = None

    @property
    def paths(self):
        out = [self.metadata, self.density_csv, self.probe_csv, self.diagnostics_csv]
        if self.heatmap is not None:
            out.append(self.heatmap)
        return out


def _write(path, blob):
    with open(path, "wb") as handle:
        handle.write(blob)
    return path


def write_bundle(out_dir, result, scenario, overrides=None, image=True):
    """Export a run: ``density.csv``, ``probe.csv``, ``diagnostics.csv``,
    (default) the ``density.pgm`` heatmap, and last ``metadata.json``,
    whose ``outputs`` names the others."""
    os.makedirs(out_dir, exist_ok=True)
    files = [
        ("density_csv", "density.csv", density_csv_text(result).encode()),
        ("probe_csv", "probe.csv", probe_csv_text(result).encode()),
        ("diagnostics_csv", "diagnostics.csv", diagnostics_csv_text(result).encode()),
    ]
    if image:
        files.append(("heatmap", "density.pgm", pgm_bytes(result)))
    metadata = metadata_dict(result, scenario, overrides)
    metadata["outputs"] = {key: name for key, name, _ in files}
    text = json.dumps(metadata, indent=2, sort_keys=True) + "\n"
    files.append(("metadata", "metadata.json", text.encode()))
    paths = {key: _write(os.path.join(out_dir, name), blob) for key, name, blob in files}
    return OutputBundle(**paths)


# ---------------------------------------------------------------------------
# Readers (every emitted file parses back)
# ---------------------------------------------------------------------------

def _read_table(path, header):
    """The body of a CSV file written by this package as an ``(n, k)``
    float64 array, ``k = len(header)``, parsed in one pass.  The first line
    must be ``header`` exactly; blank lines are skipped; any other row that
    is not ``k`` numbers (a ``#`` line included) is a :class:`DomainError`
    naming the file."""
    with open(path) as handle:
        first = handle.readline()
        if not first:
            raise DomainError(f"{path}: empty file")
        names = first.rstrip("\n").split(",")
        if names != header:
            raise DomainError(f"{path}: expected header {header}, got {names}")
        with warnings.catch_warnings():
            # a header-only file is an empty table, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                raise DomainError(f"{path}: malformed row: {exc}") from None
    if table.size == 0:
        return np.empty((0, len(header)))
    if table.shape[1] != len(header):
        raise DomainError(
            f"{path}: rows have {table.shape[1]} fields, expected {len(header)}"
        )
    return table


def _integral(path, table, column, name):
    """Column ``column`` of ``table``, which must hold whole numbers: the
    float parse would otherwise truncate ``1.5`` without a word."""
    values = table[:, column]
    bad = ~np.isfinite(values) | (values != np.trunc(values))
    if bad.any():
        row = int(np.argmax(bad))
        raise DomainError(
            f"{path}: {name} must be an integer, got {float(values[row])} in data row {row + 1}"
        )
    return values


def read_density_csv(path):
    """Snapshots back from ``density.csv``: a list of ``(t, xs, rhos)``, one
    per run of rows with equal ``t``."""
    ts, xs, rhos = _read_table(path, ["t", "x", "rho"]).T
    bounds = [0, *(np.flatnonzero(ts[1:] != ts[:-1]) + 1).tolist(), len(ts)]
    return [
        (float(ts[a]), xs[a:b].copy(), rhos[a:b].copy())
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a  # only a header-only file has an empty run
    ]


def read_probe_csv(path):
    """Probe paths back from ``probe.csv``: ``{probe_id: (n, 4) array}`` of
    ``(t, x, speed, trace_rho)`` rows, ids in order of first appearance and
    each id's rows in file order."""
    table = _read_table(path, ["t", "probe_id", "x", "speed", "trace_rho"])
    pids = _integral(path, table, 1, "probe_id")
    ids, first, inverse, counts = np.unique(
        pids, return_index=True, return_inverse=True, return_counts=True
    )
    rows = table[:, [0, 2, 3, 4]][np.argsort(inverse, kind="stable")]
    groups = np.split(rows, np.cumsum(counts)[:-1])
    return {int(ids[g]): groups[g] for g in np.argsort(first, kind="stable")}


def read_diagnostics_csv(path):
    """Diagnostics rows back from ``diagnostics.csv``: ``(step, t, dt, mass,
    min, max)`` tuples, ``step`` an int."""
    table = _read_table(path, ["step", "t", "dt", "mass", "min", "max"])
    _integral(path, table, 0, "step")
    return [(int(step), *rest) for step, *rest in table.tolist()]


def read_pgm(path):
    """A P5 image back as a ``(height, width)`` uint8 array."""
    with open(path, "rb") as handle:
        blob = handle.read()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise DomainError(f"{path}: not a binary PGM written by this package")
    try:
        width, height = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError as exc:
        raise DomainError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1:
        raise DomainError(f"{path}: image must be at least 1x1, got {width}x{height}")
    if maxval != 255:
        raise DomainError(f"{path}: expected 8-bit gray, got maxval {maxval}")
    if len(parts[3]) != width * height:
        raise DomainError(
            f"{path}: expected {width * height} pixel bytes, got {len(parts[3])}"
        )
    return np.frombuffer(parts[3], dtype=np.uint8).reshape(height, width)


def read_metadata(path):
    """Metadata back from ``metadata.json``."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: invalid JSON: {exc}") from exc
