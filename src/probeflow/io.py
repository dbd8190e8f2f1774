"""Deterministic exports of run results: CSV tables, PGM images, and run
metadata, plus readers that parse every emitted file back.

All floats are rendered with ``%.17g`` (round-trip exact for binary64), all
text files use ``\\n`` newlines, and rows follow a fixed order, so repeated
exports of the same result are byte-identical.  Each file has one chunk
generator: ``density.csv`` and ``density.pgm`` render one snapshot per
chunk, ``probe.csv`` and ``diagnostics.csv`` a fixed block of rows, each
CSV chunk with one ``%`` over a row template, every value formatted once.
:func:`write_bundle` writes each chunk as it is rendered, so its memory
depends on one snapshot, not on the whole bundle; the ``*_text`` and
:func:`pgm_bytes` renderers join the same chunks.

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


#: Rows of ``probe.csv`` and ``diagnostics.csv`` rendered per chunk.
_BLOCK_ROWS = 1024


def _density_csv_chunks(result):
    """The chunks of ``density.csv``: the header, then one per snapshot.

    The cell centres are formatted once and each snapshot's ``t`` once; a
    snapshot is then one ``%`` over its row template (``"{t},{x},%.17g\\n"``
    per cell) with its field."""
    xs = ["%.17g" % x for x in result.grid.centers.tolist()]
    for t, field in result.snapshots:
        if len(field) != len(xs):
            raise DomainError(f"snapshot at t={t} has {len(field)} cells, the grid {len(xs)}")
    cells = [""] + [f",{x},%.17g\n" for x in xs]
    snapshots = (
        ("%.17g" % t).join(cells) % tuple(field.tolist()) for t, field in result.snapshots
    )
    return chain(["t,x,rho\n"], snapshots)


def _blocks(row, table):
    """``table``, an ``(n, k)`` array, in blocks of :data:`_BLOCK_ROWS` rows,
    each block one ``%`` over ``row`` repeated."""
    full = row * _BLOCK_ROWS
    for a in range(0, len(table), _BLOCK_ROWS):
        block = table[a : a + _BLOCK_ROWS]
        template = full if len(block) == _BLOCK_ROWS else row * len(block)
        yield template % tuple(block.ravel().tolist())


def _probe_csv_chunks(result):
    """The chunks of ``probe.csv``: the header, then each probe's rows in
    blocks."""
    paths = result.probe_paths
    for pid, path in enumerate(paths):
        if np.shape(path)[1:] != (4,):
            raise DomainError(f"probe {pid} path must have 4 columns, got shape {np.shape(path)}")
    rows = (_blocks(f"%.17g,{pid},%.17g,%.17g,%.17g\n", path) for pid, path in enumerate(paths))
    return chain(["t,probe_id,x,speed,trace_rho\n"], chain.from_iterable(rows))


def _diagnostics_csv_chunks(result):
    """The chunks of ``diagnostics.csv``: the header, then the rows in
    blocks."""
    rows = result.diagnostics
    if not np.isfinite(rows[:, 0]).all():
        raise DomainError("diagnostics step numbers must be finite")
    row = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
    return chain(["step,t,dt,mass,min,max\n"], _blocks(row, rows))


def _pgm_chunks(result):
    """The chunks of ``density.pgm``: the header, then one image row per
    snapshot."""
    fields = [field for _, field in result.snapshots]
    if not fields:
        raise DomainError("result holds no snapshots")
    width = len(fields[0])
    if any(len(field) != width for field in fields):
        raise DomainError("snapshots differ in cell count")

    def gray(field):
        row = np.rint(255.0 * (1.0 - np.asarray(field)))
        return np.clip(row, 0, 255).astype(np.uint8).tobytes()

    header = f"P5\n{width} {len(fields)}\n255\n".encode("ascii")
    return chain([header], map(gray, fields))


def density_csv_text(result):
    """``t,x,rho`` rows: snapshots in time order, cells left to right."""
    return "".join(_density_csv_chunks(result))


def probe_csv_text(result):
    """``t,probe_id,x,speed,trace_rho`` rows: probe-major, then time."""
    return "".join(_probe_csv_chunks(result))


def diagnostics_csv_text(result):
    """``step,t,dt,mass,min,max`` rows, one per recorded step."""
    return "".join(_diagnostics_csv_chunks(result))


def pgm_bytes(result):
    """Binary PGM (P5) space-time image of the density.

    One image row per snapshot, earliest at the top; one column per cell,
    leftmost first.  Gray value is ``round(255 * (1 - rho))``: free road
    white, full density black.
    """
    return b"".join(_pgm_chunks(result))


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


def _write(path, chunks):
    with open(path, "wb") as handle:
        handle.writelines(chunks)
    return path


def write_bundle(out_dir, result, scenario, overrides=None, image=True):
    """Export a run: ``density.csv``, ``probe.csv``, ``diagnostics.csv``,
    (default) the ``density.pgm`` heatmap, and last ``metadata.json``,
    whose ``outputs`` names the others.

    Every check runs before the first file is opened, so a result that
    cannot be exported raises :class:`DomainError` and writes nothing; each
    file is then written chunk by chunk as it is rendered."""
    files = [
        ("density_csv", "density.csv", map(str.encode, _density_csv_chunks(result))),
        ("probe_csv", "probe.csv", map(str.encode, _probe_csv_chunks(result))),
        ("diagnostics_csv", "diagnostics.csv", map(str.encode, _diagnostics_csv_chunks(result))),
    ]
    if image:
        files.append(("heatmap", "density.pgm", _pgm_chunks(result)))
    metadata = metadata_dict(result, scenario, overrides)
    metadata["outputs"] = {key: name for key, name, _ in files}
    text = json.dumps(metadata, indent=2, sort_keys=True) + "\n"
    files.append(("metadata", "metadata.json", [text.encode()]))
    os.makedirs(out_dir, exist_ok=True)
    paths = {key: _write(os.path.join(out_dir, name), chunks) for key, name, chunks in files}
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
