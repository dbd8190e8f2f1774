"""Deterministic exports of run results: CSV tables, PGM images, and run
metadata, plus readers that parse every emitted file back.

All floats are rendered with ``%.17g`` (round-trip exact for binary64), all
text files use ``\\n`` newlines, and rows follow a fixed order, so repeated
exports of the same result are byte-identical.  Each file has one chunk
generator: ``density.csv`` and ``density.pgm`` render one snapshot per
chunk, ``probe.csv`` and ``diagnostics.csv`` a fixed block of rows, each
CSV chunk with one ``%`` over a row template, every value formatted once.
:func:`write_bundle` writes each chunk as it is rendered, so its memory
depends on one snapshot, not on the whole bundle.

The CSV readers share one block parser: it checks the header, then parses
the open file in blocks of at most :data:`_READ_ROWS` rows, one
``numpy.loadtxt`` call each.  They return arrays: each snapshot's cells
(one run of equal ``t``, joined across block edges, in arrays of its own),
each probe's rows, and the diagnostics as tuples.  So a reader holds its
result, one block, and the pieces of the run it is joining; a probe's run
is its whole path, so ``read_probe_csv`` can hold its result twice.  A file
that does not have the exact header (or is empty), a row that is not the
header's number of numbers (``#`` lines and undecodable bytes included), a
non-integral ``step`` or ``probe_id``, a PGM whose dimensions or pixel count
do not match, and ``metadata.json`` that is not UTF-8 JSON are each a
:class:`DomainError` naming the file; a CSV error names the row as well,
counted from 1 at the first data row (blank lines are skipped, not
counted).  A header-only CSV reads back as an empty table.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import DomainError


#: Rows of ``probe.csv`` and ``diagnostics.csv`` rendered per chunk.
_BLOCK_ROWS = 1024

#: Data rows each CSV reader parses per block.  Reading at the same speed,
#: 4 096 rows left the ``queue`` benchmark's peak RSS about 0.7 MB below
#: 1 024 rows, and 8 192 no lower.
_READ_ROWS = 4096


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
    """The chunks of ``density.pgm``, a binary PGM (P5) space-time image of
    the density: the header, then one image row per snapshot, earliest at
    the top; one column per cell, leftmost first.  Gray value is
    ``round(255 * (1 - rho))``: free road white, full density black.

    Every snapshot has the grid's cell count, which
    :func:`_density_csv_chunks` checks first."""
    fields = [field for _, field in result.snapshots]
    if not fields:
        raise DomainError("result holds no snapshots")

    def gray(field):
        row = np.rint(255.0 * (1.0 - np.asarray(field)))
        return np.clip(row, 0, 255).astype(np.uint8).tobytes()

    header = f"P5\n{len(fields[0])} {len(fields)}\n255\n".encode("ascii")
    return chain([header], map(gray, fields))


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

def _malformed(path, k, before):
    """The :class:`DomainError` for the first data row after the first
    ``before`` that is not ``k`` numbers, found by parsing the rows one at a
    time: a file's error path only, so every message names one row counted
    from 1 at the file's first data row, whatever block it lies in."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        handle.readline()
        rows = (line.rstrip("\n") for line in handle if line != "\n")
        for row, text in enumerate(islice(rows, before, None), before + 1):
            fields = len(text.split(","))
            if fields != k:
                return DomainError(f"{path}: data row {row} has {fields} fields, expected {k}")
            try:
                text.encode("utf-8")  # an undecodable byte reads as a lone surrogate
                np.loadtxt([text], delimiter=",", comments=None)
            except ValueError:
                return DomainError(f"{path}: data row {row} is not {k} numbers: {text!r}")
    return DomainError(f"{path}: malformed data after data row {before}")


def _read_blocks(path, header):
    """The body of a CSV file written by this package, parsed from the open
    file in blocks of at most :data:`_READ_ROWS` rows: yields ``(before,
    block)``, ``block`` an ``(m, k)`` float64 array, ``k = len(header)``,
    and ``before`` the number of data rows read before it.  The first line
    must be ``header`` exactly; blank lines are skipped; any other row that
    is not ``k`` numbers (a ``#`` line or an undecodable byte included) is a
    :class:`DomainError` naming the file and the row."""
    k = len(header)
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        first = handle.readline()
        if not first:
            raise DomainError(f"{path}: empty file")
        names = first.rstrip("\n").split(",")
        if names != header:
            raise DomainError(f"{path}: expected header {header}, got {names}")
        before = 0
        while True:
            with warnings.catch_warnings():
                # a blank line, or no row left, is not a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
                try:
                    block = np.loadtxt(
                        handle, delimiter=",", comments=None, ndmin=2, max_rows=_READ_ROWS
                    )
                except ValueError:
                    raise _malformed(path, k, before) from None
            if len(block) == 0:
                return
            if block.shape[1] != k:
                raise _malformed(path, k, before)
            yield before, block
            if len(block) < _READ_ROWS:
                return
            before += len(block)


def _integral(path, blocks, column, name):
    """``blocks``, whose column ``column`` must hold whole numbers: the float
    parse would otherwise truncate ``1.5`` without a word."""
    for before, block in blocks:
        values = block[:, column]
        bad = ~np.isfinite(values) | (values != np.trunc(values))
        if bad.any():
            row = int(np.argmax(bad))
            raise DomainError(
                f"{path}: {name} must be an integer, got {float(values[row])} "
                f"in data row {before + row + 1}"
            )
        yield before, block


def _runs(blocks, column, columns):
    """The runs of rows with equal ``column`` in ``blocks``, each joined
    across block edges: yields ``(key, parts)``, ``key`` the run's first
    value in ``column`` and ``parts`` the run's ``columns``, one piece per
    block (a view for a slice of columns, else a copy)."""
    key, parts = None, []
    for _, block in blocks:
        keys = block[:, column]
        cuts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(block)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            if not parts or keys[a] != key:  # only a block's first piece may go on a run
                if parts:
                    yield key, parts
                key, parts = keys[a], []
            parts.append(block[a:b, columns])
    if parts:
        yield key, parts


def read_density_csv(path):
    """Snapshots back from ``density.csv``: a list of ``(t, xs, rhos)``, one
    per run of rows with equal ``t``, each array its own."""
    snapshots = []
    for t, parts in _runs(_read_blocks(path, ["t", "x", "rho"]), 0, slice(1, 3)):
        xs, rhos = (np.concatenate([part[:, c] for part in parts]) for c in (0, 1))
        snapshots.append((float(t), xs, rhos))
    return snapshots


def read_probe_csv(path):
    """Probe paths back from ``probe.csv``: ``{probe_id: (n, 4) array}`` of
    ``(t, x, speed, trace_rho)`` rows, ids in order of first appearance and
    each id's rows in file order."""
    blocks = _read_blocks(path, ["t", "probe_id", "x", "speed", "trace_rho"])
    paths = {}
    for pid, parts in _runs(_integral(path, blocks, 1, "probe_id"), 1, [0, 2, 3, 4]):
        paths.setdefault(int(pid), []).extend(parts)
    return {pid: np.concatenate(parts) for pid, parts in paths.items()}


def read_diagnostics_csv(path):
    """Diagnostics rows back from ``diagnostics.csv``: ``(step, t, dt, mass,
    min, max)`` tuples, ``step`` an int."""
    blocks = _read_blocks(path, ["step", "t", "dt", "mass", "min", "max"])
    return [
        (int(step), *rest)
        for _, block in _integral(path, blocks, 0, "step")
        for step, *rest in block.tolist()
    ]


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
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DomainError(f"{path}: invalid JSON: {exc}") from exc
