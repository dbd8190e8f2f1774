"""Deterministic exports of run results: CSV tables, PGM images, and run
metadata, plus readers that parse every emitted file back.

All floats are rendered with ``%.17g`` (round-trip exact for binary64), all
text files use ``\\n`` newlines, and rows follow a fixed order, so repeated
exports of the same result are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _fmt(value):
    return "%.17g" % float(value)


def density_csv_text(result):
    """``t,x,rho`` rows: snapshots in time order, cells left to right."""
    centers = result.grid.centers
    lines = ["t,x,rho"]
    for t, field in result.snapshots:
        ts = _fmt(t)
        for x, rho in zip(centers, field):
            lines.append(f"{ts},{_fmt(x)},{_fmt(rho)}")
    return "\n".join(lines) + "\n"


def probe_csv_text(result):
    """``t,probe_id,x,speed,trace_rho`` rows: probe-major, then time."""
    lines = ["t,probe_id,x,speed,trace_rho"]
    for pid, path in enumerate(result.probe_paths):
        for t, x, speed, trace in path:
            lines.append(f"{_fmt(t)},{pid},{_fmt(x)},{_fmt(speed)},{_fmt(trace)}")
    return "\n".join(lines) + "\n"


def diagnostics_csv_text(result):
    """``step,t,dt,mass,min,max`` rows, one per recorded step."""
    lines = ["step,t,dt,mass,min,max"]
    for step, t, dt, mass, lo, hi, _, _ in result.log.tolist():
        lines.append(
            f"{int(step)},{_fmt(t)},{_fmt(dt)},{_fmt(mass)},{_fmt(lo)},{_fmt(hi)}"
        )
    return "\n".join(lines) + "\n"


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

    directory: str
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
    return OutputBundle(directory=out_dir, **paths)


# ---------------------------------------------------------------------------
# Readers (every emitted file parses back)
# ---------------------------------------------------------------------------

def _read_rows(path, header):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty file") from None
        if first != header:
            raise DomainError(f"{path}: expected header {header}, got {first}")
        return [row for row in reader if row]


def read_density_csv(path):
    """Snapshots back from ``density.csv``: a list of ``(t, xs, rhos)``."""
    rows = _read_rows(path, ["t", "x", "rho"])
    out = []
    for row in rows:
        t, x, rho = (float(v) for v in row)
        if not out or out[-1][0] != t:
            out.append((t, [], []))
        out[-1][1].append(x)
        out[-1][2].append(rho)
    return [(t, np.asarray(xs), np.asarray(rhos)) for t, xs, rhos in out]


def read_probe_csv(path):
    """Probe paths back from ``probe.csv``: ``{probe_id: (n, 4) array}`` of
    ``(t, x, speed, trace_rho)`` rows."""
    rows = _read_rows(path, ["t", "probe_id", "x", "speed", "trace_rho"])
    paths = {}
    for t, pid, x, speed, trace in rows:
        paths.setdefault(int(pid), []).append(
            (float(t), float(x), float(speed), float(trace))
        )
    return {pid: np.asarray(rows) for pid, rows in paths.items()}


def read_diagnostics_csv(path):
    """Diagnostics rows back from ``diagnostics.csv``."""
    rows = _read_rows(path, ["step", "t", "dt", "mass", "min", "max"])
    return [
        (int(step), float(t), float(dt), float(mass), float(lo), float(hi))
        for step, t, dt, mass, lo, hi in rows
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
    if maxval != 255:
        raise DomainError(f"{path}: expected 8-bit gray, got maxval {maxval}")
    data = np.frombuffer(parts[3][: width * height], dtype=np.uint8)
    if data.size != width * height:
        raise DomainError(f"{path}: truncated pixel data")
    return data.reshape(height, width)


def read_metadata(path):
    """Metadata back from ``metadata.json``."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: invalid JSON: {exc}") from exc
