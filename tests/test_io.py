"""The bundle's CSV writers and readers: byte-identical to the row-by-row
formatters they replace, readers bitwise equal to the one-pass parse they
replace at every block edge, bitwise round trips, malformed files rejected
with ``DomainError`` naming the row, and an export and a read-back whose
memory does not grow with the bundle."""

import tracemalloc
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from probeflow import DomainError, get_scenario, run_scenario, scenario_names
from probeflow import io
from probeflow.io import (
    diagnostics_csv_text,
    density_csv_text,
    pgm_bytes,
    probe_csv_text,
    read_density_csv,
    read_diagnostics_csv,
    read_metadata,
    read_pgm,
    read_probe_csv,
    write_bundle,
)

# ---------------------------------------------------------------------------
# Oracle: the row-by-row formatters, frozen as they were before the array
# writers replaced them.
# ---------------------------------------------------------------------------

def _fmt(value):
    return "%.17g" % float(value)


def oracle_density_csv_text(result):
    centers = result.grid.centers
    lines = ["t,x,rho"]
    for t, field in result.snapshots:
        ts = _fmt(t)
        for x, rho in zip(centers, field):
            lines.append(f"{ts},{_fmt(x)},{_fmt(rho)}")
    return "\n".join(lines) + "\n"


def oracle_probe_csv_text(result):
    lines = ["t,probe_id,x,speed,trace_rho"]
    for pid, path in enumerate(result.probe_paths):
        for t, x, speed, trace in path:
            lines.append(f"{_fmt(t)},{pid},{_fmt(x)},{_fmt(speed)},{_fmt(trace)}")
    return "\n".join(lines) + "\n"


def oracle_diagnostics_csv_text(result):
    lines = ["step,t,dt,mass,min,max"]
    for step, t, dt, mass, lo, hi, _, _ in result.log.tolist():
        lines.append(
            f"{int(step)},{_fmt(t)},{_fmt(dt)},{_fmt(mass)},{_fmt(lo)},{_fmt(hi)}"
        )
    return "\n".join(lines) + "\n"


WRITERS = [
    (density_csv_text, oracle_density_csv_text),
    (probe_csv_text, oracle_probe_csv_text),
    (diagnostics_csv_text, oracle_diagnostics_csv_text),
]


# ---------------------------------------------------------------------------
# Oracle: the one-pass readers, frozen as they were before the block parser
# replaced them: each body parsed whole by one np.loadtxt call.
# ---------------------------------------------------------------------------

def _one_pass_table(path, k):
    with open(path) as handle:
        handle.readline()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
    return table if table.size else np.empty((0, k))


def oracle_read_density_csv(path):
    ts, xs, rhos = _one_pass_table(path, 3).T
    bounds = [0, *(np.flatnonzero(ts[1:] != ts[:-1]) + 1).tolist(), len(ts)]
    return [
        (float(ts[a]), xs[a:b].copy(), rhos[a:b].copy())
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]


def oracle_read_probe_csv(path):
    table = _one_pass_table(path, 5)
    ids, first, inverse, counts = np.unique(
        table[:, 1], return_index=True, return_inverse=True, return_counts=True
    )
    rows = table[:, [0, 2, 3, 4]][np.argsort(inverse, kind="stable")]
    groups = np.split(rows, np.cumsum(counts)[:-1])
    return {int(ids[g]): groups[g] for g in np.argsort(first, kind="stable")}


def oracle_read_diagnostics_csv(path):
    return [(int(step), *rest) for step, *rest in _one_pass_table(path, 6).tolist()]


#: File name -> the reader and its one-pass oracle.
READERS = {
    "density.csv": (read_density_csv, oracle_read_density_csv),
    "probe.csv": (read_probe_csv, oracle_read_probe_csv),
    "diagnostics.csv": (read_diagnostics_csv, oracle_read_diagnostics_csv),
}


def _same_bits(got, want):
    """``got`` is ``want`` bit for bit: the same types, keys in the same
    order, the same shapes, and every float's bits, signed zeros included."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and got.shape == want.shape and got.tobytes() == want.tobytes())
    if isinstance(want, dict):
        return (type(got) is dict and list(got) == list(want)
                and all(_same_bits(got[key], want[key]) for key in want))
    if isinstance(want, (list, tuple)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(map(_same_bits, got, want)))
    if type(want) is float:
        return type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
    return type(got) is type(want) and got == want


def _assert_reads_as_one_pass(path):
    reader, oracle = READERS[path.name]
    assert _same_bits(reader(path), oracle(path)), path.name


@dataclass
class Tables:
    """The parts of a run result the CSV writers read, free of the grid's
    four-cell minimum."""

    centers: np.ndarray
    snapshots: list
    probe_paths: tuple
    log: np.ndarray

    @property
    def grid(self):
        return SimpleNamespace(centers=self.centers)

    @property
    def diagnostics(self):
        return self.log[:, :6]


def _assert_same_text(result):
    for writer, oracle in WRITERS:
        got, want = writer(result).split("\n"), oracle(result).split("\n")
        if got != want:  # name the first differing line, not a diff of megabytes
            i = next(i for i, (a, b) in enumerate(zip(got + [None], want + [None])) if a != b)
            pytest.fail(f"{writer.__name__}, line {i + 1}: {got[i:i + 1]} != {want[i:i + 1]}")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _bitwise(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Writers: byte-identical to the oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", scenario_names())
def test_writers_match_the_row_by_row_oracle_on_every_builtin(name):
    result = run_scenario(get_scenario(name).with_overrides(t_end=0.1))
    assert len(result.log) > 0 and result.probe_paths
    _assert_same_text(result)


def test_no_probes_writes_the_header_alone():
    result = run_scenario(get_scenario("calibration").with_overrides(t_end=0.05))
    result = Tables(result.grid.centers, result.snapshots, (), result.log)
    _assert_same_text(result)
    assert probe_csv_text(result) == "t,probe_id,x,speed,trace_rho\n"


def test_one_cell_and_empty_tables():
    log = np.array([[1.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.0, 0.0]])
    one = Tables(np.array([0.5]), [(0.0, np.array([0.25])), (0.5, np.array([0.75]))],
                 (np.array([[0.0, 0.1, 1.0, 0.2]]),), log)
    _assert_same_text(one)
    assert density_csv_text(one) == "t,x,rho\n0,0.5,0.25\n0.5,0.5,0.75\n"
    assert diagnostics_csv_text(one) == "step,t,dt,mass,min,max\n1,0.5,0.5,0.25,0.25,0.25\n"
    empty = Tables(np.array([0.5]), [], (np.empty((0, 4)),), np.empty((0, 8)))
    _assert_same_text(empty)


# ---------------------------------------------------------------------------
# write_bundle: streamed, every check before the first file
# ---------------------------------------------------------------------------

def _long_calibration(t_end):
    """``calibration`` with two snapshots, so its step rows outweigh its
    density rows."""
    scenario = get_scenario("calibration").with_overrides(t_end=t_end, n_snapshots=2)
    return run_scenario(scenario), scenario


def _export_peak(out_dir, result, scenario):
    """Traced peak bytes of one :func:`write_bundle` call; ``result`` was
    built before tracing starts."""
    tracemalloc.start()
    try:
        write_bundle(out_dir, result, scenario)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_files_are_the_renderers_bytes_across_blocks(tmp_path):
    result, scenario = _long_calibration(5.0)
    assert len(result.log) > io._BLOCK_ROWS  # more than one block of rows
    _assert_same_text(result)
    bundle = write_bundle(tmp_path, result, scenario)
    assert (tmp_path / "density.csv").read_text() == density_csv_text(result)
    assert (tmp_path / "probe.csv").read_text() == probe_csv_text(result)
    assert (tmp_path / "diagnostics.csv").read_text() == diagnostics_csv_text(result)
    assert (tmp_path / "density.pgm").read_bytes() == pgm_bytes(result)
    assert bundle.heatmap == str(tmp_path / "density.pgm")


@pytest.mark.parametrize(
    "damage, message",
    [
        ({"snapshots": []}, "no snapshots"),
        ({"log": np.full((3, 8), np.nan)}, "step numbers must be finite"),
        ({"probe_paths": (np.zeros((3, 3)),)}, "4 columns"),
    ],
)
def test_an_unexportable_result_writes_nothing(tmp_path, damage, message):
    scenario = get_scenario("calibration").with_overrides(t_end=0.05)
    result = replace(run_scenario(scenario), **damage)
    with pytest.raises(DomainError, match=message):
        write_bundle(tmp_path, result, scenario)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(DomainError, match=message):
        write_bundle(tmp_path / "bundle", result, scenario)
    assert list(tmp_path.iterdir()) == []  # not even the directory


def test_pgm_of_snapshots_of_unequal_width_is_a_domain_error():
    ragged = Tables(np.array([0.5]), [(0.0, np.array([0.25])), (0.5, np.array([0.75, 1.0]))],
                    (), np.empty((0, 8)))
    with pytest.raises(DomainError, match="differ in cell count"):
        pgm_bytes(ragged)


def test_exporting_fig_int32_holds_about_one_snapshot(tmp_path):
    scenario = get_scenario("fig_int32")
    result = run_scenario(scenario)
    # 0.72 MB of snapshots, a 5.2 MB bundle; rendered whole it peaked at 9.4 MB
    assert _export_peak(tmp_path, result, scenario) < 1.5e6


def test_export_memory_does_not_grow_with_the_step_count(tmp_path):
    (short, scenario), (long, long_scenario) = _long_calibration(5.0), _long_calibration(10.0)
    assert len(long.log) > 1.9 * len(short.log)
    short_peak = _export_peak(tmp_path / "short", short, scenario)
    long_peak = _export_peak(tmp_path / "long", long, long_scenario)
    # rendered whole, twice the rows made 1.8 times the peak
    assert long_peak < 1.25 * short_peak


def _read_extra(reader, path):
    """Traced bytes of one reader call: its peak above the bytes its result
    keeps, and those kept bytes."""
    tracemalloc.start()
    try:
        value = reader(path)  # noqa: F841 -- kept alive while the memory is read
        kept, peak = tracemalloc.get_traced_memory()
        return peak - kept, kept
    finally:
        tracemalloc.stop()


def _csv_readers(bundle):
    return [
        (read_density_csv, bundle.density_csv),
        (read_probe_csv, bundle.probe_csv),
        (read_diagnostics_csv, bundle.diagnostics_csv),
    ]


def test_reading_fig_int32_holds_about_one_block(tmp_path):
    scenario = get_scenario("fig_int32")
    bundle = write_bundle(tmp_path, run_scenario(scenario), scenario)
    # density.csv is 4.78 MB and keeps 1.45 MB; parsed whole it peaked 2.16 MB above that
    for reader, path in _csv_readers(bundle):
        assert _read_extra(reader, path)[0] < 0.5e6, reader.__name__


def test_read_memory_does_not_grow_with_the_row_count(tmp_path, monkeypatch):
    (short, scenario), (long, long_scenario) = _long_calibration(5.0), _long_calibration(10.0)
    short_bundle = write_bundle(tmp_path / "short", short, scenario)
    long_bundle = write_bundle(tmp_path / "long", long, long_scenario)
    monkeypatch.setattr(io, "_READ_ROWS", 256)  # both files span several blocks
    assert len(long.log) > 1.9 * len(short.log) > 2 * io._READ_ROWS
    for (reader, short_path), (_, long_path) in zip(_csv_readers(short_bundle),
                                                    _csv_readers(long_bundle)):
        short_extra, _ = _read_extra(reader, short_path)
        long_extra, long_kept = _read_extra(reader, long_path)
        # a probe's rows are joined when its path ends, so read_probe_csv may
        # hold its result once more; parsed whole, twice the probe and
        # diagnostics rows made twice the extra
        allowance = long_kept if reader is read_probe_csv else 0
        assert long_extra < 1.25 * short_extra + allowance, reader.__name__


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

def test_header_only_files_read_back_empty_without_warnings(tmp_path, monkeypatch):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert read_density_csv(_write(tmp_path, "d.csv", "t,x,rho\n")) == []
        assert read_probe_csv(_write(tmp_path, "p.csv", "t,probe_id,x,speed,trace_rho\n")) == {}
        assert read_diagnostics_csv(_write(tmp_path, "g.csv", "step,t,dt,mass,min,max\n")) == []
        assert read_density_csv(_write(tmp_path, "b.csv", "t,x,rho\n\n\n")) == []
        # blank lines inside the body and at a block edge, and a body of
        # whole blocks, are not warnings either
        monkeypatch.setattr(io, "_READ_ROWS", 2)
        text = "t,x,rho\n0,0.5,0.25\n\n0,1.5,0.5\n\n1,0.5,0\n1,1.5,1\n"
        assert len(read_density_csv(_write(tmp_path, "e.csv", text))) == 2
        assert len(read_density_csv(_write(tmp_path, "f.csv", "t,x,rho\n0,0.5,0\n0,1.5,0\n"))) == 1
    assert [str(w.message) for w in caught] == []


def test_density_groups_runs_of_equal_t(tmp_path):
    text = "t,x,rho\n0,0.5,0.25\n0,1.5,0.5\n1,0.5,0.75\n\n1,1.5,1\n2,0.5,0\n"
    groups = read_density_csv(_write(tmp_path, "density.csv", text))
    assert [t for t, _, _ in groups] == [0.0, 1.0, 2.0]
    assert all(type(t) is float for t, _, _ in groups)
    assert [xs.tolist() for _, xs, _ in groups] == [[0.5, 1.5], [0.5, 1.5], [0.5]]
    assert [rhos.tolist() for _, _, rhos in groups] == [[0.25, 0.5], [0.75, 1.0], [0.0]]
    # each snapshot owns its arrays: holding one keeps no other alive
    assert all(xs.flags.owndata and rhos.flags.owndata for _, xs, rhos in groups)


def test_probe_rows_out_of_probe_major_order_merge_by_id(tmp_path):
    text = (
        "t,probe_id,x,speed,trace_rho\n"
        "0,2,1,0.5,0.1\n"
        "0,0,5,0.25,0.2\n"
        "1,2,1.5,0.5,0.3\n"
        "1,0,5.25,0.25,0.4\n"
        "2,2,2,0,0.5\n"
    )
    paths = read_probe_csv(_write(tmp_path, "probe.csv", text))
    assert list(paths) == [2, 0] and all(type(pid) is int for pid in paths)
    assert paths[2].tolist() == [[0, 1, 0.5, 0.1], [1, 1.5, 0.5, 0.3], [2, 2, 0, 0.5]]
    assert paths[0].tolist() == [[0, 5, 0.25, 0.2], [1, 5.25, 0.25, 0.4]]
    assert all(path.flags.c_contiguous and path.dtype == np.float64 for path in paths.values())
    # a longer interleaving: each id keeps its rows in file order
    rows = [f"{k},{(7 * k) % 3},{k},0,0" for k in range(60)]
    paths = read_probe_csv(_write(tmp_path, "probe.csv", "t,probe_id,x,speed,trace_rho\n"
                                  + "\n".join(rows) + "\n"))
    assert list(paths) == [0, 1, 2]
    for pid, path in paths.items():
        assert path[:, 0].tolist() == [k for k in range(60) if (7 * k) % 3 == pid]


def test_diagnostics_read_back_as_int_and_float_tuples(tmp_path):
    text = "step,t,dt,mass,min,max\n1,0.5,0.5,0.25,0,1\n2,1,0.5,0.25,-0,1e-300\n"
    rows = read_diagnostics_csv(_write(tmp_path, "diagnostics.csv", text))
    assert rows == [(1, 0.5, 0.5, 0.25, 0.0, 1.0), (2, 1.0, 0.5, 0.25, -0.0, 1e-300)]
    assert all(type(r[0]) is int and all(type(v) is float for v in r[1:]) for r in rows)
    assert np.signbit(rows[1][4])


# every float the readers must return bit for bit
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, 1 - 2**-53, -1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    st.lists(finite, min_size=2, max_size=8),
    st.lists(finite, min_size=0, max_size=6),
    st.integers(1, 3),
    st.integers(1, 5),
)
@example(EDGE_FLOATS, EDGE_FLOATS, 1, 1)
@example(EDGE_FLOATS, EDGE_FLOATS, 3, 4)
def test_finite_floats_round_trip_bitwise(
    tmp_path_factory, values, path_values, n_snap, rows_per_block
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_READ_ROWS", rows_per_block)
        _round_trip(tmp_path_factory.mktemp("round_trip"), values, path_values, n_snap)


def _round_trip(tmp_path, values, path_values, n_snap):
    n = len(values)
    fields = [np.roll(values, k) for k in range(n_snap)]
    times = [float(k) * values[0] for k in range(n_snap)]  # equal times merge
    rows = np.reshape(path_values[: len(path_values) // 4 * 4], (-1, 4))
    log = np.column_stack(
        [np.arange(1, n + 1, dtype=float), np.reshape(values * 7, (n, 7))]
    )
    result = Tables(np.asarray(values), list(zip(times, fields)), (rows, rows[::-1]), log)
    _assert_same_text(result)

    density = read_density_csv(_write(tmp_path, "density.csv", density_csv_text(result)))
    expected = []
    for t, field in zip(times, fields):
        if expected and expected[-1][0] == t:
            expected[-1][1].extend(values)
            expected[-1][2].extend(field)
        else:
            expected.append((t, list(values), list(field)))
    assert len(density) == len(expected)
    for (t, xs, rhos), (t0, xs0, rhos0) in zip(density, expected):
        assert _bitwise(t, t0) and _bitwise(xs, xs0) and _bitwise(rhos, rhos0)

    paths = read_probe_csv(_write(tmp_path, "probe.csv", probe_csv_text(result)))
    if len(rows):
        assert list(paths) == [0, 1]
        assert _bitwise(paths[0], rows) and _bitwise(paths[1], rows[::-1])
    else:
        assert paths == {}

    diagnostics = read_diagnostics_csv(
        _write(tmp_path, "diagnostics.csv", diagnostics_csv_text(result))
    )
    assert [row[0] for row in diagnostics] == list(range(1, n + 1))
    assert _bitwise([row[1:] for row in diagnostics], log[:, 1:6])
    for name in READERS:
        _assert_reads_as_one_pass(tmp_path / name)


# ---------------------------------------------------------------------------
# Block edges: the readers parse a few rows at a time and still return the
# one-pass parse bit for bit
# ---------------------------------------------------------------------------

#: Rows whose runs straddle block edges for every block size the tests use:
#: a snapshot split across blocks, equal t (``-0`` and ``0`` included) on
#: either side of an edge, runs that end at an edge, probe ids that come back.
EDGE_ROWS = {
    "density.csv": [
        "t,x,rho", "-0,0.5,0.25", "0,1.5,-0", "0,2.5,0.5", "0,3.5,1", "1,0.5,0",
        "1,1.5,5e-324", "2,0.5,1", "2,1.5,-0", "2,2.5,0.125", "3,0.5,1",
    ],
    "probe.csv": [
        "t,probe_id,x,speed,trace_rho", "0,2,1,0.5,0.1", "1,2,1.5,0.5,0.3", "2,2,2,0,-0",
        "0,0,5,0.25,0.2", "1,-0,5.25,0.25,0.4", "3,2,2,0,0.5", "2,0,5.5,0,1",
    ],
    "diagnostics.csv": [
        "step,t,dt,mass,min,max", "1,0.5,0.5,0.25,0,1", "2,1,0.5,0.25,-0,1e-300",
        "3,1.5,0.5,0.25,-0,1", "4,2,0.5,0.25,0,1", "5,2.5,0.5,0.25,0,1",
    ],
}

#: The same rows laid out as each reader must take them.
LAYOUTS = {
    "lf": lambda lines: "\n".join(lines) + "\n",
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "no final newline": lambda lines: "\n".join(lines),
    "blank lines at every edge": lambda lines: "\n\n".join(lines) + "\n\n",
    "header only": lambda lines: lines[0] + "\n",
}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("rows_per_block", [1, 2, 3, 4, io._READ_ROWS])
def test_block_edges_read_back_as_the_one_pass_parse(
    tmp_path, monkeypatch, layout, rows_per_block
):
    monkeypatch.setattr(io, "_READ_ROWS", rows_per_block)
    for name, lines in EDGE_ROWS.items():
        path = tmp_path / name
        path.write_bytes(LAYOUTS[layout](lines).encode())
        _assert_reads_as_one_pass(path)
    snapshots = read_density_csv(tmp_path / "density.csv")
    if layout != "header only":
        assert [t for t, _, _ in snapshots] == [-0.0, 1.0, 2.0, 3.0]
        assert np.signbit(snapshots[0][0]) and len(snapshots[0][1]) == 4
        assert list(read_probe_csv(tmp_path / "probe.csv")) == [2, 0]
        assert all(xs.flags.owndata and rhos.flags.owndata for _, xs, rhos in snapshots)


@pytest.mark.parametrize("name", scenario_names())
def test_builtin_bundles_read_back_as_the_one_pass_parse_across_blocks(
    tmp_path, monkeypatch, name
):
    scenario = get_scenario(name).with_overrides(t_end=0.1)
    write_bundle(tmp_path, run_scenario(scenario), scenario)
    monkeypatch.setattr(io, "_READ_ROWS", 7)  # every snapshot spans blocks
    for file_name in READERS:
        _assert_reads_as_one_pass(tmp_path / file_name)


# ---------------------------------------------------------------------------
# Malformed files
# ---------------------------------------------------------------------------

DENSITY = "t,x,rho\n0,0.5,0.25\n"
PROBE = "t,probe_id,x,speed,trace_rho\n0,0,1,0.5,0.1\n"
DIAGNOSTICS = "step,t,dt,mass,min,max\n1,0.5,0.5,0.25,0,1\n"
MALFORMED = [
    (read_density_csv, DENSITY + "abc,0.5,0.25\n"),
    (read_density_csv, DENSITY + "0,0.5\n"),
    (read_density_csv, DENSITY + "0,0.5,0.25,1\n"),
    (read_density_csv, "t,x,rho\n0,0.5\n0,1.5\n"),  # every row short
    (read_density_csv, DENSITY + "# comment\n"),
    (read_density_csv, "# comment\n" + DENSITY),
    (read_density_csv, "t,x\n0,0.5\n"),
    (read_density_csv, "0,0.5,0.25\n"),
    (read_density_csv, ""),
    (read_probe_csv, PROBE + "0,abc,1,0.5,0.1\n"),
    (read_probe_csv, PROBE + "0,0,1\n"),
    (read_probe_csv, PROBE + "0,1.5,1,0.5,0.1\n"),
    (read_probe_csv, PROBE + "0,nan,1,0.5,0.1\n"),
    (read_probe_csv, PROBE + "0,inf,1,0.5,0.1\n"),
    (read_probe_csv, PROBE + "#0,0,1,0.5,0.1\n"),
    (read_diagnostics_csv, DIAGNOSTICS + "2,abc,0.5,0.25,0,1\n"),
    (read_diagnostics_csv, DIAGNOSTICS + "2,1,0.5\n"),
    (read_diagnostics_csv, DIAGNOSTICS + "2.5,1,0.5,0.25,0,1\n"),
    (read_diagnostics_csv, DIAGNOSTICS + "# 2,1,0.5,0.25,0,1\n"),
    (read_diagnostics_csv, "step,t,dt,mass,min\n1,0.5,0.5,0.25,0\n"),
    # undecodable bytes, in a row and in the header
    (read_density_csv, b"t,x,rho\n0,0.5,\xff\n"),
    (read_density_csv, b"\xff,x,rho\n"),
    (read_probe_csv, PROBE.encode() + b"1,0,1,0.5,\xff\n"),
    (read_diagnostics_csv, DIAGNOSTICS.encode() + b"2,1,0.5,0.25,0,\xff\n"),
    (read_metadata, b"\xff\xfe{}"),
]


@pytest.mark.parametrize("reader, text", MALFORMED)
def test_malformed_csv_is_a_domain_error_naming_the_file(tmp_path, reader, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(DomainError, match="bad.csv"):
        reader(path)


#: (reader, header, a good row, rows that are each wrong in another way)
ROW_FAULTS = [
    (read_density_csv, "t,x,rho", "0,0.5,0.25",
     ["abc,0.5,0.25", "0,0.5", "0,0.5,0.25,1", "# comment", "0,0.5,\udcff"]),
    (read_probe_csv, "t,probe_id,x,speed,trace_rho", "0,0,1,0.5,0.1",
     ["0,abc,1,0.5,0.1", "0,0,1", "#0,0,1,0.5,0.1", "0,1.5,1,0.5,0.1", "0,nan,1,0.5,0.1"]),
    (read_diagnostics_csv, "step,t,dt,mass,min,max", "1,0.5,0.5,0.25,0,1",
     ["2,abc,0.5,0.25,0,1", "2,1,0.5", "# 2,1,0.5,0.25,0,1", "2.5,1,0.5,0.25,0,1"]),
]


@pytest.mark.parametrize("bad_row", [1, 3, 5, 11])
@pytest.mark.parametrize("rows_per_block", [4, io._READ_ROWS])
@pytest.mark.parametrize("reader, header, good, faults", ROW_FAULTS)
def test_reader_errors_name_the_data_row_counted_from_the_first(
    tmp_path, monkeypatch, reader, header, good, faults, rows_per_block, bad_row
):
    # with 4-row blocks, row 5 opens the second block and row 11 lies in the third
    monkeypatch.setattr(io, "_READ_ROWS", rows_per_block)
    path = tmp_path / "bad.csv"
    for fault in faults:
        rows = [good] * 12
        rows[bad_row - 1] = fault
        # blank lines are not data rows
        text = header + "\n\n" + "\n".join(rows[:6]) + "\n\n" + "\n".join(rows[6:]) + "\n"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))  # \udcff: the byte 0xff
        with pytest.raises(DomainError, match=rf"bad\.csv: .*data row {bad_row}\b"):
            reader(path)


def test_well_formed_fixtures_read(tmp_path):
    assert len(read_density_csv(_write(tmp_path, "d.csv", DENSITY))) == 1
    assert list(read_probe_csv(_write(tmp_path, "p.csv", PROBE))) == [0]
    assert read_diagnostics_csv(_write(tmp_path, "g.csv", DIAGNOSTICS)) == [(1, 0.5, 0.5, 0.25, 0.0, 1.0)]


@pytest.mark.parametrize(
    "blob",
    [
        b"P5\n-1 -1\n255\n\x00",
        b"P5\n0 3\n255\n",
        b"P5\n3 0\n255\n",
        b"P5\n2 2\n255\n\x00\x01\x02",  # truncated
        b"P5\n2 2\n255\n\x00\x01\x02\x03\x04",  # trailing bytes
        b"P5\n2\n255\n\x00\x01",
        b"P5\n2 2\n65535\n\x00\x01\x02\x03",
        b"P6\n2 2\n255\n\x00\x01\x02\x03",
    ],
)
def test_malformed_pgm_is_a_domain_error_naming_the_file(tmp_path, blob):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(DomainError, match="bad.pgm"):
        read_pgm(path)


def test_pgm_pixels_may_hold_newline_bytes(tmp_path):
    path = tmp_path / "ok.pgm"
    path.write_bytes(b"P5\n3 1\n255\n\n\x00\n")
    assert read_pgm(path).tolist() == [[10, 0, 10]]


def test_a_block_of_short_rows_names_its_first_row(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_READ_ROWS", 2)  # the short rows are the whole second block
    path = _write(tmp_path, "bad.csv", "t,x,rho\n0,0.5,0.25\n0,1.5,0.5\n1,0.5\n1,1.5\n")
    with pytest.raises(DomainError, match=r"bad\.csv: data row 3 has 2 fields, expected 3"):
        read_density_csv(path)
