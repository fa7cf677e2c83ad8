"""The block writer of ``dkp currents`` and of the ``--csv`` residual tables
against a frozen copy of the writer it replaced, which built whole-grid
column lists and one dict per point and ran ``json.dump``.  CSV, JSON and
the stdout preview must stay byte-identical; the memory the writer holds
must not grow with the grid."""

import contextlib
import errno
import io
import itertools
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import dkp5.cli as cli
from dkp5 import FieldGrid, random_fourier_field, store_grid
from dkp5.algebra import build_representation
from dkp5.bilinears import compute_currents_grid, current_columns
from dkp5.grids import load_grid
from dkp5.reports import write_report


# --- frozen copy of the previous writer --------------------------------------

def _point_columns(extents, columns):
    index = np.indices(extents).reshape(4, -1).tolist()
    out = dict(zip(("it", "ix", "iy", "iz"), index))
    for name, values in columns.items():
        out[name] = np.asarray(values).reshape(-1).tolist()
    return out


def _rows(columns, limit=None):
    return [dict(zip(columns, row)) for row in itertools.islice(zip(*columns.values()), limit)]


def _write_csv(path, columns):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in zip(*columns.values()))


def _old_currents(grid_path, json_path, csv_path):
    """The previous ``cmd_currents`` after its path check; returns stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        grid = load_grid(grid_path)
        cg = compute_currents_grid(build_representation("float"), grid)
        columns = _point_columns(grid.extents, current_columns(cg))
        if json_path:
            write_report(json_path, {"extents": list(grid.extents), "points": _rows(columns)})
        if csv_path:
            _write_csv(csv_path, columns)
        if not json_path and not csv_path:
            print(json.dumps(_rows(columns, 4), indent=2))
        print(f"{grid.n_points} points, mean S = {float(np.mean(cg.S)):.6g}")
    return out.getvalue()


def _old_residual_csv(path, mask, residuals):
    columns = {"masked": mask.astype(int)}
    for name, values in residuals.items():
        columns[name] = np.abs(values).reshape(mask.shape + (-1,)).max(axis=-1)
    _write_csv(path, _point_columns(mask.shape, columns))


# --- inputs -----------------------------------------------------------------

def _field(extents, seed, transform=None):
    grid, _ = random_fourier_field(extents, (0.1,) * 4, n_modes=3, seed=seed)
    values = grid.values if transform is None else transform(grid.values)
    return FieldGrid(grid.extents, grid.spacing, grid.kind, values)


FIELDS = {
    # the currents_csv workload's input (random_fourier_field, 6^4, spacing 0.1, 3 modes)
    "currents_csv_6^4": lambda: _field((6,) * 4, 1),
    "8^4": lambda: _field((8,) * 4, 3),
    # real Phi: ImK is +0.0 on both sides of the diagonal, so those mirrors are formatted
    "real_valued": lambda: _field((6,) * 4, 2, lambda v: v.real.copy()),
    "times_i": lambda: _field((6,) * 4, 2, lambda v: 1j * v),
    "near_overflow": lambda: _field((4,) * 4, 5, lambda v: 1e152 * v),
    # 210 points: the last block is short
    "ragged_5x3x7x2": lambda: _field((5, 3, 7, 2), 6),
}


@pytest.mark.parametrize("name", FIELDS)
def test_currents_outputs_are_byte_identical(tmp_path, capsys, name):
    grid = FIELDS[name]()
    if name == "near_overflow":
        assert np.abs(compute_currents_grid(build_representation("float"), grid).S).max() > 1e300
    _assert_currents_outputs_match(tmp_path, capsys, grid)


def _assert_currents_outputs_match(tmp_path, capsys, grid):
    grid_path = str(tmp_path / "g.dkp5")
    store_grid(grid, grid_path)
    new_json, new_csv = str(tmp_path / "new.json"), str(tmp_path / "new.csv")
    old_json, old_csv = str(tmp_path / "old.json"), str(tmp_path / "old.csv")

    assert cli.main(["currents", "--grid", grid_path, "--json", new_json, "--csv", new_csv]) == 0
    new_out = capsys.readouterr().out
    assert new_out == _old_currents(grid_path, old_json, old_csv)
    for new, old in ((new_json, old_json), (new_csv, old_csv)):
        with open(new, "rb") as a, open(old, "rb") as b:
            assert a.read() == b.read(), new

    assert cli.main(["currents", "--grid", grid_path]) == 0
    assert capsys.readouterr().out == _old_currents(grid_path, None, None)


@pytest.mark.parametrize("command", ["invert", "residuals"])
def test_residual_csv_is_byte_identical(tmp_path, monkeypatch, command):
    _assert_residual_csv_matches(tmp_path, monkeypatch, command)


def _assert_residual_csv_matches(tmp_path, monkeypatch, command):
    grid_path = tmp_path / "pw.dkp5"
    assert cli.main(["manufacture", "--p", "1.25,0.75,0,0", "--A", "0,0,0,0", "--m", "1",
                     "--e", "1", "--extents", "9,5,3,4", "--spacing", "0.1",
                     "-o", str(grid_path)]) == 0
    texts = []
    for label in ("new", "old"):
        if label == "old":
            monkeypatch.setattr(cli, "_residual_csv", _old_residual_csv)
        path = tmp_path / f"{label}.csv"
        cli.main([command, "--grid", str(grid_path), "--fd", "--csv", str(path)])
        texts.append(path.read_bytes())
    assert texts[0] == texts[1] and texts[0].count(b"\r\n") == 1 + 9 * 5 * 3 * 4


@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_currents_writer_memory_does_not_grow_with_the_grid(tmp_path, flag):
    """Peak traced memory of ``dkp currents`` grows by at most 1,200 B per
    point from 6^4 to 8^4: the current fields (720 B per point) and the grid,
    not text for every point."""
    peaks = []
    for extent in (6, 8):
        grid_path = str(tmp_path / f"g{extent}.dkp5")
        store_grid(_field((extent,) * 4, 1), grid_path)
        argv = ["currents", "--grid", grid_path, flag, str(tmp_path / "out")]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (8 ** 4 - 6 ** 4) <= 1200, peaks


# --- one to three row-formatting processes ------------------------------------

def _cpus(monkeypatch, cpus, cap=cli._ROW_PROCESSES):
    """Let the writer see ``cpus`` CPUs and use at most ``cap`` processes;
    returns the pids of the workers it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(cli, "_ROW_PROCESSES", cap)
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


WORKER_FIELDS = {
    "currents_csv_6^4": FIELDS["currents_csv_6^4"],  # 11 blocks
    "ragged_5x3x7x2": FIELDS["ragged_5x3x7x2"],  # 2 blocks, fewer than 3 CPUs
    "one_block_4x4x4x2": lambda: _field((4, 4, 4, 2), 7),  # 128 points
}

# (CPUs, cap): 3 CPUs at the shipped cap of 2 fork one worker; a cap of 3
# holds the split over three processes to the same bytes.
CPU_COUNTS = pytest.mark.parametrize("cpus,cap", [(1, 2), (2, 2), (3, 2), (3, 3)],
                                     ids=["1cpu", "2cpus", "3cpus", "3cpus_cap3"])


@CPU_COUNTS
@pytest.mark.parametrize("name", WORKER_FIELDS)
def test_currents_outputs_for_each_cpu_count(tmp_path, capsys, monkeypatch, name, cpus, cap):
    assert cli._ROW_PROCESSES == 2
    grid = WORKER_FIELDS[name]()
    forks = _cpus(monkeypatch, cpus, cap)
    _assert_currents_outputs_match(tmp_path, capsys, grid)
    # the file run forks; the stdout preview, 4 rows, does not
    assert len(forks) == min(cpus, cap, -(-grid.n_points // cli._BLOCK_ROWS)) - 1


@CPU_COUNTS
@pytest.mark.parametrize("command", ["invert", "residuals"])
def test_residual_csv_for_each_cpu_count(tmp_path, monkeypatch, command, cpus, cap):
    forks = _cpus(monkeypatch, cpus, cap)
    _assert_residual_csv_matches(tmp_path, monkeypatch, command)
    assert len(forks) == min(cpus, cap) - 1  # 540 points, 5 blocks


@pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
def test_currents_outputs_without_fork_or_affinity(tmp_path, capsys, monkeypatch, missing):
    """Where ``os`` lacks either (``sched_getaffinity`` on macOS, ``fork`` on
    Windows), one process writes the same bytes."""
    monkeypatch.delattr(os, missing)
    _assert_currents_outputs_match(tmp_path, capsys, FIELDS["currents_csv_6^4"]())


def test_fork_warning_is_ignored(tmp_path, capsys, monkeypatch):
    """CPython 3.12 and later warn in the caller at each fork in a process
    with more than one thread; under an error filter the fork must still
    hand back its worker."""
    forks = _cpus(monkeypatch, 2)
    counted = os.fork

    def warning():
        pid = counted()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_currents_outputs_match(tmp_path, capsys, FIELDS["currents_csv_6^4"]())
    assert len(forks) == 1
    _assert_no_child_left()


def _currents_argv(tmp_path):
    grid_path = str(tmp_path / "g.dkp5")
    store_grid(FIELDS["currents_csv_6^4"](), grid_path)
    return ["currents", "--grid", grid_path, "--csv", str(tmp_path / "out.csv"),
            "--json", str(tmp_path / "out.json")]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_failed_cleanly(code, err):
    """Exit 2 with one error line, from the caller or a worker, and no worker left."""
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
    _assert_no_child_left()


def test_failed_write_reaps_the_workers(tmp_path, capfd, monkeypatch):
    argv = _currents_argv(tmp_path)
    forks = _cpus(monkeypatch, 3, cap=3)
    writes, real_open = [], open

    class Full:
        """An output file; the sixth write to either fails, as on a full
        disk.  It is block 1's CSV text, a worker's, after both headers,
        block 0 (the caller's) and block 1's JSON text."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes.append(text)
            if len(writes) == 6:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(text)

    def full_open(file, mode="r", **kwargs):  # the worker pipes open as they are
        fh = real_open(file, mode, **kwargs)
        return Full(fh) if mode == "w" else fh

    monkeypatch.setattr(cli, "open", full_open, raising=False)
    _assert_failed_cleanly(cli.main(argv), capfd.readouterr().err)
    assert len(writes) == 6 and len(forks) == 2


@pytest.mark.parametrize("how,message", [
    ("raises", "a row-formatting worker process failed: RuntimeError: worker failed"),
    ("exits", "a row-formatting worker process ended before sending all its rows")])
def test_worker_that_dies_is_an_error(tmp_path, capfd, monkeypatch, how, message):
    argv = _currents_argv(tmp_path)
    _cpus(monkeypatch, 2)
    caller, text_blocks = os.getpid(), cli._text_blocks

    def dying(*args, **kwargs):
        for i, block in enumerate(text_blocks(*args, **kwargs)):
            if i == 2 and os.getpid() != caller:  # the worker's third block of five
                if how == "exits":
                    os._exit(1)
                raise RuntimeError("worker failed")
            yield block

    monkeypatch.setattr(cli, "_text_blocks", dying)
    code = cli.main(argv)
    err = capfd.readouterr().err
    assert err == f"error: {message}\n"
    _assert_failed_cleanly(code, err)


def test_interrupt_reaps_the_workers(tmp_path, monkeypatch):
    argv = _currents_argv(tmp_path)
    _cpus(monkeypatch, 3, cap=3)
    received, receive = [], cli._receive

    def interrupted(pipe):
        received.append(pipe)
        if len(received) == 3:
            raise KeyboardInterrupt
        return receive(pipe)

    monkeypatch.setattr(cli, "_receive", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(argv)
    _assert_no_child_left()
