"""The block writer of ``dkp currents`` and of the ``--csv`` residual tables
against a frozen copy of the writer it replaced, which built whole-grid
column lists and one dict per point and ran ``json.dump``.  CSV, JSON and
the stdout preview must stay byte-identical; the memory the writer holds
must not grow with the grid."""

import contextlib
import io
import itertools
import json
import tracemalloc

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
    grid_path = str(tmp_path / "g.dkp5")
    store_grid(grid, grid_path)
    if name == "near_overflow":
        assert np.abs(compute_currents_grid(build_representation("float"), grid).S).max() > 1e300
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
