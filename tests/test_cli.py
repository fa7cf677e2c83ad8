import csv
import json
import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest

import dkp5.cli
from dkp5 import FieldGrid, WAVEFUNCTION, store_grid
from dkp5.bilinears import _fierz_numerators
from dkp5.cli import main


def run(*argv):
    return main(list(argv))


def test_verify_algebra_exact(tmp_path):
    out = tmp_path / "report.json"
    assert run("verify-algebra", "--mode", "exact", "--max-word-len", "2",
               "--json", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["basis_rank"] == 25
    assert report["word_sweep"]["words"] == 20
    assert report["word_sweep"]["mismatches"] == 0
    names = {e["identity"] for e in report["identities"]}
    assert "defining_trilinear" in names and "zeta_relations" in names
    assert all(e["pass"] for e in report["identities"])


def test_verify_algebra_word_len_zero_skips_sweep(tmp_path):
    out = tmp_path / "report.json"
    assert run("verify-algebra", "--max-word-len", "0", "--json", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["word_sweep"] is None


def test_verify_algebra_float_mode():
    assert run("verify-algebra", "--mode", "float", "--max-word-len", "2") == 0


def test_verify_algebra_fierz_sweep():
    assert run("verify-algebra", "--max-word-len", "0", "--fierz-samples", "5",
               "--seed", "3") == 0


def test_corrupt_rep_exits_one(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert run("verify-algebra", "--corrupt-generator", "1", "--max-word-len", "0",
               "--json", str(out)) == 1
    captured = capsys.readouterr().out
    assert "defining_trilinear" in captured
    report = json.loads(out.read_text())
    assert "defining_trilinear" in report["failed"]


def test_corrupt_rep_reports_first_failure(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert run("verify-algebra", "--corrupt-generator", "1", "--max-word-len", "0",
               "--json", str(out)) == 1
    assert "defining_trilinear at case (0, 1, 1) entry (0, 4)," in capsys.readouterr().out
    entries = {e["identity"]: e for e in json.loads(out.read_text())["identities"]}
    assert entries["defining_trilinear"]["first_failure"] == {"case": [0, 1, 1], "entry": [0, 4]}
    assert entries["trace_quartic"]["first_failure"] == {"case": [0, 0, 1, 1], "entry": []}
    # Passing families keep the plain entry schema.
    assert "first_failure" not in entries["eta_relations"]


def test_verify_algebra_fierz_sweep_report(tmp_path):
    out = tmp_path / "report.json"
    assert run("verify-algebra", "--max-word-len", "0", "--fierz-samples", "200",
               "--json", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["fierz_sweep"] == {"samples": 200, "failures": 0, "max_abs": 0.0}
    assert all("first_failure" not in e for e in report["identities"])


def test_verify_algebra_fierz_sweep_counts_and_sizes_failing_samples(tmp_path, monkeypatch):
    """Samples whose residual numerators are not all zero count as failures,
    and max_abs is the largest |residual| among them."""
    seen = {}

    def shifted(rep, phis, cs=None):
        lead, num, den = _fierz_numerators(rep, phis, cs)
        num = num.astype(object)
        num[0, 1, 7] += 5  # R_H of sample 1, real part
        num[1, 3, 30] -= 3  # R_C of sample 3, imaginary part
        seen["den"] = den
        return lead, num, den

    monkeypatch.setattr(dkp5.cli, "_fierz_numerators", shifted)
    out = tmp_path / "report.json"
    assert run("verify-algebra", "--max-word-len", "0", "--fierz-samples", "5",
               "--json", str(out)) == 1
    report = json.loads(out.read_text())
    want = max(float(Fraction(5, int(seen["den"][1, 0]))), float(Fraction(3, int(seen["den"][3, 0]))))
    assert report["fierz_sweep"] == {"samples": 5, "failures": 2, "max_abs": want}
    assert report["failed"] == ["fierz_rearrangement_sweep"]


def test_manufacture_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    def allocate(*args):
        raise MemoryError("Unable to allocate 1.19 PiB for an array with shape "
                          "(2000, 2000, 2000, 2000, 5) and data type complex128")

    monkeypatch.setattr(dkp5.cli, "manufacture_plane_wave", allocate)
    out = tmp_path / "x.dkp5"
    assert run("manufacture", "--p", "1,0,0,0", "--A", "0,0,0,0", "--m", "1", "--e", "1",
               "--extents", "2000,2000,2000,2000", "--spacing", "0.1", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory") and "1.19 PiB" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_reduce_word_json(tmp_path, capsys):
    assert run("reduce-word", "0,1,0") == 0
    payload = json.loads(capsys.readouterr().out)
    # the cubic rewrite collapses b0 b1 b0 to zero
    assert all(entry == [0, 1, 0, 1] for entry in payload["coefficients"])
    assert run("reduce-word", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    nonzero = [i for i, entry in enumerate(payload["coefficients"]) if entry[0] != 0]
    assert nonzero == [payload["labels"].index("b2")]


def test_reduce_word_bad_index():
    assert run("reduce-word", "0,7") == 2


def _manufacture(tmp_path, extents="8,1,1,1", spacing="0.1"):
    grid_path = tmp_path / "pw.dkp5"
    code = run("manufacture", "--p", "1,0,0,0", "--A", "0,0,0,0", "--m", "1",
               "--e", "1", "--extents", extents, "--spacing", spacing,
               "-o", str(grid_path))
    assert code == 0
    return grid_path


def test_manufacture_and_currents(tmp_path):
    grid_path = _manufacture(tmp_path)
    assert grid_path.exists() and (tmp_path / "pw.dkp5.json").exists()
    csv_path = tmp_path / "currents.csv"
    assert run("currents", "--grid", str(grid_path), "--csv", str(csv_path)) == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert all(float(r["S"]) == pytest.approx(2.0) for r in rows)
    assert all(float(r["Sflat"]) == pytest.approx(5.0) for r in rows)


def test_manufacture_off_shell_exits_one(tmp_path, capsys):
    code = run("manufacture", "--p", "1.5,0,0,0", "--A", "0,0,0,0", "--m", "1",
               "--e", "1", "--extents", "4,1,1,1", "--spacing", "0.1",
               "-o", str(tmp_path / "bad.dkp5"))
    assert code == 1
    assert "k.k - m^2" in capsys.readouterr().err


def test_invert_analytic_pass(tmp_path):
    grid_path = _manufacture(tmp_path)
    report_path = tmp_path / "inv.json"
    outdir = tmp_path / "out"
    code = run("invert", "--grid", str(grid_path), "--analytic",
               "--json", str(report_path), "-o", str(outdir))
    assert code == 0
    report = json.loads(report_path.read_text())
    checks = {e["identity"]: e for e in report["checks"]}
    assert checks["gauge_faithfulness_a_full"]["max_abs"] < 1e-10
    assert all(e["pass"] for e in report["checks"])
    for name in ("A_full", "A_gauge_fixed", "gauge_term", "F_potential", "F_bilinear", "mask"):
        assert (outdir / f"{name}.dkp5").exists()


def test_invert_reports_are_byte_deterministic(tmp_path):
    grid_path = _manufacture(tmp_path)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run("invert", "--grid", str(grid_path), "--analytic", "--json", str(r1)) == 0
    assert run("invert", "--grid", str(grid_path), "--analytic", "--json", str(r2)) == 0
    assert r1.read_bytes() == r2.read_bytes()


@pytest.mark.parametrize("command", ["invert", "residuals"])
def test_invert_zero_grid_exits_two(tmp_path, capsys, command):
    path = tmp_path / "zero.dkp5"
    store_grid(FieldGrid.zeros((4, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION), path)
    assert run(command, "--grid", str(path), "--m", "1", "--e", "1", "--A", "0,0,0,0") == 2
    assert "every grid point is Z-singular" in capsys.readouterr().err


def test_invert_missing_physics_exits_two(tmp_path):
    path = tmp_path / "g.dkp5"
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((4, 1, 1, 1, 5)) + 1j * rng.standard_normal((4, 1, 1, 1, 5))
    store_grid(FieldGrid((4, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION, vals), path)
    assert run("invert", "--grid", str(path)) == 2


def test_invert_missing_file_exits_two(tmp_path):
    assert run("invert", "--grid", str(tmp_path / "nope.dkp5"), "--m", "1", "--e", "1") == 2


def test_output_path_colliding_with_input_exits_two(tmp_path):
    grid_path = _manufacture(tmp_path)
    assert run("invert", "--grid", str(grid_path), "--analytic",
               "--json", str(grid_path)) == 2


@pytest.mark.parametrize("case", ["currents_json_is_csv", "invert_json_is_sidecar",
                                  "invert_csv_is_output_grid", "currents_json_links_to_grid",
                                  "currents_csv_links_to_grid", "invert_outdir_links_to_grid_dir"])
def test_colliding_output_paths_exit_two(tmp_path, case):
    """No output overwrites an input or another output, also through a
    symbolic link: every file is as before.  The grid is named as an
    output grid of -o, so that -o through a link to its directory would
    write over it."""
    grid_path, sidecar = tmp_path / "A_full.dkp5", tmp_path / "A_full.dkp5.json"
    _manufacture(tmp_path).rename(grid_path)
    (tmp_path / "pw.dkp5.json").rename(sidecar)
    out, outdir, link = tmp_path / "x", tmp_path / "grids", tmp_path / "link"
    link.symlink_to(tmp_path if case == "invert_outdir_links_to_grid_dir" else grid_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    argv = {
        "currents_json_is_csv": ["currents", "--json", str(out), "--csv", str(out)],
        "invert_json_is_sidecar": ["invert", "--fd", "--json", str(sidecar)],
        "invert_csv_is_output_grid": ["invert", "--fd", "-o", str(outdir),
                                      "--csv", str(outdir / "mask.dkp5")],
        "currents_json_links_to_grid": ["currents", "--json", str(link)],
        "currents_csv_links_to_grid": ["currents", "--csv", str(link)],
        "invert_outdir_links_to_grid_dir": ["invert", "--fd", "-o", str(link)],
    }[case]
    assert run(*argv, "--grid", str(grid_path)) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    assert not out.exists() and not outdir.exists()


@pytest.mark.parametrize("case", ["json_is_outdir", "outdir_is_input_grid", "outdir_is_a_file"])
def test_outdir_colliding_with_a_path_exits_two_before_loading(tmp_path, monkeypatch, case):
    """The -o directory counts as an output: naming it as the report, naming
    the input grid as -o, or naming an existing file as -o exits 2 before
    the grid is loaded, and nothing is written."""
    import dkp5.cli

    grid_path = _manufacture(tmp_path)
    (tmp_path / "notes.txt").write_text("not a directory")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(dkp5.cli, "load_grid", lambda path: pytest.fail("the grid was loaded"))
    out = tmp_path / "out"
    argv = {
        "json_is_outdir": ["--json", str(out), "-o", str(out)],
        "outdir_is_input_grid": ["--json", str(out), "-o", str(grid_path)],
        "outdir_is_a_file": ["--json", str(out), "-o", str(tmp_path / "notes.txt")],
    }[case]
    assert run("invert", "--grid", str(grid_path), "--fd", *argv) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_invert_peak_memory_per_point(tmp_path):
    """`invert --fd --json -o` on a 10^4 plane wave peaks at no more than 650
    traced bytes per point, the input grid (80 B per point) counted: about
    580 B per point, against about 845 before the lattice stages wrote in
    place."""
    import tracemalloc

    from dkp5 import on_shell_momentum

    A = (0.3, -0.2, 0.1, 0.25)
    four = lambda v: ",".join(repr(float(x)) for x in v)
    grid_path = tmp_path / "wave.dkp5"
    assert run("manufacture", f"--p={four(on_shell_momentum((0.3, 0.2, -0.1), 1.0, 1.0, A))}",
               f"--A={four(A)}", "--m", "1", "--e", "1", "--amplitude", "0.8,0.3",
               "--extents", "10,10,10,10", "--spacing", "0.15", "-o", str(grid_path)) == 0
    tracemalloc.start()
    try:
        code = run("invert", "--grid", str(grid_path), "--fd", "--json", str(tmp_path / "r.json"),
                   "-o", str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1) and (tmp_path / "out" / "F_bilinear.dkp5").exists()
    assert peak / 10**4 <= 650, peak / 10**4


def test_invert_csv_one_row_per_point(tmp_path):
    grid_path = _manufacture(tmp_path)
    csv_path = tmp_path / "points.csv"
    assert run("invert", "--grid", str(grid_path), "--analytic", "--csv", str(csv_path)) == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert {"it", "ix", "iy", "iz", "masked", "decomposition"} <= set(rows[0])


def test_invert_fd_convergence_via_cli(tmp_path):
    # the same solution sampled at h and h/2; tolerances sized for FD error
    ratios = {}
    errs = {}
    for label, extents, spacing in (("h", "8,1,1,1", "0.25,1,1,1"), ("h2", "15,1,1,1", "0.125,1,1,1")):
        grid_path = tmp_path / f"{label}.dkp5"
        assert run("manufacture", "--p", "1.3,0,0,0", "--A", "0.3,0,0,0", "--m", "1",
                   "--e", "1", "--extents", extents, "--spacing", spacing,
                   "-o", str(grid_path)) == 0
        report = tmp_path / f"{label}.json"
        run("invert", "--grid", str(grid_path), "--fd", "--tolerance", "1e-1",
            "--json", str(report))
        checks = {e["identity"]: e for e in json.loads(report.read_text())["checks"]}
        errs[label] = checks["gauge_faithfulness_a_full"]["max_abs"]
    ratio = errs["h"] / errs["h2"]
    assert 3.5 <= ratio <= 4.5


def test_residuals_diagnostics(tmp_path):
    grid_path = _manufacture(tmp_path)
    report_path = tmp_path / "res.json"
    assert run("residuals", "--grid", str(grid_path), "--analytic",
               "--json", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert all(e["pass"] for e in report["checks"])
    # external coupling leaves the self-interaction source unbalanced:
    # |defect| = (2 e^2 / m) |Z| |Jcal| = 2 * 3 * (2/3) = 4 here
    assert report["diagnostics"]["reduced_field_eq_max_abs"] == pytest.approx(4.0, abs=1e-9)


def test_residuals_wrong_potential_exits_one(tmp_path, capsys):
    grid_path = _manufacture(tmp_path)
    assert run("residuals", "--grid", str(grid_path), "--analytic", "--A", "0.6,0,0,0") == 1
    assert "FAIL current_potential_contraction" in capsys.readouterr().out


def test_invert_nan_mass_exits_two(tmp_path):
    grid_path = _manufacture(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run("invert", "--grid", str(grid_path), "--m", "nan", "--e", "1")
    assert exc.value.code == 2


def test_manufacture_infinite_spacing_exits_two(tmp_path):
    out = tmp_path / "inf.dkp5"
    with pytest.raises(SystemExit) as exc:
        run("manufacture", "--p", "1,0,0,0", "--A", "0,0,0,0", "--m", "1", "--e", "1",
            "--extents", "4,1,1,1", "--spacing", "inf", "-o", str(out))
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    "{bad", "[1, 2]", "amplitude", "p", "A", "m", "NaN",
    pytest.param({"A": "1234"}, id="A-string"), pytest.param({"amplitude": "23"}, id="amplitude-string"),
    pytest.param({"m": True}, id="m-bool"), pytest.param({"m": "1.2"}, id="m-string"),
    pytest.param({"amplitude": [1, 2, 3]}, id="amplitude-three"),
])
def test_malformed_sidecar_exits_two(tmp_path, edit):
    """A field that is missing, not finite or not a JSON number (or list of
    numbers) exits 2, as a string whose characters read as digits does."""
    grid_path = _manufacture(tmp_path)
    sidecar = tmp_path / "pw.dkp5.json"
    if edit in ("{bad", "[1, 2]"):
        sidecar.write_text(edit)
    else:
        data = json.loads(sidecar.read_text())
        if isinstance(edit, dict):
            data.update(edit)
        elif edit == "NaN":
            data["A"][0] = float("nan")
        else:
            del data[edit]
        sidecar.write_text(json.dumps(data))
    assert run("invert", "--grid", str(grid_path), "--analytic", "--m", "1", "--e", "1") == 2


def test_currents_json_matches_csv(tmp_path):
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((2, 3, 1, 2, 5)) + 1j * rng.standard_normal((2, 3, 1, 2, 5))
    grid_path = tmp_path / "g.dkp5"
    store_grid(FieldGrid((2, 3, 1, 2), (0.1,) * 4, WAVEFUNCTION, vals), grid_path)
    json_path, csv_path = tmp_path / "c.json", tmp_path / "c.csv"
    assert run("currents", "--grid", str(grid_path), "--json", str(json_path),
               "--csv", str(csv_path)) == 0
    points = json.loads(json_path.read_text())["points"]
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows[0]) == 93 and rows[0] == list(points[0])
    assert [[str(v) for v in p.values()] for p in points] == rows[1:]
    assert [tuple(p[k] for k in ("it", "ix", "iy", "iz")) for p in points] == list(
        np.ndindex(2, 3, 1, 2))


def _same_sign_field(vals):
    vals[..., 4] = 3.5e153  # S = 1.225e307 at every point


def _mixed_sign_field(vals):
    flat = vals.reshape(-1, 5)  # numpy sums these 81 S in 8 strided accumulators:
    flat[0:80:8, 4] = 5e153  # S = +2.5e307 ten times in one, as eta is +1 on Phi_4,
    flat[1:80:8, 1] = 5e153  # and S = -2.5e307 ten times in the next, as eta is -1 on Phi_1


@pytest.mark.parametrize("fill, mean", [(_same_sign_field, "1.225e+307"),
                                        (_mixed_sign_field, "0")])
def test_currents_mean_of_an_overflowing_sum(tmp_path, capsys, fill, mean):
    """Every S is finite but their sum overflows, to inf or, with both signs,
    to nan (+inf and -inf in two of numpy's pairwise accumulators): the
    summary's mean is taken on S scaled by its largest |S|, and every row is
    written."""
    vals = np.zeros((3, 3, 3, 3, 5), dtype=complex)
    fill(vals)
    grid_path, csv_path = tmp_path / "big.dkp5", tmp_path / "big.csv"
    store_grid(FieldGrid((3,) * 4, (0.1,) * 4, WAVEFUNCTION, vals), grid_path)
    assert run("currents", "--grid", str(grid_path), "--csv", str(csv_path)) == 0
    assert capsys.readouterr().out == f"81 points, mean S = {mean}\n"
    assert len(csv_path.read_text().splitlines()) == 82


@pytest.mark.parametrize("args", [["--max-word-len", "-2"], ["--max-word-len", "11"],
                                  ["--max-word-len", "two"], ["--fierz-samples", "-1"]])
def test_verify_algebra_counts_out_of_range_exit_two(args):
    with pytest.raises(SystemExit) as exc:
        run("verify-algebra", *args)
    assert exc.value.code == 2


def test_verify_algebra_word_len_eight(tmp_path):
    out = tmp_path / "report.json"
    assert run("verify-algebra", "--mode", "exact", "--max-word-len", "8",
               "--json", str(out)) == 0
    assert json.loads(out.read_text())["word_sweep"] == {
        "words": 87380, "mismatches": 0, "max_abs": 0.0}


@pytest.mark.parametrize("command", [["currents"], ["invert", "--m", "1", "--e", "1"]])
def test_non_finite_grid_exits_two(tmp_path, capsys, command):
    grid_path = _manufacture(tmp_path)
    raw = bytearray(grid_path.read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))
    grid_path.write_bytes(bytes(raw))
    assert run(*command, "--grid", str(grid_path)) == 2
    assert f"non-finite value (byte offset {len(raw) - 8})" in capsys.readouterr().err


def test_manufacture_unaddressable_extents_exits_two(tmp_path, capsys):
    out = tmp_path / "huge.dkp5"
    assert run("manufacture", "--p", "1,0,0,0", "--A", "0,0,0,0", "--m", "1", "--e", "1",
               "--extents", "100000,100000,100000,100000", "--spacing", "0.1",
               "-o", str(out)) == 2
    assert "more than numpy can address" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["currents_grid_dir", "invert_json_dir", "manufacture_dir",
                                  "invert_outdir_is_file"])
def test_os_errors_exit_two(tmp_path, capsys, case):
    grid_path = _manufacture(tmp_path)
    capsys.readouterr()
    directory = tmp_path / "a_directory"
    directory.mkdir()
    argv = {
        "currents_grid_dir": ["currents", "--grid", str(directory)],
        "invert_json_dir": ["invert", "--grid", str(grid_path), "--analytic",
                            "--json", str(directory)],
        "manufacture_dir": ["manufacture", "--p", "1,0,0,0", "--A", "0,0,0,0", "--m", "1",
                            "--e", "1", "--extents", "4,1,1,1", "--spacing", "0.1",
                            "-o", str(directory)],
        "invert_outdir_is_file": ["invert", "--grid", str(grid_path), "--analytic",
                                  "-o", str(grid_path)],
    }[case]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify-algebra", "--mode", "float", "--tol", "-1"],
    ["invert", "--tolerance", "-1"],
    ["residuals", "--tolerance", "-1"],
])
def test_negative_tolerance_exits_two(tmp_path, argv):
    grid_path = _manufacture(tmp_path)
    if argv[0] != "verify-algebra":
        argv = argv + ["--grid", str(grid_path), "--analytic"]
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2


def test_zero_tolerance_is_accepted(tmp_path):
    assert run("verify-algebra", "--mode", "float", "--max-word-len", "0", "--tol", "0") in (0, 1)


def test_manufacture_overflow_exits_two(tmp_path, capsys):
    out = tmp_path / "big.dkp5"
    assert run("manufacture", "--p", "1e200,0,0,0", "--A", "0,0,0,0", "--m", "1e200",
               "--e", "1", "--extents", "4,1,1,1", "--spacing", "0.1", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert "overflows a float" in err and "Traceback" not in err
    assert not out.exists()


def test_csv_rows_match_csv_writer(tmp_path):
    """The block writer's CSV is csv.writer's, on edge values and on a mirrored
    pair: "-y" holds -y bit for bit, so it takes y's texts with the sign flipped."""
    from dkp5.cli import _write_points

    y = np.array([1.0, -2.5e-310, 123456789012345.67, -1e300, 0.0])
    columns = {
        "masked": np.array([0, 1, 0, 0, 1]),
        "x": np.array([-0.0, 5e-324, 1.7976931348623157e308, 1e22, 0.1 + 0.2]),
        "y": y,
        "-y": -y,
    }
    path = tmp_path / "fast.csv"
    _write_points((5, 1, 1, 1), columns, {"-y": ("y", -1)}, csv_path=path)
    want = tmp_path / "writer.csv"
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["it", "ix", "iy", "iz", *columns])
        writer.writerows([t, 0, 0, 0, *row] for t, row in
                         enumerate(zip(*(c.tolist() for c in columns.values()))))
    assert path.read_bytes() == want.read_bytes()
    assert path.read_bytes().endswith(b",0.0,-0.0\r\n")


def test_overflowing_currents_exit_two(tmp_path, capsys):
    """A finite grid whose currents overflow is a structural error for every
    subcommand that takes its currents."""
    grid_path = tmp_path / "big.dkp5"
    assert run("manufacture", "--p", "1.25,0.75,0,0", "--A", "0,0,0,0", "--m", "1", "--e", "1",
               "--amplitude", "1e308", "--extents", "6,4,1,1", "--spacing", "0.1",
               "-o", str(grid_path)) == 0
    capsys.readouterr()
    for command in (["currents"], ["invert", "--fd"], ["residuals", "--fd"]):
        assert run(*command, "--grid", str(grid_path)) == 2, command
        err = capsys.readouterr().err
        assert "currents of the grid overflow" in err and "Traceback" not in err, command


@pytest.mark.parametrize("h", ["1e-320", "1e-160", "0.1,1e-160,0.1,0.1"])
def test_spacing_with_subnormal_square_exits_two(tmp_path, h):
    out = tmp_path / "tiny.dkp5"
    with pytest.raises(SystemExit) as exc:
        run("manufacture", "--p", "1.25,0.75,0,0", "--A", "0,0,0,0", "--m", "1", "--e", "1",
            "--extents", "6,4,1,1", "--spacing", h, "-o", str(out))
    assert exc.value.code == 2
    assert not out.exists()


def test_spacing_1e_150_is_accepted(tmp_path, capsys):
    grid_path = tmp_path / "small.dkp5"
    assert run("manufacture", "--p", "1.25,0.75,0,0", "--A", "0,0,0,0", "--m", "1", "--e", "1",
               "--extents", "6,4,1,1", "--spacing", "1e-150", "-o", str(grid_path)) == 0
    json_path = tmp_path / "report.json"
    assert run("invert", "--grid", str(grid_path), "--fd", "--json", str(json_path)) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(json_path.read_text())
    assert all(math.isfinite(entry["max_abs"]) for entry in report["checks"])


def test_huge_residuals_give_a_finite_rms_and_valid_json(tmp_path):
    """At spacing 1e-150 the reduced cross-check passes 1e283; its rms stays
    finite, the report is strict JSON and numpy warns of no overflow."""
    grid_path = tmp_path / "small.dkp5"
    assert run("manufacture", "--p", "1.25,0.75,0,0", "--A", "0,0,0,0", "--m", "1", "--e", "1",
               "--extents", "6,4,1,1", "--spacing", "1e-150", "-o", str(grid_path)) == 0
    json_path = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("invert", "--grid", str(grid_path), "--fd", "--json", str(json_path)) in (0, 1)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    checks = json.loads(json_path.read_text(), parse_constant=refuse)["checks"]
    assert max(entry["max_abs"] for entry in checks) > 1e283
    assert all(math.isfinite(entry["rms"]) for entry in checks)


@pytest.mark.parametrize("command", ["invert", "residuals"])
@pytest.mark.parametrize("flags", [
    ["--m", "1e-300", "--e", "1"],  # 1/m^2 divides by zero
    ["--m", "1e308", "--e", "1"],  # m S overflows
    ["--e", "1e308"],  # e^2 overflows a Python float
    ["--A", "1e308,0,0,0"],  # e J.A overflows, then meets a zero
])
def test_arithmetic_beyond_double_precision_exits_two(tmp_path, capsys, command, flags):
    """Finite parameters whose arithmetic overflows or divides by zero are a
    structural error (they ended in tracebacks or NaN reports)."""
    grid_path = _manufacture(tmp_path, extents="4,3,1,1")
    capsys.readouterr()
    assert run(command, "--grid", str(grid_path), *flags) == 2
    err = capsys.readouterr().err
    assert "cannot be handled in double precision" in err and "Traceback" not in err
