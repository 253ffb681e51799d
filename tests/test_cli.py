"""CLI behavior: outputs, exit codes, determinism, round-trips."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spinpoint
from spinpoint import CMatrix, matio
from spinpoint.cli import main
from spinpoint.errors import ConvergenceError


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


class TestGen:
    def test_pretty_spin_three_half(self, run):
        code, out, _ = run("gen", "--spin", "3/2", "--op", "h1",
                           "--format", "pretty")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 4
        assert "1.5" in rows[0]
        assert "0.866025i" in rows[0]

    def test_json_output_parses(self, run):
        code, out, _ = run("gen", "--spin", "1", "--op", "s1")
        assert code == 0
        m = matio.from_json(out)
        assert m.rows == 3
        assert m.data[0, 1] == pytest.approx(1 / np.sqrt(2))

    def test_invalid_spin_exit_code(self, run):
        code, out, err = run("gen", "--spin", "0", "--op", "s1")
        assert code == 1
        assert err.startswith("invalid-spin:")
        assert out == ""

    def test_invalid_op(self, run):
        code, _, err = run("gen", "--spin", "1", "--op", "sx")
        assert code == 1
        assert err.startswith("invalid-op:")

    def test_twice_spin_flag(self, run):
        code_a, out_a, _ = run("gen", "--twice-spin", "3", "--op", "s3")
        code_b, out_b, _ = run("gen", "--spin", "3/2", "--op", "s3")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_hz_requires_z(self, run):
        code, _, err = run("gen", "--spin", "1", "--op", "hz")
        assert code == 1
        assert err.startswith("invalid-z:")

    def test_hz_matches_h1_at_i(self, run):
        code_a, out_a, _ = run("gen", "--spin", "1", "--op", "hz",
                               "--z", "0,1")
        code_b, out_b, _ = run("gen", "--spin", "1", "--op", "h1")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_pretty_mixed_entry(self, run):
        code, out, _ = run("gen", "--spin", "1/2", "--op", "hz", "--z", "1,1",
                           "--format", "pretty")
        assert code == 0
        assert out.splitlines() == ["     0.5  0.5+0.5i", "0.5+0.5i      -0.5"]

    def test_determinism(self, run):
        first = run("gen", "--spin", "5/2", "--op", "h2")
        second = run("gen", "--spin", "5/2", "--op", "h2")
        assert first == second


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["json", "mm"])
    def test_gen_check_round_trip(self, run, tmp_path, fmt):
        code, out, _ = run("gen", "--spin", "3/2", "--op", "h1",
                           "--format", fmt)
        assert code == 0
        path = tmp_path / f"h1.{fmt}"
        path.write_text(out if out.endswith("\n") else out + "\n")
        code, check_out, _ = run("check", "--input", str(path))
        assert code == 0
        payload = json.loads(check_out)
        echoed = matio.matrix_from_dict(payload["matrix"])
        code, json_out, _ = run("gen", "--spin", "3/2", "--op", "h1")
        assert echoed == matio.from_json(json_out)

    def test_check_reports(self, run, tmp_path):
        code, out, _ = run("gen", "--spin", "1", "--op", "h1")
        path = tmp_path / "m.json"
        path.write_text(out)
        code, check_out, _ = run("check", "--input", str(path))
        assert code == 0
        payload = json.loads(check_out)
        assert payload["normality"]["is_normal"] is False
        assert payload["nilpotency"]["is_nilpotent"] is True
        assert payload["nilpotency"]["rank_chain"] == [2, 1, 0]

    def test_check_tiny_jordan_block(self, run, tmp_path):
        # The rank chain is taken on each power scaled to unit entries, so
        # the threshold's constant term does not swamp 1e-300 entries.
        path = tmp_path / "m.json"
        path.write_text(matio.to_json(CMatrix(1e-300 * np.eye(2, k=1))))
        code, out, _ = run("check", "--input", str(path))
        assert code == 0
        nilpotency = json.loads(out)["nilpotency"]
        assert nilpotency["is_nilpotent"] is True
        assert nilpotency["rank_chain"] == [1, 0]

    def test_check_missing_file(self, run):
        code, _, err = run("check", "--input", "/nonexistent/m.json")
        assert code == 1
        assert err.startswith("bad-matrix-file:")

    def test_check_malformed_entries(self, run, tmp_path):
        path = tmp_path / "m.json"
        for data in ("[5]", "5", "[[null, 0]]", "[[{}, 0]]", '[[true, "2"]]',
                     f"[[1{'0' * 400}, 0]]"):
            path.write_text(f'{{"rows": 1, "cols": 1, "data": {data}}}')
            code, _, err = run("check", "--input", str(path))
            assert code == 1, data
            assert err.startswith("bad-matrix-file:"), data

    def test_check_repeated_coordinate(self, run, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                        "1 1 2\n1 1 1.0 0.0\n1 1 2.0 0.0\n")
        code, _, err = run("check", "--input", str(path))
        assert code == 1
        assert err.startswith("bad-matrix-file:")

    def test_check_overflowing_defect(self, run, tmp_path):
        # The defect of this matrix overflows; the verdict does not, and
        # the JSON carries the defect as Infinity.
        path = tmp_path / "m.json"
        path.write_text(matio.to_json(CMatrix([[1.0, 1e200], [0.0, 1.0]])))
        code, out, _ = run("check", "--input", str(path))
        assert code == 0
        normality = json.loads(out)["normality"]
        assert normality["defect"] == float("inf")
        assert normality["is_normal"] is False
        assert normality["henrici"] == 1e200

    def test_check_non_integer_shape(self, run, tmp_path):
        path = tmp_path / "m.json"
        for rows in ("1.9", "true", '"1"'):
            path.write_text(f'{{"rows": {rows}, "cols": 1, "data": [[1, 0]]}}')
            code, _, err = run("check", "--input", str(path))
            assert code == 1, rows
            assert err.startswith("bad-matrix-file:"), rows


class TestKernel:
    def test_spin_two_vector(self, run):
        code, out, _ = run("kernel", "--spin", "2", "--axis", "1")
        assert code == 0
        payload = json.loads(out)
        vec = np.array([complex(re, im) for re, im in payload["vector"]])
        printed = np.array([1.0, 2j, -np.sqrt(6), -2j, 1.0]) / 4.0
        overlap = abs(np.vdot(printed, vec))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert payload["rank"] == 4
        assert payload["residual"] <= 1e-10 * 5

    def test_invalid_axis(self, run):
        code, _, err = run("kernel", "--spin", "1", "--axis", "3")
        assert code == 1
        assert err.startswith("invalid-axis:")

    def test_overflowing_spin(self, run):
        code, out, err = run("kernel", "--twice-spin", "2048", "--axis", "1")
        assert code == 1
        assert err.startswith("non-finite:")
        assert out == ""

    def test_convergence_failure_exit_code(self, run, monkeypatch):
        def fail(spin, axis):
            raise ConvergenceError("QR sweep budget exhausted")
        monkeypatch.setattr("spinpoint.cli.kernel_vector", fail)
        code, out, err = run("kernel", "--spin", "1", "--axis", "1")
        assert code == 2
        assert err.startswith("no-convergence:")
        assert out == ""


@pytest.fixture
def pencil_files(tmp_path):
    """diag(0, 1) and sigma1: the pencil with EPs at z = +/- i/2."""
    a = CMatrix(np.diag([0.0, 1.0]))
    b = CMatrix([[0.0, 1.0], [1.0, 0.0]])
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    matio.write_file(a, str(a_path))
    matio.write_file(b, str(b_path))
    return str(a_path), str(b_path)


class TestPencilCommands:
    def test_ep(self, run, pencil_files):
        a_path, b_path = pencil_files
        code, out, _ = run("ep", "--a", a_path, "--b", b_path)
        assert code == 0
        payload = json.loads(out)
        zs = sorted((complex(re, im) for re, im in
                     (c["z"] for c in payload)), key=lambda z: z.imag)
        assert abs(zs[0] + 0.5j) <= 1e-10
        assert abs(zs[1] - 0.5j) <= 1e-10
        assert all(c["accepted"] for c in payload)

    def test_ep_one_by_one_pencil(self, run, tmp_path):
        path = tmp_path / "one.json"
        matio.write_file(CMatrix([[2.0]]), str(path))
        code, out, err = run("ep", "--a", str(path), "--b", str(path))
        assert (code, out, err) == (0, "[]\n", "")

    def test_ep_zero_discriminant_exit_code(self, run, tmp_path):
        path = tmp_path / "eye.json"
        matio.write_file(CMatrix.identity(2), str(path))
        code, _, err = run("ep", "--a", str(path), "--b", str(path))
        assert code == 2
        assert err.startswith("zero-discriminant:")

    def test_ep_overflowing_samples_exit_code(self, run, tmp_path):
        # Spin 2s = 20: the discriminant samples overflow.
        mats = spinpoint.spin_matrices(spinpoint.Spin(20))
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        matio.write_file(mats.s3, str(a_path))
        matio.write_file(mats.s1, str(b_path))
        code, out, err = run("ep", "--a", str(a_path), "--b", str(b_path))
        assert code == 1
        assert err.startswith("non-finite:")
        assert out == ""

    def test_trace_json(self, run, pencil_files):
        a_path, b_path = pencil_files
        code, out, _ = run("trace", "--a", a_path, "--b", b_path,
                           "--center", "0,0.5", "--radius", "0.1",
                           "--steps", "64")
        assert code == 0
        payload = json.loads(out)
        assert payload["permutation"] == [1, 0]
        assert payload["closure_error"] <= 1e-8

    def test_trace_csv(self, run, pencil_files):
        a_path, b_path = pencil_files
        code, out, _ = run("trace", "--a", a_path, "--b", b_path,
                           "--center", "0,0", "--radius", "0.1",
                           "--steps", "16", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,t,z_re,z_im,eig0_re,eig0_im,eig1_re,eig1_im"
        assert len(lines) == 18  # header + 17 sample rows

    def test_trace_nan_radius_is_invalid_path(self, run, pencil_files):
        a_path, b_path = pencil_files
        code, out, err = run("trace", "--a", a_path, "--b", b_path,
                             "--center", "0,0.5", "--radius", "nan",
                             "--steps", "64")
        assert code == 1
        assert err.startswith("invalid-path:")
        assert out == ""

    @pytest.mark.parametrize("center", ["1.5e308,0", "0,1.5e308",
                                        "-1.5e308,0"])
    def test_trace_overflowing_extent_is_invalid_path(self, run, pencil_files,
                                                      center):
        a_path, b_path = pencil_files
        code, out, err = run("trace", "--a", a_path, "--b", b_path,
                             f"--center={center}", "--radius", "1e308",
                             "--steps", "64")
        assert code == 1
        assert err.startswith("invalid-path:")
        assert out == ""

    def test_trace_near_ep_rejected(self, run, pencil_files):
        a_path, b_path = pencil_files
        code, _, err = run("trace", "--a", a_path, "--b", b_path,
                           "--center", "0,0", "--radius", "0.5",
                           "--steps", "64")
        assert code == 2
        assert err.startswith("sheet-tracking:")


class TestFermi:
    def test_printed_example(self, run, tmp_path):
        path = tmp_path / "m.json"
        matio.write_file(CMatrix([[1.0, 1j], [1j, -1.0]]), str(path))
        code, out, _ = run("fermi", "--m", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["zero_multiplicity"] == 3
        rep = matio.matrix_from_dict(payload["rep"])
        assert rep.data[1, 2] == 1j


class TestSweepPhi:
    def test_endpoint_rows(self, run):
        code, out, _ = run("sweep-phi", "--steps", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("phi,lam_plus_re")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(np.sqrt(2))
        assert float(first[5]) == 0.0
        last = lines[2].split(",")
        assert abs(float(last[1])) < 1e-7
        assert float(last[5]) > 1.0

    def test_json_variant(self, run):
        code, out, _ = run("sweep-phi", "--steps", "3")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 3
        assert payload[0]["defect"] == 0.0

    def test_rejects_single_step(self, run):
        code, _, err = run("sweep-phi", "--steps", "1")
        assert code == 1
        assert err.startswith("invalid-steps:")


class TestCsvCells:
    """Every data cell of a CSV output parses as a float: a complex value
    is written as two cells, never as a numpy repr."""

    @staticmethod
    def data_cells(out, header):
        lines = out.strip().splitlines()[1 if header else 0:]
        assert lines
        return [cell for line in lines for cell in line.split(",")]

    def test_gen(self, run):
        code, out, _ = run("gen", "--spin", "3/2", "--op", "h1",
                           "--format", "csv")
        assert code == 0
        cells = self.data_cells(out, header=False)
        assert len(cells) == 2 * 16
        for cell in cells:
            float(cell)

    @pytest.mark.parametrize("turns, steps", [("1", "16"), ("2", "32")])
    def test_trace(self, run, pencil_files, turns, steps):
        a_path, b_path = pencil_files
        code, out, _ = run("trace", "--a", a_path, "--b", b_path,
                           "--center", "0,0", "--radius", "0.1",
                           "--steps", steps, "--turns", turns,
                           "--format", "csv")
        assert code == 0
        cells = self.data_cells(out, header=True)
        assert len(cells) == 8 * (int(steps) + 1)
        for cell in cells:
            float(cell)

    def test_sweep_phi(self, run):
        code, out, _ = run("sweep-phi", "--steps", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        henrici = lines[0].split(",").index("henrici")
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 7
            for k, cell in enumerate(cells):
                if not (k == henrici and cell == "None"):
                    float(cell)


class TestErrorPaths:
    """Validation errors exit 1 with their code on stderr and print
    nothing on stdout."""

    @pytest.fixture
    def files(self, pencil_files, tmp_path):
        c_path = tmp_path / "c.json"
        matio.write_file(CMatrix.identity(3), str(c_path))
        a_path, b_path = pencil_files
        return {"a": a_path, "b": b_path, "c": str(c_path)}

    @pytest.mark.parametrize("argv, error", [
        pytest.param(("gen", "--spin", "1", "--twice-spin", "2", "--op", "s1"),
                     "invalid-spin", id="both-spin-flags"),
        pytest.param(("gen", "--op", "s1"), "invalid-spin",
                     id="no-spin-flag"),
        pytest.param(("gen", "--twice-spin", "0", "--op", "s1"),
                     "invalid-spin", id="twice-spin-zero"),
        pytest.param(("gen", "--spin", "1", "--op", "hz", "--z", "1"),
                     "invalid-z", id="z-one-part"),
        pytest.param(("gen", "--spin", "1", "--op", "hz", "--z", "1,i"),
                     "invalid-z", id="z-not-a-number"),
        pytest.param(("trace", "--a", "{a}", "--b", "{b}", "--center", "0;0.5",
                      "--radius", "0.1", "--steps", "64"),
                     "invalid-center", id="center"),
        pytest.param(("ep", "--a", "{a}", "--b", "{c}"), "invalid-pencil",
                     id="pencil-block-sizes"),
        pytest.param(("fermi", "--m", "{c}"), "invalid-coefficients",
                     id="fermi-3x3"),
        pytest.param(("sweep-phi", "--steps", "1"), "invalid-steps",
                     id="sweep-phi-one-step"),
    ])
    def test_exit_code(self, run, files, argv, error):
        code, out, err = run(*(arg.format(**files) for arg in argv))
        assert code == 1
        assert err.startswith(f"{error}:")
        assert out == ""

    @pytest.mark.parametrize("value", ["-1", "inf", "banana"])
    def test_invalid_tolerance(self, run, monkeypatch, value):
        monkeypatch.setenv("SPINPOINT_TOL", value)
        code, out, err = run("kernel", "--spin", "1/2", "--axis", "1")
        assert code == 1
        assert err.startswith("invalid-tolerance:")
        assert out == ""


class TestImport:
    def test_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(spinpoint.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, spinpoint.cli; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestToleranceEnv:
    def test_env_override(self, run, tmp_path, monkeypatch):
        # a loose tolerance flips the rank of a nearly singular matrix: the
        # Fock representation diag(0, 1, 1e-8, 1 + 1e-8) of diag(1, 1e-8)
        # has rank 3 by default and rank 2 under SPINPOINT_TOL=1e-4
        m = CMatrix(np.diag([1.0, 1e-8]))
        path = tmp_path / "m.json"
        matio.write_file(m, str(path))
        code, out, _ = run("check", "--input", str(path))
        assert json.loads(out)["nilpotency"]["is_nilpotent"] is False
        code, out, _ = run("fermi", "--m", str(path))
        assert code == 0
        assert json.loads(out)["zero_multiplicity"] == 1
        monkeypatch.setenv("SPINPOINT_TOL", "1e-4")
        code, out, _ = run("kernel", "--spin", "1/2", "--axis", "1")
        assert code == 0
        code, out, _ = run("fermi", "--m", str(path))
        assert code == 0
        assert json.loads(out)["zero_multiplicity"] == 2

    def test_invalid_env(self, run, monkeypatch):
        monkeypatch.setenv("SPINPOINT_TOL", "banana")
        code, _, err = run("kernel", "--spin", "1/2", "--axis", "1")
        assert code == 1
        assert err.startswith("invalid-tolerance:")

    def test_usage_error(self, run):
        code, _, err = run("nonsense")
        assert code == 1
        assert err.startswith("usage:")
