import json

import numpy as np
import pytest

from toeplitz_spectra.cli import run

from helpers import symbol_from_inside_roots


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_missing_N(self, capsys):
        code, _, err = run_cli(capsys, "decay", "--symbol",
                               '{"cosine":[1.25,-1]}')
        assert code == 1
        assert "error" in err

    def test_malformed_json(self, capsys):
        code, _, err = run_cli(capsys, "eigen", "--symbol",
                               '{"cosine":[1.25,', "--N", "4")
        assert code == 1
        assert "line" in err and "column" in err

    def test_unknown_key(self, capsys):
        code, _, err = run_cli(capsys, "eigen", "--symbol", '{"bogus": 1}',
                               "--N", "4")
        assert code == 1

    def test_invert_needs_mode(self, capsys):
        code, _, err = run_cli(capsys, "invert", "--symbol",
                               '{"cosine":[1.25,-1]}', "--N", "3")
        assert code == 1


class TestEigen:
    def test_laplacian_rows(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--symbol",
                               '{"cosine":[2,-2]}', "--N", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,j,lambda,k,theta_shift,f_grid,residual"
        assert len(lines) == 10
        lam1 = float(lines[1].split(",")[2])
        assert abs(lam1 - (2 - 2 * np.cos(np.pi / 10))) < 1e-12
        ks = [int(l.split(",")[3]) for l in lines[1:]]
        assert ks == list(range(1, 10))

    def test_check_oracle_passes(self, capsys, tmp_path):
        summary = tmp_path / "s.json"
        code, out, _ = run_cli(capsys, "eigen", "--symbol",
                               '{"cosine":[2.1,-2,-0.1]}', "--N", "16",
                               "--check-oracle", "--json-summary",
                               str(summary))
        assert code == 0
        data = json.loads(summary.read_text())
        assert data["pass"] and data["max_theta_shift"] < 1.0


class TestInvert:
    def test_entry_value(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--symbol",
                               '{"cosine":[1.25,-1]}', "--N", "1",
                               "--entry", "0,0")
        assert code == 0
        assert abs(float(out.strip()) - 0.952381) < 1e-6

    def test_full_with_oracle(self, capsys, tmp_path):
        summary = tmp_path / "s.json"
        code, out, _ = run_cli(capsys, "invert", "--symbol",
                               '{"cosine":[1.25,-1]}', "--N", "6", "--full",
                               "--check-oracle", "--json-summary",
                               str(summary))
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 7
        assert json.loads(summary.read_text())["oracle_gap"] < 1e-9

    @pytest.mark.parametrize("symbol, N", [
        # negative definite section: the first entry of column 0 is negative
        ('{"cosine":[-1.25,1]}', 6),
        # complex degree-3 symbol at an order below its degree
        (json.dumps({"coeffs": [[z.real, z.imag] for z in
                                symbol_from_inside_roots(
                                    [0.5, 0.4j, -0.3 + 0.2j]).coeffs]}), 1),
    ], ids=["negative-definite", "degree-3-below-n0"])
    def test_full_definite_sections(self, capsys, tmp_path, symbol, N):
        summary = tmp_path / "s.json"
        code, out, _ = run_cli(capsys, "invert", "--symbol", symbol,
                               "--N", str(N), "--full", "--check-oracle",
                               "--json-summary", str(summary))
        assert code == 0
        assert len(out.strip().splitlines()) == N + 1
        assert json.loads(summary.read_text())["oracle_gap"] <= 1e-12

    def test_column_matches_entry(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--symbol",
                               '{"cosine":[1.25,-1]}', "--N", "4",
                               "--column", "2")
        assert code == 0
        col = [float(v) for v in out.strip().splitlines()]
        code2, out2, _ = run_cli(capsys, "invert", "--symbol",
                                 '{"cosine":[1.25,-1]}', "--N", "4",
                                 "--entry", "0,2")
        assert abs(col[0] - float(out2.strip())) < 1e-12


class TestDecayAndFactor:
    def test_decay_pass(self, capsys, tmp_path):
        summary = tmp_path / "s.json"
        code, out, _ = run_cli(capsys, "decay", "--symbol",
                               '{"cosine":[1.25,-1]}', "--N", "60",
                               "--json-summary", str(summary))
        assert code == 0
        data = json.loads(summary.read_text())
        assert abs(data["reports"][0]["slope"] - np.log(0.5)) < 0.05

    def test_decay_fail_exit_2(self, capsys, tmp_path):
        # absurd decay target: check fails, diagnostics still written
        summary = tmp_path / "s.json"
        code, out, _ = run_cli(capsys, "decay", "--symbol",
                               '{"cosine":[1.25,-1]}', "--N", "60",
                               "--rho", "0.01", "--json-summary",
                               str(summary))
        assert code == 2
        assert json.loads(summary.read_text())["pass"] is False

    def test_overflowing_bound_constant_is_null(self, capsys, tmp_path):
        # C = max M(d) e^{-target d} exceeds the largest double here; the
        # summary must stay strict JSON (no Infinity or NaN literals)
        summary = tmp_path / "s.json"
        run_cli(capsys, "decay", "--symbol", '{"cosine":[1.25,-1]}',
                "--N", "800", "--rho", "0.01", "--json-summary", str(summary))

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        data = json.loads(summary.read_text(), parse_constant=reject)
        assert data["reports"][0]["C"] is None

    def test_factor_report(self, capsys, tmp_path):
        summary = tmp_path / "s.json"
        code, out, _ = run_cli(capsys, "factor", "--symbol",
                               '{"cosine":[1.25,-1]}', "--N", "1",
                               "--json-summary", str(summary))
        assert code == 0
        data = json.loads(summary.read_text())
        assert data["n0"] == 1 and abs(data["rho"] - 0.5) < 1e-9
        assert "g1_pole,0.5,1" in out

    def test_unit_root_symbol_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--symbol",
                               '{"cosine":[2,-2]}', "--N", "1")
        assert code == 2
        assert "UnitModulusRoot" in err


class TestPredictor:
    def test_rows_and_limit(self, capsys):
        code, out, _ = run_cli(capsys, "predictor", "--symbol",
                               '{"cosine":[1.25,-1]}', "--M", "8",
                               "--check-oracle")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,beta,limit,err"
        assert len(lines) == 10
        errs = [float(l.split(",")[3]) for l in lines[1:]]
        assert max(errs) < 1e-3  # finite-order truncation only

    def test_lemma1_summary(self, capsys, tmp_path):
        summary = tmp_path / "s.json"
        code, out, _ = run_cli(capsys, "predictor", "--symbol",
                               '{"cosine":[1.25,-1]}', "--M", "4",
                               "--lemma1", "8,16,32", "--json-summary",
                               str(summary))
        assert code == 0
        data = json.loads(summary.read_text())
        assert data["lemma1"]["non_increasing"]
        assert data["lemma1"]["err"][-1] < 1e-8


class TestDeterminism:
    def test_byte_identical_output(self, capsys, tmp_path):
        args = ("eigen", "--symbol", '{"cosine":[2.1,-2,-0.1]}', "--N", "12")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0 and out1
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "eigen", "--symbol",
                               '{"cosine":[2,-2]}', "--N", "4",
                               "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("N,j,lambda")
