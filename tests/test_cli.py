"""Command-line surface: formats, exit codes, figure data files."""
import importlib
import json
import math
import shutil
import subprocess
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from aimosc import cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_closed_physical_levels(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--omega", "10",
                                    "--lambda", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert [e["E"] for e in doc["entries"]] == ["5", "14", "22", "29"]
        assert [e["E_tilde"] for e in doc["entries"]] == ["1", "14/5",
                                                          "22/5", "29/5"]
        assert all(e["bound"] for e in doc["entries"])
        assert doc["params"]["lambda_tilde"] == "1/10"

    def test_json_values_parse_back_exactly(self, capsys):
        _, out, _ = run(capsys, ["spectrum", "--omega", "10", "--lambda", "1",
                                 "--format", "json"])
        for e in json.loads(out)["entries"]:
            n = e["n"]
            assert F(e["E_tilde"]) == -n * (n + 1) * F(1, 10) + 2 * n + 1
            assert F(e["E"]) == F(e["E_tilde"]) * 5

    def test_iteration_method_flat_mass(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--method", "aim",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert [e["E_tilde"] for e in doc["entries"]] == ["1", "3", "5", "7"]
        assert all(e["method"] == "aim" for e in doc["entries"])

    def test_iteration_anchor_choice_is_free(self, capsys):
        _, out0, _ = run(capsys, ["spectrum", "--method", "aim",
                                  "--lambda-tilde", "1/10", "--format", "json"])
        _, out1, _ = run(capsys, ["spectrum", "--method", "aim",
                                  "--lambda-tilde", "1/10", "--tau0", "1/2",
                                  "--format", "json"])
        vals0 = [e["E_tilde"] for e in json.loads(out0)["entries"]]
        vals1 = [e["E_tilde"] for e in json.loads(out1)["entries"]]
        assert vals0 == vals1 == ["1", "14/5", "22/5", "29/5"]

    def test_oracle_method(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--method", "oracle",
                                    "--grid-T", "10", "--grid-N", "2000",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        for e, want in zip(doc["entries"], (0.5, 1.5, 2.5, 3.5)):
            assert e["method"] == "oracle"
            assert e["E"] is None  # float, not exact
            assert abs(e["E_dec"] - want) < 1e-3

    def test_methods_can_stack(self, capsys):
        _, out, _ = run(capsys, ["spectrum", "--method", "closed",
                                 "--method", "aim", "--format", "json"])
        methods = [e["method"] for e in json.loads(out)["entries"]]
        assert methods == ["closed_form"] * 4 + ["aim"] * 4

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--omega", "10",
                                    "--lambda", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["n", "E_tilde", "E", "method", "bound",
                                    "marginal"]
        assert "closed_form" in lines[1]

    def test_csv_deterministic(self, capsys):
        _, first, _ = run(capsys, ["spectrum", "--omega", "10", "--lambda",
                                   "1", "--format", "csv"])
        _, second, _ = run(capsys, ["spectrum", "--omega", "10", "--lambda",
                                    "1", "--format", "csv"])
        assert first == second
        assert first.splitlines()[0] == "n,E_tilde,E,method,bound,marginal"
        assert "3,29/5,29,closed_form,true,false" not in first  # decimals
        assert "3,5.8,29,closed_form,true,false" in first

    def test_marginal_level_flagged(self, capsys):
        _, out, _ = run(capsys, ["spectrum", "--omega", "10", "--lambda",
                                 "5/2", "--format", "json"])
        doc = json.loads(out)
        flags = [(e["n"], e["bound"], e["marginal"]) for e in doc["entries"]]
        assert flags == [(0, True, False), (1, True, False),
                         (2, True, False), (3, True, True)]


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, ["verify", "--lambda-tilde", "1/10",
                                    "--omega", "10", "--grid-T", "15",
                                    "--grid-N", "8000"])
        assert code == 0
        doc = json.loads(out)
        names = [c["name"] for c in doc["checks"]]
        assert names == ["aim_matches_closed_form",
                         "oracle_matches_closed_form",
                         "eigenfunction_residuals"]
        assert all(c["passed"] for c in doc["checks"])

    def test_coarse_grid_fails_oracle_check(self, capsys):
        code, out, _ = run(capsys, ["verify", "--lambda-tilde", "1/10",
                                    "--grid-T", "15", "--grid-N", "500",
                                    "--tol", "1e-5"])
        assert code == 1
        doc = json.loads(out)
        by_name = {c["name"]: c["passed"] for c in doc["checks"]}
        assert by_name["oracle_matches_closed_form"] is False
        assert by_name["aim_matches_closed_form"] is True

    def test_folded_spectrum_levels_not_compared(self, capsys):
        # past n ~ 1/lt - 1/2 the levels fall back below the edge; those
        # unbound levels must not be held against continuum oracle values
        values = sorted({F(p, q) for q in range(1, 11) for p in range(q)
                         if F(p, q) >= F(3, 8)})
        assert len(values) == 20
        for lt in values:
            code, out, _ = run(capsys, ["verify", "--lambda-tilde", str(lt),
                                        "--grid-N", "4000", "--kmax", "4"])
            assert code == 0, lt
            oracle = json.loads(out)["checks"][1]
            max_n = math.ceil(1 / lt - F(1, 2)) - 1  # largest n < 1/lt - 1/2
            assert len(oracle["deltas"]) <= min(4, max_n + 1)

    def test_zero_coverage_fails(self, capsys):
        code, out, _ = run(capsys, ["verify", "--lambda-tilde", "1/10",
                                    "--kmax", "2", "--grid-N", "500"])
        assert code == 1
        check = json.loads(out)["checks"][0]
        assert check["name"] == "aim_matches_closed_form"
        assert check["passed"] is False
        assert "no level covered" in check["detail"]

    def test_printed_signs_demonstrates_discrepancy(self, capsys):
        code, out, _ = run(capsys, ["verify", "--lambda-tilde", "1/10",
                                    "--printed-signs"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["checks"]) == 1
        check = doc["checks"][0]
        assert check["name"] == "printed_sign_discrepancy"
        assert check["passed"] is True
        assert "-4/5" in check["detail"]
        assert doc["params"]["printed_signs"] is True


class TestWavefunction:
    def test_ground_state_peak(self, capsys):
        code, out, _ = run(capsys, ["wavefunction"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "tau,phi"
        assert len(lines) == 202
        assert lines[101] == "0,0.751125544465"  # pi**-1/4

    def test_odd_state_vanishes_at_center(self, capsys):
        _, out, _ = run(capsys, ["wavefunction", "--n", "1",
                                 "--lambda-tilde", "1/10"])
        assert out.splitlines()[101] == "0,0"

    def test_output_deterministic(self, capsys):
        _, first, _ = run(capsys, ["wavefunction", "--lambda-tilde", "1/10"])
        _, second, _ = run(capsys, ["wavefunction", "--lambda-tilde", "1/10"])
        assert first == second

    def test_profile_symmetry(self, capsys):
        _, out, _ = run(capsys, ["wavefunction", "--lambda-tilde", "1/10",
                                 "--points", "41"])
        rows = [line.split(",") for line in out.splitlines()[1:]]
        phi = [r[1] for r in rows]
        assert phi == phi[::-1]  # even state, symmetric grid


class TestFigures:
    def test_files_identities_and_runtime(self, capsys, tmp_path):
        t0 = time.time()
        code, _, _ = run(capsys, ["figures", "--out", str(tmp_path)])
        elapsed = time.time() - t0
        assert code == 0
        assert elapsed < 5.0
        for name in ("fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv"):
            assert (tmp_path / name).exists()

        # every value re-parses exactly and matches the closed form
        rows = (tmp_path / "fig1.csv").read_text().splitlines()
        assert rows[0] == "lambda,n,E"
        assert len(rows) == 1 + 4 * 81
        for row in rows[1:]:
            lam, n, e = row.split(",")
            n = int(n)
            assert F(e) == -n * (n + 1) * F(lam) / 2 + F(2 * n + 1) * 5

        rows = (tmp_path / "fig2.csv").read_text().splitlines()
        assert rows[0] == "lambda,omega_hz,E"
        for row in rows[1:]:
            lam, w, e = row.split(",")
            assert F(e) == -F(lam) + F(3, 2) * F(w)

        rows = (tmp_path / "fig3.csv").read_text().splitlines()
        assert rows[0] == "n,omega_hz,E"
        assert len(rows) == 1 + 3 * 10
        for row in rows[1:]:
            n, w, e = row.split(",")
            n = int(n)
            assert F(e) == -F(n * (n + 1), 2) + F(2 * n + 1) * F(w) / 2

        rows = (tmp_path / "fig4.csv").read_text().splitlines()
        assert rows[0] == "omega,n,E"
        assert len(rows) == 1 + 3 * 30
        for row in rows[1:]:
            w, n, e = row.split(",")
            n = int(n)
            assert F(e) == -F(n * (n + 1), 2) + F(2 * n + 1) * F(w) / 2

    def test_byte_determinism(self, capsys, tmp_path):
        run(capsys, ["figures", "--out", str(tmp_path / "a")])
        run(capsys, ["figures", "--out", str(tmp_path / "b")])
        for name in ("fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_caption_variant_omegas(self, capsys, tmp_path):
        run(capsys, ["figures", "--out", str(tmp_path),
                     "--fig2-omegas", "10,20,30"])
        rows = (tmp_path / "fig2.csv").read_text().splitlines()[1:]
        assert {r.split(",")[1] for r in rows} == {"10", "20", "30"}

    def test_sweep_needs_two_points(self, capsys, tmp_path):
        code, _, err = run(capsys, ["figures", "--out", str(tmp_path),
                                    "--lam-points", "1"])
        assert code == 2
        assert "lam-points" in err


class TestExitCodes:
    def test_exclusive_lambda_flags(self, capsys):
        code, _, err = run(capsys, ["spectrum", "--lambda", "1",
                                    "--lambda-tilde", "1/10"])
        assert code == 2
        assert "mutually exclusive" in err

    def test_bad_rational(self, capsys):
        code, _, err = run(capsys, ["spectrum", "--omega", "abc"])
        assert code == 2
        assert "not a rational" in err

    def test_nonpositive_omega(self, capsys):
        code, _, _ = run(capsys, ["spectrum", "--omega", "-3"])
        assert code == 2

    def test_unnormalizable_state(self, capsys):
        code, _, err = run(capsys, ["wavefunction", "--lambda-tilde", "1/4",
                                    "--n", "4"])
        assert code == 3
        assert "normalizable_max_n" in err

    def test_io_failure(self, capsys, tmp_path):
        blocker = tmp_path / "plain.txt"
        blocker.write_text("x")
        code, _, _ = run(capsys, ["spectrum", "--out",
                                  str(blocker / "sub.csv")])
        assert code == 4

    def test_point_count_guard(self, capsys):
        code, _, _ = run(capsys, ["wavefunction", "--points", "1"])
        assert code == 2

    def test_point_count_checked_before_normalization(self, capsys):
        code, _, err = run(capsys, ["wavefunction", "--lambda-tilde", "1/4",
                                    "--n", "4", "--points", "1"])
        assert code == 2
        assert "--points" in err

    def test_zero_omega_with_lambda(self, capsys):
        code, _, err = run(capsys, ["spectrum", "--omega", "0",
                                    "--lambda", "1"])
        assert code == 2
        assert "omega = 0" in err


def test_console_script_installed(capsys):
    """The `aimosc` script that pyproject.toml declares resolves to `cli.main`.

    The suite runs without installing the package, so this checks the
    declared entry point; `test_installed_aimosc_command` runs the installed
    command where one is on PATH.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["aimosc"]
    mod, attr = target.split(":")
    entry = getattr(importlib.import_module(mod), attr)
    assert entry is cli.main
    assert entry(["spectrum", "--omega", "10", "--lambda", "1",
                  "--format", "csv"]) == 0
    assert "29" in capsys.readouterr().out


@pytest.mark.skipif(shutil.which("aimosc") is None,
                    reason="aimosc entry point missing from PATH")
def test_installed_aimosc_command():
    exe = shutil.which("aimosc")
    proc = subprocess.run([exe, "spectrum", "--omega", "10", "--lambda", "1",
                           "--format", "csv"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "29" in proc.stdout
    proc = subprocess.run([exe, "wavefunction", "--points", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
