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

import aimosc
from aimosc import aim_core, cli


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

    def test_iteration_lists_every_level_to_kmax(self, capsys):
        # k_max certifies n <= k_max, repeats on the folded spectrum included
        code, out, _ = run(capsys, ["spectrum", "--method", "aim",
                                    "--lambda-tilde", "1/4", "--kmax", "8",
                                    "--n-max", "12", "--format", "json"])
        assert code == 0
        entries = json.loads(out)["entries"]
        assert [e["n"] for e in entries] == list(range(9))
        assert [e["E_tilde"] for e in entries] == \
            ["1", "5/2", "7/2", "4", "4", "7/2", "5/2", "1", "-1"]

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

    def test_oracle_bisects_to_tol(self, capsys):
        argv = ["spectrum", "--method", "oracle", "--grid-T", "10",
                "--grid-N", "2000", "--format", "json"]
        fine = [e["E_dec"] for e in json.loads(run(capsys, argv)[1])["entries"]]
        coarse = [e["E_dec"] for e in
                  json.loads(run(capsys, argv + ["--tol", "1e-3"])[1])["entries"]]
        gaps = [abs(a - b) for a, b in zip(fine, coarse)]
        assert len(gaps) == 4
        assert all(g <= 0.5e-3 for g in gaps)  # midpoint of a 1e-3 bracket
        assert max(gaps) > 1e-5  # --tol 1e-3 was honoured, not tightened

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
        # max |delta| is about 1e-3 here; a stricter --tol must gate
        # more strictly, never fall back to a looser default
        for tol in ("1e-5", "1e-12"):
            code, out, _ = run(capsys, ["verify", "--lambda-tilde", "1/10",
                                        "--grid-T", "15", "--grid-N", "500",
                                        "--tol", tol])
            assert code == 1, tol
            doc = json.loads(out)
            by_name = {c["name"]: c for c in doc["checks"]}
            oracle = by_name["oracle_matches_closed_form"]
            assert oracle["passed"] is False, tol
            assert oracle["detail"].endswith(f"tol = {float(tol):g}")
            assert by_name["aim_matches_closed_form"]["passed"] is True

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

    def test_zero_coverage_fails(self, capsys, monkeypatch):
        # a run that certifies no root covers no level and must fail
        def nothing_certified(*args, **kwargs):
            raise aim_core.NoStableRoots("no root terminated the iteration")
        monkeypatch.setattr(aim_core, "aim_eigenvalues", nothing_certified)
        code, out, _ = run(capsys, ["verify", "--lambda-tilde", "1/10",
                                    "--grid-N", "500"])
        assert code == 1
        check = json.loads(out)["checks"][0]
        assert check["name"] == "aim_matches_closed_form"
        assert check["passed"] is False
        assert "no root terminated" in check["detail"]

    def test_shallowest_depth_covers_kmax_levels(self, capsys):
        code, out, _ = run(capsys, ["verify", "--lambda-tilde", "1/10",
                                    "--kmax", "2", "--grid-N", "4000"])
        assert code == 0
        check = json.loads(out)["checks"][0]
        assert check["passed"] is True
        assert check["detail"] == "n <= 2 at k_max = 2; all exact"
        assert check["accepted"] == ["1", "14/5", "22/5"]

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

    def test_top_level_at_large_denominator(self, capsys):
        # n = 80 is normalizable_max_n at this lambda_tilde; n = 81 is not
        argv = ["wavefunction", "--lambda-tilde", "12345/1000003",
                "--points", "5"]
        code, out, _ = run(capsys, argv + ["--n", "80"])
        assert code == 0
        assert out.splitlines()[3] == "0,0.0209929458803"  # N, as f(0) = 1
        code, _, err = run(capsys, argv + ["--n", "81"])
        assert code == 3
        assert "normalizable_max_n = 80" in err

    def test_far_tails_underflow_to_zero(self, capsys):
        # f(tau) overflows a float here; the envelope wins, and phi is 0
        code, out, _ = run(capsys, ["wavefunction", "--lambda-tilde", "1/10",
                                    "--n", "2", "--tau-min=-1e155",
                                    "--tau-max=1e155", "--points", "3"])
        assert code == 0
        phi = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert phi == ["0", "0.475534386194", "0"]

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
        # rejected before anything is written: no output directory either
        code, _, err = run(capsys, ["figures", "--out",
                                    str(tmp_path / "sub" / "dir"),
                                    "--lam-points", "1"])
        assert code == 2
        assert "lam-points" in err
        assert not (tmp_path / "sub").exists()


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


class TestInputValidation:
    """Each outside input is checked before anything is computed or
    written: exit 2, a one-line message naming the flag, no output."""

    def rejected(self, capsys, tmp_path, argv, flag):
        out = tmp_path / "out"
        code, stdout, err = run(capsys, argv + ["--out", str(out)])
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and flag in err
        assert err.count("\n") == 1
        assert not out.exists()
        return err

    def test_fig2_omegas_positive(self, capsys, tmp_path):
        self.rejected(capsys, tmp_path,
                      ["figures", "--fig2-omegas", "0,10"], "--fig2-omegas")

    def test_lam_max_nonnegative(self, capsys, tmp_path):
        self.rejected(capsys, tmp_path, ["figures", "--lam-max", "-1"],
                      "--lam-max")

    def test_fig_lambda_nonnegative(self, capsys, tmp_path):
        self.rejected(capsys, tmp_path, ["figures", "--fig-lambda", "-2"],
                      "--fig-lambda")

    def test_tau_max_finite(self, capsys, tmp_path):
        self.rejected(capsys, tmp_path, ["wavefunction", "--tau-max", "inf"],
                      "--tau-max")

    def test_tau_min_finite(self, capsys, tmp_path):
        self.rejected(capsys, tmp_path, ["wavefunction", "--tau-min", "nan"],
                      "--tau-min")

    def test_tol_positive_and_finite(self, capsys, tmp_path):
        for tol in ("0", "-1e-3", "inf", "nan"):
            self.rejected(capsys, tmp_path, ["wavefunction", f"--tol={tol}"],
                          "--tol")

    def test_grid_t_positive_and_finite(self, capsys, tmp_path):
        for t in ("inf", "nan", "-1", "0"):
            self.rejected(capsys, tmp_path,
                          ["verify", f"--grid-T={t}", "--grid-N", "200"],
                          "--grid-T")

    def test_grid_n_at_least_three(self, capsys, tmp_path):
        for n in ("0", "2", "-5"):
            self.rejected(capsys, tmp_path, ["verify", f"--grid-N={n}"],
                          "--grid-N")

    def test_oracle_levels_within_grid_n(self, capsys, tmp_path):
        # an N-row oracle grid has N levels: asking for more must name the
        # two flags that clash, not fail inside the eigenvalue bisection
        for argv in (["spectrum", "--method", "oracle", "--n-max", "300",
                      "--grid-N", "300"],
                     ["verify", "--grid-N", "3"]):
            assert "--n-max" in self.rejected(capsys, tmp_path, argv,
                                              "--grid-N")

    def test_unresolved_oracle_levels(self, capsys, tmp_path):
        # the high levels of a 300-row grid come in even/odd pairs closer
        # than the bisection width; each level is bisected in its own parity
        # block, and the first pair whose brackets overlap is rejected,
        # whatever order its midpoints come out in, with an error naming the
        # pair and the width
        err = self.rejected(capsys, tmp_path,
                            ["spectrum", "--method", "oracle", "--n-max",
                             "299", "--grid-N", "300"], "--grid-N 300")
        assert err == ("error: oracle levels n = 238 and 239 lie closer than "
                       "--tol 1e-10 on --grid-N 300, so the bisection cannot "
                       "order them; lower --n-max or change --grid-N\n")
        # verify bisects to a fixed width; its --tol is the gate.  At
        # T = 300 the rows at t = +-129 couple only through the centre rows,
        # so levels 2 and 3 split by about 1e-12; at T = 500 they agree to
        # the last bit, and their midpoints happen to come out in order
        for t in ("300", "500"):
            err = self.rejected(capsys, tmp_path,
                                ["verify", "--grid-T", t, "--grid-N", "6"],
                                "--grid-N 6")
            assert "n = 2 and 3" in err and "bisection width 1e-09" in err

    def test_kmax_at_least_two(self, capsys, tmp_path):
        # the iteration needs two rounds to tell a stable root
        for argv in (["spectrum", "--method", "aim", "--kmax", "1"],
                     ["verify", "--kmax", "0"]):
            err = self.rejected(capsys, tmp_path, argv, "--kmax")
            assert "at least 2" in err
        # the closed form and the printed-signs demo do not iterate that far
        for argv in (["spectrum", "--kmax", "0"],
                     ["verify", "--printed-signs", "--lambda-tilde", "1/3",
                      "--kmax", "0"]):
            code, _, _ = run(capsys, argv)
            assert code == 0

    def test_grid_t_fits_the_grid(self, capsys, tmp_path):
        # h^2 underflows (a ZeroDivisionError once) or overflows (zero
        # couplings, which the parity fold cannot take)
        for t in ("1e-300", "1e200"):
            err = self.rejected(capsys, tmp_path,
                                ["spectrum", "--method", "oracle",
                                 f"--grid-T={t}"], "--grid-T")
            assert "too small or too large for --grid-N 30000" in err
        # finite h^2, but t^2 overflows in the potential
        err = self.rejected(capsys, tmp_path,
                            ["verify", "--grid-T=1e155", "--grid-N", "1000"],
                            "--grid-T")
        assert "entries that are not finite" in err


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


def test_star_import_binds_every_export():
    # a stale name in __all__ makes the star import fail or leave it unbound
    namespace = {}
    exec("from aimosc import *", namespace)
    assert [n for n in aimosc.__all__ if n not in namespace] == []


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
