"""Command-line surface: formats, exit codes, figure data files."""
import collections
import contextlib
import importlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from argparse import Namespace
from decimal import Decimal, localcontext
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimosc import aim_core, cli, fh_oscillator, sl_oracle


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

    def test_iteration_builds_only_the_rows_it_keeps(self, monkeypatch):
        # route 2 certifies only n <= --kmax, so only those closed rows
        # are built, however large --n-max is
        closed, built = cli._closed_entries, []

        def counted(cfg, n_top=None):
            built.append(closed(cfg, n_top))
            return built[-1]
        monkeypatch.setattr(cli, "_closed_entries", counted)
        code, out = run_quiet(["spectrum", "--method", "aim", "--format",
                               "csv", "--n-max", "100000", "--kmax", "2"])
        assert code == 0 and len(out.splitlines()) == 4
        assert [len(rows) for rows in built] == [3]

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
        # P = (r^2 E_h - E_H) / (r^2 - 1) of two midpoints of 1e-3 brackets
        r = 2001 / 1001
        assert all(g <= 0.5e-3 * (r * r + 1) / (r * r - 1) for g in gaps)
        assert max(gaps) > 1e-5  # --tol 1e-3 was honoured, not tightened

    def test_oracle_at_large_omega(self, capsys):
        # route 3 solves at omega = 1 on the default grid, so E_tilde comes
        # out the same at every omega, and E is omega E_tilde / 2; no power
        # of omega but omega itself need be a float
        for omega in ("1e4", "1e6", "1e7", "1e300"):
            code, out, _ = run(capsys, ["spectrum", "--method", "oracle",
                                        "--omega", omega, "--grid-N", "3000",
                                        "--format", "json"])
            assert code == 0, omega
            entries = json.loads(out)["entries"]
            levels = [e["E_tilde_dec"] for e in entries]
            assert len(levels) == 4
            for v, want in zip(levels, (1, 3, 5, 7)):
                assert abs(v - want) < 1e-3, (omega, levels)
            assert [e["E_dec"] for e in entries] == \
                [float(omega) * v / 2 for v in levels]

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

    def test_marginal_flag_is_the_census_edge(self):
        # the integer identity num p = q^2 against E_tilde_n == the census
        # threshold as Fractions, for lambda_tilde = p/q in [0, 2], q <= 40
        marginal = []
        for lt in sorted({F(p, q) for q in range(1, 41)
                          for p in range(2 * q + 1)}):
            census = fh_oscillator.bound_state_info(lt)
            for n in range(61):
                flag = census.marginal(n)
                assert flag == (fh_oscillator.spectrum_closed_dimensionless(
                    n, lt) == census.threshold), (lt, n)
                if flag:
                    marginal.append((lt, n))
        # lambda_tilde 1/4, n = 3 is the spectrum_json_marginal golden
        assert (F(1, 2), 1) in marginal and (F(1, 4), 3) in marginal
        assert all(lt for lt, _ in marginal)

    @pytest.mark.parametrize("first", ["closed", "aim"])
    def test_n_max_past_the_oracle_rows_rejected_before_any_row(
            self, capsys, monkeypatch, first):
        # the same exit, whichever method comes before the oracle
        def no_rows(cfg):
            raise AssertionError(f"the {first} rows were built")
        monkeypatch.setattr(cli, "_closed_entries", no_rows)
        monkeypatch.setattr(cli, "_aim_report", no_rows)
        code, out, err = run(capsys, ["spectrum", "--method", first,
                                      "--method", "oracle", "--n-max",
                                      "100000"])
        assert (code, out) == (2, "")
        assert err == ("error: --n-max asks the oracle for n = 0..100000, "
                       "more than the 3999 levels of --grid-N 3999\n")


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
        # max |delta| is about 1e-6 here, above the run's own resolution of
        # 1e-7 at n = 3; a stricter --tol must gate more strictly, never
        # fall back to a looser default
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

    def test_every_strictly_bound_level_checked(self, capsys):
        # at lt = 1/10 the levels n <= 8 lie below the edge 10, and each
        # reports its |delta|, its two error estimates and its resolution
        code, out, _ = run(capsys, ["verify", "--lambda-tilde", "1/10",
                                    "--n-max", "9"])
        assert code == 0
        oracle = json.loads(out)["checks"][1]
        assert oracle["passed"] is True
        per_n = [oracle[key] for key in ("deltas", "estimates_h",
                                         "estimates_T", "resolutions")]
        assert [len(v) for v in per_n] == [9] * 4
        assert oracle["detail"].startswith("n <= 8, ")
        for d, e_h, e_t, res in zip(*per_n):
            assert res == 2 * (e_h + e_t) + 1e-9
            assert d <= res and d < 1e-7

    def test_strictly_bound_cut_is_the_integer_rule(self):
        # the n the oracle check keeps, by (n + 1) p < q at lt = p/q, are
        # those n <= n_max that are normalizable and have lt E_n < 1, by the
        # census and the closed form in Fractions, for every p/q in [0, 1)
        # with q <= 80 and every n_max < 60
        closed = fh_oscillator.spectrum_closed_dimensionless
        for q in range(1, 81):
            for p in range(q):
                lt = F(p, q)
                if lt.denominator != q:
                    continue
                census = fh_oscillator.bound_state_info(lt)
                kept = [census.bound(n) and lt * closed(n, lt) < 1
                        for n in range(60)]
                for n_max in range(60):
                    top = cli._oracle_top(Namespace(n_max=n_max, census=census,
                                                    omega=F(1)))
                    want = [n for n in range(n_max + 1) if kept[n]]
                    assert list(range(census.below_edge(top) + 1)) == want, \
                        (lt, n_max)

    def test_error_bar_gates_below_tol(self, capsys):
        # at --grid-T 4 the truncated domain lifts the levels by up to
        # 1.7e-3, inside --tol 1e-2 but far outside the discretization
        # error, which truncation does not move; the truncation estimate
        # sees it, and a resolution wider than --tol certifies nothing
        code, out, _ = run(capsys, ["verify", "--grid-T", "4"])
        assert code == 1
        oracle = json.loads(out)["checks"][1]
        assert oracle["passed"] is False
        assert max(oracle["deltas"]) < 1e-2
        assert all(d > 2 * e + 1e-9
                   for d, e in zip(oracle["deltas"], oracle["estimates_h"]))
        assert all(d <= res and res > 1e-2 for d, res in
                   zip(oracle["deltas"], oracle["resolutions"]))

    @pytest.mark.parametrize("omega", ["1/1000000000", "1/10000000000"])
    def test_small_omega_is_checked_at_its_own_scale(self, capsys, omega):
        # the levels scale with omega, and so does the bisection width,
        # 1e-9 on the operator at omega = 1; a width of 1e-9 in E passed
        # n = 0 off by 58% at omega 1e-9, and could not order n = 0 and 1
        # at 1e-10
        code, out, _ = run(capsys, ["verify", "--omega", omega])
        assert code == 0
        doc = json.loads(out)
        oracle = doc["checks"][1]
        levels = [float(e["E_dec"]) for e in doc["entries"]]
        assert [d / e < 3e-9 for d, e in zip(oracle["deltas"], levels)] \
            == [True] * 4
        # a coarse grid still fails there, as it does at omega 1
        assert run(capsys, ["verify", "--omega", omega, "--grid-N", "101"]
                   )[0] == 1

    @pytest.mark.parametrize("omega", ["1/1000000000", "1", "1000000"])
    def test_tol_is_in_units_of_omega(self, capsys, omega):
        # the default verify's largest resolution is 1.67e-8 omega: --tol
        # 1e-8 fails it and 1e-7 passes it at every omega.  An absolute
        # --tol bound nothing below omega = 1, and its default 1e-2 failed
        # n = 3 at omega 1e6, whose resolution is 1.67e-2
        for tol, want in (("1e-8", 1), ("1e-7", 0), ("1e-2", 0)):
            code, out, _ = run(capsys, ["verify", "--omega", omega,
                                        "--tol", tol])
            assert code == want, tol
            oracle = json.loads(out)["checks"][1]
            assert oracle["failed"] == ([3] if want else [])

    @pytest.mark.parametrize("lt, omega", [("6/7", "31")] + [
        (f"{q - 1}/{q}", omega) for q in range(8, 13) for omega in ("1", "31")])
    def test_slow_tail_error_is_the_wall(self, capsys, lt, omega):
        # n = 0 falls off as tau^(-1/lt): its error, up to 1.8e-7, is the
        # Dirichlet wall at T, which the h^4 estimate misses; the
        # truncation term brings the level within its resolution
        code, out, _ = run(capsys, ["verify", "--lambda-tilde", lt,
                                    "--omega", omega])
        assert code == 0
        oracle = json.loads(out)["checks"][1]
        (d,), (e_h,), (e_t,), (res,) = (oracle[key] for key in (
            "deltas", "estimates_h", "estimates_T", "resolutions"))
        assert 2 * e_h + 1e-9 < d <= res and e_t > 0

    @pytest.mark.parametrize("argv, pair, grid", [
        (["--n-max", "300", "--grid-N", "2001"], [47, 48],
         "--grid-N 2001 // 4"),
        (["--lambda-tilde", "1/10", "--n-max", "9", "--grid-N", "40"],
         [6, 7], "--grid-N 40 // 2"),
    ])
    def test_unresolved_oracle_levels_fail_the_check(self, capsys, argv,
                                                     pair, grid):
        # every flag is valid input, and each grid has the rows the levels
        # need; two levels that a grid's bisection cannot order are the
        # oracle failing to separate them, a failed check (exit 1), which
        # names them and the grid.  The other checks still run
        code, out, err = run(capsys, ["verify"] + argv)
        assert (code, err) == (1, "")
        aim, oracle, residuals = json.loads(out)["checks"]
        assert oracle["failed"] == pair and oracle["passed"] is False
        assert oracle["detail"] == (
            f"oracle levels n = {pair[0]} and {pair[1]} lie closer than the "
            f"bisection width 1e-09 on {grid}")
        assert oracle["deltas"] == oracle["resolutions"] == []
        assert aim["passed"] is True and residuals["passed"] is True

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
        assert check["covered"] == check["failed"] == check["accepted"] == []
        assert check["passed"] is False
        assert "no root terminated" in check["detail"]

    @pytest.mark.parametrize("lt, lowered", [
        ("2/3", 1),    # normalizable_max_n 0 lowered to -1
        ("1/10", 10),  # normalizable_max_n 9 lowered to -1
    ])
    def test_zero_coverage_fails_in_oracle_and_residuals(
            self, capsys, monkeypatch, lt, lowered):
        # a census that binds no level leaves the oracle and the residual
        # check nothing to compare: both fail, and the oracle solves for no
        # level instead of asking the bisection for none (once exit 2)
        census = fh_oscillator.bound_state_info

        def lowered_census(lam_tilde):
            info = census(lam_tilde)
            return info._replace(
                normalizable_max_n=info.normalizable_max_n - lowered)
        monkeypatch.setattr(fh_oscillator, "bound_state_info", lowered_census)
        code, out, err = run(capsys, ["verify", "--lambda-tilde", lt,
                                      "--grid-N", "500"])
        assert (code, err) == (1, "")
        aim, oracle, residuals = json.loads(out)["checks"]
        assert aim["passed"] is True
        for check in (oracle, residuals):
            assert check["covered"] == check["failed"] == [], check["name"]
            assert check["passed"] is False, check["name"]
        assert oracle["deltas"] == oracle["estimates_h"] == []
        assert oracle["estimates_T"] == oracle["resolutions"] == []

    @pytest.mark.parametrize("lt", ["0", "1/10"])
    def test_inconsistent_eigenfunction_is_a_failed_check(
            self, capsys, monkeypatch, lt):
        # a closed form that gives E_(n+1) for n >= 2 makes those series
        # run past degree n; every flag is valid, so that is a failed
        # check (exit 1), not bad input (exit 2)
        closed = fh_oscillator.spectrum_closed_dimensionless
        monkeypatch.setattr(fh_oscillator, "spectrum_closed_dimensionless",
                            lambda n, lam_tilde: closed(n + (n >= 2),
                                                        lam_tilde))
        code, out, err = run(capsys, ["verify", "--lambda-tilde", lt,
                                      "--grid-N", "2001"])
        assert (code, err) == (1, "")
        check = json.loads(out)["checks"][2]
        assert check["name"] == "eigenfunction_residuals"
        assert check["covered"] == [0, 1, 2, 3]
        assert check["failed"] == [2, 3]
        assert check["passed"] is False

    def test_sampled_residual_fails_its_own_n(self, capsys, monkeypatch):
        residuals = fh_oscillator.residual_check

        def off_at_1(ef):
            rep = residuals(ef)
            if ef.n != 1:
                return rep
            return rep._replace(ode_samples=tuple(
                (tau, r + 2e-9) for tau, r in rep.ode_samples))
        monkeypatch.setattr(fh_oscillator, "residual_check", off_at_1)
        code, out, _ = run(capsys, ["verify", "--grid-N", "2001"])
        assert code == 1
        check = json.loads(out)["checks"][2]
        assert (check["covered"], check["failed"]) == ([0, 1, 2, 3], [1])
        assert check["detail"].startswith("n = [1] fail; ")

    @staticmethod
    def count_builds(monkeypatch):
        """A Counter of the `eigen_polynomial` calls, by n, from now on."""
        build = fh_oscillator.eigen_polynomial
        builds = collections.Counter()

        def counted(n, lam_tilde):
            builds[n] += 1
            return build(n, lam_tilde)
        monkeypatch.setattr(fh_oscillator, "eigen_polynomial", counted)
        return builds

    def test_n_max_past_the_oracle_rows_rejected_before_the_table(
            self, capsys, monkeypatch):
        def no_table(cfg):
            raise AssertionError("the closed-form table was built")
        builds = self.count_builds(monkeypatch)
        monkeypatch.setattr(cli, "_closed_entries", no_table)
        # each of the three grids is built before the table
        for flags, levels in [
                (["--n-max", "100000"],
                 "n = 0..100000, more than the 3999 levels of --grid-N 3999"),
                (["--grid-N", "40", "--n-max", "15"],
                 "n = 0..15, more than the 10 levels of --grid-N 40 // 4")]:
            code, out, err = run(capsys, ["verify"] + flags)
            assert (code, out) == (2, "")
            assert err == f"error: --n-max asks the oracle for {levels}\n"
        assert builds == {}

    @pytest.mark.parametrize("flags, want", [
        # the residuals read n <= 3
        ([], {0: 1, 1: 1, 2: 1, 3: 1}),
        # the residuals read n <= 5; the oracle reads no EigenFunction now
        (["--lambda-tilde", "1/10", "--n-max", "9"],
         dict.fromkeys(range(6), 1)),
        # only n = 0 is normalizable: no other n is built
        (["--lambda-tilde", "5/6"], {0: 1}),
    ])
    def test_each_read_eigenfunction_built_once(self, capsys, monkeypatch,
                                                flags, want):
        builds = self.count_builds(monkeypatch)
        code, _, err = run(capsys, ["verify"] + flags)
        assert (code, err) == (0, "")
        assert builds == want

    def test_shallowest_depth_covers_kmax_levels(self, capsys):
        code, out, _ = run(capsys, ["verify", "--lambda-tilde", "1/10",
                                    "--kmax", "2", "--grid-N", "4000"])
        assert code == 0
        check = json.loads(out)["checks"][0]
        assert check["passed"] is True
        assert check["detail"] == "n <= 2 at k_max = 2; all exact"
        assert check["accepted"] == ["1", "14/5", "22/5"]

    @pytest.mark.parametrize("lt", ["0", "1/10"])
    def test_accepted_roots_in_increasing_order(self, capsys, lt):
        # as the report lists them, distinct and by value, not by text
        _, out, _ = run(capsys, ["verify", "--lambda-tilde", lt,
                                 "--grid-N", "2001"])
        accepted = [F(v) for v in json.loads(out)["checks"][0]["accepted"]]
        assert len(accepted) == 9
        assert all(a < b for a, b in zip(accepted, accepted[1:]))

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


def run_quiet(argv):
    """Exit code and stdout of one main, without capsys (for properties)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


lt_draws = st.integers(1, 12).flatmap(
    lambda q: st.builds(F, st.integers(0, q - 1), st.just(q)))


class TestPassRule:
    """Every verify check passes exactly when it covered some n and none
    of them failed; it fails only n it covered, and covers only n that
    the table lists."""

    @staticmethod
    def assert_pass_rule(doc):
        table = set(range(doc["params"]["n_max"] + 1))
        for c in doc["checks"]:
            assert c["passed"] == (bool(c["covered"]) and not c["failed"]), c
            assert set(c["failed"]) <= set(c["covered"]) <= table, c

    @pytest.mark.parametrize("name", ["verify_lt0", "verify_lt1_10",
                                      "verify_lt1_3", "verify_lt1_7",
                                      "verify_printed_signs"])
    def test_goldens(self, name):
        path = Path(__file__).resolve().parent / "golden" / f"{name}.stdout"
        self.assert_pass_rule(json.loads(path.read_text()))

    @settings(max_examples=25, deadline=None)
    @given(lt_draws)
    def test_over_lambda_tilde(self, lt):
        code, out = run_quiet(["verify", "--lambda-tilde", str(lt),
                               "--grid-N", "2001"])
        doc = json.loads(out)
        self.assert_pass_rule(doc)
        assert code == (0 if all(c["passed"] for c in doc["checks"]) else 1)


omega_draws = st.builds(F, st.integers(1, 50), st.integers(1, 50))


@settings(max_examples=50, deadline=None)
# route 2 over its whole domain: any anchor tau0 = a/b and depth k_max
@given(lt_draws, omega_draws, st.integers(0, 12), st.integers(2, 14),
       st.builds(F, st.integers(-20, 20), st.integers(1, 9)))
# the two runs that exited 1 on --tol while the two-grid gate stood
@example(F(0), F(31), 10, 8, F(0))
@example(F(0), F(1), 30, 31, F(0))
# the slow tails: n = 0 falls off as tau^(-1.17) to tau^(-1.09), and its
# error is the wall at T, which the h^4 estimate misses
@example(F(6, 7), F(31), 0, 8, F(0))
@example(F(7, 8), F(1), 0, 8, F(0))
@example(F(7, 8), F(31), 0, 8, F(0))
@example(F(8, 9), F(1), 0, 8, F(0))
@example(F(8, 9), F(31), 0, 8, F(0))
@example(F(9, 10), F(1), 0, 8, F(0))
@example(F(9, 10), F(31), 0, 8, F(0))
@example(F(10, 11), F(1), 0, 8, F(0))
@example(F(10, 11), F(31), 0, 8, F(0))
@example(F(11, 12), F(1), 0, 8, F(0))
@example(F(11, 12), F(31), 0, 8, F(0))
def test_every_level_within_its_resolution(lt, omega, n_max, kmax, tau0):
    code, out = run_quiet(["verify", "--lambda-tilde", str(lt), "--omega",
                           str(omega), "--n-max", str(n_max), "--kmax",
                           str(kmax), f"--tau0={tau0}"])
    oracle = json.loads(out)["checks"][1]
    assert oracle["covered"] == list(range(len(oracle["deltas"]))) != []
    assert all(d <= res for d, res in zip(oracle["deltas"],
                                          oracle["resolutions"])), oracle
    assert code == 0, out


def counted_verify(flags):
    """Exit code, oracle check and entries of one verify, and its count
    calls as (rows of the block, x, stop), in order."""
    calls = []
    count = sl_oracle.eigen_count_below

    def counted(block, x, stop=None):
        calls.append((block.n, x, stop))
        return count(block, x, stop)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sl_oracle, "eigen_count_below", counted)
        code, out = run_quiet(["verify"] + flags)
    doc = json.loads(out)
    return code, doc["checks"][1], doc["entries"], calls


@settings(max_examples=30, deadline=None)
@given(lt_draws, st.integers(-12, 12))
# n = 3 once failed an absolute --tol at omega 1e6; at 1e-9 the middle
# grid's hint pair once missed, 153 counts against 49 at omega 1
@example(F(0), 6)
@example(F(0), -9)
def test_omega_scales_out_of_route_3(lt, k):
    # the default grid is the same operator at every omega, solved at
    # omega = 1 and scaled by omega once: the same count calls, bit for
    # bit, the same exit code, and the same deltas and resolutions in units
    # of omega, to 1e-9 relative or the rounding of the level (omega P,
    # float(omega) and E each round by half an ulp)
    flags = ["--lambda-tilde", str(lt)]
    code, oracle, entries, calls = counted_verify(flags)
    omega = F(10) ** k
    code_w, oracle_w, _, calls_w = counted_verify(flags + ["--omega",
                                                           str(omega)])
    assert code_w == code and calls_w == calls
    w = float(omega)
    for key in ("deltas", "resolutions"):
        for a, b, e in zip(oracle_w[key], oracle[key], entries):
            assert abs(a / w - b) <= 1e-9 * b + 2 ** -51 * e["E_dec"], key


class TestOracleHints:
    """verify's finer bisections count hints first; the coarsest grid has
    none, and verify samples no state.  The middle grid's hints are the
    Richardson point of the level of the grid below and the closed form.
    The fine grid's are the ends of the bisection leaf around that point
    moved by the h^4 term the middle grid measured, with the leaf's third
    node where the move is no more than the point's half-width, else with
    a pair around the level of the grid below.  They steer only how many
    sweeps the bisections take, never what verify reports."""

    @staticmethod
    def with_hints(argv, change):
        solve = sl_oracle.lowest_eigenvalues

        def changed(op, m, tol, hints=()):
            return solve(op, m, tol, change(hints))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sl_oracle, "lowest_eigenvalues", changed)
            return run_quiet(argv)

    def assert_same_report(self, argv):
        # each change reaches the hints of every grid
        want = run_quiet(argv)
        assert self.with_hints(argv, lambda hints: ()) == want
        assert self.with_hints(argv, lambda hints: [
            [x + 1e-3 for x in h] for h in hints]) == want
        assert self.with_hints(argv, lambda hints: [
            [math.nan] * len(h) for h in hints]) == want

    @settings(max_examples=10, deadline=None)
    @given(lt_draws, omega_draws, st.integers(0, 12))
    def test_hints_steer_only_speed(self, lt, omega, n_max):
        self.assert_same_report(["verify", "--lambda-tilde", str(lt),
                                 "--omega", str(omega), "--n-max", str(n_max)])

    @pytest.mark.parametrize("flags", [["--grid-N", "4000"],
                                       ["--grid-N", "4001"],
                                       ["--grid-T", "4"]])
    def test_hints_steer_only_speed_off_the_default_grid(self, flags):
        # an even grid, where H/h is not 2; an odd one whose coarsest grid
        # takes its own points, where the middle grid's ratio is 2001/1001;
        # and a truncated one, where h^2 is not the leading error and the
        # prediction misses
        self.assert_same_report(["verify"] + flags)

    @staticmethod
    def count_calls(flags):
        """The grids verify solves, in order, and the count calls on each;
        those made after the last solve, by the truncation estimate, under
        the key "truncation"."""
        solve = sl_oracle.lowest_eigenvalues
        count = sl_oracle.eigen_count_below
        calls, solving, current = collections.Counter(), [], [None]

        def solve_counted(op, *args):
            solving.append(op.n)
            current[0] = op.n
            try:
                return solve(op, *args)
            finally:
                current[0] = "truncation"

        def counted(*args):
            calls[current[0]] += 1
            return count(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sl_oracle, "lowest_eigenvalues", solve_counted)
            mp.setattr(sl_oracle, "eigen_count_below", counted)
            run_quiet(["verify"] + flags)
        fine = int(flags[flags.index("--grid-N") + 1]) \
            if "--grid-N" in flags else 3999
        assert solving == [fine // 4, fine // 2, fine]
        return fine, calls

    @pytest.mark.parametrize("flags, want", [
        (["--lambda-tilde", "1/10"], 146),
        (["--lambda-tilde", "5/6"], 42),
        (["--grid-T", "4"], 157),
    ])
    def test_coarse_grid_count_calls(self, flags, want):
        # the coarsest grid counts no hints: as many counts as a bisection
        # of the same operator with every hint dropped
        fine, calls = self.count_calls(flags)
        solve = sl_oracle.lowest_eigenvalues
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sl_oracle, "lowest_eigenvalues",
                       lambda op, m, tol, hints=(): solve(op, m, tol))
            _, bare = self.count_calls(flags)
        assert calls[fine // 4] == bare[fine // 4] == want

    @pytest.mark.parametrize("flags, most", [
        # the caps of the coarse grid of 3999 rows when it was the only
        # one below the fine grid, which took 34, 8 and 147 counts
        (["--lambda-tilde", "1/10"], 50),
        (["--lambda-tilde", "5/6"], 12),
        (["--grid-T", "4"], 166 + 2 * 4),
        # 117 counts, 100 with the Rayleigh hints the middle grid had before
        (["--lambda-tilde", "1/10", "--n-max", "9"], 122),
    ])
    def test_middle_grid_count_calls(self, flags, most):
        fine, calls = self.count_calls(flags)
        assert 0 < calls[fine // 2] <= most

    @pytest.mark.parametrize("flags, want", [
        # the count at each level plus the width finds it: no bisection
        (["--lambda-tilde", "1/10"], 4),
        (["--lambda-tilde", "1/10", "--n-max", "9"], 9),
    ])
    def test_truncation_counts_once_per_level(self, flags, want):
        _, calls = self.count_calls(flags)
        assert calls["truncation"] == want

    @pytest.mark.parametrize("flags, most", [
        # the coarse-level hints alone took 115 and 125 counts
        (["--lambda-tilde", "1/10"], 40),
        (["--lambda-tilde", "1/10", "--grid-N", "4000"], 40),
        # the prediction misses by far more than its pair's width: 73
        # counts with the coarse-level hints alone, plus 2 a level at most
        (["--grid-T", "4"], 73 + 2 * 4),
        # the top levels' predictions miss: 125 counts with the pair Q -+ w
        # in place of the ends of the leaf around Q'
        (["--lambda-tilde", "1/10", "--n-max", "9"], 40),
    ])
    def test_fine_grid_count_calls(self, flags, most):
        # the byte tests cannot see a prediction with a wrong sign or
        # ratio, which costs sweeps but changes no level
        fine, calls = self.count_calls(flags)
        assert 0 < calls[fine] <= most

    def test_fine_grid_counts_its_leaves_alone(self):
        # the default verify at each lambda_tilde = p/q in [0, 1), q <= 6:
        # 25 fine levels, each found in the leaves around Q' in 3 counts;
        # 216 counts when each took the pairs around Q and E_H instead
        lts = sorted({F(p, q) for q in range(1, 7) for p in range(q)})
        assert len(lts) == 12
        total = 0
        for lt in lts:
            fine, calls = self.count_calls(["--lambda-tilde", str(lt)])
            total += calls[fine]
        assert 0 < total <= 90


class TestOracleSpectrum:
    """spectrum --method oracle prints verify's extrapolated level P, times
    omega: the same three grids, hints and n range, with each row's
    resolution omega (2 (est_h + est_T) + --tol)."""

    @staticmethod
    def oracle_rows(lt, omega, n_max):
        """The oracle rows, each checked against the closed form within its
        resolution, and against verify's n range."""
        flags = ["--lambda-tilde", str(lt), "--omega", str(omega),
                 "--n-max", str(n_max)]
        code, out = run_quiet(["spectrum", "--method", "oracle", "--method",
                               "closed", "--format", "json"] + flags)
        assert code == 0
        entries = json.loads(out)["entries"]
        rows = [e for e in entries if e["method"] == "oracle"]
        closed = {e["n"]: F(e["E"]) for e in entries
                  if e["method"] == "closed_form"}
        for e in rows:
            assert abs(F(e["E_dec"]) - closed[e["n"]]) <= F(e["resolution"]), e
        _, report = run_quiet(["verify", "--kmax", "2"] + flags)
        covered = json.loads(report)["checks"][1]["covered"]
        assert [e["n"] for e in rows] == covered
        return rows

    @settings(max_examples=20, deadline=None)
    @given(lt_draws, st.sampled_from([F(1), F(31), F(1, 7)]),
           st.integers(0, 8))
    # n = 1 lies above the continuum edge, and misses its bar: no row
    @example(F(5, 8), F(1), 3)
    @example(F(7, 11), F(1), 3)
    def test_rows_within_their_resolution(self, lt, omega, n_max):
        self.oracle_rows(lt, omega, n_max)

    def test_deep_harmonic_rows(self):
        # one grid of 7999 rows missed E_20 = 20.5 by 3.3e-3
        rows = self.oracle_rows(F(0), F(1), 20)
        assert len(rows) == 21
        assert rows[-1]["resolution"] < 1e-4

    def test_hints_build_only_the_solved_rows(self, monkeypatch):
        # n = 0 alone lies below the edge at 1/2: a closed-form row for
        # each n <= --n-max took 0.35 s
        closed, built = cli._closed_entries, []

        def counted(cfg, n_top=None):
            built.append(closed(cfg, n_top))
            return built[-1]
        monkeypatch.setattr(cli, "_closed_entries", counted)
        code, out = run_quiet(["spectrum", "--method", "oracle", "--format",
                               "csv", "--lambda-tilde", "1/2", "--n-max",
                               "100000"])
        assert code == 0 and len(out.splitlines()) == 2
        assert [len(rows) for rows in built] == [1]

    @pytest.mark.parametrize("flags", [
        ["--lambda-tilde", "0"], ["--lambda-tilde", "1/10"],
        ["--lambda-tilde", "5/6"], ["--omega", "31"]])
    def test_hints_never_steer_a_row(self, flags):
        # the closed form hints the two finer grids, as on verify; with
        # every hint dropped the same bytes come out
        argv = ["spectrum", "--method", "oracle", "--format", "json"] + flags
        seen = []

        def dropped(hints):
            seen.append(len(hints))
            return ()
        assert TestOracleHints.with_hints(argv, dropped) == run_quiet(argv)
        assert seen[0] == 0 and all(seen[1:]) and len(seen) == 3


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


class TestParserReuse:
    """main parses every call with the one parser the process builds; no
    call may leave anything in it that the next call sees."""

    CSV = ["spectrum", "--omega", "10", "--lambda", "1", "--format", "csv"]
    CSV_OUT = ("n,E_tilde,E,method,bound,marginal\n"
               "0,1,5,closed_form,true,false\n"
               "1,2.8,14,closed_form,true,false\n"
               "2,4.4,22,closed_form,true,false\n"
               "3,5.8,29,closed_form,true,false\n")

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_appended_methods_do_not_carry_over(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--method", "aim",
                                    "--method", "closed"] + self.CSV[1:])
        assert code == 0
        assert [r.split(",")[3] for r in out.splitlines()[1:]] \
            == ["aim"] * 4 + ["closed_form"] * 4
        assert run(capsys, self.CSV) == (0, self.CSV_OUT, "")

    def test_rejected_argv_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(self.CSV[:-1] + ["xml"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert run(capsys, self.CSV) == (0, self.CSV_OUT, "")

    def test_figures_ignore_the_model_flags(self, capsys, tmp_path):
        # figures takes the model flags and reads none of them
        code, _, _ = run(capsys, ["figures", "--lambda-tilde", "1/10",
                                  "--out", str(tmp_path)])
        assert code == 0
        golden = Path(__file__).resolve().parent / "golden" / "figures_default"
        for name in ("fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv"):
            assert (tmp_path / name).read_bytes() \
                == (golden / name).read_bytes()

    def test_fig2_omegas_do_not_carry_over(self, capsys, tmp_path):
        run(capsys, ["figures", "--out", str(tmp_path / "a"),
                     "--fig2-omegas", "10,20,30"])
        code, _, _ = run(capsys, ["figures", "--out", str(tmp_path / "b")])
        assert code == 0
        golden = Path(__file__).resolve().parent / "golden" / "figures_default"
        for name in ("fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv"):
            assert (tmp_path / "b" / name).read_bytes() \
                == (golden / name).read_bytes()


def dec12_localcontext(value):
    """The formatter as it was with a fresh local context per number: the
    reference that cli._dec12 must match character for character."""
    with localcontext() as ctx:
        ctx.prec = 12
        if isinstance(value, F):
            d = Decimal(value.numerator) / Decimal(value.denominator)
        else:
            d = +Decimal(repr(float(value)))
        if d == 0:
            return "0"
        text = format(d.normalize(), "f")
    return text


BIG = 10 ** 400
dec12_fractions = st.one_of(
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.builds(F, st.integers(-10 ** 15, 10 ** 15), st.integers(1, 10 ** 15)),
    # terminating decimals, ties at the 13th digit among them
    st.builds(lambda k, e2, e5: F(k, 2 ** e2 * 5 ** e5),
              st.integers(-10 ** 14, 10 ** 14), st.integers(0, 60),
              st.integers(0, 60)),
    st.builds(lambda k, e: (10 * k + 5) * F(10) ** e,
              st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-300, 300)),
    st.builds(lambda k, e: F(k, 10 ** e), st.integers(-BIG, BIG),
              st.integers(400, 2000)),
)
dec12_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
    # binary-exact ties at 12 significant digits
    st.integers(10 ** 11, 10 ** 12 - 1).map(lambda k: k + 0.5),
    st.integers(10 ** 11, 10 ** 12 - 1).map(lambda k: float(10 * k + 5)),
    st.integers(-10 ** 20, 10 ** 20),
    # shortest repr k5e<e>: 13 digits ending in 5, a tie at 12 digits, of
    # either sign and with .12g in and out of exponent form
    st.builds(lambda sign, k, e: sign * float(f"{k}5e{e}"),
              st.sampled_from((-1, 1)), st.integers(10 ** 11, 10 ** 12 - 1),
              st.integers(-20, 2)),
)


def test_dec12_rounds_13_digit_ties_as_the_repr():
    # x lies off its shortest repr, a tie: .12g of x alone rounds about
    # half of these the other way
    ties = [sign * float(f"{k}5e{e}") for sign in (-1, 1)
            for k in range(10 ** 11, 10 ** 11 + 25)
            for e in (-16, -12, -8, -3)]
    want = [dec12_localcontext(x) for x in ties]
    assert [cli._dec12(x) for x in ties] == want
    assert sum(format(x, ".12g") != w for x, w in zip(ties, want)) > 50


@given(st.one_of(dec12_fractions, dec12_floats), st.integers(1, 10 ** 30))
@example(F(0), 5)
@example(F(-1, 3), 7)
@example(F(1, 10 ** 1000), 3)
@example(F(1000000000005, 10 ** 13), 9)  # a tie at the 13th digit
@example(5e-324, 1)
@example(-2.2250738585072014e-308, 1)
@example(1e300, 1)
@example(-1e300, 1)
@example(-0.0, 1)
@example(100000000000.5, 1)
@example(100000000001.5, 1)
def test_dec12_matches_localcontext_formatter(value, k):
    want = dec12_localcontext(value)
    assert cli._dec12(value) == want
    if type(value) is F:
        # one correctly rounded division of the same quotient: the
        # unreduced pair prints the digits of the reduced Fraction
        assert cli._ratio12(k * value.numerator, k * value.denominator) == want


def figures_reference(lam_max, points, omegas, fig_lambda):
    """The four figure files from Fraction arithmetic and the localcontext
    formatter."""
    def level(n, omega, lam):
        return F(2 * n + 1) * omega / 2 - F(n * (n + 1)) * lam / 2

    fmt = dec12_localcontext
    sweep = [i * lam_max / (points - 1) for i in range(points)]
    files = {
        "fig1.csv": ["lambda,n,E"] + [
            f"{fmt(lam)},{n},{fmt(level(n, 10, lam))}"
            for n in range(4) for lam in sweep],
        "fig2.csv": ["lambda,omega_hz,E"] + [
            f"{fmt(lam)},{fmt(w)},{fmt(level(1, w, lam))}"
            for w in omegas for lam in sweep],
        "fig3.csv": ["n,omega_hz,E"] + [
            f"{n},{w},{fmt(level(n, w, fig_lambda))}"
            for w in (10, 20, 30) for n in range(10)],
        "fig4.csv": ["omega,n,E"] + [
            f"{w},{n},{fmt(level(n, w, fig_lambda))}"
            for n in (1, 2, 3) for w in range(1, 31)],
    }
    return {name: ("\n".join(rows) + "\n").encode("ascii")
            for name, rows in files.items()}


nonnegative_rats = st.builds(F, st.integers(0, 10 ** 12), st.integers(1, 10 ** 12))
positive_rats = st.builds(F, st.integers(1, 10 ** 12), st.integers(1, 10 ** 12))


@settings(max_examples=40, deadline=None)
@given(nonnegative_rats, st.integers(2, 40),
       st.lists(positive_rats, min_size=1, max_size=3), nonnegative_rats)
@example(F(2), 81, [F(10), F(12), F(14)], F(1))  # the defaults
@example(F(0), 2, [F(1, 3)], F(0))
@example(F(3, 7), 40, [F(10), F(20), F(30)], F(3, 2))
# fig1's E_1 = 15 - lambda is 1e-25 below a 12-digit tie, which the exact
# quotient rounds down and a float quotient would round up
@example(F(49999999999, 10 ** 10) - F(5, 10 ** 11) + F(1, 10 ** 25), 2,
         [F(10)], F(1))
def test_figure_bytes_match_fraction_reference(lam_max, points, omegas,
                                               fig_lambda):
    with tempfile.TemporaryDirectory() as out:
        assert cli.main(["figures", "--out", out, "--lam-max", str(lam_max),
                         "--lam-points", str(points),
                         "--fig2-omegas", ",".join(map(str, omegas)),
                         "--fig-lambda", str(fig_lambda)]) == 0
        want = figures_reference(lam_max, points, omegas, fig_lambda)
        for name, data in want.items():
            assert (Path(out) / name).read_bytes() == data, name


# each subcommand takes only the flags it reads
NOT_TAKEN = [("verify", ["--format", "json"]),
             ("spectrum", ["--printed-signs"])] + [
    (command, flag)
    for command in ("wavefunction", "figures")
    for flag in (["--n-max", "3"], ["--kmax", "8"], ["--tau0", "0"],
                 ["--grid-T", "10"], ["--grid-N", "300"], ["--printed-signs"],
                 ["--tol", "1e-3"], ["--format", "csv"])]


@pytest.mark.parametrize("command, flag", NOT_TAKEN,
                         ids=[c + f[0] for c, f in NOT_TAKEN])
def test_flag_not_taken_exits_2(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([command] + flag)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + " ".join(flag) in captured.err


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

    def test_no_stable_roots(self, capsys, monkeypatch):
        # route 2 loads only when it runs, so main maps its NoStableRoots to
        # exit 1 without importing it first; in-process it is loaded already
        def nothing_certified(*args, **kwargs):
            raise aim_core.NoStableRoots("no root terminated the iteration")
        monkeypatch.setattr(aim_core, "aim_eigenvalues", nothing_certified)
        argv = ["spectrum", "--method", "aim"]
        error = "error: no root terminated the iteration\n"
        assert run(capsys, argv) == (1, "", error)
        code = ("import sys; sys.path.insert(0, 'src')\n"
                "from aimosc import cli\n"
                "assert 'aimosc.aim_core' not in sys.modules\n"
                "report = cli._aim_report\n"
                "def patched(cfg):\n"
                "    from aimosc import aim_core\n"
                "    def raised(*args, **kwargs):\n"
                "        raise aim_core.NoStableRoots("
                "'no root terminated the iteration')\n"
                "    aim_core.aim_eigenvalues = raised\n"
                "    return report(cfg)\n"
                "cli._aim_report = patched\n"
                f"sys.exit(cli.main({argv!r}))")
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                              cwd=Path(__file__).resolve().parents[1],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", error)

    def test_other_runtime_errors_propagate(self, monkeypatch):
        # only route 2's NoStableRoots is a documented exit
        def broken(*args, **kwargs):
            raise RuntimeError("not a level census")
        monkeypatch.setattr(aim_core, "aim_eigenvalues", broken)
        with pytest.raises(RuntimeError, match="not a level census"):
            cli.main(["spectrum", "--method", "aim"])

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

    def test_n_nonnegative(self, capsys, tmp_path):
        self.rejected(capsys, tmp_path, ["wavefunction", "--n", "-1"], "--n ")

    @pytest.mark.parametrize("argv, flag, later", [
        (["figures", "--lam-points", "1", "--lam-max", "-1"],
         "--lam-max", "--lam-points"),
        (["spectrum", "--method", "aim", "--n-max", "-1", "--kmax", "0"],
         "--n-max", "--kmax"),
        (["verify", "--kmax", "0", "--grid-N", "2"], "--grid-N", "--kmax"),
        (["wavefunction", "--lambda-tilde", "1e-400", "--points", "1"],
         "--lambda-tilde", "--points"),
    ])
    def test_first_fault_named(self, capsys, tmp_path, argv, flag, later):
        # each subcommand checks its flags in a fixed order: of two bad
        # flags, the message names the one checked first
        err = self.rejected(capsys, tmp_path, argv, flag)
        assert later not in err

    def test_tau_grid_finite(self, capsys, tmp_path):
        # finite ends whose span overflows a float, and finite ends whose
        # span is the largest float but whose last sample overflows
        half = sys.float_info.max / 2
        assert math.isfinite(half - -half)
        for lo, hi, points in (("-1e308", "1e308", "3"),
                               (repr(-half), repr(half), "4")):
            err = self.rejected(capsys, tmp_path,
                                ["wavefunction", f"--tau-min={lo}",
                                 f"--tau-max={hi}", "--points", points],
                                "--tau-min")
            assert "--tau-max" in err

    def test_tol_positive_and_finite(self, capsys, tmp_path):
        # the oracle's bisection width, and verify's gate
        for command in (["spectrum", "--method", "oracle"], ["verify"]):
            for tol in ("0", "-1e-3", "inf", "nan"):
                self.rejected(capsys, tmp_path, command + [f"--tol={tol}"],
                              "--tol")

    @pytest.mark.parametrize("argv, flag", [
        (["spectrum", "--method", "oracle", "--omega", "1e400",
          "--grid-N", "300"], "--omega"),
        # omega is a float, but E_3 = 3.5 omega is not
        (["spectrum", "--method", "oracle", "--omega", "1e308",
          "--grid-N", "300"], "--omega"),
        (["spectrum", "--method", "oracle", "--omega", "1e-400",
          "--grid-N", "300"], "--omega"),
        (["verify", "--omega", "1e400", "--grid-N", "300"], "--omega"),
        (["spectrum", "--omega", "1e308", "--format", "json"], "--omega"),
        (["spectrum", "--lambda-tilde", "1e400", "--format", "json"],
         "--lambda-tilde"),
        (["wavefunction", "--lambda-tilde", "1e-400", "--points", "3"],
         "--lambda-tilde"),
        (["wavefunction", "--lambda", "1", "--omega", "1e400"], "--lambda"),
        (["verify", "--lambda-tilde", "1e-400", "--grid-N", "300"],
         "--lambda-tilde"),
        (["verify", "--omega", "1e-400", "--grid-N", "300"], "--omega"),
        (["verify", "--omega", "1e308", "--grid-N", "300"], "--omega"),
    ])
    def test_model_values_out_of_float_range(self, capsys, tmp_path,
                                             argv, flag):
        # a route that takes a model value as a float names the flag that
        # puts it out of floating-point range
        err = self.rejected(capsys, tmp_path, argv, flag)
        assert "out of floating-point range" in err
        assert err.endswith(f"change {flag}\n")

    def test_exact_routes_take_any_model_value(self, capsys):
        # the closed form prints exact decimals whatever their size
        code, out, _ = run(capsys, ["spectrum", "--omega", "1e400",
                                    "--format", "csv"])
        assert code == 0
        assert out.splitlines()[-1] \
            == "3,7,35" + "0" * 399 + ",closed_form,true,false"
        code, _, _ = run(capsys, ["verify", "--printed-signs",
                                  "--lambda-tilde", "1e-400"])
        assert code == 0

    def test_grid_t_positive_and_finite(self, capsys, tmp_path):
        for t in ("inf", "nan", "-1", "0"):
            self.rejected(capsys, tmp_path,
                          ["verify", f"--grid-T={t}", "--grid-N", "200"],
                          "--grid-T")

    def test_grid_n_at_least_three(self, capsys, tmp_path):
        for n in ("0", "2", "-5"):
            self.rejected(capsys, tmp_path, ["verify", f"--grid-N={n}"],
                          "--grid-N")
        # verify's coarser grids have --grid-N // 2 and // 4 rows, which
        # must be 3 too
        for n, div in (("4", 2), ("5", 2), ("8", 4), ("11", 4)):
            err = self.rejected(capsys, tmp_path,
                                ["verify", f"--grid-N={n}", "--n-max=0"],
                                f"--grid-N {n} // {div} is 2 rows")
            assert "raise --grid-N" in err

    @pytest.mark.parametrize("argv, err", [
        (["--grid-N", "5", "--n-max", "0"],
         "--grid-N 5 // 2 is 2 rows, fewer than the 3 a grid needs: "
         "raise --grid-N"),
        (["--grid-N", "3"], "--n-max asks the oracle for n = 0..3, more "
                            "than the 3 levels of --grid-N 3"),
        (["--omega", "1e400", "--grid-N", "300"],
         "omega for the oracle is out of floating-point range: "
         "change --omega"),
        (["--grid-T=1e155", "--grid-N", "1000"],
         "--grid-T 1e+155 is too small or too large for --grid-N 1000"),
        (["--n-max", "9", "--grid-N", "25"],
         "--n-max asks the oracle for n = 0..8, more than the 6 levels of "
         "--grid-N 25 // 4"),
    ])
    def test_oracle_errors_exit_before_the_iteration(self, capsys, tmp_path,
                                                     monkeypatch, argv, err):
        # verify solves the oracle first, so a bad grid costs no iteration
        def not_reached(*args, **kwargs):
            pytest.fail("the iteration ran before the oracle's error")
        monkeypatch.setattr(aim_core, "aim_eigenvalues", not_reached)
        got = self.rejected(capsys, tmp_path,
                            ["verify", "--lambda-tilde", "1/10"] + argv,
                            "--")
        assert got.startswith("error: " + err)

    def test_oracle_levels_within_grid_n(self, capsys, tmp_path):
        # an N-row oracle grid has N levels: asking for more must name the
        # two flags that clash, not fail inside the eigenvalue bisection
        for argv in (["spectrum", "--method", "oracle", "--n-max", "300",
                      "--grid-N", "300"],
                     ["verify", "--grid-N", "3"]):
            assert "--n-max" in self.rejected(capsys, tmp_path, argv,
                                              "--grid-N")

    def test_unresolved_oracle_levels(self, capsys, tmp_path):
        # on the 300-row grid of --grid-N 1200 // 4, bisected first, the
        # high levels sit in the far rows, where the mapped grid is coarse
        # in t, and come in even/odd pairs closer than the bisection width;
        # each level is bisected in its own parity block, and the first pair
        # whose brackets overlap is rejected, whatever order its midpoints
        # come out in, with an error naming the pair and the width
        err = self.rejected(capsys, tmp_path,
                            ["spectrum", "--method", "oracle", "--n-max",
                             "299", "--grid-N", "1200"], "--grid-N 1200 // 4")
        assert err == ("error: oracle levels n = 33 and 34 lie closer than "
                       "the bisection width 1e-10 on --grid-N 1200 // 4: "
                       "lower --n-max or --tol, or change --grid-N\n")
        # verify bisects to a fixed width, and its levels that the
        # bisection cannot order fail a check instead (TestVerify)

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
        # h^2 underflows (a ZeroDivisionError once), or t^2 overflows at
        # the far nodes of the default grid
        for t in ("1e-300", "1e200"):
            err = self.rejected(capsys, tmp_path,
                                ["spectrum", "--method", "oracle",
                                 f"--grid-T={t}"], "--grid-T")
            assert "too small or too large for --grid-N 3999" in err
        # t^2 overflows in the potential on a coarser grid too
        err = self.rejected(capsys, tmp_path,
                            ["verify", "--grid-T=1e155", "--grid-N", "1000"],
                            "--grid-T")
        assert "entries that are not finite" in err
        # T sqrt(omega), the half-width at omega = 1, overflows or
        # underflows
        for command in (["spectrum", "--method", "oracle"], ["verify"]):
            for t, omega, got in (("1e300", "1e150", "inf"),
                                  ("1e300", "1e300", "inf"),
                                  ("1e-300", "1e-300", "0.0")):
                err = self.rejected(capsys, tmp_path, command + [
                    f"--grid-T={t}", "--omega", omega],
                    f"--grid-T {float(t):g} is too small or too large")
                assert f"T must be positive and finite, got {got}" in err


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
