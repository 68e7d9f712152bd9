"""The mutant gallery: every route-level fact that `verify` must guard.

Each mutant monkeypatches one fact and runs `verify` in-process, which
must exit 1 with the named checks failed.  A mutant that survives today
is `xfail(strict=True)` and names the ROADMAP item that must catch it;
the change that lands that item turns it into a plain test.
"""
import json

import pytest

from aimosc import cli, fh_oscillator, sl_oracle

GRID_N = 2001


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def failed_checks(capsys, lt, omega="1"):
    """Exit code and failed check names of `verify` at lambda_tilde lt."""
    code, out, err = run(capsys, ["verify", "--lambda-tilde", lt,
                                  "--omega", omega, "--grid-N", str(GRID_N),
                                  "--n-max", "9"])
    assert err == ""
    return code, [c["name"] for c in json.loads(out)["checks"]
                  if not c["passed"]]


lam_tildes = pytest.mark.parametrize("lt", ["0", "1/10"])


@lam_tildes
def test_control_passes(capsys, lt):
    assert failed_checks(capsys, lt) == (0, [])


@lam_tildes
def test_flipped_l0_fails_the_aim_check(capsys, monkeypatch, lt):
    inputs = fh_oscillator.aim_inputs

    def flipped(lam_tilde, printed_signs=False):
        l0, s0, u = inputs(lam_tilde, printed_signs)
        return {key: -c for key, c in l0.items()}, s0, u
    monkeypatch.setattr(fh_oscillator, "aim_inputs", flipped)
    assert failed_checks(capsys, lt) == (1, ["aim_matches_closed_form"])


@lam_tildes
def test_closed_form_one_level_up_fails_every_check(capsys, monkeypatch, lt):
    # E_(n+1) for n >= 2; at lambda_tilde 1/3 and n <= 3 that changes
    # nothing, because there E_2 = E_3
    closed = fh_oscillator.closed_numerator
    monkeypatch.setattr(fh_oscillator, "closed_numerator",
                        lambda n, p, q: closed(n + (n >= 2), p, q))
    assert failed_checks(capsys, lt) == (1, [
        "aim_matches_closed_form", "oracle_matches_closed_form",
        "eigenfunction_residuals"])


@pytest.mark.xfail(strict=True, reason="verify checks no normalization: "
                   "ROADMAP item 4 must catch it")
@lam_tildes
def test_normalization_off_by_one_percent_is_caught(capsys, monkeypatch, lt):
    norm = fh_oscillator.normalization_constant
    monkeypatch.setattr(fh_oscillator, "normalization_constant",
                        lambda ef: 1.01 * norm(ef))
    assert failed_checks(capsys, lt)[0] == 1


@pytest.mark.xfail(strict=True, reason="verify reads the envelope only "
                   "in _full_ode_residuals, where the exponent enters as "
                   "the common factor u^a of every term: ROADMAP item 4 "
                   "must catch it")
def test_envelope_exponent_stretched_is_caught(capsys, monkeypatch):
    # at lambda_tilde 0 the exponent is None and the envelope exp(-tau^2/2),
    # so the mutant changes nothing there; a property, not a cached one,
    # also overrides a value an EigenFunction has cached already
    def stretched(ef):
        e = ef.envelope_exponent
        return float(ef.lam_tilde), None if e is None else 1.001 * float(e)
    monkeypatch.setattr(fh_oscillator.EigenFunction, "envelope_floats",
                        property(stretched))
    assert failed_checks(capsys, "1/10")[0] == 1


@lam_tildes
def test_fine_oracle_level_8_raised_is_caught(capsys, monkeypatch, lt):
    # the fine grid is the operator with GRID_N rows; at 1/10 its level 8
    # lies below the closed form, so the raised level moves closer to it,
    # yet the extrapolated level moves 1.3e-4 off, 8 times its resolution
    lowest = sl_oracle.lowest_eigenvalues

    def raised(op, m, tol, hints=()):
        levels = lowest(op, m, tol, hints)
        if op.n == GRID_N and m > 8:
            levels = levels[:8] + (levels[8] + 1e-4,) + levels[9:]
        return levels
    monkeypatch.setattr(sl_oracle, "lowest_eigenvalues", raised)
    assert failed_checks(capsys, lt) == (1, ["oracle_matches_closed_form"])


@lam_tildes
def test_stencil_without_the_weight_g_is_caught(capsys, monkeypatch, lt):
    # the kinetic part of each diagonal entry not divided by g = dt/dx:
    # the levels of every grid move far off, or a grid cannot order them
    discretize = sl_oracle.discretize

    def unweighted(lam_tilde, grid):
        op = discretize(lam_tilde, grid)
        ts, gs = sl_oracle.mapped_points(grid)
        lam = float(lam_tilde)
        for i, (t, g) in enumerate(zip(ts[1::2], gs[1::2])):
            v = t * t / (2.0 * (1.0 + lam * t * t))
            op.diag[i] = (op.diag[i] - v) * g + v
        return op
    monkeypatch.setattr(sl_oracle, "discretize", unweighted)
    assert failed_checks(capsys, lt) == (1, ["oracle_matches_closed_form"])


@pytest.mark.parametrize("omega", ["1", "31"])
def test_physical_levels_off_by_two_are_caught(capsys, monkeypatch, omega):
    # E = E_tilde omega / 2 with the 2 dropped: route 3 solves at omega = 1
    # and never reads E, so only its gate on omega P against E sees it
    closed = cli._closed_entries
    monkeypatch.setattr(cli, "_closed_entries", lambda cfg: [
        e._replace(e_phys=2 * e.e_phys) for e in closed(cfg)])
    assert failed_checks(capsys, "1/10", omega) == (
        1, ["oracle_matches_closed_form"])


@pytest.mark.xfail(strict=True, reason="no check counts the levels "
                   "below the edge yet: ROADMAP item 3 must catch it")
@pytest.mark.parametrize("shift", [1, -1])
def test_census_off_by_one_is_a_failed_check(capsys, monkeypatch, shift):
    # a census whose normalizable_max_n is one too high or too low
    census = fh_oscillator.bound_state_info

    def shifted_census(lam_tilde):
        info = census(lam_tilde)
        return info._replace(
            normalizable_max_n=info.normalizable_max_n + shift)
    monkeypatch.setattr(fh_oscillator, "bound_state_info", shifted_census)
    codes = [run(capsys, ["verify", "--lambda-tilde", lt, "--n-max", "9",
                          "--grid-N", "2001"])[0]
             for lt in ("1/10", "1/3")]
    assert codes == [1, 1]
