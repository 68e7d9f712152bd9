"""The `verify` subcommand and route 3's solve, which `spectrum --method
oracle` shares: `cli` imports this module only to run either; helpers and
layers are called through their modules, so a patch there reaches them."""
from __future__ import annotations

import json
import math
from argparse import Namespace
from fractions import Fraction
from itertools import pairwise

# not lazy: aim_core compiled inside the checks would add to the grids' peak
from . import aim_core, cli, fh_oscillator, sl_oracle
from .fh_oscillator import SpectrumEntry


def cmd_verify(cfg: Namespace) -> int:
    cli._levels(cfg)
    if cfg.printed_signs:
        table = cli._closed_entries(cfg)
        checks = [_check_printed_signs(cfg)]
    else:
        lt = cfg.lam_tilde
        if cfg.kmax < 2:
            raise ValueError(f"--kmax must be at least 2, got {cfg.kmax}")
        # the envelope exponent -1/(2 lt) and its moment take 1/lt as a float
        if lt:
            cli._float(1 / lt, "1/lambda_tilde", cfg.lam_flag)
        if lt >= 1:  # the seed, the census and the eigenfunctions need lt < 1
            raise ValueError(f"lam_tilde must lie in [0, 1), got {lt}")
        # the grids first: their errors exit before any row is built
        n_top = cli._oracle_top(cfg)
        grids = cli._oracle_grids(cfg, n_top) if n_top >= 0 else []
        table = cli._closed_entries(cfg)
        covered = list(filter(cfg.census.bound, range(min(cfg.n_max, 5) + 1)))
        # the oracle's errors exit before the iteration runs
        oracle = _check_oracle(cfg, n_top, grids, table)
        checks = [_check_aim_exact(cfg, table), oracle,
                  _check_residuals(covered, lt)]

    doc = {"params": cli._params_json(cfg), "checks": checks,
           "entries": [cli._entry_json(e, cfg) for e in table]}
    cli._write_lines([json.dumps(doc, indent=2, sort_keys=True)], cfg.out)
    return 0 if all(c["passed"] for c in checks) else 1


def _check(name: str, covered: list[int], failed: list[int], detail: str,
           **extra) -> dict:
    """Every check's record; it passes if it compared some n and none
    of them missed its gate, so no check passes on nothing."""
    return {"name": name, "passed": bool(covered) and not failed,
            "covered": covered, "failed": failed, "detail": detail, **extra}


def _check_aim_exact(cfg: Namespace, table: list[SpectrumEntry]) -> dict:
    """The certified roots must contain the closed-form level of the table,
    exactly, for every n <= min(n_max, k_max): a depth of k_max certifies
    E_0..E_k_max.  A run that certifies no root covers no n."""
    n_chk = min(cfg.n_max, cfg.kmax)
    try:
        accepted = [v for v, _ in cli._aim_report(cfg).accepted]
    except aim_core.NoStableRoots as exc:
        return _check("aim_matches_closed_form", [], [], str(exc), accepted=[])
    failed = [e.n for e in table[:n_chk + 1] if e.e_tilde not in accepted]
    verdict = f"; missing n = {failed}" if failed else "; all exact"
    return _check("aim_matches_closed_form", list(range(n_chk + 1)), failed,
                  f"n <= {n_chk} at k_max = {cfg.kmax}" + verdict,
                  accepted=[cli._rat_or_none(v) for v in accepted])


def _check_oracle(cfg: Namespace, n_top: int, grids: list,
                  table: list[SpectrumEntry]) -> dict:
    """`solve_oracle`'s P against the table's closed form E_c for each n <=
    n_top (`cli._oracle_top`; with none, grids is empty).  n fails unless
    |omega P - E_c| lies within its resolution, and that within --tol omega.
    Levels that a grid cannot order fail the check with their pair."""
    name = "oracle_matches_closed_form"
    width = 1e-9
    unsolved = dict.fromkeys(("deltas", "estimates_h", "estimates_T",
                              "resolutions"), [])
    if n_top < 0:
        return _check(name, [], [], "no strictly bound n <= --n-max",
                      **unsolved)
    omega, covered = float(cfg.omega), list(range(n_top + 1))
    try:
        levels, est_h, est_t, res = solve_oracle(cfg, grids, width,
                                                 table[:n_top + 1])
    except sl_oracle.UnresolvedLevels as exc:
        return _check(name, covered, [exc.index, exc.index + 1], str(exc),
                      **unsolved)
    deltas = [abs(omega * p - float(e.e_phys)) for p, e in zip(levels, table)]
    failed = [n for n, (d, b) in enumerate(zip(deltas, res))
              if not d <= b <= cfg.tol * omega]
    grid = grids[0][0]
    return _check(
        name, covered, failed,
        f"n <= {n_top}, T = {grid.T / math.sqrt(omega):g}, N = {grid.N}, "
        f"{grid.N // 2} and {grid.N // 4}, max |delta| = {max(deltas):.3e}, "
        f"max |delta| / resolution = "
        f"{max(d / b for d, b in zip(deltas, res)):.3f}, max est_T = "
        f"{max(est_t):.3e}, tol = {cfg.tol:g}",
        deltas=deltas, estimates_h=est_h, estimates_T=est_t, resolutions=res)


# Half-width of the fine grid's fallback hints around a middle-grid level,
# relative to it (absolute below 1): wider than the fine level's distance
# from it, about 3 estimates, yet narrow enough to skip most of the descent.
_HINT_REL = 1e-5


def solve_oracle(cfg: Namespace, grids: list, width: float,
                 entries: list[SpectrumEntry]) -> tuple[list[float], ...]:
    """Route 3 for the closed-form rows n = 0..m - 1 of entries: P, est_h,
    est_T and the resolution 2 (est_h + est_T) + width of each, P in units
    of omega and the rest in E units.  An E_c out of floating-point range
    exits before any grid is solved; levels that a grid cannot order raise
    `sl_oracle.UnresolvedLevels`, reworded to name the pair and the grid.

    grids holds `cli._oracle_grids`' three over the same x range, N =
    --grid-N rows (step h), N // 2 and N // 4, finest first: each is H~ at
    omega = 1, bisected to width, in units of omega.  With H/h = r, the
    order-2 stencil's levels E_h and E_H extrapolate to P = E_h + (E_h -
    E_H) / (r^2 - 1), whose h^4 error est_h is |P - P_H| / (r^4 - 1), P_H
    the same point one grid down.  est_T is `sl_oracle.truncation_errors`'s.

    The coarsest grid is bisected without hints.  Each finer grid counts
    hints first, from Q = e + (E_H - e) / r^2, the Richardson point of its
    level E_H on the grid below, with e = E_tilde / 2 the closed form in
    units of omega.  On the middle grid they are Q -+ w, w = 3 widths +
    (E_H - e)^2.  On the fine one, the h^4 term that the middle grid's Q
    missed by moves Q to Q' (README), and the hints are the nodes of
    `bisection_leaves` around Q': all three where Q' lies within w = 3
    widths of Q, else the two ends of Q''s leaf and E_H -+ _HINT_REL.  No
    hint changes a level, so the closed form never steers an oracle
    number."""
    for e in entries:  # before any grid is solved
        cli._float(e.e_phys, f"E at n = {e.n}", "--omega")
    exact = [float(e.e_tilde) / 2 for e in entries]
    omega = float(cfg.omega)
    r, r_mid = ((a.N + 1) / (b.N + 1) for (a, _, _), (b, _, _)
                in pairwise(grids))
    solved, hints = [], ()
    for _, op, flag in reversed(grids):  # the coarsest first, unhinted
        if solved:  # Richardson points from the levels of the grid below
            hints, mid = [], len(solved) == 1
            ratio = r_mid if mid else r
            qs = [c + (H - c) / (ratio * ratio)
                  for c, H in zip(exact, solved[-1])]
            if not mid:  # Q' = Q + the h^4 term the middle grid's Q missed
                fix = (r * r - 1.0) / (r ** 4 * (r_mid * r_mid - 1.0))
                fixed = [q + (H - p) * fix
                         for q, H, p in zip(qs, solved[-1], q_mid)]
                leaves = sl_oracle.bisection_leaves(op, fixed, width)
            for n, (c, H, q) in enumerate(zip(exact, solved[-1], qs)):
                w = 3.0 * width * max(1.0, abs(q))
                if mid:  # widened where E_H and E_c part
                    w += (H - c) * (H - c)
                    hints.append((q - w, q + w))
                elif abs(fixed[n] - q) <= w:  # trusted: Q''s leaf nodes
                    hints.append(leaves[n])
                else:  # Q''s leaf ends, and E_H for a prediction that missed
                    w_H = _HINT_REL * max(1.0, abs(H))
                    hints.append((*leaves[n][:2], H - w_H, H + w_H))
            q_mid = qs
        try:
            solved.append(sl_oracle.lowest_eigenvalues(op, len(exact), width,
                                                       hints))
        except sl_oracle.UnresolvedLevels as exc:
            exc.args = (f"oracle levels n = {exc.index} and {exc.index + 1} "
                        f"lie closer than the bisection width "
                        f"{width * omega:g} on {flag}",)
            raise
    coarse, mid, fine = solved
    extra = [h + (h - H) / (r * r - 1.0) for h, H in zip(fine, mid)]
    extra_mid = [h + (h - H) / (r_mid * r_mid - 1.0)
                 for h, H in zip(mid, coarse)]
    # E units from here: the estimates and the width times omega
    est_h = [omega * abs(p - q) / (r ** 4 - 1.0)
             for p, q in zip(extra, extra_mid)]
    est_t = [omega * e for e in sl_oracle.truncation_errors(
        float(cfg.lam_tilde), *grids[0][:2], fine, width)]
    res = [2.0 * (a + b) + omega * width for a, b in zip(est_h, est_t)]
    return extra, est_h, est_t, res


def _check_residuals(covered: list[int], lt: Fraction) -> dict:
    """Each covered n fails on a nonzero series residual, a sampled one of
    1e-9 or more, or a series that does not terminate (its build raises
    ValueError): every input was checked, so that is an inconsistency."""
    failed, worst = [], 0.0
    for n in covered:
        try:
            ef = fh_oscillator.eigen_polynomial(n, lt)
        except ValueError:
            failed.append(n)
            continue
        rep = fh_oscillator.residual_check(ef)
        sampled = [abs(r) for _, r in rep.ode_samples]
        worst = max(worst, *sampled)
        if rep.series_residual or not all(r < 1e-9 for r in sampled):
            failed.append(n)
    verdict = f"n = {failed} fail" if failed else "series residuals zero"
    return _check("eigenfunction_residuals", covered, failed,
                  f"{verdict}; worst sampled residual {worst:.3e}")


def _check_printed_signs(cfg: Namespace) -> dict:
    """Flipped-sign convention demo: its own k = 1 quantization roots, by
    value as isolation lists them, must contain 2*lt - 1 and not the
    closed-form first excited level.  Passing demonstrates the discrepancy."""
    lt = cfg.lam_tilde
    seed = aim_core.aim_seed(*fh_oscillator.aim_inputs(lt, printed_signs=True))
    delta = aim_core.quantization_delta(aim_core.aim_iterate(seed), seed,
                                        cfg.tau0)
    roots = [iv.exact for iv in aim_core.isolate_real_roots(delta.poly)
             if iv.exact is not None]
    flipped = 2 * lt - 1
    reference = fh_oscillator.spectrum_closed_dimensionless(1, lt)
    demonstrated = flipped in roots and reference not in roots
    return _check("printed_sign_discrepancy", [1], [] if demonstrated else [1],
                  f"k=1 roots {[cli._rat_or_none(r) for r in roots]}; contain "
                  f"{cli._rat_or_none(flipped)}, closed-form first excited "
                  f"{cli._rat_or_none(reference)} absent: {demonstrated}")
