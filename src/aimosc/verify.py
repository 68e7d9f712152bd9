"""The `verify` subcommand, which `cli.main` imports only to run it; helpers
and layers are called through their modules, so a patch there reaches them."""
from __future__ import annotations

import json
import math
from argparse import Namespace
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import add, mul

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
        # the fine grid first: its errors exit before any row is built
        n_top = cfg.census.below_edge(cli._oracle_top(cfg))
        fine_op = [cli._oracle_op(cfg, n_top)] if n_top >= 0 else []
        table = cli._closed_entries(cfg)
        covered = list(filter(cfg.census.bound, range(min(cfg.n_max, 5) + 1)))
        efs = []  # n <= n_top for the oracle, n in covered for the residuals
        for n in range(max(n_top + 1, len(covered))):
            try:
                efs.append(fh_oscillator.eigen_polynomial(n, lt))
            except ValueError as exc:
                efs.append(exc)
        # the oracle's errors exit before the iteration runs
        oracle = _check_oracle(cfg, n_top, fine_op, table, efs)
        checks = [_check_aim_exact(cfg, table), oracle,
                  _check_residuals(covered, efs)]

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


# Half-width of the fallback hints around a coarse level, relative to the
# level (absolute below 1): wider than the fine level's distance from it,
# about 3 estimates, yet narrow enough to skip most of the descent.
_HINT_REL = 1e-5


def _coarse_hints(cfg: Namespace, op: sl_oracle.TridiagOp,
                  points: sl_oracle.Points, exact: list, efs: list) -> list[tuple]:
    """R -+ w, w = 1e-8 max(1, |R|) + 4 (R - exact[n])^2, for each n whose
    f_n = efs[n] built: R is the Rayleigh quotient on op's block n % 2 of
    the state sqrt(g) env(tau) f_n(tau), tau^2 = omega t^2, at op's held
    nodes and folded as `TridiagOp.parity_blocks` folds rows.  The sample
    stops before the last row or where env(tau) max(1, tau)^n falls below
    1e-12 of its peak, at tau^2 = max(1, n / (1 - n lt))."""
    omega = float(cfg.omega)
    tau2 = [omega * t * t for t in points[0][1::2]]
    weight, pairs = [], []  # weight: sqrt(g) env, as far as a level needs
    for n, (e_c, ef) in enumerate(zip(exact, efs)):
        try:
            if isinstance(ef, ValueError):
                raise ef
            coeffs = [float(c) for c in ef.coeffs[ef.n % 2::2]]
        except (ValueError, OverflowError):
            pairs.append(())
            continue
        lt, a = ef.envelope_floats

        def drop(y: float) -> float:  # -log(env max(1, tau)^n), tau^2 = y
            return (0.5 * y if a is None else -a * math.log1p(lt * y)
                    ) - 0.5 * n * math.log(max(1.0, y))
        peak = max(1.0, n / (1.0 - n * lt))
        cut = min(len(tau2) - 1, bisect_right(
            tau2, 12.0 * math.log(10.0) + min(0.0, drop(peak)),
            bisect_left(tau2, peak), key=drop))
        rows = zip(tau2[len(weight):cut], points[1][2 * len(weight) + 1::2])
        weight += ([math.sqrt(g) * math.exp(-0.5 * y) for y, g in rows]
                   if a is None else
                   [math.sqrt(g) * (1.0 + lt * y) ** a for y, g in rows])
        v = weight[:cut]  # times f_n(tau) = tau^(n % 2) P(tau^2) up to scale
        if len(coeffs) > 1:
            f = repeat(coeffs[-1])
            for c in reversed(coeffs[:-1]):
                f = map(add, map(mul, f, tau2[:cut]), repeat(c))
            v = list(map(mul, v, f))
        if ef.n % 2:
            v = list(map(mul, v, map(math.sqrt, tau2[:cut])))
        if v and len(op.diag) > len(op.offdiag):  # odd N: the centre row
            v = v[1:] if n % 2 else [v[0] * math.sqrt(0.5), *v[1:]]
        r = sl_oracle.rayleigh_quotient(op.parity_blocks[n % 2], v)
        w = 1e-8 * max(1.0, abs(r)) + 4.0 * (r - e_c) * (r - e_c)
        pairs.append((r - w, r + w))
    return pairs


def _check_oracle(cfg: Namespace, n_top: int, fine_op: list,
                  table: list[SpectrumEntry], efs: list) -> dict:
    """Finite-difference eigenvalues against the table's closed form E_c
    for each n <= n_top: normalizable and strictly below the continuum
    edge, where states converge too slowly.  Past n ~ 1/lt - 1/2 the
    spectrum folds back below the edge, so `census.below_edge` filters on n.
    With no such n, nothing is solved; else fine_op's grid is popped.

    The coarse grid spans the same x range, so with H/h = r the order-2
    stencil's error on the fine grid is about |E_h - E_H| / (r^2 - 1).
    Each n fails unless its |delta| lies within twice that estimate plus
    the bisection width, and within --tol.

    The coarse grid is solved first.  Hints count first on both grids:
    `_coarse_hints` on the coarse one; on the fine one P -+ 3 widths
    around the Richardson point P = E_c + (E_H - E_c) / r^2, and E_H -+
    _HINT_REL where P misses (README).  No hint changes a level, so the
    closed form never steers an oracle number.  Every error of the fine
    grid is still reported before any of the coarse grid."""
    width, width_name = 1e-9, "the bisection width"
    if n_top < 0:
        return _check("oracle_matches_closed_form", [], [], "no strictly "
                      "bound n <= --n-max", deltas=[], estimates=[])
    grid, op, points, name = fine_op.pop()
    exact = [float(e.e_phys) for e in table[:n_top + 1]]
    error, coarse = None, ()
    try:
        _, coarse_op, points, coarse_name = cli._oracle_op(cfg, n_top, points)
        coarse = cli._oracle_solve(
            coarse_op, coarse_name, n_top, width, width_name,
            _coarse_hints(cfg, coarse_op, points, exact, efs))
    except ValueError as exc:
        error = exc
    del points  # not held through the fine bisection
    ratio = (grid.N + 1) / (grid.N // 2 + 1)
    hints = []
    for c, H in zip(exact, coarse):
        p = c + (H - c) / (ratio * ratio)
        w = 3.0 * width * max(1.0, abs(p))
        w_H = _HINT_REL * max(1.0, abs(H))
        hints.append((p - w, p + w, H - w_H, H + w_H))
    fine = cli._oracle_solve(op, name, n_top, width, width_name, hints)
    if error is not None:
        raise error
    deltas = [abs(e - c) for e, c in zip(fine, exact)]
    estimates = [abs(h - H) / (ratio * ratio - 1.0)
                 for h, H in zip(fine, coarse)]
    ratios = [d / (2.0 * e + width) for d, e in zip(deltas, estimates)]
    failed = [n for n, (d, r) in enumerate(zip(deltas, ratios))
              if not (r <= 1.0 and d <= cfg.tol)]
    return _check(
        "oracle_matches_closed_form", list(range(n_top + 1)), failed,
        f"n <= {n_top}, T = {grid.T:g}, N = {grid.N} and {grid.N // 2}, "
        f"max |delta| = {max(deltas):.3e}, max |delta| / (2 estimate + "
        f"{width:g}) = {max(ratios):.3f}, tol = {cfg.tol:g}",
        deltas=deltas, estimates=estimates)


def _check_residuals(covered: list[int], efs: list) -> dict:
    """Each covered n fails on a nonzero series residual, a sampled one of
    1e-9 or more, or a series that does not terminate (efs[n] is its
    ValueError): every input was checked, so that is an inconsistency."""
    failed, worst = [], 0.0
    for n in covered:
        if isinstance(efs[n], ValueError):
            failed.append(n)
            continue
        rep = fh_oscillator.residual_check(efs[n])
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
