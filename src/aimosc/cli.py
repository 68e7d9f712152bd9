"""Command-line front end.

Four subcommands: `spectrum` computes levels by closed form, by the
iteration engine, or by the finite-difference oracle; `verify` runs the
cross-check matrix and reports JSON; `wavefunction` samples a normalized
eigenstate; `figures` emits the four sweep CSV files.  Each subcommand
checks its own flags, before it writes any output.

Rational inputs are accepted as "p/q" strings and kept exact internally.
CSV output prints 12 significant digits (exact for terminating decimals),
comma-separated, LF endings.  Exit codes: 0 success, 1 verification
failure, 2 bad parameters, 3 not normalizable, 4 I/O trouble.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from argparse import Namespace
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import aim_core, fh_oscillator, sl_oracle
from .fh_oscillator import ModelParams, NotNormalizable, SpectrumEntry


def _parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


# Every printed number is rounded in this one context; its flags are never
# read, so sharing it across calls changes no output.
_DEC12 = Context(prec=12)


def _ratio12(num: int, den: int) -> str:
    """num/den (den > 0) to 12 significant digits, plain decimal, by one
    correctly rounded division: an unreduced pair prints as its lowest
    terms do, and a quotient that terminates within 12 digits comes out
    exact, so downstream parsers can recover it losslessly."""
    return _plain12(_DEC12.divide(num, den))


def _dec12(value) -> str:
    """A Fraction by _ratio12; a float by its shortest repr, rounded."""
    if type(value) is Fraction:
        return _ratio12(value.numerator, value.denominator)
    return _plain12(_DEC12.plus(Decimal(repr(float(value)))))


def _plain12(d: Decimal) -> str:
    return format(d.normalize(_DEC12), "f") if d else "0"


def _write_lines(lines: Sequence[str], out: Optional[str | Path]) -> None:
    payload = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload, encoding="ascii", newline="")


# ---------------------------------------------------------------------------
# argument plumbing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, whose subcommands take only the flags
    they read; parse_args leaves it unchanged, so every main reuses it."""
    top = argparse.ArgumentParser(
        prog="aimosc",
        description="Spectra and eigenfunctions of the decaying-mass "
                    "oscillator, with independent cross-checks.")
    sub = top.add_subparsers(dest="command", required=True)

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--omega", default="1", help="angular frequency, p/q")
    model.add_argument("--lambda", dest="lam", default=None,
                       help="mass-decay parameter, p/q")
    model.add_argument("--lambda-tilde", dest="lam_tilde", default=None,
                       help="dimensionless lambda/omega, p/q")
    model.add_argument("--out", default=None)

    levels = argparse.ArgumentParser(add_help=False)
    levels.add_argument("--n-max", type=int, default=3)
    levels.add_argument("--kmax", type=int, default=8)
    levels.add_argument("--tau0", default="0", help="quantization anchor, p/q")
    levels.add_argument("--grid-T", dest="grid_t", type=float, default=None,
                        help="oracle half-width in t; omega^-1/2 sinh(16)")
    levels.add_argument("--grid-N", dest="grid_n", type=int, default=7999,
                        help="oracle rows; verify adds --grid-N // 2")
    signs = argparse.ArgumentParser(add_help=False)
    signs.add_argument("--printed-signs", action="store_true",
                       help="use the sign convention whose first excited "
                            "level is 2*lt-1; for the discrepancy demo")

    sp = sub.add_parser("spectrum", parents=[model, levels],
                        help="energy levels by any method")
    # the JSON params block reports the convention, which is never flipped
    sp.set_defaults(run=cmd_spectrum, printed_signs=False)
    sp.add_argument("--method", action="append",
                    choices=("closed", "aim", "oracle"), default=None)
    sp.add_argument("--format", dest="fmt", default="table",
                    choices=("table", "csv", "json"))
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="oracle bisection width")

    vf = sub.add_parser("verify", parents=[model, levels, signs],
                        help="cross-check matrix, JSON report")
    vf.set_defaults(run=cmd_verify)
    vf.add_argument("--tol", type=float, default=1e-2,
                    help="gate on |oracle - closed form|")

    wf = sub.add_parser("wavefunction", parents=[model],
                        help="sample one normalized eigenstate")
    wf.set_defaults(run=cmd_wavefunction)
    wf.add_argument("--n", type=int, default=0)
    wf.add_argument("--tau-min", type=float, default=-5.0)
    wf.add_argument("--tau-max", type=float, default=5.0)
    wf.add_argument("--points", type=int, default=201)

    # figures reads only --out of the model flags; it keeps the others
    # because bench/workloads.py sends them
    fig = sub.add_parser("figures", parents=[model],
                         help="emit fig1..fig4 CSV data files")
    fig.set_defaults(run=cmd_figures)
    fig.add_argument("--fig2-omegas", default="10,12,14",
                     help="comma list; the caption variant is 10,20,30")
    fig.add_argument("--lam-max", default="2", help="lambda sweep upper end")
    fig.add_argument("--lam-points", type=int, default=81)
    fig.add_argument("--fig-lambda", default="1",
                     help="fixed lambda for fig3/fig4")
    return top


def _float(value: Fraction, what: str, flag: str) -> float:
    """value as a float, or bad input naming the flag that sets it."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of floating-point range: "
                         f"change {flag}") from None


def _model(args: Namespace) -> Namespace:
    """Parse the model flags in place; fill in whichever of lambda and
    lambda_tilde was not given."""
    omega = _parse_rat(args.omega)
    lam = _parse_rat(args.lam) if args.lam is not None else None
    lam_tilde = _parse_rat(args.lam_tilde) if args.lam_tilde is not None else None
    if lam is not None and lam_tilde is not None:
        raise ValueError("--lambda and --lambda-tilde are mutually exclusive")
    if omega <= 0:
        raise ValueError(f"omega = {omega}")
    args.lam_flag = "--lambda" if lam is not None else "--lambda-tilde"
    if lam_tilde is not None:
        lam = lam_tilde * omega
    elif lam is not None:
        lam_tilde = lam / omega
    else:
        lam = lam_tilde = Fraction(0)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    args.omega, args.lam, args.lam_tilde = omega, lam, lam_tilde
    return args


def _levels(cfg: Namespace) -> None:
    """Check the level flags and --tol in place; add the bound-state
    census."""
    if cfg.n_max < 0:
        raise ValueError("--n-max must be nonnegative")
    cfg.tau0 = _parse_rat(cfg.tau0)
    if not 0 < cfg.tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {cfg.tol}")
    if cfg.grid_t is not None and not 0 < cfg.grid_t < math.inf:
        raise ValueError(f"--grid-T must be positive and finite, got {cfg.grid_t}")
    if cfg.grid_n < 3:
        raise ValueError(f"--grid-N must be at least 3, got {cfg.grid_n}")
    cfg.census = fh_oscillator.bound_state_info(cfg.lam_tilde)


# ---------------------------------------------------------------------------
# shared computation helpers

def _closed_entries(cfg: Namespace) -> list[SpectrumEntry]:
    # lam_tilde = p/q, omega = c/e: E_tilde_n = num/q, E_n = num c/(2 q e)
    p, q = cfg.lam_tilde.numerator, cfg.lam_tilde.denominator
    c, e = cfg.omega.numerator, cfg.omega.denominator
    out = []
    for n in range(cfg.n_max + 1):
        num = fh_oscillator.closed_numerator(n, p, q)
        out.append(SpectrumEntry(n, Fraction(num, q),
                                 Fraction(num * c, 2 * q * e),
                                 cfg.census.bound(n), "closed_form"))
    return out


def _is_marginal(n: int, cfg: Namespace) -> bool:
    """E_tilde_n = num/q is on the edge q/p: num p = q^2, never at p = 0."""
    p, q = cfg.lam_tilde.numerator, cfg.lam_tilde.denominator
    return fh_oscillator.closed_numerator(n, p, q) * p == q * q


def _aim_report(cfg: Namespace) -> aim_core.AimSpectrumReport:
    seed = aim_core.aim_seed(*fh_oscillator.aim_inputs(cfg.lam_tilde))
    return aim_core.aim_eigenvalues(seed, k_max=cfg.kmax, tau0=cfg.tau0)


def _aim_entries(cfg: Namespace) -> list[SpectrumEntry]:
    certified = {v for v, _ in _aim_report(cfg).accepted}
    return [SpectrumEntry(e.n, e.e_tilde, e.e_phys, e.bound, "aim")
            for e in _closed_entries(cfg)[:cfg.kmax + 1]
            if e.e_tilde in certified]


def _oracle_top(cfg: Namespace) -> int:
    """The largest n <= --n-max whose state is normalizable; -1 when no n
    is."""
    census = cfg.census
    n_top = cfg.n_max if census.bound(cfg.n_max) else census.normalizable_max_n
    if n_top >= 0:
        # the oracle takes omega^2 as a float and divides by its root
        for w2 in (cfg.omega ** 2, cfg.omega ** -2):
            _float(w2, "omega^2 for the oracle", "--omega")
    return n_top


def _oracle_op(cfg: Namespace, n_top: int,
               fine: Optional[sl_oracle.Points] = None
               ) -> tuple[sl_oracle.Grid, sl_oracle.TridiagOp,
                          sl_oracle.Points, str]:
    """The operator for n = 0..n_top on --grid-N rows, its grid, points and
    flag name; given the points of that grid, the operator on --grid-N // 2
    rows instead, nested in them for odd --grid-N."""
    rows = cfg.grid_n if fine is None else cfg.grid_n // 2
    name = f"--grid-N {cfg.grid_n}" + ("" if fine is None else " // 2")
    if n_top + 1 > rows:
        raise ValueError(f"--n-max asks the oracle for n = 0..{n_top}, more "
                         f"than the {rows} levels of {name}")
    if rows < 3:
        raise ValueError(f"{name} is {rows} rows, fewer than the 3 a grid "
                         f"needs: raise --grid-N")
    params = ModelParams(omega=cfg.omega, lam=cfg.lam)
    t_half = cfg.grid_t if cfg.grid_t is not None \
        else sl_oracle.default_half_width(params)
    grid = sl_oracle.Grid(T=t_half, N=rows)
    try:
        points = (sl_oracle.nested_points(fine)
                  if fine is not None and cfg.grid_n % 2
                  else sl_oracle.mapped_points(params, grid))
        op = sl_oracle.discretize(params, grid, points)
    except ValueError as exc:
        raise ValueError(f"--grid-T {t_half:g} is too small or too large for "
                         f"{name}: {exc}") from None
    return grid, op, points, name


def _oracle_solve(op: sl_oracle.TridiagOp, name: str, n_top: int,
                  tol: float, tol_name: str,
                  hints: Sequence[Sequence[float]] = ()) -> tuple[float, ...]:
    """Oracle energies of n = 0..n_top, bisected to tol; tol_name names
    that width in the error for levels the bisection cannot order."""
    try:
        return sl_oracle.lowest_eigenvalues(op, n_top + 1, tol, hints)
    except sl_oracle.UnresolvedLevels as exc:
        raise ValueError(
            f"oracle levels n = {exc.index} and {exc.index + 1} lie closer "
            f"than {tol_name} {tol:g} on {name}, so the bisection cannot "
            f"order them; lower --n-max or change --grid-N") from None


def _oracle_entries(cfg: Namespace) -> list[SpectrumEntry]:
    n_top = _oracle_top(cfg)
    levels = ()
    if n_top >= 0:
        _, op, _, name = _oracle_op(cfg, n_top)
        levels = _oracle_solve(op, name, n_top, cfg.tol, "--tol")
    return [SpectrumEntry(n=n, e_tilde=2.0 * e / float(cfg.omega), e_phys=e,
                          bound=cfg.census.bound(n), source="oracle")
            for n, e in enumerate(levels)]


# ---------------------------------------------------------------------------
# output shaping

def _rat_or_none(x) -> Optional[str]:
    if type(x) is Fraction:
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
            else str(x.numerator)
    return None


def _entry_json(e: SpectrumEntry, cfg: Namespace) -> dict:
    return {
        "n": e.n,
        "E_tilde": _rat_or_none(e.e_tilde),
        "E": _rat_or_none(e.e_phys),
        "E_tilde_dec": _float(e.e_tilde, f"E_tilde at n = {e.n}", cfg.lam_flag),
        "E_dec": _float(e.e_phys, f"E at n = {e.n}", "--omega"),
        "method": e.source,
        "bound": e.bound,
        "marginal": _is_marginal(e.n, cfg),
    }


def _params_json(cfg: Namespace) -> dict:
    return {
        "omega": _rat_or_none(cfg.omega),
        "lambda": _rat_or_none(cfg.lam),
        "lambda_tilde": _rat_or_none(cfg.lam_tilde),
        "n_max": cfg.n_max,
        "k_max": cfg.kmax,
        "tau0": _rat_or_none(cfg.tau0),
        "printed_signs": cfg.printed_signs,
    }


def _emit_entries(entries: list[SpectrumEntry], cfg: Namespace) -> None:
    if cfg.fmt == "json":
        doc = {"params": _params_json(cfg),
               "entries": [_entry_json(e, cfg) for e in entries]}
        _write_lines([json.dumps(doc, indent=2, sort_keys=True)], cfg.out)
        return
    rows = [(str(e.n), _dec12(e.e_tilde), _dec12(e.e_phys), e.source,
             str(e.bound).lower(),
             str(_is_marginal(e.n, cfg)).lower())
            for e in entries]
    header = ("n", "E_tilde", "E", "method", "bound", "marginal")
    if cfg.fmt == "csv":
        _write_lines([",".join(header)] + [",".join(r) for r in rows], cfg.out)
        return
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines += ["  ".join(c.ljust(widths[i]) for i, c in enumerate(r))
              for r in rows]
    _write_lines(lines, cfg.out)


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(cfg: Namespace) -> int:
    _levels(cfg)
    if "aim" in (cfg.method or ()) and cfg.kmax < 2:
        raise ValueError(f"--kmax must be at least 2, got {cfg.kmax}")
    entries: list[SpectrumEntry] = []
    for method in cfg.method or ("closed",):
        if method == "closed":
            entries.extend(_closed_entries(cfg))
        elif method == "aim":
            entries.extend(_aim_entries(cfg))
        else:
            entries.extend(_oracle_entries(cfg))
    _emit_entries(entries, cfg)
    return 0


def cmd_verify(cfg: Namespace) -> int:
    _levels(cfg)
    table = _closed_entries(cfg)  # the AIM and oracle checks read it too
    if cfg.printed_signs:
        checks = [_check_printed_signs(cfg)]
    else:
        lt = cfg.lam_tilde
        if cfg.kmax < 2:
            raise ValueError(f"--kmax must be at least 2, got {cfg.kmax}")
        # the envelope exponent -1/(2 lt) and its moment take 1/lt as a float
        if lt:
            _float(1 / lt, "1/lambda_tilde", cfg.lam_flag)
        if lt >= 1:  # the seed, the census and the eigenfunctions need lt < 1
            raise ValueError(f"lam_tilde must lie in [0, 1), got {lt}")
        # the oracle runs first, so that its errors exit before the
        # iteration: the AIM check reports its own failures as a check
        oracle = _check_oracle(cfg, table)
        checks = [_check_aim_exact(cfg, table), oracle, _check_residuals(cfg)]

    doc = {
        "params": _params_json(cfg),
        "entries": [_entry_json(e, cfg) for e in table],
        "checks": checks,
    }
    _write_lines([json.dumps(doc, indent=2, sort_keys=True)], cfg.out)
    return 0 if all(c["passed"] for c in checks) else 1


def _check_aim_exact(cfg: Namespace, table: list[SpectrumEntry]) -> dict:
    """The certified roots must contain the closed-form level of the table,
    exactly, for every n <= min(n_max, k_max): a depth of k_max certifies
    E_0..E_k_max.  A run that certifies no root fails."""
    n_chk = min(cfg.n_max, cfg.kmax)
    try:
        report = _aim_report(cfg)
    except aim_core.NoStableRoots as exc:
        return {"name": "aim_matches_closed_form", "passed": False,
                "detail": str(exc)}
    certified = {v for v, _ in report.accepted}
    missing = [e.n for e in table[:n_chk + 1] if e.e_tilde not in certified]
    verdict = f"; missing n = {missing}" if missing else "; all exact"
    return {
        "name": "aim_matches_closed_form",
        "passed": not missing,
        "detail": f"n <= {n_chk} at k_max = {cfg.kmax}" + verdict,
        "accepted": [_rat_or_none(v) for v, _ in report.accepted],
    }


# Half-width of the fallback hints around a coarse level, relative to the
# level (absolute below 1): wider than the fine level's distance from it,
# about 3 estimates, yet narrow enough to skip most of the descent.
_HINT_REL = 1e-5


def _below_edge(n_top: int, lt: Fraction) -> int:
    """The largest n <= n_top with lt E_n < 1, strictly below the
    continuum edge, for a normalizable n_top.  lt E_n < 1 is
    (1 - n lt)(1 - (n + 1) lt) > 0; a normalizable n has n lt < 1, so at
    lt = p/q it is (n + 1) p < q: a prefix, which n = 0 joins."""
    p, q = lt.numerator, lt.denominator
    return min(n_top, (q - 1) // p - 1) if p else n_top


def _check_oracle(cfg: Namespace, table: list[SpectrumEntry]) -> dict:
    """Finite-difference eigenvalues against the closed form, for every
    strictly bound n <= n_max: normalizable, and strictly below the
    continuum edge (edge states converge too slowly; see `_below_edge`).
    Past n ~ 1/lt - 1/2 the spectrum folds back below the edge, so the
    filter is on n as well as on E_n.  The closed form E_c of each level
    is the table's.

    The coarse grid spans the same x range, so with H/h = r the order-2
    stencil's error on the fine grid is about |E_h - E_H| / (r^2 - 1).
    Each |delta| must lie within twice that estimate plus the bisection
    width, and within --tol.

    The coarse grid is solved first, and each fine level gets two pairs
    of hints: P -+ 3 widths around the Richardson point P = E_c + (E_H -
    E_c) / r^2 of the coarse level E_H and the closed form E_c, which lies
    within the bisection width of the fine level where h^2 is the leading
    error; and E_H -+ _HINT_REL, the fallback where P misses (as at
    --grid-T 4, where P's pair costs up to 2 more sweeps per level).  A
    hint cannot change a fine level, only spare sweeps, so the closed form
    never steers an oracle number.  Every error of the fine grid is still
    reported before any of the coarse grid."""
    width, width_name = 1e-9, "the bisection width"
    n_top = _below_edge(_oracle_top(cfg), cfg.lam_tilde)
    grid, op, points, name = _oracle_op(cfg, n_top)
    failed, coarse = None, ()
    try:
        _, coarse_op, _, coarse_name = _oracle_op(cfg, n_top, points)
        coarse = _oracle_solve(coarse_op, coarse_name, n_top, width,
                               width_name)
    except ValueError as exc:
        failed = exc
    del points  # not held through the fine bisection
    ratio = (grid.N + 1) / (grid.N // 2 + 1)
    exact = [float(e.e_phys) for e in table[:n_top + 1]]
    hints = []
    for c, H in zip(exact, coarse):
        p = c + (H - c) / (ratio * ratio)
        w = 3.0 * width * max(1.0, abs(p))
        w_H = _HINT_REL * max(1.0, abs(H))
        hints.append((p - w, p + w, H - w_H, H + w_H))
    fine = _oracle_solve(op, name, n_top, width, width_name, hints)
    if failed is not None:
        raise failed
    deltas = [abs(e - c) for e, c in zip(fine, exact)]
    estimates = [abs(h - H) / (ratio * ratio - 1.0)
                 for h, H in zip(fine, coarse)]
    worst = max(d / (2.0 * e + width) for d, e in zip(deltas, estimates))
    return {
        "name": "oracle_matches_closed_form",
        "passed": worst <= 1.0 and max(deltas) <= cfg.tol,
        "detail": f"n <= {len(deltas) - 1}, T = {grid.T:g}, N = {grid.N} "
                  f"and {grid.N // 2}, max |delta| = {max(deltas):.3e}, "
                  f"max |delta| / (2 estimate + {width:g}) = {worst:.3f}, "
                  f"tol = {cfg.tol:g}",
        "deltas": deltas,
        "estimates": estimates,
    }


def _check_residuals(cfg: Namespace) -> dict:
    worst = 0.0
    for n in range(min(cfg.n_max, 5) + 1):
        if not cfg.census.bound(n):
            break
        ef = fh_oscillator.eigen_polynomial(n, cfg.lam_tilde)
        rep = fh_oscillator.residual_check(ef)
        if rep.series_residual:
            return {"name": "eigenfunction_residuals", "passed": False,
                    "detail": f"nonzero series residual at n = {n}"}
        worst = max(worst, max(abs(r) for _, r in rep.ode_samples))
    return {
        "name": "eigenfunction_residuals",
        "passed": worst < 1e-9,
        "detail": f"series residuals zero; worst sampled residual {worst:.3e}",
    }


def _check_printed_signs(cfg: Namespace) -> dict:
    """Flipped-sign convention demo: its own k = 1 quantization roots, by
    value as isolation lists them, must contain 2*lt - 1 and not the
    closed-form first excited level.  Passing demonstrates the discrepancy."""
    lt = cfg.lam_tilde
    seed = aim_core.aim_seed(*fh_oscillator.aim_inputs(lt, printed_signs=True))
    s1 = aim_core.aim_iterate(seed)
    delta = aim_core.quantization_delta(s1, seed, cfg.tau0)
    roots = [iv.exact for iv in aim_core.isolate_real_roots(delta.poly)
             if iv.exact is not None]
    flipped = 2 * lt - 1
    reference = fh_oscillator.spectrum_closed_dimensionless(1, lt)
    demonstrated = flipped in roots and reference not in roots
    return {
        "name": "printed_sign_discrepancy",
        "passed": demonstrated,
        "detail": f"k=1 roots {[_rat_or_none(r) for r in roots]}; "
                  f"contain {_rat_or_none(flipped)}, closed-form first "
                  f"excited {_rat_or_none(reference)} absent: {demonstrated}",
    }


def cmd_wavefunction(cfg: Namespace) -> int:
    # the envelope exponent -1/(2 lt) and its moment take 1/lt as a float
    if cfg.lam_tilde:
        _float(1 / cfg.lam_tilde, "1/lambda_tilde", cfg.lam_flag)
    for flag, value in (("--tau-min", cfg.tau_min), ("--tau-max", cfg.tau_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if cfg.points < 2:
        raise ValueError("--points must be at least 2")
    # the samples run monotonically to the last one, which overflows
    # whenever the span tau_max - tau_min does
    step = (cfg.tau_max - cfg.tau_min) / (cfg.points - 1)
    if not math.isfinite(cfg.tau_min + (cfg.points - 1) * step):
        raise ValueError(
            f"the grid from --tau-min {cfg.tau_min} to --tau-max "
            f"{cfg.tau_max} overflows a float")
    if cfg.n < 0:
        raise ValueError("--n must be nonnegative")
    ef = fh_oscillator.eigen_polynomial(cfg.n, cfg.lam_tilde)
    norm = fh_oscillator.normalization_constant(ef)
    lines = ["tau,phi"]
    for i in range(cfg.points):
        tau = cfg.tau_min + i * step
        phi = fh_oscillator.wavefunction_eval(ef, tau, norm)
        lines.append(f"{_dec12(tau)},{_dec12(phi)}")
    _write_lines(lines, cfg.out)
    return 0


def cmd_figures(cfg: Namespace) -> int:
    omegas = [_parse_rat(w) for w in cfg.fig2_omegas.split(",")]
    lam_max = _parse_rat(cfg.lam_max)
    fig_lambda = _parse_rat(cfg.fig_lambda)
    if min(omegas) <= 0:
        raise ValueError("every --fig2-omegas value must be positive")
    for flag, value in (("--lam-max", lam_max), ("--fig-lambda", fig_lambda)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    if cfg.lam_points < 2:
        raise ValueError("--lam-points must be at least 2")
    outdir = Path(cfg.out) if cfg.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    # Every E is num/(2 m) in integers, with lambda and omega scaled by a
    # common m (fh_oscillator.closed_numerator), printed by one division.
    # Sweep point i is i a/d, with --lam-max = a/b, d = b (--lam-points - 1).
    num = fh_oscillator.closed_numerator
    a, d = lam_max.numerator, lam_max.denominator * (cfg.lam_points - 1)
    sweep = [(i * a, _ratio12(i * a, d)) for i in range(cfg.lam_points)]
    fig2 = [(w.numerator, w.denominator, _dec12(w)) for w in omegas]
    r, s = fig_lambda.numerator, fig_lambda.denominator
    _write_lines(["lambda,n,E"] + [
        f"{lam_text},{n},{_ratio12(num(n, lam, 10 * d), 2 * d)}"
        for n in range(4) for lam, lam_text in sweep], outdir / "fig1.csv")
    _write_lines(["lambda,omega_hz,E"] + [
        f"{lam_text},{w_text},{_ratio12(num(1, lam * e, c * d), 2 * e * d)}"
        for c, e, w_text in fig2 for lam, lam_text in sweep],
        outdir / "fig2.csv")
    _write_lines(["n,omega_hz,E"] + [
        f"{n},{w},{_ratio12(num(n, r, w * s), 2 * s)}"
        for w in (10, 20, 30) for n in range(10)], outdir / "fig3.csv")
    _write_lines(["omega,n,E"] + [
        f"{w},{n},{_ratio12(num(n, r, w * s), 2 * s)}"
        for n in (1, 2, 3) for w in range(1, 31)], outdir / "fig4.csv")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(_model(args))
    except NotNormalizable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except aim_core.NoStableRoots as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
