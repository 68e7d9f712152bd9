"""Command-line front end.

Four subcommands: `spectrum` computes levels by closed form, by the
iteration engine, or by the finite-difference oracle; `verify` runs the
cross-check matrix and reports JSON; `wavefunction` samples a normalized
eigenstate; `figures` emits the four sweep CSV files.

Rational inputs are accepted as "p/q" strings and kept exact internally.
CSV output prints 12 significant digits (exact for terminating decimals),
comma-separated, LF endings.  Exit codes: 0 success, 1 verification
failure, 2 bad parameters, 3 not normalizable, 4 I/O trouble.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from argparse import Namespace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import aim_core, fh_oscillator, sl_oracle
from .fh_oscillator import (
    LambdaZeroSeed,
    ModelParams,
    NonpositiveFrequency,
    NotNormalizable,
    SpectrumEntry,
)


def _parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _dec12(value) -> str:
    """12 significant digits, plain decimal, deterministic.

    Exact rationals whose decimal expansion terminates within 12 digits
    come out exact, so downstream parsers can recover them losslessly.
    """
    with localcontext() as ctx:
        ctx.prec = 12
        if isinstance(value, Fraction):
            d = Decimal(value.numerator) / Decimal(value.denominator)
        else:
            d = +Decimal(repr(float(value)))
        if d == 0:
            return "0"
        text = format(d.normalize(), "f")
    return text


def _write_lines(lines: Sequence[str], out: Optional[str]) -> None:
    payload = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload, encoding="ascii", newline="")


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="aimosc",
        description="Spectra and eigenfunctions of the decaying-mass "
                    "oscillator, with independent cross-checks.")
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--omega", default="1", help="angular frequency, p/q")
    common.add_argument("--lambda", dest="lam", default=None,
                        help="mass-decay parameter, p/q")
    common.add_argument("--lambda-tilde", dest="lam_tilde", default=None,
                        help="dimensionless lambda/omega, p/q")
    common.add_argument("--n-max", type=int, default=3)
    common.add_argument("--kmax", type=int, default=8)
    common.add_argument("--tau0", default="0", help="quantization anchor, p/q")
    common.add_argument("--grid-T", dest="grid_t", type=float, default=None)
    common.add_argument("--grid-N", dest="grid_n", type=int, default=30000)
    common.add_argument("--tol", type=float, default=None,
                        help="verify: gate on |oracle - closed form| "
                             "(default 1e-2); otherwise the oracle "
                             "bisection width (default 1e-10); no effect "
                             "on wavefunction")
    common.add_argument("--printed-signs", action="store_true",
                        help="use the sign convention whose first excited "
                             "level is 2*lt-1; for the discrepancy demo")
    common.add_argument("--format", dest="fmt", default="table",
                        choices=("table", "csv", "json"))
    common.add_argument("--out", default=None)

    sp = sub.add_parser("spectrum", parents=[common],
                        help="energy levels by any method")
    sp.add_argument("--method", action="append",
                    choices=("closed", "aim", "oracle"), default=None)

    sub.add_parser("verify", parents=[common],
                   help="cross-check matrix, JSON report")

    wf = sub.add_parser("wavefunction", parents=[common],
                        help="sample one normalized eigenstate")
    wf.add_argument("--n", type=int, default=0)
    wf.add_argument("--tau-min", type=float, default=-5.0)
    wf.add_argument("--tau-max", type=float, default=5.0)
    wf.add_argument("--points", type=int, default=201)

    fig = sub.add_parser("figures", parents=[common],
                         help="emit fig1..fig4 CSV data files")
    fig.add_argument("--fig2-omegas", default="10,12,14",
                     help="comma list; the caption variant is 10,20,30")
    fig.add_argument("--lam-max", default="2", help="lambda sweep upper end")
    fig.add_argument("--lam-points", type=int, default=81)
    fig.add_argument("--fig-lambda", default="1",
                     help="fixed lambda for fig3/fig4")
    return top


def _resolve(args: Namespace) -> Namespace:
    """Parse the rational flags in place; fill in whichever of lambda and
    lambda_tilde was not given."""
    omega = _parse_rat(args.omega)
    lam = _parse_rat(args.lam) if args.lam is not None else None
    lam_tilde = _parse_rat(args.lam_tilde) if args.lam_tilde is not None else None
    if lam is not None and lam_tilde is not None:
        raise ValueError("--lambda and --lambda-tilde are mutually exclusive")
    if omega <= 0:
        raise NonpositiveFrequency(f"omega = {omega}")
    if lam_tilde is not None:
        lam = lam_tilde * omega
    elif lam is not None:
        lam_tilde = lam / omega
    else:
        lam = lam_tilde = Fraction(0)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if args.n_max < 0:
        raise ValueError("--n-max must be nonnegative")
    args.omega, args.lam, args.lam_tilde = omega, lam, lam_tilde
    args.tau0 = _parse_rat(args.tau0)
    if args.tol is None:
        args.tol = 1e-2 if args.command == "verify" else 1e-10
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    if args.grid_t is not None and not 0 < args.grid_t < math.inf:
        raise ValueError(f"--grid-T must be positive and finite, got {args.grid_t}")
    if args.grid_n < 3:
        raise ValueError(f"--grid-N must be at least 3, got {args.grid_n}")
    iterates = ((args.command == "verify" and not args.printed_signs)
                or (args.command == "spectrum" and "aim" in (args.method or ())))
    if iterates and args.kmax < 2:
        raise ValueError(f"--kmax must be at least 2, got {args.kmax}")
    if args.command == "wavefunction":
        for flag, value in (("--tau-min", args.tau_min), ("--tau-max", args.tau_max)):
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value}")
    if args.command == "figures":
        args.fig2_omegas = [_parse_rat(w) for w in args.fig2_omegas.split(",")]
        args.lam_max = _parse_rat(args.lam_max)
        args.fig_lambda = _parse_rat(args.fig_lambda)
        if min(args.fig2_omegas) <= 0:
            raise ValueError("every --fig2-omegas value must be positive")
        for flag, value in (("--lam-max", args.lam_max), ("--fig-lambda", args.fig_lambda)):
            if value < 0:
                raise ValueError(f"{flag} must be nonnegative, got {value}")
    return args


# ---------------------------------------------------------------------------
# shared computation helpers

def _closed_entries(cfg: Namespace) -> list[SpectrumEntry]:
    out = []
    for n in range(cfg.n_max + 1):
        et = fh_oscillator.spectrum_closed_dimensionless(n, cfg.lam_tilde)
        ep = fh_oscillator.spectrum_closed_physical(n, cfg.omega, cfg.lam)
        out.append(SpectrumEntry(n=n, e_tilde=et, e_phys=ep,
                                 bound=_is_bound(n, cfg.lam_tilde),
                                 source="closed_form"))
    return out


def _is_bound(n: int, lam_tilde: Fraction) -> bool:
    if lam_tilde == 0:
        return True
    info = fh_oscillator.bound_state_info(lam_tilde)
    return n <= info.normalizable_max_n


def _is_marginal(n: int, lam_tilde: Fraction) -> bool:
    if lam_tilde == 0:
        return False
    et = fh_oscillator.spectrum_closed_dimensionless(n, lam_tilde)
    return et == fh_oscillator.bound_state_info(lam_tilde).threshold


def _aim_report(cfg: Namespace) -> aim_core.AimSpectrumReport:
    seed = aim_core.aim_seed(
        *fh_oscillator.aim_inputs(cfg.lam_tilde, printed_signs=cfg.printed_signs))
    return aim_core.aim_eigenvalues(seed, k_max=cfg.kmax, tau0=cfg.tau0,
                                    stab_tol=Fraction(1, 10 ** 10))


def _aim_entries(cfg: Namespace) -> list[SpectrumEntry]:
    report = _aim_report(cfg)
    values = [v for v, _, _ in report.accepted]
    out = []
    for n in range(cfg.n_max + 1):
        et = fh_oscillator.spectrum_closed_dimensionless(n, cfg.lam_tilde)
        hit = None
        for v in values:
            if (isinstance(v, Fraction) and v == et) \
                    or abs(float(v) - float(et)) <= 1e-9:
                hit = v
                break
        if hit is None:
            continue  # level not stabilized at this k_max
        ep = Fraction(hit) * cfg.omega / 2 if isinstance(hit, Fraction) \
            else float(hit) * float(cfg.omega) / 2
        out.append(SpectrumEntry(n=n, e_tilde=hit, e_phys=ep,
                                 bound=_is_bound(n, cfg.lam_tilde),
                                 source="aim"))
    return out


def _oracle_levels(cfg: Namespace, n_cap: int, tol: Optional[float] = None,
                   below_edge: bool = False
                   ) -> tuple[Optional[sl_oracle.Grid], tuple[float, ...]]:
    """Oracle energies of n = 0..n_top, bisected to tol (default --tol),
    and their grid.

    n_top is the largest n <= n_cap whose state is normalizable and, with
    below_edge, whose level lies strictly below the continuum edge.  When
    no n qualifies there is no grid and no energy."""
    n_top = n_cap
    if cfg.lam_tilde > 0:
        info = fh_oscillator.bound_state_info(cfg.lam_tilde)
        n_top = min(n_top, info.normalizable_max_n)
        while below_edge and fh_oscillator.spectrum_closed_dimensionless(
                n_top, cfg.lam_tilde) >= info.threshold:
            n_top -= 1
    if n_top < 0:
        return None, ()
    if n_top + 1 > cfg.grid_n:
        raise ValueError(f"--n-max asks the oracle for n = 0..{n_top}, more "
                         f"than the {cfg.grid_n} levels of --grid-N {cfg.grid_n}")
    params = ModelParams(omega=cfg.omega, lam=cfg.lam)
    if cfg.grid_t is not None:
        t_half = cfg.grid_t
    else:
        t_half = max(15.0, sl_oracle.suggest_domain(params, max(n_top, 1)))
    grid = sl_oracle.Grid(T=t_half, N=cfg.grid_n)
    try:
        op = sl_oracle.discretize(params, grid)
    except ValueError as exc:
        raise ValueError(f"--grid-T {t_half:g} is too small or too large for "
                         f"--grid-N {cfg.grid_n}: {exc}") from None
    try:
        res = sl_oracle.lowest_eigenvalues(
            op, n_top + 1, cfg.tol if tol is None else tol)
    except sl_oracle.UnresolvedLevels as exc:
        width = f"--tol {cfg.tol:g}" if tol is None \
            else f"the bisection width {tol:g}"
        raise ValueError(
            f"oracle levels n = {exc.index} and {exc.index + 1} lie closer "
            f"than {width} on --grid-N {cfg.grid_n}, so the bisection cannot "
            f"order them; lower --n-max or change --grid-N") from None
    return grid, res.eigenvalues


def _oracle_entries(cfg: Namespace) -> list[SpectrumEntry]:
    _, levels = _oracle_levels(cfg, cfg.n_max)
    return [SpectrumEntry(n=n, e_tilde=2.0 * e / float(cfg.omega), e_phys=e,
                          bound=_is_bound(n, cfg.lam_tilde), source="oracle")
            for n, e in enumerate(levels)]


# ---------------------------------------------------------------------------
# output shaping

def _rat_or_none(x) -> Optional[str]:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
            else str(x.numerator)
    return None


def _entry_json(e: SpectrumEntry, cfg: Namespace) -> dict:
    return {
        "n": e.n,
        "E_tilde": _rat_or_none(e.e_tilde),
        "E": _rat_or_none(e.e_phys),
        "E_tilde_dec": float(e.e_tilde),
        "E_dec": float(e.e_phys),
        "method": e.source,
        "bound": e.bound,
        "marginal": _is_marginal(e.n, cfg.lam_tilde),
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
             str(_is_marginal(e.n, cfg.lam_tilde)).lower())
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
    checks = []
    entries = _closed_entries(cfg)

    if cfg.printed_signs:
        checks.append(_check_printed_signs(cfg))
    else:
        lt = cfg.lam_tilde
        if lt >= 1:  # the seed, the census and the eigenfunctions need lt < 1
            raise ValueError(f"lam_tilde must lie in [0, 1), got {lt}")
        checks.append(_check_aim_exact(cfg))
        checks.append(_check_oracle(cfg))
        checks.append(_check_residuals(cfg))

    doc = {
        "params": _params_json(cfg),
        "entries": [_entry_json(e, cfg) for e in entries],
        "checks": checks,
    }
    _write_lines([json.dumps(doc, indent=2, sort_keys=True)], cfg.out)
    return 0 if all(c["passed"] for c in checks) else 1


def _check_aim_exact(cfg: Namespace) -> dict:
    """Stable roots must contain the closed-form level, exactly, for every
    n the iteration depth can vouch for; a depth that vouches for no n
    fails."""
    n_chk = min(cfg.n_max, cfg.kmax - 3)
    try:
        report = _aim_report(cfg)
    except aim_core.NoStableRoots as exc:
        return {"name": "aim_matches_closed_form", "passed": False,
                "detail": str(exc)}
    exact_values = {v for v, _, _ in report.accepted if isinstance(v, Fraction)}
    missing = []
    for n in range(n_chk + 1):
        et = fh_oscillator.spectrum_closed_dimensionless(n, cfg.lam_tilde)
        if et not in exact_values:
            missing.append(n)
    if n_chk < 0:
        verdict = "; no level covered"
    else:
        verdict = f"; missing n = {missing}" if missing else "; all exact"
    return {
        "name": "aim_matches_closed_form",
        "passed": n_chk >= 0 and not missing,
        "detail": f"n <= {n_chk} at k_max = {cfg.kmax}" + verdict,
        "accepted": sorted(_rat_or_none(v) or repr(v) for v in exact_values),
    }


def _check_oracle(cfg: Namespace) -> dict:
    """Finite-difference eigenvalues against the closed form, for
    normalizable levels strictly below the continuum edge (edge states
    converge too slowly).  Past n ~ 1/lt - 1/2 the spectrum folds back
    below the edge, so the filter is on n as well as on E_n; up to
    normalizable_max_n the levels rise with n, so the kept n form a prefix,
    and E_0 = 1 < 1/lt keeps it nonempty."""
    grid, levels = _oracle_levels(cfg, min(cfg.n_max, 3), 1e-9,
                                  below_edge=True)
    deltas = [abs(e - float(fh_oscillator.spectrum_closed_physical(
        n, cfg.omega, cfg.lam))) for n, e in enumerate(levels)]
    return {
        "name": "oracle_matches_closed_form",
        "passed": max(deltas) <= cfg.tol,
        "detail": f"T = {grid.T:g}, N = {grid.N}, max |delta| = "
                  f"{max(deltas):.3e}, tol = {cfg.tol:g}",
        "deltas": deltas,
    }


def _check_residuals(cfg: Namespace) -> dict:
    worst = 0.0
    for n in range(min(cfg.n_max, 5) + 1):
        if not _is_bound(n, cfg.lam_tilde):
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
    """Flipped-sign convention demo: its own k = 1 quantization roots must
    contain 2*lt - 1 and must not contain the closed-form first excited
    level.  Passing means the discrepancy is demonstrated."""
    lt = cfg.lam_tilde
    seed = aim_core.aim_seed(*fh_oscillator.aim_inputs(lt, printed_signs=True))
    s1 = aim_core.aim_iterate(seed)
    delta = aim_core.quantization_delta(s1, seed, cfg.tau0)
    roots = set()
    for iv in aim_core.isolate_real_roots(delta.poly):
        if iv.exact is not None:
            roots.add(iv.exact)
    flipped = 2 * lt - 1
    reference = fh_oscillator.spectrum_closed_dimensionless(1, lt)
    demonstrated = flipped in roots and reference not in roots
    return {
        "name": "printed_sign_discrepancy",
        "passed": demonstrated,
        "detail": f"k=1 roots {sorted(_rat_or_none(r) for r in roots)}; "
                  f"contain {_rat_or_none(flipped)}, closed-form first "
                  f"excited {_rat_or_none(reference)} absent: {demonstrated}",
    }


def cmd_wavefunction(cfg: Namespace) -> int:
    if cfg.points < 2:
        raise ValueError("--points must be at least 2")
    ef = fh_oscillator.eigen_polynomial(cfg.n, cfg.lam_tilde)
    norm = fh_oscillator.normalization_constant(ef)
    ef = dataclasses.replace(ef, norm_const=norm)
    step = (cfg.tau_max - cfg.tau_min) / (cfg.points - 1)
    lines = ["tau,phi"]
    for i in range(cfg.points):
        tau = cfg.tau_min + i * step
        lines.append(f"{_dec12(tau)},{_dec12(fh_oscillator.wavefunction_eval(ef, tau))}")
    _write_lines(lines, cfg.out)
    return 0


def _lambda_sweep(cfg: Namespace) -> list[Fraction]:
    if cfg.lam_points < 2:
        raise ValueError("--lam-points must be at least 2")
    step = cfg.lam_max / (cfg.lam_points - 1)
    return [i * step for i in range(cfg.lam_points)]


def cmd_figures(cfg: Namespace) -> int:
    sweep = _lambda_sweep(cfg)
    outdir = Path(cfg.out) if cfg.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)

    lines = ["lambda,n,E"]
    for n in range(4):
        for lam in sweep:
            e = fh_oscillator.spectrum_closed_physical(n, Fraction(10), lam)
            lines.append(f"{_dec12(lam)},{n},{_dec12(e)}")
    _write_file(outdir / "fig1.csv", lines)

    lines = ["lambda,omega_hz,E"]
    for omega in cfg.fig2_omegas:
        for lam in sweep:
            e = fh_oscillator.spectrum_closed_physical(1, omega, lam)
            lines.append(f"{_dec12(lam)},{_dec12(omega)},{_dec12(e)}")
    _write_file(outdir / "fig2.csv", lines)

    lines = ["n,omega_hz,E"]
    for omega in (Fraction(10), Fraction(20), Fraction(30)):
        for n in range(10):
            e = fh_oscillator.spectrum_closed_physical(n, omega, cfg.fig_lambda)
            lines.append(f"{n},{_dec12(omega)},{_dec12(e)}")
    _write_file(outdir / "fig3.csv", lines)

    lines = ["omega,n,E"]
    for n in (1, 2, 3):
        for w in range(1, 31):
            e = fh_oscillator.spectrum_closed_physical(n, Fraction(w), cfg.fig_lambda)
            lines.append(f"{w},{n},{_dec12(e)}")
    _write_file(outdir / "fig4.csv", lines)
    return 0


def _write_file(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        if cfg.command == "spectrum":
            return cmd_spectrum(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "wavefunction":
            return cmd_wavefunction(cfg)
        return cmd_figures(cfg)
    except NotNormalizable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, LambdaZeroSeed, NonpositiveFrequency,
            aim_core.LambdaZero) as exc:
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
