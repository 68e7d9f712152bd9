"""Command-line front end.

Four subcommands: `spectrum` computes levels by closed form, by the
iteration engine, or by the finite-difference oracle; `verify` runs the
cross-check matrix of `verify.py` and reports JSON; `wavefunction`
samples a normalized eigenstate; `figures` emits the four sweep CSV
files.  Each checks its flags before it writes any output, and loads
only the layers it runs: closed-form output needs `fh_oscillator` alone,
`--method aim` adds `aim_core` and `exactalg`, and `--method oracle` and
`verify` add `sl_oracle` and `verify.py` too.

Rational inputs are accepted as "p/q" strings and kept exact internally.
CSV output prints a float as its shortest repr rounded half-even to 12
significant digits and a Fraction by one correctly rounded division,
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
from typing import TYPE_CHECKING, Optional, Sequence

from . import fh_oscillator
from .fh_oscillator import NotNormalizable, SpectrumEntry

if TYPE_CHECKING:  # routes 2 and 3 load in the functions that run them
    from . import aim_core, sl_oracle


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
    """A Fraction by _ratio12; a float x as its shortest repr D, rounded
    half-even to 12 digits by the Decimal line at the end.  format(x,
    ".12g") rounds x itself to the same digits: if D has at most 12
    digits, both give D; if 13, ".13g" gives D, and x and D round apart
    only when D ends in 5, a tie; if 14 or more, no 12-digit rounding
    boundary lies between x and D, for it would be a shorter string that
    round-trips.  Zero, non-finite x, an exponent in the text and a
    13-digit tie take the Decimal line."""
    if type(value) is Fraction:
        return _ratio12(value.numerator, value.denominator)
    x = float(value)
    text = format(x, ".12g")
    if x and math.isfinite(x) and "e" not in text:
        d = format(x, ".13g")
        mantissa = d.partition("e")[0]
        if (mantissa[-1] != "5" or float(d) != x
                or len(mantissa.strip("-.0").replace(".", "")) != 13):
            return text
    return _plain12(_DEC12.plus(Decimal(repr(x))))


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
    levels.add_argument("--grid-N", dest="grid_n", type=int, default=3999,
                        help="rows of the finest of the oracle's three "
                             "grids; the others have // 2 and // 4")
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
                    help="oracle bisection width, in units of omega")

    vf = sub.add_parser("verify", parents=[model, levels, signs],
                        help="cross-check matrix, JSON report")
    vf.add_argument("--tol", type=float, default=1e-2,
                    help="gate on |oracle - closed form|, in units of omega")

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

def _closed_entries(cfg: Namespace, n_top: Optional[int] = None
                    ) -> list[SpectrumEntry]:
    """The closed-form rows n = 0..n_top, by default --n-max."""
    # lam_tilde = p/q, omega = c/e: E_tilde_n = num/q, E_n = num c/(2 q e)
    p, q = cfg.lam_tilde.numerator, cfg.lam_tilde.denominator
    c, e = cfg.omega.numerator, cfg.omega.denominator
    out = []
    for n in range(1 + (cfg.n_max if n_top is None else n_top)):
        num = fh_oscillator.closed_numerator(n, p, q)
        out.append(SpectrumEntry(n, Fraction(num, q),
                                 Fraction(num * c, 2 * q * e),
                                 cfg.census.bound(n), "closed_form"))
    return out


def _aim_report(cfg: Namespace) -> aim_core.AimSpectrumReport:
    from . import aim_core
    seed = aim_core.aim_seed(*fh_oscillator.aim_inputs(cfg.lam_tilde))
    return aim_core.aim_eigenvalues(seed, k_max=cfg.kmax, tau0=cfg.tau0)


def _aim_entries(cfg: Namespace) -> list[SpectrumEntry]:
    certified = {v for v, _ in _aim_report(cfg).accepted}
    return [SpectrumEntry(e.n, e.e_tilde, e.e_phys, e.bound, "aim")
            for e in _closed_entries(cfg, min(cfg.n_max, cfg.kmax))
            if e.e_tilde in certified]


def _oracle_top(cfg: Namespace) -> int:
    """The largest n <= --n-max that route 3 solves: normalizable and
    strictly below the continuum edge, where states converge too slowly
    (past n ~ 1/lt - 1/2 the spectrum folds back below it); -1 if none."""
    census = cfg.census
    n_top = census.below_edge(cfg.n_max if census.bound(cfg.n_max)
                              else census.normalizable_max_n)
    # route 3 scales its levels by omega as a finite, normal float
    what = "omega for the oracle"
    if n_top >= 0 and _float(cfg.omega, what, "--omega") < sys.float_info.min:
        raise ValueError(f"{what} is out of floating-point range: "
                         f"change --omega")
    return n_top


def _oracle_grids(cfg: Namespace, n_top: int
                  ) -> list[tuple[sl_oracle.Grid, sl_oracle.TridiagOp, str]]:
    """(grid, operator, flag name) for n = 0..n_top on --grid-N // 2^i rows
    over the same T, for i = 0, 1, 2, finest first; a grid's errors exit
    before the next is built.  Each operator is H~ at omega = 1 (see
    `sl_oracle`), over T = --grid-T sqrt(omega), or sinh(16)."""
    from . import sl_oracle
    root = math.sqrt(cfg.omega)
    t_half = sl_oracle.DEFAULT_T if cfg.grid_t is None else cfg.grid_t * root
    grids = []
    for i in range(3):
        rows = cfg.grid_n >> i
        name = f"--grid-N {cfg.grid_n}" + (f" // {2 ** i}" if i else "")
        if n_top + 1 > rows:
            raise ValueError(f"--n-max asks the oracle for n = 0..{n_top}, "
                             f"more than the {rows} levels of {name}")
        if rows < 3:
            raise ValueError(f"{name} is {rows} rows, fewer than the 3 a grid "
                             f"needs: raise --grid-N")
        try:
            grid = sl_oracle.Grid(T=t_half, N=rows)
            op = sl_oracle.discretize(cfg.lam_tilde, grid)
        except ValueError as exc:
            raise ValueError(f"--grid-T {cfg.grid_t or t_half / root:g} is "
                             f"too small or too large for {name}: {exc}"
                             ) from None
        grids.append((grid, op, name))
    return grids


def _oracle_entries(cfg: Namespace) -> list[SpectrumEntry]:
    """Route 3's rows, omega P and its resolution, by `verify`'s solve."""
    n_top = _oracle_top(cfg)
    if n_top < 0:
        return []
    from . import sl_oracle
    from .verify import solve_oracle
    try:  # the grids first, then the rows their hints read
        levels, _, _, res = solve_oracle(cfg, _oracle_grids(cfg, n_top),
                                         cfg.tol, _closed_entries(cfg, n_top))
    except sl_oracle.UnresolvedLevels as exc:
        raise ValueError(f"{exc}: lower --n-max or --tol, or change "
                         f"--grid-N") from None
    return [SpectrumEntry(n, 2.0 * p, float(cfg.omega) * p, True, "oracle", r)
            for n, (p, r) in enumerate(zip(levels, res))]


# ---------------------------------------------------------------------------
# output shaping

def _rat_or_none(x) -> Optional[str]:
    return str(x) if type(x) is Fraction else None  # "p/q", or "p" at q = 1


def _entry_json(e: SpectrumEntry, cfg: Namespace) -> dict:
    return {
        "n": e.n,
        "E_tilde": _rat_or_none(e.e_tilde),
        "E": _rat_or_none(e.e_phys),
        "E_tilde_dec": _float(e.e_tilde, f"E_tilde at n = {e.n}", cfg.lam_flag),
        "E_dec": _float(e.e_phys, f"E at n = {e.n}", "--omega"),
        "method": e.source,
        "bound": e.bound,
        "marginal": cfg.census.marginal(e.n),
        **({} if e.resolution is None else {"resolution": e.resolution}),
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
             str(cfg.census.marginal(e.n)).lower())
            for e in entries]
    header = ("n", "E_tilde", "E", "method", "bound", "marginal")
    if cfg.fmt == "csv":
        _write_lines([",".join(header)] + [",".join(r) for r in rows], cfg.out)
        return
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    _write_lines(["  ".join(c.ljust(w) for c, w in zip(r, widths))
                  for r in (header, *rows)], cfg.out)


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(cfg: Namespace) -> int:
    _levels(cfg)
    methods = cfg.method or ("closed",)
    if "aim" in methods and cfg.kmax < 2:
        raise ValueError(f"--kmax must be at least 2, got {cfg.kmax}")
    # the oracle runs first, so its errors exit before any row is built
    oracle = _oracle_entries(cfg) if "oracle" in methods else []
    rows = {"closed": _closed_entries, "aim": _aim_entries,
            "oracle": lambda cfg: oracle}
    _emit_entries([e for method in methods for e in rows[method](cfg)], cfg)
    return 0


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
    taus = [cfg.tau_min + i * step for i in range(cfg.points)]
    phis = fh_oscillator.wavefunction_eval(ef, taus, norm)
    _write_lines(["tau,phi"] + [f"{_dec12(tau)},{_dec12(phi)}"
                                for tau, phi in zip(taus, phis)], cfg.out)
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
    if args.command == "verify":  # the one command that loads its checks
        from .verify import cmd_verify
        args.run = cmd_verify
    try:
        return args.run(_model(args))
    except (ValueError, RuntimeError, OSError) as exc:
        if isinstance(exc, RuntimeError):  # route 2 loads only if it runs
            from .aim_core import NoStableRoots
            if not isinstance(exc, NoStableRoots):
                raise
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValueError):  # NotNormalizable is one
            return 3 if isinstance(exc, NotNormalizable) else 2
        return 1 if isinstance(exc, RuntimeError) else 4


if __name__ == "__main__":
    # `python -m aimosc.cli`: verify's `from . import cli` finds this
    # module instead of running a second copy of it
    sys.modules["aimosc.cli"] = sys.modules[__name__]
    sys.exit(main())
