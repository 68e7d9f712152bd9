"""Workloads of the aimosc benchmark and the checks applied to each response.

A workload is a list of requests, each an argv list for `aimosc.cli.main`.
The seed picks the request order and the nonzero tau0 anchors; the program
sees only the generated argv lists.

The checks compute the closed form E_n = 2n + 1 - n(n + 1) lt as a
`Fraction` themselves and share no code with the package.  A check returns
None when it accepts a response and a one-line reason when it rejects one.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("aim_deep", "verify_sweep", "closed_io")

# Nonzero anchors whose AIM cost is within noise of tau0 = 0, so the seed
# changes the request without changing the amount of work.
TAU0_ANCHORS = ("1/2", "-1/2", "1", "-1", "2", "-2")

# Relative half-unit in the 12th significant digit: the CLI's decimal output.
DEC12 = Fraction(5, 10 ** 12)

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Request:
    """One argv list, its check, and the exit codes that are not errors.

    `verify` may exit 1: that is the program's own verdict, which counts as
    a failed request but not as a wrong answer."""
    argv: tuple[str, ...]
    check: Check
    exit_codes: tuple[int, ...] = (0,)


@dataclass(frozen=True)
class Workload:
    warmup: tuple[Request, ...]
    requests: tuple[Request, ...]


# ---------------------------------------------------------------------------
# reference values, computed here and nowhere else

def level(n: int, lt: Fraction) -> Fraction:
    return 2 * n + 1 - n * (n + 1) * lt


def level_phys(n: int, omega: Fraction, lam: Fraction) -> Fraction:
    return Fraction(2 * n + 1) * omega / 2 - Fraction(n * (n + 1)) * lam / 2


def max_bound_n(lt: Fraction) -> Optional[int]:
    """Largest n with n < 1/lt - 1/2; None when every level is bound."""
    if lt == 0:
        return None
    return math.ceil(1 / lt - Fraction(1, 2)) - 1


def is_bound(n: int, lt: Fraction) -> bool:
    top = max_bound_n(lt)
    return top is None or n <= top


def strictly_bound(n: int, lt: Fraction) -> bool:
    return is_bound(n, lt) and (lt == 0 or level(n, lt) < 1 / lt)


def _equal(text: str, exact: Fraction) -> bool:
    return Fraction(text) == exact


def _close12(text: str, exact: Fraction) -> bool:
    """A 12-significant-digit decimal of `exact`, rounded either way."""
    return abs(Fraction(text) - exact) <= abs(exact) * DEC12


# ---------------------------------------------------------------------------
# checks

def check_aim(lt: Fraction, k_max: int) -> Check:
    """Every n <= k_max - 3 present, each level equal to the closed form."""
    want = list(range(k_max - 2))

    def check(rc: int, out: str) -> Optional[str]:
        doc = json.loads(out)
        got = [e["n"] for e in doc["entries"]]
        if got != want:
            return f"aim levels {got}, expected n = 0..{k_max - 3}"
        for e in doc["entries"]:
            n = e["n"]
            if e["method"] != "aim" or e["E_tilde"] is None \
                    or Fraction(e["E_tilde"]) != level(n, lt) \
                    or Fraction(e["E"]) != level(n, lt) / 2:
                return f"aim level n = {n} is {e['E_tilde']}, expected {level(n, lt)}"
        return None
    return check


def oracle_error(lt: Fraction, out: str) -> float:
    """Largest |E_tilde oracle - E_tilde closed| over strictly bound levels.

    The report lists physical deltas at omega = 1, where E = E_tilde / 2.
    """
    doc = json.loads(out)
    oracle = next(c for c in doc["checks"]
                  if c["name"] == "oracle_matches_closed_form")
    return max((2.0 * d for n, d in enumerate(oracle.get("deltas", []))
                if strictly_bound(n, lt)), default=0.0)


class VerifyCheck:
    """The report's levels, AIM roots and oracle values, checked
    independently of the program's own verdict, which the exit code gives.
    Keeps the oracle error of every response it sees."""

    def __init__(self, lt: Fraction, n_max: int = 3, k_max: int = 8,
                 tol: float = 1e-2) -> None:
        self.lt = lt
        self.n_chk = min(n_max, k_max - 3)
        self.tol = tol
        self.errors: list[float] = []

    def __call__(self, rc: int, out: str) -> Optional[str]:
        lt = self.lt
        doc = json.loads(out)
        for e in doc["entries"]:
            if Fraction(e["E_tilde"]) != level(e["n"], lt):
                return f"verify level n = {e['n']} is {e['E_tilde']}"
        aim = next(c for c in doc["checks"]
                   if c["name"] == "aim_matches_closed_form")
        roots = {Fraction(r) for r in aim.get("accepted", [])}
        missing = [n for n in range(self.n_chk + 1) if level(n, lt) not in roots]
        if missing:
            return f"verify AIM roots miss n = {missing}"
        err = oracle_error(lt, out)
        self.errors.append(err)
        if err > 2 * self.tol:
            return f"oracle off by {err:.3e} on a strictly bound level"
        return None


def check_closed(lt: Fraction, omega: Fraction, n_max: int, fmt: str) -> Check:
    """Closed-form levels: exact in JSON, correctly rounded in CSV/table."""
    def expect(n: int) -> tuple[Fraction, Fraction, str, str]:
        et = level(n, lt)
        marginal = lt != 0 and et == 1 / lt
        return (et, et * omega / 2, str(is_bound(n, lt)).lower(),
                str(marginal).lower())

    def check(rc: int, out: str) -> Optional[str]:
        if fmt == "json":
            entries = json.loads(out)["entries"]
            rows = [(str(e["n"]), e["E_tilde"], e["E"], e["method"],
                     str(e["bound"]).lower(), str(e["marginal"]).lower())
                    for e in entries]
            same = _equal
        else:
            lines = out.splitlines()
            rows = [tuple(ln.split(",") if fmt == "csv" else ln.split())
                    for ln in lines[1:]]
            same = _close12
        if len(rows) != n_max + 1:
            return f"{len(rows)} closed-form rows, expected {n_max + 1}"
        for n, row in enumerate(rows):
            et, ep, bound, marginal = expect(n)
            if row[0] != str(n) or row[3] != "closed_form" \
                    or not same(row[1], et) or not same(row[2], ep) \
                    or row[4] != bound or row[5] != marginal:
                return f"closed-form row {row} at n = {n}"
        return None
    return check


def check_wavefunction(points: int) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        lines = out.splitlines()
        if lines[0] != "tau,phi" or len(lines) != points + 1:
            return f"wavefunction gave {len(lines) - 1} rows, expected {points}"
        for ln in lines[1:]:
            if not all(math.isfinite(float(x)) for x in ln.split(",")):
                return f"non-finite wavefunction row {ln!r}"
        return None
    return check


# file -> (header, parameters the file holds fixed); E is the closed form
FIGURES = {
    "fig1.csv": ("lambda,n,E", {"omega": Fraction(10)}),
    "fig2.csv": ("lambda,omega_hz,E", {"n": 1}),
    "fig3.csv": ("n,omega_hz,E", {"lambda": Fraction(1)}),
    "fig4.csv": ("omega,n,E", {"lambda": Fraction(1)}),
}


def _figure_problem(name: str, data: bytes, rows_expected: int) -> Optional[str]:
    header, fixed = FIGURES[name]
    lines = data.decode("ascii").splitlines()
    if lines[0] != header or len(lines) - 1 != rows_expected:
        return f"{name}: {len(lines) - 1} rows under {lines[0]!r}"
    cols = [c.replace("omega_hz", "omega") for c in header.split(",")]
    for ln in lines[1:]:
        vals = dict(fixed, **dict(zip(cols, ln.split(","))))
        want = level_phys(int(vals["n"]), Fraction(vals["omega"]),
                          Fraction(vals["lambda"]))
        if not _close12(vals["E"], want):
            return f"{name}: row {ln!r}, expected E = {want}"
    return None


class FiguresCheck:
    """The first response is checked against the closed form; every later
    one must leave byte-identical files."""

    def __init__(self, outdir: Path, omegas: int, lam_points: int) -> None:
        self.outdir = outdir
        self.rows = {"fig1.csv": 4 * lam_points, "fig2.csv": omegas * lam_points,
                     "fig3.csv": 30, "fig4.csv": 90}
        self.reference: Optional[dict[str, bytes]] = None

    def __call__(self, rc: int, out: str) -> Optional[str]:
        files = {name: (self.outdir / name).read_bytes() for name in FIGURES}
        if self.reference is None:
            for name, data in files.items():
                problem = _figure_problem(name, data, self.rows[name])
                if problem:
                    return problem
            self.reference = files
            return None
        changed = [n for n in FIGURES if files[n] != self.reference[n]]
        return f"figure files changed: {changed}" if changed else None


# ---------------------------------------------------------------------------
# workload builders

def aim_deep(seed: int, tiny: bool = False) -> Workload:
    """Four deep AIM runs; exact root isolation dominates."""
    rng = random.Random(seed)
    tau0 = rng.choice(TAU0_ANCHORS)
    plan = [("0", "0", 20), ("1/10", tau0, 20), ("3/5", "0", 16),
            ("12345/1000003", "0", 10)]
    if tiny:
        plan = [(lt, t, 6) for lt, t, _ in plan]
    reqs = [_aim_request(lt, t, k) for lt, t, k in plan]
    rng.shuffle(reqs)
    return Workload((_aim_request("1/10", "0", 6),), tuple(reqs))


def _aim_request(lt: str, tau0: str, k_max: int) -> Request:
    argv = ("spectrum", "--method", "aim", "--lambda-tilde", lt,
            "--kmax", str(k_max), f"--tau0={tau0}", "--n-max", str(k_max - 3),
            "--format", "json")
    return Request(argv, check_aim(Fraction(lt), k_max))


def sweep_values(max_den: int = 6) -> list[Fraction]:
    """Every lambda_tilde = p/q in [0, 1) with q <= max_den."""
    return sorted({Fraction(p, q) for q in range(1, max_den + 1)
                   for p in range(q)})


def verify_sweep(seed: int, tiny: bool = False) -> Workload:
    """Default `verify` over lambda_tilde = p/q in [0, 1), q <= 6."""
    # a coarser grid would fail the oracle check, so the tiny run keeps
    # the default grid and sweeps q <= 2: one passing and one failing value
    reqs = [_verify_request(lt, ()) for lt in sweep_values(2 if tiny else 6)]
    random.Random(seed).shuffle(reqs)
    warm = _verify_request(Fraction(1, 10), ("--grid-N", "2000"))
    return Workload((warm,), tuple(reqs))


def _verify_request(lt: Fraction, extra: tuple[str, ...]) -> Request:
    return Request(("verify", "--lambda-tilde", str(lt)) + extra,
                   VerifyCheck(lt), exit_codes=(0, 1))


CLOSED_LAMBDAS = ("0", "1/10", "1/5", "1/3")
FIGURE_VARIANTS = {
    "default": ((), 3, 81),
    "wide": (("--fig2-omegas", "10,20,30"), 3, 81),
    "coarse": (("--lam-max", "3", "--lam-points", "41"), 3, 41),
}


def closed_io(seed: int, outdir: Path, tiny: bool = False) -> Workload:
    """Small closed-form, wavefunction and figures requests."""
    lambdas = CLOSED_LAMBDAS[:1] if tiny else CLOSED_LAMBDAS
    reqs = []
    for i, lt_text in enumerate(lambdas):
        lt = Fraction(lt_text)
        for fmt in ("table", "csv", "json"):
            for n_max in (3, 9, 20):
                for omega in ("1", "10", "5/2"):
                    argv = ("spectrum", "--lambda-tilde", lt_text,
                            "--omega", omega, "--n-max", str(n_max),
                            "--format", fmt)
                    reqs.append(Request(argv, check_closed(
                        lt, Fraction(omega), n_max, fmt)))
        for n in (0, 1, 2):
            if not is_bound(n, lt):
                continue
            for points in (51, 201, 401):
                argv = ("wavefunction", "--lambda-tilde", lt_text,
                        "--n", str(n), "--points", str(points))
                reqs.append(Request(argv, check_wavefunction(points)))
        for variant, (extra, omegas, lam_points) in FIGURE_VARIANTS.items():
            fig_dir = outdir / f"fig-{i}-{variant}"
            argv = ("figures", "--lambda-tilde", lt_text,
                    "--out", str(fig_dir)) + extra
            reqs.append(Request(argv, FiguresCheck(fig_dir, omegas, lam_points)))
    random.Random(seed).shuffle(reqs)
    # the warm-up pass is a full pass: it also fixes the figure references
    return Workload(tuple(reqs), tuple(reqs))


def build(name: str, seed: int, outdir: Path, tiny: bool = False) -> Workload:
    if name == "aim_deep":
        return aim_deep(seed, tiny)
    if name == "verify_sweep":
        return verify_sweep(seed, tiny)
    if name == "closed_io":
        return closed_io(seed, outdir, tiny)
    raise ValueError(f"unknown workload {name!r}")
