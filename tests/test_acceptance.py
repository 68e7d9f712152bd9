"""End-to-end acceptance gates.

Each test checks one numbered criterion, prints a single
"CRITERION k: PASS/FAIL - detail" line on the real stdout (so the line
shows up in any pytest capture mode), then asserts.  Tolerances and
runtime caps are stated inline next to each check.
"""
import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from aimosc import cli
from aimosc.aim_core import (
    aim_eigenvalues,
    aim_iterate,
    aim_seed,
    eigenfunction_via_alpha,
    isolate_real_roots,
    quantization_delta,
)
from aimosc.exactalg import horner
from aimosc.fh_oscillator import (
    NotNormalizable,
    aim_inputs,
    bound_state_info,
    eigen_polynomial,
    normalization_constant,
    residual_check,
    spectrum_closed_dimensionless,
)
from aimosc.sl_oracle import (
    Grid,
    discretize,
    eigen_count_below,
    lowest_eigenvalues,
)
from poly_ref import poly_eval


def report(capsys, k: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)


def chain(lam_tilde, k, printed_signs=False):
    states = [aim_seed(*aim_inputs(lam_tilde, printed_signs=printed_signs))]
    for _ in range(k):
        states.append(aim_iterate(states[-1]))
    return states


def test_criterion_01_exact_quantization_vanishing(capsys):
    # delta_8 at tau0 = 0 must vanish exactly (rational arithmetic, zero
    # tolerance) at E_tilde_n = 2n+1 - n(n+1)*lt for n <= 7.  <= 60 s.
    t0 = time.perf_counter()
    failures = []
    for lt in (F(0), F(1, 10), F(1, 4)):
        states = chain(lt, 8)
        delta = quantization_delta(states[8], states[7], F(0))
        for n in range(8):
            e = spectrum_closed_dimensionless(n, lt)
            if poly_eval(delta.poly, F(0), e) != 0:
                failures.append((lt, n))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 60.0
    report(capsys, 1, ok, f"delta_8 vanishes exactly at all 24 (lt, n) pairs"
                  f"{'' if not failures else ' except ' + repr(failures)}; "
                  f"{elapsed:.2f}s (cap 60s)")
    assert not failures
    assert elapsed <= 60.0


def test_criterion_02_spectrum_recovery_no_extras(capsys):
    # certified set at k_max = 8 equals {E_tilde_n: n<=8} for lt = 1/10,
    # with no extra certified roots.  <= 30 s.
    t0 = time.perf_counter()
    lt = F(1, 10)
    seed = aim_seed(*aim_inputs(lt))
    rep = aim_eigenvalues(seed, k_max=8, tau0=F(0))
    got = {v for v, _ in rep.accepted}
    want = {spectrum_closed_dimensionless(n, lt) for n in range(9)}
    elapsed = time.perf_counter() - t0
    ok = got == want and elapsed <= 30.0
    report(capsys, 2, ok, f"certified == {{E_tilde_n: n<=8}} exactly "
                  f"({len(got)} roots, {len(got - want)} extra); "
                  f"{elapsed:.2f}s (cap 30s)")
    assert got == want
    assert elapsed <= 30.0


def test_criterion_03_flipped_sign_discrepancy(capsys):
    # the flipped drift-sign convention must produce 2*lt-1 = -4/5 among
    # its k=1 roots and must NOT produce the closed-form 14/5; the verify
    # command must flag the disagreement rather than hide it.
    lt = F(1, 10)
    states = chain(lt, 1, printed_signs=True)
    delta = quantization_delta(states[1], states[0], F(0))
    roots = {iv.exact for iv in isolate_real_roots(delta.poly)
             if iv.exact is not None}
    has_flipped = F(-4, 5) in roots
    lacks_reference = F(14, 5) not in roots

    code = cli.main(["verify", "--lambda-tilde", "1/10", "--printed-signs"])
    doc = json.loads(capsys.readouterr().out)
    flagged = doc["checks"][0]["name"] == "printed_sign_discrepancy" \
        and doc["checks"][0]["passed"] is True and code == 0

    ok = has_flipped and lacks_reference and flagged
    report(capsys, 3, ok, f"k=1 roots {sorted(map(str, roots))}: -4/5 present "
                  f"({has_flipped}), 14/5 absent ({lacks_reference}), "
                  f"verify flags it ({flagged})")
    assert has_flipped and lacks_reference and flagged


def test_criterion_04_oracle_cross_check(capsys):
    # omega = 1, lam = 1/10, T = 15, N = 30000: lowest three within 1e-3
    # of {0.5, 1.4, 2.2}; harmonic control within 1e-4 of {0.5, 1.5, 2.5}.
    # <= 20 s.
    t0 = time.perf_counter()
    grid = Grid(T=15.0, N=30000)
    op = discretize(F(1, 10), grid)
    res = lowest_eigenvalues(op, 3, 1e-9)
    dev = max(abs(v - w) for v, w in zip(res, (0.5, 1.4, 2.2)))

    op0 = discretize(0, grid)
    res0 = lowest_eigenvalues(op0, 3, 1e-9)
    dev0 = max(abs(v - w) for v, w in zip(res0, (0.5, 1.5, 2.5)))

    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-3 and dev0 <= 1e-4 and elapsed <= 20.0
    report(capsys, 4, ok, f"decay max|delta| = {dev:.2e} (tol 1e-3), harmonic "
                  f"control {dev0:.2e} (tol 1e-4); {elapsed:.2f}s (cap 20s)")
    assert dev <= 1e-3
    assert dev0 <= 1e-4
    assert elapsed <= 20.0


def test_criterion_05_convergence_order(capsys):
    # refinement over h, h/2, h/4 at lam = 1/10 must show order
    # log2(d1 / d2) in [1.8, 2.2] for the two lowest eigenvalues, with d1
    # and d2 the two successive differences.
    grids = (Grid(T=15.0, N=1874), Grid(T=15.0, N=3749), Grid(T=15.0, N=7499))
    levels = [lowest_eigenvalues(discretize(F(1, 10), g), 2, 1e-12)
              for g in grids]
    orders = [math.log2((a - b) / (b - c)) for a, b, c in zip(*levels)]
    ok = all(1.8 <= o <= 2.2 for o in orders)
    report(capsys, 5, ok, "observed orders "
                  + ", ".join(f"{o:.3f}" for o in orders)
                  + " (window [1.8, 2.2])")
    assert ok


def test_criterion_06_eigenfunction_exactness(capsys):
    # series residual must be the zero polynomial for n <= 5 at
    # lt in {0, 1/10, 1/4}; the full equation residual must stay below
    # 1e-9 at 100 seeded-random tau in [-5, 5] for n <= 3.
    rng = random.Random(20260818)
    taus = [rng.uniform(-5.0, 5.0) for _ in range(100)]
    series_ok = True
    worst = 0.0
    for lt in (F(0), F(1, 10), F(1, 4)):
        for n in range(6):
            rep = residual_check(eigen_polynomial(n, lt),
                                 samples=taus if n <= 3 else (0.5,))
            if rep.series_residual:
                series_ok = False
            if n <= 3:
                worst = max(worst, max(abs(r) for _, r in rep.ode_samples))
    ok = series_ok and worst < 1e-9
    report(capsys, 6, ok, f"series residuals all zero ({series_ok}); worst full "
                  f"residual {worst:.2e} over 100 random tau (tol 1e-9)")
    assert series_ok
    assert worst < 1e-9


def test_criterion_07_alpha_route_matches_series(capsys):
    # log-derivative reconstruction vs the series polynomial, n <= 3,
    # lt = 1/10, 101-point grid on [-3, 3], node neighborhoods excluded,
    # one global scale allowed: max relative deviation <= 1e-8.
    lt = F(1, 10)
    state = chain(lt, 8)[8]
    grid = [-3.0 + 0.06 * i for i in range(101)]
    worst = 0.0
    for n in range(4):
        e = spectrum_closed_dimensionless(n, lt)
        vals = eigenfunction_via_alpha(state, e, grid)
        ef = eigen_polynomial(n, lt)
        ref = [horner([float(c) for c in ef.coeffs], t) for t in grid]
        scale_at = max(range(101), key=lambda i: abs(ref[i]))
        s = vals[scale_at] / ref[scale_at]
        peak = abs(ref[scale_at])
        dev = max(abs(v / s - r) / peak for v, r in zip(vals, ref)
                  if abs(r) >= 1e-3 * peak)
        worst = max(worst, dev)
    ok = worst <= 1e-8
    report(capsys, 7, ok, f"max relative deviation {worst:.2e} over n <= 3 "
                  f"(tol 1e-8, nodes excluded)")
    assert worst <= 1e-8


def test_criterion_08_figure_identities(tmp_path, capsys):
    # emitted sweep files must satisfy the exact closed-form identities
    # after re-parsing, and generation must finish within 5 s.
    t0 = time.perf_counter()
    code = cli.main(["figures", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert code == 0

    def rows(name):
        return [line.split(",") for line in
                (tmp_path / name).read_text().splitlines()[1:]]

    # fig1/fig2: E is linear in lambda, so second differences vanish
    second_diffs_ok = True
    for name, keycol, valcol in (("fig1.csv", 1, 2), ("fig2.csv", 1, 2)):
        series = {}
        for r in rows(name):
            series.setdefault(r[keycol], []).append(F(r[valcol]))
        for vals in series.values():
            for a, b, c in zip(vals, vals[1:], vals[2:]):
                if a - 2 * b + c != 0:
                    second_diffs_ok = False

    # fig3: E_{n+1} - 2 E_n + E_{n-1} = -lambda exactly (lambda = 1)
    fig3_ok = True
    series = {}
    for n, w, e in rows("fig3.csv"):
        series.setdefault(w, []).append(F(e))
    for vals in series.values():
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            if a - 2 * b + c != F(-1):
                fig3_ok = False

    # fig4: per-series slope in omega equals (2n+1)/2 exactly
    fig4_ok = True
    series = {}
    for w, n, e in rows("fig4.csv"):
        series.setdefault(int(n), []).append(F(e))
    for n, vals in series.items():
        for a, b in zip(vals, vals[1:]):
            if b - a != F(2 * n + 1, 2):
                fig4_ok = False

    ok = second_diffs_ok and fig3_ok and fig4_ok and elapsed <= 5.0
    report(capsys, 8, ok, f"lambda-linearity ({second_diffs_ok}), curvature = "
                  f"-lambda ({fig3_ok}), slope = (2n+1)/2 ({fig4_ok}); "
                  f"generated in {elapsed:.2f}s (cap 5s)")
    assert second_diffs_ok and fig3_ok and fig4_ok
    assert elapsed <= 5.0


def test_criterion_09_bound_state_census(capsys):
    # lt = 1/4: the truncated-domain oracle must count exactly 4 levels
    # against the continuum edge at T = 60 and T = 100, matching
    # bound_state_info (n = 0..3); n = 4 must refuse to normalize.
    # Truncation pushes the marginal level n = 3 just above the edge, so
    # the census adds the first level above it when its overshoot is
    # under a quarter of the gap to the next level.
    info = bound_state_info(F(1, 4))
    threshold_e = float(info.threshold) / 2.0  # physical units at omega = 1
    details = []
    counts = []
    for T in (60.0, 100.0):
        op = discretize(F(1, 4), Grid(T=T, N=30000))
        strict = sum(eigen_count_below(b, threshold_e)
                     for b in op.parity_blocks)
        edge, nxt = lowest_eigenvalues(op, strict + 2, 1e-8)[-2:]
        shift, gap = edge - threshold_e, nxt - edge
        census = strict + (1 if 0 < shift < 0.25 * gap else 0)
        counts.append((strict, census))
        details.append(f"T={T:g}: strict {strict}, census {census}, "
                       f"shift/gap {shift / gap:.3f}")
    with pytest.raises(NotNormalizable):
        normalization_constant(eigen_polynomial(4, F(1, 4)))
    counts_ok = all(c == (3, 4) for c in counts)
    expected_ok = info.normalizable_max_n == 3
    ok = counts_ok and expected_ok
    report(capsys, 9, ok, "; ".join(details)
                  + f"; n=4 raises NotNormalizable; max_n = "
                    f"{info.normalizable_max_n}")
    assert counts_ok
    assert expected_ok


def test_criterion_10_harmonic_limit_continuity(capsys):
    # lt = 1e-6: both the closed form and the certified iteration roots
    # must sit within 3e-5 of the flat-mass levels 2n+1 for n <= 3, and
    # k_max = 8 must certify every n <= 8.
    lt = F(1, 10 ** 6)
    closed_dev = max(abs(float(spectrum_closed_dimensionless(n, lt))
                         - (2 * n + 1)) for n in range(4))
    seed = aim_seed(*aim_inputs(lt))
    rep = aim_eigenvalues(seed, k_max=8, tau0=F(0))
    accepted = {v for v, _ in rep.accepted}
    aim_dev = 0.0
    missing = []
    for n in range(9):
        e = spectrum_closed_dimensionless(n, lt)
        if e not in accepted:
            missing.append(n)
            continue
        if n <= 3:
            aim_dev = max(aim_dev, abs(float(e) - (2 * n + 1)))
    ok = not missing and closed_dev <= 3e-5 and aim_dev <= 3e-5
    report(capsys, 10, ok, f"closed-form dev {closed_dev:.2e}, certified-root dev "
                   f"{aim_dev:.2e} (tol 3e-5)"
                   + (f"; missing n = {missing}" if missing else ""))
    assert not missing
    assert closed_dev <= 3e-5
    assert aim_dev <= 3e-5
