"""Golden cases of the CLI: stdout, stderr, exit code and figure files.

Every case runs `cli.main` in-process and must reproduce, byte for byte,
the files stored under tests/golden/.  Refactors that claim "same output"
are held to these captures.  Only the standard library is needed, so the
cases replay without pytest or site-packages:

    python -I -S tests/golden_cases.py

`tests/test_golden.py` runs each case as a test.  To capture them again
after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # a script run imports the package of this tree
    sys.path.insert(0, str(ROOT / "src"))

from aimosc import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
FIGURES = ("fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv")

# name -> argv; figure cases get "--out <dir>" appended
CASES = {
    "spectrum_table": ["spectrum", "--omega", "10", "--lambda", "1"],
    "spectrum_csv_folded": ["spectrum", "--lambda-tilde", "1/4", "--n-max", "6",
                            "--format", "csv"],
    "spectrum_json_marginal": ["spectrum", "--omega", "10", "--lambda", "5/2",
                               "--format", "json"],
    "spectrum_aim_tau0": ["spectrum", "--method", "aim", "--method", "closed",
                          "--lambda-tilde", "1/10", "--kmax", "8",
                          "--tau0", "1/2", "--format", "json"],
    "spectrum_aim_csv": ["spectrum", "--method", "aim", "--lambda-tilde", "2/7",
                         "--kmax", "8", "--format", "csv"],
    "spectrum_aim_large_denominator": ["spectrum", "--method", "aim",
                                       "--lambda-tilde", "12345/1000003",
                                       "--kmax", "12", "--n-max", "9",
                                       "--format", "json"],
    "spectrum_oracle": ["spectrum", "--method", "oracle", "--lambda-tilde",
                        "1/10", "--grid-N", "3000", "--format", "json"],
    "spectrum_oracle_n20": ["spectrum", "--method", "oracle", "--n-max", "20",
                            "--grid-N", "3000", "--format", "json"],
    "spectrum_oracle_csv": ["spectrum", "--method", "oracle", "--lambda-tilde",
                            "1/10", "--grid-N", "3000", "--format", "csv"],
    "verify_lt0": ["verify", "--grid-N", "4000"],
    "verify_lt1_10": ["verify", "--lambda-tilde", "1/10", "--grid-N", "4000"],
    "verify_lt1_3": ["verify", "--lambda-tilde", "1/3", "--grid-N", "4000"],
    "verify_lt1_7": ["verify", "--lambda-tilde", "1/7"],
    "verify_printed_signs": ["verify", "--lambda-tilde", "1/10",
                             "--printed-signs"],
    "wavefunction_lt0_n2": ["wavefunction", "--n", "2", "--points", "21"],
    "wavefunction_n0": ["wavefunction", "--lambda-tilde", "1/10", "--n", "0",
                        "--points", "21"],
    "wavefunction_n1": ["wavefunction", "--lambda-tilde", "1/10", "--n", "1",
                        "--points", "21"],
    "wavefunction_n2": ["wavefunction", "--lambda-tilde", "1/10", "--n", "2",
                        "--points", "21", "--tau-min", "-3", "--tau-max", "7"],
    "wavefunction_n3": ["wavefunction", "--lambda-tilde", "1/4", "--n", "3",
                        "--points", "21"],
    # 13-digit ties: .12g alone would print 5 of these 10 taus differently
    "wavefunction_ties": ["wavefunction", "--lambda-tilde", "1/10", "--n", "1",
                          "--tau-min", "1.000000000005",
                          "--tau-max", "1.000000000095", "--points", "10"],
    "figures_default": ["figures"],
    "figures_caption_omegas": ["figures", "--fig2-omegas", "10,20,30",
                               "--lam-points", "11", "--fig-lambda", "3/2"],
    "error_bad_rational": ["spectrum", "--omega", "abc"],
    "error_exclusive_lambda": ["spectrum", "--lambda", "1",
                               "--lambda-tilde", "1/10"],
    "error_nonpositive_omega": ["spectrum", "--omega", "-3"],
    "error_points": ["wavefunction", "--points", "1"],
    "error_verify_unit_ratio": ["verify", "--lambda-tilde", "1"],
    "error_lam_points": ["figures", "--lam-points", "1"],
    "error_not_normalizable": ["wavefunction", "--lambda-tilde", "1/4",
                               "--n", "4", "--points", "5"],
    "error_not_normalizable_half": ["wavefunction", "--lambda-tilde", "1/2",
                                    "--n", "2"],
    # an odd grid keeps the centre row
    "verify_odd_grid": ["verify", "--grid-N", "2001"],
    # the ground state falls off as t^(-1.2): its coarse-grid quotient spans
    # the whole block
    "verify_slow_tail": ["verify", "--lambda-tilde", "5/6", "--omega", "31"],
    # every strictly bound n <= 8 against its own error bar
    "verify_lt1_10_n9": ["verify", "--lambda-tilde", "1/10", "--n-max", "9"],
    # the default grid scales with omega^(-1/2)
    "spectrum_oracle_large_omega": ["spectrum", "--method", "oracle",
                                    "--omega", "1e4", "--grid-N", "3000",
                                    "--format", "json"],
    # the default 3999 rows: the middle grid of 1999 rows is odd, so its
    # points include the mirror of x = h left of the centre
    "spectrum_oracle_default": ["spectrum", "--method", "oracle",
                                "--lambda-tilde", "1/10", "--n-max", "5",
                                "--format", "json"],
    # f(tau) overflows a float from tau ~ 1e5 on: the outer samples take
    # the logarithm branch
    "wavefunction_overflow": ["wavefunction", "--lambda-tilde", "1/100",
                              "--n", "99", "--tau-min=-1e100",
                              "--tau-max", "1e100", "--points", "5"],
    "spectrum_aim_deep_large_denominator": [
        "spectrum", "--method", "aim", "--lambda-tilde", "12345/1000003",
        "--kmax", "16", "--n-max", "16", "--format", "json"],
    # a folded spectrum certified from a nonzero anchor
    "spectrum_aim_folded_tau0": ["spectrum", "--method", "aim",
                                 "--lambda-tilde", "3/5", "--tau0=-1/2",
                                 "--kmax", "16", "--n-max", "16",
                                 "--format", "json"],
    # an anchor far from the origin certifies the same levels
    "spectrum_aim_far_anchor": ["spectrum", "--method", "aim",
                                "--lambda-tilde", "2/7", "--tau0=-17/3",
                                "--kmax", "12", "--n-max", "12",
                                "--format", "json"],
    # u = 1 at lambda_tilde 0, so every product of the iteration but s0 L
    # has a one-term factor; route 2 runs past verify's k_max of 8
    "spectrum_aim_harmonic_deep": ["spectrum", "--method", "aim",
                                   "--lambda-tilde", "0", "--kmax", "20",
                                   "--n-max", "17", "--format", "json"],
    # figures takes the model flags and reads none of them
    "figures_model_flags": ["figures", "--lambda-tilde", "1/10"],
    # h^2 errors up to 1.6e-2 on a 7999-row grid once failed --tol here
    "verify_lt0_omega31": ["verify", "--lambda-tilde", "0", "--omega", "31",
                           "--n-max", "10"],
    # the wall at T sets the error of n = 0, which est_T carries
    "verify_slow_tail_11_12": ["verify", "--lambda-tilde", "11/12",
                               "--omega", "31"],
    # the deepest default-grid verify: 31 levels on each grid
    "verify_lt0_n30": ["verify", "--n-max", "30", "--kmax", "31"],
    # levels of order 1e-9: route 3 solves at omega = 1 and scales by omega
    "verify_small_omega": ["verify", "--omega", "1/1000000000"],
    # levels of order 1e9: --tol is in units of omega, so an absolute gate
    # of 1e-2 no longer fails all seven levels
    "verify_large_omega": ["verify", "--n-max", "6", "--omega", "1000000000"],
}


def run_case(argv: list[str], outdir: Path) -> tuple[int, str, str, dict]:
    if argv[0] == "figures":
        argv = argv + ["--out", str(outdir)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    files = {name: (outdir / name).read_bytes() for name in FIGURES
             if (outdir / name).exists()}
    return code, out.getvalue(), err.getvalue(), files


def mismatches(name: str, outdir: Path) -> list[str]:
    """What case `name`, run with its files in outdir, does not reproduce:
    the exit code, stdout, stderr, the set of figure files or one of them."""
    code, out, err, files = run_case(CASES[name], outdir)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    want = GOLDEN / name
    expected = sorted(p.name for p in want.iterdir()) if want.is_dir() else []
    bad = [what for what, ok in (
        ("exit code", code == codes[name]),
        ("stdout", out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()),
        ("stderr", err.encode() == (GOLDEN / f"{name}.stderr").read_bytes()),
        ("figure files", sorted(files) == expected)) if not ok]
    return bad + [fname for fname, data in sorted(files.items())
                  if fname in expected and data != (want / fname).read_bytes()]


def check() -> int:
    """Replay every case; print each that differs, and return their count."""
    failed = 0
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            bad = mismatches(name, Path(tmp))
        if bad:
            failed += 1
            print(f"{name}: differs in {', '.join(bad)}")
    print(f"{len(CASES) - failed} of {len(CASES)} golden cases reproduced")
    return failed


def capture() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err, files = run_case(argv, Path(tmp))
        codes[name] = code
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode())
        (GOLDEN / f"{name}.stderr").write_bytes(err.encode())
        for fname, data in files.items():
            (GOLDEN / name).mkdir(exist_ok=True)
            (GOLDEN / name / fname).write_bytes(data)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(1 if check() else 0)
