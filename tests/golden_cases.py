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
