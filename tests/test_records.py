"""Record contracts: constructor checks, read-only fields, cached values,
and the modules a command imports before it reads its arguments."""
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from aimosc import aim_core, fh_oscillator, sl_oracle
from aimosc.exactalg import RootInterval
from aimosc.fh_oscillator import (
    EigenFunction,
    ModelParams,
    SpectrumEntry,
    eigen_polynomial,
)
from aimosc.sl_oracle import Grid, TridiagOp, UnresolvedLevels

ROOT = Path(__file__).resolve().parents[1]


def _raises(exc, message):
    return pytest.raises(exc, match=re.escape(message))


class TestConstructorChecks:
    def test_root_interval(self):
        with _raises(ValueError, "exact root must collapse the interval"):
            RootInterval(low=F(0), high=F(1), exact=F(1))
        with _raises(ValueError, "empty interval"):
            RootInterval(low=F(1), high=F(1))

    def test_model_params(self):
        with _raises(ValueError, "omega = -1/2"):
            ModelParams(omega=F(-1, 2), lam=0)
        with _raises(ValueError, "lam must be nonnegative, got -3/4"):
            ModelParams(omega=1, lam=-0.75)

    def test_model_params_coerce_to_fraction(self):
        p = ModelParams(omega=2, lam=0.25)
        assert type(p.omega) is F and type(p.lam) is F
        assert (p.omega, p.lam) == (2, F(1, 4))
        assert ModelParams("3/2", "1/3") == ModelParams(F(3, 2), F(1, 3))
        made = ModelParams._make(("3/2", "1/3"))
        assert made == (F(3, 2), F(1, 3)) and type(made.omega) is F
        assert type(made) is ModelParams

    def test_spectrum_entry(self):
        with _raises(ValueError, "unknown source 'guess'"):
            SpectrumEntry(n=0, e_tilde=F(1), e_phys=F(1, 2), bound=True,
                          source="guess")
        with _raises(ValueError, "n must be nonnegative"):
            SpectrumEntry(n=-1, e_tilde=F(1), e_phys=F(1, 2), bound=True,
                          source="aim")

    @pytest.mark.parametrize("e_tilde, coeffs, message", [
        (None, (F(1), F(0)), "coeffs must run c_0 .. c_n"),
        (None, (F(1), F(1), F(-17, 10)), "parity violation at c_1"),
        (None, (F(1), F(0), F(0)), "degree must be exactly n"),
        (None, (F(1), F(0), F(-1, 2)), "series recursion broken at c_2"),
        (F(14, 5), (F(1), F(0), F(-9, 10)),
         "series does not terminate at degree n"),
    ])
    def test_eigenfunction(self, e_tilde, coeffs, message):
        good = eigen_polynomial(2, F(1, 10))
        with _raises(ValueError, message):
            EigenFunction(n=2, lam_tilde=good.lam_tilde,
                          e_tilde=good.e_tilde if e_tilde is None else e_tilde,
                          coeffs=coeffs, envelope_exponent=-5)

    def test_grid(self):
        with _raises(ValueError, "T must be positive and finite, got inf"):
            Grid(T=float("inf"), N=10)
        with _raises(ValueError, "N must be at least 3"):
            Grid(T=1.0, N=2)

    def test_tridiag_op(self):
        with _raises(ValueError, "offdiag must be nonempty and as long as "
                                 "diag or one shorter"):
            TridiagOp(diag=[1.0, 2.0, 3.0], offdiag=[0.5])

    def test_oracle_result(self, monkeypatch):
        # lowest_eigenvalues refuses levels that do not strictly increase
        op = sl_oracle.discretize(ModelParams(1, 0), Grid(T=2.0, N=10))
        monkeypatch.setattr(sl_oracle, "_level_brackets", lambda *a: [
            (v, v) for v in (1.0, 2.0, 2.0, 3.0)])
        with _raises(UnresolvedLevels, "eigenvalues 1 and 2 are not resolved "
                                       "by the bisection") as info:
            sl_oracle.lowest_eigenvalues(op, 4, 1e-9)
        assert info.value.index == 1


# A record, a field change that its constructor refuses, and the message:
# _replace and _make build through the constructor, so they refuse it too.
_BAD_REPLACEMENTS = [
    ("RootInterval", lambda: RootInterval(F(0), F(1)), {"low": F(2)},
     "empty interval"),
    ("RootInterval", lambda: RootInterval(F(1), F(1), F(1)), {"high": F(2)},
     "exact root must collapse the interval"),
    ("ModelParams", lambda: ModelParams(1, 0), {"omega": F(-1, 2)},
     "omega = -1/2"),
    ("ModelParams", lambda: ModelParams(1, 0), {"lam": -1},
     "lam must be nonnegative, got -1"),
    ("SpectrumEntry", lambda: SpectrumEntry(0, F(1), F(1, 2), True, "aim"),
     {"source": "guess"}, "unknown source 'guess'"),
    ("SpectrumEntry", lambda: SpectrumEntry(0, F(1), F(1, 2), True, "aim"),
     {"n": -1}, "n must be nonnegative"),
    ("EigenFunction", lambda: eigen_polynomial(2, F(1, 10)),
     {"coeffs": (F(1), F(0), F(0))}, "degree must be exactly n"),
    ("EigenFunction", lambda: eigen_polynomial(2, F(1, 10)),
     {"e_tilde": F(3)}, "series recursion broken at c_2"),
    ("Grid", lambda: Grid(1.0, 3), {"N": 1}, "N must be at least 3"),
    ("Grid", lambda: Grid(1.0, 3), {"T": float("nan")},
     "T must be positive and finite, got nan"),
]


@pytest.mark.parametrize("make, change, message", [
    pytest.param(make, change, message, id=f"{name}-{next(iter(change))}")
    for name, make, change, message in _BAD_REPLACEMENTS])
def test_replace_and_make_run_the_checks(make, change, message):
    record = make()
    with _raises(ValueError, message):
        record._replace(**change)
    fields = [change.get(name, value)
              for name, value in zip(record._fields, record)]
    with _raises(ValueError, message):
        type(record)._make(fields)
    # with no change, _replace gives an equal record of the same type
    same = record._replace()
    assert type(same) is type(record) and same == record


def _records():
    """One instance of every read-only record, and a field of it."""
    seed = aim_core.aim_seed(*fh_oscillator.aim_inputs(F(1, 10)))
    state = aim_core.aim_iterate(seed)
    ef = eigen_polynomial(2, F(1, 10))
    op = sl_oracle.discretize(ModelParams(1, F(1, 10)), Grid(T=10.0, N=9))
    return [
        (seed, "k"),
        (aim_core.quantization_delta(state, seed, 0), "poly"),
        (aim_core.aim_eigenvalues(seed, k_max=2), "accepted"),
        (RootInterval(F(0), F(1)), "low"),
        (ModelParams(1, 0), "omega"),
        (SpectrumEntry(0, F(1), F(1, 2), True, "closed_form"), "source"),
        (fh_oscillator.bound_state_info(F(1, 10)), "threshold"),
        (ef, "envelope_exponent"),
        (fh_oscillator.residual_check(ef), "ode_samples"),
        (Grid(T=1.0, N=3), "N"),
        (op.parity_blocks[0], "pivmin"),
    ]


@pytest.mark.parametrize("record, name", _records(),
                         ids=lambda v: type(v).__name__ if
                         not isinstance(v, str) else v)
def test_fields_are_read_only(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert getattr(record, name) is before


def test_cached_values_are_computed_once():
    ef = eigen_polynomial(3, F(1, 7))
    assert ef.envelope_floats is ef.envelope_floats
    assert ef.integer_coeffs is ef.integer_coeffs
    op = sl_oracle.discretize(ModelParams(1, F(1, 7)), Grid(T=10.0, N=11))
    assert op.parity_blocks is op.parity_blocks


def test_start_up_does_not_import_dataclasses():
    # what every command imports before it reads its arguments; dataclasses
    # alone costs about a sixth of that start-up, with what it imports
    code = ("import sys; sys.path.insert(0, 'src'); import aimosc.cli as c; "
            "c.build_parser(); print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
