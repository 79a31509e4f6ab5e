"""Derandomized fuzzing of the command line: every input ends in a documented exit code.

Exit codes are 0, 2 and 3 (see ``gfgm.cli``); an exception escaping ``main``
or a traceback on stderr fails the test.  Each test stays within a few
seconds: small dimensions and a few dozen examples.
"""

import contextlib
import io
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gfgm.cli import main

FUZZ = settings(derandomize=True, max_examples=100, deadline=None)

_DIGITS = st.integers(min_value=0, max_value=10**40).map(str)
_VALID_P = st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12),
                        max_denominator=12).map(str)
P_ENTRY = st.one_of(
    _VALID_P,
    _VALID_P,
    st.just(""),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "1/0", "0", "1", "0.5", "1e5", "1e999999999",
                     "1//2", "/", "x"]),
    st.tuples(st.sampled_from(["", "-", "+", " "]), _DIGITS, _DIGITS).map(
        lambda t: f"{t[0]}{t[1]}/{t[2]}"),
    st.integers(min_value=1, max_value=10**30).map(lambda n: f"{n}/{n + 1}"),  # huge, in (0, 1)
    st.fractions(min_value=0, max_value=1, max_denominator=12).map(str),
)
P_TEXT = st.lists(P_ENTRY, min_size=1, max_size=4).map(",".join)

RATE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0.0, max_value=1e-300, allow_subnormal=True),
    st.floats(min_value=1e-3, max_value=1e3),
).map(repr)

MEASURE = st.one_of(
    st.tuples(st.sampled_from(["var", "es", "entropic"]), st.floats(0.001, 0.999)).map(
        lambda t: f"{t[0]}:{t[1]!r}"),
    st.just("std"),
    st.tuples(st.sampled_from(["var", "es", "entropic", "std", "VaR", "cte", ""]),
              st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True).map(repr),
                        st.sampled_from(["", "x", "1:2", "0.9"]))).map(
        lambda t: t[0] if t[1] is None else f"{t[0]}:{t[1]}"),
    st.text(alphabet="varesntopicd:0123456789.,-+e", max_size=12),
)


def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    err = err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 3 and err.startswith("gfgm: error:"):
        assert len(err.strip().splitlines()) == 1
    return code


@FUZZ
@given(P_TEXT)
def test_vertices_p_strings(text):
    code = call("vertices", "--p", text)
    if "" in [s.strip() for s in text.split(",")]:
        assert code == 3


@FUZZ
@given(P_TEXT)
def test_bounds_p_strings(text):
    call("bounds", "--margin", "bernoulli", "--d", "3", "--p", text, "--measures", "es:0.9",
         "--n", "2000")


@FUZZ
@given(RATE)
def test_exponential_rates(rate):
    code = call("bounds", "--margin", f"exp:{rate}", "--d", "3", "--p", "1/2",
                "--measures", "std,es:0.9,var:0.9")
    value = float(rate)
    if not 0 < value < math.inf or value * value == 0:
        assert code == 3


@FUZZ
@given(st.lists(MEASURE, min_size=1, max_size=3).map(",".join))
def test_measure_strings(text):
    call("bounds", "--margin", "exp:1", "--d", "3", "--p", "1/2", "--measures", text)
