"""Derandomized fuzzing of the command line: every input ends in a documented exit code.

Exit codes are 0, 2 and 3 (see ``gfgm.cli``); an exception escaping ``main``
or a traceback on stderr fails the test.  Each test stays within a few
seconds: small dimensions and a few dozen examples.
"""

import contextlib
import copy
import functools
import io
import json
import math
from fractions import Fraction

import pytest
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


# ---------------------------------------------------------------- files and margins
#
# Margin, spec and portfolio files start from valid documents; each example replaces or
# deletes up to two subtrees with arbitrary JSON, or writes text that is not JSON at all.
# Numbers that reach a size (a margin's n, a dimension) are drawn small or absurdly large,
# never in between, so that no example allocates more than a few megabytes.

JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-3, max_value=40),
    st.sampled_from([10**30, -(2**63), 2**64]),
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 5e-324, 1e300]),
    st.text(max_size=6),
    st.sampled_from(["1/2", "1/3", "1/0", "-1/3", "3/2", "1e9", "1e999999999", "nan", "0.5",
                     "01", "x", "110", "10", ""]),
)
JSON = st.recursive(JSON_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=8)

POWER = {"type": "discrete", "power": {"a": 0.3, "c": 2.0, "n": 20}}
PMF = {"type": "discrete", "pmf": [0.5, 0.25, 0.25]}
MARGINS = [{"type": "exp", "rate": 0.5}, {"type": "uniform"}, PMF, POWER]
DENSE = {"type": "dense", "d": 3, "order": "revlex",
         "values": ["0/1", "0/1", "0/1", "1/3", "1/2", "1/6", "0/1", "0/1"]}
ATOMS = {"type": "atoms", "d": 3, "atoms": [{"x": "110", "w": "1/2"}, {"x": "001", "w": "1/2"}]}
EXCHANGEABLE = {"type": "exchangeable", "sum": {"d": 3, "values": ["0/1", "1/1", "0/1", "0/1"]}}
SPECS = [
    {"p": ["1/2", "1/3", "2/3"], "driver": DENSE, "margins": [PMF, POWER, PMF]},
    {"p": ["1/2", "1/2", "1/2"], "driver": ATOMS},
    {"p": ["1/3", "1/3", "1/3"], "driver": EXCHANGEABLE, "margins": [MARGINS[0]] * 3},
    {"p": ["1/3", "1/3", "1/3"], "driver": EXCHANGEABLE, "margins": [MARGINS[1]] * 3},
]
PORTFOLIOS = [
    {"margins": [PMF, POWER, PMF], "p": "1/3"},
    {"margins": [PMF, POWER, PMF], "driver": ATOMS},
    {"margins": [POWER] * 3, "driver": EXCHANGEABLE},
]


def _paths(doc, prefix=()):
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(
        doc, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated(draw, docs):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON)
            continue
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON)
    return json.dumps(doc)


def _file_text(docs):
    return st.one_of(_mutated(docs), _mutated(docs), _mutated(docs),
                     st.text(alphabet='{}[]":,0123456789.-+eEnulltrfaNIy ', max_size=20))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def _write(workdir, text) -> str:
    path = workdir / "input.json"
    path.write_text(text)
    return str(path)


@FUZZ
@given(_file_text(MARGINS), st.sampled_from(["1/2", "1/3,1/2,2/3"]))
def test_margin_files(workdir, text, p):
    call("bounds", "--margin", f"discrete:{_write(workdir, text)}", "--d", "3", "--p", p,
         "--measures", "std,es:0.9,entropic:0.05", "--n", "500")


@FUZZ
@given(_file_text(SPECS), st.sampled_from(["sample", "validate"]))
def test_spec_files(workdir, text, command):
    call(command, "--spec", _write(workdir, text), "--n", "5" if command == "sample" else "1000")


@FUZZ
@given(_file_text(PORTFOLIOS))
def test_portfolio_files(workdir, text):
    call("allocate", "--portfolio", _write(workdir, text), "--alpha", "0.9")


# Levels and seeds are passed as --alpha=X and --seed=X, so that "-inf" and "-1e-05" are
# values, not option names.
LEVEL = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 5e-324, 1 - 2**-53]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(allow_nan=False).filter(lambda x: not 0 < x < 1),
).map(repr)

SEED = st.one_of(
    st.sampled_from([0, 2**64 - 1, 2**64]),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(max_value=-1),
    st.integers(min_value=2**64),
).map(str)


@FUZZ
@given(LEVEL)
def test_allocate_levels(workdir, alpha):
    code = call("allocate", "--portfolio", _write(workdir, json.dumps(PORTFOLIOS[0])),
                f"--alpha={alpha}")
    assert code == (0 if 0 < float(alpha) < 1 else 3)


@FUZZ
@given(LEVEL)
def test_validate_levels(workdir, alpha):
    code = call("validate", "--spec", _write(workdir, json.dumps(SPECS[1])), "--n", "1000",
                f"--alpha={alpha}")
    if not 0 < float(alpha) < 1:
        assert code == 3


@FUZZ
@given(SEED, st.sampled_from(["sample", "validate", "bounds"]))
def test_seeds(workdir, seed, command):
    if command == "bounds":  # continuous margins at a vector p: Monte Carlo
        argv = ["bounds", "--margin", "exp:1", "--p", "1/2,1/3", "--n", "500", "--measures", "std"]
    else:
        argv = [command, "--spec", _write(workdir, json.dumps(SPECS[1])), "--n", "1000"]
    code = call(*argv, f"--seed={seed}")
    if not 0 <= int(seed) < 2**64:
        assert code == 3
    elif command != "validate":
        assert code == 0


@FUZZ
@given(st.integers(min_value=-1, max_value=4), st.sampled_from(["1/2", "1/3", "1/2,1/3"]),
       st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                 st.floats(min_value=1e-3, max_value=2.0)).map(repr),
       st.integers(min_value=-2, max_value=300))
def test_uniform_margins(d, p, grid, n):
    call("bounds", "--margin", "uniform", "--d", str(d), "--p", p, "--grid", grid, "--n", str(n),
         "--measures", "std,var:0.9,es:0.9,entropic:0.5")
    # the default grid, d / 2^15, is exercised by test_cli and the acceptance tests


@FUZZ
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.one_of(st.sampled_from([1e-300, 0.5, 0.9, 0.99, 0.999999, 1.0, 1.000001, 2.0]),
                 st.floats(min_value=0.0, max_value=3.0)),
       st.sampled_from([["--d", "3", "--p", "1/2"], ["--d", "3", "--p", "1/3", "--fast"],
                        ["--p", "1/2,1/3,2/3", "--n", "500"]]))
def test_exponential_entropic_around_the_rate(rate, ratio, shape):
    gamma = rate * ratio
    code = call("bounds", "--margin", f"exp:{rate!r}", *shape, "--measures", f"std,entropic:{gamma!r}")
    assert code == (0 if 0 < gamma < rate else 3)


@pytest.mark.parametrize("argv", [
    "--margin exp:1 --d 3 --p 1/2 --measures entropic:1.5",
    "--margin exp:1 --p 1/2,1/3,2/3 --n 20000 --measures entropic:1.5",
    "--margin exp:0.0078125 --d 3 --p 999/1000 --measures std,es:0.9,entropic:0.01,var:0.9",
    "--margin exp:1 --d 3 --p 1/2 --measures entropic:2.9e-215",
])
def test_exponential_entropic_defects(argv):
    assert call("bounds", *argv.split()) in (0, 3)
