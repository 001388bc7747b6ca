"""Property test of the CLI error contract on generated invocations.

Every argv is built inside the documented ranges and the size budget:
levels 0-3, lengths and radii in [1e-6, 1e6], rhombus m up to
geometry.MAX_RHOMBUS_M, exponents up to special.Q_MAX,
sturm with at most 1024 cells and gamma >= 1.25. Whatever the numerics make
of it, an invocation must end in exit 0, 1 or 2; exit 0 leaves the error
stream empty, raises no warning and prints no NaN or infinity; any other
exit reports exactly one line and prints no table.
"""

import io
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_bounds import cli, geometry, special

FUZZ = settings(derandomize=True, database=None, deadline=None)
NON_FINITE = re.compile(r"(?<![\w.])(NaN|Infinity|nan|inf)(?!\w)")


def _num(x: float) -> str:
    return repr(float(x))


# log-uniform draws, with the ends of the range as draws of their own: the
# numerics are stressed most where a tiny domain meets a large exponent
LENGTH = st.one_of(
    st.just(geometry.MIN_LENGTH),
    st.just(geometry.MAX_LENGTH),
    st.floats(min_value=-6.0, max_value=6.0).map(
        lambda e: min(geometry.MAX_LENGTH,
                      max(geometry.MIN_LENGTH, 10.0 ** e)))).map(_num)
LEVEL = st.integers(0, 3).map(lambda lv: ["--level", str(lv)])
FORMAT = st.sampled_from(["json", "csv"]).map(lambda f: ["--format", f])
P = st.floats(min_value=2.0, max_value=special.P_MAX)
Q = st.one_of(
    st.just(special.Q_MAX),
    st.floats(min_value=-3.0, max_value=math.log10(special.Q_MAX)).map(
        lambda e: min(special.Q_MAX, 10.0 ** e)))
FRACTION = st.floats(min_value=0.01, max_value=0.99)
RHOMBUS_M = st.one_of(st.just(geometry.MAX_RHOMBUS_M),
                      st.integers(5, geometry.MAX_RHOMBUS_M))

DOMAIN = st.one_of(
    st.just(["--domain", "square"]),
    st.lists(LENGTH, min_size=2, max_size=2).map(
        lambda ab: ["--domain", "rectangle", "--a", max(ab, key=float),
                    "--b", min(ab, key=float)]),
    RHOMBUS_M.map(lambda m: ["--domain", "rhombus", "--m", str(m)]),
    st.tuples(st.integers(3, 64), LENGTH).map(
        lambda kr: ["--domain", "polygon", "--k", str(kr[0]),
                    "--radius", kr[1]]),
)


def _joined(values, fmt):
    return ",".join(fmt(v) for v in values)


def _holder(q, fraction):
    return ["--q", _num(q), "--r", _num(q * fraction)]


def _sturm(gamma, fraction, length, cells):
    return ["sturm", "--gamma", _num(gamma), "--beta", _num(gamma * fraction),
            "--A", length, "--N", str(cells)]


COMMAND = st.one_of(
    st.tuples(st.lists(P, min_size=1, max_size=3),
              st.lists(st.integers(2, special.N_MAX), min_size=1,
                       max_size=3)).map(
        lambda pn: ["psi", "--p", _joined(pn[0], _num),
                    "--n", _joined(pn[1], str)]),
    st.tuples(DOMAIN, P).map(lambda dp: ["bound", *dp[0], "--p", _num(dp[1])]),
    st.tuples(DOMAIN, st.one_of(st.just(2.0), P), LEVEL).map(
        lambda d: ["compare-bounds", *d[0], "--p", _num(d[1]), *d[2]]),
    st.tuples(st.lists(RHOMBUS_M, min_size=1, max_size=2), LEVEL).map(
        lambda d: ["verify-rhombus", "--m", _joined(d[0], str), *d[1]]),
    st.tuples(DOMAIN, Q, LEVEL).map(
        lambda d: ["chiti", *d[0], "--q", _num(d[1]), *d[2]]),
    st.tuples(DOMAIN, Q, FRACTION, LEVEL).map(
        lambda d: ["rholder", *d[0], *_holder(d[1], d[2]), *d[3]]),
    st.tuples(st.floats(min_value=1.25, max_value=10.0), FRACTION, LENGTH,
              st.integers(4, 1024)).map(lambda d: _sturm(*d)),
)
ARGV = st.tuples(COMMAND, FORMAT).map(lambda c: c[0] + c[1])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.dispatch(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue(), caught


@settings(FUZZ, max_examples=300)
@given(ARGV)
def test_dispatch_error_contract(argv):
    code, out, err, caught = _run(argv)
    assert code in (0, 1, 2)
    assert not [str(w.message) for w in caught]
    assert "Traceback" not in out + err
    if code == 0:
        assert err == ""
        assert NON_FINITE.search(out) is None, out
    else:
        assert out == ""
        assert len(err.splitlines()) == 1, err


@settings(FUZZ, max_examples=40)
@given(st.lists(st.one_of(ARGV, ARGV.map(lambda argv: [*argv, "'"])),
                min_size=1, max_size=3))
def test_suite_error_contract(lines):
    """A suite reports each line's failure in its status comment only; a
    line with an unclosed quote, which shlex cannot split, is one more
    failed line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "suite.txt"
        path.write_text("".join(" ".join(argv) + "\n" for argv in lines),
                        encoding="utf-8")
        code, out, err, caught = _run(["suite", str(path)])
    assert code in (0, 1)
    assert (err, [str(w.message) for w in caught]) == ("", [])
    assert "Traceback" not in out
    status = [line for line in out.splitlines() if line.startswith("# line")]
    assert len(status) == len(lines)
    assert (code == 1) == any(" fail(" in line for line in status)
    tables = "\n".join(line for line in out.splitlines()
                       if not line.startswith("#"))
    assert NON_FINITE.search(tables) is None, out
