"""The CLI exit-code contract over extreme inputs.

Every call either succeeds (0), reports a verdict against the expectation
(1) with nothing on stderr, or rejects its input (2) with exactly one
``error:`` line on stderr.  No exception and no numpy warning may escape,
so the calls run with ``RuntimeWarning`` raised as an error.
"""

import contextlib
import io
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from opmeanlab.cli import main
from opmeanlab.statements import statement_ids

ENDPOINTS = (1e-320, 1e-300, 1e-160, 1e-13, 0.4, 1, 2, 3, 1e7, 1e154, 1e160, 1e300, 1e308, 1.7e308)
FUNCTIONS = ("identity", "expm1", "power:0", "power:0.5", "power:2", "power:200", "power:1e300",
             "spower:2,300", "spower:1e300,1", "spower:1e-300,2")
MEANS = tuple(f"{kind}:{w:g}" for kind in ("arithmetic", "geometric", "harmonic")
              for w in (1e-300, 1e-16, 0.25, 0.999999))
MAPS = ("identity", "trace", "scale:2", "scale:1e308", "pinch:0|1")
EPS = (1e-300, 1e-16, 0.3, 0.5, 0.9999999999999999)


def _option(flag, values):
    """``[flag, value]`` for a drawn value, or nothing."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, str(v)]))


_BAND = st.lists(st.sampled_from(ENDPOINTS), min_size=2, max_size=2, unique=True).map(
    lambda ends: ["--band", "{:g}:{:g}".format(*sorted(ends))]
)
_CONSTANTS = st.tuples(
    st.just(["constants"]), _BAND, _option("--sigma", MEANS), _option("--f", FUNCTIONS),
    _option("--g", FUNCTIONS), _option("--eps", EPS), _option("--n-matrices", (2, 3, 4, 1000)),
)
_STATEMENT = st.tuples(
    st.sampled_from((["check"], ["trials", "--trials", "8"], ["falsify", "--budget", "8"])),
    st.sampled_from(statement_ids()).map(lambda sid: [sid]),
    _BAND, st.integers(0, 9).map(lambda seed: ["--seed", str(seed)]),
    _option("--dim", (1, 2, 3)), _option("--n-matrices", (2, 3, 4)),
    _option("--phi", MAPS), _option("--psi", MAPS), _option("--f", FUNCTIONS), _option("--g", FUNCTIONS),
    _option("--sigma", MEANS), _option("--tau", MEANS),
)
ARGV = st.one_of(_CONSTANTS, _STATEMENT).map(lambda parts: [word for part in parts for word in part])


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=700, deadline=None, derandomize=True)
@given(ARGV)
# weighted Kantorovich: the float formula cancels to 0 near eps = 0 and eps = 1
@example("constants --band 1e-13:10 --eps 1e-300".split())
@example("constants --band 2:3 --eps 0.9999999999999999".split())
# M/m is infinite
@example("check mond2 --band 1e-160:1e160 --seed 0".split())
# the probes' midpoints and steps overflow near the float maximum
@example("trials mp-gamma --band 1e160:1.7e308 --seed 1 --dim 2 --trials 8 --sigma harmonic:0.999999 --g power:0.5".split())
@example("falsify mp-gamma --band 3:1.7e308 --seed 4 --dim 1 --budget 8 --g expm1".split())
# g overflows at the top of the band
@example("constants --band 1e-300:1e7 --g power:200".split())
@example("constants --band 1:1e7 --g expm1".split())
@example("check mp-gamma --band 3:1e160 --g expm1 --seed 3".split())
def test_every_call_keeps_the_exit_code_contract(argv):
    code, out, err = _call(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error:"), err
    else:
        assert err == ""
