"""The CLI exit-code contract over extreme inputs.

Every call either succeeds (0), reports a verdict against the expectation
(1) with nothing on stderr, or rejects its input (2) with exactly one
``error:`` line on stderr.  No exception and no numpy warning may escape,
so the calls run with ``RuntimeWarning`` raised as an error.

``REJECTED`` lists commands that must exit 2.  The property test takes each
as an example, and each also runs as its own process under the default
warning filters.
"""

import contextlib
import io
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opmeanlab.cli import main
from opmeanlab.statements import statement_ids

#: Commands that must exit 2 with one ``error:`` line.  Each overflows or
#: meets the floor somewhere: in a scaled right side, in seeded draws near the
#: float maximum, in a constant past the float range, in a gap determinant, in
#: a mean whose A^-1/2 B A^-1/2 is at or below the floor, in a map image, a
#: unitality probe, a spectral calculus and a multi-matrix average, and in a
#: statement's constant f(M) g(1/m), its p-th power or a factor M^p; a
#: weighted Kantorovich constant that cancels, an infinite M/m, a chord of g
#: that is not finite, and the concavity and increase probes near the float
#: maximum.  The rest ask for a dimension below 1 or for more matrices than
#: the multi-matrix mean takes, also in runs of no trials.  The process
#: timeout fails an overflow that takes linear time.
REJECTED = (
    "check c27 --band 0.5:2 --p 1000 --q 1000 --seed 1 --phi trace --psi trace",
    "check ando --band 1e308:1.5e308 --seed 1",
    "constants --n-matrices 20000",
    "check ps-1.1 --band 1e200:1e201 --seed 1",
    "constants --band 1e-200:1e-199",
    "check aahh --band 1e160:1e161 --seed 1",
    "constants --n-matrices 1000000000000",
    "constants --band 1:1.0001 --n-matrices 1000000000000",
    "check ando --band 1:1e14 --seed 1",
    "check ando --phi scale:1e308 --seed 1",
    "check t22-a --phi scale:1e308 --seed 1",
    "check q2 --band 1:100 --p 154 --seed 1",
    "check ragm --band 5e307:5.5e307 --n-matrices 4 --seed 1",
    "check c23-b --band 1:2 --p 2000 --seed 1",
    "check c27 --band 1:2 --p 1100 --q 0 --seed 1",
    "check c-multi --f power:200 --band 1:40 --seed 1",
    "check t22-a --f power:300 --band 1:20 --seed 2",
    "check t22-a --band 1e-200:1e200 --seed 1",
    "constants --band 1e-13:10 --eps 1e-300",
    "constants --band 2:3 --eps 0.9999999999999999",
    "check mond2 --band 1e-160:1e160 --seed 0",
    "constants --band 1e-300:1e7 --g power:200",
    "constants --band 1:1e7 --g expm1",
    "check mp-gamma --band 3:1e160 --g expm1 --seed 3",
    "trials mp-gamma --band 1e160:1.7e308 --seed 1 --dim 2 --trials 8 --sigma harmonic:0.999999 --g power:0.5",
    "falsify mp-gamma --band 3:1.7e308 --seed 4 --dim 1 --budget 8 --g expm1",
    "trials ando --dim 0 --trials 0",
    "falsify ando --dim 0 --budget 0",
    "trials c-multi --dim 0 --trials 0",
    "check ragm --n-matrices 7 --seed 1",
    "falsify c-multi --n-matrices 7 --budget 0",
)

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


def _rejected_as_examples(test):
    for command in REJECTED:
        test = example(command.split())(test)
    return test


@settings(max_examples=700, deadline=None, derandomize=True)
@given(ARGV)
@_rejected_as_examples
def test_every_call_keeps_the_exit_code_contract(argv):
    code, out, err = _call(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error:"), err
    else:
        assert err == ""


@pytest.mark.parametrize("command", REJECTED)
def test_console_script_rejects_with_one_error_line(command):
    proc = subprocess.run(
        [sys.executable, "-m", "opmeanlab.cli", *command.split()],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:"), proc.stderr
