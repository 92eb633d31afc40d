"""Scalar function catalog used on the two sides of inequality statements.

The catalog covers the identity, powers ``t**p``, scaled powers
``c * t**p``, ``exp(t) - 1``, and user-supplied callables.  Alongside the
catalog live the numeric hypothesis probes, all deterministic grid checks
that can refute but not prove: operator monotonicity (the Loewner matrix
of divided differences on fixed nodes must be positive semidefinite, which
tests every matrix order up to the node count at once), midpoint concavity
and monotone increase on an interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .symmat import _eigh, _values

__all__ = [
    "ScalarFunction",
    "IDENTITY",
    "EXP_MINUS_ONE",
    "power_function",
    "scaled_power_function",
    "custom_scalar",
    "is_operator_monotone",
    "midpoint_concave",
    "increasing_on",
]


@dataclass(frozen=True)
class ScalarFunction:
    """A nonnegative scalar function on ``[0, inf)``, vectorized over arrays.

    ``operator_monotone`` is the exact monotonicity class of a catalog
    function, or None for a custom handle, which
    :func:`is_operator_monotone` then puts to the Loewner-matrix test.
    Evaluation ignores numpy's floating-point errors and leaves the values
    that are not finite to the caller.
    """

    name: str
    handle: Callable
    operator_monotone: bool | None = None

    def __call__(self, t):
        return _values(self.handle, np.asarray(t, dtype=float))


IDENTITY = ScalarFunction("identity", lambda t: t, True)
EXP_MINUS_ONE = ScalarFunction("expm1", np.expm1, False)


def power_function(p: float) -> ScalarFunction:
    """The power ``t -> t**p`` for real ``p >= 0``."""
    p = float(p)
    if not 0.0 <= p < np.inf:
        raise ValueError(f"power must be nonnegative and finite, got {p!r}")
    return ScalarFunction(f"power:{p:g}", lambda t: t**p, p <= 1.0)


def scaled_power_function(c: float, p: float) -> ScalarFunction:
    """The scaled power ``t -> c * t**p`` with ``c > 0`` and ``p >= 0``."""
    c, p = float(c), float(p)
    if not 0.0 < c < np.inf:
        raise ValueError(f"coefficient must be positive and finite, got {c!r}")
    if not 0.0 <= p < np.inf:
        raise ValueError(f"power must be nonnegative and finite, got {p!r}")
    return ScalarFunction(f"spower:{c:g},{p:g}", lambda t: c * t**p, p <= 1.0)


#: Relative slack of the increase, custom-handle and concavity checks, and
#: the point count of :func:`increasing_on`.
_PROBE_TOL = 1e-10
_INCREASING_SAMPLES = 1000


def _nondecreasing(vals: np.ndarray) -> bool:
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN step fails the comparison
        return bool((np.diff(vals) >= -_PROBE_TOL * (1.0 + np.abs(vals[:-1]))).all())


def custom_scalar(name: str, handle: Callable) -> ScalarFunction:
    """Wrap a user callable after a grid sanity check.

    The handle must be nonnegative and monotone nondecreasing on
    ``[1e-6, 1e3]``; a violation on a 257-point log grid raises
    ``ValueError``.
    """
    grid = np.geomspace(1e-6, 1e3, 257)
    vals = _values(handle, grid)
    if vals.shape != grid.shape:
        raise ValueError("custom scalar function must be vectorized elementwise")
    if not np.isfinite(vals).all():
        raise ValueError("custom scalar function produced non-finite values on the sample grid")
    if (vals < -1e-12).any():
        raise ValueError("custom scalar function must be nonnegative on [0, inf)")
    if not _nondecreasing(vals):
        raise ValueError("custom scalar function must be monotone nondecreasing")
    return ScalarFunction(name or "custom", handle)


#: Node count of the Loewner-matrix monotonicity test (log-spaced on
#: ``[1e-3, 1e3]``), the relative step of the central differences on its
#: diagonal, and the margin below which the test refutes.
_LOEWNER_NODES = 32
_SLOPE_STEP = 1e-4
_LOEWNER_TOL = 1e-6


def _loewner_margin(fn: Callable) -> float:
    """Smallest eigenvalue of the Loewner matrix of ``fn``, scaled to a unit diagonal.

    The matrix holds the divided differences ``(fn(s) - fn(t)) / (s - t)``
    on the nodes, with central-difference slopes on its diagonal.  It is
    positive semidefinite when ``fn`` is matrix monotone of order up to the
    node count (Loewner, 1934), so an operator monotone ``fn`` has a margin
    near zero or positive, and a clearly negative one refutes monotonicity
    at some order.  A constant has margin 0; a non-finite entry or any other
    slope ``<= 0`` gives ``-inf``.
    """
    s = np.geomspace(1e-3, 1e3, _LOEWNER_NODES)
    step = _SLOPE_STEP * s
    vals, lo, hi = _values(fn, s), _values(fn, s - step), _values(fn, s + step)
    span = s[:, None] - s
    np.fill_diagonal(span, 1.0)
    with np.errstate(all="ignore"):  # non-finite or huge values give non-finite entries
        slope = (hi - lo) / (2.0 * step)
        loewner = (vals[:, None] - vals) / span
    np.fill_diagonal(loewner, slope)
    if not np.isfinite(loewner).all():
        return -np.inf
    if not loewner.any():
        return 0.0
    if (slope <= 0.0).any():
        return -np.inf
    r = 1.0 / np.sqrt(slope)
    return float(_eigh(loewner * r[:, None] * r, vectors=False)[0])


def _passes_loewner(margin: float) -> bool:
    """The one verdict on a :func:`_loewner_margin`: only a margin below ``-_LOEWNER_TOL`` refutes."""
    return margin >= -_LOEWNER_TOL


def is_operator_monotone(fn: ScalarFunction) -> bool:
    """Whether ``fn`` preserves the Loewner order.

    Catalog kinds are classified exactly (powers are operator monotone iff
    ``0 <= p <= 1``).  Custom handles must pass the Loewner-matrix test on
    32 nodes of ``[1e-3, 1e3]``; it can only refute, so a True answer for a
    custom handle is numeric evidence rather than a proof.
    """
    if fn.operator_monotone is not None:
        return fn.operator_monotone
    return _passes_loewner(_loewner_margin(fn))


def midpoint_concave(fn: Callable, a: float, b: float) -> bool:
    """Midpoint concavity of ``fn`` on ``[a, b]``, checked on a grid.

    Checks ``fn((x + y) / 2) >= (fn(x) + fn(y)) / 2 - 1e-10`` (relative to
    the values) for every pair of 48 evenly spaced points.  Numeric and
    refutation-only, like the other probes.
    """
    grid = np.linspace(a, b, 48)
    vals = _values(fn, grid)
    mid = _values(lambda t: fn(np.add.outer(t, t).ravel() / 2.0), grid)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN gap fails the comparison
        avg = np.add.outer(vals, vals).ravel() / 2.0
        scale = 1.0 + np.maximum(np.abs(mid), np.abs(avg))
        return bool((mid >= avg - _PROBE_TOL * scale).all())


def increasing_on(fn: Callable, a: float, b: float) -> bool:
    """Monotone increase of ``fn`` on ``[a, b]`` (nondecreasing), checked on
    1000 evenly spaced points up to a relative slack of ``1e-10``."""
    return _nondecreasing(_values(fn, np.linspace(a, b, _INCREASING_SAMPLES)))
