"""Kubo-Ando operator means of positive definite matrices.

A mean is identified with its representing function ``h`` on ``(0, inf)``
normalized so that ``h(1) = 1``; the matrix value is

    ``A sigma B = A^(1/2) h(A^(-1/2) B A^(-1/2)) A^(1/2)``

evaluated in the equal congruence form ``L h(L^-1 B L^-T) L^T`` with the
Cholesky factor ``A = L L^T`` by :mod:`opmeanlab.symmat`, which owns that
kernel and the positive definite floor on ``A`` and on ``C``.  The
geometric mean of ``2 x 2`` pairs needs no eigensolver:

    ``A # B = (beta A + alpha B) / sqrt(tr(adj(A) B) + 2 alpha beta)``

with ``alpha = sqrt(det A)`` and ``beta = sqrt(det B)``.  The catalog
covers the arithmetic, geometric and harmonic means together with their
weighted versions, plus validated custom representing functions.
Validation is deterministic: normalization and positivity on a fixed log
grid, and operator monotonicity through the Loewner-matrix test of
:mod:`opmeanlab.functions`.  The multi-matrix geometric mean is the
symmetrization fixed-point construction that replaces each matrix by the
mean of the remaining ones until the tuple stops moving.  It runs in one
of two regimes, both exact to the bit:

* stacked: the sub-tuples of a level are swept in lock-step as stacked
  arrays through the one binary-mean kernel, and each converges on its
  own; exact because every pair of a stack gets the bits it gets alone;
* floats: an ``n = 3`` level of a few ``2 x 2`` tuples, where numpy's
  per-call cost outweighs the arithmetic, iterates each tuple in Python
  floats with the closed form's IEEE operations in the stacked order;
  exact because each stopping norm it decides on clears its limit by more
  than the two summation orders can differ, and a closer norm, or any pair
  near a floor or an overflow, hands the level back to the stacked sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .functions import _loewner_margin, _passes_loewner
from .symmat import (
    DimensionMismatchError,
    SymMatrix,
    _at_floor,
    _check_floor,
    _congruence,
    _eigh,
    _moved,
    _stop_limit,
    _symmetrize,
    _values,
)

__all__ = [
    "RepresentingFunction",
    "MeanDescriptor",
    "RepresentingReport",
    "AlmConvergenceError",
    "ARITHMETIC",
    "GEOMETRIC",
    "HARMONIC",
    "weighted_arithmetic",
    "weighted_geometric",
    "weighted_harmonic",
    "custom_mean",
    "catalog_means",
    "representing_value",
    "mean",
    "validate_representing",
    "is_between_harmonic_arithmetic",
    "alm_mean",
]


class AlmConvergenceError(RuntimeError):
    """Multi-matrix geometric mean iteration did not reach tolerance.

    ``residual`` is the largest member delta of the failing level's last
    sweep, over the tuples of that level that had not converged.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class RepresentingFunction:
    """Representing function of a Kubo-Ando mean, normalized to ``h(1) = 1``.

    ``handle`` maps an array to an array of its shape; :func:`custom_mean`
    wraps a user handle so that a scalar result broadcasts.  ``kind`` and
    ``weight`` name the catalog family and its weight, for the closed form
    of the geometric mean and for oracles that rebuild ``h`` exactly.
    Evaluation ignores numpy's floating-point errors and leaves the values
    that are not finite to the caller.
    """

    kind: str
    handle: Callable
    weight: float | None = None

    def __call__(self, t):
        return _values(self.handle, np.asarray(t, dtype=float))


@dataclass(frozen=True)
class MeanDescriptor:
    """A named operator mean: identifier plus representing function."""

    name: str
    h: RepresentingFunction


@dataclass(frozen=True, eq=False)
class RepresentingReport:
    """Validation report for a representing function.

    ``h1_ok`` and ``positive_ok`` are exact requirements; the operator
    monotonicity test is advisory (it can refute but not certify).
    ``worst_margin`` is the smallest eigenvalue of the unit-diagonal Loewner
    matrix of ``h``: near zero or positive for an operator monotone ``h``,
    ``-inf`` where a slope is not positive or a value is not finite.
    """

    h1_ok: bool
    positive_ok: bool
    monotone_ok: bool
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.h1_ok and self.positive_ok


def _weight_in_unit(w: float) -> float:
    w = float(w)
    if not 0.0 < w < 1.0:
        raise ValueError(f"weight must lie strictly between 0 and 1, got {w!r}")
    return w


ARITHMETIC = MeanDescriptor("arithmetic", RepresentingFunction("arithmetic", lambda t: (1.0 + t) / 2.0))
GEOMETRIC = MeanDescriptor("geometric", RepresentingFunction("geometric", np.sqrt))
HARMONIC = MeanDescriptor("harmonic", RepresentingFunction("harmonic", lambda t: 2.0 * t / (1.0 + t)))


def weighted_arithmetic(w: float) -> MeanDescriptor:
    """Weighted arithmetic mean ``(1 - w) A + w B``."""
    w = _weight_in_unit(w)
    h = RepresentingFunction("weighted-arithmetic", lambda t: (1.0 - w) + w * t, w)
    return MeanDescriptor(f"arithmetic:{w:g}", h)


def weighted_geometric(eps: float) -> MeanDescriptor:
    """Weighted geometric mean with representing function ``t**eps``."""
    eps = _weight_in_unit(eps)
    h = RepresentingFunction("weighted-geometric", lambda t: t**eps, eps)
    return MeanDescriptor(f"geometric:{eps:g}", h)


def weighted_harmonic(w: float) -> MeanDescriptor:
    """Weighted harmonic mean ``((1 - w) A^-1 + w B^-1)^-1``."""
    w = _weight_in_unit(w)
    h = RepresentingFunction("weighted-harmonic", lambda t: t / ((1.0 - w) * t + w), w)
    return MeanDescriptor(f"harmonic:{w:g}", h)


def custom_mean(name: str, handle: Callable) -> MeanDescriptor:
    """Wrap a custom representing function after validation.

    The exact checks of :func:`validate_representing` (normalization and
    positivity) must pass; the monotonicity test is advisory and only
    reported, not enforced.
    """
    h = RepresentingFunction("custom", lambda t: np.broadcast_to(handle(t), t.shape))
    report = validate_representing(h)
    if not report.passed:
        checks = (("h(1) != 1", report.h1_ok), ("h is not positive on (0, inf)", report.positive_ok))
        problems = ", ".join(problem for problem, ok in checks if not ok)
        raise ValueError(f"invalid representing function {name!r}: {problems}")
    return MeanDescriptor(name, h)


def catalog_means() -> tuple:
    """Representative tuple of catalog means used by tests and demos."""
    return (
        ARITHMETIC,
        GEOMETRIC,
        HARMONIC,
        weighted_arithmetic(1.0 / 3.0),
        weighted_geometric(0.25),
        weighted_geometric(0.75),
        weighted_harmonic(2.0 / 3.0),
    )


def representing_value(sigma: MeanDescriptor, t: float) -> float:
    """Evaluate the representing function of ``sigma`` at a scalar ``t > 0``."""
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"representing functions are defined on (0, inf), got t={t!r}")
    return float(_values(sigma.h, t))


@np.errstate(over="ignore", invalid="ignore")
def _geometric_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """``A # B`` over stacks ``(..., 2, 2)`` with no eigensolver.

    With ``alpha = sqrt(det A)``, ``beta = sqrt(det B)`` and
    ``t = tr(adj(A) B)``, the closed form ``sqrt(alpha beta) S / sqrt(det S)``
    for ``S = A / alpha + B / beta`` (Bhatia, *Positive Definite Matrices*,
    Prop. 4.1.12) is ``(beta A + alpha B) / sqrt(t + 2 alpha beta)``.  The
    eigenvalues of ``C = A^(-1/2) B A^(-1/2)`` are the roots of
    ``det(B - lambda A) = det(A) lambda^2 - t lambda + det(B)``; the smaller
    one is computed only where ``det(B) / t``, which bounds it from below
    when ``t > 0``, reaches the floor.  Returns None where products of
    entries overflow (entries beyond about 1e154), for the Cholesky path;
    that overflow is expected, so it raises no floating-point warning.
    """
    a00, a01, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
    b00, b01, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 1]
    two_a01 = 2.0 * a01
    _check_floor((a00 + a11 - np.hypot(a00 - a11, two_a01)).min() / 2.0, "A")
    det_a, det_b = a00 * a11 - a01 * a01, b00 * b11 - b01 * b01
    t = a00 * b11 + a11 * b00 - two_a01 * b01
    if (_at_floor(det_b, t) | (t <= 0.0)).any():
        low = ((t - np.sqrt(np.maximum(t * t - 4.0 * det_a * det_b, 0.0))) / (2.0 * det_a)).min()
        _check_floor(low, "A^-1/2 B A^-1/2")
    alpha, beta = np.sqrt(det_a), np.sqrt(det_b)
    s = np.sqrt(t + 2.0 * alpha * beta)
    if not np.isfinite(s).all():
        return None
    return (beta / s)[..., None, None] * a + (alpha / s)[..., None, None] * b


def _binary_mean(h: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A sigma B`` over stacks ``(..., d, d)`` of symmetric matrices; each
    pair gets the bits it gets alone.

    This only chooses the evaluation: the closed form of
    :func:`_geometric_2x2` for the geometric mean of ``2 x 2`` pairs, and
    otherwise :func:`opmeanlab.symmat._congruence`, the Cholesky congruence
    ``L h(L^-1 B L^-T) L^T``, which also checks the floors on ``A`` and on
    ``C = A^(-1/2) B A^(-1/2)``.
    """
    geometric = h is np.sqrt or (isinstance(h, RepresentingFunction) and h.kind == "geometric")
    if geometric and a.shape[-1] == 2 and (out := _geometric_2x2(a, b)) is not None:
        return out
    return _congruence(a, b, h, "representing function undefined")


def mean(sigma: MeanDescriptor, a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Evaluate ``A sigma B`` through the Cholesky congruence form
    ``L h(L^-1 B L^-T) L^T`` with ``A = L L^T``, or, for the geometric mean
    of ``2 x 2`` matrices, through its closed form (see the module text)."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return SymMatrix(_binary_mean(sigma.h, a.data, b.data))


def validate_representing(h: RepresentingFunction) -> RepresentingReport:
    """Check a representing function: exact normalization, positivity on a
    log grid of ``[1e-6, 1e6]``, and the Loewner-matrix monotonicity test.

    ``h`` counts as monotone when it is positive and its margin (see
    :class:`RepresentingReport`) is at least ``-1e-6``.  The test is
    deterministic and can refute but not certify monotonicity.
    """
    h1_ok = bool(abs(float(_values(h, 1.0)) - 1.0) <= 1e-12)
    vals = _values(h, np.geomspace(1e-6, 1e6, 1201))
    positive_ok = bool(np.isfinite(vals).all() and (vals > 0.0).all())
    margin = _loewner_margin(h)
    return RepresentingReport(
        h1_ok=h1_ok,
        positive_ok=positive_ok,
        monotone_ok=positive_ok and _passes_loewner(margin),
        worst_margin=margin,
    )


#: Absolute slack of the harmonic/arithmetic comparisons.
_BETWEEN_TOL = 1e-12


def _harmonic_arithmetic(h: RepresentingFunction) -> tuple:
    """Whether ``h >= 2t/(1+t)`` and whether ``h <= (1+t)/2``, each up to an
    absolute slack of ``_BETWEEN_TOL`` on 1000 log-spaced points of
    ``[1e-4, 1e4]``; both False where ``h`` is not finite."""
    t = np.geomspace(1e-4, 1e4, 1000)
    vals = _values(h, t)
    if not np.isfinite(vals).all():
        return False, False
    return (
        bool((vals >= 2.0 * t / (1.0 + t) - _BETWEEN_TOL).all()),
        bool((vals <= (1.0 + t) / 2.0 + _BETWEEN_TOL).all()),
    )


def is_between_harmonic_arithmetic(h: RepresentingFunction) -> bool:
    """Whether ``2t/(1+t) <= h(t) <= (1+t)/2`` on a fixed log grid.

    The grid is 1000 points on ``[1e-4, 1e4]``; the comparison allows an
    absolute slack of ``1e-12``.  Weighted means with weight away from 1/2
    generally fail this: they dip below the symmetric harmonic curve on one
    side of ``t = 1``.
    """
    return all(_harmonic_arithmetic(h))


#: Default stopping rule of the multi-matrix geometric mean.
_ALM_TOL = 1e-12
_ALM_MAX_ITER = 1000

#: Largest ``n = 3`` level of ``2 x 2`` tuples that :func:`_alm` iterates in
#: Python floats.  One stacked sweep costs about as much as one float sweep
#: of this many tuples (measured on a 2-core 2.1 GHz Xeon, numpy 2.4).
_FLOAT_LEVEL_MAX = 12

#: Relative gap by which a float-side stopping norm must clear its limit for
#: the decision to stand.  The summation orders of ``np.vecdot`` and of
#: Python differ by a few ulps; a closer case goes back to the stacked sweep.
_CLEAR = 1e-12


def _geometric_floats(a: list, b: list) -> list | None:
    """One pair of :func:`_geometric_2x2` on ``[x00, x01, x10, x11]`` lists
    of Python floats, with the same IEEE operations in the same order.

    Returns None outside the regime where every decision of the stacked
    kernel is known: an ``A`` eigenvalue within ``1e-15 tr A`` (the ulp by
    which ``math.hypot`` and ``np.hypot`` may differ) of twice the floor, a
    failed bound on ``C``, a negative determinant or a non-finite ``s``.
    """
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    trace, two_a01 = a00 + a11, 2.0 * a01
    if _at_floor((trace - math.hypot(a00 - a11, two_a01)) / 2.0 - 1e-15 * trace, 2.0):
        return None
    det_a, det_b = a00 * a11 - a01 * a01, b00 * b11 - b01 * b01
    t = a00 * b11 + a11 * b00 - two_a01 * b01
    if _at_floor(det_b, t) or not (t > 0.0 and det_a >= 0.0):
        return None
    alpha, beta = math.sqrt(det_a), math.sqrt(det_b)
    s = math.sqrt(t + 2.0 * alpha * beta)
    if not s < math.inf:
        return None
    p, q = beta / s, alpha / s
    return [p * a00 + q * b00, p * a01 + q * b01, p * a10 + q * b10, p * a11 + q * b11]


def _alm3_floats(tuples: np.ndarray, tol: float, max_iter: int) -> np.ndarray | None:
    """The ``n = 3`` level of :func:`_alm` on ``(B, 3, 2, 2)`` tuples, one
    tuple at a time in Python floats; bitwise the stacked sweep, or None
    where the stacked sweep must run the level instead.

    Means and averages repeat the stacked kernel's operations.  A stopping
    decision stands only when every member's norm clears its limit by the
    relative gap ``_CLEAR``.  A closer norm, any pair outside the regime of
    :func:`_geometric_floats`, a norm that is not finite, or a tuple still
    moving after ``max_iter`` sweeps returns None, so that the stacked sweep
    decides, or raises its own error with its own residual.
    """
    out = []
    for cur in tuples.reshape(-1, 3, 4).tolist():
        for _ in range(max_iter):
            c0, c1, c2 = cur
            nxt = [_geometric_floats(c1, c2), _geometric_floats(c0, c2), _geometric_floats(c0, c1)]
            if None in nxt:
                return None
            moving = False
            for (n0, n1, n2, n3), (o0, o1, o2, o3) in zip(nxt, cur):
                d0, d1, d2, d3 = n0 - o0, n1 - o1, n2 - o2, n3 - o3
                delta = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3)
                size = math.sqrt(o0 * o0 + o1 * o1 + o2 * o2 + o3 * o3)
                if not delta + size < math.inf:
                    return None
                limit = _stop_limit(size, tol)
                if delta > limit * (1.0 + _CLEAR):
                    moving = True
                elif not delta < limit * (1.0 - _CLEAR):
                    return None
            cur = nxt
            if not moving:
                out.append([(0.0 + x + y + z) / 3 for x, y, z in zip(*cur)])
                break
        else:
            return None
    return np.array(out).reshape(-1, 2, 2)


@np.errstate(over="ignore", invalid="ignore")
def _alm(tuples: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """ALM mean of every tuple in a ``(B, n, d, d)`` stack, as ``(B, d, d)``.

    Each sweep stacks the leave-one-out sub-tuples of every tuple still
    iterating into one recursive call, which at ``n = 3`` is one call of
    the binary kernel.  A tuple stops at the sweep where no member moved
    by more than ``tol * (1 + ||old||_F)``, as it would alone.  Norms of
    entries past about 1e154 overflow, which would stop a tuple with an
    infinite or NaN limit; a tuple that stops with a norm that is not
    finite raises ``OverflowError`` instead, and the overflow is not
    warned about.  A norm that overflows in a tuple that keeps moving
    changes no decision: some other member moved by more than its limit.
    An ``n = 3`` level of at most ``_FLOAT_LEVEL_MAX`` tuples of ``2 x 2``
    matrices runs in Python floats instead (:func:`_alm3_floats`; both
    regimes are exact, see the module text).
    """
    count, n, d = tuples.shape[:3]
    if n == 1:
        _check_floor(_eigh(tuples, vectors=False)[..., 0].min(), "A")
    if n <= 2:
        return tuples[:, 0] if n == 1 else _binary_mean(np.sqrt, tuples[:, 0], tuples[:, 1])
    if (
        n == 3
        and d == 2
        and count <= _FLOAT_LEVEL_MAX
        and (means := _alm3_floats(tuples, tol, max_iter)) is not None
    ):
        return means
    others = np.array([j for i in range(n) for j in range(n) if j != i])  # leave-one-out, flat
    out = np.empty((count, d, d))
    active, cur = np.arange(count), tuples
    for _ in range(max_iter):
        nxt = _alm(np.take(cur, others, axis=1).reshape(-1, n - 1, d, d), tol, max_iter).reshape(-1, n, d, d)
        delta, size, moved = _moved((nxt - cur).reshape(len(cur), n, -1), cur.reshape(len(cur), n, -1), tol)
        moving = moved.any(axis=1)
        if moving.all():
            cur = nxt
            continue
        done = np.flatnonzero(~moving)
        if not math.isfinite(delta[done].max() + size[done].max()):
            raise OverflowError("multi-matrix geometric mean: a stopping norm is not finite")
        out[active[done]] = sum(nxt[done, i] for i in range(n)) / n
        if done.size == len(cur):
            return out
        active, cur = active[moving], nxt[moving]
    residual = float(delta[moving].max())
    raise AlmConvergenceError(
        f"multi-matrix geometric mean did not converge after {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual,
    )


def _geometric_means(x: np.ndarray) -> np.ndarray:
    """:func:`alm_mean` with its default stopping rule over a ``(..., n, d, d)`` stack."""
    tuples = x.reshape((-1,) + x.shape[-3:])
    return _symmetrize(_alm(tuples, _ALM_TOL, _ALM_MAX_ITER).reshape(x.shape[:-3] + x.shape[-2:]))


def _check_alm_limits(tol: float = _ALM_TOL, max_iter: int = _ALM_MAX_ITER):
    """Reject a stopping rule that :func:`alm_mean` cannot run."""
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be a nonnegative number, got {tol!r}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")


#: The most matrices :func:`alm_mean` takes; see its cost model.
_ALM_MAX_MATRICES = 6


def _check_alm_count(n: int):
    """Refuse more matrices than the multi-matrix mean takes."""
    if n > _ALM_MAX_MATRICES:
        raise ValueError(f"the multi-matrix mean takes at most {_ALM_MAX_MATRICES} matrices, got {n}")


def alm_mean(
    mats: Sequence[SymMatrix], tol: float = _ALM_TOL, max_iter: int = _ALM_MAX_ITER
) -> SymMatrix:
    """Symmetrized multi-matrix geometric mean.

    One matrix above the positive definite floor is its own mean, and two
    have the ordinary geometric mean.  For ``n >= 3`` each matrix is
    repeatedly replaced by the mean of the other ``n - 1`` until
    ``max_i ||A_i_new - A_i|| <= tol * (1 + ||A_i||)`` in Frobenius
    norm; the returned value is the average of the converged tuple.  The
    leave-one-out sub-tuples of a level are swept in lock-step as one stack,
    and each of them converges on its own, exactly as it would alone.

    Cost: one sweep at ``n`` matrices runs one mean of ``n - 1`` per member,
    so with ``k_n`` sweeps at level ``n`` the count of binary means is
    ``C(n) = n k_n C(n - 1)`` with ``C(2) = 1``, that is ``n!/2`` times the
    product of ``k_3 .. k_n``.  On draws in the band [1, 4] at the default
    tolerance, ``k_3`` is about 40 and ``k_4`` about 26: 120 binary means at
    ``n = 3`` and about 12,500 at ``n = 4``.  One seeded ``check`` of
    ``ragm`` at ``d = 3`` on that band took 0.2 s at ``n = 4``, 1.2 s at
    ``n = 5`` and 24-27 s at ``n = 6``; ``n = 7`` would take about 40 times
    that, so more than ``_ALM_MAX_MATRICES`` matrices are refused.
    """
    _check_alm_limits(tol, max_iter)
    mats = list(mats)
    _check_alm_count(len(mats))
    if not mats:
        raise ValueError("need at least one matrix")
    if len({m.dim for m in mats}) > 1:
        raise DimensionMismatchError("all matrices must share one dimension")
    return SymMatrix(_alm(np.stack([m.data for m in mats])[None], tol, max_iter)[0])
