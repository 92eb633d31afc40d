"""Kubo-Ando operator means of positive definite matrices.

A mean is identified with its representing function ``h`` on ``(0, inf)``
normalized so that ``h(1) = 1``; the matrix value is

    ``A sigma B = A^(1/2) h(A^(-1/2) B A^(-1/2)) A^(1/2)``

evaluated in the equal congruence form ``L h(L^-1 B L^-T) L^T`` with the
Cholesky factor ``A = L L^T``: one factorization and one symmetric
eigensolve per pair.  The geometric mean of ``2 x 2`` pairs needs no
eigensolver:

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
  exact because close stopping decisions are settled by the same
  ``np.vecdot`` as the stacked sweep, and any pair near a floor or an
  overflow hands the whole level back to the stacked sweep.

Invariant tolerances (the test suite verifies these on random instances):

* idempotence: ``A sigma A`` matches ``A`` entrywise within
  ``1e-10 * (1 + ||A||_F)``;
* band closure: ``m I <= A sigma B <= M I`` in the Loewner order at the
  default order tolerance when both inputs have spectrum in ``[m, M]``;
* joint monotonicity: ``A1 <= A2`` and ``B1 <= B2`` imply
  ``A1 sigma B1 <= A2 sigma B2`` at the default order tolerance;
* congruence invariance of the geometric mean:
  ``T' (A # B) T`` matches ``(T' A T) # (T' B T)`` within ``1e-9``
  relative to its operator norm;
* multi-matrix mean: commuting diagonal families reproduce the
  entrywise geometric mean within ``1e-10`` and the result is invariant
  under input permutation within ``1e-9``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .functions import _LOEWNER_TOL, _loewner_margin
from .symmat import (
    PD_FLOOR,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    SpectrumDomainError,
    SymMatrix,
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
    """Representing function of a Kubo-Ando mean, normalized to ``h(1) = 1``."""

    kind: str
    weight: float | None = None
    handle: Callable | None = None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "arithmetic":
            return (1.0 + t) / 2.0
        if self.kind == "weighted-arithmetic":
            return (1.0 - self.weight) + self.weight * t
        if self.kind == "geometric":
            return np.sqrt(t)
        if self.kind == "weighted-geometric":
            return t**self.weight
        if self.kind == "harmonic":
            return 2.0 * t / (1.0 + t)
        if self.kind == "weighted-harmonic":
            return t / ((1.0 - self.weight) * t + self.weight)
        return np.broadcast_to(np.asarray(self.handle(t), dtype=float), t.shape)


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


ARITHMETIC = MeanDescriptor("arithmetic", RepresentingFunction("arithmetic"))
GEOMETRIC = MeanDescriptor("geometric", RepresentingFunction("geometric"))
HARMONIC = MeanDescriptor("harmonic", RepresentingFunction("harmonic"))


def weighted_arithmetic(w: float) -> MeanDescriptor:
    """Weighted arithmetic mean ``(1 - w) A + w B``."""
    w = _weight_in_unit(w)
    return MeanDescriptor(f"arithmetic:{w:g}", RepresentingFunction("weighted-arithmetic", weight=w))


def weighted_geometric(eps: float) -> MeanDescriptor:
    """Weighted geometric mean with representing function ``t**eps``."""
    eps = _weight_in_unit(eps)
    return MeanDescriptor(f"geometric:{eps:g}", RepresentingFunction("weighted-geometric", weight=eps))


def weighted_harmonic(w: float) -> MeanDescriptor:
    """Weighted harmonic mean ``((1 - w) A^-1 + w B^-1)^-1``."""
    w = _weight_in_unit(w)
    return MeanDescriptor(f"harmonic:{w:g}", RepresentingFunction("weighted-harmonic", weight=w))


def custom_mean(name: str, handle: Callable) -> MeanDescriptor:
    """Wrap a custom representing function after validation.

    The exact checks of :func:`validate_representing` (normalization and
    positivity) must pass; the monotonicity test is advisory and only
    reported, not enforced.
    """
    h = RepresentingFunction("custom", handle=handle)
    report = validate_representing(h)
    if not report.passed:
        problems = []
        if not report.h1_ok:
            problems.append("h(1) != 1")
        if not report.positive_ok:
            problems.append("h is not positive on (0, inf)")
        raise ValueError(f"invalid representing function {name!r}: " + ", ".join(problems))
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
    return float(sigma.h(t))


def _floor_error(low) -> NotPositiveDefiniteError:
    return NotPositiveDefiniteError(
        f"mean requires positive definite inputs; eigenvalue {low:.6e} at or below floor"
    )


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
    if (low := (a00 + a11 - np.hypot(a00 - a11, two_a01)).min() / 2.0) <= PD_FLOOR:
        raise _floor_error(low)
    det_a, det_b = a00 * a11 - a01 * a01, b00 * b11 - b01 * b01
    t = a00 * b11 + a11 * b00 - two_a01 * b01
    if not ((det_b > PD_FLOOR * t) & (t > 0.0)).all() and (
        low := ((t - np.sqrt(np.maximum(t * t - 4.0 * det_a * det_b, 0.0))) / (2.0 * det_a)).min()
    ) <= PD_FLOOR:
        raise _floor_error(low)
    alpha, beta = np.sqrt(det_a), np.sqrt(det_b)
    s = np.sqrt(t + 2.0 * alpha * beta)
    if not np.isfinite(s).all():
        return None
    return (beta / s)[..., None, None] * a + (alpha / s)[..., None, None] * b


def _binary_mean(h: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A sigma B`` over stacks ``(..., d, d)`` of symmetric matrices; each
    pair gets the bits it gets alone.

    With the Cholesky factor ``A = L L^T``, congruence invariance gives
    ``A sigma B = L h(C) L^T`` for ``C = L^-1 B L^-T``: one factorization and
    one ``eigh`` per pair.  The floors are checked on ``A`` and on ``C``.
    ``tr(A^-1) = ||L^-1||_F^2`` bounds ``1 / lambda_min(A)`` from above, so
    the exact smallest eigenvalue of ``A`` is computed only where the sum of
    those norms over the stack reaches ``1 / PD_FLOOR``, or where the
    factorization fails.  The geometric mean of ``2 x 2`` pairs takes the
    closed form of :func:`_geometric_2x2`.
    """
    geometric = h is np.sqrt or (isinstance(h, RepresentingFunction) and h.kind == "geometric")
    if geometric and a.shape[-1] == 2 and (out := _geometric_2x2(a, b)) is not None:
        return out
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise _floor_error(np.linalg.eigvalsh(a)[..., 0].min()) from None
    inv_factor = np.linalg.inv(factor)
    if (
        np.vdot(inv_factor, inv_factor) >= 1.0 / PD_FLOOR
        and (low := np.linalg.eigvalsh(a)[..., 0].min()) <= PD_FLOOR
    ):
        raise _floor_error(low)
    c = inv_factor @ b @ inv_factor.mT
    wc, qc = np.linalg.eigh((c + c.mT) / 2.0)
    if (low := wc[0] if wc.ndim == 1 else wc[..., 0].min()) <= PD_FLOOR:
        raise _floor_error(low)
    with np.errstate(all="ignore"):
        hw = np.asarray(h(wc), dtype=float)
    if not np.isfinite(hw).all():
        bad = wc[~np.isfinite(hw)][0]
        raise SpectrumDomainError(f"representing function undefined at eigenvalue {float(bad)!r}")
    out = factor @ ((qc * hw[..., None, :]) @ qc.mT) @ factor.mT
    return (out + out.mT) / 2.0


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
    h1_ok = bool(abs(float(h(1.0)) - 1.0) <= 1e-12)
    grid = np.geomspace(1e-6, 1e6, 1201)
    with np.errstate(all="ignore"):
        vals = np.asarray(h(grid), dtype=float)
    positive_ok = bool(np.isfinite(vals).all() and (vals > 0.0).all())
    margin = _loewner_margin(h)
    return RepresentingReport(
        h1_ok=h1_ok,
        positive_ok=positive_ok,
        monotone_ok=positive_ok and margin >= -_LOEWNER_TOL,
        worst_margin=margin,
    )


#: Absolute slack of the harmonic/arithmetic comparisons.
_BETWEEN_TOL = 1e-12


def _harmonic_arithmetic(h: RepresentingFunction) -> tuple:
    """Whether ``h >= 2t/(1+t)`` and whether ``h <= (1+t)/2``, each up to an
    absolute slack of ``_BETWEEN_TOL`` on 1000 log-spaced points of
    ``[1e-4, 1e4]``; both False where ``h`` is not finite."""
    t = np.geomspace(1e-4, 1e4, 1000)
    with np.errstate(all="ignore"):
        vals = np.asarray(h(t), dtype=float)
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
#: Python differ by a few ulps; closer cases are decided by ``np.vecdot``.
_CLEAR = 1e-12


def _geometric_floats(a: list, b: list) -> list | None:
    """One pair of :func:`_geometric_2x2` on ``[x00, x01, x10, x11]`` lists
    of Python floats, with the same IEEE operations in the same order.

    Returns None outside the regime where every decision of the stacked
    kernel is known: an ``A`` floor within ``2 * PD_FLOOR`` (or within the
    ulp of ``tr A`` by which ``math.hypot`` and ``np.hypot`` may differ), a
    failed bound on ``C``, a negative determinant or a non-finite ``s``.
    """
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    trace, two_a01 = a00 + a11, 2.0 * a01
    if not (trace - math.hypot(a00 - a11, two_a01)) / 2.0 > 2.0 * PD_FLOOR + 1e-15 * trace:
        return None
    det_a, det_b = a00 * a11 - a01 * a01, b00 * b11 - b01 * b01
    t = a00 * b11 + a11 * b00 - two_a01 * b01
    if not (det_b > PD_FLOOR * t and t > 0.0 and det_a >= 0.0):
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
    decision stands when every member's norm clears its limit by the
    relative gap ``_CLEAR``; otherwise the tuple's norms are taken with
    ``np.vecdot``, as in the stacked sweep.  Any pair outside the regime of
    :func:`_geometric_floats`, a norm that is not finite, or a tuple still
    moving after ``max_iter`` sweeps returns None, so that the stacked sweep
    raises its own error with its own residual.
    """
    out = []
    for cur in tuples.reshape(-1, 3, 4).tolist():
        for _ in range(max_iter):
            c0, c1, c2 = cur
            nxt = [_geometric_floats(c1, c2), _geometric_floats(c0, c2), _geometric_floats(c0, c1)]
            if None in nxt:
                return None
            moving = razor = False
            for (n0, n1, n2, n3), (o0, o1, o2, o3) in zip(nxt, cur):
                d0, d1, d2, d3 = n0 - o0, n1 - o1, n2 - o2, n3 - o3
                delta = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3)
                size = math.sqrt(o0 * o0 + o1 * o1 + o2 * o2 + o3 * o3)
                if not delta + size < math.inf:
                    return None
                limit = tol * (1.0 + size)
                if delta > limit * (1.0 + _CLEAR):
                    moving = True
                elif not delta < limit * (1.0 - _CLEAR):
                    razor = True
            if razor and not moving:
                step, old = np.subtract(nxt, cur), np.array(cur)
                delta = np.sqrt(np.vecdot(step, step))
                moving = bool((delta > tol * (1.0 + np.sqrt(np.vecdot(old, old)))).any())
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
    iterating into one call: of the binary kernel at ``n = 3``, of the
    recursion above that.  A tuple stops at the sweep where no member moved
    by more than ``tol * (1 + ||old||_F)``, as it would alone.  Norms of
    entries past about 1e154 overflow, which would stop a tuple with an
    infinite or NaN limit; a tuple that stops with a norm that is not
    finite raises ``OverflowError`` instead, and the overflow is not
    warned about.  A norm that overflows in a tuple that keeps moving
    changes no decision: some other member moved by more than its limit.

    An ``n = 3`` level of at most ``_FLOAT_LEVEL_MAX`` tuples of ``2 x 2``
    matrices, where numpy's per-call cost outweighs its arithmetic, runs in
    Python floats instead (:func:`_alm3_floats`).  That regime is exact by
    construction: it performs the closed form's IEEE operations in the
    stacked order, settles close stopping decisions with the stacked
    ``np.vecdot``, and hands the whole level back to the stacked sweep on
    any pair or norm where a decision could differ.  The stacked regime is
    exact because each pair of a stack gets the bits it gets alone.
    """
    count, n, d = tuples.shape[:3]
    if n <= 2:
        return tuples[:, 0] if n == 1 else _binary_mean(np.sqrt, tuples[:, 0], tuples[:, 1])
    if (
        n == 3
        and d == 2
        and count <= _FLOAT_LEVEL_MAX
        and (means := _alm3_floats(tuples, tol, max_iter)) is not None
    ):
        return means
    others = [[j for j in range(n) if j != i] for i in range(n)]
    first, second = np.array([1, 0, 0]), np.array([2, 2, 1])  # the pairs others[i] when n = 3
    out = np.empty((count, d, d))
    active, cur = np.arange(count), tuples
    for _ in range(max_iter):
        if n == 3:
            nxt = _binary_mean(np.sqrt, np.take(cur, first, axis=1), np.take(cur, second, axis=1))
        else:
            nxt = _alm(cur[:, others].reshape(-1, n - 1, d, d), tol, max_iter).reshape(-1, n, d, d)
        # Frobenius norms with the one BLAS dot per matrix that np.linalg.norm uses
        step, old = (nxt - cur).reshape(len(cur), n, -1), cur.reshape(len(cur), n, -1)
        delta, size = np.sqrt(np.vecdot(step, step)), np.sqrt(np.vecdot(old, old))
        moving = (delta > tol * (1.0 + size)).any(axis=1)
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


def alm_mean(
    mats: Sequence[SymMatrix], tol: float = _ALM_TOL, max_iter: int = _ALM_MAX_ITER
) -> SymMatrix:
    """Symmetrized multi-matrix geometric mean.

    For two matrices this is the ordinary geometric mean.  For ``n >= 3``
    each matrix is repeatedly replaced by the mean of the other ``n - 1``
    until ``max_i ||A_i_new - A_i|| <= tol * (1 + ||A_i||)`` in Frobenius
    norm; the returned value is the average of the converged tuple.  The
    leave-one-out sub-tuples of a level are swept in lock-step as one stack,
    and each of them converges on its own, exactly as it would alone.
    """
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be a nonnegative number, got {tol!r}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    if len({m.dim for m in mats}) > 1:
        raise DimensionMismatchError("all matrices must share one dimension")
    return SymMatrix(_alm(np.stack([m.data for m in mats])[None], tol, max_iter)[0])
