"""Kubo-Ando operator means of positive definite matrices.

A mean is identified with its representing function ``h`` on ``(0, inf)``
normalized so that ``h(1) = 1``; the matrix value is

    ``A sigma B = A^(1/2) h(A^(-1/2) B A^(-1/2)) A^(1/2)``

evaluated literally in that A-side conjugated form for reproducibility.
The catalog covers the arithmetic, geometric and harmonic means together
with their weighted versions, plus validated custom representing
functions.  The multi-matrix geometric mean is the symmetrization
fixed-point construction that replaces each matrix by the mean of the
remaining ones until the tuple stops moving.  Its sub-tuples are swept in
lock-step as stacked arrays through the one binary-mean kernel, and each
converges on its own.

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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .symmat import (
    PD_FLOOR,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    SpectralBand,
    SpectrumDomainError,
    SymMatrix,
    apply_scalar,
    loewner_leq,
    random_spd,
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
    monotonicity probe is sampled and advisory (it can refute but not
    certify).  ``worst_margin`` is the most negative order gap seen by the
    probe and ``witness`` the pair achieving it, if any was negative.
    """

    h1_ok: bool
    positive_ok: bool
    monotone_ok: bool
    worst_margin: float
    witness: tuple | None

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


def custom_mean(name: str, handle: Callable, seed: int = 0) -> MeanDescriptor:
    """Wrap a custom representing function after validation.

    The exact checks of :func:`validate_representing` (normalization and
    positivity) must pass; the sampled monotonicity probe is advisory and
    only reported, not enforced.
    """
    h = RepresentingFunction("custom", handle=handle)
    report = validate_representing(h, seed=seed)
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


def _binary_mean(h: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A sigma B`` over stacks ``(..., d, d)``; each pair gets the bits it gets alone."""
    w, q = np.linalg.eigh(a)
    if (low := w[0] if w.ndim == 1 else w[..., 0].min()) <= PD_FLOOR:
        raise NotPositiveDefiniteError(
            f"mean requires positive definite inputs; eigenvalue {low:.6e} at or below floor"
        )
    sq, qt = np.sqrt(w)[..., None, :], q.mT
    half = (q * sq) @ qt
    inv_half = (q * (1.0 / sq)) @ qt
    c = inv_half @ b @ inv_half
    c = (c + c.mT) / 2.0
    wc, qc = np.linalg.eigh(c)
    if (low := wc[0] if wc.ndim == 1 else wc[..., 0].min()) <= PD_FLOOR:
        raise NotPositiveDefiniteError(
            f"mean requires positive definite inputs; eigenvalue {low:.6e} at or below floor"
        )
    with np.errstate(all="ignore"):
        hw = np.asarray(h(wc), dtype=float)
    if not np.isfinite(hw).all():
        bad = wc[~np.isfinite(hw)][0]
        raise SpectrumDomainError(f"representing function undefined at eigenvalue {bad!r}")
    inner = (qc * hw[..., None, :]) @ qc.mT
    out = half @ inner @ half
    return (out + out.mT) / 2.0


def mean(sigma: MeanDescriptor, a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Evaluate ``A sigma B`` through the A-side conjugation formula."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return SymMatrix(_binary_mean(sigma.h, a.data, b.data))


def validate_representing(
    h: RepresentingFunction,
    monotonicity_trials: int = 1000,
    seed: int = 0,
) -> RepresentingReport:
    """Check a representing function: exact normalization and positivity,
    plus a sampled operator monotonicity probe on random ordered 2x2 pairs.

    The probe margin for an ordered pair ``A <= B`` is
    ``lambda_min(h(B') - h(A'))`` after conjugating both into the same
    frame; a margin below ``-1e-9`` scaled by the pair counts as a
    refutation.  The probe is heuristic: it cannot certify monotonicity.
    """
    h1_ok = bool(abs(float(h(1.0)) - 1.0) <= 1e-12)
    grid = np.geomspace(1e-6, 1e6, 1201)
    with np.errstate(all="ignore"):
        vals = np.asarray(h(grid), dtype=float)
    positive_ok = bool(np.isfinite(vals).all() and (vals > 0.0).all())

    rng = np.random.default_rng(seed)
    worst = np.inf
    witness = None
    monotone_ok = True
    if positive_ok:
        band = SpectralBand(0.1, 10.0)
        for _ in range(monotonicity_trials):
            a = random_spd(2, band, rng=rng)
            bump = rng.standard_normal((2, 2))
            b = SymMatrix(a.data + bump @ bump.T * rng.uniform(0.01, 1.0))
            try:
                ha = apply_scalar(a, h)
                hb = apply_scalar(b, h)
            except SpectrumDomainError:
                monotone_ok = False
                witness = (a, b)
                break
            verdict = loewner_leq(ha, hb)
            if verdict.gap_min_eig < worst:
                worst = verdict.gap_min_eig
                if not verdict.holds:
                    witness = (a, b)
        if witness is not None:
            monotone_ok = False
    else:
        monotone_ok = False
    return RepresentingReport(
        h1_ok=h1_ok,
        positive_ok=positive_ok,
        monotone_ok=monotone_ok,
        worst_margin=float(worst) if np.isfinite(worst) else np.inf,
        witness=witness,
    )


def is_between_harmonic_arithmetic(h: RepresentingFunction, tol: float = 1e-12) -> bool:
    """Whether ``2t/(1+t) <= h(t) <= (1+t)/2`` on a fixed log grid.

    The grid is 1000 points on ``[1e-4, 1e4]``; the comparison allows an
    absolute slack of ``tol``.  Weighted means with weight away from 1/2
    generally fail this: they dip below the symmetric harmonic curve on one
    side of ``t = 1``.
    """
    t = np.geomspace(1e-4, 1e4, 1000)
    with np.errstate(all="ignore"):
        vals = np.asarray(h(t), dtype=float)
    if not np.isfinite(vals).all():
        return False
    lower = 2.0 * t / (1.0 + t)
    upper = (1.0 + t) / 2.0
    return bool((vals >= lower - tol).all() and (vals <= upper + tol).all())


#: Default stopping rule of the multi-matrix geometric mean.
_ALM_TOL = 1e-12
_ALM_MAX_ITER = 1000


def _alm(tuples: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """ALM mean of every tuple in a ``(B, n, d, d)`` stack, as ``(B, d, d)``.

    Each sweep stacks the leave-one-out sub-tuples of every tuple still
    iterating into one recursive call.  A tuple stops at the sweep where no
    member moved by more than ``tol * (1 + ||old||_F)``, as it would alone.
    """
    count, n, d = tuples.shape[:3]
    if n <= 2:
        return tuples[:, 0] if n == 1 else _binary_mean(np.sqrt, tuples[:, 0], tuples[:, 1])
    others = [[j for j in range(n) if j != i] for i in range(n)]
    out = np.empty((count, d, d))
    active, cur, residual = np.arange(count), tuples, np.inf
    for _ in range(max_iter):
        k = len(active)
        nxt = _alm(cur[:, others].reshape(k * n, n - 1, d, d), tol, max_iter).reshape(k, n, d, d)
        # Frobenius norms with the one BLAS dot per matrix that np.linalg.norm uses
        step, old = (nxt - cur).reshape(k, n, -1), cur.reshape(k, n, -1)
        delta = np.sqrt(np.vecdot(step, step))
        moving = (delta > tol * (1.0 + np.sqrt(np.vecdot(old, old)))).any(axis=1)
        done = np.flatnonzero(~moving)
        out[active[done]] = sum(nxt[done, i] for i in range(n)) / n
        if done.size == k:
            return out
        active, cur, residual = active[moving], nxt[moving], float(delta[moving].max())
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
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    if len({m.dim for m in mats}) > 1:
        raise DimensionMismatchError("all matrices must share one dimension")
    return SymMatrix(_alm(np.stack([m.data for m in mats])[None], tol, max_iter)[0])
