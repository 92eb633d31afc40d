"""Dense real symmetric matrix core.

Everything downstream (operator means, positive linear maps, inequality
checks) reduces to the functional calculus of real symmetric matrices:
eigendecompose, transform the spectrum, reassemble.  This module owns the
value types, the Loewner order check, spectral bands, and seeded random
generation of positive definite matrices with a prescribed spectrum.

The kernels behind the public functions work on stacks ``(..., d, d)``
and give every matrix of a stack the bits it gets alone, so the trial
engine can evaluate a block of trials in one call per layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PD_FLOOR",
    "SymMatrix",
    "EigenDecomposition",
    "SpectralBand",
    "OrderVerdict",
    "BandCheck",
    "BandReport",
    "DimensionMismatchError",
    "SpectrumDomainError",
    "NotPositiveDefiniteError",
    "EigenConvergenceError",
    "eig_sym",
    "apply_scalar",
    "congruence",
    "loewner_leq",
    "spectral_band_of",
    "validate_band",
    "random_spd",
    "random_spd_trials",
    "op_norm",
]

#: Eigenvalues at or below this floor are treated as zero by operations that
#: need a strictly positive spectrum (inverse powers, geometric conjugation).
PD_FLOOR = 1e-13


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class SpectrumDomainError(ValueError):
    """A scalar function was evaluated outside its domain on some eigenvalue."""


class NotPositiveDefiniteError(ValueError):
    """A strictly positive definite input was required."""


class EigenConvergenceError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


class SymMatrix:
    """A dense real symmetric matrix.

    The stored array is exactly ``(E + E.T) / 2`` for the entries ``E``
    passed in, so ``data[i, j] == data[j, i]`` holds bitwise.  The backing
    array is marked read-only; treat instances as immutable values.
    """

    __slots__ = ("data",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionMismatchError("dimension must be at least 1")
        data = _symmetrize(a)
        data.setflags(write=False)
        self.data = data

    @classmethod
    def _wrap(cls, data: np.ndarray) -> "SymMatrix":
        """Adopt ``data``, already symmetrized by :func:`_symmetrize`, without a copy."""
        out = cls.__new__(cls)
        data.setflags(write=False)
        out.data = data
        return out

    @classmethod
    def identity(cls, dim: int) -> "SymMatrix":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values) -> "SymMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def __array__(self, dtype=None, copy=None):
        arr = np.asarray(self.data, dtype=dtype)
        if copy:
            return arr.copy()
        return arr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymMatrix({self.data.tolist()!r})"


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral decomposition ``A = Q diag(w) Q^T`` with ``w`` ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SpectralBand:
    """A closed positive interval ``[m, M]`` with ``0 < m <= M``."""

    m: float
    M: float

    def __post_init__(self):
        m, M = float(self.m), float(self.M)
        if not (np.isfinite(m) and np.isfinite(M)):
            raise ValueError("band endpoints must be finite")
        if not 0.0 < m <= M:
            raise ValueError(f"band requires 0 < m <= M, got m={m!r}, M={M!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "M", M)

    @property
    def ratio(self) -> float:
        """Condition ratio ``M / m``."""
        return self.M / self.m


@dataclass(frozen=True)
class OrderVerdict:
    """Result of a Loewner order comparison ``A <= B``.

    ``gap_min_eig`` is the smallest eigenvalue of ``B - A`` and ``gap_det``
    its determinant; ``holds`` means ``gap_min_eig >= -tol_used``.
    """

    holds: bool
    gap_min_eig: float
    gap_det: float
    tol_used: float


@dataclass(frozen=True, eq=False)
class BandCheck:
    """Band membership result for one matrix."""

    index: int
    ok: bool
    eigenvalues: np.ndarray
    offending: np.ndarray


@dataclass(frozen=True)
class BandReport:
    band: SpectralBand
    tol: float
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def offending_summary(self) -> str:
        parts = []
        for c in self.checks:
            if not c.ok:
                vals = ", ".join(f"{v:.6g}" for v in c.offending)
                parts.append(f"matrix {c.index}: eigenvalues [{vals}] outside band")
        return "; ".join(parts) if parts else "all matrices inside band"


def _symmetrize(x: np.ndarray) -> np.ndarray:
    """``(X + X^T) / 2`` over a stack ``(..., d, d)`` of finite matrices.

    This is how :class:`SymMatrix` stores its entries; on a matrix that is
    already symmetric it changes no bit.
    """
    if not np.isfinite(x).all():
        raise ValueError("matrix entries must be finite")
    return (x + x.mT) / 2.0


def _eigh(x: np.ndarray):
    """``np.linalg.eigh`` over a stack, with convergence failures raised as
    :class:`EigenConvergenceError` carrying the largest off-diagonal norm."""
    try:
        return np.linalg.eigh(x)
    except np.linalg.LinAlgError as exc:
        off = x * (1.0 - np.eye(x.shape[-1]))
        norm = np.linalg.norm(off, axis=(-2, -1)).max()
        raise EigenConvergenceError(
            "symmetric eigensolver did not converge "
            f"(off-diagonal Frobenius norm {norm:.3e})"
        ) from exc


def eig_sym(a: SymMatrix) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Backed by the LAPACK symmetric solver.  A convergence failure (rare,
    pathological inputs only) raises :class:`EigenConvergenceError` carrying
    the off-diagonal residual of the input.
    """
    w, q = _eigh(a.data)
    return EigenDecomposition(eigenvalues=w, eigenvectors=q)


def _apply_scalar(x: np.ndarray, f: Callable, domain_min: float | None = None) -> np.ndarray:
    """:func:`apply_scalar` over a stack ``(..., d, d)``, symmetrized.

    Errors name the smallest offending eigenvalue of the whole stack.
    """
    w, q = _eigh(x)
    if domain_min is not None and (low := w[..., 0].min()) <= domain_min:
        raise SpectrumDomainError(
            f"eigenvalue {low:.6e} is at or below the domain floor {domain_min:.3e}"
        )
    with np.errstate(all="ignore"):
        fw = np.asarray(f(w), dtype=float)
    if fw.shape != w.shape:
        raise SpectrumDomainError("scalar function must map eigenvalues elementwise")
    if not np.isfinite(fw).all():
        bad = w[~np.isfinite(fw)][0]
        raise SpectrumDomainError(f"scalar function is undefined at eigenvalue {bad!r}")
    return _symmetrize((q * fw[..., None, :]) @ q.mT)


def apply_scalar(
    a: SymMatrix,
    f: Callable[[np.ndarray], np.ndarray],
    domain_min: float | None = None,
) -> SymMatrix:
    """Apply a scalar function to ``a`` through its spectral decomposition.

    Returns ``Q f(w) Q^T`` where ``A = Q diag(w) Q^T``.  ``f`` must accept an
    array of eigenvalues and map it elementwise.

    ``domain_min`` guards functions that are undefined at or below a
    spectrum floor (inverse powers, logarithms): any eigenvalue at or below
    it raises :class:`SpectrumDomainError` naming the offending eigenvalue.
    Non-finite outputs of ``f`` raise the same error.
    """
    return SymMatrix._wrap(_apply_scalar(a.data, f, domain_min))


def congruence(a: SymMatrix, t) -> SymMatrix:
    """Congruence transform ``T^T A T`` for a real matrix ``T``.

    ``T`` may be rectangular with ``a.dim`` rows; the result is square with
    side ``T.shape[1]``.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != a.dim:
        raise DimensionMismatchError(
            f"congruence frame must have {a.dim} rows, got shape {t.shape}"
        )
    return SymMatrix(t.T @ a.data @ t)


def op_norm(a: SymMatrix) -> float:
    """Operator (spectral) norm: the largest absolute eigenvalue."""
    w = np.linalg.eigvalsh(a.data)
    return float(max(abs(w[0]), abs(w[-1])))


def _loewner(a: np.ndarray, b: np.ndarray, tol: float | None = None) -> OrderVerdict:
    """:func:`loewner_leq` over stacks ``(..., d, d)``; the verdict's fields
    are arrays over the leading axes.  One ``eigvalsh`` call serves the gap
    and, for the default tolerance, both operator norms."""
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    if tol is None:
        w, wa, wb = np.linalg.eigvalsh(np.stack((b - a, a, b)))
        norm_a = np.maximum(np.abs(wa[..., 0]), np.abs(wa[..., -1]))
        norm_b = np.maximum(np.abs(wb[..., 0]), np.abs(wb[..., -1]))
        tol = 1e-9 * (1.0 + np.maximum(norm_a, norm_b))
    else:
        w = np.linalg.eigvalsh(b - a)
        tol = np.full(w.shape[:-1], float(tol))
    return OrderVerdict(
        holds=w[..., 0] >= -tol,
        gap_min_eig=w[..., 0],
        gap_det=np.prod(w, axis=-1),
        tol_used=tol,
    )


def loewner_leq(a: SymMatrix, b: SymMatrix, tol: float | None = None) -> OrderVerdict:
    """Check ``a <= b`` in the Loewner (positive semidefinite) order.

    The comparison is ``lambda_min(b - a) >= -tol``.  When ``tol`` is not
    given it defaults to ``1e-9 * (1 + max(op_norm(a), op_norm(b)))``, an
    absolute-plus-relative guard against eigensolver roundoff.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    v = _loewner(a.data, b.data, tol)
    return OrderVerdict(
        holds=bool(v.holds),
        gap_min_eig=float(v.gap_min_eig),
        gap_det=float(v.gap_det),
        tol_used=float(v.tol_used),
    )


def spectral_band_of(mats: Sequence[SymMatrix]) -> SpectralBand:
    """Tightest common band ``[min lambda_min, max lambda_max]`` of ``mats``.

    All matrices must be strictly positive definite.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    lo = np.inf
    hi = -np.inf
    for i, a in enumerate(mats):
        w = np.linalg.eigvalsh(a.data)
        if w[0] <= 0.0:
            raise NotPositiveDefiniteError(
                f"matrix {i} has eigenvalue {w[0]:.6e} <= 0"
            )
        lo = min(lo, w[0])
        hi = max(hi, w[-1])
    return SpectralBand(lo, hi)


def validate_band(
    mats: Sequence[SymMatrix],
    band: SpectralBand,
    tol: float | None = None,
) -> BandReport:
    """Check that every eigenvalue of every matrix lies in ``[m, M]``.

    Membership is tested against ``[m - tol, M + tol]``; the default ``tol``
    is ``1e-9 * (1 + M)``.  The report lists offending eigenvalues per
    matrix rather than failing fast.
    """
    if tol is None:
        tol = 1e-9 * (1.0 + band.M)
    return _band_report([np.linalg.eigvalsh(a.data) for a in mats], band, tol)


def _band_report(eigenvalues, band: SpectralBand, tol: float) -> BandReport:
    checks = []
    for i, w in enumerate(eigenvalues):
        bad = w[(w < band.m - tol) | (w > band.M + tol)]
        checks.append(BandCheck(index=i, ok=bad.size == 0, eigenvalues=w, offending=bad))
    return BandReport(band=band, tol=float(tol), checks=tuple(checks))


def _first_out_of_band(x: np.ndarray, band: SpectralBand) -> BandReport | None:
    """Band check of a ``(T, k, d, d)`` stack of ``T`` groups of ``k``
    matrices with one ``eigvalsh`` call, at :func:`validate_band`'s default
    tolerance.  Returns the report of the first group with an eigenvalue
    outside the band, or None when every matrix is inside."""
    tol = 1e-9 * (1.0 + band.M)
    w = np.linalg.eigvalsh(x)
    outside = (w < band.m - tol) | (w > band.M + tol)
    if not outside.any():
        return None
    first = int(np.flatnonzero(outside.reshape(len(w), -1).any(axis=1))[0])
    return _band_report(w[first], band, tol)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def random_spd(
    dim: int,
    band: SpectralBand,
    pinned: bool = False,
    rng=None,
) -> SymMatrix:
    """Random positive definite matrix with spectrum inside ``band``.

    Draws eigenvalues uniformly on ``[m, M]`` and conjugates by a Haar
    orthogonal matrix (QR of a Gaussian matrix with the sign convention
    fixed, so the draw is deterministic given the generator state).  With
    ``pinned=True`` the extreme eigenvalues are set to ``m`` and ``M``
    exactly, which makes the band tight for this matrix.

    ``rng`` may be a ``numpy.random.Generator``, an integer seed, or None.
    """
    if dim < 1:
        raise DimensionMismatchError("dimension must be at least 1")
    gen = _as_generator(rng)
    w = np.empty(dim)
    g = np.empty((dim, dim))
    _draw_into(gen, band, pinned, w, g)
    return SymMatrix._wrap(_conjugate_spectra(w, g))


def random_spd_trials(
    dim: int, band: SpectralBand, count: int, seed: int, start: int, stop: int
) -> np.ndarray:
    """The seeded inputs of trials ``start .. stop - 1``, as a
    ``(stop - start, count, dim, dim)`` stack.

    Trial ``i`` draws from its own stream ``numpy.random.default_rng([seed,
    i])``: for each of its ``count`` matrices, a pin flag (probability one
    half) and then what :func:`random_spd` draws with that flag.  The
    streams are consumed one trial at a time, in that order; the QR
    factorizations, sign fixes and reassemblies run once over the stack.
    Every matrix is bitwise the one :func:`random_spd` returns from the same
    stream state.
    """
    if dim < 1:
        raise DimensionMismatchError("dimension must be at least 1")
    w = np.empty((stop - start, count, dim))
    g = np.empty((stop - start, count, dim, dim))
    for t in range(stop - start):
        gen = np.random.default_rng([seed, start + t])
        for k in range(count):
            _draw_into(gen, band, bool(gen.random() < 0.5), w[t, k], g[t, k])
    return _conjugate_spectra(w, g)


def _draw_into(gen: np.random.Generator, band: SpectralBand, pinned: bool, w, g) -> None:
    """Fill ``w`` with uniform eigenvalues (extremes pinned to the band edges
    if asked) and then ``g`` with a Gaussian matrix, from ``gen``."""
    w[:] = gen.uniform(band.m, band.M, size=len(w))
    if pinned:
        w.sort()
        w[0] = band.m
        w[-1] = band.M
    gen.standard_normal(out=g)


def _conjugate_spectra(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``Q diag(w) Q^T`` over stacks, with ``Q`` the sign-fixed (Haar) QR
    factor of the Gaussian matrix ``g``."""
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0.0, 1.0, -1.0)[..., None, :]
    return _symmetrize((q * w[..., None, :]) @ q.mT)
