"""Dense real symmetric matrix core.

Everything downstream (operator means, positive linear maps, inequality
checks) reduces to the functional calculus of real symmetric matrices:
eigendecompose, transform the spectrum, reassemble.  This module owns the
value types, the Loewner order check, spectral bands, and seeded random
generation of positive definite matrices with a prescribed spectrum, and
the primitives the other modules share: every ``numpy.linalg`` call
(``_eigh``, the Cholesky ``_congruence``, the Haar frame's QR), every
evaluation of a function (``_values``), the reassembly ``Q f(w) Q^T``,
and the tolerance policies: the floor (``_at_floor``), the order slack
(``_order_tol``) and the stopping limit of an iteration (``_moved``).

The kernels behind the public functions work on stacks ``(..., d, d)``
and give every matrix of a stack the bits it gets alone, so the trial
engine can evaluate a block of trials in one call per layer.  The seeded
draw of a block is bitwise one ``numpy.random.default_rng([seed, i])``
per trial ``i``, without building those generators: the ``SeedSequence``
hashing of the whole block runs as ``uint32`` arrays, and the ``PCG64``
start states follow from it in 128-bit arithmetic on ``uint64`` arrays.
NumPy keeps both algorithms fixed under its stream-compatibility policy
(NEP 19).  A large block is then drawn as arrays: every raw word of every
trial from the ``PCG64`` jump-ahead, uniforms from the top 53 bits, and
normals by the ziggurat's one-word fast path, with tables read from the
installed numpy by probes once per process.  A trial with a normal off the
fast path, and every small block, is drawn by one reused generator set to
each trial's state in turn.  A self-check at first use draws one block both
ways, and if they differ every block is drawn by the generator.
"""

from __future__ import annotations

import functools
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

#: Eigenvalues at or below this floor count as zero where a strictly positive spectrum
#: is needed; :func:`_at_floor` is the one comparison with it.  It is absolute, so
#: scale alone refuses ``mean(GEOMETRIC, 1e-13 * A, 1e-13 * B)``, but not ``1e-12 *``.
PD_FLOOR = 1e-13
_ORDER_SLACK = 1e-9  # the order slack is _ORDER_SLACK * (1 + scale), see _order_tol


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class SpectrumDomainError(ValueError):
    """A scalar function was evaluated outside its domain on some eigenvalue."""


class NotPositiveDefiniteError(ValueError):
    """A strictly positive definite input was required."""


class EigenConvergenceError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


class _NonFiniteError(ValueError):
    """A matrix entry is not finite (raised by :func:`_symmetrize`)."""


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
    """``(X + X^T) / 2`` over a stack ``(..., d, d)``, checked to be finite.

    This is how :class:`SymMatrix` stores its entries; on a matrix that is
    already symmetric it changes no bit.  The check is on the output, so a
    sum that overflows raises like a non-finite input does, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = (x + x.mT) / 2.0
    if not np.isfinite(s).all():
        raise _NonFiniteError("matrix entries must be finite")
    return s


def _eigh(x: np.ndarray, vectors: bool = True):
    """``np.linalg.eigh``, or ``eigvalsh`` unless ``vectors``, over a stack
    (looked up on each call), with convergence failures raised as
    :class:`EigenConvergenceError` carrying the largest off-diagonal norm."""
    try:
        return np.linalg.eigh(x) if vectors else np.linalg.eigvalsh(x)
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


def _values(fn: Callable, t) -> np.ndarray:
    """``fn(t)`` as a float array, with numpy's floating-point errors ignored: the
    one evaluation of a function on numbers; callers judge non-finite values."""
    with np.errstate(all="ignore"):
        return np.asarray(fn(t), dtype=float)


def _reassemble(w, q, f: Callable, undefined: str = "scalar function is undefined") -> np.ndarray:
    """``Q f(w) Q^T`` over a stack, not symmetrized.  An ``f(w)`` of another
    shape, or one that is not finite, raises :class:`SpectrumDomainError`;
    the latter reads ``"{undefined} at eigenvalue {w}"``."""
    fw = _values(f, w)
    if fw.shape != w.shape:
        raise SpectrumDomainError("scalar function must map eigenvalues elementwise")
    if not np.isfinite(fw).all():
        bad = w[~np.isfinite(fw)][0]
        raise SpectrumDomainError(f"{undefined} at eigenvalue {float(bad)!r}")
    return (q * fw[..., None, :]) @ q.mT


def _at_floor(value, scale=1.0):
    """Whether ``value <= PD_FLOOR * scale`` (an eigenvalue, or a bound on one
    with the factor ``scale``): the one comparison with the floor."""
    return value <= PD_FLOOR * scale


def _floor_error(operand: str, low) -> NotPositiveDefiniteError:
    """The error of every floor check: ``operand`` has smallest eigenvalue ``low``."""
    return NotPositiveDefiniteError(
        f"{operand} has smallest eigenvalue {low:.6e}, at or below floor {PD_FLOOR:g}"
    )


def _check_floor(low, operand: str) -> None:
    """Raise :func:`_floor_error` if ``operand``'s smallest eigenvalue ``low`` is :func:`_at_floor`."""
    if _at_floor(low):
        raise _floor_error(operand, low)


def _floored(x, f: Callable, operand: str, undefined: str = "scalar function is undefined") -> np.ndarray:
    """``Q f(w) Q^T`` of ``x = Q diag(w) Q^T`` over a stack, not symmetrized,
    after the floor check of :func:`_check_floor` on ``w``."""
    w, q = _eigh(x)
    _check_floor(w[0] if w.ndim == 1 else w[..., 0].min(), operand)
    return _reassemble(w, q, f, undefined)


def _congruence(a, b, f: Callable, undefined: str = "scalar function is undefined") -> np.ndarray:
    """``A^(1/2) f(C) A^(1/2)``, ``C = A^(-1/2) B A^(-1/2)``, over stacks, as
    ``L f(L^-1 B L^-T) L^T`` for the Cholesky factor ``A = L L^T`` (congruence
    invariance, any ``f``); each pair gets the bits it gets alone.  Floors on
    ``A`` and ``C``: ``lambda_min(A)`` is computed only where the factorization
    fails or ``||L^-1||_F^2 = tr(A^-1) >= 1 / lambda_min(A)``, summed over the
    stack, reaches ``1 / PD_FLOOR``; a failure above the floor names the
    factorization.  ``C`` and the result are symmetrized without
    :func:`_symmetrize`'s finite check."""
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        w = _eigh(a, vectors=False)
        _check_floor(w[..., 0].min(), "A")
        raise NotPositiveDefiniteError(
            f"Cholesky factorization of A failed: smallest eigenvalue {w[..., 0].min():.6e}, "
            f"largest {w[..., -1].max():.6e}"
        ) from None
    inv_factor = np.linalg.inv(factor)
    if np.vdot(inv_factor, inv_factor) >= 1.0 / PD_FLOOR:
        _check_floor(_eigh(a, vectors=False)[..., 0].min(), "A")
    c = inv_factor @ b @ inv_factor.mT
    out = factor @ _floored((c + c.mT) / 2.0, f, "A^-1/2 B A^-1/2", undefined) @ factor.mT
    return (out + out.mT) / 2.0


def _stop_limit(size, tol: float):
    """The longest step ``tol * (1 + size)`` of an iterate of Frobenius norm ``size`` that stops it."""
    return tol * (1.0 + size)


def _moved(step: np.ndarray, old: np.ndarray, tol: float) -> tuple:
    """Frobenius norms ``delta`` of flattened steps and ``size`` of old iterates (one BLAS
    dot each, as ``np.linalg.norm``), and whether each step passes its :func:`_stop_limit`."""
    delta, size = np.sqrt(np.vecdot(step, step)), np.sqrt(np.vecdot(old, old))
    return delta, size, delta > _stop_limit(size, tol)


def _apply_scalar(x: np.ndarray, f: Callable) -> np.ndarray:
    """:func:`apply_scalar` over a stack ``(..., d, d)``, symmetrized."""
    return _symmetrize(_reassemble(*_eigh(x), f))


def apply_scalar(a: SymMatrix, f: Callable[[np.ndarray], np.ndarray]) -> SymMatrix:
    """Apply a scalar function to ``a`` through its spectral decomposition.

    Returns ``Q f(w) Q^T`` where ``A = Q diag(w) Q^T``.  ``f`` must accept an
    array of eigenvalues and map it elementwise; a non-finite output (an
    inverse power or a logarithm at a nonpositive eigenvalue) raises
    :class:`SpectrumDomainError` naming the offending eigenvalue.
    """
    return SymMatrix._wrap(_apply_scalar(a.data, f))


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
    w = _eigh(a.data, vectors=False)
    return float(max(abs(w[0]), abs(w[-1])))


def _order_tol(scale):
    """Order slack ``1e-9 * (1 + scale)``: ``scale`` is the larger operator norm, or the band's ``M``."""
    return _ORDER_SLACK * (1.0 + scale)


def _loewner(a: np.ndarray, b: np.ndarray, tol: float | None = None) -> OrderVerdict:
    """:func:`loewner_leq` over stacks ``(..., d, d)``; the verdict's fields
    are arrays over the leading axes.  One ``eigvalsh`` call serves the gap
    and, for the default tolerance, both operator norms."""
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    if tol is None:
        w, wa, wb = _eigh(np.stack((b - a, a, b)), vectors=False)
        norm_a = np.maximum(np.abs(wa[..., 0]), np.abs(wa[..., -1]))
        norm_b = np.maximum(np.abs(wb[..., 0]), np.abs(wb[..., -1]))
        tol = _order_tol(np.maximum(norm_a, norm_b))
    elif not tol >= 0.0:
        raise ValueError(f"tolerance must be a nonnegative number, got {tol!r}")
    else:
        w = _eigh(b - a, vectors=False)
        tol = np.full(w.shape[:-1], float(tol))
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.prod(w, axis=-1)
    if not np.isfinite(det).all():
        raise OverflowError("gap determinant is not finite")
    return OrderVerdict(holds=w[..., 0] >= -tol, gap_min_eig=w[..., 0], gap_det=det, tol_used=tol)


def loewner_leq(a: SymMatrix, b: SymMatrix, tol: float | None = None) -> OrderVerdict:
    """Check ``a <= b`` in the Loewner (positive semidefinite) order.

    The comparison is ``lambda_min(b - a) >= -tol``.  When ``tol`` is not
    given it defaults to ``1e-9 * (1 + max(op_norm(a), op_norm(b)))``, an
    absolute-plus-relative guard against eigensolver roundoff.
    """
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
    lo, hi = np.inf, -np.inf
    for i, a in enumerate(mats):
        w = _eigh(a.data, vectors=False)
        if w[0] <= 0.0:
            raise NotPositiveDefiniteError(f"matrix {i} has eigenvalue {w[0]:.6e} <= 0")
        lo, hi = min(lo, w[0]), max(hi, w[-1])
    return SpectralBand(lo, hi)


def validate_band(mats: Sequence[SymMatrix], band: SpectralBand) -> BandReport:
    """Check that every eigenvalue of every matrix lies in ``[m, M]``.

    Membership is tested against ``[m - tol, M + tol]`` with
    ``tol = 1e-9 * (1 + M)``.  The report lists offending eigenvalues per
    matrix rather than failing fast.
    """
    return _band_report([_eigh(a.data, vectors=False) for a in mats], band, _order_tol(band.M))


def _band_report(eigenvalues, band: SpectralBand, tol: float) -> BandReport:
    checks = []
    for i, w in enumerate(eigenvalues):
        bad = w[(w < band.m - tol) | (w > band.M + tol)]
        checks.append(BandCheck(index=i, ok=bad.size == 0, eigenvalues=w, offending=bad))
    return BandReport(band=band, tol=float(tol), checks=tuple(checks))


def _first_out_of_band(x: np.ndarray, band: SpectralBand):
    """Band check of a ``(T, k, d, d)`` stack of ``T`` groups of ``k``
    matrices with one ``eigvalsh`` call, at :func:`validate_band`'s
    tolerance.  Returns the report of the first group with an eigenvalue
    outside the band, or None when every matrix is inside."""
    tol = _order_tol(band.M)
    w = _eigh(x, vectors=False)
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
    *,
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
    u = gen.random(dim)
    g = gen.standard_normal((dim, dim))
    return SymMatrix._wrap(_conjugate_spectra(_band_spectra(u, band, np.asarray(pinned)), g))


def random_spd_trials(
    dim: int, band: SpectralBand, count: int, seed: int, start: int, stop: int
) -> np.ndarray:
    """The seeded inputs of trials ``start .. stop - 1``, as a
    ``(stop - start, count, dim, dim)`` stack.

    Trial ``i`` draws from its own stream ``numpy.random.default_rng([seed,
    i])``: for each of its ``count`` matrices, a pin flag (probability one
    half) and then what :func:`random_spd` draws with that flag.  The
    streams' start states are computed for the whole block at once
    (:func:`_pcg64_starts`); the band maps, QR factorizations, sign fixes
    and reassemblies run once over the stack.  Every matrix is bitwise the
    one :func:`random_spd` returns from the same stream state.

    A block of ``T`` trials is drawn in one of two ways.  As arrays
    (:func:`_fill_arrays`), all raw words of all trials come at once from
    the streams' jump-ahead; each uniform is ``(word >> 11) 2^-53`` and each
    normal the ziggurat's one-word fast path, which about 98.5% of normals
    take.  A trial with any normal off that path, ``1 - 0.985^(count
    dim^2)`` of them, is redrawn by the loop (:func:`_fill_loop`), which sets
    one reused generator to each trial's start state and calls it per
    matrix.  The loop also draws every block whose expected surplus of kept
    over redrawn trials is below ``_ARRAY_SURPLUS``.  The fast-path tables
    are read from the installed numpy once per process, at the first block
    large enough, and a self-check then draws one block both ways; if they
    differ, every block goes down the loop (:func:`_ziggurat`).
    """
    if dim < 1:
        raise DimensionMismatchError("dimension must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if start < 0:
        raise ValueError("trial indices must be nonnegative")
    # per matrix: the pin flag, then the eigenvalues' uniforms
    u = np.empty((stop - start, count, dim + 1))
    g = np.empty((stop - start, count, dim, dim))
    if u.size:
        starts = _pcg64_starts(seed, start, stop)
        rows = np.arange(len(u))
        # the surplus is at most T, so a smaller block never reads the tables
        if len(u) >= _ARRAY_SURPLUS and (tables := _ziggurat()) is not None:
            kept = tables.fast_share ** (count * dim * dim)
            if len(u) * (2.0 * kept - 1.0) >= _ARRAY_SURPLUS:
                rows = _fill_arrays(u, g, starts, tables)
        _fill_loop(u, g, starts, rows)
    return _conjugate_spectra(_band_spectra(u[..., 1:], band, u[..., 0] < 0.5), g)


def _band_spectra(u: np.ndarray, band: SpectralBand, pinned) -> np.ndarray:
    """Uniforms ``u`` of shape ``(..., d)`` mapped onto ``[m, M]`` as
    ``Generator.uniform`` maps them; where ``pinned`` (shape ``(...)``)
    holds, sorted with the extremes set to the band edges."""
    w = band.m + (band.M - band.m) * u
    w = np.where(pinned[..., None], np.sort(w, axis=-1), w)
    w[..., 0] = np.where(pinned, band.m, w[..., 0])
    w[..., -1] = np.where(pinned, band.M, w[..., -1])
    return w


# The seeding of ``numpy.random.default_rng([seed, i])``: SeedSequence hashes
# the 32-bit words of its entropy into a pool and the pool into state words,
# and PCG64 derives its 128-bit state and increment from four of those.
# NumPy keeps both algorithms fixed (NEP 19).
_MASK32 = 0xFFFFFFFF
_MASK52 = (1 << 52) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_INVERSE = pow(_PCG64_MULT, -1, 1 << 128)


def _words32(n: int) -> list:
    """Little-endian 32-bit words of ``n >= 0``, at least one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg64_starts(seed: int, start: int, stop: int) -> tuple:
    """The ``PCG64`` streams of ``default_rng([seed, i])`` for ``i`` in
    ``start .. stop - 1``, as ``(x_hi, x_lo, inc_hi, inc_lo)`` ``uint64``
    arrays: ``pcg64_set_seed`` sets ``inc = 2 seq + 1`` and leaves
    ``x = inc + seed`` one step before the start state ``x MULT + inc``.
    Indices that share their words above the lowest are hashed together,
    as one ``(words, indices)`` ``uint32`` array."""
    seed_words = _words32(seed)
    halves = []
    first = start
    while first < stop:
        upper = first >> 32
        last = min(stop, (upper + 1) << 32)
        words = seed_words + [0] + (_words32(upper) if upper else [])
        entropy = np.empty((len(words), last - first), np.uint32)
        entropy[:] = np.array(words, np.uint32)[:, None]
        entropy[len(seed_words)] = np.arange(last - first) + (first & _MASK32)
        # per index: seed_hi, seed_lo, seq_hi, seq_lo, each from two words
        halves.append(np.ascontiguousarray(_seed_state_words(entropy).T, dtype="<u4").view("<u8"))
        first = last
    s_hi, s_lo, q_hi, q_lo = (halves[0] if len(halves) == 1 else np.concatenate(halves)).T
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    return (*_add128(inc_hi, inc_lo, s_hi, s_lo), inc_hi, inc_lo)


# 128-bit integers as (hi, lo) pairs of uint64 arrays.  Array arithmetic
# wraps silently; numpy warns on uint64 *scalar* overflow, so every operand
# here is an array of at least one dimension.


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    """``a b mod 2^128``; the high word of ``a_lo b_lo`` from 32-bit halves."""
    a1, a0, b1, b0 = a_lo >> 32, a_lo & _MASK32, b_lo >> 32, b_lo & _MASK32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + a_hi * b_lo + a_lo * b_hi
    return hi, a_lo * b_lo


@functools.cache
def _pcg64_jumps(words: int) -> tuple:
    """``(A_hi, A_lo, C_hi, C_lo)``, ``(1, words)`` ``uint64`` rows: ``PCG64``
    steps ``k = 1 .. words`` from state ``s`` with increment ``c`` reach
    ``A_k s + C_k c`` (mod 2^128), as ``A_k = MULT^k`` and ``C_k = MULT^(k-1)
    + ... + 1`` (Brown, "Random number generation with arbitrary strides",
    1994).  Cached: one entry per word count in use."""
    a, c = [_PCG64_MULT], [1]
    for _ in range(words - 1):
        a.append(a[-1] * _PCG64_MULT & _MASK128)
        c.append(c[-1] * _PCG64_MULT + 1 & _MASK128)
    rows = tuple(
        np.array([[n >> shift & _MASK64 for n in ns]], np.uint64) for ns in (a, c) for shift in (64, 0)
    )
    for row in rows:
        row.setflags(write=False)
    return rows


def _pcg64_words(starts: tuple, words: int) -> np.ndarray:
    """The first ``words`` raw outputs of the ``PCG64`` streams ``starts``
    (:func:`_pcg64_starts`), a ``(T, words)`` ``uint64`` array: the XSL-RR
    outputs of steps ``2 .. words + 1`` from ``x``, each ``hi ^ lo`` of the
    new state rotated right by its top six bits."""
    x_hi, x_lo, inc_hi, inc_lo = (x[:, None] for x in starts)
    a_hi, a_lo, c_hi, c_lo = (row[:, 1:] for row in _pcg64_jumps(words + 1))
    hi, lo = _add128(*_mul128(a_hi, a_lo, x_hi, x_lo), *_mul128(c_hi, c_lo, inc_hi, inc_lo))
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (64 - rot & 63)


@dataclass(frozen=True, eq=False)
class _Ziggurat:
    """The installed numpy's ziggurat for ``standard_normal``, as far as its
    one-word fast path: a word with layer ``i = word & 255``, sign bit
    ``word >> 8 & 1`` and ``rabs = word >> 9 & (2^52 - 1)`` is the normal
    ``+-rabs w[i]`` when ``rabs < k[i]`` (Marsaglia and Tsang, J. Stat.
    Softw. 5(8), 2000).  ``k`` may be below numpy's bound, never above;
    ``fast_share`` is the share of words it passes."""

    w: np.ndarray
    k: np.ndarray
    fast_share: float


#: A block of ``T`` trials is drawn as arrays when the trials expected to
#: keep every normal on the ziggurat's fast path, ``T q``, outnumber those
#: the loop redraws, ``T (1 - q)``, by at least this many.  Timing the draw
#: alone (d = 2..6, count = 2..6, T = 16..256), the array path was faster
#: from a surplus of 6-25 trials and slower at every T when the surplus was
#: negative.  The margin above that keeps blocks that would save a few tens
#: of microseconds, such as 40 trials at d = 2, on the loop, and with them
#: the one-time table read off the processes that only draw those.
_ARRAY_SURPLUS = 64


def _first_normal(gen: np.random.Generator, word: int) -> tuple:
    """``standard_normal()`` of ``gen``, a ``PCG64`` generator, set so that
    its next raw word is ``word`` (state ``word``, increment 1, so the XSL-RR
    rotation is zero), and whether it took exactly that one word."""
    bits = gen.bit_generator
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": (word - 1) * _PCG64_INVERSE & _MASK128, "inc": 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.standard_normal(), bits.state["state"]["state"] == word


def _fast_bound(gen: np.random.Generator, layer: int, guess: int) -> int:
    """The number of ``rabs`` that take layer ``layer``'s fast path, which
    are ``0 .. k - 1``: ``guess`` if a probe at ``guess - 1`` confirms it as
    a lower bound, else bisected on ``0 .. 2^52`` with 52 probes."""
    if 0 < guess <= 1 << 52 and _first_normal(gen, layer | guess - 1 << 9)[1]:
        return guess
    low, high = 0, 1 << 52
    while low < high:
        mid = (low + high) // 2
        if _first_normal(gen, layer | mid << 9)[1]:
            low = mid + 1
        else:
            high = mid
    return low


@functools.cache
def _ziggurat() -> _Ziggurat | None:
    """The installed numpy's fast-path tables, read once per process by
    probes; None when a block drawn as arrays differs from the loop.

    ``w[i]`` is read exactly, as the normal of the word with ``rabs = 1``.
    ``k[i]`` is about ``2^52 w[i-1] / w[i]``, which a probe confirms as a
    lower bound (it was exact or one low on numpy 2.4.6); layers whose
    guess fails, or whose ``w[i-1]`` is unread, are bisected, and a layer
    whose ``rabs = 1`` probe takes more than one word gets no fast path.
    The self-check draws trials 0 .. 63 of seed 0 at ``count = 2``,
    ``dim = 3`` both ways, fallback trials included."""
    gen = np.random.Generator(np.random.PCG64(0))
    w, one_word = zip(*(_first_normal(gen, i | 1 << 9) for i in range(256)))
    k = [0] * 256
    for i in range(256):
        if one_word[i]:
            ratio = w[i - 1] / w[i] if i and one_word[i - 1] and w[i] > 0.0 else 0.0
            k[i] = _fast_bound(gen, i, int(2.0**52 * min(ratio, 1.0)))
    tables = _Ziggurat(np.array(w), np.array(k, np.uint64), sum(k) / 2.0**60)
    starts = _pcg64_starts(0, 0, 64)
    drawn = [(np.empty((64, 2, 4)), np.empty((64, 2, 3, 3))) for _ in range(2)]
    _fill_loop(*drawn[0], starts, _fill_arrays(*drawn[0], starts, tables))
    _fill_loop(*drawn[1], starts, np.arange(64))
    same = all(a.tobytes() == b.tobytes() for a, b in zip(*drawn))
    return tables if same else None


def _fill_arrays(u: np.ndarray, g: np.ndarray, starts: tuple, tables: _Ziggurat) -> np.ndarray:
    """Fill the uniforms ``u`` ``(T, count, dim + 1)`` and normals ``g``
    ``(T, count, dim, dim)`` of the streams at ``starts`` from their raw
    words, as ``Generator.random`` and the fast path of
    ``Generator.standard_normal`` take them.  Returns the trials with a
    normal off the fast path, whose rows here are not their draws."""
    trials, count, dim = g.shape[:3]
    r = _pcg64_words(starts, count * (1 + dim + dim * dim)).reshape(trials, count, -1)
    u[:] = (r[..., : dim + 1] >> 11) * 2.0**-53
    z = r[..., dim + 1 :]
    layer, rabs = z & 0xFF, z >> 9 & _MASK52
    x = rabs * tables.w[layer]
    g[:] = np.where(z & 0x100, -x, x).reshape(g.shape)
    return np.flatnonzero(~(rabs < tables.k[layer]).reshape(trials, -1).all(axis=1))


def _fill_loop(u: np.ndarray, g: np.ndarray, starts: tuple, rows) -> None:
    """Fill rows ``rows`` of ``u`` and ``g`` (see :func:`_fill_arrays`) by
    setting one reused generator to each trial's start state, one step on
    from ``x``, and calling ``random`` and ``standard_normal`` per matrix."""
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    x_hi, x_lo, c_hi, c_lo = (x[rows].tolist() for x in starts)
    for t, a, b, c, d in zip(rows, x_hi, x_lo, c_hi, c_lo):
        inc = c << 64 | d
        pcg["state"], pcg["inc"] = ((a << 64 | b) * _PCG64_MULT + inc) & _MASK128, inc
        bits.state = state
        for uk, gk in zip(u[t], g[t]):
            gen.random(out=uk)
            gen.standard_normal(out=gk)


@functools.cache
def _hash_constants(init: int, mult: int, calls: int) -> tuple:
    """The ``(xor, multiplier)`` columns, ``(calls, 1)`` each, of ``calls``
    successive hashes: hash ``k`` xors its value with ``c_k`` and multiplies
    it by ``c_(k+1)``, where ``c_0 = init`` and ``c_(k+1) = c_k mult``
    (mod 2^32).  Cached: one entry per entropy length in use."""
    c = [init]
    for _ in range(calls):
        c.append(c[-1] * mult & _MASK32)
    column = np.array(c, np.uint32)[:, None]
    column.setflags(write=False)
    return column[:-1], column[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _seed_state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(8, np.uint32)`` for the entropy
    words ``e``, given as a ``(words, T)`` ``uint32`` array (one row per
    word, one column per sequence); the result is an ``(8, T)`` array."""
    words = len(entropy)
    xor, mult = _hash_constants(_HASH_INIT_A, _HASH_MULT_A, 16 + 4 * max(words - 4, 0))
    pool = np.zeros((4, entropy.shape[1]), np.uint32)
    pool[: min(words, 4)] = entropy[:4]
    pool = _hashmix(pool, xor[:4], mult[:4])
    # each pool word, hashed three times, into the other three
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        k = 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k : k + 3], mult[k : k + 3]))
    # each further entropy word, hashed four times, into all four
    for i, word in enumerate(entropy[4:]):
        k = 16 + 4 * i
        pool = _mix(pool, _hashmix(word, xor[k : k + 4], mult[k : k + 4]))
    xor, mult = _hash_constants(_HASH_INIT_B, _HASH_MULT_B, 8)
    return _hashmix(np.tile(pool, (2, 1)), xor, mult)


def _haar_frame(g: np.ndarray) -> np.ndarray:
    """The Haar frame of Gaussian matrices ``g`` over a stack: the QR factor
    ``Q``, its column signs fixed so that ``R`` has a nonnegative diagonal."""
    q, r = np.linalg.qr(g)
    return q * np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0.0, 1.0, -1.0)[..., None, :]


def _conjugate_spectra(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``Q diag(w) Q^T`` over stacks, ``Q`` the Haar frame of ``g``.  Entries
    that overflow (spectra near the float maximum) raise one error, not a warning."""
    return _symmetrize(_reassemble(w, _haar_frame(g), lambda t: t))
