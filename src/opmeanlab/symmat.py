"""Dense real symmetric matrix core.

Everything downstream (operator means, positive linear maps, inequality
checks) reduces to the functional calculus of real symmetric matrices:
eigendecompose, transform the spectrum, reassemble.  This module owns the
value types, the Loewner order check, spectral bands, and seeded random
generation of positive definite matrices with a prescribed spectrum, and
the primitives the other modules share: every symmetric eigensolve
(``_eigh``), the reassembly ``Q f(w) Q^T`` and the Haar frame.

The kernels behind the public functions work on stacks ``(..., d, d)``
and give every matrix of a stack the bits it gets alone, so the trial
engine can evaluate a block of trials in one call per layer.  The seeded
draw of a block is bitwise one ``numpy.random.default_rng([seed, i])``
per trial ``i``, without building those generators: the ``SeedSequence``
hashing of the whole block runs as ``uint32`` arrays, the ``PCG64`` states
follow from it in 128-bit integer arithmetic, and one reused generator is
set to each state in turn.  NumPy keeps both algorithms fixed under its
stream-compatibility policy (NEP 19).
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
        with np.errstate(over="ignore", invalid="ignore"):
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
    sum that overflows raises like a non-finite input does.
    """
    s = (x + x.mT) / 2.0
    if not np.isfinite(s).all():
        raise ValueError("matrix entries must be finite")
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


def _reassemble(w, q, f: Callable, undefined: str = "scalar function is undefined") -> np.ndarray:
    """``Q f(w) Q^T`` over a stack, not symmetrized.  An ``f(w)`` of another
    shape, or one that is not finite, raises :class:`SpectrumDomainError`;
    the latter reads ``"{undefined} at eigenvalue {w}"``."""
    with np.errstate(all="ignore"):
        fw = np.asarray(f(w), dtype=float)
    if fw.shape != w.shape:
        raise SpectrumDomainError("scalar function must map eigenvalues elementwise")
    if not np.isfinite(fw).all():
        bad = w[~np.isfinite(fw)][0]
        raise SpectrumDomainError(f"{undefined} at eigenvalue {float(bad)!r}")
    return (q * fw[..., None, :]) @ q.mT


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
        tol = 1e-9 * (1.0 + np.maximum(norm_a, norm_b))
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


def _band_tol(band: SpectralBand) -> float:
    """Slack of the band checks: ``1e-9 * (1 + M)``."""
    return 1e-9 * (1.0 + band.M)


def validate_band(mats: Sequence[SymMatrix], band: SpectralBand) -> BandReport:
    """Check that every eigenvalue of every matrix lies in ``[m, M]``.

    Membership is tested against ``[m - tol, M + tol]`` with
    ``tol = 1e-9 * (1 + M)``.  The report lists offending eigenvalues per
    matrix rather than failing fast.
    """
    return _band_report([_eigh(a.data, vectors=False) for a in mats], band, _band_tol(band))


def _band_report(eigenvalues, band: SpectralBand, tol: float) -> BandReport:
    checks = []
    for i, w in enumerate(eigenvalues):
        bad = w[(w < band.m - tol) | (w > band.M + tol)]
        checks.append(BandCheck(index=i, ok=bad.size == 0, eigenvalues=w, offending=bad))
    return BandReport(band=band, tol=float(tol), checks=tuple(checks))


def _first_out_of_band(x: np.ndarray, band: SpectralBand) -> tuple:
    """Band check of a ``(T, k, d, d)`` stack of ``T`` groups of ``k``
    matrices with one ``eigvalsh`` call, at :func:`validate_band`'s
    tolerance.  Returns the index and report of the first group with an
    eigenvalue outside the band, or ``(T, None)`` when every matrix is
    inside."""
    tol = _band_tol(band)
    w = _eigh(x, vectors=False)
    outside = (w < band.m - tol) | (w > band.M + tol)
    if not outside.any():
        return len(w), None
    first = int(np.flatnonzero(outside.reshape(len(w), -1).any(axis=1))[0])
    return first, _band_report(w[first], band, tol)


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
    streams' seeds are hashed for the whole block at once, and one reused
    generator is set to each stream's state in turn; the band maps, QR
    factorizations, sign fixes and reassemblies run once over the stack.
    Every matrix is bitwise the one :func:`random_spd` returns from the same
    stream state.
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
        bits = np.random.PCG64(0)
        gen = np.random.Generator(bits)
        for state, ut, gt in zip(_pcg64_states(seed, start, stop), u, g):
            bits.state = state
            for uk, gk in zip(ut, gt):
                gen.random(out=uk)
                gen.standard_normal(out=gk)
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
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words32(n: int) -> list:
    """Little-endian 32-bit words of ``n >= 0``, at least one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg64_states(seed: int, start: int, stop: int):
    """The ``PCG64.state`` of ``default_rng([seed, i])`` for each ``i`` in
    ``start .. stop - 1``.  Indices that share their words above the lowest
    are hashed together, as one ``(words, indices)`` ``uint32`` array.  One
    state dict is updated in place for each index, so set it before taking
    the next."""
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    seed_words = _words32(seed)
    first = start
    while first < stop:
        upper = first >> 32
        last = min(stop, (upper + 1) << 32)
        words = seed_words + [0] + (_words32(upper) if upper else [])
        entropy = np.empty((len(words), last - first), np.uint32)
        entropy[:] = np.array(words, np.uint32)[:, None]
        entropy[len(seed_words)] = np.arange(last - first) + (first & _MASK32)
        # per index: seed_hi, seed_lo, seq_hi, seq_lo, each from two words
        halves = np.ascontiguousarray(_seed_state_words(entropy).T, dtype="<u4").view("<u8")
        for s_hi, s_lo, q_hi, q_lo in halves.tolist():
            # pcg64_set_seed: inc = 2 seq + 1; state = (inc + seed) * MULT + inc
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
            pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            pcg["inc"] = inc
            yield state
        first = last


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
    with np.errstate(over="ignore", invalid="ignore"):
        return _symmetrize(_reassemble(w, _haar_frame(g), lambda t: t))
