"""Reverse-inequality constants.

All constants here bound how far an inequality can reverse over a spectral
band ``[m, M]``: the Kantorovich ratio ``(M + m)^2 / (4 M m)``, its square
root companion ``(M + m) / (2 sqrt(M m))``, chord (secant) coefficients of
a function over an interval, the chord-ratio maxima that calibrate the
two-function reverse comparisons, the weighted Kantorovich constant, and the
power-of-Kantorovich coefficient used by the multi-matrix reverse
arithmetic-geometric comparison.

Maxima are located on a dense grid and refined by golden-section search;
values are accurate to about 1e-10, far tighter than the 1e-6 comparison
tolerances used by the statement layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .symmat import SpectralBand, _values

__all__ = [
    "MPConstants",
    "DegenerateIntervalError",
    "NonpositiveChordError",
    "kantorovich",
    "polya_szego_coeff",
    "secant_coeffs",
    "chord_ratio_max",
    "mp_alpha",
    "weighted_kantorovich",
    "mp_gamma",
    "yamazaki_coeff",
]


class DegenerateIntervalError(ValueError):
    """An interval with distinct endpoints was required."""


class NonpositiveChordError(ValueError):
    """A chord denominator must stay positive on its interval."""


@dataclass(frozen=True)
class MPConstants:
    """Bundle of calibration constants for reverse comparisons over one band.

    ``mu_h, nu_h`` are the chord coefficients of the representing function
    ``h`` on ``[m/M, M/m]`` and ``alpha`` the maximal ratio of ``h`` to that
    chord; ``mu_g, nu_g`` are the chord coefficients of ``g`` on ``[m, M]``
    and ``gamma`` the resulting ratio bound for ``f`` against the
    alpha-corrected chord of ``g``.
    """

    mu_h: float
    nu_h: float
    alpha: float
    mu_g: float
    nu_g: float
    gamma: float
    band: SpectralBand


def _in_float_range(name: str, band: SpectralBand, formula: Callable) -> float:
    """``formula(M, m)`` in floats; ``OverflowError`` when that overflows, divides
    by zero or gives a value that is not finite and positive."""
    try:
        value = formula(band.M, band.m)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not 0.0 < value < math.inf:
        raise OverflowError(f"{name} of band [{band.m!r}, {band.M!r}] is outside the float range")
    return value


def kantorovich(band: SpectralBand) -> float:
    """Kantorovich constant ``(M + m)^2 / (4 M m)``; equals 1 iff m = M.
    Past the float range it raises ``OverflowError``."""
    return _in_float_range("Kantorovich constant", band, lambda M, m: (M + m) ** 2 / (4.0 * M * m))


def polya_szego_coeff(band: SpectralBand) -> float:
    """Square root of the Kantorovich constant, ``(M + m) / (2 sqrt(M m))``.
    Past the float range it raises ``OverflowError``."""
    return _in_float_range("Polya-Szego coefficient", band, lambda M, m: (M + m) / (2.0 * math.sqrt(M * m)))


def secant_coeffs(phi: Callable, a: float, b: float) -> tuple:
    """Chord coefficients ``(mu, nu)`` of ``phi`` over ``[a, b]``.

    The chord is ``t -> mu * t + nu`` interpolating ``phi`` at both
    endpoints: ``mu = (phi(b) - phi(a)) / (b - a)`` and
    ``nu = (b phi(a) - a phi(b)) / (b - a)``.  A chord that is not finite,
    from ``phi`` or from its products with the endpoints, raises ``ValueError``.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise DegenerateIntervalError(f"need a < b, got a={a!r}, b={b!r}")
    fa, fb = float(_values(phi, a)), float(_values(phi, b))
    mu = (fb - fa) / (b - a)
    nu = (b * fa - a * fb) / (b - a)
    if not (math.isfinite(mu) and math.isfinite(nu)):
        raise ValueError(f"chord of {getattr(phi, 'name', phi)} on [{a!r}, {b!r}] is not finite: "
                         f"phi(a) = {fa!r}, phi(b) = {fb!r}")
    return mu, nu


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Point count of the grid scan of a ratio maximum, and the bracket width at
#: which its golden-section refinement stops.
_GRID_POINTS = 10001
_REFINE_WIDTH = 1e-12


def _golden_max(fn: Callable, lo: float, hi: float) -> float:
    """Maximum value of a unimodal-enough ``fn`` on ``[lo, hi]``."""
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    fc = float(fn(c))
    fd = float(fn(d))
    best = max(fc, fd, float(fn(lo)), float(fn(hi)))
    for _ in range(400):
        if hi - lo <= _REFINE_WIDTH:
            break
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = float(fn(c))
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = float(fn(d))
        best = max(best, fc, fd)
    return best


def _grid_golden_max(num: Callable, den: Callable, a: float, b: float, not_finite: str) -> float:
    """Maximum of ``num(t) / den(t)`` over ``[a, b]``: a dense grid scan
    followed by golden-section refinement of the cell around the best grid
    point.  A non-finite grid value raises ``ValueError(not_finite)``.
    """
    ratio = lambda t: np.asarray(num(t), dtype=float) / den(t)
    x = np.linspace(a, b, _GRID_POINTS)
    vals = _values(ratio, x)
    if not np.isfinite(vals).all():
        raise ValueError(not_finite)
    i = int(np.argmax(vals))
    lo = x[max(i - 1, 0)]
    hi = x[min(i + 1, _GRID_POINTS - 1)]
    return max(float(vals[i]), _golden_max(lambda t: float(_values(ratio, t)), float(lo), float(hi)))


def chord_ratio_max(phi: Callable, a: float, b: float) -> float:
    """Maximum of ``phi(t) / (mu t + nu)`` over ``[a, b]``.

    ``(mu, nu)`` is the chord of ``phi`` on the same interval.  The chord
    must stay positive there (checked at the endpoints; the chord is
    affine, so that suffices).  The maximum comes from a dense grid scan
    followed by golden-section refinement of the bracketing cell.
    """
    mu, nu = secant_coeffs(phi, a, b)
    if mu * a + nu <= 0.0 or mu * b + nu <= 0.0:
        raise NonpositiveChordError(
            f"chord of {phi!r} is not positive on [{a!r}, {b!r}]"
        )
    return _grid_golden_max(phi, lambda t: mu * t + nu, a, b, "ratio is not finite on the interval")


def _ratio_interval(band: SpectralBand) -> tuple:
    """``(m/M, M/m)`` for ``m < M``; ``OverflowError`` when M/m is past the float range."""
    if not band.m < band.M:
        raise DegenerateIntervalError("band must have m < M")
    return band.m / band.M, _in_float_range("ratio M/m", band, lambda M, m: M / m)


def mp_alpha(h: Callable, band: SpectralBand) -> float:
    """Reverse constant for submultiplicative mean comparisons.

    The maximum of ``h(t) / (mu_h t + nu_h)`` over ``t`` in
    ``[m/M, M/m]``, where ``(mu_h, nu_h)`` is the chord of the representing
    function ``h`` on that interval.  Requires ``m < M`` and a finite M/m.
    """
    return chord_ratio_max(h, *_ratio_interval(band))


def weighted_kantorovich(t: float, s: float, eps: float) -> float:
    """Weighted Kantorovich constant for endpoints ``0 < t < s`` and weight
    ``eps`` in (0, 1):

        ``eps^eps * (s - t) * (s t^eps - t s^eps)^(eps - 1)
        / ((1 - eps)^(eps - 1) * (s^eps - t^eps)^eps)``

    This closed form equals the chord-ratio maximum of ``x**eps`` over
    ``[t, s]``; at ``eps = 1/2`` it reduces to
    ``(sqrt(s) + sqrt(t)) / (2 (s t)^(1/4))``.  Where the float formula
    cancels or overflows to a value that is not finite and positive, it
    raises ``ValueError``.
    """
    t, s, eps = float(t), float(s), float(eps)
    if not 0.0 < t < s:
        raise ValueError(f"need 0 < t < s, got t={t!r}, s={s!r}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"weight must lie in (0, 1), got {eps!r}")
    try:
        num = eps**eps * (s - t) * (s * t**eps - t * s**eps) ** (eps - 1.0)
        value = num / ((1.0 - eps) ** (eps - 1.0) * (s**eps - t**eps) ** eps)
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ValueError(f"weighted Kantorovich constant of [{t!r}, {s!r}] at eps={eps!r} cannot be computed in floats")
    return value


def mp_gamma(f: Callable, g: Callable, h: Callable, band: SpectralBand) -> MPConstants:
    """Full calibration bundle for reverse two-function comparisons.

    Computes ``alpha`` for ``h`` on ``[m/M, M/m]``, the chord
    ``(mu_g, nu_g)`` of ``g`` on ``[m, M]``, and

        ``gamma = max over [m, M] of f(t) / (mu_g / alpha * t + nu_g)``.

    The corrected chord denominator must be positive at both band
    endpoints; otherwise :class:`NonpositiveChordError` is raised.
    """
    mu_h, nu_h = secant_coeffs(h, *_ratio_interval(band))
    alpha = mp_alpha(h, band)
    mu_g, nu_g = secant_coeffs(g, band.m, band.M)

    def denom(t):
        return (mu_g / alpha) * t + nu_g

    if denom(band.m) <= 0.0 or denom(band.M) <= 0.0:
        raise NonpositiveChordError(
            "alpha-corrected chord of g is not positive on the band"
        )
    gamma = _grid_golden_max(f, denom, band.m, band.M, "gamma ratio is not finite on the band")
    return MPConstants(mu_h, nu_h, alpha, mu_g, nu_g, gamma, band)


def yamazaki_coeff(band: SpectralBand, n: int) -> float:
    """Kantorovich power ``K(m, M)^((n - 1) / 2)`` for ``n`` matrices.

    Integer exponents take ``O(log n)`` products by square-and-multiply, the
    products of repeated multiplication up to ``n = 8``: the value at
    ``(m, M, n) = (1, 2, 5)`` is the exact square ``(9/8)^2``.  A power past
    the float range raises ``OverflowError``.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need at least two matrices, got n={n!r}")
    k = kantorovich(band)
    whole, rem = divmod(n - 1, 2)
    out, square = 1.0, k
    while whole:
        if whole & 1:
            out *= square
        square *= square
        whole >>= 1
    if rem:
        out *= math.sqrt(k)
    if not math.isfinite(out):
        raise OverflowError(f"yamazaki coefficient K^({n - 1}/2) is not finite")
    return out
