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

from .symmat import SpectralBand

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


def kantorovich(band: SpectralBand) -> float:
    """Kantorovich constant ``(M + m)^2 / (4 M m)``; equals 1 iff m = M."""
    return (band.M + band.m) ** 2 / (4.0 * band.M * band.m)


def polya_szego_coeff(band: SpectralBand) -> float:
    """Square root of the Kantorovich constant, ``(M + m) / (2 sqrt(M m))``."""
    return (band.M + band.m) / (2.0 * math.sqrt(band.M * band.m))


def secant_coeffs(phi: Callable, a: float, b: float) -> tuple:
    """Chord coefficients ``(mu, nu)`` of ``phi`` over ``[a, b]``.

    The chord is ``t -> mu * t + nu`` interpolating ``phi`` at both
    endpoints: ``mu = (phi(b) - phi(a)) / (b - a)`` and
    ``nu = (b phi(a) - a phi(b)) / (b - a)``.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise DegenerateIntervalError(f"need a < b, got a={a!r}, b={b!r}")
    fa = float(phi(a))
    fb = float(phi(b))
    mu = (fb - fa) / (b - a)
    nu = (b * fa - a * fb) / (b - a)
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
    x = np.linspace(a, b, _GRID_POINTS)
    with np.errstate(all="ignore"):
        vals = np.asarray(num(x), dtype=float) / den(x)
    if not np.isfinite(vals).all():
        raise ValueError(not_finite)
    i = int(np.argmax(vals))
    lo = x[max(i - 1, 0)]
    hi = x[min(i + 1, _GRID_POINTS - 1)]
    ratio = lambda t: float(num(t)) / den(t)
    return max(float(vals[i]), _golden_max(ratio, float(lo), float(hi)))


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


def mp_alpha(h: Callable, band: SpectralBand) -> float:
    """Reverse constant for submultiplicative mean comparisons.

    The maximum of ``h(t) / (mu_h t + nu_h)`` over ``t`` in
    ``[m/M, M/m]``, where ``(mu_h, nu_h)`` is the chord of the representing
    function ``h`` on that interval.  Requires ``m < M``.
    """
    if not band.m < band.M:
        raise DegenerateIntervalError("band must have m < M")
    return chord_ratio_max(h, band.m / band.M, band.M / band.m)


def weighted_kantorovich(t: float, s: float, eps: float) -> float:
    """Weighted Kantorovich constant for endpoints ``0 < t < s`` and weight
    ``eps`` in (0, 1):

        ``eps^eps * (s - t) * (s t^eps - t s^eps)^(eps - 1)
        / ((1 - eps)^(eps - 1) * (s^eps - t^eps)^eps)``

    This closed form equals the chord-ratio maximum of ``x**eps`` over
    ``[t, s]``; at ``eps = 1/2`` it reduces to
    ``(sqrt(s) + sqrt(t)) / (2 (s t)^(1/4))``.
    """
    t, s, eps = float(t), float(s), float(eps)
    if not 0.0 < t < s:
        raise ValueError(f"need 0 < t < s, got t={t!r}, s={s!r}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"weight must lie in (0, 1), got {eps!r}")
    num = eps**eps * (s - t) * (s * t**eps - t * s**eps) ** (eps - 1.0)
    den = (1.0 - eps) ** (eps - 1.0) * (s**eps - t**eps) ** eps
    return num / den


def mp_gamma(f: Callable, g: Callable, h: Callable, band: SpectralBand) -> MPConstants:
    """Full calibration bundle for reverse two-function comparisons.

    Computes ``alpha`` for ``h`` on ``[m/M, M/m]``, the chord
    ``(mu_g, nu_g)`` of ``g`` on ``[m, M]``, and

        ``gamma = max over [m, M] of f(t) / (mu_g / alpha * t + nu_g)``.

    The corrected chord denominator must be positive at both band
    endpoints; otherwise :class:`NonpositiveChordError` is raised.
    """
    if not band.m < band.M:
        raise DegenerateIntervalError("band must have m < M")
    lo_h, hi_h = band.m / band.M, band.M / band.m
    mu_h, nu_h = secant_coeffs(h, lo_h, hi_h)
    alpha = mp_alpha(h, band)
    mu_g, nu_g = secant_coeffs(g, band.m, band.M)

    def denom(t):
        return (mu_g / alpha) * t + nu_g

    if denom(band.m) <= 0.0 or denom(band.M) <= 0.0:
        raise NonpositiveChordError(
            "alpha-corrected chord of g is not positive on the band"
        )
    gamma = _grid_golden_max(f, denom, band.m, band.M, "gamma ratio is not finite on the band")
    return MPConstants(
        mu_h=float(mu_h),
        nu_h=float(nu_h),
        alpha=float(alpha),
        mu_g=float(mu_g),
        nu_g=float(nu_g),
        gamma=float(gamma),
        band=band,
    )


def yamazaki_coeff(band: SpectralBand, n: int) -> float:
    """Kantorovich power ``K(m, M)^((n - 1) / 2)`` for ``n`` matrices.

    Integer exponents are computed by repeated multiplication so that, for
    example, the value at ``(m, M, n) = (1, 2, 5)`` is the exact square
    ``(9/8)^2``.  A power past the float range raises ``OverflowError``.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need at least two matrices, got n={n!r}")
    k = kantorovich(band)
    whole, rem = divmod(n - 1, 2)
    out = 1.0
    for _ in range(whole):
        out *= k
    if rem:
        out *= math.sqrt(k)
    if not math.isfinite(out):
        raise OverflowError(f"yamazaki coefficient K^({n - 1}/2) is not finite")
    return out
