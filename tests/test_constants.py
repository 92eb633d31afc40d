import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import opmeanlab as ol
from opmeanlab import (
    DegenerateIntervalError,
    NonpositiveChordError,
    SpectralBand,
)

BAND_12 = SpectralBand(1.0, 2.0)


class TestKantorovich:
    def test_unit_band(self):
        assert ol.kantorovich(SpectralBand(1.0, 1.0)) == 1.0

    def test_exact_values(self):
        assert ol.kantorovich(BAND_12) == 1.125
        assert_allclose(ol.kantorovich(SpectralBand(0.4, 3.0)), 2.4083333333333328, rtol=1e-15)

    def test_scale_invariance(self):
        assert_allclose(
            ol.kantorovich(SpectralBand(0.7, 1.9)),
            ol.kantorovich(SpectralBand(7.0, 19.0)),
            rtol=1e-15,
        )

    def test_polya_szego_is_square_root(self):
        for band in (BAND_12, SpectralBand(0.3, 5.0), SpectralBand(2.0, 2.5)):
            assert_allclose(
                ol.polya_szego_coeff(band) ** 2, ol.kantorovich(band), rtol=1e-15
            )
        assert_allclose(ol.polya_szego_coeff(BAND_12), 3.0 / (2.0 * math.sqrt(2.0)), rtol=1e-15)


    @pytest.mark.parametrize("band", [(1.0, 2.0), (0.4, 3.0), (1e150, 1e151), (1e-150, 1e-149), (1e-100, 1e100)])
    def test_finite_values_are_the_float_formulas(self, band):
        m, M = band
        b = SpectralBand(m, M)
        assert ol.kantorovich(b) == (M + m) ** 2 / (4.0 * M * m)
        assert ol.polya_szego_coeff(b) == (M + m) / (2.0 * math.sqrt(M * m))

    @pytest.mark.parametrize(
        "name, constant",
        [("Kantorovich constant", ol.kantorovich), ("Polya-Szego coefficient", ol.polya_szego_coeff)],
    )
    @pytest.mark.parametrize("band", [(1e200, 1e201), (1e-200, 1e-199)])
    def test_band_outside_the_float_range_overflows(self, name, constant, band):
        # the float formulas overflow, divide by zero or return 0.0 here
        m, M = band
        with pytest.raises(OverflowError) as info:
            constant(SpectralBand(m, M))
        assert str(info.value) == f"{name} of band [{m!r}, {M!r}] is outside the float range"


class TestSecant:
    def test_recovers_affine(self):
        mu, nu = ol.secant_coeffs(lambda t: 3.0 * t - 1.0, 0.5, 2.0)
        assert_allclose([mu, nu], [3.0, -1.0], atol=1e-14)

    def test_sqrt_chord(self):
        mu, nu = ol.secant_coeffs(np.sqrt, 0.5, 2.0)
        expect = math.sqrt(2.0) / 3.0
        assert_allclose(mu, expect, rtol=1e-14)
        assert_allclose(nu, expect, rtol=1e-14)
        # interpolation at both endpoints
        assert_allclose(mu * 0.5 + nu, math.sqrt(0.5), rtol=1e-14)
        assert_allclose(mu * 2.0 + nu, math.sqrt(2.0), rtol=1e-14)

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateIntervalError):
            ol.secant_coeffs(np.sqrt, 2.0, 2.0)
        with pytest.raises(DegenerateIntervalError):
            ol.secant_coeffs(np.sqrt, 3.0, 1.0)


class TestChordRatioMax:
    def test_affine_ratio_is_one(self):
        assert_allclose(ol.chord_ratio_max(lambda t: 2.0 * t + 1.0, 1.0, 4.0), 1.0, rtol=1e-12)

    def test_convex_function_stays_below_chord(self):
        # x^2 touches its chord at the endpoints and dips below inside
        assert_allclose(ol.chord_ratio_max(lambda t: t**2, 1.0, 2.0), 1.0, rtol=1e-12)

    def test_sqrt_on_reciprocal_interval(self):
        # [m/M, M/m] for the band [1, 2]: the maximum ratio of sqrt to its
        # chord is the square-root reverse coefficient of that band
        got = ol.chord_ratio_max(np.sqrt, 0.5, 2.0)
        assert_allclose(got, ol.polya_szego_coeff(BAND_12), rtol=1e-10)

    def test_chord_must_be_positive(self):
        with pytest.raises(NonpositiveChordError):
            ol.chord_ratio_max(lambda t: t - 1.0, 0.5, 2.0)

    def test_ratio_must_be_finite(self):
        # finite at the endpoints, so the chord is fine; NaN inside
        phi = lambda t: np.where((t > 1.2) & (t < 1.8), np.nan, t)
        with pytest.raises(ValueError, match="^ratio is not finite on the interval$"):
            ol.chord_ratio_max(phi, 1.0, 2.0)


class TestMpAlpha:
    def test_geometric_matches_polya_szego(self):
        assert_allclose(
            ol.mp_alpha(ol.GEOMETRIC.h, BAND_12),
            ol.polya_szego_coeff(BAND_12),
            rtol=1e-9,
        )

    def test_harmonic_matches_kantorovich(self):
        # the maximal ratio of 2t/(1+t) to its chord on [1/2, 2] lands at
        # t = 1 and equals (m + M)^2 / (4 m M)
        assert_allclose(ol.mp_alpha(ol.HARMONIC.h, BAND_12), 1.125, rtol=1e-10)

    def test_arithmetic_is_exactly_one(self):
        assert_allclose(ol.mp_alpha(ol.ARITHMETIC.h, BAND_12), 1.0, rtol=1e-12)

    def test_degenerate_band(self):
        with pytest.raises(DegenerateIntervalError):
            ol.mp_alpha(ol.GEOMETRIC.h, SpectralBand(2.0, 2.0))


class TestWeightedKantorovich:
    def test_half_weight_closed_form(self):
        for t, s in ((1.0, 2.0), (0.4, 3.0), (0.9, 1.1)):
            expect = (math.sqrt(s) + math.sqrt(t)) / (2.0 * (s * t) ** 0.25)
            assert_allclose(ol.weighted_kantorovich(t, s, 0.5), expect, rtol=1e-12)

    def test_matches_chord_ratio_oracle(self):
        for t, s, eps in ((1.0, 2.0, 0.3), (0.5, 4.0, 0.7), (0.2, 0.9, 0.5), (1.0, 10.0, 0.9)):
            oracle = ol.chord_ratio_max(lambda x: x**eps, t, s)
            assert_allclose(ol.weighted_kantorovich(t, s, eps), oracle, rtol=1e-10)

    def test_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = rng.uniform(0.1, 2.0)
            s = t + rng.uniform(0.05, 3.0)
            eps = rng.uniform(0.05, 0.95)
            assert ol.weighted_kantorovich(t, s, eps) >= 1.0 - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            ol.weighted_kantorovich(2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            ol.weighted_kantorovich(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            ol.weighted_kantorovich(0.0, 2.0, 0.5)


class TestMpGamma:
    def test_identity_pair_collapses_to_alpha(self):
        consts = ol.mp_gamma(lambda t: t, lambda t: t, ol.GEOMETRIC.h, BAND_12)
        assert_allclose(consts.gamma, consts.alpha, rtol=1e-12)
        assert_allclose(consts.mu_g, 1.0, atol=1e-14)
        assert_allclose(consts.nu_g, 0.0, atol=1e-14)
        assert consts.band is BAND_12

    def test_chord_fields_match_secant(self):
        consts = ol.mp_gamma(lambda t: t**2, np.sqrt, ol.HARMONIC.h, SpectralBand(0.5, 2.0))
        mu, nu = ol.secant_coeffs(ol.HARMONIC.h, 0.25, 4.0)
        assert_allclose([consts.mu_h, consts.nu_h], [mu, nu], rtol=1e-14)
        assert consts.gamma > 0

    def test_point_band_is_degenerate(self):
        with pytest.raises(DegenerateIntervalError, match="band must have m < M"):
            ol.mp_gamma(lambda t: t, lambda t: t, ol.GEOMETRIC.h, SpectralBand(2.0, 2.0))

    def test_corrected_chord_must_stay_positive(self):
        with pytest.raises(NonpositiveChordError):
            ol.mp_gamma(lambda t: t, lambda t: 1.0 - 0.9 * t, ol.GEOMETRIC.h, BAND_12)

    def test_gamma_bounds_the_ratio_on_a_grid(self):
        f = lambda t: np.expm1(t)
        g = np.sqrt
        consts = ol.mp_gamma(f, g, ol.GEOMETRIC.h, BAND_12)
        t = np.linspace(1.0, 2.0, 2001)
        assert np.all(f(t) <= consts.gamma * ((consts.mu_g / consts.alpha) * t + consts.nu_g) + 1e-10)


class TestYamazakiCoeff:
    def test_exact_integer_power(self):
        assert ol.yamazaki_coeff(BAND_12, 5) == 1.265625

    def test_two_matrices_is_square_root(self):
        assert_allclose(ol.yamazaki_coeff(BAND_12, 2), math.sqrt(1.125), rtol=1e-15)

    def test_threshold_band_one_two(self):
        assert ol.yamazaki_coeff(BAND_12, 12) < 2.0
        assert ol.yamazaki_coeff(BAND_12, 13) >= 2.0

    def test_needs_two(self):
        with pytest.raises(ValueError):
            ol.yamazaki_coeff(BAND_12, 1)

    def test_power_past_the_float_range_overflows(self):
        # K(1, 2) = 9/8, and (9/8)^6000 is about 8.2e306
        assert 1e306 < ol.yamazaki_coeff(BAND_12, 12001) < np.inf
        with pytest.raises(OverflowError, match="not finite"):
            ol.yamazaki_coeff(BAND_12, 20000)

    def test_overflow_stops_at_the_first_infinite_product(self):
        # (9/8)^k is infinite from k of about 6,000 on; the loop stops there
        with pytest.raises(OverflowError, match="not finite"):
            ol.yamazaki_coeff(BAND_12, 10**12)


# The five bands of the criterion-5 grid, and the values mp_alpha and
# mp_gamma returned on them before mp_gamma shared chord_ratio_max's
# grid-plus-golden-section maximiser.  The constants calibrate every
# mond2/mp-gamma verdict, so they are pinned to the bit.
SWEEP_BANDS = [(1.0, 2.0), (0.5, 2.0), (1.0, 4.0), (2.0, 5.0), (0.8, 1.6)]

PINNED_ALPHA = {
    "geometric": ["0x1.0f876ccdf6cd9p+0", "0x1.4000000000000p+0", "0x1.4000000000000p+0",
                  "0x1.1b570f5ff3fedp+0", "0x1.0f876ccdf6cd9p+0"],
    "harmonic": ["0x1.2000000000001p+0", "0x1.8ffffffffffffp+0", "0x1.8ffffffffffffp+0",
                 "0x1.3999999999999p+0", "0x1.2000000000001p+0"],
    "arithmetic": ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
                   "0x1.0000000000001p+0", "0x1.0000000000000p+0"],
    "geometric:0.3": ["0x1.0cf80b26c0ae3p+0", "0x1.3491a723cc0f7p+0", "0x1.3491a723cc0f7p+0",
                      "0x1.16bc724f3799bp+0", "0x1.0cf80b26c0ae3p+0"],
    "arithmetic:0.7": ["0x1.0000000000002p+0", "0x1.0000000000002p+0", "0x1.0000000000002p+0",
                       "0x1.0000000000001p+0", "0x1.0000000000002p+0"],
}

PINNED_GAMMA = {
    ("identity", "identity", "geometric"): ["0x1.0f876ccdf6cd9p+0", "0x1.4000000000000p+0", "0x1.4000000000000p+0",
                                            "0x1.1b570f5ff3fedp+0", "0x1.0f876ccdf6cd9p+0"],
    ("power:2", "power:0.5", "harmonic"): ["0x1.833e4aa120959p+1", "0x1.dc5dde52e2642p+1", "0x1.50d79435e50d8p+3",
                                           "0x1.9320d81b10163p+3", "0x1.1516b98717970p+1"],
    ("expm1", "power:0.3", "arithmetic"): ["0x1.4c21323118f7bp+2", "0x1.4c21323118f7cp+2", "0x1.1ae48a13aeeb0p+5",
                                           "0x1.6bd5ecc254e83p+6", "0x1.b771dfd9d893dp+1"],
    ("power:0.5", "identity", "geometric"): ["0x1.0f876ccdf6cd9p+0", "0x1.c48c6001f0ac0p+0", "0x1.4000000000000p+0",
                                             "0x1.90b410d07f01ep-1", "0x1.2f9422c23c47dp+0"],
}


class TestPinnedSweepConstants:
    @pytest.mark.parametrize("name", sorted(PINNED_ALPHA))
    def test_mp_alpha(self, name):
        from opmeanlab.cli import parse_mean

        h = parse_mean(name).h
        got = [ol.mp_alpha(h, SpectralBand(m, M)).hex() for m, M in SWEEP_BANDS]
        assert got == PINNED_ALPHA[name]

    @pytest.mark.parametrize("combo", sorted(PINNED_GAMMA))
    def test_mp_gamma(self, combo):
        from opmeanlab.cli import parse_function, parse_mean

        f, g, sigma = parse_function(combo[0]), parse_function(combo[1]), parse_mean(combo[2])
        for (m, M), gamma in zip(SWEEP_BANDS, PINNED_GAMMA[combo]):
            consts = ol.mp_gamma(f, g, sigma.h, SpectralBand(m, M))
            assert consts.gamma.hex() == gamma
            assert consts.alpha.hex() == ol.mp_alpha(sigma.h, SpectralBand(m, M)).hex()
