import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import opmeanlab as ol
from opmeanlab import symmat
from opmeanlab import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    SpectralBand,
    SpectrumDomainError,
    SymMatrix,
)


class TestSymMatrix:
    def test_symmetrizes_bitwise(self):
        m = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
        assert m.data[0, 1] == m.data[1, 0] == 1.0
        assert m.data.flags.writeable is False

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            SymMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_entries_whose_sum_overflows(self):
        # 1.5e308 + 1.5e308 used to be stored as inf after a warning
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            SymMatrix([[1.5e308, 0.0], [0.0, 1.5e308]])

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionMismatchError):
            SymMatrix([1.0, 2.0])

    def test_helpers(self):
        assert_allclose(SymMatrix.identity(3).data, np.eye(3))
        assert_allclose(SymMatrix.diagonal([1.0, 2.0]).data, np.diag([1.0, 2.0]))

    def test_numpy_interop(self):
        m = SymMatrix([[2.0, 0.0], [0.0, 2.0]])
        assert np.trace(m) == 4.0


class TestEig:
    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(0)
        a = ol.random_spd(4, SpectralBand(0.5, 3.0), rng=rng)
        dec = ol.eig_sym(a)
        w, q = dec.eigenvalues, dec.eigenvectors
        assert np.all(np.diff(w) >= 0)
        assert_allclose(q @ q.T, np.eye(4), atol=1e-12)
        assert_allclose((q * w) @ q.T, a.data, atol=1e-12)

    def test_apply_scalar_roundtrip(self):
        a = ol.random_spd(3, SpectralBand(1.0, 2.0), rng=1)
        root = ol.apply_scalar(a, np.sqrt)
        assert_allclose(root.data @ root.data, a.data, atol=1e-12)

    def test_apply_scalar_nonfinite_output(self):
        a = SymMatrix.diagonal([1.0, -4.0])
        with pytest.raises(SpectrumDomainError, match="undefined") as info:
            ol.apply_scalar(a, np.sqrt)
        # a plain float, not a numpy scalar repr
        assert str(info.value) == "scalar function is undefined at eigenvalue -4.0"


class TestCongruence:
    def test_permutation(self):
        a = SymMatrix.diagonal([1.0, 2.0])
        swap = [[0.0, 1.0], [1.0, 0.0]]
        assert_allclose(ol.congruence(a, swap).data, np.diag([2.0, 1.0]))

    def test_rectangular(self):
        a = SymMatrix.diagonal([1.0, 2.0, 3.0])
        t = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert_allclose(ol.congruence(a, t).data, np.diag([1.0, 2.0]))

    def test_row_mismatch(self):
        a = SymMatrix.identity(2)
        with pytest.raises(DimensionMismatchError):
            ol.congruence(a, np.eye(3))


class TestLoewner:
    def test_obvious_order(self):
        a = SymMatrix.identity(2)
        b = SymMatrix.diagonal([2.0, 3.0])
        v = ol.loewner_leq(a, b)
        assert v.holds
        assert_allclose(v.gap_min_eig, 1.0)
        assert_allclose(v.gap_det, 2.0)

    def test_violation_direction(self):
        a = SymMatrix.diagonal([2.0, 1.0])
        b = SymMatrix.identity(2)
        v = ol.loewner_leq(a, b)
        assert not v.holds
        assert_allclose(v.gap_min_eig, -1.0)

    def test_default_tolerance_scales(self):
        a = SymMatrix.identity(2)
        b = SymMatrix.diagonal([100.0, 100.0])
        v = ol.loewner_leq(a, b)
        assert_allclose(v.tol_used, 1e-9 * 101.0)

    def test_explicit_tolerance(self):
        a = SymMatrix.diagonal([1.0 + 1e-7, 1.0])
        b = SymMatrix.identity(2)
        assert not ol.loewner_leq(a, b).holds
        assert ol.loewner_leq(a, b, tol=1e-6).holds

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ol.loewner_leq(SymMatrix.identity(2), SymMatrix.identity(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_gap_determinant_overflows(self):
        # both gap eigenvalues are finite, their product is not
        b = SymMatrix.diagonal([1e160, 1e161])
        with pytest.raises(OverflowError, match="^gap determinant is not finite$"):
            ol.loewner_leq(SymMatrix.identity(2), b)


def test_op_norm_is_largest_abs_eigenvalue():
    m = SymMatrix.diagonal([-3.0, 2.0])
    assert ol.op_norm(m) == 3.0


class TestSpectralBand:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralBand(0.0, 1.0)
        with pytest.raises(ValueError):
            SpectralBand(2.0, 1.0)
        with pytest.raises(ValueError):
            SpectralBand(1.0, np.inf)
        band = SpectralBand(1.0, 1.0)
        assert band.ratio == 1.0

    def test_band_of_known_pair(self):
        # Frozen from the eigensolver on the published pair: the quadratic
        # formula for the larger 2x2 gives the same digits.
        x, y = ol.KNOWN_WITNESSES["Q"].matrices
        band = ol.spectral_band_of([x, y])
        assert_allclose(band.m, 0.007818815628568683, rtol=1e-12)
        assert_allclose(band.M, 0.790351028979399, rtol=1e-12)

    def test_band_of_rejects_nonpd(self):
        bad = SymMatrix.diagonal([1.0, -0.5])
        with pytest.raises(NotPositiveDefiniteError):
            ol.spectral_band_of([SymMatrix.identity(2), bad])

    def test_band_of_needs_input(self):
        with pytest.raises(ValueError):
            ol.spectral_band_of([])

    def test_validate_band_reports_offenders(self):
        mats = [SymMatrix.diagonal([1.0, 2.0]), SymMatrix.diagonal([0.5, 1.5])]
        report = ol.validate_band(mats, SpectralBand(1.0, 2.0))
        assert not report.passed
        assert report.checks[0].ok
        assert not report.checks[1].ok
        assert_allclose(report.checks[1].offending, [0.5])
        assert "matrix 1" in report.offending_summary()

    def test_validate_band_tolerance(self):
        mats = [SymMatrix.diagonal([1.0 - 1e-12, 2.0])]
        assert ol.validate_band(mats, SpectralBand(1.0, 2.0)).passed

    def test_published_witnesses_drift_outside_nominal_bands(self):
        for sid in ("Q", "q2sq"):
            kw = ol.KNOWN_WITNESSES[sid]
            assert not ol.validate_band(kw.matrices, kw.band).passed


class TestRandomSpd:
    def test_deterministic_given_seed(self):
        band = SpectralBand(0.5, 2.0)
        a = ol.random_spd(4, band, rng=123)
        b = ol.random_spd(4, band, rng=123)
        assert np.array_equal(a.data, b.data)

    def test_spectrum_inside_band(self):
        band = SpectralBand(0.3, 1.7)
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = np.linalg.eigvalsh(ol.random_spd(5, band, rng=rng).data)
            assert w[0] >= band.m - 1e-10
            assert w[-1] <= band.M + 1e-10

    def test_pinned_hits_both_edges(self):
        band = SpectralBand(0.5, 2.5)
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = np.linalg.eigvalsh(ol.random_spd(4, band, pinned=True, rng=rng).data)
            assert_allclose(w[0], band.m, atol=1e-10)
            assert_allclose(w[-1], band.M, atol=1e-10)

    def test_dim_validation(self):
        with pytest.raises(DimensionMismatchError):
            ol.random_spd(0, SpectralBand(1.0, 2.0))

    def test_pin_flag_and_generator_are_keyword_only(self):
        # a generator passed third used to become the pin flag
        with pytest.raises(TypeError):
            ol.random_spd(2, SpectralBand(1.0, 2.0), np.random.default_rng(7))


def _reference_draw(dim, band, count, seed, start, stop):
    """The seeded draw as one ``default_rng([seed, i])`` per trial: per
    matrix a pin flag, ``uniform`` eigenvalues (sorted and pinned to the
    band edges if flagged), then a Gaussian matrix."""
    w = np.empty((stop - start, count, dim))
    g = np.empty((stop - start, count, dim, dim))
    for t in range(stop - start):
        gen = np.random.default_rng([seed, start + t])
        for k in range(count):
            pinned = gen.random() < 0.5
            w[t, k] = gen.uniform(band.m, band.M, size=dim)
            if pinned:
                w[t, k].sort()
                w[t, k, 0] = band.m
                w[t, k, -1] = band.M
            gen.standard_normal(out=g[t, k])
    return symmat._conjugate_spectra(w, g)


class TestRandomSpdTrials:
    @pytest.mark.parametrize(
        "band", [SpectralBand(0.99, 1.01), SpectralBand(1e-3, 1e3)], ids=["narrow", "wide"]
    )
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**100])
    def test_matches_per_trial_generators(self, seed, band):
        for dim in range(1, 6):
            for count in range(6):
                for start, stop in [(0, 3), (2**32 - 2, 2**32 + 1)]:
                    got = symmat.random_spd_trials(dim, band, count, seed, start, stop)
                    want = _reference_draw(dim, band, count, seed, start, stop)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    def test_long_index_range(self):
        band = SpectralBand(0.4, 3.0)
        got = symmat.random_spd_trials(3, band, 2, 11, 2**64 - 150, 2**64 + 150)
        assert got.tobytes() == _reference_draw(3, band, 2, 11, 2**64 - 150, 2**64 + 150).tobytes()

    @pytest.mark.parametrize(
        "dim, start, error, message",
        [
            (0, 0, DimensionMismatchError, "^dimension must be at least 1$"),
            (2, -1, ValueError, "^trial indices must be nonnegative$"),
        ],
        ids=["dim-0", "start-minus-1"],
    )
    def test_bad_dimension_or_start_is_rejected(self, dim, start, error, message):
        with pytest.raises(error, match=message):
            symmat.random_spd_trials(dim, SpectralBand(1.0, 2.0), 2, 0, start, 4)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            symmat.random_spd_trials(2, SpectralBand(1.0, 2.0), 2, -1, 0, 4)


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        (3, 3),
        elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
)
def test_eig_reconstructs_arbitrary_symmetric(entries):
    m = SymMatrix(entries)
    dec = ol.eig_sym(m)
    rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
    assert_allclose(rebuilt, m.data, atol=1e-10)
