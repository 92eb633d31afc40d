import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import opmeanlab as ol
from opmeanlab import symmat
from opmeanlab.kubo_ando import _alm, _binary_mean
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

    def test_array_copy_is_writable_and_unshared(self):
        m = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
        arr = np.array(m, copy=True)
        assert arr.flags.writeable and not np.shares_memory(arr, m.data)


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

    def test_apply_scalar_must_map_elementwise(self):
        total = ol.ScalarFunction("sum", lambda t: t.sum())
        with pytest.raises(SpectrumDomainError, match="^scalar function must map eigenvalues elementwise$"):
            ol.apply_scalar(SymMatrix.diagonal([1.0, 2.0]), total)


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

    @pytest.mark.parametrize("tol", [np.nan, -1.0, -np.inf])
    def test_tolerance_must_be_nonnegative(self, tol):
        with pytest.raises(ValueError, match="^tolerance must be a nonnegative number"):
            ol.loewner_leq(SymMatrix.identity(2), SymMatrix.identity(2), tol=tol)

    def test_infinite_tolerance_is_allowed(self):
        v = ol.loewner_leq(SymMatrix.diagonal([2.0, 1.0]), SymMatrix.identity(2), tol=np.inf)
        assert v.holds and v.tol_used == np.inf


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


def _emitting(word):
    """A ``PCG64`` whose next raw word is ``word`` and whose state after it is
    ``word``: increment 1 and no XSL-RR rotation."""
    bits = np.random.PCG64(0)
    inverse = pow(0x2360ED051FC65DA44385DF649FCCF645, -1, 2**128)
    state = {"state": (word - 1) * inverse % 2**128, "inc": 1}
    bits.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    return bits


def _record_array_blocks(monkeypatch):
    """Record ``(trials, redrawn)`` for each block drawn as arrays."""
    blocks, fill = [], symmat._fill_arrays

    def recording(u, g, starts, tables):
        rows = fill(u, g, starts, tables)
        blocks.append((len(u), len(rows)))
        return rows

    monkeypatch.setattr(symmat, "_fill_arrays", recording)
    return blocks


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

    @pytest.mark.parametrize("surplus", [-np.inf, np.inf], ids=["arrays", "loop"])
    @pytest.mark.parametrize("seed", [0, 2**32, 2**100])
    def test_both_paths_match_per_trial_generators(self, seed, surplus, monkeypatch):
        # the surplus bound patched so that every block takes one path
        assert symmat._ziggurat() is not None
        monkeypatch.setattr(symmat, "_ARRAY_SURPLUS", surplus)
        blocks = _record_array_blocks(monkeypatch)
        band = SpectralBand(0.4, 3.0)
        for dim in range(1, 7):
            for count in range(1, 7):
                for start, stop in [(0, 6), (2**32 - 3, 2**32 + 3), (2**64 - 3, 2**64 + 3)]:
                    got = symmat.random_spd_trials(dim, band, count, seed, start, stop)
                    assert got.tobytes() == _reference_draw(dim, band, count, seed, start, stop).tobytes()
        if surplus > 0:
            assert blocks == []
        else:
            # some blocks keep every trial, some redraw a few, some redraw all
            redrawn = {r for _, r in blocks}
            assert len(blocks) == 6 * 6 * 3 and {0, 6} <= redrawn and redrawn - {0, 6}

    def test_array_path_on_a_full_block(self, monkeypatch):
        blocks = _record_array_blocks(monkeypatch)
        band = SpectralBand(1e-3, 1e3)
        got = symmat.random_spd_trials(2, band, 2, 7, 2**64 - 100, 2**64 + 156)
        assert got.tobytes() == _reference_draw(2, band, 2, 7, 2**64 - 100, 2**64 + 156).tobytes()
        ((trials, redrawn),) = blocks
        assert trials == 256 and 0 < redrawn < 128

    @pytest.mark.parametrize("trials, arrays", [(256, True), (232, True), (43, False), (40, False)])
    def test_path_rule(self, trials, arrays, monkeypatch):
        # violation-search's blocks of binary statements at d = 2 go down the
        # array path; theorem-sweep's blocks of 40 stay on the loop
        blocks = _record_array_blocks(monkeypatch)
        symmat.random_spd_trials(2, SpectralBand(1.0, 2.0), 2, 3, 0, trials)
        assert bool(blocks) == arrays

    def test_table_probes_take_one_word(self):
        tables = symmat._ziggurat()
        assert tables.k[1] == 0 and 0.98 < tables.fast_share < 0.99
        for layer in np.flatnonzero(tables.k):
            for rabs in (1, int(tables.k[layer]) - 1):
                word = int(layer) | rabs << 9
                assert _emitting(word).random_raw() == word
                bits = _emitting(word)
                x = np.random.Generator(bits).standard_normal()
                assert bits.state["state"]["state"] == word, "more than one word"
                assert x == rabs * tables.w[layer]

    def test_failed_self_check_keeps_the_loop(self, monkeypatch):
        # a numpy whose normals differ from the tables' fast path
        calls, fill = [], symmat._fill_arrays

        def wrong(u, g, starts, tables):
            calls.append(len(u))
            rows = fill(u, g, starts, tables)
            g[:] = -g
            return rows

        monkeypatch.setattr(symmat, "_fill_arrays", wrong)
        symmat._ziggurat.cache_clear()
        try:
            assert symmat._ziggurat() is None
            band = SpectralBand(1.0, 2.0)
            got = symmat.random_spd_trials(2, band, 2, 3, 0, 256)
            assert got.tobytes() == _reference_draw(2, band, 2, 3, 0, 256).tobytes()
            assert calls == [64]
        finally:
            symmat._ziggurat.cache_clear()

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


_C = "A^-1/2 B A^-1/2"
_IMAGE = "map image of the identity"


def _put(x, stack):
    """``x``, or with ``stack`` the last of a stack behind three positive
    definite matrices of its size."""
    if not stack:
        return x
    rng = np.random.default_rng(5)
    good = [ol.random_spd(x.shape[-1], SpectralBand(0.5, 2.0), rng=rng).data for _ in range(3)]
    return np.stack(good + [x])


def _thin_c(dim):
    """A positive definite pair whose ``A^(-1/2) B A^(-1/2)`` is ``diag(1e-14, 1, ...)``."""
    a = ol.random_spd(dim, SpectralBand(0.5, 2.0), rng=np.random.default_rng(dim)).data
    w, q = np.linalg.eigh(a)
    half = (q * np.sqrt(w)) @ q.T
    return a, half @ np.diag([1e-14] + [1.0] * (dim - 1)) @ half


def _mean_site(h, a, b):
    return lambda stack: _binary_mean(h, _put(a, stack), _put(b, stack))


def _unit_image_site(stack):
    frame = np.diag([1.0, 0.0])
    if stack:
        # the floored calculus that unitalize runs, over a stack of images
        return symmat._floored(_put(frame, stack), lambda t: 1.0 / np.sqrt(t), _IMAGE)
    broken = ol.MapDescriptor("sandwich", "unitalized(identity)", 2, 2, lambda x: frame @ x @ frame)
    return ol.unitalize(broken, dim=2)


def _alm_one_site(stack):
    a = np.diag([-1.0, 2.0])
    if stack:
        return _alm(_put(a, stack)[:, None], 1e-12, 1000)
    return ol.alm_mean([SymMatrix(a)])


#: Every check of the positive definite floor: (operand, call(stack)).  The
#: geometric mean of 2 x 2 pairs takes the closed form, the harmonic mean
#: the Cholesky congruence.
FLOOR_SITES = {
    "closed-form-A": ("A", _mean_site(np.sqrt, np.diag([1.0, 1e-14]), np.eye(2))),
    "closed-form-C": (_C, _mean_site(np.sqrt, *_thin_c(2))),
    "cholesky-failure-A": ("A", _mean_site(ol.HARMONIC.h, np.diag([1.0, -0.5, -0.5]), np.eye(3))),
    "inverse-bound-A": ("A", _mean_site(ol.HARMONIC.h, np.diag([1.0, 1e-14, 1e-14]), np.eye(3))),
    "cholesky-C": (_C, _mean_site(ol.HARMONIC.h, *_thin_c(3))),
    "unitalize-image": (_IMAGE, _unit_image_site),
    "alm-one-matrix": ("A", _alm_one_site),
}


@pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
@pytest.mark.parametrize("site", list(FLOOR_SITES))
def test_floor_error_names_operand_and_floor(site, stack):
    operand, call = FLOOR_SITES[site]
    message = rf"^{re.escape(operand)} has smallest eigenvalue \S+, at or below floor 1e-13$"
    with pytest.raises(NotPositiveDefiniteError, match=message):
        call(stack)


def _failing_cholesky(a):
    # whether LAPACK's factorization of a matrix this ill-conditioned fails
    # depends on its rounding, so the tests force the failure
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def test_failed_factorization_above_the_floor_claims_no_floor(monkeypatch):
    monkeypatch.setattr(np.linalg, "cholesky", _failing_cholesky)
    with pytest.raises(NotPositiveDefiniteError) as err:
        ol.mean(ol.ARITHMETIC, SymMatrix.diagonal([1e-10, 1.0, 1e7]), SymMatrix.identity(3))
    assert str(err.value) == (
        "Cholesky factorization of A failed: smallest eigenvalue 1.000000e-10, largest 1.000000e+07"
    )
