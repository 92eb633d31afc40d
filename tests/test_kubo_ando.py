import numpy as np
import pytest
from numpy.testing import assert_allclose

import opmeanlab as ol
from opmeanlab import SpectralBand, SymMatrix
from opmeanlab import kubo_ando
from opmeanlab.kubo_ando import _FLOAT_LEVEL_MAX, _alm, _alm3_floats, _binary_mean, _geometric_floats


def spd_pair(seed, band=SpectralBand(0.5, 2.0), dim=3):
    rng = np.random.default_rng(seed)
    return ol.random_spd(dim, band, rng=rng), ol.random_spd(dim, band, rng=rng)


def spd_tuple(seed, n, dim, band=SpectralBand(0.2, 5.0)):
    rng = np.random.default_rng(seed)
    return np.stack([ol.random_spd(dim, band, rng=rng).data for _ in range(n)])


def _reference_alm(arrays, tol=1e-12, max_iter=1000):
    """The ALM recursion one tuple and one binary mean at a time."""
    n = len(arrays)
    if n == 1:
        return arrays[0]
    if n == 2:
        return _binary_mean(np.sqrt, arrays[0], arrays[1])
    cur = list(arrays)
    for _ in range(max_iter):
        nxt = [
            _reference_alm([cur[j] for j in range(n) if j != i], tol, max_iter)
            for i in range(n)
        ]
        done = not any(
            float(np.linalg.norm(new - old)) > tol * (1.0 + float(np.linalg.norm(old)))
            for old, new in zip(cur, nxt)
        )
        cur = nxt
        if done:
            return sum(cur) / n
    raise ol.AlmConvergenceError("reference recursion did not converge", np.inf)


# Commuting diagonals this close together converge in about half the sweeps
# (21 against 41) of a random tuple drawn by spd_tuple.
FAST = np.stack([np.diag(v) for v in ([1.0, 4.0], [1.0, 4.000004], [1.000001, 4.0])])


class TestRepresentingFunctions:
    def test_normalization_everywhere(self):
        for desc in ol.catalog_means():
            assert_allclose(ol.representing_value(desc, 1.0), 1.0, atol=1e-12)

    def test_named_values(self):
        assert ol.representing_value(ol.ARITHMETIC, 3.0) == 2.0
        assert ol.representing_value(ol.GEOMETRIC, 4.0) == 2.0
        assert_allclose(ol.representing_value(ol.HARMONIC, 3.0), 1.5)
        assert_allclose(ol.representing_value(ol.weighted_arithmetic(0.25), 5.0), 2.0)
        assert_allclose(ol.representing_value(ol.weighted_geometric(0.25), 16.0), 2.0)
        # t / ((1-w) t + w) at t=3, w=1/4: 3 / (9/4 + 1/4) = 1.2
        assert_allclose(ol.representing_value(ol.weighted_harmonic(0.25), 3.0), 1.2)

    def test_weight_range_enforced(self):
        for factory in (
            ol.weighted_arithmetic,
            ol.weighted_geometric,
            ol.weighted_harmonic,
        ):
            with pytest.raises(ValueError):
                factory(0.0)
            with pytest.raises(ValueError):
                factory(1.0)

    def test_weighted_names_carry_weight(self):
        assert ol.weighted_geometric(0.25).name == "geometric:0.25"

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            ol.representing_value(ol.GEOMETRIC, 0.0)


class TestValidation:
    def test_catalog_passes(self):
        for desc in ol.catalog_means():
            report = ol.validate_representing(desc.h)
            assert report.passed, desc.name
            assert report.monotone_ok
            assert report.worst_margin >= -1e-9, desc.name

    def test_custom_mean_accepts_valid(self):
        def log_mean_h(t):
            t = np.asarray(t, dtype=float)
            near_one = np.isclose(t, 1.0)
            denom = np.where(near_one, 1.0, np.log(t))
            return np.where(near_one, 1.0, (t - 1.0) / denom)

        desc = ol.custom_mean("logmean", log_mean_h)
        a, b = spd_pair(5)
        m = ol.mean(desc, a, b)
        # the logarithmic mean sits between geometric and arithmetic
        lo = ol.mean(ol.GEOMETRIC, a, b)
        hi = ol.mean(ol.ARITHMETIC, a, b)
        assert ol.loewner_leq(lo, m).holds
        assert ol.loewner_leq(m, hi).holds

    def test_custom_mean_accepts_constant_handle(self):
        # h = 1 is the left-trivial mean A sigma B = A
        desc = ol.custom_mean("left", lambda t: 1.0)
        report = ol.validate_representing(desc.h)
        assert report.monotone_ok and report.worst_margin == 0.0
        a, b = spd_pair(6)
        assert_allclose(ol.mean(desc, a, b).data, a.data, rtol=1e-12, atol=1e-12)
        stack_a, stack_b = spd_tuple(8, 3, 2), spd_tuple(9, 3, 2)
        assert_allclose(_binary_mean(desc.h, stack_a, stack_b), stack_a, rtol=1e-12, atol=1e-12)

    def test_custom_mean_rejects_bad_normalization(self):
        with pytest.raises(ValueError, match="h\\(1\\)"):
            ol.custom_mean("twice", lambda t: 2.0 * t)

    def test_custom_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            ol.custom_mean("dip", lambda t: t - 0.5)

    def test_undefined_representing_value_prints_plain_float(self):
        h = ol.RepresentingFunction(kind="custom", handle=lambda t: np.where(t > 2.0, np.nan, t))
        a, b = SymMatrix.identity(2), SymMatrix.diagonal([1.0, 3.0])
        with pytest.raises(ol.SpectrumDomainError) as info:
            ol.mean(ol.MeanDescriptor("partial", h), a, b)
        assert str(info.value) == "representing function undefined at eigenvalue 3.0"

    def test_monotone_flag_is_advisory(self):
        # h(t) = (2 - t) clipped positive fails monotonicity but passes the
        # two hard checks, so the report is flagged yet still "passed".
        h = ol.RepresentingFunction(kind="custom", handle=lambda t: np.maximum(2.0 - t, 0.1))
        report = ol.validate_representing(h)
        assert report.passed
        assert not report.monotone_ok
        assert report.worst_margin < 0
        # a slope that is not positive refutes without an eigenvalue
        assert report.worst_margin == -np.inf


class TestBinaryMean:
    def test_commuting_diagonal_matches_scalar(self):
        a = SymMatrix.diagonal([1.0, 4.0])
        b = SymMatrix.diagonal([4.0, 1.0])
        g = ol.mean(ol.GEOMETRIC, a, b)
        assert_allclose(g.data, np.diag([2.0, 2.0]), atol=1e-12)

    def test_arithmetic_literal(self):
        a, b = spd_pair(2)
        m = ol.mean(ol.ARITHMETIC, a, b)
        assert_allclose(m.data, 0.5 * (a.data + b.data), atol=1e-12)

    def test_harmonic_literal(self):
        a, b = spd_pair(3)
        m = ol.mean(ol.HARMONIC, a, b)
        expect = 2.0 * np.linalg.inv(np.linalg.inv(a.data) + np.linalg.inv(b.data))
        assert_allclose(m.data, expect, atol=1e-11)

    def test_idempotence(self):
        a, _ = spd_pair(4)
        for desc in ol.catalog_means():
            m = ol.mean(desc, a, a)
            assert_allclose(m.data, a.data, atol=1e-11)

    def test_geometric_symmetry(self):
        a, b = spd_pair(6)
        assert_allclose(
            ol.mean(ol.GEOMETRIC, a, b).data,
            ol.mean(ol.GEOMETRIC, b, a).data,
            atol=1e-11,
        )

    def test_weighted_geometric_transposition(self):
        a, b = spd_pair(7)
        assert_allclose(
            ol.mean(ol.weighted_geometric(0.25), a, b).data,
            ol.mean(ol.weighted_geometric(0.75), b, a).data,
            atol=1e-11,
        )

    def test_congruence_invariance_of_geometric(self):
        a, b = spd_pair(8)
        rng = np.random.default_rng(9)
        t = rng.normal(size=(3, 3))
        t += 3.0 * np.eye(3)
        left = ol.congruence(ol.mean(ol.GEOMETRIC, a, b), t)
        right = ol.mean(
            ol.GEOMETRIC, ol.congruence(a, t), ol.congruence(b, t)
        )
        scale = max(ol.op_norm(left), 1.0)
        assert_allclose(left.data, right.data, atol=1e-9 * scale)

    def test_rejects_nonpd_input(self):
        a = SymMatrix.diagonal([1.0, -1.0])
        with pytest.raises(ol.NotPositiveDefiniteError):
            ol.mean(ol.GEOMETRIC, a, SymMatrix.identity(2))
        with pytest.raises(ol.NotPositiveDefiniteError):
            ol.mean(ol.GEOMETRIC, SymMatrix.identity(2), a)

    def test_dim_mismatch(self):
        with pytest.raises(ol.DimensionMismatchError):
            ol.mean(ol.ARITHMETIC, SymMatrix.identity(2), SymMatrix.identity(3))


def _congruence_h(t):
    """The geometric mean's representing function under a handle that the
    kernel does not recognize, so it takes the Cholesky path."""
    return np.sqrt(t)


def _mp_representing(h, t):
    """``h(t)`` for a catalog representing function, in mpmath arithmetic."""
    import mpmath

    w = None if h.weight is None else mpmath.mpf(h.weight)
    return {
        "arithmetic": lambda: (1 + t) / 2,
        "geometric": lambda: mpmath.sqrt(t),
        "harmonic": lambda: 2 * t / (1 + t),
        "weighted-arithmetic": lambda: (1 - w) + w * t,
        "weighted-geometric": lambda: t**w,
        "weighted-harmonic": lambda: t / ((1 - w) * t + w),
    }[h.kind]()


def _mp_means(a, b, hs):
    """``A^(1/2) h(A^(-1/2) B A^(-1/2)) A^(1/2)`` for every ``h`` in ``hs``,
    at 50 significant digits."""
    import mpmath

    with mpmath.workdps(50):
        w, q = mpmath.eigsy(mpmath.matrix(a.tolist()))
        half = q * mpmath.diag([mpmath.sqrt(x) for x in w]) * q.T
        inv_half = q * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * q.T
        c = inv_half * mpmath.matrix(b.tolist()) * inv_half
        wc, qc = mpmath.eigsy((c + c.T) / 2)
        means = []
        for h in hs:
            inner = qc * mpmath.diag([_mp_representing(h, x) for x in wc]) * qc.T
            means.append(np.array((half * inner * half).tolist(), dtype=float))
        return means


class TestKernelAccuracy:
    """The Cholesky congruence kernel and the 2x2 closed form against a
    50-digit oracle and against each other."""

    def test_against_mpmath_oracle(self):
        pytest.importorskip("mpmath")
        hs = [desc.h for desc in ol.catalog_means()]
        worst = 0.0
        for band in (SpectralBand(0.4, 3.0), SpectralBand(1e-2, 1e2)):
            for dim in range(2, 6):
                rng = np.random.default_rng(int(100 * dim + band.M))
                for _ in range(6):
                    a = ol.random_spd(dim, band, rng=rng).data
                    b = ol.random_spd(dim, band, rng=rng).data
                    for h, exact in zip(hs, _mp_means(a, b, hs)):
                        err = np.abs(_binary_mean(h, a, b) - exact).max() / np.abs(exact).max()
                        worst = max(worst, err)
        assert worst <= 5e-14

    def test_closed_form_matches_cholesky_path(self):
        for band in (SpectralBand(0.2, 5.0), SpectralBand(1e-2, 1e2)):
            a, b = spd_tuple(21, 40, 2, band), spd_tuple(22, 40, 2, band)
            for x, y in ((a, b), (a[0], b[0]), (a.reshape(4, 10, 2, 2), b.reshape(4, 10, 2, 2))):
                general = _binary_mean(_congruence_h, x, y)
                for h in (np.sqrt, ol.GEOMETRIC.h):
                    closed = _binary_mean(h, x, y)
                    assert closed.shape == general.shape
                    assert np.abs(closed - general).max() <= 1e-14 * np.abs(general).max()

    def test_entries_past_the_closed_form_range_take_the_cholesky_path(self):
        a, b = 1e160 * spd_tuple(23, 3, 2), 1e160 * spd_tuple(24, 3, 2)
        with np.errstate(all="ignore"):
            got = _binary_mean(np.sqrt, a, b)
        assert_allclose(got, _binary_mean(_congruence_h, a, b), rtol=1e-14)

    @pytest.mark.parametrize("h", [np.sqrt, ol.GEOMETRIC.h, _congruence_h, ol.HARMONIC.h])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_floor_errors_on_both_paths(self, h, dim):
        good = np.eye(dim)
        nearly_singular = np.diag([1.0] + [1e-14] * (dim - 1))
        indefinite = np.diag([1.0] + [-0.5] * (dim - 1))
        rng = np.random.default_rng(dim)
        a = ol.random_spd(dim, SpectralBand(0.5, 2.0), rng=rng).data
        w, q = np.linalg.eigh(a)
        half = (q * np.sqrt(w)) @ q.T
        # A^(-1/2) B A^(-1/2) = diag(1e-14, 1, ...)
        b = half @ np.diag([1e-14] + [1.0] * (dim - 1)) @ half
        stack = spd_tuple(25, 4, dim, SpectralBand(0.5, 2.0))
        for x, y in ((nearly_singular, good), (indefinite, good), (a, b)):
            with pytest.raises(ol.NotPositiveDefiniteError, match="at or below floor"):
                _binary_mean(h, x, y)
            # one bad pair fails a whole stack
            with pytest.raises(ol.NotPositiveDefiniteError, match="at or below floor"):
                _binary_mean(h, np.concatenate([stack, x[None]]), np.concatenate([stack, y[None]]))


class TestBetweenness:
    def test_catalog_symmetric_means_are_between(self):
        for desc in (ol.ARITHMETIC, ol.GEOMETRIC, ol.HARMONIC):
            assert ol.is_between_harmonic_arithmetic(desc.h)

    def test_skewed_weights_are_not(self):
        assert not ol.is_between_harmonic_arithmetic(ol.weighted_geometric(0.9).h)
        assert not ol.is_between_harmonic_arithmetic(ol.weighted_arithmetic(0.1).h)

    def test_non_finite_function_is_not(self):
        h = kubo_ando.RepresentingFunction("custom", handle=lambda t: np.where(t > 1e3, np.inf, np.sqrt(t)))
        assert not ol.is_between_harmonic_arithmetic(h)


class TestAlm:
    def test_two_matrices_match_binary(self):
        a, b = spd_pair(10)
        g = ol.alm_mean([a, b])
        assert_allclose(g.data, ol.mean(ol.GEOMETRIC, a, b).data, atol=1e-11)

    def test_commuting_diagonal_family(self):
        mats = [
            SymMatrix.diagonal([1.0, 8.0]),
            SymMatrix.diagonal([2.0, 1.0]),
            SymMatrix.diagonal([4.0, 1.0]),
        ]
        g = ol.alm_mean(mats)
        assert_allclose(g.data, np.diag([2.0, 2.0]), atol=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        band = SpectralBand(0.5, 2.0)
        mats = [ol.random_spd(3, band, rng=rng) for _ in range(3)]
        g0 = ol.alm_mean(mats)
        g1 = ol.alm_mean([mats[2], mats[0], mats[1]])
        assert_allclose(g0.data, g1.data, atol=1e-9)

    def test_single_matrix(self):
        a, _ = spd_pair(13)
        assert_allclose(ol.alm_mean([a]).data, a.data)

    def test_single_matrix_is_returned_bitwise(self):
        a, _ = spd_pair(13)
        assert ol.alm_mean([a]).data.tobytes() == a.data.tobytes()

    def test_single_matrix_below_floor_raises(self):
        # as the two-matrix mean does; the single matrix used to come back indefinite
        message = r"^A has smallest eigenvalue -1.000000e\+00, at or below floor 1e-13$"
        with pytest.raises(ol.NotPositiveDefiniteError, match=message):
            ol.alm_mean([SymMatrix([[-1.0, 0.0], [0.0, 2.0]])])

    def test_iteration_cap(self):
        diagonal = [
            SymMatrix.diagonal([1.0, 8.0]),
            SymMatrix.diagonal([2.0, 1.0]),
            SymMatrix.diagonal([4.0, 1.0]),
        ]
        # at n = 4 the n = 3 level fails first
        for mats in (diagonal, [SymMatrix(a) for a in spd_tuple(3, 4, 2)]):
            with pytest.raises(ol.AlmConvergenceError) as err:
                ol.alm_mean(mats, max_iter=1)
            assert 0 < err.value.residual < np.inf


    @pytest.mark.parametrize(
        "mats, error, message",
        [
            ([], ValueError, "^need at least one matrix$"),
            (
                [SymMatrix.identity(2), SymMatrix.identity(3)],
                ol.DimensionMismatchError,
                "^all matrices must share one dimension$",
            ),
        ],
        ids=["empty", "mixed-dimensions"],
    )
    def test_malformed_inputs_are_rejected(self, mats, error, message):
        with pytest.raises(error, match=message):
            ol.alm_mean(mats)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_iteration_cap_below_one_is_rejected(self, cap):
        mats = [SymMatrix(a) for a in spd_tuple(5, 3, 2)]
        with pytest.raises(ValueError, match="max_iter"):
            ol.alm_mean(mats, max_iter=cap)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stopping_norm_overflow(self, dim):
        # past about 1e154 the Frobenius norms overflow; inf > inf used to
        # stop the sweep after one pass, 3% off the scaled mean at d = 2
        mats = [SymMatrix(1e160 * a) for a in spd_tuple(31, 3, dim)]
        with pytest.raises(OverflowError, match="stopping norm"):
            ol.alm_mean(mats)

    @pytest.mark.parametrize("n, dim", [(3, d) for d in range(2, 6)] + [(4, 2), (4, 3)])
    def test_determinant_identity(self, n, dim):
        # det G = prod det(A_i)^(1/n) for the ALM mean
        for k in range(2):
            arrays = spd_tuple(500 + 10 * n + dim + 100 * k, n, dim)
            got = np.linalg.det(ol.alm_mean([SymMatrix(a) for a in arrays]).data)
            want = np.prod(np.linalg.det(arrays) ** (1.0 / n))
            assert abs(got - want) <= 1e-12 * want


class TestStackedAlm:
    def test_matches_list_recursion_bitwise(self):
        corpus = [(3, dim, 3) for dim in range(2, 6)] + [(4, 2, 2)]
        for n, dim, count in corpus:
            for k in range(count):
                arrays = spd_tuple(1000 * n + 10 * dim + k, n, dim)
                got = ol.alm_mean([SymMatrix(a) for a in arrays]).data
                want = SymMatrix(_reference_alm(list(arrays))).data
                assert got.tobytes() == want.tobytes(), (n, dim, k)

    def test_each_tuple_of_a_stack_converges_on_its_own(self):
        slow = spd_tuple(7, 3, 2)
        with pytest.raises(ol.AlmConvergenceError):
            _alm(slow[None], 1e-12, 30)
        _alm(FAST[None], 1e-12, 30)
        stacked = _alm(np.stack([FAST, slow, FAST]), 1e-12, 1000)
        for tup, got in zip((FAST, slow, FAST), stacked):
            assert got.tobytes() == _alm(tup[None], 1e-12, 1000)[0].tobytes()

    def test_residual_covers_only_unconverged_tuples(self):
        slow = spd_tuple(7, 3, 2)
        with pytest.raises(ol.AlmConvergenceError) as alone:
            _alm(slow[None], 1e-12, 30)
        with pytest.raises(ol.AlmConvergenceError) as stacked:
            _alm(np.stack([FAST, slow]), 1e-12, 30)
        assert stacked.value.residual == alone.value.residual > 0

    def test_binary_kernel_on_a_stack_matches_single_pairs(self):
        a, b = spd_tuple(11, 5, 3), spd_tuple(12, 5, 3)
        for desc in ol.catalog_means():
            stacked = _binary_mean(desc.h, a, b)
            for i in range(5):
                assert stacked[i].tobytes() == _binary_mean(desc.h, a[i], b[i]).tobytes()


class TestStackedAlmOnStackedPath(TestStackedAlm):
    """The stacked-ALM tests again, with the small stacks that the float
    level would otherwise take kept on the stacked sweep."""

    @pytest.fixture(autouse=True)
    def _stacked(self, monkeypatch):
        monkeypatch.setattr(kubo_ando, "_FLOAT_LEVEL_MAX", 0)


BANDS = [
    SpectralBand(1.0, 2.0),
    SpectralBand(0.4, 3.0),
    SpectralBand(1e-2, 1e2),
    SpectralBand(1.0, 1.0001),
]


def _on_stacked_path(call):
    """``call()`` with every ALM level on the stacked sweep."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kubo_ando, "_FLOAT_LEVEL_MAX", 0)
        return call()


def _both_paths(tuples, tol=1e-12):
    """``_alm`` of ``tuples`` as it runs, small ``n = 3`` levels in floats,
    and with every level stacked."""

    def run():
        return _alm(tuples, tol, 1000)

    return run(), _on_stacked_path(run)


def _raised(tuples, max_iter=1000):
    """What ``_alm`` raises on ``tuples`` on each path, as ``(type, message,
    residual)``."""

    def run():
        with pytest.raises(Exception) as err:
            _alm(tuples, 1e-12, max_iter)
        return err.type, str(err.value), getattr(err.value, "residual", None)

    return run(), _on_stacked_path(run)


class TestFloatLevel:
    """The n = 3 level of 2x2 tuples in Python floats against the stacked
    sweep: bitwise the same means, errors, messages and residuals."""

    @pytest.mark.parametrize("band", BANDS, ids=str)
    @pytest.mark.parametrize("clear", [kubo_ando._CLEAR, 1.0])
    def test_n3_bitwise_up_to_the_crossover(self, monkeypatch, band, clear):
        # a gap of 1.0 makes every stopping decision a close call, and a close
        # call hands the level back to the stacked sweep
        monkeypatch.setattr(kubo_ando, "_CLEAR", clear)
        for count in range(1, _FLOAT_LEVEL_MAX + 2):
            tuples = np.stack([spd_tuple(100 * count + k, 3, 2, band) for k in range(count)])
            if count <= _FLOAT_LEVEL_MAX:
                assert (_alm3_floats(tuples, 1e-12, 1000) is None) == (clear == 1.0)
            floats, stacked = _both_paths(tuples)
            assert floats.tobytes() == stacked.tobytes(), count

    @pytest.mark.parametrize("band", BANDS, ids=str)
    def test_n4_bitwise_across_the_crossover(self, band):
        # four n = 3 sub-tuples per n = 4 tuple: 4 and 12 in floats, 16 stacked
        for count in (1, 3, 4):
            tuples = np.stack([spd_tuple(200 * count + k, 4, 2, band) for k in range(count)])
            floats, stacked = _both_paths(tuples)
            assert floats.tobytes() == stacked.tobytes(), count

    def test_other_tolerances_bitwise(self):
        tuples = np.stack([spd_tuple(300 + k, 3, 2) for k in range(5)])
        for tol in (1e-14, 1e-8, 1e-3, np.inf):
            floats, stacked = _both_paths(tuples, tol)
            assert floats.tobytes() == stacked.tobytes(), tol

    def test_signed_zeros_bitwise(self):
        # the stacked average adds to 0 first, which turns -0.0 into 0.0
        tuples = np.stack([FAST, FAST])
        tuples[:, :, 0, 1] = tuples[:, :, 1, 0] = -0.0
        floats, stacked = _both_paths(tuples)
        assert floats.tobytes() == stacked.tobytes()

    def test_floor_error_parity(self):
        tuples = np.stack([FAST, FAST, FAST])
        tuples[1, 0] = np.diag([1.0, 1e-14])
        assert _alm3_floats(tuples, 1e-12, 1000) is None
        floats, stacked = _raised(tuples)
        assert floats == stacked
        assert floats[0] is ol.NotPositiveDefiniteError

    def test_iteration_cap_parity(self):
        tuples = np.stack([FAST, spd_tuple(7, 3, 2), FAST])
        assert _alm3_floats(tuples, 1e-12, 30) is None
        floats, stacked = _raised(tuples, max_iter=30)
        assert floats == stacked
        assert floats[0] is ol.AlmConvergenceError and floats[2] > 0

    def test_overflow_parity(self):
        tuples = 1e160 * np.stack([spd_tuple(31, 3, 2), FAST])
        assert _alm3_floats(tuples, 1e-12, 1000) is None
        floats, stacked = _raised(tuples)
        assert floats == stacked
        assert floats[0] is OverflowError

    def test_infinite_closed_form_scale_parity(self):
        # A = B = 0.8e154 I: s = sqrt(tr + 2 sqrt(det A det B)) is inf in floats only
        a = [0.8e154, 0.0, 0.0, 0.8e154]
        assert _geometric_floats(a, a) is None
        tuples = np.stack([np.diag([0.8e154, 0.8e154])] * 3)[None]
        assert _alm3_floats(tuples, 1e-12, 1000) is None
        floats, stacked = _both_paths(tuples)
        assert floats.tobytes() == stacked.tobytes()

    def test_infinite_stopping_norm_parity(self):
        # entries near 0.9e154: the float-side step and size norms overflow
        b = np.array([[0.9e154, 0.89e154], [0.89e154, 0.9e154]])
        corner, off = b.copy(), b * [[1.0, 1.001], [1.001, 1.0]]
        corner[0, 0] *= 1.001
        tuples = np.stack([b, corner, off])[None]
        assert _alm3_floats(tuples, 1e-12, 1000) is None
        floats, stacked = _raised(tuples)
        assert floats == stacked
        assert floats[0] is OverflowError
