import numpy as np
import pytest
from numpy.testing import assert_allclose

import opmeanlab as ol
from opmeanlab import SpectralBand, SymMatrix
from opmeanlab.kubo_ando import _alm, _binary_mean


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

    def test_monotone_flag_is_advisory(self):
        # h(t) = (2 - t) clipped positive fails monotonicity but passes the
        # two hard checks, so the report is flagged yet still "passed".
        h = ol.RepresentingFunction(kind="custom", handle=lambda t: np.maximum(2.0 - t, 0.1))
        report = ol.validate_representing(h)
        assert report.passed
        assert not report.monotone_ok
        assert report.worst_margin < 0
        assert report.witness is not None


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


class TestBetweenness:
    def test_catalog_symmetric_means_are_between(self):
        for desc in (ol.ARITHMETIC, ol.GEOMETRIC, ol.HARMONIC):
            assert ol.is_between_harmonic_arithmetic(desc.h)

    def test_skewed_weights_are_not(self):
        assert not ol.is_between_harmonic_arithmetic(ol.weighted_geometric(0.9).h)
        assert not ol.is_between_harmonic_arithmetic(ol.weighted_arithmetic(0.1).h)


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
