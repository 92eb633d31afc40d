import numpy as np
import pytest
from numpy.testing import assert_allclose

import opmeanlab as ol
from opmeanlab import SpectralBand, SymMatrix


def spd(seed, dim=4, band=SpectralBand(0.5, 2.0)):
    return ol.random_spd(dim, band, rng=np.random.default_rng(seed))


class TestConstructors:
    def test_identity(self):
        a = spd(1)
        phi = ol.identity_map()
        assert_allclose(ol.apply_map(phi, a).data, a.data)
        assert phi.input_dim is None

    def test_compression(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        phi = ol.compression(v)
        a = SymMatrix.diagonal([1.0, 2.0, 3.0])
        assert_allclose(ol.apply_map(phi, a).data, np.diag([1.0, 2.0]))
        assert phi.input_dim == 3 and phi.output_dim == 2

    def test_compression_requires_isometry(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ol.compression(np.array([[1.0], [1.0]]))

    def test_pinching(self):
        phi = ol.pinching([[0, 1], [2]])
        a = SymMatrix(np.arange(9, dtype=float).reshape(3, 3))
        out = ol.apply_map(phi, a)
        assert out.data[0, 2] == 0.0 and out.data[1, 2] == 0.0
        assert_allclose(out.data[:2, :2], a.data[:2, :2])
        assert out.data[2, 2] == a.data[2, 2]

    def test_pinching_partition_validated(self):
        with pytest.raises(ValueError):
            ol.pinching([[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            ol.pinching([[0], [2]])

    def test_normalized_trace(self):
        phi = ol.normalized_trace()
        a = SymMatrix.diagonal([1.0, 3.0])
        out = ol.apply_map(phi, a)
        assert_allclose(out.data, 2.0 * np.eye(2))

    def test_convex_combination(self):
        phi = ol.convex_combination(
            [(0.5, ol.identity_map()), (0.5, ol.pinching([[0], [1]]))]
        )
        a = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert_allclose(ol.apply_map(phi, a).data, [[2.0, 0.5], [0.5, 2.0]])

    def test_convex_combination_weights(self):
        with pytest.raises(ValueError):
            ol.convex_combination([(0.7, ol.identity_map())])
        with pytest.raises(ValueError):
            ol.convex_combination(
                [(1.5, ol.identity_map()), (-0.5, ol.identity_map())]
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_compression_rejects_non_finite_frame(self, bad):
        # a NaN frame used to pass the orthonormality check, which compares NaN
        v = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, bad]])
        with pytest.raises(ValueError, match=f"compression frame must be finite, got entry {bad!r}"):
            ol.compression(v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_convex_combination_rejects_non_finite_weight(self, bad):
        # a NaN weight used to pass the sum check, since abs(nan - 1) > tol is False
        with pytest.raises(ValueError, match=f"convex weights must be nonnegative and finite, got {bad!r}"):
            ol.convex_combination([(bad, ol.identity_map())])
        with pytest.raises(ValueError, match="convex weights"):
            ol.convex_combination([(1.0, ol.identity_map()), (bad, ol.normalized_trace())])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ol.compression(np.ones(3)), r"isometry must be tall or square, got shape \(3,\)"),
            (lambda: ol.pinching([[0], []]), "pinching needs at least one nonempty block"),
            (lambda: ol.convex_combination([]), "convex combination needs at least one part"),
            (
                lambda: ol.convex_combination(
                    [(0.5, ol.pinching([[0], [1]])), (0.5, ol.pinching([[0], [1], [2]]))]
                ),
                "convex parts disagree on dimensions",
            ),
            (lambda: ol.unitalize(ol.normalized_trace()), "dim is required to unitalize"),
        ],
        ids=["compression-1d", "pinching-empty-block", "convex-empty", "convex-dimensions", "unitalize-no-dim"],
    )
    def test_malformed_construction_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_scale(self):
        phi = ol.scale(2.5)
        a = spd(2)
        assert_allclose(ol.apply_map(phi, a).data, 2.5 * a.data)
        with pytest.raises(ValueError):
            ol.scale(0.0)

    def test_apply_checks_dim(self):
        phi = ol.pinching([[0], [1]])
        with pytest.raises(ol.DimensionMismatchError):
            ol.apply_map(phi, SymMatrix.identity(3))


class TestUnitality:
    def test_classification(self):
        assert ol.is_unital(ol.identity_map(), dim=3)
        assert ol.is_unital(ol.pinching([[0], [1, 2]]))
        assert ol.is_unital(ol.normalized_trace(), dim=4)
        v = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 2)))[0]
        assert ol.is_unital(ol.compression(v))
        assert not ol.is_unital(ol.scale(3.0), dim=2)

    def test_positivity(self):
        a = spd(4)
        for phi in ol.catalog_maps(4, rng=5, include_nonunital=True):
            out = ol.apply_map(phi, a)
            assert np.linalg.eigvalsh(out.data)[0] > 0.0, phi.describe()

    def test_unitalize_scale(self):
        psi = ol.unitalize(ol.scale(4.0), dim=2)
        a = spd(5, dim=2)
        assert_allclose(ol.apply_map(psi, a).data, a.data, atol=1e-12)

    def test_unitalize_general(self):
        base = ol.convex_combination(
            [(0.5, ol.scale(2.0)), (0.5, ol.identity_map())]
        )
        assert not ol.is_unital(base, dim=3)
        psi = ol.unitalize(base, dim=3)
        assert ol.is_unital(psi, dim=3)
        # the corrected map is still positive
        out = ol.apply_map(psi, spd(6, dim=3))
        assert np.linalg.eigvalsh(out.data)[0] > 0.0

    def test_unitalize_identity_shortcut(self):
        phi = ol.identity_map()
        assert ol.unitalize(phi, dim=2) is phi

    def test_unitalize_rejects_singular_unit_image(self):
        # A hand-built sandwich whose frame kills one direction: Phi(I) is
        # singular, so no congruence can repair unitality.
        frame = np.diag([1.0, 0.0])
        broken = ol.MapDescriptor(
            kind="sandwich",
            label="unitalized(identity)",
            input_dim=2,
            output_dim=2,
            action=lambda x: frame @ x @ frame,
        )
        with pytest.raises(ol.NotPositiveDefiniteError):
            ol.unitalize(broken, dim=2)

    def test_sandwich_input_dim_from_frame(self):
        psi = ol.unitalize(ol.scale(1.0), dim=3)  # already unital: returns identity-ish
        base = ol.convex_combination([(0.5, ol.scale(2.0)), (0.5, ol.identity_map())])
        fixed = ol.unitalize(base, dim=3)
        assert fixed.input_dim == 3
        assert ol.is_unital(fixed)
        assert psi.input_dim is None or ol.is_unital(psi, dim=3)

    def test_overflowing_part_is_not_unital(self):
        # the first part's image of I overflows; before, its non-finite
        # check raised out of is_unital instead of answering
        phi = ol.convex_combination([(0.5, ol.scale(1.5e308)), (0.5, ol.identity_map())])
        assert ol.is_unital(phi, dim=2) is False

    def test_unital_convex_combination(self):
        phi = ol.convex_combination([(0.25, ol.normalized_trace()), (0.75, ol.pinching([[0], [1]]))])
        assert ol.is_unital(phi, dim=2) is True

    def test_empty_dimension_still_raises(self):
        with pytest.raises(ol.DimensionMismatchError):
            ol.is_unital(ol.identity_map(), dim=0)


class TestCatalog:
    def test_catalog_contents(self):
        maps = ol.catalog_maps(3, rng=7, include_nonunital=False)
        kinds = {m.kind for m in maps}
        assert "identity" in kinds
        assert "pinching" in kinds
        assert "compression" in kinds
        for m in maps:
            assert ol.is_unital(m, dim=3), m.describe()

    def test_catalog_nonunital_extras(self):
        maps = ol.catalog_maps(3, rng=7)
        assert any(not ol.is_unital(m, dim=3) for m in maps)

    def test_describe_is_printable(self):
        for m in ol.catalog_maps(3, rng=8, include_nonunital=True):
            assert isinstance(m.describe(), str) and m.describe()
