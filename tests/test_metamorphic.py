"""Relations between two runs of the engine that hold today.

Orthogonal covariance: conjugating every input by one orthogonal ``Q``
conjugates each side of a statement at its default configuration (identity
maps) by ``Q``, so the gap keeps its spectrum.  Means are covariant, since
``Q (A σ B) Qᵀ = (Q A Qᵀ) σ (Q B Qᵀ)`` (Kubo & Ando, Math. Ann. 246, 1980),
and so are the spectral calculus and the input average.  Pinching and
compression do not commute with conjugation, so they are excluded.

Input permutation: the multi-matrix statements take the ALM mean and the
average of their inputs, and both are symmetric in them.

Swap: ``A σ B = B σ* A`` for the transpose σ* of σ, whose representing
function is ``t h(1/t)`` (Kubo & Ando), so the weighted means turn w into
1 − w.  Swapping the two inputs of a binary statement and transposing σ and
τ leaves its sides unchanged, and the constants too: M/m, K and the chord
ratio maximum of ``h`` on ``[m/M, M/m]`` are the same for σ*.

Band nesting: every constant of the catalog grows with the band, so on the
same inputs a wider band's gap is no smaller, and a trial that holds on the
inner band holds on the outer one.

Homogeneity (inputs and band scaled by a power of 4) is not tested here: it
fails today on verdicts, and waits for scale-free tolerances (ROADMAP item 2b).

The relations hold to ``TOL`` times the scale of the gap.
"""

import numpy as np
import pytest

from opmeanlab.kubo_ando import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    weighted_arithmetic,
    weighted_geometric,
    weighted_harmonic,
)
from opmeanlab.linmaps import identity_map, normalized_trace, pinching
from opmeanlab.statements import StatementConfig, catalog, get_statement, seeded_inputs
from opmeanlab.symmat import SpectralBand, _haar_frame, _loewner, _symmetrize

BAND = SpectralBand(1.0, 4.0)
DIMS = (2, 3, 4)
TRIALS = 20
ROTATIONS = 5
PERMUTATIONS = ((1, 0, 2), (0, 2, 1), (2, 0, 1))
TOL = 1e-12

#: Each mean with its transpose.
TRANSPOSES = (
    (GEOMETRIC, GEOMETRIC),
    (HARMONIC, HARMONIC),
    (ARITHMETIC, ARITHMETIC),
    (weighted_geometric(0.3), weighted_geometric(0.7)),
    (weighted_harmonic(0.25), weighted_harmonic(0.75)),
    (weighted_arithmetic(0.7), weighted_arithmetic(0.3)),
)
#: (band, dimension) of the swap relation's draws, and its maps at that dimension.
SWAP_DRAWS = ((SpectralBand(1.0, 4.0), 2), (SpectralBand(0.4, 3.0), 3))
SWAP_MAPS = {
    2: (identity_map(), normalized_trace(), pinching([(0,), (1,)])),
    3: (identity_map(), normalized_trace(), pinching([(0, 1), (2,)])),
}
BINARY = [info.statement_id for info in catalog() if not info.multi]

#: The inner band of the nesting relation and the wider bands around it.
INNER = SpectralBand(1.0, 2.0)
OUTER = (SpectralBand(0.8, 2.0), SpectralBand(1.0, 3.0), SpectralBand(0.5, 4.0))
NESTING_TRIALS = 64


def _gap_spectra(cfg, x):
    """Eigenvalues of right side minus left side over the stack ``x``."""
    info = get_statement(cfg.statement_id)
    lhs, rhs = info.build(cfg, info.constants(cfg, x.shape[-3]), x)
    return np.linalg.eigvalsh(rhs - lhs)


def _assert_same_spectra(moved, base):
    scale = np.maximum(1.0, np.abs(base).max(axis=-1, keepdims=True))
    assert np.all(np.abs(moved - base) <= TOL * scale), np.abs(moved - base).max()


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("statement_id", [info.statement_id for info in catalog()])
def test_gap_spectrum_is_orthogonally_covariant(statement_id, dim):
    cfg = StatementConfig(statement_id, band=BAND, dim=dim)
    x = seeded_inputs(cfg, 0, 0, TRIALS)
    q = _haar_frame(np.random.default_rng(dim).standard_normal((ROTATIONS, 1, 1, dim, dim)))
    rotated = _symmetrize(q @ x @ np.swapaxes(q, -1, -2))
    _assert_same_spectra(_gap_spectra(cfg, rotated), _gap_spectra(cfg, x))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("statement_id", ["c-multi", "ragm", "yamazaki"])
def test_gap_spectrum_ignores_input_order(statement_id, dim):
    cfg = StatementConfig(statement_id, band=BAND, dim=dim, n_matrices=3)
    x = seeded_inputs(cfg, 0, 0, TRIALS)
    base = _gap_spectra(cfg, x)
    for order in PERMUTATIONS:
        _assert_same_spectra(_gap_spectra(cfg, x[:, list(order)]), base)


@pytest.mark.parametrize("statement_id", BINARY)
def test_swapping_inputs_transposes_the_means(statement_id):
    for band, dim in SWAP_DRAWS:
        x = seeded_inputs(StatementConfig(statement_id, band=band, dim=dim), 0, 0, TRIALS)
        swapped = x[:, ::-1]
        for phi in SWAP_MAPS[dim]:
            for sigma, transpose in TRANSPOSES:
                base = StatementConfig(statement_id, band=band, dim=dim, sigma=sigma, tau=sigma, phi=phi, psi=phi)
                moved = StatementConfig(statement_id, band=band, dim=dim, sigma=transpose, tau=transpose,
                                        phi=phi, psi=phi)
                _assert_same_spectra(_gap_spectra(moved, swapped), _gap_spectra(base, x))


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("statement_id", [info.statement_id for info in catalog()])
def test_a_wider_band_never_lowers_the_gap(statement_id, dim):
    x = seeded_inputs(StatementConfig(statement_id, band=INNER, dim=dim), 0, 0, NESTING_TRIALS)
    info = get_statement(statement_id)

    def verdict(band):
        cfg = StatementConfig(statement_id, band=band, dim=dim)
        return _loewner(*info.build(cfg, info.constants(cfg, x.shape[-3]), x))

    inner = verdict(INNER)
    for band in OUTER:
        outer = verdict(band)
        fall = inner.gap_min_eig - outer.gap_min_eig
        assert np.all(fall <= TOL * (1.0 + np.abs(inner.gap_min_eig))), (band, fall.max())
        assert np.all(outer.holds[inner.holds]), band
