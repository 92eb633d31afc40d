"""Relations between two runs of the engine that hold today.

Orthogonal covariance: conjugating every input by one orthogonal ``Q``
conjugates each side of a statement at its default configuration (identity
maps) by ``Q``, so the gap keeps its spectrum.  Means are covariant, since
``Q (A σ B) Qᵀ = (Q A Qᵀ) σ (Q B Qᵀ)`` (Kubo & Ando, Math. Ann. 246, 1980),
and so are the spectral calculus and the input average.  Pinching and
compression do not commute with conjugation, so they are excluded.

Input permutation: the multi-matrix statements take the ALM mean and the
average of their inputs, and both are symmetric in them.

Homogeneity (inputs and band scaled by a power of 4) is not tested here: it
fails today on verdicts, and waits for scale-free tolerances (ROADMAP item 2b).

Both relations hold to ``TOL`` times the scale of the gap.
"""

import numpy as np
import pytest

from opmeanlab.statements import StatementConfig, catalog, get_statement, seeded_inputs
from opmeanlab.symmat import SpectralBand, _haar_frame, _symmetrize

BAND = SpectralBand(1.0, 4.0)
DIMS = (2, 3, 4)
TRIALS = 20
ROTATIONS = 5
PERMUTATIONS = ((1, 0, 2), (0, 2, 1), (2, 0, 1))
TOL = 1e-12


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
