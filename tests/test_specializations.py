"""Catalog statements that are specializations of one another, bit for bit.

The paper carries the operator Polya-Szego inequality from the geometric
mean to any operator mean, so several catalog entries are one formula at
fixed parameters: ``ps-1.1`` is ``mond2`` at sigma = #, ``t22-x`` is
``c23-x`` at p = 1, ``q2sq`` is ``q2`` at p = 2, and ``ragm`` and
``yamazaki`` share their left side.  Each identity is checked on seeded
inputs over four bands, two dimensions and three maps.

The built sides must agree bitwise.  Constants may differ by one ulp where
the catalog computes the same number by two float formulas, since rounding
can land the two on neighbouring floats: ``polya_szego_coeff`` is the
closed form ``(M + m) / (2 sqrt(Mm))``, while ``mp_alpha`` at # maximises
the ratio of sqrt to its chord on a grid refined by golden-section search,
and ``mp_gamma`` at f = g = identity maximises ``t / (t / alpha)``, which
is alpha only up to the rounding of the division.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

import opmeanlab as ol
from opmeanlab.statements import StatementConfig, get_statement, seeded_inputs

BANDS = {
    "1:2": ol.SpectralBand(1.0, 2.0),
    "0.5:2": ol.SpectralBand(0.5, 2.0),
    "1:4": ol.SpectralBand(1.0, 4.0),
    "0.4:3": ol.SpectralBand(0.4, 3.0),
}
#: Bands on which ``mp_alpha`` at # lands one ulp from the closed form.
ONE_ULP_BANDS = {"0.4:3"}
SEED = 1610
TRIALS = 8


def _maps(d: int) -> dict:
    return {
        "identity": ol.identity_map(),
        "trace": ol.normalized_trace(),
        "pinching": ol.pinching([[0, 2], [1]] if d == 3 else [[0], [1]]),
    }


CASES = [
    (band, d, phi)
    for band in BANDS
    for d in (2, 3)
    for phi in ("identity", "trace", "pinching")
]


def _build(statement_id: str, cfg: StatementConfig, x, consts=None):
    """Left side, right side and constants of ``statement_id`` at ``cfg``."""
    info = get_statement(statement_id)
    cfg = replace(cfg, statement_id=statement_id)
    k = info.constants(cfg, x.shape[-3]) if consts is None else consts
    lhs, rhs = info.build(cfg, k, x)
    return lhs, rhs, k


def _config(band: str, d: int, phi: str, **kw) -> StatementConfig:
    maps = _maps(d)
    return StatementConfig("ando", band=BANDS[band], phi=maps[phi], psi=maps[phi], dim=d, **kw)


def _inputs(cfg: StatementConfig, statement_id: str = "ando"):
    return seeded_inputs(StatementConfig(statement_id, band=cfg.band, dim=cfg.dim), SEED, 0, TRIALS)


def _assert_bitwise(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@pytest.mark.parametrize("band,d,phi", CASES)
def test_ps11_is_mond2_at_geometric(band, d, phi):
    cfg = _config(band, d, phi, sigma=ol.GEOMETRIC)
    x = _inputs(cfg)
    ps_lhs, ps_rhs, ps_k = _build("ps-1.1", cfg, x)
    mond_lhs, mond_rhs, mond_k = _build("mond2", cfg, x)
    _assert_bitwise(ps_lhs, mond_lhs)
    if ps_k == mond_k:
        _assert_bitwise(ps_rhs, mond_rhs)
    # with one constant for both, the right sides agree everywhere
    _assert_bitwise(ps_rhs, _build("mond2", cfg, x, consts=ps_k)[1])


@pytest.mark.parametrize("band", sorted(BANDS))
def test_alpha_at_geometric_is_polya_szego(band):
    alpha = ol.mp_alpha(ol.GEOMETRIC.h, BANDS[band])
    closed = ol.polya_szego_coeff(BANDS[band])
    assert _ulps(alpha, closed) == (1.0 if band in ONE_ULP_BANDS else 0.0)


@pytest.mark.parametrize("band", sorted(BANDS))
def test_gamma_at_identity_is_alpha(band):
    consts = ol.mp_gamma(ol.IDENTITY, ol.IDENTITY, ol.GEOMETRIC.h, BANDS[band])
    assert _ulps(consts.gamma, consts.alpha) <= 1.0


@pytest.mark.parametrize("letter", "abcd")
@pytest.mark.parametrize("band,d,phi", CASES)
def test_t22_is_c23_at_p_one(letter, band, d, phi):
    fns = (ol.power_function(0.5), ol.EXP_MINUS_ONE)
    cfg = _config(band, d, phi, f=fns[0], g=fns[1], sigma=ol.ARITHMETIC, p=1.0)
    x = _inputs(cfg)
    t22 = _build(f"t22-{letter}", cfg, x)
    c23 = _build(f"c23-{letter}", cfg, x)
    _assert_bitwise(t22[0], c23[0])
    _assert_bitwise(t22[1], c23[1])
    assert t22[2] == c23[2]


@pytest.mark.parametrize("band,d,phi", CASES)
def test_q2sq_is_q2_at_p_two(band, d, phi):
    cfg = _config(band, d, phi, p=2.0)
    x = _inputs(cfg)
    q2 = _build("q2", cfg, x)
    q2sq = _build("q2sq", cfg, x)
    _assert_bitwise(q2[0], q2sq[0])
    _assert_bitwise(q2[1], q2sq[1])
    assert q2[2] == q2sq[2]


@pytest.mark.parametrize("band,d,phi", CASES)
def test_ragm_and_yamazaki_share_their_left_side(band, d, phi):
    cfg = _config(band, d, phi)
    x = _inputs(cfg, "ragm")
    assert x.shape[-3] == cfg.n_matrices
    _assert_bitwise(_build("ragm", cfg, x)[0], _build("yamazaki", cfg, x)[0])
