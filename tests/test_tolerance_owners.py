"""Each tolerance policy is decided by one owner: patching the owner's constant
moves every path that applies the policy."""

import numpy as np
import pytest

import opmeanlab as ol
from opmeanlab import NotPositiveDefiniteError, SpectralBand, StatementConfig, SymMatrix, functions, symmat
from opmeanlab.kubo_ando import _alm3_floats

#: Eigenvalues above the default floor and at or below the patched one.
THIN = SymMatrix.diagonal([0.3, 1.0])


def _floor_paths():
    thin3 = SymMatrix.diagonal([0.3, 1.0, 2.0])
    only_scaled = ol.convex_combination([(1.0, ol.scale(0.4))])
    return {
        "cholesky-mean": ("A", lambda: ol.mean(ol.GEOMETRIC, thin3, SymMatrix.identity(3))),
        "closed-form": ("A", lambda: ol.mean(ol.GEOMETRIC, THIN, SymMatrix.identity(2))),
        "alm-float-level": (
            "A",
            lambda: ol.alm_mean([THIN, SymMatrix.identity(2), SymMatrix.diagonal([2.0, 2.0])]),
        ),
        "unitalize": ("map image of the identity", lambda: ol.unitalize(only_scaled, dim=2)),
    }


@pytest.mark.parametrize("path", list(_floor_paths()))
def test_every_floor_path_reads_the_owner(path, monkeypatch):
    operand, call = _floor_paths()[path]
    call()  # clear of the default floor
    monkeypatch.setattr(symmat, "PD_FLOOR", 0.5)
    with pytest.raises(NotPositiveDefiniteError, match=rf"^{operand} has smallest .* at or below floor 0\.5$"):
        call()


def test_float_level_guard_reads_the_owner(monkeypatch):
    # eigenvalues 0.8 and up clear a floor of 0.5, but not twice it
    tuples = np.stack([np.diag([0.8, 1.0]), np.eye(2), np.diag([2.0, 3.0])])[None]
    assert _alm3_floats(tuples, 1e-12, 1000) is not None
    monkeypatch.setattr(symmat, "PD_FLOOR", 0.5)
    assert _alm3_floats(tuples, 1e-12, 1000) is None


def test_every_order_slack_reads_the_owner(monkeypatch):
    a, b = SymMatrix.diagonal([1.0, 1.5]), SymMatrix.diagonal([1.2, 1.8])
    band = SpectralBand(1.0, 2.0)

    def tolerances():
        return (
            ol.loewner_leq(a, b).tol_used,
            ol.validate_band([a, b], band).tol,
            ol.check(StatementConfig("ando", band=band), [a, b]).tol,
        )

    before = tolerances()
    monkeypatch.setattr(symmat, "_ORDER_SLACK", 1e-6)
    after = tolerances()
    assert all(new == pytest.approx(1000.0 * old, rel=1e-12) for old, new in zip(before, after))


def test_every_monotonicity_verdict_reads_the_owner(monkeypatch):
    fn = ol.custom_scalar("t^1.5", lambda t: t**1.5)
    h = ol.custom_mean("t^1.5", lambda t: t**1.5).h
    assert not ol.is_operator_monotone(fn)
    assert not ol.validate_representing(h).monotone_ok
    monkeypatch.setattr(functions, "_LOEWNER_TOL", np.inf)
    assert ol.is_operator_monotone(fn)
    assert ol.validate_representing(h).monotone_ok
