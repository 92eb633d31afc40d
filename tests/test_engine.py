"""The batched trial engine against the trial-by-trial loop it replaced.

``_reference_trials`` and ``_reference_falsify`` draw each trial with
``random_spd`` from its own stream and evaluate it with ``check`` alone,
as ``run_trials`` and ``falsify`` did before they evaluated blocks of
trials as stacks.  Every count, margin, gap and witness matrix must agree
to the bit, at the default block size and at a block size of 4, which puts
block boundaries inside every run.
"""

import numpy as np
import pytest

import opmeanlab as ol
from opmeanlab import (
    AlmConvergenceError,
    EigenConvergenceError,
    NotPositiveDefiniteError,
    SpectralBand,
    SpectrumDomainError,
    StatementConfig,
)
from opmeanlab import kubo_ando, statements
from opmeanlab.search import falsify


def _reference_draw(cfg, seed, i):
    rng = np.random.default_rng([seed, i])
    n = cfg.n_matrices if ol.get_statement(cfg.statement_id).multi else 2
    return [ol.random_spd(cfg.dim, cfg.band, pinned=bool(rng.random() < 0.5), rng=rng) for _ in range(n)]


def _reference_trials(cfg, trials, seed):
    """(violations, worst margin, witnesses) of the trial-by-trial loop."""
    worst = np.inf
    witnesses = []
    for i in range(trials):
        mats = _reference_draw(cfg, seed, i)
        verdict = ol.check(cfg, mats, enforce_hypotheses=False)
        worst = min(worst, verdict.gap_min_eig)
        if not verdict.holds:
            witnesses.append((i, verdict.gap_min_eig, verdict.gap_det, mats))
    return len(witnesses), float(worst), witnesses


def _reference_falsify(cfg, budget, seed):
    best = None
    for i in range(budget):
        mats = _reference_draw(cfg, seed, i)
        verdict = ol.check(cfg, mats, enforce_hypotheses=False)
        if not verdict.holds and (best is None or verdict.gap_min_eig < best[1]):
            best = (i, verdict.gap_min_eig, verdict.gap_det, mats)
    return best


def _bits(i, gap, det, mats):
    return (i, float(gap).hex(), float(det).hex(), [m.data.tobytes() for m in mats])


def _maps(dim):
    frame = np.linalg.qr(np.random.default_rng(dim).standard_normal((dim, dim)))[0][:, : dim - 1]
    return {
        "pinch": ol.pinching([list(range(dim // 2)), list(range(dim // 2, dim))]),
        "compress": ol.compression(frame),
        "convex": ol.convex_combination(
            [(0.4, ol.identity_map()), (0.6, ol.pinching([[i] for i in range(dim)]))]
        ),
    }


def _config(sid, dim, map_name):
    phi = _maps(dim)[map_name]
    return StatementConfig(
        statement_id=sid,
        band=SpectralBand(0.4, 3.0),
        phi=phi,
        psi=phi,
        f=ol.power_function(2.0 if sid == "mp-gamma" else 0.5),
        g=ol.power_function(0.5),
        p=2.0,
        dim=dim,
        n_matrices=3,
    )


def _trials_for(sid, dim):
    if ol.get_statement(sid).multi:
        return 9 if dim <= 3 else 5
    return 12


@pytest.fixture(params=[statements._BLOCK, 4], ids=["block-default", "block-4"])
def block(request, monkeypatch):
    monkeypatch.setattr(statements, "_BLOCK", request.param)
    return request.param


@pytest.mark.parametrize("map_name", ["pinch", "compress", "convex"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("sid", ol.statement_ids())
def test_engine_matches_the_trial_loop(sid, dim, map_name, block):
    cfg = _config(sid, dim, map_name)
    assert not ol.hypothesis_violations(cfg) and not ol.unitality_violations(cfg)
    trials, seed = _trials_for(sid, dim), 1000 * dim + len(sid)
    rep = ol.run_trials(cfg, trials, seed)
    violations, worst, witnesses = _reference_trials(cfg, trials, seed)
    assert (rep.counted, rep.rejected, rep.violations) == (trials, 0, violations)
    assert rep.worst_margin.hex() == worst.hex()
    assert [_bits(w.trial_index, w.gap_min_eig, w.gap_det, w.matrices) for w in rep.witnesses] == [
        _bits(*w) for w in witnesses
    ]
    found = falsify(cfg, trials, seed + 1)
    best = _reference_falsify(cfg, trials, seed + 1)
    if best is None:
        assert found is None
    else:
        assert _bits(found.trial_index, found.gap_min_eig, found.gap_det, found.matrices) == _bits(*best)


def test_long_run_crosses_default_blocks():
    cfg = StatementConfig(statement_id="q2sq", band=SpectralBand(0.4, 3.0))
    trials = statements._BLOCK * 2 + 37
    rep = ol.run_trials(cfg, trials, 5)
    violations, worst, witnesses = _reference_trials(cfg, trials, 5)
    assert rep.violations == violations > 0
    assert rep.worst_margin.hex() == worst.hex()
    assert [_bits(w.trial_index, w.gap_min_eig, w.gap_det, w.matrices) for w in rep.witnesses] == [
        _bits(*w) for w in witnesses
    ]
    assert any(w.trial_index >= statements._BLOCK for w in rep.witnesses)


def _force_alm_cap(monkeypatch, cap=2):
    original = kubo_ando._alm
    capped = lambda tuples, tol, max_iter: original(tuples, tol, cap)
    monkeypatch.setattr(kubo_ando, "_alm", capped)
    monkeypatch.setattr(statements, "_alm", capped)


def _break_eigh(monkeypatch):
    def eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "error, cfg, setup",
    [
        (NotPositiveDefiniteError, StatementConfig("ando", band=SpectralBand(1e-15, 1e-14)), None),
        (NotPositiveDefiniteError, StatementConfig("ps-1.1", band=SpectralBand(1e-15, 1e-14), dim=3), None),
        (
            SpectrumDomainError,
            StatementConfig("t22-a", band=SpectralBand(700.0, 800.0), f=ol.EXP_MINUS_ONE),
            None,
        ),
        (EigenConvergenceError, StatementConfig("q2", p=0.5), _break_eigh),
        (AlmConvergenceError, StatementConfig("ragm", dim=3), _force_alm_cap),
    ],
    ids=["not-pd-ando", "not-pd-ps11", "domain-t22a", "eigen", "alm"],
)
def test_failing_inputs_raise_the_same_error(error, cfg, setup, block, monkeypatch):
    if setup is not None:
        setup(monkeypatch)
    with pytest.raises(error):
        _reference_trials(cfg, 6, 3)
    with pytest.raises(error):
        ol.run_trials(cfg, 6, 3)
    with pytest.raises(error):
        falsify(cfg, 6, 3)
