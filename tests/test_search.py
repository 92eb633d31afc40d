import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import opmeanlab as ol
from opmeanlab import BandViolationError, SpectralBand, StatementConfig, SymMatrix, check
from opmeanlab import search, statements, symmat
from opmeanlab.search import Witness, falsify, refine, revalidate

Q2SQ = StatementConfig(statement_id="q2sq", band=SpectralBand(0.4, 3.0))


class TestFalsify:
    def test_theorem_yields_nothing(self):
        cfg = StatementConfig(statement_id="ando")
        assert falsify(cfg, budget=60, seed=0) is None

    def test_finds_violation_and_is_deterministic(self):
        w1 = falsify(Q2SQ, budget=150, seed=17)
        w2 = falsify(Q2SQ, budget=150, seed=17)
        assert w1 is not None and w2 is not None
        assert w1.trial_index == w2.trial_index
        assert w1.gap_min_eig == w2.gap_min_eig
        assert w1.band_checked
        assert w1.hypothesis_violations == ()

    def test_witness_revalidates(self):
        w = falsify(Q2SQ, budget=150, seed=17)
        verdict = revalidate(w)
        assert not verdict.holds
        assert_allclose(verdict.gap_min_eig, w.gap_min_eig, rtol=1e-12)
        assert_allclose(verdict.gap_det, w.gap_det, rtol=1e-12)

    def test_initial_matrices_take_slot_minus_one(self):
        kw = ol.KNOWN_WITNESSES["q2sq"]
        w = falsify(Q2SQ, budget=1, seed=0, initial_matrices=kw.matrices)
        assert w is not None
        assert w.trial_index == -1
        assert not w.band_checked
        assert_allclose(w.gap_det, -0.4110846919000982, rtol=1e-10)

    def test_out_of_scope_config_is_labeled(self):
        cfg = StatementConfig(statement_id="mond2", phi=ol.scale(2.0))
        w = falsify(cfg, budget=40, seed=1)
        if w is not None:
            assert any("unital" in s for s in w.hypothesis_violations)

    def test_validation(self):
        with pytest.raises(ValueError):
            falsify(Q2SQ, budget=-1, seed=0)
        with pytest.raises(ValueError):
            falsify(Q2SQ, budget=1, seed=-1)


class TestRefine:
    def test_zero_radius_or_steps_is_identity(self):
        w = falsify(Q2SQ, budget=150, seed=17)
        assert refine(w, steps=10, radius=0.0, seed=0) is w
        assert refine(w, steps=0, radius=0.1, seed=0) is w

    def test_never_weakens(self):
        w = falsify(Q2SQ, budget=150, seed=17)
        better = refine(w, steps=60, radius=0.05, seed=1)
        assert better.gap_min_eig <= w.gap_min_eig
        assert better.config is w.config
        verdict = revalidate(better)
        assert not verdict.holds

    def test_accepted_candidates_are_in_band(self):
        w = falsify(Q2SQ, budget=150, seed=17)
        better = refine(w, steps=60, radius=0.05, seed=1)
        if better is not w:
            assert better.band_checked
            report = ol.validate_band(better.matrices, Q2SQ.band)
            assert report.passed

    def test_clamped_walk_cannot_improve_out_of_band_witness(self):
        # the published pair has spectrum outside the nominal band, so every
        # clamped candidate is a different (weaker) input; the walk keeps
        # the original witness object
        kw = ol.KNOWN_WITNESSES["q2sq"]
        w = falsify(Q2SQ, budget=1, seed=0, initial_matrices=kw.matrices)
        assert refine(w, steps=40, radius=0.02, seed=3) is w

    def test_validation(self):
        w = falsify(Q2SQ, budget=150, seed=17)
        with pytest.raises(ValueError):
            refine(w, steps=-1, radius=0.1, seed=0)
        with pytest.raises(ValueError):
            refine(w, steps=1, radius=-0.1, seed=0)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_radius_is_rejected(self, radius):
        w = falsify(Q2SQ, budget=150, seed=17)
        with pytest.raises(ValueError, match="^radius must be finite, got"):
            refine(w, steps=3, radius=radius, seed=0)


class TestTrialWitnesses:
    """``run_trials`` keeps the same witness records ``falsify`` returns."""

    def test_trial_witness_fields(self):
        rep = ol.run_trials(Q2SQ, trials=150, seed=17)
        assert rep.witnesses
        for w in rep.witnesses:
            assert isinstance(w, Witness)
            assert w.config is Q2SQ
            assert w.seed == 17
            assert w.band_checked is True
            assert w.hypothesis_violations == ()

    def test_refine_and_revalidate_take_a_trial_witness(self):
        w = ol.run_trials(Q2SQ, trials=150, seed=17).witnesses[0]
        verdict = revalidate(w)
        assert not verdict.holds
        assert (verdict.gap_min_eig, verdict.gap_det) == (w.gap_min_eig, w.gap_det)
        better = refine(w, steps=60, radius=0.05, seed=1)
        assert better.gap_min_eig <= w.gap_min_eig
        assert better.config is Q2SQ
        assert not revalidate(better).holds

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("budget", [150, 2 * statements._BLOCK + 50])
    def test_falsify_is_the_worst_trial_witness(self, dim, budget):
        cfg = dataclasses.replace(Q2SQ, dim=dim)
        w = falsify(cfg, budget=budget, seed=17)
        kept = ol.run_trials(cfg, trials=budget, seed=17).witnesses[0]
        assert (w.trial_index, w.gap_min_eig, w.gap_det) == (kept.trial_index, kept.gap_min_eig, kept.gap_det)
        assert [m.data.tobytes() for m in w.matrices] == [m.data.tobytes() for m in kept.matrices]


def _reference_clamp(arr, band):
    sym = (arr + arr.T) / 2.0
    w, q = np.linalg.eigh(sym)
    w = np.clip(w, band.m, band.M)
    return SymMatrix((q * w) @ q.T)


def _reference_refine(witness, steps, radius, seed, accepted=None, candidates=None):
    """The walk one ``check`` per step, as ``refine`` took it before it
    evaluated windows of steps; the accepted steps and every candidate's
    bytes go to ``accepted`` and ``candidates`` if given."""
    cfg = witness.config
    rng = np.random.default_rng(seed)
    best = witness
    for step in range(steps):
        candidate = []
        for m in best.matrices:
            bump = rng.standard_normal(m.data.shape)
            candidate.append(_reference_clamp(m.data + radius * bump, cfg.band))
        if candidates is not None:
            candidates.append(np.array([m.data for m in candidate]).tobytes())
        verdict = check(cfg, candidate, skip_band_check=False, enforce_hypotheses=False)
        if not verdict.holds and verdict.gap_min_eig < best.gap_min_eig:
            best = Witness(
                config=cfg,
                matrices=tuple(candidate),
                gap_min_eig=verdict.gap_min_eig,
                gap_det=verdict.gap_det,
                seed=witness.seed,
                trial_index=witness.trial_index,
                band_checked=True,
                hypothesis_violations=witness.hypothesis_violations,
            )
            if accepted is not None:
                accepted.append(step)
    return best


def _windows(accepted, steps):
    """(first step, size, accepted step or None) of each window ``refine``
    evaluates, given the steps the walk accepts."""
    out, step, width = [], 0, search._FIRST_WINDOW
    while step < steps:
        size = min(width, steps - step)
        hit = next((a for a in accepted if step <= a < step + size), None)
        out.append((step, size, hit))
        if hit is None:
            step, width = step + size, min(2 * width, statements._BLOCK)
        else:
            step, width = hit + 1, search._FIRST_WINDOW
    return out


def _bits(w):
    return (
        w.gap_min_eig.hex(),
        w.gap_det.hex(),
        [m.data.tobytes() for m in w.matrices],
        w.trial_index,
        w.band_checked,
        w.hypothesis_violations,
    )


def _assert_same_walk(witness, steps, radius, seed):
    want = _reference_refine(witness, steps, radius, seed)
    got = refine(witness, steps, radius, seed)
    assert _bits(got) == _bits(want)
    assert (got is witness) == (want is witness)
    return got


# (config, falsify budget, falsify seed, bundled witness to start from)
_WALKS = {
    "q2sq-d2": (Q2SQ, 150, 17, None),
    "q2sq-d3": (dataclasses.replace(Q2SQ, dim=3), 150, 4, None),
    "Q": (StatementConfig("Q", band=ol.KNOWN_WITNESSES["Q"].band), 100, 2, "Q"),
    "q2-p2": (StatementConfig("q2", band=ol.KNOWN_WITNESSES["q2"].band, p=2.0), 100, 3, "q2"),
    "c-multi-n3": (
        StatementConfig("c-multi", band=SpectralBand(0.4, 3.0), psi=ol.scale(0.05), n_matrices=3),
        20,
        1,
        None,
    ),
}


class TestRefineWindows:
    """``refine`` against the one-step-at-a-time walk, bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", list(_WALKS))
    def test_matches_the_step_loop(self, name, seed):
        cfg, budget, falsify_seed, known = _WALKS[name]
        initial = ol.KNOWN_WITNESSES[known].matrices if known else None
        w = falsify(cfg, budget, falsify_seed, initial_matrices=initial)
        steps = 30 if cfg.statement_id == "c-multi" else 80
        _assert_same_walk(w, steps, 0.05, seed)

    def test_acceptances_on_window_boundaries(self):
        w = falsify(Q2SQ, budget=150, seed=17)
        accepted = []
        _reference_refine(w, 120, 0.05, 37, accepted=accepted)
        windows = _windows(accepted, 120)
        assert any(hit == first + size - 1 for first, size, hit in windows)
        assert any(hit == first and size > search._FIRST_WINDOW for first, size, hit in windows)
        _assert_same_walk(w, 120, 0.05, 37)

    def test_long_walk_reaches_full_windows(self):
        w = falsify(Q2SQ, budget=150, seed=17)
        accepted = []
        _reference_refine(w, 700, 0.02, 2, accepted=accepted)
        assert any(size == statements._BLOCK and hit is not None for _, size, hit in _windows(accepted, 700))
        _assert_same_walk(w, 700, 0.02, 2)
        kw = ol.KNOWN_WITNESSES["q2sq"]
        out_of_band = falsify(Q2SQ, budget=1, seed=0, initial_matrices=kw.matrices)
        assert _assert_same_walk(out_of_band, 300, 0.02, 3) is out_of_band

    @pytest.mark.parametrize("seed", [0, 1, 35])
    def test_single_step(self, seed):
        w = falsify(Q2SQ, budget=150, seed=17)
        _assert_same_walk(w, 1, 0.05, seed)
        assert refine(w, 0, 0.05, seed) is w

    @pytest.mark.parametrize(
        "matrices",
        [
            lambda w: w.matrices + w.matrices[:1],
            lambda w: (w.matrices[0], ol.random_spd(3, Q2SQ.band, rng=0)),
            lambda w: (),
        ],
        ids=["three-matrices", "mixed-dimensions", "no-matrices"],
    )
    def test_malformed_witness_raises_the_same_error(self, matrices):
        w = falsify(Q2SQ, budget=150, seed=17)
        bad = dataclasses.replace(w, matrices=matrices(w))
        with pytest.raises(ValueError) as want:
            _reference_refine(bad, 5, 0.05, 0)
        with pytest.raises(ValueError) as got:
            refine(bad, 5, 0.05, 0)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def _spy_candidates(monkeypatch):
    """Bytes of every candidate stack ``refine`` band-checks."""
    seen = []
    original = search._first_out_of_band

    def spy(x, band):
        seen.extend(group.tobytes() for group in x)
        return original(x, band)

    monkeypatch.setattr(search, "_first_out_of_band", spy)
    return seen


def _flag_out_of_band(monkeypatch, target):
    """Make the band check reject the one candidate with bytes ``target``."""
    original = symmat._first_out_of_band

    def flagging(x, band):
        hits = [i for i, group in enumerate(x) if group.tobytes() == target]
        if not hits:
            return original(x, band)
        edge = SpectralBand(band.M, band.M)
        return hits[0], symmat._band_report(np.linalg.eigvalsh(x[hits[0]]), edge, 0.0)

    monkeypatch.setattr(statements, "_first_out_of_band", flagging)
    monkeypatch.setattr(search, "_first_out_of_band", flagging)


def _fail_builder(monkeypatch, target):
    """Make the q2sq builder raise on the one candidate with bytes ``target``."""
    info = statements.get_statement("q2sq")

    def build(cfg, k, x):
        for group in x.reshape((-1,) + x.shape[-3:]):
            if group.tobytes() == target:
                raise RuntimeError(f"builder failed on {group[0, 0, 0]!r}")
        return info.build(cfg, k, x)

    monkeypatch.setitem(statements._CATALOG, "q2sq", dataclasses.replace(info, build=build))


class TestRefineErrors:
    """A window that raises is re-run one step at a time, so the step that
    raises and its error are those of the step loop; a candidate after the
    window's first acceptance is never the one that raises."""

    def _walk(self):
        w = falsify(Q2SQ, budget=150, seed=17)
        accepted, candidates = [], []
        _reference_refine(w, 120, 0.05, 37, accepted=accepted, candidates=candidates)
        return w, accepted, candidates

    @pytest.mark.parametrize("fail", [_flag_out_of_band, _fail_builder], ids=["band", "builder"])
    def test_same_step_raises(self, fail, monkeypatch):
        w, accepted, candidates = self._walk()
        # the first step after an acceptance, and one inside a later window
        for step in (accepted[0] + 1, accepted[1] - 3):
            with monkeypatch.context() as patch:
                fail(patch, candidates[step])
                error = BandViolationError if fail is _flag_out_of_band else RuntimeError
                with pytest.raises(error) as want:
                    _reference_refine(w, 120, 0.05, 37)
                with pytest.raises(error) as got:
                    refine(w, 120, 0.05, 37)
                assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("fail", [_flag_out_of_band, _fail_builder], ids=["band", "builder"])
    def test_one_step_walk_raises(self, fail, monkeypatch):
        # a window of one that raises has no shorter window to fall back on
        w = falsify(Q2SQ, budget=150, seed=17)
        candidates = []
        _reference_refine(w, 1, 0.05, 37, candidates=candidates)
        fail(monkeypatch, candidates[0])
        error = BandViolationError if fail is _flag_out_of_band else RuntimeError
        with pytest.raises(error) as want:
            _reference_refine(w, 1, 0.05, 37)
        with pytest.raises(error) as got:
            refine(w, 1, 0.05, 37)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("fail", [_flag_out_of_band, _fail_builder], ids=["band", "builder"])
    def test_discarded_candidate_does_not_raise(self, fail, monkeypatch):
        w, accepted, candidates = self._walk()
        with monkeypatch.context() as patch:
            seen = _spy_candidates(patch)
            refine(w, 120, 0.05, 37)
        discarded = [c for c in seen if c not in set(candidates)]
        assert discarded
        fail(monkeypatch, discarded[0])
        _assert_same_walk(w, 120, 0.05, 37)
