import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import opmeanlab as ol
from opmeanlab import (
    BandViolationError,
    SpectralBand,
    StatementConfig,
    SymMatrix,
    UnitalityError,
    UnknownStatementError,
)
from opmeanlab import statements

ALL_IDS = (
    "ando", "ps-1.1",
    "t22-a", "c23-a", "t22-b", "c23-b", "t22-c", "c23-c", "t22-d", "c23-d",
    "c-multi", "ragm", "yamazaki", "c27",
    "mond2", "mp-gamma", "hoa", "t210",
    "q2", "q2sq", "Q", "aahh", "add-reverse",
)


class TestCatalog:
    def test_ids_are_stable(self):
        assert ol.statement_ids() == ALL_IDS

    def test_every_entry_is_described(self):
        for info in ol.catalog():
            assert info.summary
            assert info.statement_id in ALL_IDS

    def test_multi_flags(self):
        multi = {i.statement_id for i in ol.catalog() if i.multi}
        assert multi == {"c-multi", "ragm", "yamazaki"}

    def test_unital_requirements(self):
        need = {i.statement_id for i in ol.catalog() if i.unital}
        assert need == {
            "t22-a", "t22-b", "t22-c", "t22-d",
            "c23-a", "c23-b", "c23-c", "c23-d",
            "c-multi", "c27", "mond2", "mp-gamma", "hoa", "t210",
        }

    def test_unknown_id(self):
        with pytest.raises(UnknownStatementError):
            ol.get_statement("nope")
        # it is a KeyError so dict-style handling works
        with pytest.raises(KeyError):
            ol.get_statement("nope")


class TestCheckOnKnownWitnesses:
    def test_squared_means_pair(self):
        kw = ol.KNOWN_WITNESSES["Q"]
        cfg = StatementConfig(statement_id="Q", band=kw.band)
        verdict = ol.check(cfg, kw.matrices, skip_band_check=True)
        assert not verdict.holds
        assert verdict.gap_min_eig < 0
        assert_allclose(verdict.gap_det, -0.0013710746408141753, rtol=1e-10)
        assert abs(verdict.gap_det - kw.reference_det) <= kw.det_tolerance

    def test_power_two_pair(self):
        kw = ol.KNOWN_WITNESSES["q2sq"]
        cfg = StatementConfig(statement_id="q2sq", band=kw.band)
        verdict = ol.check(cfg, kw.matrices, skip_band_check=True)
        assert not verdict.holds
        assert_allclose(verdict.gap_det, -0.4110846919000982, rtol=1e-10)
        assert abs(verdict.gap_det - kw.reference_det) <= kw.det_tolerance

    def test_q2_at_p_two_matches_the_dedicated_statement(self):
        kw = ol.KNOWN_WITNESSES["q2"]
        cfg = StatementConfig(statement_id="q2", band=kw.band, p=2.0)
        v1 = ol.check(cfg, kw.matrices, skip_band_check=True)
        cfg2 = StatementConfig(statement_id="q2sq", band=kw.band)
        v2 = ol.check(cfg2, kw.matrices, skip_band_check=True)
        assert_allclose(v1.gap_det, v2.gap_det, rtol=1e-14)

    def test_band_check_rejects_drifted_witness(self):
        kw = ol.KNOWN_WITNESSES["Q"]
        cfg = StatementConfig(statement_id="Q", band=kw.band)
        with pytest.raises(BandViolationError):
            ol.check(cfg, kw.matrices)


class TestCheckValidation:
    def test_matrix_count(self):
        cfg = StatementConfig(statement_id="ando")
        a = SymMatrix.identity(2)
        with pytest.raises(ValueError, match="exactly two"):
            ol.check(cfg, [a])
        multi = StatementConfig(statement_id="ragm")
        with pytest.raises(ValueError, match="at least two"):
            ol.check(multi, [a])

    def test_shared_dimension(self):
        cfg = StatementConfig(statement_id="ando")
        with pytest.raises(ValueError, match="dimension"):
            ol.check(cfg, [SymMatrix.identity(2), SymMatrix.identity(3)])

    def test_plain_arrays_accepted(self):
        cfg = StatementConfig(statement_id="ando", band=SpectralBand(0.5, 2.0))
        verdict = ol.check(cfg, [np.eye(2), 1.5 * np.eye(2)])
        assert verdict.holds

    def test_unitality_enforced(self):
        cfg = StatementConfig(statement_id="mond2", phi=ol.scale(2.0))
        mats = [SymMatrix.diagonal([1.0, 2.0]), SymMatrix.diagonal([2.0, 1.0])]
        with pytest.raises(UnitalityError, match="phi"):
            ol.check(cfg, mats)
        # the falsifier path disables enforcement
        verdict = ol.check(cfg, mats, enforce_hypotheses=False)
        assert verdict.statement_id == "mond2"

    def test_exponent_guards(self):
        mats = [SymMatrix.diagonal([1.0, 2.0]), SymMatrix.diagonal([2.0, 1.0])]
        with pytest.raises(ValueError, match="exponent p"):
            ol.check(StatementConfig(statement_id="c23-a", p=0.0), mats)
        with pytest.raises(ValueError, match="exponent q"):
            ol.check(StatementConfig(statement_id="c27", q=-1.0), mats)


class TestHypothesisProbes:
    def test_mp_gamma_needs_concave_increasing_g(self):
        cfg = StatementConfig(statement_id="mp-gamma", g=ol.power_function(2.0))
        labels = ol.hypothesis_violations(cfg)
        assert any("concave" in s for s in labels)

    def test_hoa_needs_intermediate_mean(self):
        cfg = StatementConfig(statement_id="hoa", sigma=ol.weighted_geometric(0.9))
        labels = ol.hypothesis_violations(cfg)
        assert any("harmonic and arithmetic" in s for s in labels)
        assert not ol.hypothesis_violations(StatementConfig(statement_id="hoa"))

    def test_t210_needs_operator_monotone_f(self):
        cfg = StatementConfig(statement_id="t210", f=ol.power_function(2.0))
        labels = ol.hypothesis_violations(cfg)
        assert any("operator monotone" in s for s in labels)

    def test_aahh_needs_dominated_sigma(self):
        cfg = StatementConfig(statement_id="aahh", sigma=ol.weighted_geometric(0.9))
        labels = ol.hypothesis_violations(cfg)
        assert any("dominated" in s for s in labels)

    def test_c_multi_needs_operator_monotone_g(self):
        cfg = StatementConfig(statement_id="c-multi", g=ol.EXP_MINUS_ONE)
        labels = ol.hypothesis_violations(cfg)
        assert any("operator monotone" in s for s in labels)

    def test_unconstrained_statements_have_no_labels(self):
        for sid in ("ando", "q2", "Q", "ragm"):
            assert not ol.hypothesis_violations(StatementConfig(statement_id=sid))


class TestRunTrials:
    def test_theorem_statements_hold_on_small_runs(self):
        for sid, extra in (
            ("ando", {}),
            ("ps-1.1", {}),
            ("t22-a", {"f": ol.power_function(2.0), "g": ol.power_function(0.5)}),
            ("mond2", {"sigma": ol.HARMONIC}),
            ("q2", {"p": 0.5}),
            ("add-reverse", {"f": ol.power_function(0.5)}),
        ):
            cfg = StatementConfig(statement_id=sid, **extra)
            rep = ol.run_trials(cfg, trials=30, seed=5)
            assert rep.counted == 30
            assert rep.violations == 0, sid
            assert rep.worst_margin is not None and rep.worst_margin > -rep.trials

    def test_multi_statement_holds(self):
        cfg = StatementConfig(statement_id="yamazaki", band=SpectralBand(0.5, 2.0), dim=3)
        rep = ol.run_trials(cfg, trials=15, seed=2)
        assert rep.counted == 15 and rep.violations == 0

    def test_multi_statements_hold_at_five_matrices(self):
        # yamazaki's coefficient depends on n, so n = 5 is a case of its own
        for sid in ("yamazaki", "ragm"):
            cfg = StatementConfig(
                statement_id=sid, band=SpectralBand(0.5, 2.0), dim=2, n_matrices=5
            )
            rep = ol.run_trials(cfg, trials=1, seed=3)
            assert rep.counted == 1, sid
            assert rep.violations == 0 and rep.rejected == 0, sid

    def test_violating_statement_reports_witnesses(self):
        cfg = StatementConfig(statement_id="q2sq", band=SpectralBand(0.4, 3.0))
        rep = ol.run_trials(cfg, trials=150, seed=17)
        assert rep.violations > 0
        w = rep.witnesses[0]
        assert w.gap_min_eig < 0
        # every witness replays from (seed, trial_index) alone
        rng = np.random.default_rng([rep.seed, w.trial_index])
        mats = []
        for _ in range(2):
            pinned = bool(rng.random() < 0.5)
            mats.append(ol.random_spd(cfg.dim, cfg.band, pinned=pinned, rng=rng))
        for stored, redrawn in zip(w.matrices, mats):
            assert np.array_equal(stored.data, redrawn.data)

    @pytest.mark.parametrize("trials, seed", [(150, 17), (40, 21), (12, 3), (0, 1)])
    def test_keeps_the_worst_witnesses(self, trials, seed):
        cfg = StatementConfig(statement_id="q2sq", band=SpectralBand(0.4, 3.0))
        rep = ol.run_trials(cfg, trials=trials, seed=seed)
        assert len(rep.witnesses) == min(statements._KEPT_WITNESSES, rep.violations)
        if rep.violations:
            assert rep.witnesses[0].gap_min_eig == rep.worst_margin
        keys = [(w.gap_min_eig, w.trial_index) for w in rep.witnesses]
        assert keys == sorted(keys)

    def test_ties_go_to_the_earlier_trial(self, monkeypatch):
        # a stub builder whose gap is -2, +1, -1, -2, +1, -1, ... by trial
        # index, evaluated in blocks of 4 so that ties cross blocks
        monkeypatch.setattr(statements, "_BLOCK", 4)
        info = ol.get_statement("ando")
        built = []

        def build(cfg, consts, x):
            index = np.arange(len(built), len(built) + len(x))
            built.extend(index)
            gap = np.array([-2.0, 1.0, -1.0])[index % 3]
            return np.zeros(x.shape[:-3] + (2, 2)), gap[:, None, None] * np.eye(2)

        stub = dataclasses.replace(info, build=build)
        monkeypatch.setattr(statements, "get_statement", lambda sid: stub)
        rep = ol.run_trials(StatementConfig(statement_id="ando"), trials=20, seed=0)
        assert rep.violations == 13
        assert [w.trial_index for w in rep.witnesses] == [0, 3, 6, 9, 12, 15, 18, 2, 5, 8]

    def test_memory_is_flat_in_the_trial_count(self):
        cfg = StatementConfig(statement_id="q2sq", band=SpectralBand(0.4, 3.0))
        ol.run_trials(cfg, trials=10, seed=7)
        peaks = []
        for trials in (1000, 8000):
            tracemalloc.start()
            try:
                ol.run_trials(cfg, trials=trials, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_deterministic_across_runs(self):
        cfg = StatementConfig(statement_id="q2sq", band=SpectralBand(0.4, 3.0))
        rep1 = ol.run_trials(cfg, trials=80, seed=9)
        rep2 = ol.run_trials(cfg, trials=80, seed=9)
        assert rep1.violations == rep2.violations
        assert rep1.worst_margin == rep2.worst_margin
        assert [w.trial_index for w in rep1.witnesses] == [w.trial_index for w in rep2.witnesses]

    def test_hypothesis_violation_rejects_all_trials(self):
        cfg = StatementConfig(statement_id="mp-gamma", g=ol.power_function(2.0))
        rep = ol.run_trials(cfg, trials=25, seed=1)
        assert rep.counted == 0
        assert rep.rejected == 25
        assert rep.violations == 0
        assert rep.worst_margin is None
        assert rep.hypothesis_violations

    def test_unitality_error_raised_up_front(self):
        cfg = StatementConfig(statement_id="mond2", phi=ol.scale(3.0))
        with pytest.raises(UnitalityError):
            ol.run_trials(cfg, trials=5, seed=0)

    def test_overflowed_constant_raises(self):
        # c27's k = M^p m^(-q) = 2^2000 is inf, though each factor is finite
        cfg = StatementConfig(statement_id="c27", band=SpectralBand(0.5, 2.0), p=1000.0, q=1000.0)
        with pytest.raises(OverflowError, match=r"constant M\^p m\^\(-q\) of band \[0.5, 2.0\] is outside the float range"):
            ol.run_trials(cfg, trials=5, seed=1)

    def test_zero_trials(self):
        rep = ol.run_trials(StatementConfig(statement_id="ando"), trials=0, seed=0)
        assert rep.trials == 0 and rep.worst_margin is None

    def test_input_validation(self):
        cfg = StatementConfig(statement_id="ando")
        with pytest.raises(ValueError):
            ol.run_trials(cfg, trials=-1, seed=0)
        with pytest.raises(ValueError):
            ol.run_trials(cfg, trials=1, seed=-3)


class TestStatementShapes:
    def test_two_map_statements_allow_dimension_changing_maps(self):
        # both roles use the same trace map, so the two sides stay comparable
        cfg = StatementConfig(
            statement_id="t22-a",
            phi=ol.normalized_trace(),
            psi=ol.normalized_trace(),
            dim=3,
        )
        rep = ol.run_trials(cfg, trials=10, seed=4)
        assert rep.violations == 0

    def test_configs_are_frozen(self):
        cfg = StatementConfig(statement_id="ando")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.p = 2.0
