"""Counterexample search.

``falsify`` replays the trial generator with hypothesis enforcement turned
off, keeps the worst violation it sees, and labels the witness with any
hypotheses the configuration breaks, so a "counterexample" to a statement
used outside its scope is reported as exactly that.  It runs on the trial
engine of :mod:`opmeanlab.statements`: per-trial seeded draws, evaluated in
fixed blocks.  ``refine`` runs a
greedy random walk around a witness, clamping every candidate's spectrum
back into the band, and only ever accepts strictly more negative gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statements import StatementConfig, check, hypothesis_violations, trial_blocks, unitality_violations
from .symmat import SymMatrix

__all__ = ["Witness", "falsify", "refine", "revalidate"]


@dataclass(frozen=True)
class Witness:
    """A violating input set for one statement configuration."""

    config: StatementConfig
    matrices: tuple
    gap_min_eig: float
    gap_det: float
    seed: int
    trial_index: int
    band_checked: bool
    hypothesis_violations: tuple


def revalidate(witness: Witness, tol: float | None = None):
    """Re-run the statement check on a witness and return the verdict."""
    return check(
        witness.config,
        witness.matrices,
        tol=tol,
        skip_band_check=not witness.band_checked,
        enforce_hypotheses=False,
    )


def falsify(
    cfg: StatementConfig,
    budget: int,
    seed: int,
    initial_matrices=None,
    skip_band_check_initial: bool = True,
) -> Witness | None:
    """Search ``budget`` random draws for a Loewner violation.

    Draws follow the same per-trial seeding as the trial driver, so a found
    witness can be replayed from its trial index; like the trial driver,
    the search evaluates its draws in fixed blocks.  ``initial_matrices``
    are evaluated first (by default with the band check skipped, matching
    how published witnesses are stored); random draws are always in band.
    Returns the witness with the most negative ``gap_min_eig`` (the earliest
    on ties), or None.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    labels = tuple(unitality_violations(cfg)) + tuple(hypothesis_violations(cfg))
    best = None

    def witness(mats, gap_min_eig, gap_det, index, band_checked):
        return Witness(
            config=cfg,
            matrices=tuple(mats),
            gap_min_eig=float(gap_min_eig),
            gap_det=float(gap_det),
            seed=seed,
            trial_index=index,
            band_checked=band_checked,
            hypothesis_violations=labels,
        )

    start = 0
    if initial_matrices is not None:
        mats = [m if isinstance(m, SymMatrix) else SymMatrix(m) for m in initial_matrices]
        verdict = check(cfg, mats, skip_band_check=skip_band_check_initial, enforce_hypotheses=False)
        if not verdict.holds:
            best = witness(mats, verdict.gap_min_eig, verdict.gap_det, -1, not skip_band_check_initial)
        start = 1
    for first, x, verdict in trial_blocks(cfg, seed, start, budget):
        gaps = np.where(verdict.holds, np.inf, verdict.gap_min_eig)
        t = int(np.argmin(gaps))
        if gaps[t] < (np.inf if best is None else best.gap_min_eig):
            best = witness(
                (SymMatrix(m) for m in x[t]), gaps[t], verdict.gap_det[t], first + t, True
            )
    return best


def _clamp_to_band(arr: np.ndarray, band) -> SymMatrix:
    sym = (arr + arr.T) / 2.0
    w, q = np.linalg.eigh(sym)
    w = np.clip(w, band.m, band.M)
    return SymMatrix((q * w) @ q.T)


def refine(witness: Witness, steps: int, radius: float, seed: int) -> Witness:
    """Greedy local search around a witness.

    Each step perturbs every matrix of the current best by a symmetric
    Gaussian bump of size ``radius`` and clamps the spectrum back into the
    configured band; a candidate replaces the incumbent only when its gap
    eigenvalue is strictly more negative.  With ``radius == 0`` or
    ``steps == 0`` the witness is returned unchanged.  Accepted candidates
    are in band by construction, so refinement can only strengthen a
    violation, never manufacture an out-of-band one.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if radius == 0.0 or steps == 0:
        return witness
    cfg = witness.config
    rng = np.random.default_rng(seed)
    best = witness
    for _ in range(steps):
        candidate = []
        for m in best.matrices:
            bump = rng.standard_normal(m.data.shape)
            candidate.append(_clamp_to_band(m.data + radius * bump, cfg.band))
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
    return best
