"""Counterexample search.

``falsify`` replays the trial generator with hypothesis enforcement turned
off, keeps the worst violation it sees, and labels the witness with any
hypotheses the configuration breaks, so a "counterexample" to a statement
used outside its scope is reported as exactly that.  It runs on the trial
engine of :mod:`opmeanlab.statements`: per-trial seeded draws, evaluated in
fixed blocks.  ``refine`` runs a greedy random walk around a witness,
clamping every candidate's spectrum back into the band, and only ever
accepts strictly more negative gaps.

The walk evaluates its steps in speculative windows: the candidates of the
next few steps are all formed from the current incumbent and evaluated as
one stack by the same builders, and the first strictly better one is
accepted; the rest of the window is discarded and the walk resumes at the
step after it.  Every step's bump is drawn once, in step order, so each
candidate, verdict and error is bitwise the one the step-by-step walk
(one :func:`~opmeanlab.statements.check` per step) gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .statements import (
    _BLOCK,
    BandViolationError,
    StatementConfig,
    _as_matrices,
    _require_count,
    check,
    get_statement,
    hypothesis_violations,
    trial_blocks,
    unitality_violations,
)
from .symmat import SymMatrix, _apply_scalar, _first_out_of_band, _loewner, _symmetrize

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
            best = witness(_as_matrices(x[t].copy()), gaps[t], verdict.gap_det[t], first + t, True)
    return best


#: Steps in the first window of the walk and in the first after an
#: acceptance; each window without one doubles the next, up to ``_BLOCK``.
_FIRST_WINDOW = 8


def _clamp_to_band(x: np.ndarray, band) -> np.ndarray:
    """The symmetric parts of a stack ``(..., d, d)`` with their spectra
    clipped into ``band``, reassembled and symmetrized."""
    return _apply_scalar(_symmetrize(x), lambda w: np.clip(w, band.m, band.M))


def _steps_alone(best: Witness, bumps: np.ndarray, radius: float) -> Witness:
    """The walk over ``bumps`` (one row per step, each matrix's bump
    flattened in turn), one :func:`check` per step."""
    cfg = best.config
    ends = np.cumsum([m.data.size for m in best.matrices], dtype=int)
    for row in bumps:
        candidate = [
            SymMatrix._wrap(_clamp_to_band(m.data + radius * bump.reshape(m.data.shape), cfg.band))
            for m, bump in zip(best.matrices, np.split(row, ends[:-1]))
        ]
        verdict = check(cfg, candidate, skip_band_check=False, enforce_hypotheses=False)
        if not verdict.holds and verdict.gap_min_eig < best.gap_min_eig:
            gap, det = verdict.gap_min_eig, verdict.gap_det
            best = replace(best, matrices=tuple(candidate), gap_min_eig=gap, gap_det=det, band_checked=True)
    return best


def _window(best: Witness, bumps: np.ndarray, radius: float, engine) -> tuple:
    """Steps ``bumps`` of the walk from ``best``, evaluated as one stack.

    Returns the number of steps taken (through the first acceptance, or all
    of them) and the incumbent after them.  ``engine`` is the statement's
    ``(info, constants)``, or None to take every step alone.
    """
    if engine is None:
        return len(bumps), _steps_alone(best, bumps, radius)
    cfg = best.config
    info, consts = engine
    try:
        x = np.array([m.data for m in best.matrices])
        c = _clamp_to_band(x + radius * bumps.reshape((len(bumps),) + x.shape), cfg.band)
        inside, report = _first_out_of_band(c, cfg.band)
        better = np.empty(0, dtype=np.intp)
        if inside:
            v = _loewner(*info.build(cfg, consts, c[:inside]))
            better = np.flatnonzero(~v.holds & (v.gap_min_eig < best.gap_min_eig))
    except Exception:
        # the step that raises, and its error, are those of the walk alone
        return len(bumps), _steps_alone(best, bumps, radius)
    if better.size:
        j = int(better[0])
        accepted = _as_matrices(c[j].copy())
        gap, det = float(v.gap_min_eig[j]), float(v.gap_det[j])
        return j + 1, replace(best, matrices=accepted, gap_min_eig=gap, gap_det=det, band_checked=True)
    if report is not None:
        raise BandViolationError(report.offending_summary())
    return len(bumps), best


def refine(witness: Witness, steps: int, radius: float, seed: int) -> Witness:
    """Greedy local search around a witness.

    Each step perturbs every matrix of the current best by a symmetric
    Gaussian bump of size ``radius`` and clamps the spectrum back into the
    configured band; a candidate replaces the incumbent only when its gap
    eigenvalue is strictly more negative.  With ``radius == 0`` or
    ``steps == 0`` the witness is returned unchanged.  Accepted candidates
    are in band by construction, so refinement can only strengthen a
    violation, never manufacture an out-of-band one.  Steps are evaluated
    in speculative windows (see the module docstring).
    """
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius!r}")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if radius == 0.0 or steps == 0:
        return witness
    cfg = witness.config
    n = len(witness.matrices)
    try:
        info = get_statement(cfg.statement_id)
        _require_count(info, n)
        engine = info, info.constants(cfg, n)
    except Exception:
        # every step raises this; the walk alone raises it at the first
        engine = None
    rng = np.random.default_rng(seed)
    entries = sum(m.data.size for m in witness.matrices)
    pending = np.empty((0, entries))
    best = witness
    done, width = 0, _FIRST_WINDOW
    while done < steps:
        size = min(width, steps - done)
        if len(pending) < size:
            pending = np.concatenate((pending, rng.standard_normal((size - len(pending), entries))))
        taken, after = _window(best, pending[:size], radius, engine)
        width = _FIRST_WINDOW if after is not best else min(2 * width, _BLOCK)
        best, pending, done = after, pending[taken:], done + taken
    return best
