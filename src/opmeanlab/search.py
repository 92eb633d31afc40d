"""Counterexample search.

``falsify`` replays the trial generator with hypothesis enforcement turned
off, keeps the worst violation it sees, and labels the witness with any
hypotheses the configuration breaks, so a "counterexample" to a statement
used outside its scope is reported as exactly that.  It takes the worst
:class:`Witness` of the block scan behind ``run_trials``.  ``refine`` runs a
greedy random walk around a witness of either, clamping every candidate's
spectrum back into the band, and only ever accepts strictly more negative gaps.

The walk evaluates its steps in speculative windows: the candidates of the
next few steps are all formed from the current incumbent and evaluated as
one stack by the same builders, and the first strictly better one is
accepted; the rest of the window is discarded and the walk resumes at the
step after it.  A window stops before its first out-of-band candidate,
which then opens the next window and raises there.  A stack that raises
does not say which step raised, so the window's first step is taken again
alone, through the same code, and the walk goes on from the step after it.
Every step's bump is drawn once, in step order, so each candidate, verdict
and error is bitwise the one the step-by-step walk (one
:func:`~opmeanlab.statements.check` per step) gives.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .statements import (
    _BLOCK,
    BandViolationError,
    StatementConfig,
    Witness,
    _as_matrices,
    _input_stack,
    _scan,
    check,
    get_statement,
    hypothesis_violations,
    unitality_violations,
)
from .symmat import SymMatrix, _apply_scalar, _first_out_of_band, _loewner, _symmetrize

__all__ = ["Witness", "falsify", "refine", "revalidate"]


def revalidate(witness: Witness):
    """Re-run the statement check on a witness and return the verdict."""
    return check(
        witness.config,
        witness.matrices,
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

    Draws follow the same per-trial seeding as the trial driver and go
    through its block scan, so a found witness can be replayed from its
    trial index.  ``initial_matrices`` are evaluated first (by default with
    the band check skipped, matching how published witnesses are stored);
    random draws are always in band.
    Returns the witness with the most negative ``gap_min_eig`` (the earliest
    on ties), or None.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    labels = tuple(unitality_violations(cfg)) + tuple(hypothesis_violations(cfg))
    best, start = None, 0
    if initial_matrices is not None:
        mats = tuple(m if isinstance(m, SymMatrix) else SymMatrix(m) for m in initial_matrices)
        verdict = check(cfg, mats, skip_band_check=skip_band_check_initial, enforce_hypotheses=False)
        if not verdict.holds:
            best = Witness(config=cfg, matrices=mats, gap_min_eig=verdict.gap_min_eig, gap_det=verdict.gap_det,
                           seed=seed, trial_index=-1, band_checked=not skip_band_check_initial,
                           hypothesis_violations=labels)
        start = 1
    kept = _scan(cfg, seed, start, budget, labels)[2]
    if kept and (best is None or kept[0].gap_min_eig < best.gap_min_eig):
        best = kept[0]
    return best


#: Steps in the first window of the walk and in the first after an
#: acceptance; each window without one doubles the next, up to ``_BLOCK``.
_FIRST_WINDOW = 8


def _clamp_to_band(x: np.ndarray, band) -> np.ndarray:
    """The symmetric parts of a stack ``(..., d, d)`` with their spectra
    clipped into ``band``, reassembled and symmetrized."""
    return _apply_scalar(_symmetrize(x), lambda w: np.clip(w, band.m, band.M))


def _window(best: Witness, bumps: np.ndarray, radius: float, info, consts) -> tuple:
    """Steps ``bumps`` of the walk from ``best``, evaluated as one stack by
    the statement ``info`` with its constants ``consts``.

    Returns the number of steps taken (through the first acceptance, up to
    the first out-of-band candidate, or all of them) and the incumbent after
    them; a first candidate out of band raises.  When the stack raises,
    :func:`refine` takes the first step again as a window of one.
    """
    cfg = best.config
    x = np.array([m.data for m in best.matrices])
    c = _clamp_to_band(x + radius * bumps.reshape((len(bumps),) + x.shape), cfg.band)
    inside, report = _first_out_of_band(c, cfg.band)
    if not inside:
        raise BandViolationError(report.offending_summary())
    v = _loewner(*info.build(cfg, consts, c[:inside]))
    better = np.flatnonzero(~v.holds & (v.gap_min_eig < best.gap_min_eig))
    if not better.size:
        return inside, best
    j = int(better[0])
    accepted = _as_matrices(c[j].copy())
    gap, det = float(v.gap_min_eig[j]), float(v.gap_det[j])
    return j + 1, replace(best, matrices=accepted, gap_min_eig=gap, gap_det=det, band_checked=True)


def refine(witness: Witness, steps: int, radius: float, seed: int) -> Witness:
    """Greedy local search around a witness.

    Each step perturbs every matrix of the current best by a symmetric
    Gaussian bump of size ``radius`` and clamps the spectrum back into the
    configured band; a candidate replaces the incumbent only when its gap
    eigenvalue is strictly more negative.  With ``radius == 0`` or
    ``steps == 0`` the witness is returned unchanged.  Accepted candidates
    are in band by construction, so refinement can only strengthen a
    violation, never manufacture an out-of-band one.  The witness's count
    and dimensions and the statement's constants are checked once, before
    the first step.  Steps are evaluated in speculative windows (see the
    module docstring).
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
    info = get_statement(cfg.statement_id)
    x = _input_stack(info, witness.matrices)
    consts = info.constants(cfg, len(x))
    rng = np.random.default_rng(seed)
    pending = np.empty((0, x.size))
    best = witness
    done, width = 0, _FIRST_WINDOW
    while done < steps:
        size = min(width, steps - done)
        if len(pending) < size:
            pending = np.concatenate((pending, rng.standard_normal((size - len(pending), x.size))))
        try:
            taken, after = _window(best, pending[:size], radius, info, consts)
        except Exception:
            if size == 1:
                raise
            # the stack does not say which step raised; the first step alone does
            taken, after = _window(best, pending[:1], radius, info, consts)
        width = _FIRST_WINDOW if after is not best else min(2 * width, _BLOCK)
        best, pending, done = after, pending[taken:], done + taken
    return best
