"""Counterexample search.

``falsify`` replays the trial generator with hypothesis enforcement turned
off, keeps the worst violation it sees, and labels the witness with any
hypotheses the configuration breaks, so a "counterexample" to a statement
used outside its scope is reported as exactly that.  It takes the worst
:class:`Witness` of the block scan behind ``run_trials``.  ``refine`` runs a
greedy random walk around a witness of either, clamping every candidate's
spectrum back into the band, and only ever accepts strictly more negative gaps.

The walk takes its steps in windows.  Each step is one candidate, a bump
of the incumbent; a window's candidates share one incumbent and are
evaluated as one stack, and the window's most negative violating gap (the
earliest on ties) replaces the incumbent only when it is strictly better.
A window spends all its steps around one incumbent, so a short walk from
a weak start gains less per step than one that moves at each better step,
but its steps cost no more (the README's Tests section has measurements).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .statements import (
    _BLOCK,
    StatementConfig,
    Witness,
    _as_matrices,
    _input_stack,
    _require_in_band,
    _scan,
    check,
    get_statement,
    hypothesis_violations,
    unitality_violations,
)
from .symmat import SymMatrix, _apply_scalar, _loewner, _symmetrize

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
    labels = unitality_violations(cfg) + hypothesis_violations(cfg)
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


def refine(witness: Witness, steps: int, radius: float, seed: int) -> Witness:
    """Greedy local search around a witness.

    Each step perturbs every matrix of the incumbent by a symmetric
    Gaussian bump of size ``radius`` and clamps the spectrum back into the
    configured band; the best candidate of a window (see the module
    docstring) replaces the incumbent only when its gap eigenvalue is
    strictly more negative.  With ``radius == 0`` or ``steps == 0`` the
    witness is returned unchanged.  Accepted candidates are in band by
    construction, so refinement can only strengthen a violation, never
    manufacture an out-of-band one.  The witness's count and dimensions and
    the statement's constants are checked once, before the first window.
    ``steps`` counts candidates, so an error a candidate raises ends the
    walk at that step.
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
    best, done, width = witness, 0, _FIRST_WINDOW
    while done < steps:
        size = min(width, steps - done)
        c = _clamp_to_band(x + radius * rng.standard_normal((size,) + x.shape), cfg.band)
        _require_in_band(c, cfg.band)
        v = _loewner(*info.build(cfg, consts, c))
        better = np.flatnonzero(~v.holds & (v.gap_min_eig < best.gap_min_eig))
        if better.size:
            j = int(better[np.argmin(v.gap_min_eig[better])])
            x = c[j].copy()
            best = replace(best, matrices=_as_matrices(x), gap_min_eig=float(v.gap_min_eig[j]),
                           gap_det=float(v.gap_det[j]), band_checked=True)
        width = _FIRST_WINDOW if better.size else min(2 * width, _BLOCK)
        done += size
    return best
