"""Inequality statement catalog.

Each statement builds a left and right side from a configuration (matrices,
band, means, maps, scalar functions, exponents) and compares them in the
Loewner order.  The catalog mixes statements that are theorems under their
hypotheses (expected to never fail a trial) with statements that are known
to fail for some parameters; the trial driver reports both honestly.  Each
catalog entry carries the hypotheses its statement is screened for.

Most statements are one formula with different fixed parts, and three
families build 21 of the 23 (see :func:`_two_sided`, :func:`_multi` and
:func:`_q2`): the two-sided map/mean comparison with f, g and powers
(``ps-1.1`` is ``mond2`` at the geometric mean, ``t22-x`` is ``c23-x`` at
p = 1), the multi-matrix comparison (``c-multi``, ``ragm``, ``yamazaki``)
and the power comparison (``q2``, and ``q2sq`` at p = 2).  ``t210``
applies f before its mean and ``add-reverse`` corrects the geometric mean
by a residual, so each keeps a builder of its own.

Trials are deterministic: trial ``i`` of a run seeded with ``s`` draws from
``numpy.random.default_rng([s, i])``, so any reported violation can be
reproduced from ``(statement_id, config, s, i)`` alone.

One engine evaluates every statement.  The draws stay per-trial streams,
seeded for a whole block at once (see
:func:`~opmeanlab.symmat.random_spd_trials`); evaluation is batched: the builders
take ``(T, n, d, d)`` stacks of ``T`` trials' inputs and run each layer
(map, mean, functional calculus, order check) once per block of up to
``_BLOCK`` trials, giving every trial the bits it gets alone.  A statement's
constants are computed once per run.  :func:`check` runs the same builders
on one trial's ``(n, d, d)`` inputs, and one scan keeps the worst violating
trials as :class:`Witness` records for :func:`run_trials` and ``falsify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from . import constants as _const
from .functions import (
    IDENTITY,
    ScalarFunction,
    increasing_on,
    is_operator_monotone,
    midpoint_concave,
)
from .kubo_ando import (
    ARITHMETIC,
    GEOMETRIC,
    MeanDescriptor,
    _binary_mean,
    _check_alm_count,
    _geometric_means,
    _harmonic_arithmetic,
    is_between_harmonic_arithmetic,
)
from .linmaps import MapDescriptor, _apply_map, identity_map, is_unital
from .symmat import (
    DimensionMismatchError,
    SpectralBand,
    SpectrumDomainError,
    SymMatrix,
    _apply_scalar,
    _congruence,
    _first_out_of_band,
    _loewner,
    _symmetrize,
    _values,
    random_spd_trials,
)

__all__ = [
    "StatementConfig",
    "StatementInfo",
    "Verdict",
    "Witness",
    "TrialReport",
    "UnknownStatementError",
    "BandViolationError",
    "UnitalityError",
    "catalog",
    "statement_ids",
    "get_statement",
    "hypothesis_violations",
    "unitality_violations",
    "check",
    "run_trials",
    "seeded_inputs",
    "trial_blocks",
]

#: Trials evaluated together.  The draw, every builder layer and the order
#: check run once per block, so a long run holds one block of inputs and
#: intermediates at a time.
_BLOCK = 256

#: Violating trials a :class:`TrialReport` keeps as witnesses (the worst).
_KEPT_WITNESSES = 10


class UnknownStatementError(KeyError):
    """No statement with the requested identifier."""


class BandViolationError(ValueError):
    """Input matrices have spectrum outside the configured band."""


class UnitalityError(ValueError):
    """A statement that requires unital maps was given a non-unital one."""


@dataclass(frozen=True)
class StatementConfig:
    """Everything a statement needs besides the matrices themselves."""

    statement_id: str
    band: SpectralBand = SpectralBand(1.0, 2.0)
    sigma: MeanDescriptor = GEOMETRIC
    tau: MeanDescriptor = GEOMETRIC
    phi: MapDescriptor = field(default_factory=identity_map)
    psi: MapDescriptor = field(default_factory=identity_map)
    f: ScalarFunction = IDENTITY
    g: ScalarFunction = IDENTITY
    p: float = 1.0
    q: float = 1.0
    dim: int = 2
    n_matrices: int = 3

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatchError("dimension must be at least 1")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one statement evaluation."""

    statement_id: str
    holds: bool
    gap_min_eig: float
    gap_det: float
    constants_used: object
    tol: float


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


@dataclass(frozen=True)
class TrialReport:
    """Outcome of :func:`run_trials`.

    ``violations`` counts every violating trial, but ``witnesses`` keeps at
    most ten of them (``_KEPT_WITNESSES``): those with the most negative
    ``gap_min_eig``, the earlier trial first on ties, stored worst first.
    So when any trial violates, ``witnesses[0].gap_min_eig`` is
    ``worst_margin``, and a long run holds no more than ten witnesses.
    Each is a :class:`Witness` (band-checked, no hypothesis labels), so
    ``refine`` and ``revalidate`` take it as they take a ``falsify`` witness.
    """

    statement_id: str
    trials: int
    counted: int
    rejected: int
    violations: int
    worst_margin: float | None
    seed: int
    witnesses: tuple
    hypothesis_violations: tuple


@dataclass(frozen=True)
class StatementInfo:
    """Catalog entry: a statement's formula, input shape and conditions.

    ``constants(cfg, n)`` gives the constants a run with ``n`` inputs per
    trial uses (and reports); ``build(cfg, constants, x)`` maps the inputs
    ``x`` of shape ``(..., n, d, d)`` (any leading trial axes) to the
    ``(..., e, e)`` left and right sides.  The statement is a theorem when
    the maps in the ``unital`` roles (``"phi"``, ``"psi"``) are unital and
    each ``(label, holds)`` pair of ``hypotheses`` holds: ``holds(cfg)``
    probes one condition and ``label`` names its violation.
    """

    statement_id: str
    summary: str
    constants: Callable
    build: Callable
    multi: bool = False
    unital: tuple = ()
    hypotheses: tuple = ()


# Stack layers.  Each mirrors one SymMatrix-valued step of a statement's
# formula and symmetrizes exactly where that step's SymMatrix did.

def _mean(sigma: MeanDescriptor, a, b):
    return _symmetrize(_binary_mean(sigma.h, a, b))


def _scaled(k, x):
    """``k x``, symmetrized; an entry that overflows raises one error, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _symmetrize(k * x)


def _pair(x):
    """The two inputs ``A, B`` of each trial."""
    return x[..., 0, :, :], x[..., 1, :, :]


def _favg(x):
    """Average of the ``n`` inputs of each trial; a sum that overflows raises one error."""
    n = x.shape[-3]
    with np.errstate(over="ignore", invalid="ignore"):
        return _symmetrize(sum(x[..., i, :, :] for i in range(n)) / n)


def _role(cfg, part):
    """A formula part: the name of a config field (``"phi"``, ``"sigma"``,
    ``"f"``, ``"p"``, ...) reads that field; anything else is a fixed value."""
    return getattr(cfg, part) if isinstance(part, str) else part


def _map(phi, x):
    return x if phi is None else _apply_map(phi, x)


def _calculus(x, fn, p):
    """``fn(x)^p`` by spectral calculus; a ``None`` part is a step not taken."""
    if p is None:
        return x if fn is None else _apply_scalar(x, fn)
    return _apply_scalar(x, (lambda t: t**p) if fn is None else (lambda t: fn(t) ** p))


def _require_nonnegative(value: float, name: str):
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


# Constants, computed once per run: (cfg, inputs per trial) -> value.

def _no_constants(cfg, n):
    return None


def _kantorovich(cfg, n):
    return _const.kantorovich(cfg.band)


def _two_function_scalar(cfg, n):
    # f or g not finite at its band edge, which the draws reach, fails as the calculus would
    m, M = cfg.band.m, cfg.band.M
    fm, gm = float(_values(cfg.f, M)), float(_values(cfg.g, 1.0 / m))
    if not np.isfinite([fm, gm]).all():
        raise SpectrumDomainError(f"f(M) g(1/m) of band [{m!r}, {M!r}] is undefined: f(M) = {fm!r}, g(1/m) = {gm!r}")
    return _const._in_float_range("constant f(M) g(1/m)", cfg.band, lambda M, m: fm * gm)


def _c23_scalar(cfg, n):
    if not 0.0 < cfg.p < np.inf:
        raise ValueError(f"exponent p must be positive and finite, got {cfg.p!r}")
    k = _two_function_scalar(cfg, n)
    return _const._in_float_range("constant (f(M) g(1/m))^p", cfg.band, lambda M, m: k**cfg.p)


def _c27_scalar(cfg, n):
    _require_nonnegative(cfg.p, "exponent p")
    _require_nonnegative(cfg.q, "exponent q")
    mp = _const._in_float_range("factor M^p", cfg.band, lambda M, m: M**cfg.p)
    mq = _const._in_float_range("factor m^(-q)", cfg.band, lambda M, m: m ** (-cfg.q))
    return _const._in_float_range("constant M^p m^(-q)", cfg.band, lambda M, m: mp * mq)


# Builders: (cfg, constants, x) -> (lhs, rhs) for inputs x of shape (..., n, d, d).
# Three families build all statements but t210 and add-reverse.

def _side(cfg, x, order, phi, sigma, fn, p):
    """One side of a two-sided statement, ``fn(core)^p``.  Its core is the
    ``sigma`` mean of the images of ``A, B`` under ``phi`` for ``order``
    ``"images"``, or the image of ``A sigma B`` for ``"mean"``.  Each part is
    a config role or a fixed value (see :func:`_role`); ``None`` leaves out
    the map or calculus step."""
    phi, sigma, fn, p = (_role(cfg, part) for part in (phi, sigma, fn, p))
    if order == "images":
        core = _mean(sigma, *_pair(_map(phi, x)))
    else:
        core = _map(phi, _mean(sigma, *_pair(x)))
    return _calculus(core, fn, p)


def _two_sided(left, right, factor=lambda k: k):
    """``left <= factor(k) right`` for two :func:`_side` specs; with
    ``factor`` None the right side is not scaled."""

    def build(cfg, k, x):
        lhs, rhs = _side(cfg, x, *left), _side(cfg, x, *right)
        return lhs, rhs if factor is None else _scaled(factor(k), rhs)

    return build


def _multi(left, right):
    """``fn(phi(average)) <= k fn(geometric mean of the phi images)`` with each
    side's ``(phi, fn)`` given as for :func:`_side`."""

    def build(cfg, k, x):
        phi, f = (_role(cfg, part) for part in left)
        psi, g = (_role(cfg, part) for part in right)
        lhs = _calculus(_map(phi, _favg(x)), f, None)
        return lhs, _scaled(k, _calculus(_geometric_means(_map(psi, x)), g, None))

    return build


def _q2(exponent):
    """``(A^p + B^p)/2 <= K (A # B)^p`` with ``p`` the role or value ``exponent``."""

    def constants(cfg, n):
        _require_nonnegative(_role(cfg, exponent), "exponent p")
        return _const.kantorovich(cfg.band)

    def build(cfg, k, x):
        p = _role(cfg, exponent)
        rhs = _side(cfg, x, "mean", None, GEOMETRIC, None, p)
        return _favg(_calculus(x, None, p)), _scaled(k, rhs)

    return constants, build


def _build_t210(cfg, k, x):
    lhs = _mean(cfg.tau, *_pair(_apply_scalar(_apply_map(cfg.phi, x), cfg.f)))
    rhs = _side(cfg, x, "mean", "phi", "sigma", "f", None)
    return lhs, _scaled(k, rhs)


def _build_add_reverse(cfg, k, x):
    a, b = _pair(x)
    lhs = _apply_scalar(_mean(ARITHMETIC, a, b), cfg.f)
    # A # B + A^(1/2) |I - C| A^(1/2) / 2 with C = A^(-1/2) B A^(-1/2)
    corrected = _congruence(a, b, lambda t: np.sqrt(t) + 0.5 * np.abs(1.0 - t))
    return lhs, _apply_scalar(corrected, cfg.f)


# Hypotheses: (label, cfg -> holds) pairs; the label names the violation.

def _operator_monotone(role):
    return f"{role} is not operator monotone", lambda cfg: is_operator_monotone(getattr(cfg, role))


def _between_harmonic_arithmetic(role):
    return (
        f"{role} is not between the harmonic and arithmetic means",
        lambda cfg: is_between_harmonic_arithmetic(getattr(cfg, role).h),
    )


_CATALOG: dict = {}


def _register(*args, **kwargs):
    info = StatementInfo(*args, **kwargs)
    _CATALOG[info.statement_id] = info


_register(
    "ando",
    "positive maps are subadditive across operator means: Phi(A s B) <= Phi(A) s Phi(B)",
    _no_constants,
    _two_sided(("mean", "phi", "sigma", None, None), ("images", "phi", "sigma", None, None), factor=None),
)
_register(
    "ps-1.1",
    "geometric-mean reverse: Phi(A) # Phi(B) <= ((M+m)/(2 sqrt(Mm))) Phi(A # B)",
    lambda cfg, n: _const.polya_szego_coeff(cfg.band),
    _two_sided(("images", "phi", GEOMETRIC, None, None), ("mean", "phi", GEOMETRIC, None, None)),
)
_CORE_WORDS = {"images": "mean of images", "mean": "image of mean"}
for _letter, _left, _right in (
    ("a", "images", "images"),
    ("b", "images", "mean"),
    ("c", "mean", "images"),
    ("d", "mean", "mean"),
):
    _register(
        f"t22-{_letter}",
        f"two-function reverse f({_CORE_WORDS[_left]}) <= f(M) g(1/m) g({_CORE_WORDS[_right]})",
        _two_function_scalar,
        _two_sided((_left, "phi", "sigma", "f", None), (_right, "psi", "tau", "g", None)),
        unital=("phi", "psi"),
    )
    _register(
        f"c23-{_letter}",
        "p-th power variant of the two-function reverse",
        _c23_scalar,
        _two_sided((_left, "phi", "sigma", "f", "p"), (_right, "psi", "tau", "g", "p")),
        unital=("phi", "psi"),
    )
_register(
    "c-multi",
    "multi-matrix reverse: f(Phi(avg)) <= f(M) g(1/m) g(geo-mean of Psi images)",
    _two_function_scalar,
    _multi(("phi", "f"), ("psi", "g")),
    multi=True,
    unital=("phi", "psi"),
    hypotheses=(_operator_monotone("g"),),
)
_register(
    "ragm",
    "crude reverse arithmetic-geometric comparison with ratio M/m",
    lambda cfg, n: cfg.band.ratio,
    _multi((None, None), (None, None)),
    multi=True,
)
_register(
    "yamazaki",
    "reverse arithmetic-geometric comparison with coefficient K^((n-1)/2)",
    lambda cfg, n: _const.yamazaki_coeff(cfg.band, n),
    _multi((None, None), (None, None)),
    multi=True,
)
_register(
    "c27",
    "power-exponent reverse (Phi(A) # Phi(B))^p <= M^p m^(-q) (Psi(A # B))^q",
    _c27_scalar,
    _two_sided(("images", "phi", GEOMETRIC, None, "p"), ("mean", "psi", GEOMETRIC, None, "q")),
    unital=("phi", "psi"),
)
_register(
    "mond2",
    "calibrated reverse Phi(A) s Phi(B) <= alpha Phi(A s B)",
    lambda cfg, n: _const.mp_alpha(cfg.sigma.h, cfg.band),
    _two_sided(("images", "phi", "sigma", None, None), ("mean", "phi", "sigma", None, None)),
    unital=("phi",),
)
_register(
    "mp-gamma",
    "two-function calibrated reverse f(Phi(A) s Phi(B)) <= gamma g(Phi(A s B))",
    lambda cfg, n: _const.mp_gamma(cfg.f, cfg.g, cfg.sigma.h, cfg.band),
    _two_sided(("images", "phi", "sigma", "f", None), ("mean", "phi", "sigma", "g", None), lambda k: k.gamma),
    unital=("phi",),
    hypotheses=(
        ("g is not increasing on the band", lambda cfg: increasing_on(cfg.g, cfg.band.m, cfg.band.M)),
        ("g is not concave on the band", lambda cfg: midpoint_concave(cfg.g, cfg.band.m, cfg.band.M)),
    ),
)
_register(
    "hoa",
    "arithmetic mean of images vs K times image of an intermediate mean",
    _kantorovich,
    _two_sided(("images", "phi", ARITHMETIC, None, None), ("mean", "phi", "sigma", None, None)),
    unital=("phi",),
    hypotheses=(_between_harmonic_arithmetic("sigma"),),
)
_register(
    "t210",
    "f-image means: f(Phi(A)) t f(Phi(B)) <= K f(Phi(A s B))",
    _kantorovich,
    _build_t210,
    unital=("phi",),
    hypotheses=(
        _operator_monotone("f"),
        _between_harmonic_arithmetic("sigma"),
        _between_harmonic_arithmetic("tau"),
    ),
)
_register(
    "q2",
    "power comparison (A^p + B^p)/2 <= K (A # B)^p; a theorem only for p in [0, 1]",
    *_q2("p"),
)
_register(
    "q2sq",
    "the p = 2 instance of q2, which fails for some inputs",
    *_q2(2.0),
)
_register(
    "Q",
    "squared arithmetic vs Kantorovich-scaled squared geometric mean; fails for some inputs",
    _kantorovich,
    _two_sided(("mean", None, ARITHMETIC, None, 2.0), ("mean", None, GEOMETRIC, None, 2.0)),
)
_register(
    "aahh",
    "f of a smaller mean vs f of the arithmetic mean, for operator monotone f",
    _no_constants,
    _two_sided(("mean", None, "sigma", "f", None), ("mean", None, ARITHMETIC, "f", None), factor=None),
    hypotheses=(
        _operator_monotone("f"),
        ("sigma is not dominated by the arithmetic mean", lambda cfg: _harmonic_arithmetic(cfg.sigma.h)[1]),
    ),
)
_register(
    "add-reverse",
    "arithmetic mean vs geometric mean plus half the conjugated residual |I - C|",
    _no_constants,
    _build_add_reverse,
    hypotheses=(_operator_monotone("f"),),
)


def catalog() -> tuple:
    """All statement descriptors, in registration order."""
    return tuple(_CATALOG.values())


def statement_ids() -> tuple:
    return tuple(_CATALOG.keys())


def get_statement(statement_id: str) -> StatementInfo:
    try:
        return _CATALOG[statement_id]
    except KeyError:
        known = ", ".join(_CATALOG)
        raise UnknownStatementError(
            f"unknown statement {statement_id!r}; known ids: {known}"
        ) from None


def unitality_violations(cfg: StatementConfig) -> tuple:
    """Labels for non-unital maps in roles that require unitality."""
    return tuple(
        f"{role} ({getattr(cfg, role).describe()}) is not unital"
        for role in get_statement(cfg.statement_id).unital
        if not is_unital(getattr(cfg, role), dim=cfg.dim)
    )


def hypothesis_violations(cfg: StatementConfig) -> tuple:
    """Labels for violated mathematical hypotheses of the statement.

    These are the conditions under which the statement is a theorem; a
    nonempty result means trials would be testing the statement outside its
    advertised scope.  Checks are deterministic grid probes, not proofs.
    """
    return tuple(label for label, holds in get_statement(cfg.statement_id).hypotheses if not holds(cfg))


def _require_unital(cfg: StatementConfig):
    if bad := unitality_violations(cfg):
        raise UnitalityError("; ".join(bad))


def _require_count(info: StatementInfo, n: int):
    if info.multi:
        if n < 2:
            raise ValueError(f"statement {info.statement_id!r} needs at least two matrices")
        _check_alm_count(n)
    elif n != 2:
        raise ValueError(f"statement {info.statement_id!r} takes exactly two matrices")


def _input_stack(info: StatementInfo, mats: Sequence[SymMatrix]) -> np.ndarray:
    """The ``(n, d, d)`` stack of one trial's inputs ``mats``, after checking
    their count for the statement ``info`` and that they share a dimension."""
    _require_count(info, len(mats))
    if len({m.dim for m in mats}) > 1:
        raise ValueError("all input matrices must share one dimension")
    return np.array([m.data for m in mats])


def _as_matrices(x: np.ndarray) -> tuple:
    """The ``(n, d, d)`` stack ``x`` of symmetrized inputs as :class:`SymMatrix`
    values that share its memory; pass a copy where ``x`` is a view."""
    return tuple(SymMatrix._wrap(m) for m in x)


def _require_in_band(x: np.ndarray, band: SpectralBand):
    if (report := _first_out_of_band(x, band)) is not None:
        raise BandViolationError(report.offending_summary())


def check(
    cfg: StatementConfig,
    matrices: Sequence[SymMatrix],
    skip_band_check: bool = False,
    enforce_hypotheses: bool = True,
) -> Verdict:
    """Evaluate one statement on explicit matrices, as one trial of the engine.

    Band membership is validated unless ``skip_band_check`` is set (the
    bundled witnesses need that: they lie outside the bands they are
    checked with, see :mod:`~opmeanlab.counterexamples`).  With ``enforce_hypotheses`` the
    unitality requirements are errors; the falsifier disables that and
    records violated hypotheses on the witness instead.
    """
    info = get_statement(cfg.statement_id)
    x = _input_stack(info, [m if isinstance(m, SymMatrix) else SymMatrix(m) for m in matrices])
    if not skip_band_check:
        _require_in_band(x[None], cfg.band)
    if enforce_hypotheses:
        _require_unital(cfg)
    consts = info.constants(cfg, len(x))
    verdict = _loewner(*info.build(cfg, consts, x))
    return Verdict(
        statement_id=info.statement_id,
        holds=bool(verdict.holds),
        gap_min_eig=float(verdict.gap_min_eig),
        gap_det=float(verdict.gap_det),
        constants_used=consts,
        tol=float(verdict.tol_used),
    )


def seeded_inputs(cfg: StatementConfig, seed: int, start: int, stop: int) -> np.ndarray:
    """The drawn inputs of trials ``start .. stop - 1`` of a run seeded
    ``seed``, as a ``(stop - start, n, dim, dim)`` stack (n is 2, or
    ``cfg.n_matrices`` for a multi-matrix statement); see
    :func:`~opmeanlab.symmat.random_spd_trials`."""
    n = cfg.n_matrices if get_statement(cfg.statement_id).multi else 2
    # a count below two draws what it asks for (nothing if negative) and
    # is rejected where the inputs are evaluated
    return random_spd_trials(cfg.dim, cfg.band, max(n, 0), seed, start, stop)


def trial_blocks(cfg: StatementConfig, seed: int, start: int, stop: int):
    """Evaluate the seeded trials ``start .. stop - 1`` in blocks.

    Yields ``(first, x, verdict)`` per block of up to ``_BLOCK`` trials:
    ``x`` is the block's ``(T, n, d, d)`` input stack (trial ``first + t``
    is ``x[t]``) and ``verdict`` an :class:`~opmeanlab.symmat.OrderVerdict`
    of arrays over the block.  Draws stay per-trial streams; every trial is
    band-checked and gets the bits :func:`check` gives it alone.  Hypotheses
    are not enforced here; the input count is checked even for an empty
    range, and the statement's constants are computed once.
    """
    info = get_statement(cfg.statement_id)
    n = cfg.n_matrices if info.multi else 2
    _require_count(info, n)
    if stop <= start:
        return
    consts = info.constants(cfg, n)
    for first in range(start, stop, _BLOCK):
        x = seeded_inputs(cfg, seed, first, min(first + _BLOCK, stop))
        _require_in_band(x, cfg.band)
        yield first, x, _loewner(*info.build(cfg, consts, x))


def _scan(cfg: StatementConfig, seed: int, start: int, stop: int, labels: tuple) -> tuple:
    """``(violations, worst, kept)`` of the seeded trials ``start .. stop - 1``:
    the violating count, the smallest gap (``inf`` for none) and, worst first
    and the earlier trial first on ties, the ``_KEPT_WITNESSES`` most negative
    violations as :class:`Witness` records labeled ``labels``."""
    violations, worst, kept = 0, np.inf, []
    for first, x, verdict in trial_blocks(cfg, seed, start, stop):
        worst = min(worst, verdict.gap_min_eig.min())
        violating = np.flatnonzero(~verdict.holds)
        violations += len(violating)
        # the block's worst few, earlier trials first on ties
        order = np.argsort(verdict.gap_min_eig[violating], kind="stable")
        chosen = violating[order[:_KEPT_WITNESSES]]
        kept += [
            Witness(config=cfg, matrices=_as_matrices(mats), gap_min_eig=float(verdict.gap_min_eig[t]),
                    gap_det=float(verdict.gap_det[t]), seed=seed, trial_index=first + int(t),
                    band_checked=True, hypothesis_violations=labels)
            for t, mats in zip(chosen, x[chosen])
        ]
        # a stable sort: on equal gaps the earlier kept trials stay first
        kept = sorted(kept, key=attrgetter("gap_min_eig"))[:_KEPT_WITNESSES]
    return violations, worst, kept


def run_trials(cfg: StatementConfig, trials: int, seed: int) -> TrialReport:
    """Randomized verification: draw in-band matrices, evaluate, tally.

    Non-unital maps in unital roles raise; violated mathematical
    hypotheses reject every trial up front (the report says why) so a
    clean run always means the statement was tested inside its scope.
    Matrices are pinned to the band edges with probability one half each,
    which keeps the constants honest for roughly half the draws.  Each
    trial draws from its own seeded stream; evaluation runs in fixed
    blocks of trials, and only the worst violations are kept as witnesses
    (see :class:`TrialReport`), so memory stays flat in the trial count.
    """
    if trials < 0:
        raise ValueError("trial count must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    _require_unital(cfg)
    hyp = hypothesis_violations(cfg)
    violations, worst, kept = (0, np.inf, []) if hyp else _scan(cfg, seed, 0, trials, ())
    counted = 0 if hyp else trials
    return TrialReport(
        statement_id=cfg.statement_id,
        trials=trials,
        counted=counted,
        rejected=trials - counted,
        violations=violations,
        worst_margin=float(worst) if counted > 0 else None,
        seed=seed,
        witnesses=tuple(kept),
        hypothesis_violations=hyp,
    )
