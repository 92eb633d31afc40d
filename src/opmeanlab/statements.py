"""Inequality statement catalog.

Each statement builds a left and right side from a configuration (matrices,
band, means, maps, scalar functions, exponents) and compares them in the
Loewner order.  The catalog mixes statements that are theorems under their
hypotheses (expected to never fail a trial) with statements that are known
to fail for some parameters; the trial driver reports both honestly.

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
on one trial's ``(n, d, d)`` inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    _ALM_MAX_ITER,
    _ALM_TOL,
    ARITHMETIC,
    GEOMETRIC,
    MeanDescriptor,
    _alm,
    _binary_mean,
    _harmonic_arithmetic,
    is_between_harmonic_arithmetic,
)
from .linmaps import MapDescriptor, _apply_map, identity_map, is_unital
from .symmat import (
    SpectralBand,
    SymMatrix,
    _apply_scalar,
    _first_out_of_band,
    _loewner,
    _symmetrize,
    random_spd_trials,
)

__all__ = [
    "StatementConfig",
    "StatementInfo",
    "Verdict",
    "TrialViolation",
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


@dataclass(frozen=True)
class Verdict:
    """Outcome of one statement evaluation."""

    statement_id: str
    holds: bool
    gap_min_eig: float
    gap_det: float
    lhs: SymMatrix
    rhs: SymMatrix
    constants_used: object
    tol: float


@dataclass(frozen=True)
class TrialViolation:
    trial_index: int
    matrices: tuple
    gap_min_eig: float
    gap_det: float


@dataclass(frozen=True)
class TrialReport:
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
    """Catalog entry: identifier, short description, input shape, builder.

    ``constants(cfg, n)`` gives the constants a run with ``n`` inputs per
    trial uses (and reports); ``build(cfg, constants, x)`` maps the inputs
    ``x`` of shape ``(..., n, d, d)`` (any leading trial axes) to the
    ``(..., e, e)`` left and right sides.
    """

    statement_id: str
    summary: str
    multi: bool
    maps_used: tuple
    requires_unital: bool
    constants: Callable
    build: Callable


# Stack layers.  Each mirrors one SymMatrix-valued step of a statement's
# formula and symmetrizes exactly where that step's SymMatrix did.

def _mean(sigma: MeanDescriptor, a, b):
    return _symmetrize(_binary_mean(sigma.h, a, b))


def _pair(x):
    """The two inputs ``A, B`` of each trial."""
    return x[..., 0, :, :], x[..., 1, :, :]


def _images(phi: MapDescriptor, x):
    """Images of the pair ``A, B`` under ``phi``."""
    return _pair(_apply_map(phi, x))


def _favg(x):
    """Average of the ``n`` inputs of each trial."""
    n = x.shape[-3]
    return _symmetrize(sum(x[..., i, :, :] for i in range(n)) / n)


def _scaled(c: float, x):
    return _symmetrize(c * x)


def _power(x, p: float):
    return _apply_scalar(x, lambda t: t**p)


def _fn_power(x, fn: ScalarFunction, p: float):
    return _apply_scalar(x, lambda t: fn(t) ** p)


def _geo_mean(x):
    """Multi-matrix geometric mean of each trial's inputs."""
    tuples = x.reshape((-1,) + x.shape[-3:])
    return _symmetrize(_alm(tuples, _ALM_TOL, _ALM_MAX_ITER).reshape(x.shape[:-3] + x.shape[-2:]))


def _require_positive(value: float, name: str):
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_nonnegative(value: float, name: str):
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


# Constants, computed once per run: (cfg, inputs per trial) -> value.

def _no_constants(cfg, n):
    return None


def _kantorovich(cfg, n):
    return _const.kantorovich(cfg.band)


def _two_function_scalar(cfg, n):
    return float(cfg.f(cfg.band.M)) * float(cfg.g(1.0 / cfg.band.m))


def _c23_scalar(cfg, n):
    _require_positive(cfg.p, "exponent p")
    return _two_function_scalar(cfg, n) ** cfg.p


def _c27_scalar(cfg, n):
    _require_nonnegative(cfg.p, "exponent p")
    _require_nonnegative(cfg.q, "exponent q")
    return cfg.band.M**cfg.p * cfg.band.m ** (-cfg.q)


# Builders: (cfg, constants, x) -> (lhs, rhs) for inputs x of shape (..., n, d, d).

def _build_ando(cfg, k, x):
    lhs = _apply_map(cfg.phi, _mean(cfg.sigma, *_pair(x)))
    rhs = _mean(cfg.sigma, *_images(cfg.phi, x))
    return lhs, rhs


def _build_ps11(cfg, k, x):
    lhs = _mean(GEOMETRIC, *_images(cfg.phi, x))
    rhs = _scaled(k, _apply_map(cfg.phi, _mean(GEOMETRIC, *_pair(x))))
    return lhs, rhs


def _two_sided_cores(cfg, x, variant):
    """Cores for the map-vs-mean order variants: 'outside' applies the map
    to each matrix and takes the mean of the images, 'inside' applies the
    map to the mean."""
    if variant[0] == "outside":
        left = _mean(cfg.sigma, *_images(cfg.phi, x))
    else:
        left = _apply_map(cfg.phi, _mean(cfg.sigma, *_pair(x)))
    if variant[1] == "outside":
        right = _mean(cfg.tau, *_images(cfg.psi, x))
    else:
        right = _apply_map(cfg.psi, _mean(cfg.tau, *_pair(x)))
    return left, right


def _build_t22(variant):
    def build(cfg, k, x):
        left_core, right_core = _two_sided_cores(cfg, x, variant)
        lhs = _apply_scalar(left_core, cfg.f)
        rhs = _scaled(k, _apply_scalar(right_core, cfg.g))
        return lhs, rhs

    return build


def _build_c23(variant):
    def build(cfg, k, x):
        left_core, right_core = _two_sided_cores(cfg, x, variant)
        lhs = _fn_power(left_core, cfg.f, cfg.p)
        rhs = _scaled(k, _fn_power(right_core, cfg.g, cfg.p))
        return lhs, rhs

    return build


def _build_c_multi(cfg, k, x):
    lhs = _apply_scalar(_apply_map(cfg.phi, _favg(x)), cfg.f)
    rhs = _scaled(k, _apply_scalar(_geo_mean(_apply_map(cfg.psi, x)), cfg.g))
    return lhs, rhs


def _build_avg_vs_geo(cfg, k, x):
    return _favg(x), _scaled(k, _geo_mean(x))


def _build_c27(cfg, k, x):
    lhs = _power(_mean(GEOMETRIC, *_images(cfg.phi, x)), cfg.p)
    rhs = _scaled(k, _power(_apply_map(cfg.psi, _mean(GEOMETRIC, *_pair(x))), cfg.q))
    return lhs, rhs


def _build_mond2(cfg, k, x):
    lhs = _mean(cfg.sigma, *_images(cfg.phi, x))
    rhs = _scaled(k, _apply_map(cfg.phi, _mean(cfg.sigma, *_pair(x))))
    return lhs, rhs


def _build_mp_gamma(cfg, k, x):
    lhs = _apply_scalar(_mean(cfg.sigma, *_images(cfg.phi, x)), cfg.f)
    rhs = _scaled(k.gamma, _apply_scalar(_apply_map(cfg.phi, _mean(cfg.sigma, *_pair(x))), cfg.g))
    return lhs, rhs


def _build_hoa(cfg, k, x):
    lhs = _mean(ARITHMETIC, *_images(cfg.phi, x))
    rhs = _scaled(k, _apply_map(cfg.phi, _mean(cfg.sigma, *_pair(x))))
    return lhs, rhs


def _build_t210(cfg, k, x):
    lhs = _mean(cfg.tau, *_pair(_apply_scalar(_apply_map(cfg.phi, x), cfg.f)))
    rhs = _scaled(k, _apply_scalar(_apply_map(cfg.phi, _mean(cfg.sigma, *_pair(x))), cfg.f))
    return lhs, rhs


def _q2(force_p=None):
    def exponent(cfg):
        return cfg.p if force_p is None else force_p

    def constants(cfg, n):
        _require_nonnegative(exponent(cfg), "exponent p")
        return _const.kantorovich(cfg.band)

    def build(cfg, k, x):
        p = exponent(cfg)
        lhs = _favg(_power(x, p))
        rhs = _scaled(k, _power(_mean(GEOMETRIC, *_pair(x)), p))
        return lhs, rhs

    return constants, build


def _build_big_q(cfg, k, x):
    a, b = _pair(x)
    lhs = _power(_mean(ARITHMETIC, a, b), 2.0)
    rhs = _scaled(k, _power(_mean(GEOMETRIC, a, b), 2.0))
    return lhs, rhs


def _build_aahh(cfg, k, x):
    a, b = _pair(x)
    lhs = _apply_scalar(_mean(cfg.sigma, a, b), cfg.f)
    rhs = _apply_scalar(_mean(ARITHMETIC, a, b), cfg.f)
    return lhs, rhs


def _build_add_reverse(cfg, k, x):
    a, b = _pair(x)
    lhs = _apply_scalar(_mean(ARITHMETIC, a, b), cfg.f)
    # A # B + A^(1/2) |I - C| A^(1/2) / 2 with C = A^(-1/2) B A^(-1/2) is one
    # spectral transform of C conjugated back.  The congruence form of the
    # mean kernel holds for any spectral function, monotone or not, so the
    # kernel evaluates it as it evaluates a mean.
    corrected = _binary_mean(lambda t: np.sqrt(t) + 0.5 * np.abs(1.0 - t), a, b)
    rhs = _apply_scalar(corrected, cfg.f)
    return lhs, rhs


_CATALOG: dict = {}


def _register(statement_id, summary, constants, build, multi=False, maps_used=(), requires_unital=False):
    _CATALOG[statement_id] = StatementInfo(
        statement_id=statement_id,
        summary=summary,
        multi=multi,
        maps_used=tuple(maps_used),
        requires_unital=requires_unital,
        constants=constants,
        build=build,
    )


_register(
    "ando",
    "positive maps are subadditive across operator means: Phi(A s B) <= Phi(A) s Phi(B)",
    _no_constants,
    _build_ando,
    maps_used=("phi",),
)
_register(
    "ps-1.1",
    "geometric-mean reverse: Phi(A) # Phi(B) <= ((M+m)/(2 sqrt(Mm))) Phi(A # B)",
    lambda cfg, n: _const.polya_szego_coeff(cfg.band),
    _build_ps11,
    maps_used=("phi",),
)
for _variant, _letter in (
    (("outside", "outside"), "a"),
    (("outside", "inside"), "b"),
    (("inside", "outside"), "c"),
    (("inside", "inside"), "d"),
):
    _register(
        f"t22-{_letter}",
        "two-function reverse f("
        + ("mean of images" if _variant[0] == "outside" else "image of mean")
        + ") <= f(M) g(1/m) g("
        + ("mean of images" if _variant[1] == "outside" else "image of mean")
        + ")",
        _two_function_scalar,
        _build_t22(_variant),
        maps_used=("phi", "psi"),
        requires_unital=True,
    )
    _register(
        f"c23-{_letter}",
        "p-th power variant of the two-function reverse",
        _c23_scalar,
        _build_c23(_variant),
        maps_used=("phi", "psi"),
        requires_unital=True,
    )
_register(
    "c-multi",
    "multi-matrix reverse: f(Phi(avg)) <= f(M) g(1/m) g(geo-mean of Psi images)",
    _two_function_scalar,
    _build_c_multi,
    multi=True,
    maps_used=("phi", "psi"),
    requires_unital=True,
)
_register(
    "ragm",
    "crude reverse arithmetic-geometric comparison with ratio M/m",
    lambda cfg, n: cfg.band.ratio,
    _build_avg_vs_geo,
    multi=True,
)
_register(
    "yamazaki",
    "reverse arithmetic-geometric comparison with coefficient K^((n-1)/2)",
    lambda cfg, n: _const.yamazaki_coeff(cfg.band, n),
    _build_avg_vs_geo,
    multi=True,
)
_register(
    "c27",
    "power-exponent reverse (Phi(A) # Phi(B))^p <= M^p m^(-q) (Psi(A # B))^q",
    _c27_scalar,
    _build_c27,
    maps_used=("phi", "psi"),
    requires_unital=True,
)
_register(
    "mond2",
    "calibrated reverse Phi(A) s Phi(B) <= alpha Phi(A s B)",
    lambda cfg, n: _const.mp_alpha(cfg.sigma.h, cfg.band),
    _build_mond2,
    maps_used=("phi",),
    requires_unital=True,
)
_register(
    "mp-gamma",
    "two-function calibrated reverse f(Phi(A) s Phi(B)) <= gamma g(Phi(A s B))",
    lambda cfg, n: _const.mp_gamma(cfg.f, cfg.g, cfg.sigma.h, cfg.band),
    _build_mp_gamma,
    maps_used=("phi",),
    requires_unital=True,
)
_register(
    "hoa",
    "arithmetic mean of images vs K times image of an intermediate mean",
    _kantorovich,
    _build_hoa,
    maps_used=("phi",),
    requires_unital=True,
)
_register(
    "t210",
    "f-image means: f(Phi(A)) t f(Phi(B)) <= K f(Phi(A s B))",
    _kantorovich,
    _build_t210,
    maps_used=("phi",),
    requires_unital=True,
)
_register(
    "q2",
    "power comparison (A^p + B^p)/2 <= K (A # B)^p; a theorem only for p in [0, 1]",
    *_q2(),
)
_register(
    "q2sq",
    "the p = 2 instance of q2, which fails for some inputs",
    *_q2(force_p=2.0),
)
_register(
    "Q",
    "squared arithmetic vs Kantorovich-scaled squared geometric mean; fails for some inputs",
    _kantorovich,
    _build_big_q,
)
_register(
    "aahh",
    "f of a smaller mean vs f of the arithmetic mean, for operator monotone f",
    _no_constants,
    _build_aahh,
)
_register(
    "add-reverse",
    "arithmetic mean vs geometric mean plus half the conjugated residual |I - C|",
    _no_constants,
    _build_add_reverse,
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
    info = get_statement(cfg.statement_id)
    if not info.requires_unital:
        return ()
    labels = []
    for role in info.maps_used:
        the_map = getattr(cfg, role)
        if not is_unital(the_map, dim=cfg.dim):
            labels.append(f"{role} ({the_map.describe()}) is not unital")
    return tuple(labels)


def hypothesis_violations(cfg: StatementConfig) -> tuple:
    """Labels for violated mathematical hypotheses of the statement.

    These are the conditions under which the statement is a theorem; a
    nonempty result means trials would be testing the statement outside its
    advertised scope.  Checks are deterministic grid probes, not proofs.
    """
    info = get_statement(cfg.statement_id)
    sid = info.statement_id
    labels = []
    if sid == "mp-gamma":
        if not increasing_on(cfg.g, cfg.band.m, cfg.band.M):
            labels.append("g is not increasing on the band")
        if not midpoint_concave(cfg.g, cfg.band.m, cfg.band.M):
            labels.append("g is not concave on the band")
    elif sid == "hoa":
        if not is_between_harmonic_arithmetic(cfg.sigma.h):
            labels.append("sigma is not between the harmonic and arithmetic means")
    elif sid == "t210":
        if not is_operator_monotone(cfg.f):
            labels.append("f is not operator monotone")
        if not is_between_harmonic_arithmetic(cfg.sigma.h):
            labels.append("sigma is not between the harmonic and arithmetic means")
        if not is_between_harmonic_arithmetic(cfg.tau.h):
            labels.append("tau is not between the harmonic and arithmetic means")
    elif sid == "aahh":
        if not is_operator_monotone(cfg.f):
            labels.append("f is not operator monotone")
        if not _harmonic_arithmetic(cfg.sigma.h)[1]:
            labels.append("sigma is not dominated by the arithmetic mean")
    elif sid == "add-reverse":
        if not is_operator_monotone(cfg.f):
            labels.append("f is not operator monotone")
    elif sid == "c-multi":
        if not is_operator_monotone(cfg.g):
            labels.append("g is not operator monotone")
    return tuple(labels)


def _require_count(info: StatementInfo, n: int):
    if info.multi:
        if n < 2:
            raise ValueError(f"statement {info.statement_id!r} needs at least two matrices")
    elif n != 2:
        raise ValueError(f"statement {info.statement_id!r} takes exactly two matrices")


def _as_matrices(x: np.ndarray) -> tuple:
    """The ``(n, d, d)`` stack ``x`` of symmetrized inputs as :class:`SymMatrix`
    values that share its memory; pass a copy where ``x`` is a view."""
    return tuple(SymMatrix._wrap(m) for m in x)


def _require_in_band(x: np.ndarray, band: SpectralBand):
    _, report = _first_out_of_band(x, band)
    if report is not None:
        raise BandViolationError(report.offending_summary())


def check(
    cfg: StatementConfig,
    matrices: Sequence[SymMatrix],
    tol: float | None = None,
    skip_band_check: bool = False,
    enforce_hypotheses: bool = True,
) -> Verdict:
    """Evaluate one statement on explicit matrices, as one trial of the engine.

    Band membership is validated unless ``skip_band_check`` is set (the
    published witnesses need that: at four printed decimals their spectra
    drift outside the nominal bands).  With ``enforce_hypotheses`` the
    unitality requirements are errors; the falsifier disables that and
    records violated hypotheses on the witness instead.
    """
    info = get_statement(cfg.statement_id)
    mats = [m if isinstance(m, SymMatrix) else SymMatrix(m) for m in matrices]
    _require_count(info, len(mats))
    dim = mats[0].dim
    for m in mats[1:]:
        if m.dim != dim:
            raise ValueError("all input matrices must share one dimension")
    x = np.array([m.data for m in mats])
    if not skip_band_check:
        _require_in_band(x[None], cfg.band)
    if enforce_hypotheses:
        bad = unitality_violations(cfg)
        if bad:
            raise UnitalityError("; ".join(bad))
    consts = info.constants(cfg, len(mats))
    lhs, rhs = info.build(cfg, consts, x)
    verdict = _loewner(lhs, rhs, tol)
    return Verdict(
        statement_id=info.statement_id,
        holds=bool(verdict.holds),
        gap_min_eig=float(verdict.gap_min_eig),
        gap_det=float(verdict.gap_det),
        lhs=SymMatrix._wrap(lhs),
        rhs=SymMatrix._wrap(rhs),
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
    are not enforced here; the statement's constants are computed once.
    """
    if stop <= start:
        return
    info = get_statement(cfg.statement_id)
    n = cfg.n_matrices if info.multi else 2
    _require_count(info, n)
    consts = info.constants(cfg, n)
    for first in range(start, stop, _BLOCK):
        x = seeded_inputs(cfg, seed, first, min(first + _BLOCK, stop))
        _require_in_band(x, cfg.band)
        yield first, x, _loewner(*info.build(cfg, consts, x))


def run_trials(cfg: StatementConfig, trials: int, seed: int) -> TrialReport:
    """Randomized verification: draw in-band matrices, evaluate, tally.

    Non-unital maps in unital roles raise; violated mathematical
    hypotheses reject every trial up front (the report says why) so a
    clean run always means the statement was tested inside its scope.
    Matrices are pinned to the band edges with probability one half each,
    which keeps the constants honest for roughly half the draws.  Each
    trial draws from its own seeded stream; evaluation runs in fixed
    blocks of trials through :func:`trial_blocks`.
    """
    if trials < 0:
        raise ValueError("trial count must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    info = get_statement(cfg.statement_id)
    bad_unital = unitality_violations(cfg)
    if bad_unital:
        raise UnitalityError("; ".join(bad_unital))
    hyp = hypothesis_violations(cfg)
    if hyp:
        return TrialReport(
            statement_id=info.statement_id,
            trials=trials,
            counted=0,
            rejected=trials,
            violations=0,
            worst_margin=None,
            seed=seed,
            witnesses=(),
            hypothesis_violations=hyp,
        )
    if info.multi and cfg.n_matrices < 2:
        raise ValueError("n_matrices must be at least 2")
    violations = []
    worst = np.inf
    for first, x, verdict in trial_blocks(cfg, seed, 0, trials):
        worst = min(worst, verdict.gap_min_eig.min())
        violating = np.flatnonzero(~verdict.holds)
        for t, mats in zip(violating, x[violating]):
            violations.append(
                TrialViolation(
                    trial_index=first + int(t),
                    matrices=_as_matrices(mats),
                    gap_min_eig=float(verdict.gap_min_eig[t]),
                    gap_det=float(verdict.gap_det[t]),
                )
            )
    return TrialReport(
        statement_id=info.statement_id,
        trials=trials,
        counted=trials,
        rejected=0,
        violations=len(violations),
        worst_margin=float(worst) if trials > 0 else None,
        seed=seed,
        witnesses=tuple(violations),
        hypothesis_violations=(),
    )
