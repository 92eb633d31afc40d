"""Command line interface.

Subcommands: ``constants`` (constant table for a band), ``mean`` (evaluate
a mean on matrix files), ``check`` (one statement on explicit or seeded
matrices), ``trials`` (randomized verification), ``falsify`` (counterexample
search), ``reproduce`` (re-derive the bundled known violations).

Exit codes: 0 when the run completed and the outcome matched expectation
(``--expect-violation`` flips what counts as expected), 1 when it
completed contrary to expectation, 2 for usage or configuration errors and
for runs that cannot finish (overflow, exhausted memory, a mean or
eigensolver that does not converge), reported as one ``error:`` line on
stderr.

Every statement flag is declared, read and reported from one table.  An
omitted flag, or a text flag given empty, keeps its default in every command:
the bundled witness's band and p for ``falsify --seed-known``, else the
default of :class:`StatementConfig`.

JSON output is canonical: keys sorted, two-space indent, no timing fields,
so identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import asdict, replace
from operator import attrgetter

import numpy as np

from . import __version__
from .constants import (
    MPConstants,
    _ratio_interval,
    kantorovich,
    mp_alpha,
    mp_gamma,
    polya_szego_coeff,
    secant_coeffs,
    weighted_kantorovich,
    yamazaki_coeff,
)
from .counterexamples import (
    KNOWN_WITNESSES,
    YAMAZAKI_SHARPNESS_BAND,
    YAMAZAKI_SHARPNESS_N,
)
from .functions import EXP_MINUS_ONE, IDENTITY, power_function, scaled_power_function
from .kubo_ando import (
    ARITHMETIC,
    AlmConvergenceError,
    GEOMETRIC,
    HARMONIC,
    _check_alm_limits,
    alm_mean,
    mean,
    weighted_arithmetic,
    weighted_geometric,
    weighted_harmonic,
)
from .linmaps import (
    MapDescriptor,
    compression,
    identity_map,
    normalized_trace,
    pinching,
    scale,
    unitalize,
)
from .matio import format_sym_matrix, read_general_matrix, read_sym_matrix
from .search import falsify
from .statements import StatementConfig, check, get_statement, run_trials, seeded_inputs
from .symmat import EigenConvergenceError, SpectralBand, validate_band

__all__ = ["main"]


def _number(kind, text: str, grammar: str):
    """``kind(text)``; a spelling that is no such number is a grammar error."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(grammar) from None


def parse_band(text: str) -> SpectralBand:
    grammar = f"band must look like m:M, got {text!r}"
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(grammar)
    return SpectralBand(*(_number(float, part, grammar) for part in parts))


def parse_mean(text: str):
    grammar = f"unknown mean {text!r}; use arithmetic|geometric|harmonic with optional :weight"
    name, _, weight = text.partition(":")
    if name == "arithmetic":
        return weighted_arithmetic(_number(float, weight, grammar)) if weight else ARITHMETIC
    if name == "geometric":
        return weighted_geometric(_number(float, weight, grammar)) if weight else GEOMETRIC
    if name == "harmonic":
        return weighted_harmonic(_number(float, weight, grammar)) if weight else HARMONIC
    raise ValueError(grammar)


def parse_map(text: str, dim: int = StatementConfig.dim):
    """The map named by ``text``; ``dim`` is the dimension at which a
    dimension-agnostic map is unitalized."""
    grammar = f"unknown map {text!r}; use identity|trace|scale:k|pinch:0,1|2|compress:file|unitalize:<map>"
    if text == "identity":
        return identity_map()
    if text == "trace":
        return normalized_trace()
    head, _, rest = text.partition(":")
    if head == "scale":
        return scale(_number(float, rest, grammar))
    if head == "pinch":
        blocks = [tuple(_number(int, i, grammar) for i in blk.split(",")) for blk in rest.split("|")]
        return pinching(blocks)
    if head == "compress":
        return compression(read_general_matrix(rest))
    if head == "unitalize":
        return unitalize(parse_map(rest, dim), dim=dim)
    raise ValueError(grammar)


def parse_function(text: str):
    grammar = f"unknown function {text!r}; use identity|expm1|power:p|spower:c,p"
    if text == "identity":
        return IDENTITY
    if text == "expm1":
        return EXP_MINUS_ONE
    head, _, rest = text.partition(":")
    if head == "power":
        return power_function(_number(float, rest, grammar))
    if head == "spower" and rest.count(",") == 1:
        c, p = (_number(float, part, grammar) for part in rest.split(","))
        return scaled_power_function(c, p)
    raise ValueError(grammar)


#: The statement flags, one row per :class:`StatementConfig` field, in the
#: order ``--help`` lists them: how the flag's text is read, how a report
#: shows the value, and the help line.  Numbers are read by argparse, so a
#: malformed one is a usage error; :func:`build_config` reads the rest, the
#: maps at ``--dim``.
_FLAGS = {
    "band": (parse_band, asdict, "spectral band m:M (default 1:2)"),
    "dim": (int, int, "matrix dimension for drawn inputs"),
    "sigma": (parse_mean, attrgetter("name"), "mean sigma, e.g. geometric or arithmetic:0.3"),
    "tau": (parse_mean, attrgetter("name"), "mean tau (same grammar as --sigma)"),
    "phi": (parse_map, MapDescriptor.describe,
            "map phi: identity|trace|scale:k|pinch:...|compress:file|unitalize:<map>"),
    "psi": (parse_map, MapDescriptor.describe, "map psi (same grammar as --phi)"),
    "f": (parse_function, attrgetter("name"), "scalar function f: identity|expm1|power:p|spower:c,p"),
    "g": (parse_function, attrgetter("name"), "scalar function g (same grammar as --f)"),
    "p": (float, float, "exponent p"),
    "q": (float, float, "exponent q"),
    "n_matrices": (int, int, "inputs for multi-matrix statements"),
}


def _add_config_flags(p: argparse.ArgumentParser, names=tuple(_FLAGS)):
    """Declare the statement flags ``names`` from their rows of :data:`_FLAGS`."""
    for name in names:
        read, _, help_line = _FLAGS[name]
        number = read in (int, float)
        p.add_argument("--" + name.replace("_", "-"), type=read if number else None, help=help_line)


def _add_statement_flags(p: argparse.ArgumentParser):
    """The statement id and flags, the seed, the expectation and the report flags."""
    p.add_argument("statement", help="statement id, e.g. ando; see README for the catalog")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--expect-violation", action="store_true", help="treat a found violation as the expected outcome")
    _add_report_flags(p)


def _add_report_flags(p: argparse.ArgumentParser):
    p.add_argument("--report", default=None, help="write the JSON report to this path")
    p.add_argument("--format", choices=("text", "json"), default="text", help="stdout format")


def build_config(args, **defaults) -> StatementConfig:
    """The statement of the flags in ``args``, the one default rule of the CLI.

    Each field takes its flag's value, else its value in ``defaults``, else
    the default of :class:`StatementConfig`; a value that is None or empty
    counts as not given.  ``constants`` and ``mean`` name no statement.
    """
    flags = {name: vars(args).get(name) for name in _FLAGS}
    values = {
        name: value for given in (defaults, flags) for name, value in given.items()
        if value is not None and value != ""
    }
    dim = values.get("dim", StatementConfig.dim)
    for name, value in values.items():
        if isinstance(value, str):
            read = _FLAGS[name][0]
            values[name] = read(value, dim) if read is parse_map else read(value)
    return StatementConfig(vars(args).get("statement", ""), **values)


def _config_dict(cfg: StatementConfig) -> dict:
    shown = {name: show(getattr(cfg, name)) for name, (_, show, _) in _FLAGS.items()}
    return {"statement": cfg.statement_id, **shown}


def _constants_dict(value) -> object:
    if isinstance(value, MPConstants):
        return {k: v for k, v in asdict(value).items() if k != "band"}
    return value


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def emit(report: dict, args, text_lines) -> None:
    """Stamp ``report`` with the command and versions, then write it: as
    ``--format`` asks on stdout, and as JSON to the ``--report`` path."""
    report["command"] = args.command
    report["versions"] = {
        "opmeanlab": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    if args.format == "json":
        sys.stdout.write(render_json(report))
    else:
        for line in text_lines:
            print(line)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(render_json(report))


def _verdict(report: dict, args, cfg: StatementConfig, lines, violated: bool) -> int:
    """Add the config and ``expect_violation`` to ``report``, emit it, and
    return 0 if ``violated`` matches ``--expect-violation``, else 1."""
    report["config"] = _config_dict(cfg)
    report["expect_violation"] = bool(args.expect_violation)
    emit(report, args, lines)
    return 0 if violated == report["expect_violation"] else 1


def cmd_constants(args) -> int:
    cfg = build_config(args)
    band = cfg.band
    report = {
        "band": asdict(band),
        "kantorovich": kantorovich(band),
        "polya_szego": polya_szego_coeff(band),
    }
    lines = [
        f"band [{band.m:g}, {band.M:g}]",
        f"kantorovich        {report['kantorovich']:.12g}",
        f"polya_szego        {report['polya_szego']:.12g}",
    ]
    if args.sigma:
        alpha = mp_alpha(cfg.sigma.h, band)
        mu_h, nu_h = secant_coeffs(cfg.sigma.h, *_ratio_interval(band))
        report["sigma"] = cfg.sigma.name
        report["mu_h"] = mu_h
        report["nu_h"] = nu_h
        report["alpha"] = alpha
        lines.append(f"sigma              {cfg.sigma.name}")
        lines.append(f"mu_h               {mu_h:.12g}")
        lines.append(f"nu_h               {nu_h:.12g}")
        lines.append(f"alpha              {alpha:.12g}")
    if args.f or args.g:
        consts = mp_gamma(cfg.f, cfg.g, cfg.sigma.h, band)
        report["mp"] = _constants_dict(consts)
        lines.append(f"gamma              {consts.gamma:.12g}  (f={cfg.f.name}, g={cfg.g.name}, sigma={cfg.sigma.name})")
    if args.eps is not None:
        wk = weighted_kantorovich(band.m, band.M, args.eps)
        report["weighted_kantorovich"] = {"eps": args.eps, "value": wk}
        lines.append(f"weighted (eps={args.eps:g})  {wk:.12g}")
    if args.n_matrices is not None:
        ycoeff = yamazaki_coeff(band, args.n_matrices)
        report["yamazaki"] = {"n": args.n_matrices, "value": ycoeff}
        lines.append(f"yamazaki (n={args.n_matrices})   {ycoeff:.12g}")
    emit(report, args, lines)
    return 0


def cmd_mean(args) -> int:
    mats = [read_sym_matrix(p) for p in args.matrices]
    if len(mats) < 2:
        raise ValueError("mean needs at least two matrix files")
    sigma = build_config(args).sigma
    given = {"tol": args.tol, "max_iter": args.max_iter}
    limits = {k: v for k, v in given.items() if v is not None}
    if len(mats) == 2:
        # the binary mean takes no stopping rule, but a bad one is refused as for three
        _check_alm_limits(**limits)
        result = mean(sigma, mats[0], mats[1])
        label = sigma.name
    else:
        if sigma.name != "geometric":
            raise ValueError("only the unweighted geometric mean is defined for three or more matrices")
        result = alm_mean(mats, **limits)
        label = f"geometric ({len(mats)} matrices)"
    report = {
        "mean": label,
        "inputs": list(args.matrices),
        "result": result.data.tolist(),
    }
    emit(report, args, [f"# {label}", format_sym_matrix(result).rstrip("\n")])
    return 0


def _fit_to_files(cfg: StatementConfig, args, mats) -> StatementConfig:
    """``cfg`` with the dimension of the matrix files ``mats`` and, for a
    multi-matrix statement, their count, so that the report shows what was
    evaluated.  A ``--dim`` or ``--n-matrices`` given that disagrees raises."""
    d, n = mats[0].dim, len(mats)
    multi = get_statement(cfg.statement_id).multi
    if args.dim is not None and args.dim != d:
        raise ValueError(f"--dim {args.dim} disagrees with the files' {d}x{d} matrices")
    if multi and args.n_matrices is not None and args.n_matrices != n:
        raise ValueError(f"--n-matrices {args.n_matrices} disagrees with the {n} matrix files")
    return replace(cfg, dim=d, n_matrices=n) if multi else replace(cfg, dim=d)


def cmd_check(args) -> int:
    cfg = build_config(args)
    if args.matrices:
        mats = [read_sym_matrix(p) for p in args.matrices]
        cfg = _fit_to_files(cfg, args, mats)
    else:
        # the seeded draw is trial 0 of a run seeded with --seed
        mats = list(seeded_inputs(cfg, args.seed, 0, 1)[0])
    verdict = check(cfg, mats, skip_band_check=args.skip_band_check)
    report = {
        "matrices_from": list(args.matrices) if args.matrices else f"seeded draw (seed {args.seed})",
        "holds": verdict.holds,
        "gap_min_eig": verdict.gap_min_eig,
        "gap_det": verdict.gap_det,
        "tol": verdict.tol,
        "constants_used": _constants_dict(verdict.constants_used),
    }
    word = "holds" if verdict.holds else "VIOLATED"
    lines = [
        f"{cfg.statement_id}: {word}",
        f"  gap_min_eig  {verdict.gap_min_eig:.6e}",
        f"  gap_det      {verdict.gap_det:.6e}",
        f"  tol          {verdict.tol:.3e}",
    ]
    return _verdict(report, args, cfg, lines, not verdict.holds)


def cmd_trials(args) -> int:
    cfg = build_config(args)
    t0 = time.perf_counter()
    rep = run_trials(cfg, args.trials, args.seed)
    elapsed = time.perf_counter() - t0
    report = {
        "trials": rep.trials,
        "counted": rep.counted,
        "rejected": rep.rejected,
        "violations": rep.violations,
        "worst_margin": rep.worst_margin,
        "seed": rep.seed,
        "hypothesis_violations": list(rep.hypothesis_violations),
        "witnesses": [
            {
                "trial_index": w.trial_index,
                "gap_min_eig": w.gap_min_eig,
                "gap_det": w.gap_det,
            }
            for w in rep.witnesses
        ],
    }
    lines = [
        f"{cfg.statement_id}: {rep.violations} violations in {rep.counted} counted trials "
        f"({rep.rejected} rejected, seed {rep.seed})",
    ]
    if rep.hypothesis_violations:
        for label in rep.hypothesis_violations:
            lines.append(f"  rejected: {label}")
    if rep.worst_margin is not None:
        lines.append(f"  worst margin {rep.worst_margin:.6e}")
    for w in rep.witnesses[:5]:
        lines.append(
            f"  violation at trial {w.trial_index}: gap_min_eig {w.gap_min_eig:.6e}, gap_det {w.gap_det:.6e}"
        )
    lines.append(f"  elapsed {elapsed:.3f}s")
    code = _verdict(report, args, cfg, lines, rep.violations > 0)
    return 1 if rep.trials > 0 and rep.counted == 0 else code


def cmd_falsify(args) -> int:
    known = KNOWN_WITNESSES.get(args.statement) if args.seed_known else None
    # a bundled witness is replayed in its own band, at its own p
    cfg = build_config(args, band=getattr(known, "band", None), p=getattr(known, "p", None))
    initial = None
    skip_initial = bool(args.skip_band_check)
    if args.seed_known:
        if known is None:
            have = ", ".join(sorted(KNOWN_WITNESSES))
            raise ValueError(
                f"no bundled witness for {args.statement!r}; available: {have}"
            )
        initial = list(known.matrices)
        skip_initial = True
    elif args.matrices:
        initial = [read_sym_matrix(p) for p in args.matrices]
    t0 = time.perf_counter()
    witness = falsify(
        cfg,
        budget=args.budget,
        seed=args.seed,
        initial_matrices=initial,
        skip_band_check_initial=skip_initial,
    )
    elapsed = time.perf_counter() - t0
    report = {
        "budget": args.budget,
        "seed": args.seed,
        "found": witness is not None,
    }
    lines = []
    if witness is None:
        lines.append(f"{cfg.statement_id}: no violation found in {args.budget} draws (seed {args.seed})")
    else:
        report["witness"] = {
            "trial_index": witness.trial_index,
            "gap_min_eig": witness.gap_min_eig,
            "gap_det": witness.gap_det,
            "band_checked": witness.band_checked,
            "hypothesis_violations": list(witness.hypothesis_violations),
            "matrices": [m.data.tolist() for m in witness.matrices],
        }
        origin = "initial matrices" if witness.trial_index < 0 else f"trial {witness.trial_index}"
        lines.append(f"{cfg.statement_id}: VIOLATION from {origin}")
        lines.append(f"  gap_min_eig  {witness.gap_min_eig:.6e}")
        lines.append(f"  gap_det      {witness.gap_det:.6e}")
        if not witness.band_checked:
            lines.append("  band check   skipped for the initial matrices")
        for label in witness.hypothesis_violations:
            lines.append(f"  hypothesis   {label}")
    lines.append(f"  elapsed {elapsed:.3f}s")
    return _verdict(report, args, cfg, lines, witness is not None)


def cmd_reproduce(args) -> int:
    cases = []
    all_ok = True
    lines = []
    for sid in ("Q", "q2sq"):
        known = KNOWN_WITNESSES[sid]
        cfg = StatementConfig(statement_id=sid, band=known.band)
        verdict = check(cfg, known.matrices, skip_band_check=True)
        band_report = validate_band(known.matrices, known.band)
        det_ok = abs(verdict.gap_det - known.reference_det) <= known.det_tolerance
        ok = det_ok and not verdict.holds
        all_ok = all_ok and ok
        cases.append(
            {
                "statement": sid,
                "holds": verdict.holds,
                "gap_min_eig": verdict.gap_min_eig,
                "gap_det": verdict.gap_det,
                "reference_det": known.reference_det,
                "det_tolerance": known.det_tolerance,
                "band_ok_at_printed_precision": band_report.passed,
                "ok": ok,
            }
        )
        status = "ok" if ok else "MISMATCH"
        lines.append(
            f"{sid}: gap_det {verdict.gap_det:.10f} vs reference {known.reference_det} "
            f"(tol {known.det_tolerance:g}) -> {status}"
        )
        if not band_report.passed:
            spectra = " and ".join(f"[{c.eigenvalues[0]:.3g}, {c.eigenvalues[-1]:.3g}]" for c in band_report.checks)
            lines.append(
                f"  note: published matrices lie outside band [{known.band.m:g}, {known.band.M:g}] "
                f"(spectra {spectra}); band check skipped"
            )
    ycoeff = yamazaki_coeff(YAMAZAKI_SHARPNESS_BAND, YAMAZAKI_SHARPNESS_N)
    crude = YAMAZAKI_SHARPNESS_BAND.ratio
    y_ok = ycoeff <= crude
    all_ok = all_ok and y_ok
    lines.append(
        f"yamazaki coefficient at (m, M, n) = ({YAMAZAKI_SHARPNESS_BAND.m:g}, "
        f"{YAMAZAKI_SHARPNESS_BAND.M:g}, {YAMAZAKI_SHARPNESS_N}): "
        f"{ycoeff:.6f} <= {crude:g} -> {'ok' if y_ok else 'MISMATCH'}"
    )
    report = {
        "cases": cases,
        "yamazaki": {
            "band": asdict(YAMAZAKI_SHARPNESS_BAND),
            "n": YAMAZAKI_SHARPNESS_N,
            "coefficient": ycoeff,
            "crude_ratio": crude,
            "ok": y_ok,
        },
        "ok": all_ok,
    }
    lines.append("all reproductions ok" if all_ok else "REPRODUCTION MISMATCH")
    emit(report, args, lines)
    return 0 if all_ok else 1


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opmeanlab",
        description="numerical laboratory for operator-mean inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="constant table for a band")
    _add_config_flags(p, ("band", "sigma", "f", "g", "n_matrices"))
    p.add_argument("--eps", type=float, default=None, help="weight for the weighted constant")
    _add_report_flags(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("mean", help="evaluate a mean on matrix files")
    p.add_argument("matrices", nargs="+", help="matrix files (two for a binary mean, more for the geometric)")
    _add_config_flags(p, ("sigma",))
    p.add_argument("--tol", type=float, default=None, help="fixed-point tolerance for three or more")
    p.add_argument("--max-iter", type=int, default=None, help="fixed-point iteration cap")
    _add_report_flags(p)
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("check", help="evaluate one statement once")
    p.add_argument("--matrices", nargs="+", default=None, help="matrix files; omitted means a seeded draw")
    p.add_argument("--skip-band-check", action="store_true", help="skip band validation of explicit matrices")
    _add_statement_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("trials", help="randomized verification of one statement")
    p.add_argument("--trials", type=int, default=100, help="number of seeded trials")
    _add_statement_flags(p)
    p.set_defaults(func=cmd_trials)

    p = sub.add_parser("falsify", help="search for a violating input")
    p.add_argument("--budget", type=int, default=1000, help="number of random draws")
    p.add_argument("--matrices", nargs="+", default=None, help="matrix files to try first")
    p.add_argument("--skip-band-check", action="store_true", help="skip band validation of explicit matrices")
    p.add_argument(
        "--seed-known",
        action="store_true",
        help="start from the bundled witness for this statement (Q, q2, q2sq)",
    )
    _add_statement_flags(p)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("reproduce", help="re-derive the bundled known violations")
    _add_report_flags(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, AlmConvergenceError, EigenConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
