"""The four benchmark workloads.

Every workload is a closed loop with one client: ``ops(r)`` yields the
operations of round ``r`` one at a time and the worker times each public
call, checks its output, and only then starts the next one.  A round is one
pass over the workload's configurations; round ``r`` of a run seeded with
``s`` derives all its inputs from ``(s, r)``, so the same seed always gives
the same inputs.

Every workload sets ``nominal_round_s``, its typical round time on a 2-core
Xeon at 2.1 GHz (Python 3.11, numpy 2.4, OpenBLAS on one thread), which
sizes a run.

The program is imported as ``ol`` and always called through module
attributes (``ol.run_trials``, ``ol.falsify``...), so the tracer's wrappers,
which replace those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import opmeanlab as ol
import opmeanlab.cli as ol_cli
from opmeanlab import SpectralBand, StatementConfig

#: Worst margins of the reference round may move by at most this much
#: (absolute) against ``reference.json``: far above eigensolver roundoff,
#: far below any change of a statement's value.
MARGIN_TOL = 1e-9

#: Gaps from the program and from the benchmark's own oracle may differ by
#: at most ``GAP_TOL * (1 + |gap|)``; trials whose oracle gap lies within
#: this distance of the order tolerance are borderline and not held to an
#: exact verdict.
GAP_TOL = 1e-9

#: Seed of the untimed reference round compared against ``reference.json``.
REFERENCE_SEED = 20161013

#: The CLI reports at most this many witnesses of a trial run
#: (``cli.cmd_trials``); the rest are kept by ``run_trials`` but unused.
REPORTED_WITNESSES = 10

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def op_seed(seed: int, r: int, c: int) -> int:
    """Seed of configuration ``c`` in round ``r`` of a run seeded ``seed``."""
    return seed * 1_000_000 + r * 1_000 + c


@dataclass
class Op:
    """One public entry call on one configuration.

    ``call`` makes the call and returns its result; ``evals`` is the number
    of statement evaluations it performs; ``check`` returns a failure
    message or None; ``outcome`` reduces the result to a comparable tuple.
    """

    label: str
    evals: int
    call: Callable[[], object]
    check: Callable[[object], str | None]
    outcome: Callable[[object], tuple]


# ---------------------------------------------------------------------------
# The criterion-5 configuration grid, copied from tests/test_acceptance.py
# so that a test edit cannot move the benchmark.


def _frame(dim, cols, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, cols)))
    return q[:, :cols]


def _map_menu(dim):
    if dim == 2:
        pinch = ol.pinching([[0], [1]])
        return {
            "pairs": [(ol.identity_map(), pinch), (pinch, pinch)],
            "singles": [pinch, ol.identity_map(), ol.normalized_trace()],
            "positive": ol.scale(2.5),
        }
    if dim == 3:
        pinch = ol.pinching([[0, 1], [2]])
        cc = ol.convex_combination(
            [(0.4, ol.identity_map()), (0.6, ol.pinching([[0], [1], [2]]))]
        )
        return {
            "pairs": [(pinch, cc), (cc, ol.identity_map())],
            "singles": [pinch, ol.normalized_trace(), cc],
            "positive": ol.pinching([[0, 2], [1]]),
        }
    if dim == 4:
        comp_a = ol.compression(_frame(4, 2, 104))
        comp_b = ol.compression(_frame(4, 2, 204))
        pinch = ol.pinching([[0, 1], [2, 3]])
        return {
            "pairs": [(comp_a, comp_b), (pinch, ol.identity_map())],
            "singles": [comp_a, pinch, ol.identity_map()],
            "positive": comp_b,
        }
    pinch = ol.pinching([[0, 1, 2], [3, 4]])
    cc = ol.convex_combination(
        [(0.5, ol.identity_map()), (0.5, ol.pinching([[0, 1], [2, 3, 4]]))]
    )
    return {
        "pairs": [(pinch, ol.identity_map()), (cc, pinch)],
        "singles": [pinch, cc, ol.compression(_frame(5, 3, 305))],
        "positive": ol.convex_combination([(0.5, ol.identity_map()), (0.5, ol.scale(3.0))]),
    }


BANDS = [
    SpectralBand(1.0, 2.0),
    SpectralBand(0.5, 2.0),
    SpectralBand(1.0, 4.0),
    SpectralBand(2.0, 5.0),
    SpectralBand(0.8, 1.6),
]

SUITE_IDS = (
    "ando", "ps-1.1",
    "t22-a", "t22-b", "t22-c", "t22-d",
    "c23-a", "c23-b", "c23-c", "c23-d",
    "c-multi", "ragm", "yamazaki", "c27",
    "mond2", "mp-gamma", "hoa", "t210",
    "aahh", "add-reverse",
)
MULTI_IDS = ("c-multi", "ragm", "yamazaki")
DIMS = (2, 3, 4, 5)
Q2_EXPONENTS = (0.0, 0.25, 0.5, 1.0)


def _suite_config(sid, i_stmt, i_dim, dim, menu):
    fs = [ol.IDENTITY, ol.power_function(2.0), ol.EXP_MINUS_ONE, ol.power_function(0.5)]
    gs_sound = [ol.IDENTITY, ol.power_function(0.5), ol.EXP_MINUS_ONE, ol.power_function(3.0)]
    gs_monotone = [ol.IDENTITY, ol.power_function(0.5), ol.power_function(0.25), ol.power_function(1.0)]
    gs_concave = [ol.IDENTITY, ol.power_function(0.5), ol.power_function(0.3), ol.IDENTITY]
    fs_monotone = [ol.power_function(0.5), ol.IDENTITY, ol.power_function(0.25), ol.power_function(1.0)]
    sigmas = [ol.GEOMETRIC, ol.HARMONIC, ol.weighted_geometric(0.3), ol.weighted_arithmetic(0.7)]
    taus = [ol.ARITHMETIC, ol.weighted_harmonic(0.25), ol.GEOMETRIC, ol.weighted_geometric(0.6)]
    trio = [ol.GEOMETRIC, ol.HARMONIC, ol.ARITHMETIC, ol.GEOMETRIC]
    trio_2 = [ol.ARITHMETIC, ol.GEOMETRIC, ol.HARMONIC, ol.HARMONIC]
    pq = [(1.0, 1.0), (2.0, 1.0), (0.5, 2.0), (2.0, 3.0)]
    c23_p = {"c23-a": 0.5, "c23-b": 2.0, "c23-c": 1.5, "c23-d": 3.0}

    band = BANDS[(i_stmt + i_dim) % len(BANDS)]
    kwargs = {"statement_id": sid, "band": band, "dim": dim, "n_matrices": 3}
    phi, psi = menu["pairs"][i_stmt % 2]
    single = menu["singles"][(i_stmt + i_dim) % 3]
    if sid == "ando":
        kwargs.update(sigma=sigmas[i_dim], phi=menu["positive"])
    elif sid == "ps-1.1":
        kwargs.update(phi=single)
    elif sid.startswith("t22"):
        kwargs.update(sigma=sigmas[i_dim], tau=taus[i_dim], phi=phi, psi=psi,
                      f=fs[i_dim], g=gs_sound[i_dim])
    elif sid.startswith("c23"):
        kwargs.update(sigma=sigmas[i_dim], tau=taus[i_dim], phi=phi, psi=psi,
                      f=fs[i_dim], g=gs_sound[i_dim], p=c23_p[sid])
    elif sid == "c-multi":
        kwargs.update(phi=phi, psi=psi, f=fs[i_dim], g=gs_monotone[i_dim])
    elif sid == "c27":
        p, q = pq[i_dim]
        kwargs.update(phi=phi, psi=psi, p=p, q=q)
    elif sid == "mond2":
        kwargs.update(sigma=sigmas[i_dim], phi=single)
    elif sid == "mp-gamma":
        kwargs.update(sigma=trio[i_dim], phi=single, f=fs[i_dim], g=gs_concave[i_dim])
    elif sid == "hoa":
        kwargs.update(sigma=trio[i_dim], phi=single)
    elif sid == "t210":
        kwargs.update(sigma=trio[i_dim], tau=trio_2[i_dim], phi=single, f=fs_monotone[i_dim])
    elif sid == "aahh":
        kwargs.update(sigma=trio_2[i_dim] if i_dim % 2 else trio[i_dim], f=fs_monotone[i_dim])
    elif sid == "add-reverse":
        kwargs.update(f=fs_monotone[i_dim])
    return StatementConfig(**kwargs)


def _screen(configs):
    """Every configuration must be a theorem inside its scope, so that every
    trial is counted: the workloads expect zero rejected trials."""
    for label, cfg, _ in configs:
        bad = ol.unitality_violations(cfg) + ol.hypothesis_violations(cfg)
        if bad:
            raise ValueError(f"{label}: configuration outside its scope: {'; '.join(bad)}")


# ---------------------------------------------------------------------------
# In-process trial campaigns: theorem-sweep and multi-mean.


def _trial_outcome(rep):
    return (rep.counted, rep.rejected, rep.violations, rep.worst_margin)


def _clean_check(trials):
    def check(rep):
        if (rep.counted, rep.rejected, rep.violations) != (trials, 0, 0):
            return (f"expected {trials} counted, 0 rejected, 0 violations; got "
                    f"{rep.counted} counted, {rep.rejected} rejected, {rep.violations} violations")
        if rep.worst_margin is None or not np.isfinite(rep.worst_margin):
            return f"worst margin {rep.worst_margin!r} is not finite"
        return None

    return check


class TrialCampaign:
    """A grid of theorem configurations run through ``run_trials``.

    Subclasses set ``build_grid``, returning ``(label, config, trials)``
    triples.  Every trial of every configuration must be counted and clean.
    """

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.grid = []

    def build_grid(self):
        raise NotImplementedError

    def setup(self):
        self.grid = self.build_grid()
        _screen(self.grid)

    def ops(self, r: int, seed: int | None = None):
        seed = self.seed if seed is None else seed
        for c, (label, cfg, trials) in enumerate(self.grid):
            s = op_seed(seed, r, c)
            yield Op(
                label=label,
                evals=trials,
                call=lambda cfg=cfg, trials=trials, s=s: ol.run_trials(cfg, trials, s),
                check=_clean_check(trials),
                outcome=_trial_outcome,
            )

    def reference_outcomes(self):
        """Outcomes of the untimed reference round, as stored in
        ``reference.json``."""
        return [[op.label, *op.outcome(op.call())] for op in self.ops(0, REFERENCE_SEED)]

    def verify(self):
        """Compare the reference round with ``reference.json``; returns the
        number of operations run and a list of failure messages."""
        with open(REFERENCE_PATH) as fh:
            expected = json.load(fh)[self.name]
        got = self.reference_outcomes()
        failures = []
        if len(got) != len(expected):
            return len(got), [f"reference round has {len(got)} operations, expected {len(expected)}"]
        for g, e in zip(got, expected):
            if g[:4] != e[:4] or abs(g[4] - e[4]) > MARGIN_TOL:
                failures.append(f"reference {g[0]}: got {g[1:]}, expected {e[1:]}")
        return len(got), failures


class TheoremSweep(TrialCampaign):
    """The 17 binary-input theorems of criterion 5 plus ``q2`` at
    p in {0, 0.25, 0.5, 1}, at d = 2..5."""

    name = "theorem-sweep"
    nominal_round_s = 2.2
    trials = 40

    def build_grid(self):
        grid = []
        for i_stmt, sid in enumerate(SUITE_IDS):
            if sid in MULTI_IDS:
                continue
            for i_dim, dim in enumerate(DIMS):
                cfg = _suite_config(sid, i_stmt, i_dim, dim, _map_menu(dim))
                grid.append((f"{sid}/d{dim}", cfg, self.trials))
        for i_p, p in enumerate(Q2_EXPONENTS):
            for i_dim, dim in enumerate(DIMS):
                band = BANDS[(i_p + i_dim) % len(BANDS)]
                cfg = StatementConfig(statement_id="q2", band=band, dim=dim, p=p)
                grid.append((f"q2/p{p:g}/d{dim}", cfg, self.trials))
        return grid


class MultiMean(TrialCampaign):
    """``c-multi``, ``ragm`` and ``yamazaki`` at n = 3 for d = 2..5, plus
    n = 4 at d = 2."""

    name = "multi-mean"
    nominal_round_s = 2.1
    trials_n3 = 7
    trials_n4 = 1

    def build_grid(self):
        grid = []
        for i_stmt, sid in enumerate(SUITE_IDS):
            if sid not in MULTI_IDS:
                continue
            for i_dim, dim in enumerate(DIMS):
                cfg = _suite_config(sid, i_stmt, i_dim, dim, _map_menu(dim))
                grid.append((f"{sid}/n3/d{dim}", cfg, self.trials_n3))
                if dim == 2:
                    grid.append((f"{sid}/n4/d{dim}", replace(cfg, n_matrices=4), self.trials_n4))
        return grid


# ---------------------------------------------------------------------------
# violation-search: falsify, refine and run_trials on falsifiable inputs,
# checked against an oracle written with numpy alone.


def _sym(x):
    return (x + np.swapaxes(x, -1, -2)) / 2.0


def _spectral(x, fn):
    w, q = np.linalg.eigh(x)
    return _sym((q * fn(w)[..., None, :]) @ np.swapaxes(q, -1, -2))


def _geometric(a, b):
    half = _spectral(a, np.sqrt)
    inv_half = _spectral(a, lambda w: 1.0 / np.sqrt(w))
    return _sym(half @ _spectral(_sym(inv_half @ b @ inv_half), np.sqrt) @ half)


def oracle_gaps(statement_id: str, p: float, band: SpectralBand, a, b):
    """Smallest gap eigenvalue and order tolerance of ``q2``/``q2sq``/``Q``
    for stacks of matrix pairs ``a``, ``b`` of shape ``(T, d, d)``."""
    k = (band.M + band.m) ** 2 / (4.0 * band.M * band.m)
    power = lambda x, e: _spectral(x, lambda w: w**e)
    if statement_id == "q2sq":
        p = 2.0
    if statement_id == "Q":
        lhs = power((a + b) / 2.0, 2.0)
        rhs = k * power(_geometric(a, b), 2.0)
    else:
        lhs = (power(a, p) + power(b, p)) / 2.0
        rhs = k * power(_geometric(a, b), p)
    gap = np.linalg.eigvalsh(rhs - lhs)[..., 0]
    norm = lambda x: np.abs(np.linalg.eigvalsh(x)).max(axis=-1)
    tol = 1e-9 * (1.0 + np.maximum(norm(lhs), norm(rhs)))
    return gap, tol


def oracle_draws(seed: int, indices, dim: int, band: SpectralBand):
    """The seeded in-band pairs of ``run_trials``, drawn with numpy alone:
    trial ``i`` uses ``default_rng([seed, i])``, pins each matrix to the
    band edges with probability one half, and conjugates uniform
    eigenvalues by a sign-fixed Haar orthogonal matrix."""
    a = np.empty((len(indices), dim, dim))
    b = np.empty_like(a)
    for k, i in enumerate(indices):
        rng = np.random.default_rng([seed, i])
        for out in (a, b):
            pinned = rng.random() < 0.5
            w = rng.uniform(band.m, band.M, size=dim)
            if pinned:
                w.sort()
                w[0], w[-1] = band.m, band.M
            q, rr = np.linalg.qr(rng.standard_normal((dim, dim)))
            q = q * np.where(np.diagonal(rr) >= 0.0, 1.0, -1.0)
            out[k] = _sym((q * w) @ q.T)
    return a, b


def _stack(mats):
    return np.array([np.asarray(m.data) for m in mats])


def _gap_close(x, y):
    return abs(x - y) <= GAP_TOL * (1.0 + abs(y))


@dataclass(frozen=True)
class Falsifiable:
    label: str
    cfg: StatementConfig
    known: str | None
    budget: int
    refine_steps: int
    trials: int


class ViolationSearch:
    """``falsify``, then ``refine`` on its witness, then ``run_trials``, on
    ``q2sq`` at band 0.4:3, ``Q`` and ``q2`` at p = 2, the last two started
    from the bundled witnesses."""

    name = "violation-search"
    nominal_round_s = 2.5
    refine_radius = 0.05

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.inputs = []

    def setup(self):
        self.inputs = [
            Falsifiable("q2sq", StatementConfig("q2sq", band=SpectralBand(0.4, 3.0)), None, 1000, 300, 2000),
            Falsifiable("Q", StatementConfig("Q", band=ol.KNOWN_WITNESSES["Q"].band), "Q", 300, 100, 1000),
            Falsifiable("q2-p2", StatementConfig("q2", band=ol.KNOWN_WITNESSES["q2"].band, p=2.0),
                        "q2", 300, 100, 1000),
        ]

    def _oracle(self, inp, seed, indices, initial=None):
        a, b = oracle_draws(seed, indices, inp.cfg.dim, inp.cfg.band)
        if initial is not None:
            a = np.concatenate([_stack(initial[:1]), a])
            b = np.concatenate([_stack(initial[1:]), b])
        return oracle_gaps(inp.cfg.statement_id, inp.cfg.p, inp.cfg.band, a, b)

    def _check_falsify(self, inp, s):
        initial = ol.KNOWN_WITNESSES[inp.known].matrices if inp.known else None
        start = 1 if initial is not None else 0
        gap, tol = self._oracle(inp, s, range(start, inp.budget), initial)
        index = np.arange(start, inp.budget)
        if initial is not None:
            index = np.concatenate([[-1], index])

        def check(w):
            violating = gap < -tol
            if not violating.any():
                return "oracle finds no violation; the input is not falsifiable"
            if w is None:
                return "no witness found"
            best = int(np.argmin(np.where(violating, gap, np.inf)))
            if w.trial_index != index[best]:
                return f"witness trial {w.trial_index}, oracle expects {index[best]}"
            if not _gap_close(w.gap_min_eig, gap[best]):
                return f"witness gap {w.gap_min_eig!r}, oracle {gap[best]!r}"
            return None

        return check

    def _check_refine(self, inp, witness_gap):
        band = inp.cfg.band

        def check(w):
            if w.gap_min_eig > witness_gap:
                return f"refined gap {w.gap_min_eig!r} above the witness gap {witness_gap!r}"
            a, b = _stack(w.matrices[:1]), _stack(w.matrices[1:])
            gap, _ = oracle_gaps(inp.cfg.statement_id, inp.cfg.p, band, a, b)
            if not _gap_close(w.gap_min_eig, gap[0]):
                return f"refined gap {w.gap_min_eig!r}, oracle {gap[0]!r}"
            if w.gap_min_eig < witness_gap:
                w_all = np.linalg.eigvalsh(np.concatenate([a, b]))
                slack = 1e-9 * (1.0 + band.M)
                if w_all.min() < band.m - slack or w_all.max() > band.M + slack:
                    return "refined witness left the band"
            return None

        return check

    def _check_trials(self, inp, s):
        gap, tol = self._oracle(inp, s, range(inp.trials))
        borderline = int((np.abs(gap + tol) <= GAP_TOL * (1.0 + np.abs(gap))).sum())
        expected = int((gap < -tol).sum())

        def check(rep):
            if (rep.counted, rep.rejected) != (inp.trials, 0):
                return f"expected {inp.trials} counted and 0 rejected, got {rep.counted}, {rep.rejected}"
            if abs(rep.violations - expected) > borderline:
                return f"{rep.violations} violations, oracle expects {expected}"
            # A report may keep fewer witnesses than violations, but only
            # real ones.
            if len(rep.witnesses) > rep.violations:
                return f"{len(rep.witnesses)} witnesses kept for {rep.violations} violations"
            for w in rep.witnesses:
                if not (0 <= w.trial_index < inp.trials and gap[w.trial_index] < -tol[w.trial_index]
                        and _gap_close(w.gap_min_eig, gap[w.trial_index])):
                    return f"kept witness of trial {w.trial_index} is not an oracle violation"
            if not _gap_close(rep.worst_margin, float(gap.min())):
                return f"worst margin {rep.worst_margin!r}, oracle {float(gap.min())!r}"
            return None

        return check

    def ops(self, r: int, seed: int | None = None):
        seed = self.seed if seed is None else seed
        for c, inp in enumerate(self.inputs):
            s = op_seed(seed, r, c)
            initial = ol.KNOWN_WITNESSES[inp.known].matrices if inp.known else None
            found = {}

            def run_falsify(inp=inp, s=s, initial=initial):
                w = ol.falsify(inp.cfg, inp.budget, s, initial_matrices=initial)
                found["witness"] = w
                return w

            yield Op(
                label=f"{inp.label}/falsify",
                evals=inp.budget,
                call=run_falsify,
                check=self._check_falsify(inp, s),
                outcome=lambda w: w and (w.trial_index, w.gap_min_eig, w.gap_det),
            )
            witness = found.get("witness")
            if witness is None:
                continue
            yield Op(
                label=f"{inp.label}/refine",
                evals=inp.refine_steps,
                call=lambda w=witness, inp=inp, s=s: ol.refine(w, inp.refine_steps, self.refine_radius, s),
                check=self._check_refine(inp, witness.gap_min_eig),
                outcome=lambda w: (w.gap_min_eig, w.gap_det),
            )
            yield Op(
                label=f"{inp.label}/trials",
                evals=inp.trials,
                call=lambda inp=inp, s=s: ol.run_trials(inp.cfg, inp.trials, s),
                check=self._check_trials(inp, s),
                outcome=lambda rep: (*_trial_outcome(rep), len(rep.witnesses)),
            )

    def verify(self):
        return 0, []


# ---------------------------------------------------------------------------
# cli-session: a fixed sequence of opmeanlab CLI invocations.


class CliSession:
    """``reproduce``, a full ``constants`` table, ``mean`` on two and on
    three matrix files, ``check --matrices``, and small ``trials`` and
    ``falsify`` runs with ``--format json --report``.

    By default every invocation is a fresh ``python -m opmeanlab.cli``
    process.  With ``in_process`` the same argument lists go to
    ``opmeanlab.cli.main`` with stdout captured, which is how the traced run
    sees the ``cli`` and ``matio`` layers.
    """

    name = "cli-session"
    nominal_round_s = 1.9
    dim = 4
    band = SpectralBand(1.0, 2.0)
    trials = 40
    budget = 60

    def __init__(self, seed: int, workdir: str, in_process: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.argvs = []
        self.paths = []
        self.first_stdout = {}

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng([self.seed, 0])
        paths = []
        for name in "ABC":
            path = os.path.join(self.workdir, f"{name}.txt")
            ol.write_sym_matrix(path, ol.random_spd(self.dim, self.band, pinned=bool(rng.random() < 0.5), rng=rng))
            paths.append(path)
        band = f"{self.band.m:g}:{self.band.M:g}"
        s = op_seed(self.seed, 0, 0)
        report = lambda name: os.path.join(self.workdir, f"{name}.report.json")
        self.argvs = [
            ("reproduce", 2, ["reproduce", "--format", "json"]),
            ("constants", 0, ["constants", "--band", band, "--sigma", "geometric", "--f", "power:2",
                              "--g", "power:0.5", "--eps", "0.3", "--n-matrices", "5", "--format", "json"]),
            ("mean2", 0, ["mean", paths[0], paths[1], "--sigma", "geometric", "--format", "json"]),
            ("mean3", 0, ["mean", *paths, "--format", "json"]),
            ("check", 1, ["check", "ps-1.1", "--band", band, "--dim", str(self.dim),
                          "--matrices", paths[0], paths[1], "--format", "json"]),
            ("trials", self.trials, ["trials", "ando", "--band", band, "--dim", str(self.dim),
                                     "--phi", "scale:2", "--trials", str(self.trials), "--seed", str(s),
                                     "--format", "json", "--report", report("trials")]),
            ("falsify", self.budget, ["falsify", "q2sq", "--band", "0.4:3", "--budget", str(self.budget),
                                      "--seed", str(s), "--expect-violation", "--format", "json",
                                      "--report", report("falsify")]),
        ]
        self.paths = paths
        self.report = report

    def _invoke(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ol_cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "opmeanlab.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def _check(self, label):
        def check(result):
            code, stdout = result
            if code != 0:
                return f"exit code {code}, expected 0"
            first = self.first_stdout.setdefault(label, stdout)
            if stdout != first:
                return "output differs from the first invocation"
            if label in ("trials", "falsify"):
                with open(self.report(label)) as fh:
                    if fh.read() != stdout:
                        return "--report file differs from stdout"
            if label == "reproduce" and json.loads(stdout).get("ok") is not True:
                return 'reproduce did not report "ok": true'
            return None

        return check

    def ops(self, r: int, seed: int | None = None):
        for label, evals, argv in self.argvs:
            yield Op(
                label=label,
                evals=evals,
                call=lambda argv=argv: self._invoke(argv),
                check=self._check(label),
                outcome=lambda result: result,
            )

    def verify(self):
        """Check the content of the first outputs against closed forms, the
        numpy oracle and in-process calls of the library; returns operations
        run and failures."""
        out = {label: json.loads(text) for label, text in self.first_stdout.items()}
        if set(out) != {label for label, _, _ in self.argvs}:
            return 0, ["some CLI invocations never produced output"]
        mats = [ol.read_sym_matrix(p) for p in self.paths]
        band = self.band
        s = op_seed(self.seed, 0, 0)
        failures = []

        def close(x, y, what):
            if not np.allclose(np.asarray(x, dtype=float), np.asarray(y, dtype=float), rtol=1e-12, atol=1e-12):
                failures.append(f"{what}: CLI {x!r}, expected {y!r}")

        c = out["constants"]
        k = (band.M + band.m) ** 2 / (4.0 * band.M * band.m)
        close(c["kantorovich"], k, "kantorovich")
        close(c["polya_szego"], np.sqrt(k), "polya_szego")
        close(c["yamazaki"]["value"], k**2, "yamazaki at n = 5")
        close(c["alpha"], ol.mp_alpha(ol.GEOMETRIC.h, band), "alpha")
        mp = ol.mp_gamma(ol.power_function(2.0), ol.power_function(0.5), ol.GEOMETRIC.h, band)
        close(c["mp"]["gamma"], mp.gamma, "gamma")
        close(c["weighted_kantorovich"]["value"], ol.weighted_kantorovich(band.m, band.M, 0.3), "weighted")
        a, b = _stack(mats[:1]), _stack(mats[1:2])
        close(out["mean2"]["result"], _geometric(a, b)[0], "mean of 2")
        close(out["mean3"]["result"], ol.alm_mean(mats).data, "mean of 3")
        v = ol.check(StatementConfig("ps-1.1", band=band, dim=self.dim), mats[:2])
        if out["check"]["holds"] is not True or not v.holds:
            failures.append("check ps-1.1 does not hold")
        close(out["check"]["gap_min_eig"], v.gap_min_eig, "check gap")
        cfg = StatementConfig("ando", band=band, dim=self.dim, phi=ol.scale(2.0))
        rep = ol.run_trials(cfg, self.trials, s)
        t = out["trials"]
        if (t["counted"], t["rejected"], t["violations"]) != (self.trials, 0, 0) or rep.violations:
            failures.append(f"trials: {t['counted']} counted, {t['rejected']} rejected, {t['violations']} violations")
        close(t["worst_margin"], rep.worst_margin, "trials worst margin")
        w = ol.falsify(StatementConfig("q2sq", band=SpectralBand(0.4, 3.0)), self.budget, s)
        f = out["falsify"]
        if not f["found"] or w is None or f["witness"]["trial_index"] != w.trial_index:
            failures.append("falsify: witness differs from the library's")
        else:
            close(f["witness"]["gap_min_eig"], w.gap_min_eig, "falsify gap")
        return 7, failures


WORKLOADS = {
    "theorem-sweep": TheoremSweep,
    "multi-mean": MultiMean,
    "violation-search": ViolationSearch,
    "cli-session": CliSession,
}
