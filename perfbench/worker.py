"""One workload in one fresh process.

Started by ``run.py``; only ``--write-reference`` is meant to be run by
hand.  The first statement
starts the set-up clock, so ``setup_s`` covers importing numpy and
opmeanlab and building the workload's configurations and inputs.

Modes:

* ``--setup-only``: set up, print the set-up time, exit.
* default: set up, then run ``measured_rounds`` rounds of the workload's
  operations, checking every output, then run the workload's untimed
  verification.
* ``--write-reference``: store the outcomes of a trial campaign's
  reference round (seed ``workloads.REFERENCE_SEED``) in ``reference.json``;
  only for a deliberate change of the program's results.
* ``--trace``: run a fixed number of rounds untraced, install the tracer,
  set up again and run the same rounds traced; check that both give the
  same outcomes and report the per-layer metrics.

The last line of stdout is one JSON object for ``run.py``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import opmeanlab  # noqa: E402
import opmeanlab.cli  # noqa: E402

_T_IMPORT = time.perf_counter()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Candidate tail percentiles; the tail is the highest one that leaves at
#: least ten samples beyond it.  Coarse steps leave more samples beyond the
#: chosen percentile, which keeps the tail from tracking single bursts of
#: machine noise.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float | None:
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p
    return None


@dataclass
class Rounds:
    """What a sequence of rounds measured: per-round operation time and
    evaluations, per-operation latencies, operations attempted and failed."""

    times: list = field(default_factory=list)
    evals: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_rounds(workload, rounds: int, record: list | None = None,
               budget_s: float | None = None) -> Rounds:
    """Run ``rounds`` rounds, or fewer if ``budget_s`` seconds of operation
    time pass first; with ``record``, append each operation's label and
    outcome to it."""
    out = Rounds()
    for r in range(rounds):
        if budget_s is not None and sum(out.times) >= budget_s:
            break
        spent = 0.0
        evals = 0
        for op in workload.ops(r):
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception:
                spent += time.perf_counter() - t0
                out.failed += 1
                print(f"round {r} {op.label}: raised\n{traceback.format_exc()}", file=sys.stderr)
                if record is not None:
                    record.append((op.label, "raised"))
                continue
            dt = time.perf_counter() - t0
            spent += dt
            out.latencies.append(dt)
            evals += op.evals
            problem = op.check(result)
            if problem is not None:
                out.failed += 1
                print(f"round {r} {op.label}: {problem}", file=sys.stderr)
            if record is not None:
                record.append((op.label, op.outcome(result)))
        out.times.append(spent)
        out.evals.append(evals)
    return out


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


#: An untraced run stops early once its operation time passes this multiple
#: of ``--seconds``, so that a slow machine cannot stretch it without limit.
OVERRUN = 1.5


def measured_rounds(workload, seconds: float) -> int:
    """Rounds of an untraced run: as many as take ``seconds`` at the
    workload's nominal round time.  The work of a run, hence its operation
    count and tail percentile, depends only on ``seconds``, not on how fast
    the machine happens to be, unless it is more than ``OVERRUN`` times
    slower than nominal."""
    return max(3, round(seconds / workload.nominal_round_s))


def untraced(workload, seconds: float) -> dict:
    run = run_rounds(workload, measured_rounds(workload, seconds), budget_s=OVERRUN * seconds)
    rss = _peak_rss_mb(resource.RUSAGE_SELF)
    if workload.name == "cli-session":
        # The invocations are separate processes; their peak is what a user sees.
        rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    checked, failures = workload.verify()
    for problem in failures:
        print(f"verification: {problem}", file=sys.stderr)
    p = tail_percentile(len(run.latencies))
    lat = np.array(run.latencies)
    metrics = {
        "wall_s": float(np.median(run.times)),
        "evals_per_s": float(np.median(np.array(run.evals) / np.array(run.times))),
        "op_p50_s": float(np.median(lat)),
        "op_tail_s": float(np.percentile(lat, p)) if p is not None else float(lat.max()),
        "peak_rss_mb": rss,
    }
    meta = {
        "rounds": len(run.times),
        "round_times": run.times,
        "operations": len(run.latencies),
        "evaluations": sum(run.evals),
        "tail_percentile": p,
        "tail_samples": len(run.latencies),
    }
    return {"attempted": run.attempted + checked, "failed": run.failed + len(failures),
            "metrics": metrics, "meta": meta}


def trace_rounds(seconds: float) -> int:
    """Rounds of a traced run: fixed by ``--seconds`` so that two traced
    runs with the same arguments make exactly the same calls."""
    return max(1, min(3, int(seconds) // 5))


def traced(workload, seconds: float, out_dir: str, import_s: float) -> dict:
    rounds = trace_rounds(seconds)
    plain_record, traced_record = [], []
    plain = run_rounds(workload, rounds, plain_record)

    tracer = Tracer(workloads.REPORTED_WITNESSES)
    tracer.install()
    try:
        workload.setup()
        traced_run = run_rounds(workload, rounds, traced_record)
    finally:
        tracer.uninstall()
    failed = plain.failed + traced_run.failed
    if plain_record != traced_record:
        failed += 1
        print("traced outcomes differ from untraced ones", file=sys.stderr)
    tracer.save(os.path.join(out_dir, f"{workload.name}.spans.npz"))
    evals = sum(plain.evals)
    metrics = per_layer(tracer, evals, import_s)
    metrics["trace.overhead_s"] = float(np.median(traced_run.times) - np.median(plain.times))
    meta = {"rounds": rounds, "evaluations": evals, "spans": len(tracer.span_start)}
    return {"attempted": plain.attempted + traced_run.attempted, "failed": failed,
            "metrics": metrics, "meta": meta}


def per_layer(tracer: Tracer, evals: int, import_s: float) -> dict:
    calls = tracer.calls()
    own = tracer.self_times()
    out = {}
    for name in (
        "symmat.random_spd", "symmat.validate_band", "symmat.apply_scalar", "symmat.loewner_leq",
        "kubo_ando.mean", "linmaps.apply_map", "statements.check",
        "constants.mp_gamma", "constants.mp_alpha",
        "search.falsify", "search.refine", "functions.probe",
        "cli.main", "matio.read_sym_matrix", "matio.write_sym_matrix",
    ):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = own.get(name, 0.0)
    for n in (3, 4):
        out[f"kubo_ando.alm_mean.n{n}.calls"] = calls[f"kubo_ando.alm_mean.n{n}"]
        out[f"kubo_ando.alm_mean.n{n}.self_s"] = own.get(f"kubo_ando.alm_mean.n{n}", 0.0)
    alm_names = [n for n in tracer.names if n.startswith("kubo_ando.alm_mean.n")]
    alm_calls = sum(calls[n] for n in alm_names)
    out["kubo_ando.alm_mean.calls"] = alm_calls
    out["kubo_ando.alm_mean.self_s"] = sum(own.get(n, 0.0) for n in alm_names)
    out["kubo_ando.alm_mean.eigh_per_call"] = tracer.alm_eigh / alm_calls if alm_calls else 0.0
    out["constants.self_s"] = sum(v for n, v in own.items() if n.startswith("constants."))
    out["constants.distinct_args_ratio"] = (
        len(tracer.constant_args) / tracer.constant_calls if tracer.constant_calls else 0.0
    )
    out["statements.run_trials.calls"] = calls["statements.run_trials"]
    out["statements.run_trials.self_s"] = own.get("statements.run_trials", 0.0)
    out["statements.run_trials.witnesses_kept"] = tracer.witnesses_kept
    out["statements.witness_used_ratio"] = (
        tracer.witnesses_reported / tracer.witnesses_kept if tracer.witnesses_kept else 1.0
    )
    out["statements.hypothesis_violations.self_s"] = own.get("statements.hypothesis_violations", 0.0)
    for key in ("eigh", "eigvalsh", "qr"):
        out[f"linalg.{key}.calls"] = tracer.kernel[key]
    out["linalg.eig_per_eval"] = (tracer.kernel["eigh"] + tracer.kernel["eigvalsh"]) / evals if evals else 0.0
    out["cli.import_s"] = import_s
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "opmeanlab": opmeanlab.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--write-reference", action="store_true",
                      help="store the reference round of a trial campaign in reference.json")
    args = parser.parse_args()

    workdir = os.path.join(args.out_dir, f"{args.workload}.work")
    cls = workloads.WORKLOADS[args.workload]
    if args.workload == "cli-session":
        workload = cls(args.seed, workdir, in_process=args.trace)
    else:
        workload = cls(args.seed, workdir)
    workload.setup()
    setup_s = time.perf_counter() - _T0
    if args.write_reference:
        stored = {}
        if os.path.exists(workloads.REFERENCE_PATH):
            with open(workloads.REFERENCE_PATH) as fh:
                stored = json.load(fh)
        stored[args.workload] = workload.reference_outcomes()
        with open(workloads.REFERENCE_PATH, "w") as fh:
            blocks = [
                f'  "{name}": [\n' + ",\n".join("    " + json.dumps(row) for row in rows) + "\n  ]"
                for name, rows in sorted(stored.items())
            ]
            fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
        return 0
    if args.setup_only:
        result = {"setup_s": setup_s}
    elif args.trace:
        result = traced(workload, args.seconds, args.out_dir, _T_IMPORT - _T0)
    else:
        result = untraced(workload, args.seconds)
        result["setup_s"] = setup_s
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
