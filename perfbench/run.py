"""opmeanlab benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload theorem-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced

Each workload runs in a fresh child process (``worker.py``) with BLAS
pinned to one thread.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  Every metric is printed by name with its
unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run artifacts (the
matrix files of cli-session, the spans of a traced run, one result file per
workload) go to ``.perfbench_out/`` in the checkout.  The exit code is 0
only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ("theorem-sweep", "multi-mean", "violation-search", "cli-session")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

#: Seconds one run may take in all, set-up processes included; a stalled
#: child is killed when this runs out.
RUN_BUDGET_S = 170.0

#: Thread pins for every BLAS numpy may be built against.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Fresh set-up-only processes per untraced run, half before and half
#: after the measuring process so that they sample the whole run;
#: ``setup_s`` is the median over these and the measuring process.
SETUP_REPEATS = 6

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git checkout."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(BLAS_PIN)
    return env


def run_child(root: str, workload: str, seed: int, seconds: int, mode: str | None,
              deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out-dir", os.path.join(root, OUT_DIR)]
    if mode:
        cmd.append(mode)
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        result = run_child(root, workload, seed, seconds, "--trace", deadline)
    else:
        setup = lambda: run_child(root, workload, seed, seconds, "--setup-only", deadline)["setup_s"]
        setups = [setup() for _ in range(SETUP_REPEATS // 2)]
        result = run_child(root, workload, seed, seconds, None, deadline)
        setups.append(result.pop("setup_s"))
        setups += [setup() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["meta"]["setup_samples"] = setups
    result["meta"].update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        src_lines=src_lines(root),
        nproc=os.cpu_count(),
        cpu=cpu_model(),
        python=platform.python_version(),
        blas_pin=BLAS_PIN,
        commit=commit(root),
        **result.pop("environment"),
    )
    return result


def report(result: dict) -> dict:
    """Print one workload's metrics with units and return the final line."""
    meta = result["meta"]
    print(f"== {meta['workload']} (seed {meta['seed']}, {'traced' if meta['trace'] else 'untraced'})")
    for name, value in result["metrics"].items():
        print(f"  {name:<44} {value:>16.6g} {unit_of(name)}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'failed_frac':<44} {frac:>16.6g} ratio ({result['failed']} of {result['attempted']})")
    print("  meta " + json.dumps(meta, sort_keys=True))
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in result["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="opmeanlab benchmark")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "opmeanlab", "__init__.py")):
        print("error: run from the root of an opmeanlab checkout (src/opmeanlab not found)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)

    runs = [(w, t) for w in WORKLOADS for t in (False, True)] if args.all else [(args.workload, bool(args.trace))]
    lines = []
    for workload, trace in runs:
        try:
            result = run_workload(root, workload, args.seed, args.seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        name = f"{workload}.{'traced' if trace else 'untraced'}.json"
        with open(os.path.join(root, OUT_DIR, name), "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
        lines.append(report(result))
    if args.all:
        final = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {},
        }
    else:
        final = lines[0]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
