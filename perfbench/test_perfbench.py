"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the
root of the checkout."""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def test_smoke_every_workload_reports_every_metric():
    end_to_end, per_layer, names = _declared()
    assert names == list(workloads.WORKLOADS)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--all", "--seed", "5",
                           "--seconds", "1"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
    for name in names:
        for kind, declared in (("untraced", end_to_end), ("traced", per_layer)):
            with open(os.path.join(ROOT, ".perfbench_out", f"{name}.{kind}.json")) as fh:
                result = json.load(fh)
            assert result["failed"] == 0 and result["attempted"] > 0
            assert set(result["metrics"]) == set(declared), (name, kind)
    for metric, unit in {**end_to_end, **per_layer}.items():
        assert run.unit_of(metric) == unit, metric
        assert re.search(rf"^  {re.escape(metric)} +\S+ {re.escape(unit)}$", proc.stdout, re.M), metric


def _tiny(name, tmp_path):
    """A small instance of a workload; cli-session runs in process."""
    cls = workloads.WORKLOADS[name]
    if name == "cli-session":
        w = cls(3, str(tmp_path), in_process=True)
        w.trials, w.budget = 5, 20
        w.setup()
    elif name == "violation-search":
        w = cls(3, str(tmp_path))
        w.setup()
        w.inputs = [replace(i, budget=40, refine_steps=10, trials=40) for i in w.inputs]
    else:
        w = cls(3, str(tmp_path))
        w.trials = w.trials_n3 = 1
        w.setup()
        if name == "multi-mean":
            w.grid = [g for g in w.grid if "/n3/" in g[0]]
    return w


def _traced_round(w):
    record = []
    tracer = Tracer(workloads.REPORTED_WITNESSES)
    tracer.install()
    try:
        failed = worker.run_rounds(w, 1, record).failed
    finally:
        tracer.uninstall()
    return record, failed, tracer


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_changes_no_result(name, tmp_path):
    w = _tiny(name, tmp_path)
    plain = []
    assert worker.run_rounds(w, 1, plain).failed == 0
    traced, failed, tracer = _traced_round(w)
    assert failed == 0
    assert traced == plain
    assert tracer.span_start, "the traced round recorded no spans"


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        w = _tiny("violation-search", tmp_path)
        _, failed, tracer = _traced_round(w)
        assert failed == 0
        counts.append((tracer.calls(), dict(tracer.kernel), tracer.witnesses_kept))
    assert counts[0] == counts[1]


def test_tail_percentile_leaves_ten_samples():
    assert worker.tail_percentile(1400) == 99.0
    assert worker.tail_percentile(150) == 90.0
    assert worker.tail_percentile(756) == 95.0
    assert worker.tail_percentile(70) == 75.0
    assert worker.tail_percentile(19) is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "theorem-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
