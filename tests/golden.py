"""Golden reports: fixed ``check``/``trials``/``falsify``/``reproduce`` runs.

Each case is rendered as canonical JSON (sorted keys, two-space indent)
holding its exit code and its report, with the ``versions`` field masked,
and stored in ``tests/golden/<name>.json``.  ``tests/test_golden.py``
compares every case with its file byte for byte, so a change that moves any
reported number, by even one bit, fails there.

The files are written once and kept.  Regenerate them only for a
deliberate change of what a report says, and state in that change which
numbers moved and why::

    PYTHONPATH=src python tests/golden.py          # rewrite every file
    PYTHONPATH=src python tests/golden.py trials-ps11   # rewrite one

The matrix files ``A.txt``, ``B.txt``, ``C.txt`` and the compression frame
``V.txt`` in the same directory are fixed inputs, not outputs, and are
never rewritten.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import opmeanlab as ol
from opmeanlab import SpectralBand, StatementConfig
from opmeanlab.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: CLI runs: name -> argument list.  Matrix files are named relative to
#: ``GOLDEN_DIR``, which is the working directory of every run.
CLI_CASES = {
    "check-seeded-ps11": ["check", "ps-1.1", "--dim", "3", "--phi", "pinch:0,1|2", "--seed", "11"],
    "check-seeded-yamazaki": ["check", "yamazaki", "--dim", "2", "--n-matrices", "4", "--band", "0.5:2", "--seed", "2"],
    "check-seeded-q2sq": ["check", "q2sq", "--band", "0.4:3", "--seed", "3", "--expect-violation"],
    "check-seeded-hoa-trace": ["check", "hoa", "--band", "1:4", "--dim", "5", "--phi", "trace", "--seed", "5"],
    "check-files-mp-gamma": ["check", "mp-gamma", "--band", "0.9:2.1", "--dim", "3", "--sigma", "harmonic",
                             "--f", "power:2", "--g", "power:0.5", "--matrices", "A.txt", "B.txt"],
    "check-files-c-multi": ["check", "c-multi", "--band", "0.9:2.1", "--dim", "3", "--g", "power:0.5",
                            "--matrices", "A.txt", "B.txt", "C.txt"],
    "trials-ps11": ["trials", "ps-1.1", "--dim", "3", "--phi", "pinch:0,1|2", "--trials", "300", "--seed", "4"],
    "trials-mp-gamma": ["trials", "mp-gamma", "--band", "1:4", "--dim", "3", "--sigma", "harmonic",
                        "--f", "power:2", "--g", "power:0.5", "--trials", "120", "--seed", "6"],
    "trials-c-multi": ["trials", "c-multi", "--band", "0.5:2", "--dim", "3", "--n-matrices", "3",
                       "--phi", "pinch:0,1|2", "--g", "power:0.5", "--trials", "20", "--seed", "8"],
    "trials-q2sq": ["trials", "q2sq", "--band", "0.4:3", "--trials", "600", "--seed", "9", "--expect-violation"],
    "trials-t22b-compress": ["trials", "t22-b", "--band", "0.5:2", "--dim", "3", "--sigma", "harmonic",
                             "--phi", "compress:V.txt", "--psi", "compress:V.txt", "--f", "power:2",
                             "--g", "power:0.5", "--trials", "100", "--seed", "14"],
    "trials-hoa-trace": ["trials", "hoa", "--band", "1:4", "--dim", "4", "--phi", "trace", "--trials", "100",
                         "--seed", "15"],
    "falsify-seed-known-q2": ["falsify", "q2", "--seed-known", "--budget", "200", "--seed", "1", "--expect-violation"],
    "falsify-searched-q2sq": ["falsify", "q2sq", "--band", "0.4:3", "--dim", "3", "--budget", "400", "--seed", "12",
                              "--expect-violation"],
    "reproduce": ["reproduce"],
}

#: Library runs for what the CLI cannot express.  Their reports also carry
#: every witness's matrices.
LIBRARY_CASES = {
    "trials-t22a-convex": lambda: ol.run_trials(
        StatementConfig(
            statement_id="t22-a",
            band=SpectralBand(0.5, 2.0),
            dim=3,
            sigma=ol.weighted_geometric(0.3),
            tau=ol.ARITHMETIC,
            phi=ol.convex_combination([(0.4, ol.identity_map()), (0.6, ol.pinching([[0], [1], [2]]))]),
            psi=ol.pinching([[0, 1], [2]]),
            f=ol.power_function(2.0),
            g=ol.power_function(0.5),
        ),
        150,
        13,
    ),
    "trials-q2sq-witnesses": lambda: ol.run_trials(
        StatementConfig(statement_id="q2sq", band=SpectralBand(0.4, 3.0), dim=3), 40, 21
    ),
}

NAMES = tuple(CLI_CASES) + tuple(LIBRARY_CASES)


def _canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _trial_report(rep) -> dict:
    return {
        "statement": rep.statement_id,
        "trials": rep.trials,
        "seed": rep.seed,
        "counted": rep.counted,
        "rejected": rep.rejected,
        "violations": rep.violations,
        "worst_margin": rep.worst_margin,
        "hypothesis_violations": list(rep.hypothesis_violations),
        "witnesses": [
            {
                "trial_index": w.trial_index,
                "gap_min_eig": w.gap_min_eig,
                "gap_det": w.gap_det,
                "matrices": [m.data.tolist() for m in w.matrices],
            }
            for w in rep.witnesses
        ],
    }


def render(name: str) -> str:
    """The golden text of one case, computed by the code under test."""
    if name in LIBRARY_CASES:
        return _canonical({"report": _trial_report(LIBRARY_CASES[name]())})
    argv = CLI_CASES[name] + ["--format", "json"]
    out = io.StringIO()
    cwd = os.getcwd()
    try:
        os.chdir(GOLDEN_DIR)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    report = json.loads(out.getvalue())
    report["versions"] = "<masked>"
    return _canonical({"argv": CLI_CASES[name], "exit_code": code, "report": report})


def path_of(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


if __name__ == "__main__":
    for name in sys.argv[1:] or NAMES:
        with open(path_of(name), "w") as fh:
            fh.write(render(name))
        print(f"wrote {path_of(name)}")
