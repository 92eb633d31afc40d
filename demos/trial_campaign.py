"""Randomized trial campaign across the statement catalog.

Runs seeded verification trials for a slice of the catalog and prints a
tally per statement. The theorems come back clean; the falsifiable
power-difference statements do not. A final section shows what happens
when a mathematical hypothesis is violated on purpose: every trial is
rejected and the report says why.
"""

import time

import numpy as np

import opmeanlab as ol


TRIALS = 150
SEED = 17


def run(cfg):
    t0 = time.perf_counter()
    report = ol.run_trials(cfg, TRIALS, SEED)
    dt = time.perf_counter() - t0
    worst = "" if report.worst_margin is None else f"  worst {report.worst_margin:.3e}"
    print(f"{cfg.statement_id:<12} counted {report.counted:>4}  rejected {report.rejected:>3}"
          f"  violations {report.violations:>3}{worst}  ({dt:.2f}s)")
    return report


print(f"{TRIALS} trials per statement, seed {SEED}")
print()

band = ol.SpectralBand(1.0, 2.0)

print("theorems, all expected clean:")
run(ol.StatementConfig("ando", band=band, sigma=ol.GEOMETRIC, phi=ol.normalized_trace()))
run(ol.StatementConfig("ps-1.1", band=band, phi=ol.pinching(((0,), (1,)))))
run(ol.StatementConfig("t22-a", band=band, f=ol.IDENTITY, g=ol.IDENTITY))
run(ol.StatementConfig("mp-gamma", band=band, f=ol.power_function(0.5), g=ol.power_function(0.5)))
run(ol.StatementConfig("hoa", band=band, sigma=ol.GEOMETRIC))
run(ol.StatementConfig("ragm", band=band, n_matrices=3, dim=2))
run(ol.StatementConfig("add-reverse", band=band, sigma=ol.GEOMETRIC))

print()
print("falsifiable statements on the wide band [0.4, 3]:")
print("(Q fails too, but its violations are rarer at this budget; the")
print(" falsification demo replays a published witness for it)")
wide = ol.SpectralBand(0.4, 3.0)
rep = run(ol.StatementConfig("q2sq", band=wide))
run(ol.StatementConfig("Q", band=wide))

if rep.violations:
    w = rep.witnesses[0]
    print()
    print(f"worst violating trial for q2sq: index {w.trial_index},"
          f" gap min eig {w.gap_min_eig:.6f}, gap det {w.gap_det:.6f}")
    a, b = w.matrices
    print("A spectrum:", np.round(ol.eig_sym(a).eigenvalues, 4))
    print("B spectrum:", np.round(ol.eig_sym(b).eigenvalues, 4))

print()
print("hypothesis violation on purpose: mp-gamma with g(t) = t**2 (not concave)")
bad = ol.run_trials(
    ol.StatementConfig("mp-gamma", band=band, f=ol.IDENTITY, g=ol.power_function(2.0)),
    25,
    SEED,
)
print(f"counted {bad.counted}, rejected {bad.rejected}")
print("reasons:", "; ".join(bad.hypothesis_violations))

print()
print("reports are deterministic: same config, same seed, same tally")
again = ol.run_trials(ol.StatementConfig("q2sq", band=wide), TRIALS, SEED)
print("identical:", (again.counted, again.violations) == (rep.counted, rep.violations))
