"""Counterexample search, refinement, and replay of bundled witnesses.

Three movements:

1. aim the falsifier at a theorem and watch it come back empty handed,
2. aim it at a falsifiable statement, find a violating pair, then walk
   the pair downhill to make the violation more negative,
3. replay the bundled published witnesses and confirm the recorded gap
   determinants.
"""

import opmeanlab as ol


print("1. a theorem resists the search")
cfg = ol.StatementConfig("ando", band=ol.SpectralBand(1.0, 2.0), phi=ol.normalized_trace())
w = ol.falsify(cfg, budget=200, seed=11)
print(f"   ando, budget 200: witness found = {w is not None}")

print()
print("2. a falsifiable statement gives in")
wide = ol.SpectralBand(0.4, 3.0)
cfg = ol.StatementConfig("q2sq", band=wide)
w = ol.falsify(cfg, budget=200, seed=17)
print(f"   q2sq, budget 200, seed 17: trial {w.trial_index},"
      f" gap min eig {w.gap_min_eig:.6f}")

better = ol.refine(w, steps=200, radius=0.05, seed=3)
print(f"   after refinement: gap min eig {better.gap_min_eig:.6f}"
      f" (improvement {w.gap_min_eig - better.gap_min_eig:.6f})")

verdict = ol.revalidate(better)
print(f"   revalidated: holds = {verdict.holds}, gap min eig {verdict.gap_min_eig:.6f}")

for m in better.matrices:
    print("   spectrum still in band:", [float(round(x, 4)) for x in ol.eig_sym(m).eigenvalues],
          f" within [{wide.m}, {wide.M}]")

print()
print("3. replay the bundled witnesses")
for name, kw in ol.KNOWN_WITNESSES.items():
    cfg = ol.StatementConfig(kw.statement_id, band=kw.band)
    if kw.p is not None:
        cfg = ol.StatementConfig(kw.statement_id, band=kw.band, p=kw.p)
    # the bundled pairs lie outside their bands (the Q pair entirely below
    # [1, 2], one q2sq matrix down to 0.048 against m = 0.4); skip the
    # membership check and judge only the gap
    verdict = ol.check(cfg, kw.matrices, skip_band_check=True)
    ok = abs(verdict.gap_det - kw.reference_det) <= kw.det_tolerance
    print(f"   {name:<5} gap det {verdict.gap_det:+.6f}  reference {kw.reference_det:+.4f}"
          f"  reproduced: {ok}")

print()
print("4. seeding the search with a known witness")
kw = ol.KNOWN_WITNESSES["q2sq"]
cfg = ol.StatementConfig("q2sq", band=kw.band)
w = ol.falsify(cfg, budget=1, seed=0, initial_matrices=kw.matrices)
print(f"   best after 1 fresh draw: trial index {w.trial_index}"
      " (negative index means the seeded pair won)")
print(f"   gap det {w.gap_det:.6f}")
