"""Tour of the operator means on positive definite matrices.

Builds a pair of seeded SPD matrices on the spectral band [1, 2], walks
through the bundled means (arithmetic, geometric, harmonic and their
weighted variants), verifies the harmonic <= geometric <= arithmetic
sandwich in the Loewner order, registers a custom mean from its
representing function, and finishes with the iterative multi-matrix
geometric mean and its permutation invariance.

Run it directly:

    python3 demos/means_tour.py
"""

import numpy as np

import opmeanlab as ol


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def show(name, m):
    with np.printoptions(precision=4, suppress=True):
        print(f"{name} =")
        for row in np.asarray(m.data):
            print("   ", row)


def main():
    rng = np.random.default_rng(20240615)
    band = ol.SpectralBand(1.0, 2.0)

    a = ol.random_spd(2, band, rng)
    b = ol.random_spd(2, band, rng)

    banner("Two seeded matrices with spectra inside [1, 2]")
    show("A", a)
    show("B", b)
    print("spectrum of A:", np.round(ol.eig_sym(a).eigenvalues, 6))
    print("spectrum of B:", np.round(ol.eig_sym(b).eigenvalues, 6))

    banner("The bundled means")
    for desc in ol.catalog_means():
        value = ol.mean(desc, a, b)
        print(f"{desc.name:<26} trace {value.data.trace():.6f}")

    banner("Harmonic <= geometric <= arithmetic (Loewner order)")
    har = ol.mean(ol.HARMONIC, a, b)
    geo = ol.mean(ol.GEOMETRIC, a, b)
    ari = ol.mean(ol.ARITHMETIC, a, b)
    lo = ol.loewner_leq(har, geo)
    hi = ol.loewner_leq(geo, ari)
    print(f"H <= G holds: {lo.holds}   (gap min eig {lo.gap_min_eig:.3e})")
    print(f"G <= A holds: {hi.holds}   (gap min eig {hi.gap_min_eig:.3e})")

    banner("Weighted means interpolate")
    for w in (0.1, 0.25, 0.5, 0.75, 0.9):
        wg = ol.mean(ol.weighted_geometric(w), a, b)
        print(f"A #_{w:<4} B   trace {wg.data.trace():.6f}")

    banner("A custom mean from its representing function")

    # the logarithmic mean h(t) = (t - 1)/log t, filled in at t = 1
    def log_mean_h(t):
        t = np.asarray(t, dtype=float)
        near_one = np.isclose(t, 1.0)
        denom = np.where(near_one, 1.0, np.log(t))
        return np.where(near_one, 1.0, (t - 1.0) / denom)

    logmean = ol.custom_mean("log-mean", log_mean_h)
    report = ol.validate_representing(logmean.h)
    print("registered:", logmean.name)
    print("h(1) == 1:", report.h1_ok, "  positive on (0, inf):", report.positive_ok)
    print("monotone (Loewner-matrix test):", report.monotone_ok,
          f"  margin {report.worst_margin:.3e}")

    lm = ol.mean(logmean, a, b)
    between_lo = ol.loewner_leq(geo, lm)
    between_hi = ol.loewner_leq(lm, ari)
    print(f"G <= L(A,B) holds: {between_lo.holds}")
    print(f"L(A,B) <= A holds: {between_hi.holds}")

    banner("Multi-matrix geometric mean (iterative)")
    mats = [ol.random_spd(3, band, rng) for _ in range(3)]
    g3 = ol.alm_mean(mats)
    show("G(A1, A2, A3)", g3)

    perm = [mats[2], mats[0], mats[1]]
    g3p = ol.alm_mean(perm)
    drift = ol.op_norm(ol.SymMatrix(g3.data - g3p.data)) / ol.op_norm(g3)
    print(f"permutation invariance, relative drift {drift:.3e}")

    diag = [ol.SymMatrix(np.diag(d)) for d in ((1.0, 8.0), (2.0, 1.0), (4.0, 1.0))]
    gd = ol.alm_mean(diag)
    print("commuting diagonal case:", np.round(np.diag(gd.data), 12),
          " expected entrywise geometric mean [2, 2]")


if __name__ == "__main__":
    main()
