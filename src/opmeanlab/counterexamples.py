"""Known violation instances for the falsifiable catalog statements.

The matrices are stored to the four decimal places at which they were
published.  They do not lie in the bands they are checked with, so they are
reproduced with the band check skipped.  The two ``Q`` matrices have
spectra in [0.0078, 0.26] and [0.38, 0.79], entirely below the band [1, 2]
whose Kantorovich constant 1.125 scales the right side.  The ``q2sq`` and
``q2`` pair is checked on [0.4, 3]: its first matrix (spectrum [0.405,
1.525]) lies in that band, its second (spectrum [0.048, 2.76]) has smallest
eigenvalue 0.048, below m = 0.4.  The violations and the reference gap
determinants are reproduced to the tolerances recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .symmat import SpectralBand, SymMatrix

__all__ = ["KnownWitness", "KNOWN_WITNESSES", "YAMAZAKI_SHARPNESS_BAND", "YAMAZAKI_SHARPNESS_N"]


@dataclass(frozen=True)
class KnownWitness:
    """A published violating pair with its nominal band and reference gap."""

    statement_id: str
    matrices: tuple
    band: SpectralBand
    p: float | None
    reference_det: float
    det_tolerance: float


_Q2SQ = KnownWitness(
    statement_id="q2sq",
    matrices=(
        SymMatrix([[1.3096, 0.4414], [0.4414, 0.6204]]),
        SymMatrix([[0.7062, 1.1641], [1.1641, 2.1050]]),
    ),
    band=SpectralBand(0.4, 3.0),
    p=None,
    reference_det=-0.4111,
    det_tolerance=5e-3,
)

KNOWN_WITNESSES = {
    "Q": KnownWitness(
        statement_id="Q",
        matrices=(
            SymMatrix([[0.0688, -0.1082], [-0.1082, 0.1998]]),
            SymMatrix([[0.7489, 0.1237], [0.1237, 0.4212]]),
        ),
        band=SpectralBand(1.0, 2.0),
        p=None,
        reference_det=-0.0014,
        det_tolerance=2e-3,
    ),
    "q2sq": _Q2SQ,
    "q2": replace(_Q2SQ, statement_id="q2", p=2.0),
}

#: Band and matrix count at which the multi-matrix reverse constant stays a
#: strict overestimate: the coefficient is (9/8)^2 = 1.265625 against the
#: crude ratio bound M/m = 2.
YAMAZAKI_SHARPNESS_BAND = SpectralBand(1.0, 2.0)
YAMAZAKI_SHARPNESS_N = 5
