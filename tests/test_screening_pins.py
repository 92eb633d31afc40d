"""Bit-for-bit pin of every statement's screening labels.

The engine and CLI tests check only that a unitality label mentions
"unital".  This pin fixes the full text and order of what screening says:
one SHA-256 prefix over ``(unitality_violations(cfg),
hypothesis_violations(cfg))`` for every statement id on a fixed grid of
configurations.  The grid crosses seven maps in each of phi and psi
(identity, trace, ``scale:2``, a pinching, a convex map with a scale part,
and two unitalized maps) at ``d = 2`` and ``d = 3`` with a few f/g and
sigma/tau pairs, so that every unital role, every hypothesis probe and
both their outcomes are reached.  A configuration whose screening raises
contributes the exception's type instead.

Regenerate only for a deliberate change of what screening reports, and
say in that change which labels moved and why::

    PYTHONPATH=src python tests/test_screening_pins.py
"""

from __future__ import annotations

import hashlib
import itertools

import opmeanlab as ol
from opmeanlab.statements import StatementConfig, hypothesis_violations, statement_ids, unitality_violations


def _maps(d: int) -> list:
    pinch = ol.pinching([[0, 2], [1]] if d == 3 else [[0], [1]])
    convex_scale = ol.convex_combination([(0.5, ol.scale(2.0)), (0.5, pinch)])
    return [
        ol.identity_map(),
        ol.normalized_trace(),
        ol.scale(2.0),
        pinch,
        convex_scale,
        ol.unitalize(ol.scale(3.0)),
        ol.unitalize(convex_scale),
    ]


FUNCTION_PAIRS = (
    (ol.IDENTITY, ol.IDENTITY),
    (ol.power_function(2.0), ol.power_function(0.5)),
    (ol.custom_scalar("sqrt", lambda t: t**0.5), ol.power_function(2.0)),
    (ol.EXP_MINUS_ONE, ol.EXP_MINUS_ONE),
)
MEAN_PAIRS = (
    (ol.GEOMETRIC, ol.GEOMETRIC),
    (ol.HARMONIC, ol.ARITHMETIC),
    (ol.weighted_arithmetic(1.0 / 3.0), ol.GEOMETRIC),
    (ol.GEOMETRIC, ol.weighted_geometric(0.25)),
)
DIM_BANDS = ((2, ol.SpectralBand(1.0, 2.0)), (3, ol.SpectralBand(0.4, 3.0)))


def configs(statement_id: str):
    """The pinned grid of configurations of one statement: every map pair,
    with the f/g and sigma/tau pairs taken in turn."""
    parts = list(itertools.product(FUNCTION_PAIRS, MEAN_PAIRS))
    for d, band in DIM_BANDS:
        maps = _maps(d)
        for k, (phi, psi) in enumerate(itertools.product(maps, maps)):
            (f, g), (sigma, tau) = parts[k % len(parts)]
            yield StatementConfig(statement_id, band=band, sigma=sigma, tau=tau, phi=phi, psi=psi, f=f, g=g, dim=d)


def digest() -> str:
    h = hashlib.sha256()
    for statement_id in statement_ids():
        for cfg in configs(statement_id):
            try:
                labels = (unitality_violations(cfg), hypothesis_violations(cfg))
            except Exception as exc:  # the failure is what is pinned
                labels = f"raises {type(exc).__name__}"
            h.update(f"{statement_id};{labels!r};".encode())
    return h.hexdigest()[:16]


PINNED = "466f1a4c26a377bb"


def test_pinned():
    assert digest() == PINNED


if __name__ == "__main__":
    print(digest())
