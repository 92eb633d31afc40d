"""Bit-for-bit pins of every catalog statement's builder and constants.

The golden reports and the engine tests reach each statement only at a few
configurations, and the engine tests compare two paths that run the same
builder.  This table pins each statement's formula itself: for every
statement id, one SHA-256 prefix over the left side, right side and
``repr`` of the constants of a fixed grid of configurations (two dimensions
with their bands, four maps, three f/g pairs, three sigma/tau pairs and two
p/q pairs) on three seeded trials each.  A configuration whose constants or
builder raise contributes the exception's type instead.  A change that
moves any value of any statement by one bit fails here.

Regenerate only for a deliberate change of what a statement computes, and
say in that change which statements moved and why::

    PYTHONPATH=src python tests/test_statement_pins.py
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

import opmeanlab as ol
from opmeanlab.statements import StatementConfig, get_statement, seeded_inputs, statement_ids

SEED = 20161014
TRIALS = 3


def _maps(d: int) -> list:
    pinch = ol.pinching([[0, 2], [1]] if d == 3 else [[0], [1]])
    return [
        ol.identity_map(),
        ol.normalized_trace(),
        pinch,
        ol.convex_combination([(0.5, ol.identity_map()), (0.5, pinch)]),
    ]


FUNCTION_PAIRS = (
    (ol.IDENTITY, ol.IDENTITY),
    (ol.power_function(0.5), ol.power_function(2.0)),
    (ol.EXP_MINUS_ONE, ol.scaled_power_function(2.0, 0.5)),
)
MEAN_PAIRS = (
    (ol.GEOMETRIC, ol.GEOMETRIC),
    (ol.ARITHMETIC, ol.HARMONIC),
    (ol.weighted_geometric(0.25), ol.weighted_arithmetic(1.0 / 3.0)),
)
EXPONENT_PAIRS = ((1.0, 1.0), (2.0, 0.5))
DIM_BANDS = ((2, ol.SpectralBand(1.0, 2.0)), (3, ol.SpectralBand(0.4, 3.0)))


def configs(statement_id: str):
    """The pinned grid of configurations of one statement."""
    for (d, band), i, (f, g), (sigma, tau), (p, q) in itertools.product(
        DIM_BANDS, range(4), FUNCTION_PAIRS, MEAN_PAIRS, EXPONENT_PAIRS
    ):
        maps = _maps(d)
        yield StatementConfig(
            statement_id, band=band, sigma=sigma, tau=tau, phi=maps[i], psi=maps[(i + 1) % 4],
            f=f, g=g, p=p, q=q, dim=d,
        )


def digest(statement_id: str) -> str:
    info = get_statement(statement_id)
    h = hashlib.sha256()
    for cfg in configs(statement_id):
        x = seeded_inputs(cfg, SEED, 0, TRIALS)
        try:
            consts = info.constants(cfg, x.shape[-3])
            lhs, rhs = info.build(cfg, consts, x)
        except Exception as exc:  # the failure is what is pinned
            h.update(f"raises {type(exc).__name__};".encode())
            continue
        for side in (lhs, rhs):
            side = np.ascontiguousarray(side, dtype=float)
            h.update(repr(side.shape).encode())
            h.update(side.tobytes())
        h.update(repr(consts).encode())
    return h.hexdigest()[:16]


def records() -> dict:
    return {sid: digest(sid) for sid in statement_ids()}


PINNED = {
    "Q": "f8892b4b0ef15bd0",
    "aahh": "bfc01a2d2c769ca8",
    "add-reverse": "7323d35f7cee7df7",
    "ando": "6af17eef4863a455",
    "c-multi": "113cc84e05b9da76",
    "c23-a": "fdea31dd9cb333c8",
    "c23-b": "c62ae4e576aa85ce",
    "c23-c": "e526a617d3992f1f",
    "c23-d": "60fb152485ae8f61",
    "c27": "37b974d8879e2899",
    "hoa": "ad11405d8ccb9dde",
    "mond2": "2e8b01bf17edf401",
    "mp-gamma": "8f781e1c962faa98",
    "ps-1.1": "6dc6890c612d01fb",
    "q2": "ff2955af556ff497",
    "q2sq": "325968e78564f314",
    "ragm": "d91042a05b49e559",
    "t210": "a808cec529ca12fe",
    "t22-a": "3a836f3144862b7b",
    "t22-b": "0efe01db4e221af4",
    "t22-c": "40cbac3da9a5e392",
    "t22-d": "05dab14bb8bf7723",
    "yamazaki": "421bdd31aa9834f9",
}


@pytest.mark.parametrize("statement_id", sorted(PINNED))
def test_pinned(statement_id):
    assert digest(statement_id) == PINNED[statement_id]


def test_every_statement_is_pinned():
    assert sorted(statement_ids()) == sorted(PINNED)


if __name__ == "__main__":
    import pprint

    pprint.pprint(records(), width=120, sort_dicts=True)
