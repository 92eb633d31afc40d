"""Bit-for-bit pins of every map, scalar function and mean kind.

The golden reports reach only some descriptor kinds (identity, pinching,
trace, compression and convex maps; powers; the plain and one weighted
mean).  This table pins the rest too: for every map constructor its label,
dimensions and image of a fixed matrix; for every scalar function its name,
monotonicity class and values on a fixed grid; for every catalog mean and
two custom ones the stacked binary kernel at ``d = 2`` and ``d = 3``.
Arrays are pinned by shape and a SHA-256 prefix of their bytes, so a
change that moves any value by one bit fails here.

Regenerate only for a deliberate change of what a descriptor computes, and
say in that change which entries moved and why::

    PYTHONPATH=src python tests/test_descriptor_pins.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import opmeanlab as ol
from opmeanlab import SymMatrix
from opmeanlab.kubo_ando import _binary_mean
from opmeanlab.linmaps import _apply_map

# Exact isometries 3 -> 2, so the frames carry no eigensolver bits.
V = np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]])
W = np.array([[0.0, 0.8], [1.0, 0.0], [0.0, -0.6]])


def _spd(d: int, k: float) -> np.ndarray:
    """A fixed positive definite matrix: a shifted Hilbert-like matrix."""
    i, j = np.indices((d, d))
    return 1.0 / (1.0 + i + j + k) + np.diag(np.arange(1.0, d + 1.0)) * (1.0 + 0.25 * k)


def _digest(x) -> str:
    x = np.ascontiguousarray(x, dtype=float)
    return f"{x.shape}:{hashlib.sha256(x.tobytes()).hexdigest()[:16]}"


def _maps() -> dict:
    pinch = ol.pinching([[0, 2], [1]])
    convex_scale = ol.convex_combination([(0.5, ol.scale(2.0)), (0.5, ol.identity_map())])
    convex_scale_pinch = ol.convex_combination([(0.3, ol.scale(3.0)), (0.7, pinch)])
    unitalized = ol.unitalize(convex_scale_pinch)
    return {
        "identity": ol.identity_map(),
        "compression": ol.compression(V),
        "compression-square": ol.compression(np.eye(3)[[2, 0, 1]]),
        "pinching": pinch,
        "trace": ol.normalized_trace(),
        "scale": ol.scale(2.5),
        "convex": ol.convex_combination([(0.25, ol.identity_map()), (0.75, pinch)]),
        "convex-nested-compression": ol.convex_combination(
            [
                (0.4, ol.compression(V)),
                (0.6, ol.convex_combination([(0.5, ol.compression(V)), (0.5, ol.compression(W))])),
            ]
        ),
        "convex-agnostic": ol.convex_combination([(0.5, ol.identity_map()), (0.5, ol.normalized_trace())]),
        "unitalize-identity": ol.unitalize(ol.identity_map(), dim=3),
        "unitalize-scale": ol.unitalize(ol.scale(3.0)),
        "unitalize-convex-scale": ol.unitalize(convex_scale, dim=3),
        "unitalize-convex-scale-pinch": unitalized,
        "unitalize-unitalized": ol.unitalize(unitalized),
        "unitalize-compression": ol.unitalize(ol.compression(V)),
        "unitalize-trace": ol.unitalize(ol.normalized_trace(), dim=3),
    }


def _functions() -> dict:
    return {
        "identity": ol.IDENTITY,
        "power-0.5": ol.power_function(0.5),
        "power-2": ol.power_function(2.0),
        "power-0": ol.power_function(0.0),
        "spower-2-0.5": ol.scaled_power_function(2.0, 0.5),
        "spower-0.5-3": ol.scaled_power_function(0.5, 3.0),
        "expm1": ol.EXP_MINUS_ONE,
        "custom-log1p": ol.custom_scalar("log1p", np.log1p),
        "custom-square": ol.custom_scalar("square", lambda t: t * t),
    }


def _means() -> dict:
    means = {m.name: m for m in ol.catalog_means()}
    means["custom-sqrt-power"] = ol.custom_mean("sqrt-power", lambda t: ((1.0 + np.sqrt(t)) / 2.0) ** 2)
    means["custom-left"] = ol.custom_mean("left", lambda t: 1.0)
    return means


def records() -> dict:
    """Every pinned value, keyed ``<family>/<case>``."""
    out = {}
    x = SymMatrix(_spd(3, 0.0) + np.array([[0.0, 0.3, -0.2], [0.3, 0.0, 0.1], [-0.2, 0.1, 0.0]]))
    stack = np.stack([x.data, _spd(3, 1.5), _spd(3, 4.0)[::-1, ::-1]])
    for name, phi in _maps().items():
        out[f"map/{name}"] = (
            phi.kind, phi.describe(), phi.input_dim, phi.output_dim, ol.is_unital(phi, dim=3),
            _digest(ol.apply_map(phi, x).data), _digest(_apply_map(phi, stack)),
        )
    t = np.concatenate([[0.0], np.geomspace(1e-3, 1e2, 15)])
    for name, fn in _functions().items():
        out[f"function/{name}"] = (fn.name, bool(ol.is_operator_monotone(fn)), _digest(fn(t)))
    s = np.geomspace(1e-2, 1e2, 9)
    for name, sigma in _means().items():
        row = [sigma.h.kind, sigma.name, _digest(sigma.h(s)), ol.representing_value(sigma, 0.37).hex()]
        for d in (2, 3):
            a = np.stack([_spd(d, k) for k in (0.0, 1.0, 2.5)])
            b = np.stack([_spd(d, k)[::-1, ::-1] * (0.5 + k) for k in (3.0, 0.5, 1.0)])
            row.append(_digest(_binary_mean(sigma.h, a, b)))
            row.append(_digest(_binary_mean(sigma.h, a[1], b[1])))
        out[f"mean/{name}"] = tuple(row)
    return out


PINNED = {
    "function/custom-log1p": ("log1p", True, "(16,):4e02161d4cdf32ad"),
    "function/custom-square": ("square", False, "(16,):e184cb8c39713604"),
    "function/expm1": ("expm1", False, "(16,):445f8dfeceda78a1"),
    "function/identity": ("identity", True, "(16,):7489149988d12eb0"),
    "function/power-0": ("power:0", True, "(16,):dbd8ebb4d3647658"),
    "function/power-0.5": ("power:0.5", True, "(16,):ecb65bfede6dfd1c"),
    "function/power-2": ("power:2", False, "(16,):e184cb8c39713604"),
    "function/spower-0.5-3": ("spower:0.5,3", False, "(16,):084ca8f5cecb8425"),
    "function/spower-2-0.5": ("spower:2,0.5", True, "(16,):4772d54a06174308"),
    "map/compression": (
        "compression", "compression(3->2)", 3, 2, True, "(2, 2):ffbbd0d91e7d4c26",
        "(3, 2, 2):95a01c0b0e7d8780",
    ),
    "map/compression-square": (
        "compression", "compression(3->3)", 3, 3, True, "(3, 3):1de6e83c2b0721e0",
        "(3, 3, 3):02f79f93afd6a7f8",
    ),
    "map/convex": (
        "convex-combination", "convex(0.25*identity + 0.75*pinch:0,2|1)", 3, 3, True,
        "(3, 3):a9281099de0c72b7", "(3, 3, 3):9a271d86c7f0052a",
    ),
    "map/convex-agnostic": (
        "convex-combination", "convex(0.5*identity + 0.5*trace)", None, None, True,
        "(3, 3):fb727c62b959a929", "(3, 3, 3):d3a4ff35b100c01b",
    ),
    "map/convex-nested-compression": (
        "convex-combination",
        "convex(0.4*compression(3->2) + 0.6*convex(0.5*compression(3->2) + 0.5*compression(3->2)))",
        3, 2, True, "(2, 2):61b0eaad563e003e", "(3, 2, 2):604a22a62fe492a0",
    ),
    "map/identity": (
        "identity", "identity", None, None, True, "(3, 3):50a6bbf4ac62d75c",
        "(3, 3, 3):f6d99600390a219e",
    ),
    "map/pinching": (
        "pinching", "pinch:0,2|1", 3, 3, True, "(3, 3):164dfbf223a7af2e",
        "(3, 3, 3):886e319b7d15aa10",
    ),
    "map/scale": (
        "scale", "scale:2.5", None, None, False, "(3, 3):43f5ed6cc80ef338",
        "(3, 3, 3):6ad9fc99d649f3c4",
    ),
    "map/trace": (
        "normalized-trace", "trace", None, None, True, "(3, 3):bacc95ebc3df2fd3",
        "(3, 3, 3):0396f7ee5c7c83b0",
    ),
    "map/unitalize-compression": (
        "sandwich", "unitalized(compression(3->2))", 3, 2, True, "(2, 2):ffbbd0d91e7d4c26",
        "(3, 2, 2):95a01c0b0e7d8780",
    ),
    "map/unitalize-convex-scale": (
        "sandwich", "unitalized(convex(0.5*scale:2 + 0.5*identity))", 3, 3, True,
        "(3, 3):dea73d2872645465", "(3, 3, 3):20166fa46d4b67ae",
    ),
    "map/unitalize-convex-scale-pinch": (
        "sandwich", "unitalized(convex(0.3*scale:3 + 0.7*pinch:0,2|1))", 3, 3, True,
        "(3, 3):06367c3f6b17896d", "(3, 3, 3):31de6818ec0156cc",
    ),
    "map/unitalize-identity": (
        "identity", "identity", None, None, True, "(3, 3):50a6bbf4ac62d75c",
        "(3, 3, 3):f6d99600390a219e",
    ),
    "map/unitalize-scale": (
        "identity", "identity", None, None, True, "(3, 3):50a6bbf4ac62d75c",
        "(3, 3, 3):f6d99600390a219e",
    ),
    "map/unitalize-trace": (
        "sandwich", "unitalized(trace)", 3, 3, True, "(3, 3):bacc95ebc3df2fd3",
        "(3, 3, 3):0396f7ee5c7c83b0",
    ),
    "map/unitalize-unitalized": (
        "sandwich", "unitalized(convex(0.3*scale:3 + 0.7*pinch:0,2|1))", 3, 3, True,
        "(3, 3):06367c3f6b17896d", "(3, 3, 3):31de6818ec0156cc",
    ),
    "mean/arithmetic": (
        "arithmetic", "arithmetic", "(9,):8010b3608097a724", "0x1.5eb851eb851ecp-1",
        "(3, 2, 2):031d6c817e2b7541", "(2, 2):53aefa61e532e5b0", "(3, 3, 3):cdd47b564bd10256",
        "(3, 3):6e220e2e194c3780",
    ),
    "mean/arithmetic:0.333333": (
        "weighted-arithmetic", "arithmetic:0.333333", "(9,):84b8f2d91c3f6983",
        "0x1.947ae147ae148p-1", "(3, 2, 2):80efa46968ab5125", "(2, 2):ca56b5bf84ab61f7",
        "(3, 3, 3):d464de0584399f60", "(3, 3):48a8cb36a4f3e92f",
    ),
    "mean/custom-left": (
        "custom", "left", "(9,):19088d37e44fec2a", "0x1.0000000000000p+0",
        "(3, 2, 2):65f2346e7056b699", "(2, 2):51747fd9c9cb24d7", "(3, 3, 3):0c82d211c29aa145",
        "(3, 3):6123ee83ebfbc3b1",
    ),
    "mean/custom-sqrt-power": (
        "custom", "sqrt-power", "(9,):ef194a9e70b71837", "0x1.4b14270b74ddap-1",
        "(3, 2, 2):093d194129e8d1b8", "(2, 2):583a1f192ab47283", "(3, 3, 3):198679a6175e9a40",
        "(3, 3):b3214f316da61679",
    ),
    "mean/geometric": (
        "geometric", "geometric", "(9,):4116b0a4fd678805", "0x1.376ffc2b649c7p-1",
        "(3, 2, 2):7839a72f3876ae61", "(2, 2):d535f1bf4c989b7f", "(3, 3, 3):22139fe53355b52e",
        "(3, 3):41c231afb60d5780",
    ),
    "mean/geometric:0.25": (
        "weighted-geometric", "geometric:0.25", "(9,):e81bb6ef705235d0", "0x1.8f51c31eb5eadp-1",
        "(3, 2, 2):4fbfc55af56f2e39", "(2, 2):b451bdc3fec7c735", "(3, 3, 3):1a77650a0943b85a",
        "(3, 3):953f1d8b4754da46",
    ),
    "mean/geometric:0.75": (
        "weighted-geometric", "geometric:0.75", "(9,):9cdc97890da7f866", "0x1.e5cb01d6150f3p-2",
        "(3, 2, 2):752ccd2b636f1dba", "(2, 2):723bc05c7be43e74", "(3, 3, 3):b634370c76185353",
        "(3, 3):7d4d018356cf50bd",
    ),
    "mean/harmonic": (
        "harmonic", "harmonic", "(9,):dcbde96a52d3a18a", "0x1.148e03bcbadc8p-1",
        "(3, 2, 2):ced0461c33c39d89", "(2, 2):de2d9da0a3d0d59e", "(3, 3, 3):d267c546fe827e89",
        "(3, 3):ff675abc3a2a5b9d",
    ),
    "mean/harmonic:0.666667": (
        "weighted-harmonic", "harmonic:0.666667", "(9,):336ee2d2dcb68726", "0x1.df984dc5abbf3p-2",
        "(3, 2, 2):310d88014ff22415", "(2, 2):464940556e64a088", "(3, 3, 3):2c73c2d4741c0a6c",
        "(3, 3):9eead232cce3cdd1",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned(key):
    assert records()[key] == PINNED[key]


def test_every_case_is_pinned():
    assert sorted(records()) == sorted(PINNED)


if __name__ == "__main__":
    import pprint

    pprint.pprint(records(), width=120, sort_dicts=True)
