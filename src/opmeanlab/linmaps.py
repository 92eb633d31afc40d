"""Positive linear maps on symmetric matrices.

Each descriptor carries its label, the dimensions it fixes and its action,
all built once by its constructor, so reports can name a map and the trial
engine can apply it without asking what kind it is.  The catalog:
identity, compression ``A -> V^T A V`` by an isometry, pinching to a block
partition, normalized trace ``A -> (tr A / n) I``, convex combinations of
maps, and the positive scaling ``A -> k A`` (the one deliberately
non-unital entry).  ``unitalize`` turns any map with positive definite
image of the identity into a unital one by the two-sided correction
``Psi(A) = Phi(I)^(-1/2) Phi(A) Phi(I)^(-1/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .symmat import (
    DimensionMismatchError,
    SymMatrix,
    _NonFiniteError,
    _as_generator,
    _floored,
    _haar_frame,
    _symmetrize,
)

__all__ = [
    "MapDescriptor",
    "identity_map",
    "compression",
    "pinching",
    "normalized_trace",
    "convex_combination",
    "scale",
    "apply_map",
    "is_unital",
    "unitalize",
    "catalog_maps",
]


@dataclass(frozen=True, eq=False)
class MapDescriptor:
    """One positive linear map.

    ``input_dim`` and ``output_dim`` are the dimensions the map fixes, None
    where it works at any dimension.  ``action`` maps a stack
    ``(..., d, d)`` to the stack of images, before symmetrization.
    """

    kind: str
    label: str
    input_dim: int | None
    output_dim: int | None
    action: Callable

    def describe(self) -> str:
        return self.label


def identity_map() -> MapDescriptor:
    return MapDescriptor("identity", "identity", None, None, lambda x: x)


def compression(v) -> MapDescriptor:
    """Compression ``A -> V^T A V`` for an isometry ``V`` (orthonormal columns)."""
    v = np.array(v, dtype=float)
    if v.ndim != 2 or v.shape[0] < v.shape[1] or v.shape[1] < 1:
        raise DimensionMismatchError(f"isometry must be tall or square, got shape {v.shape}")
    if not np.isfinite(v).all():
        bad = float(v[~np.isfinite(v)][0])
        raise ValueError(f"compression frame must be finite, got entry {bad!r}")
    gram = v.T @ v
    if np.max(np.abs(gram - np.eye(v.shape[1]))) > 1e-11:
        raise ValueError("compression frame must have orthonormal columns (tolerance 1e-11)")
    v.setflags(write=False)
    r, c = v.shape
    return MapDescriptor("compression", f"compression({r}->{c})", r, c, lambda x: v.T @ x @ v)


def pinching(blocks) -> MapDescriptor:
    """Pinching to a partition of indices into diagonal blocks.

    ``blocks`` is an iterable of index blocks that must partition
    ``range(d)`` for ``d = 1 + max index``.
    """
    norm_blocks = tuple(tuple(int(i) for i in b) for b in blocks)
    if not norm_blocks or any(len(b) == 0 for b in norm_blocks):
        raise ValueError("pinching needs at least one nonempty block")
    flat = sorted(i for b in norm_blocks for i in b)
    d = 1 + flat[-1]
    if flat != list(range(d)):
        raise ValueError(f"blocks must partition 0..{d - 1} without repeats, got {norm_blocks}")
    # np.where keeps the zeros off the blocks positive, as a fresh zero
    # matrix does; a 0/1 mask product would leave -0.0 there
    keep = np.zeros((d, d), dtype=bool)
    for b in norm_blocks:
        keep[np.ix_(b, b)] = True
    label = "pinch:" + "|".join(",".join(str(i) for i in b) for b in norm_blocks)
    return MapDescriptor("pinching", label, d, d, lambda x: np.where(keep, x, 0.0))


def _normalized_trace(x: np.ndarray) -> np.ndarray:
    d = x.shape[-1]
    return np.eye(d) * (np.trace(x, axis1=-2, axis2=-1) / d)[..., None, None]


def normalized_trace() -> MapDescriptor:
    """The map ``A -> (tr A / dim) * I``."""
    return MapDescriptor("normalized-trace", "trace", None, None, _normalized_trace)


def convex_combination(parts) -> MapDescriptor:
    """Convex combination ``sum w_i Phi_i`` of positive maps.

    Weights must be nonnegative, finite and sum to 1 within 1e-12; the
    parts must agree on any fixed input and output dimensions.
    """
    norm = tuple((float(w), p) for w, p in parts)
    if not norm:
        raise ValueError("convex combination needs at least one part")
    for w, _ in norm:
        if not 0.0 <= w < np.inf:
            raise ValueError(f"convex weights must be nonnegative and finite, got {w!r}")
    total = sum(w for w, _ in norm)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
    in_dims = {p.input_dim for _, p in norm if p.input_dim is not None}
    out_dims = {p.output_dim for _, p in norm if p.output_dim is not None}
    if len(in_dims) > 1 or len(out_dims) > 1:
        raise DimensionMismatchError("convex parts disagree on dimensions")

    def action(x):
        out = None
        for w, part in norm:
            term = w * _apply_map(part, x)
            out = term if out is None else out + term
        return out

    label = "convex(" + " + ".join(f"{w:g}*{p.label}" for w, p in norm) + ")"
    return MapDescriptor(
        "convex-combination", label, next(iter(in_dims), None), next(iter(out_dims), None), action
    )


def scale(k: float) -> MapDescriptor:
    """Positive scaling ``A -> k A``; non-unital unless ``k = 1``."""
    k = float(k)
    if not 0.0 < k < np.inf:
        raise ValueError(f"scale factor must be positive and finite, got {k!r}")
    return MapDescriptor("scale", f"scale:{k:g}", None, None, lambda x: k * x)


def _apply_map(phi: MapDescriptor, x: np.ndarray) -> np.ndarray:
    """:func:`apply_map` over a stack ``(..., d, d)``, each image symmetrized
    as :class:`SymMatrix` stores it; an image that overflows raises one error."""
    d = x.shape[-1]
    if phi.input_dim is not None and phi.input_dim != d:
        raise DimensionMismatchError(
            f"map {phi.label} expects dimension {phi.input_dim}, got {d}"
        )
    if phi.kind == "identity":
        return x
    with np.errstate(over="ignore", invalid="ignore"):
        return _symmetrize(phi.action(x))


def apply_map(phi: MapDescriptor, a: SymMatrix) -> SymMatrix:
    """Apply the map described by ``phi`` to ``a``."""
    out = _apply_map(phi, a.data)
    return a if out is a.data else SymMatrix._wrap(out)


#: Largest absolute entry of ``Phi(I) - I`` that :func:`is_unital` accepts.
_UNITAL_TOL = 1e-10


def is_unital(phi: MapDescriptor, dim: int | None = None) -> bool:
    """Whether ``Phi(I) = I`` within ``1e-10`` (max absolute entry).

    ``dim`` chooses the probe dimension for dimension-agnostic maps
    (default 2); fixed-dimension maps ignore it in favor of their own.  An
    image that overflows, in any part of the map, is not ``I``.
    """
    d = phi.input_dim
    if d is None:
        d = dim if dim is not None else 2
    try:
        image = _apply_map(phi, SymMatrix.identity(d).data)
    except _NonFiniteError:
        return False
    return bool(np.max(np.abs(image - np.eye(image.shape[-1]))) <= _UNITAL_TOL)


def unitalize(phi: MapDescriptor, dim: int | None = None) -> MapDescriptor:
    """Unital correction ``A -> Phi(I)^(-1/2) Phi(A) Phi(I)^(-1/2)``.

    Identity and scaling maps unitalize to the identity exactly.  For other
    kinds the correction frame is computed from ``Phi(I)`` at dimension
    ``dim`` (required when the map is dimension-agnostic); a ``Phi(I)``
    whose smallest eigenvalue is at or below the positive definite floor
    ``PD_FLOOR`` raises :class:`NotPositiveDefiniteError`.
    """
    if phi.kind == "identity":
        return phi
    if phi.kind == "scale":
        return identity_map()
    if phi.kind == "sandwich" and is_unital(phi, dim=dim):
        return phi
    d = phi.input_dim
    if d is None:
        if dim is None:
            raise ValueError("dim is required to unitalize a dimension-agnostic map")
        d = dim
    image = apply_map(phi, SymMatrix.identity(d))
    frame = _symmetrize(_floored(image.data, lambda t: 1.0 / np.sqrt(t), "map image of the identity"))
    frame.setflags(write=False)
    # The correction frame was computed at a fixed dimension, so a sandwich
    # of a dimension-agnostic map is dimension-fixed.
    return MapDescriptor(
        "sandwich", f"unitalized({phi.label})", d, image.dim,
        lambda x: frame @ _apply_map(phi, x) @ frame,
    )


def catalog_maps(dim: int, rng=None, include_nonunital: bool = True) -> list:
    """Representative map instances at a given dimension, for tests and demos.

    Includes identity, normalized trace, from dimension 2 a two-block
    pinching and a Haar-random compression to ``dim - 1`` columns, a convex
    combination, and, unless suppressed, the non-unital ``scale(2)``.
    """
    gen = _as_generator(rng)
    maps = [identity_map(), normalized_trace()]
    if dim >= 2:
        cut = dim // 2
        maps.append(pinching((tuple(range(cut)), tuple(range(cut, dim)))))
        maps.append(compression(_haar_frame(gen.standard_normal((dim, dim)))[:, : dim - 1]))
    maps.append(convex_combination([(0.5, identity_map()), (0.5, normalized_trace())]))
    if include_nonunital:
        maps.append(scale(2.0))
    return maps
