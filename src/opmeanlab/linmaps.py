"""Positive linear maps on symmetric matrices.

Descriptors are data, not closures, so reports can name them.  The catalog:
identity, compression ``A -> V^T A V`` by an isometry, pinching to a block
partition, normalized trace ``A -> (tr A / n) I``, convex combinations of
maps, and the positive scaling ``A -> k A`` (the one deliberately
non-unital entry).  ``unitalize`` turns any map with invertible image of
the identity into a unital one by the two-sided correction
``Psi(A) = Phi(I)^(-1/2) Phi(A) Phi(I)^(-1/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symmat import (
    PD_FLOOR,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    SymMatrix,
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
    """One positive linear map; which fields are set depends on ``kind``."""

    kind: str
    isometry: np.ndarray | None = None
    blocks: tuple | None = None
    factor: float | None = None
    parts: tuple | None = None
    frame: np.ndarray | None = None
    base: "MapDescriptor | None" = None

    @property
    def input_dim(self) -> int | None:
        """Required input dimension, or None if the map is dimension-agnostic."""
        if self.kind == "compression":
            return int(self.isometry.shape[0])
        if self.kind == "pinching":
            return 1 + max(max(b) for b in self.blocks)
        if self.kind == "convex-combination":
            for _, part in self.parts:
                d = part.input_dim
                if d is not None:
                    return d
            return None
        if self.kind == "sandwich":
            base_dim = self.base.input_dim
            if base_dim is not None:
                return base_dim
            # The correction frame was computed at a fixed dimension, so a
            # sandwich of a dimension-agnostic map is dimension-fixed.
            return int(self.frame.shape[0])
        return None

    @property
    def output_dim(self) -> int | None:
        if self.kind == "compression":
            return int(self.isometry.shape[1])
        if self.kind == "sandwich":
            return int(self.frame.shape[0])
        if self.kind == "convex-combination":
            for _, part in self.parts:
                d = part.output_dim
                if d is not None:
                    return d
            return None
        if self.kind == "pinching":
            return self.input_dim
        return None

    def describe(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "compression":
            r, c = self.isometry.shape
            return f"compression({r}->{c})"
        if self.kind == "pinching":
            return "pinch:" + "|".join(",".join(str(i) for i in b) for b in self.blocks)
        if self.kind == "normalized-trace":
            return "trace"
        if self.kind == "convex-combination":
            inner = " + ".join(f"{w:g}*{p.describe()}" for w, p in self.parts)
            return f"convex({inner})"
        if self.kind == "scale":
            return f"scale:{self.factor:g}"
        if self.kind == "sandwich":
            return f"unitalized({self.base.describe()})"
        return self.kind


def identity_map() -> MapDescriptor:
    return MapDescriptor(kind="identity")


def compression(v) -> MapDescriptor:
    """Compression ``A -> V^T A V`` for an isometry ``V`` (orthonormal columns)."""
    v = np.array(v, dtype=float)
    if v.ndim != 2 or v.shape[0] < v.shape[1] or v.shape[1] < 1:
        raise DimensionMismatchError(f"isometry must be tall or square, got shape {v.shape}")
    gram = v.T @ v
    if np.max(np.abs(gram - np.eye(v.shape[1]))) > 1e-11:
        raise ValueError("compression frame must have orthonormal columns (tolerance 1e-11)")
    v.setflags(write=False)
    return MapDescriptor(kind="compression", isometry=v)


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
    return MapDescriptor(kind="pinching", blocks=norm_blocks)


def normalized_trace() -> MapDescriptor:
    """The map ``A -> (tr A / dim) * I``."""
    return MapDescriptor(kind="normalized-trace")


def convex_combination(parts) -> MapDescriptor:
    """Convex combination ``sum w_i Phi_i`` of positive maps.

    Weights must be nonnegative and sum to 1 within 1e-12; the parts must
    agree on any fixed input and output dimensions.
    """
    norm = tuple((float(w), p) for w, p in parts)
    if not norm:
        raise ValueError("convex combination needs at least one part")
    if any(w < 0.0 for w, _ in norm):
        raise ValueError("weights must be nonnegative")
    total = sum(w for w, _ in norm)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
    in_dims = {p.input_dim for _, p in norm if p.input_dim is not None}
    out_dims = {p.output_dim for _, p in norm if p.output_dim is not None}
    if len(in_dims) > 1 or len(out_dims) > 1:
        raise DimensionMismatchError("convex parts disagree on dimensions")
    return MapDescriptor(kind="convex-combination", parts=norm)


def scale(k: float) -> MapDescriptor:
    """Positive scaling ``A -> k A``; non-unital unless ``k = 1``."""
    k = float(k)
    if not 0.0 < k < np.inf:
        raise ValueError(f"scale factor must be positive and finite, got {k!r}")
    return MapDescriptor(kind="scale", factor=k)


def _apply_map(phi: MapDescriptor, x: np.ndarray) -> np.ndarray:
    """:func:`apply_map` over a stack ``(..., d, d)``, each image symmetrized
    as :class:`SymMatrix` stores it."""
    d = x.shape[-1]
    need = phi.input_dim
    if need is not None and need != d:
        raise DimensionMismatchError(
            f"map {phi.describe()} expects dimension {need}, got {d}"
        )
    if phi.kind == "identity":
        return x
    if phi.kind == "compression":
        out = phi.isometry.T @ x @ phi.isometry
    elif phi.kind == "pinching":
        # np.where keeps the zeros off the blocks positive, as a fresh
        # zero matrix does; a 0/1 mask product would leave -0.0 there
        keep = np.zeros((d, d), dtype=bool)
        for b in phi.blocks:
            keep[np.ix_(b, b)] = True
        out = np.where(keep, x, 0.0)
    elif phi.kind == "normalized-trace":
        out = np.eye(d) * (np.trace(x, axis1=-2, axis2=-1) / d)[..., None, None]
    elif phi.kind == "convex-combination":
        out = None
        for w, part in phi.parts:
            term = w * _apply_map(part, x)
            out = term if out is None else out + term
    elif phi.kind == "scale":
        out = phi.factor * x
    elif phi.kind == "sandwich":
        out = phi.frame @ _apply_map(phi.base, x) @ phi.frame
    else:
        raise ValueError(f"unknown map kind {phi.kind!r}")
    return _symmetrize(out)


def apply_map(phi: MapDescriptor, a: SymMatrix) -> SymMatrix:
    """Apply the map described by ``phi`` to ``a``."""
    out = _apply_map(phi, a.data)
    return a if out is a.data else SymMatrix._wrap(out)


def is_unital(phi: MapDescriptor, dim: int | None = None, tol: float = 1e-10) -> bool:
    """Whether ``Phi(I) = I`` within ``tol`` (max absolute entry).

    ``dim`` chooses the probe dimension for dimension-agnostic maps
    (default 2); fixed-dimension maps ignore it in favor of their own.
    """
    d = phi.input_dim
    if d is None:
        d = dim if dim is not None else 2
    image = apply_map(phi, SymMatrix.identity(d))
    target = np.eye(image.dim)
    return bool(np.max(np.abs(image.data - target)) <= tol)


def unitalize(phi: MapDescriptor, dim: int | None = None) -> MapDescriptor:
    """Unital correction ``A -> Phi(I)^(-1/2) Phi(A) Phi(I)^(-1/2)``.

    Identity and scaling maps unitalize to the identity exactly.  For other
    kinds the correction frame is computed from ``Phi(I)`` at dimension
    ``dim`` (required when the map is dimension-agnostic); a singular
    ``Phi(I)`` raises :class:`NotPositiveDefiniteError`.
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
    w, q = np.linalg.eigh(image.data)
    if w[0] <= PD_FLOOR:
        raise NotPositiveDefiniteError(
            "map image of the identity is singular; perturb the map before unitalizing"
        )
    frame = (q * (1.0 / np.sqrt(w))) @ q.T
    frame = (frame + frame.T) / 2.0
    frame.setflags(write=False)
    return MapDescriptor(kind="sandwich", frame=frame, base=phi)


def catalog_maps(dim: int, rng=None, include_nonunital: bool = True) -> list:
    """Representative map instances at a given dimension, for tests and demos.

    Includes identity, normalized trace, a pinching (two blocks when the
    dimension allows), a Haar-random compression to ``dim - 1`` columns
    (square at dim 1), a convex combination, and, unless suppressed, the
    non-unital ``scale(2)``.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    maps = [identity_map(), normalized_trace()]
    if dim >= 2:
        cut = dim // 2
        maps.append(pinching((tuple(range(cut)), tuple(range(cut, dim)))))
        g = gen.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        q = q * np.where(np.diagonal(r) >= 0.0, 1.0, -1.0)
        maps.append(compression(q[:, : max(1, dim - 1)]))
    maps.append(convex_combination([(0.5, identity_map()), (0.5, normalized_trace())]))
    if include_nonunital:
        maps.append(scale(2.0))
    return maps
