"""Plain-text matrix files.

Format: a header line with the dimension (or ``rows cols`` for general
rectangular frames), then one whitespace-separated row per line.  Entries
round-trip through ``%.17g``.  Symmetric reads enforce symmetry by
averaging with the transpose and warn when the asymmetry exceeds 1e-9.
"""

from __future__ import annotations

import warnings

import numpy as np

from .symmat import SymMatrix

__all__ = [
    "format_sym_matrix",
    "write_sym_matrix",
    "read_sym_matrix",
    "read_general_matrix",
]

ASYMMETRY_WARN = 1e-9


def format_sym_matrix(m: SymMatrix) -> str:
    lines = [str(m.dim)]
    for row in m.data:
        lines.append(" ".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def write_sym_matrix(path, m: SymMatrix) -> None:
    with open(path, "w") as fh:
        fh.write(format_sym_matrix(m))


def read_general_matrix(path) -> np.ndarray:
    """Read a possibly rectangular matrix (used for compression frames)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    header = lines[0].split()
    if len(header) == 1:
        rows = cols = int(header[0])
    elif len(header) == 2:
        rows, cols = int(header[0]), int(header[1])
    else:
        raise ValueError(f"{path}: header must be 'n' or 'rows cols', got {lines[0]!r}")
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: dimensions must be positive")
    body = lines[1:]
    if len(body) != rows:
        raise ValueError(f"{path}: expected {rows} rows, found {len(body)}")
    try:
        data = np.array([[float(tok) for tok in ln.split()] for ln in body], dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric entry ({exc})") from None
    if data.shape != (rows, cols):
        raise ValueError(f"{path}: expected shape {(rows, cols)}, got {data.shape}")
    return data


def read_sym_matrix(path) -> SymMatrix:
    """Read a square matrix and symmetrize it.

    An asymmetry larger than 1e-9 (max absolute difference from the
    transpose) is suspicious for data meant to be symmetric, so it warns
    but still averages.
    """
    data = read_general_matrix(path)
    if data.shape[0] != data.shape[1]:
        raise ValueError(f"{path}: expected a square matrix, got shape {data.shape}")
    asym = float(np.max(np.abs(data - data.T))) if data.size else 0.0
    if asym > ASYMMETRY_WARN:
        warnings.warn(
            f"{path}: asymmetry {asym:.3e} exceeds {ASYMMETRY_WARN:.0e}; "
            "averaging with the transpose",
            stacklevel=2,
        )
    return SymMatrix(data)
