"""Cartesian background grids with Morton (Z-order) cell indexing.

The grid covers an axis-aligned bounding box with ``2**level`` cells per
axis.  Cells are addressed by integer lattice indices; the Morton code
interleaves the lattice bits (x in the least significant position) and is
a bijection onto ``0 .. (2**level)**d - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# deterministic neighbor order: -x, +x, -y, +y, [-z, +z]
FACE_STEPS = {
    2: np.array([[-1, 0], [1, 0], [0, -1], [0, 1]], dtype=np.int64),
    3: np.array(
        [[-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 1, 0], [0, 0, -1], [0, 0, 1]],
        dtype=np.int64,
    ),
}


class GridError(ValueError):
    """Invalid grid construction parameters."""


def morton_encode(lattice: np.ndarray, level: int) -> np.ndarray:
    """Interleave lattice bits into Morton codes.

    Parameters
    ----------
    lattice : (..., d) integer array of per-axis cell indices.
    level : number of bits per axis.

    Axis 0 occupies the least significant bit of each interleaved group,
    so in 2D the cell (1, 1) has code 0b11 = 3.
    """
    lattice = np.asarray(lattice, dtype=np.int64)
    d = lattice.shape[-1]
    code = np.zeros(lattice.shape[:-1], dtype=np.int64)
    for bit in range(level):
        for axis in range(d):
            code |= ((lattice[..., axis] >> bit) & 1) << (bit * d + axis)
    return code


@dataclass(frozen=True)
class BackgroundGrid:
    """Uniform Cartesian grid of ``(2**level)**d`` axis-aligned box cells."""

    d: int
    origin: np.ndarray
    extent: np.ndarray
    level: int
    n_per_axis: int = field(init=False)
    h: np.ndarray = field(init=False)

    def __post_init__(self):
        n = 1 << self.level
        object.__setattr__(self, "n_per_axis", n)
        object.__setattr__(self, "h", self.extent / n)

    @property
    def n_cells(self) -> int:
        return self.n_per_axis**self.d

    def cell_origin(self, lattice) -> np.ndarray:
        return self.origin + np.asarray(lattice, dtype=np.float64) * self.h

    def cell_barycenter(self, lattice) -> np.ndarray:
        return self.origin + (np.asarray(lattice, dtype=np.float64) + 0.5) * self.h

    def contains_lattice(self, lattice) -> bool:
        lat = np.asarray(lattice)
        return bool(np.all(lat >= 0) and np.all(lat < self.n_per_axis))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))


def corner_offsets(d: int) -> np.ndarray:
    """Lattice offsets (2**d, d) of a cell's corners, x varying fastest:
    the vertex order of every cell and of its Q1 shape functions."""
    return (np.arange(1 << d)[:, None] >> np.arange(d)) & 1


def build_grid(bbox, level: int, d: int) -> BackgroundGrid:
    """Build the background grid over an axis-aligned box.

    Parameters
    ----------
    bbox : pair (origin, extent) or (2, d) array-like; extents must be
        positive along every axis.
    level : refinement level, ``2**level`` cells per axis.
    d : spatial dimension, 2 or 3.
    """
    if d not in (2, 3):
        raise GridError(f"dimension must be 2 or 3, got {d}")
    if level < 0:
        raise GridError(f"refinement level must be >= 0, got {level}")
    # cell counts and Morton codes are carried in int64 arrays
    if level * d >= 63:
        raise GridError(
            f"cell count 2**{level * d} overflows 64-bit cell arithmetic"
        )
    origin = np.asarray(bbox[0], dtype=np.float64).copy()
    extent = np.asarray(bbox[1], dtype=np.float64).copy()
    if origin.shape != (d,) or extent.shape != (d,):
        raise GridError(f"bbox arrays must have shape ({d},)")
    if np.any(extent <= 0):
        raise GridError("bounding box extent must be positive along every axis")
    return BackgroundGrid(d=d, origin=origin, extent=extent, level=level)


def unit_box_grid(level: int, d: int = 2) -> BackgroundGrid:
    """Grid over the unit square/cube."""
    return build_grid((np.zeros(d), np.ones(d)), level, d)


def face_neighbors(grid: BackgroundGrid, cell) -> np.ndarray:
    """Lattice indices of the face neighbors of ``cell``.

    Order is (-x, +x, -y, +y, [-z, +z]); neighbors falling outside the
    grid are dropped, so corner cells get ``d`` entries.
    """
    lat = np.asarray(cell, dtype=np.int64)
    if not grid.contains_lattice(lat):
        raise GridError(f"cell {tuple(lat)} outside grid")
    cand = lat + FACE_STEPS[grid.d]
    keep = np.all((cand >= 0) & (cand < grid.n_per_axis), axis=1)
    return cand[keep]
