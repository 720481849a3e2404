"""Level-set geometries.

The physical domain is the strict negative set ``{x : psi(x) < 0}`` and
its boundary is the zero set.  Evaluation is pure: the same points always
give the same values.
"""

from __future__ import annotations

import numpy as np


def squared_norms(x: np.ndarray) -> np.ndarray:
    """Sums of squares along the last axis of ``x``, column by column from
    the first: for fewer than 8 columns bitwise what ``np.sum(x**2,
    axis=-1)`` and ``np.linalg.norm`` sum, without numpy's slow reduction
    along a short last axis, and squaring one column at a time."""
    out = x[..., 0] * x[..., 0]
    for c in range(1, x.shape[-1]):
        out += x[..., c] * x[..., c]
    return out


class LevelSet:
    """Base class; subclasses implement :meth:`__call__` on (n, d) points."""

    name = "levelset"

    def __call__(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class HalfPlane(LevelSet):
    """psi(x) = a . x - c; the domain is the half-space a . x < c."""

    name = "halfplane"

    def __init__(self, normal, offset: float):
        self.normal = np.asarray(normal, dtype=np.float64)
        self.offset = float(offset)

    def __call__(self, points):
        points = np.asarray(points, dtype=np.float64)
        return points @ self.normal - self.offset


class Sphere(LevelSet):
    """psi(x) = |x - c| - r; a circle in 2D, a sphere in 3D."""

    name = "sphere"

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)

    def __call__(self, points):
        points = np.asarray(points, dtype=np.float64)
        return np.sqrt(squared_norms(points - self.center)) - self.radius


class Popcorn(LevelSet):
    """Bulky 3D flake: a sphere with twelve Gaussian bumps.

    The classic benchmark body (radius 0.6, bump amplitude 4, width 0.2),
    here scaled by 0.5 and shifted by 0.5 per axis so it fits the unit
    cube.
    """

    name = "popcorn"
    r0 = 0.6
    amplitude = 4.0
    sigma = 0.2
    scale = 0.5
    shift = 0.5

    def __init__(self):
        self.bumps = self._bump_centers(self.r0)

    @staticmethod
    def _bump_centers(r0: float) -> np.ndarray:
        pts = []
        for k in range(5):
            ang = 2.0 * np.pi * k / 5.0
            pts.append((2 * np.cos(ang), 2 * np.sin(ang), 1.0))
        for k in range(5):
            ang = (2 * k - 1) * np.pi / 5.0
            pts.append((2 * np.cos(ang), 2 * np.sin(ang), -1.0))
        pts = np.asarray(pts) * (r0 / np.sqrt(5.0))
        poles = np.array([[0.0, 0.0, r0], [0.0, 0.0, -r0]])
        return np.vstack([pts, poles])

    def __call__(self, points):
        points = np.asarray(points, dtype=np.float64)
        x = (points - self.shift) / self.scale
        val = np.sqrt(squared_norms(x)) - self.r0
        for b in self.bumps:
            d2 = squared_norms(x - b)
            val = val - self.amplitude * np.exp(-d2 / self.sigma**2)
        # scaling the geometry scales the (distance-like) field too
        return val * self.scale
