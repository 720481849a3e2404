"""Shared fixtures and independent oracles."""

from __future__ import annotations

import numpy as np
import pytest

from agfem.geometry import classify_cells, face_is_active
from agfem.grid import face_neighbors, unit_box_grid
from agfem.levelset import HalfPlane, Sphere


def bfs_aggregation_oracle(classification, face_active):
    """Multi-source breadth-first aggregation, independent of the sweep code.

    Grows all interior seeds simultaneously; a cut cell joins in the round
    after a neighbor was reached, choosing the neighbor whose root
    barycenter is closest (ties to the smaller neighbor id).  Returns
    {cell id: (root id, next id)}.
    """
    grid = classification.grid
    bary = {k: grid.cell_barycenter(classification.lattice_of(k))
            for k in range(1, classification.n_active + 1)}
    assigned = {int(k): (int(k), int(k)) for k in classification.interior_ids}
    pending = sorted(int(k) for k in classification.cut_ids)
    while pending:
        fresh = {}
        for k in pending:
            best = None
            for nb_lat in face_neighbors(grid, classification.lattice_of(k)):
                nb = classification.active_id[tuple(nb_lat)]
                if nb <= 0 or nb not in assigned:
                    continue
                if not face_active(k, int(nb)):
                    continue
                root = assigned[int(nb)][0]
                dist = float(np.sum((bary[root] - bary[k]) ** 2))
                cand = (dist, int(nb), root)
                if best is None or cand[:2] < best[:2]:
                    best = cand
            if best is not None:
                fresh[k] = (best[2], best[1])
        if not fresh:
            raise RuntimeError(f"oracle stalled with {len(pending)} cells")
        assigned.update(fresh)
        pending = [k for k in pending if k not in fresh]
    return assigned


def random_geometry(rng, max_level=5):
    """A random solvable cut configuration (always has interior cells)."""
    level = int(rng.integers(3, max_level + 1))
    h = 0.5**level
    if rng.random() < 0.5:
        radius = float(rng.uniform(3 * h, 0.45))
        center = rng.uniform(0.4, 0.6, size=2)
        ls = Sphere(center, radius)
    else:
        angle = float(rng.uniform(0, 2 * np.pi))
        normal = np.array([np.cos(angle), np.sin(angle)])
        offset = float(normal @ (0.5, 0.5) + rng.uniform(-0.2, 0.2))
        ls = HalfPlane(normal, offset)
    return level, ls


def classified(level, ls, d=2):
    grid = unit_box_grid(level, d)
    cls = classify_cells(grid, ls)

    def face_active(ka, kb):
        return face_is_active(grid, ls, cls.lattice_of(ka), cls.lattice_of(kb))

    return grid, cls, face_active


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
