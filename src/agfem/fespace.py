"""Conforming Lagrangian spaces on the active mesh and the aggregation
constraints.

Global node ids are assigned first-touch while scanning active cells in
ascending id order (x-fastest within each cell), so shared faces reuse
ids and the numbering is reproducible.  Exterior DOFs (touched only by
cut cells) are constrained to the full DOF set of their root cell with
extrapolation coefficients; interior DOFs stay free and index the rows
of the reduced linear system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .aggregation import RootMap
from .geometry import CellClassification


def node_offsets(q: int, d: int) -> np.ndarray:
    """Cell-local node lattice offsets, x varying fastest: ((q+1)**d, d)."""
    m = (q + 1) ** d
    out = np.zeros((m, d), dtype=np.int64)
    for a in range(m):
        rest = a
        for axis in range(d):
            out[a, axis] = rest % (q + 1)
            rest //= q + 1
    return out


def _lagrange_1d(q: int, xi: np.ndarray) -> np.ndarray:
    """Values of the q+1 equispaced 1D Lagrange polynomials: (..., q+1)."""
    xi = np.asarray(xi, dtype=np.float64)
    nodes = np.arange(q + 1) / q
    out = np.ones(xi.shape + (q + 1,))
    for a in range(q + 1):
        for m in range(q + 1):
            if m != a:
                out[..., a] *= (xi - nodes[m]) / (nodes[a] - nodes[m])
    return out


def _lagrange_1d_deriv(q: int, xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=np.float64)
    nodes = np.arange(q + 1) / q
    out = np.zeros(xi.shape + (q + 1,))
    for a in range(q + 1):
        for m in range(q + 1):
            if m == a:
                continue
            term = np.ones_like(xi) / (nodes[a] - nodes[m])
            for r in range(q + 1):
                if r != a and r != m:
                    term *= (xi - nodes[r]) / (nodes[a] - nodes[r])
            out[..., a] += term
    return out


def shape_values(q: int, d: int, xi: np.ndarray) -> np.ndarray:
    """Tensor Lagrange shape values at reference points xi: (n, (q+1)**d).

    Reference coordinates may lie outside [0, 1]^d; the polynomials
    extrapolate, which is exactly what the aggregation constraints use.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
    per_axis = [_lagrange_1d(q, xi[:, axis]) for axis in range(d)]
    offs = node_offsets(q, d)
    out = np.ones((xi.shape[0], offs.shape[0]))
    for axis in range(d):
        out *= per_axis[axis][:, offs[:, axis]]
    return out


def shape_gradients(q: int, d: int, xi: np.ndarray) -> np.ndarray:
    """Reference-coordinate gradients: (n, (q+1)**d, d)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
    vals = [_lagrange_1d(q, xi[:, axis]) for axis in range(d)]
    ders = [_lagrange_1d_deriv(q, xi[:, axis]) for axis in range(d)]
    offs = node_offsets(q, d)
    out = np.ones((xi.shape[0], offs.shape[0], d))
    for comp in range(d):
        for axis in range(d):
            factor = ders[axis] if axis == comp else vals[axis]
            out[:, :, comp] *= factor[:, offs[:, axis]]
    return out


def encode_node_keys(keys: np.ndarray, q: int, n_per_axis: int) -> np.ndarray:
    """One int64 per node lattice key: (..., d) keys of spacing h/q to (...)."""
    span = q * n_per_axis + 1
    enc = keys[..., 0].astype(np.int64)
    for axis in range(1, keys.shape[-1]):
        enc = enc * span + keys[..., axis]
    return enc


def _first_touch_ids(encoded: np.ndarray):
    """1-based ids in first-occurrence order.

    Returns (id per entry, id count, flat position of each id's first
    occurrence, ordered by id).
    """
    uniq, first, inv = np.unique(encoded, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    ids_of_uniq = np.empty(uniq.size, dtype=np.int64)
    ids_of_uniq[order] = np.arange(1, uniq.size + 1)
    return ids_of_uniq[inv], int(uniq.size), first[order]


@dataclass
class StdSpace:
    """Standard conforming space over the active mesh."""

    q: int
    classification: CellClassification
    node_keys: np.ndarray     # (n_nodes, d) node lattice, spacing h/q
    node_coords: np.ndarray   # (n_nodes, d)
    cell_dofs: np.ndarray     # (n_active, (q+1)**d) 1-based node ids

    @property
    def n_dofs(self) -> int:
        return self.node_keys.shape[0]

    @property
    def nodes_per_cell(self) -> int:
        return self.cell_dofs.shape[1]

    def reference_coords(self, cell_id, points: np.ndarray) -> np.ndarray:
        """Coordinates of ``points`` in the unit box of ``cell_id``: one
        cell id, or one per point."""
        grid = self.classification.grid
        lo = grid.cell_origin(self.classification.lattice_of(cell_id))
        return (np.atleast_2d(points) - lo) / grid.h


def build_std_space(classification: CellClassification, q: int = 1) -> StdSpace:
    """Build the nodal space of per-axis degree q on the active cells."""
    if q < 1:
        raise ValueError("polynomial order must be >= 1")
    grid = classification.grid
    offs = node_offsets(q, grid.d)
    cell_keys = (classification.id_to_lattice[:, None, :] * q
                 + offs[None, :, :])                      # (n_act, m, d)
    enc = encode_node_keys(cell_keys, q, grid.n_per_axis)
    flat_ids, n_nodes, first_pos = _first_touch_ids(enc.ravel())
    cell_dofs = flat_ids.reshape(cell_keys.shape[:2])
    flat_keys = cell_keys.reshape(-1, grid.d)
    node_keys = flat_keys[first_pos]
    node_coords = grid.origin + node_keys * (grid.h / q)
    return StdSpace(q=q, classification=classification, node_keys=node_keys,
                    node_coords=node_coords, cell_dofs=cell_dofs)


@dataclass
class DofClassification:
    """Interior/exterior DOF split plus owner and root cells.

    Interior DOFs get 1-based rows in first-touch order over interior
    cells; those rows index the reduced system.
    """

    space: StdSpace
    interior_mask: np.ndarray   # (n_nodes,) bool
    row_of: np.ndarray          # (n_nodes,) 1-based row or 0
    interior_ids: np.ndarray    # (n_in,) node ids in row order
    exterior_ids: np.ndarray    # (n_out,) node ids ascending
    own_cell: np.ndarray        # (n_nodes,) smallest containing cell (valid on I_out)
    root_cell: np.ndarray | None = None  # O = R(K_own), valid on I_out

    @property
    def n_interior(self) -> int:
        return self.interior_ids.size


def classify_dofs(space: StdSpace, classification: CellClassification,
                  root_map: RootMap | None = None) -> DofClassification:
    """Split DOFs into interior and exterior and fix owner/root cells."""
    n_nodes = space.n_dofs
    interior_mask = np.zeros(n_nodes, dtype=bool)
    interior_cells = classification.interior_ids
    interior_mask[space.cell_dofs[interior_cells - 1].ravel() - 1] = True

    own_cell = np.full(n_nodes, np.iinfo(np.int64).max, dtype=np.int64)
    n_active, m = space.cell_dofs.shape
    cell_ids = np.repeat(np.arange(1, n_active + 1, dtype=np.int64), m)
    np.minimum.at(own_cell, space.cell_dofs.ravel() - 1, cell_ids)

    row_of = np.zeros(n_nodes, dtype=np.int64)
    if interior_cells.size:
        flat = space.cell_dofs[interior_cells - 1].ravel()
        rows, n_in, first_pos = _first_touch_ids(flat)
        row_of[flat - 1] = rows
        interior_ids = flat[first_pos]
    else:
        interior_ids = np.zeros(0, dtype=np.int64)
    exterior_ids = np.flatnonzero(~interior_mask).astype(np.int64) + 1

    root_cell = None
    if root_map is not None:
        root_cell = np.zeros(n_nodes, dtype=np.int64)
        if exterior_ids.size:
            root_cell[exterior_ids - 1] = root_map.root[
                own_cell[exterior_ids - 1] - 1]
    return DofClassification(space=space, interior_mask=interior_mask,
                             row_of=row_of, interior_ids=interior_ids,
                             exterior_ids=exterior_ids, own_cell=own_cell,
                             root_cell=root_cell)


@dataclass
class AgConstraints:
    """Masters and extrapolation coefficients per constrained DOF.

    ``constrained`` holds serial node ids (or subdomain-local ids in the
    distributed setting); masters are always expressed in the numbering
    of the reduced system rows.
    """

    constrained: np.ndarray   # (n_c,)
    masters: np.ndarray       # (n_c, (q+1)**d)
    coeffs: np.ndarray        # (n_c, (q+1)**d)

    @property
    def n_constrained(self) -> int:
        return self.constrained.size


def build_constraints_serial(space: StdSpace, dofs: DofClassification,
                             root_map: RootMap) -> AgConstraints:
    """Constrain every exterior DOF by extrapolation from its root cell.

    The masters of DOF i are all DOFs of the root cell O(i) and the
    coefficients are the root cell's shape functions evaluated at x_i,
    expressed as reduced-system rows.
    """
    out_ids = dofs.exterior_ids
    roots = root_map.root[dofs.own_cell[out_ids - 1] - 1]
    masters = dofs.row_of[space.cell_dofs[roots - 1] - 1]
    bad = np.flatnonzero(np.any(masters == 0, axis=1))
    if bad.size:
        raise RuntimeError(
            f"root cell {int(roots[bad[0]])} carries a non-interior DOF; the "
            f"root map must point at interior cells")
    xi = space.reference_coords(roots, space.node_coords[out_ids - 1])
    coeffs = shape_values(space.q, space.classification.grid.d, xi)
    return AgConstraints(constrained=out_ids.copy(), masters=masters,
                         coeffs=coeffs)


def extension_operator(row_of: np.ndarray, constraints: AgConstraints | None,
                       n_free: int) -> sp.csr_matrix:
    """The aggregation extension operator C, one CSR row per DOF.

    ``row_of[j - 1]`` is the 1-based system row of free DOF j (0 if it is
    not free).  Row j of C is the unit vector of that row for a free DOF
    and the extrapolation coefficients on the masters for a constrained
    one, so an aggregated function with free values x has nodal values
    C @ x.  A DOF that is neither gets an empty row.
    """
    free = np.flatnonzero(row_of > 0)
    rows, cols, vals = [free], [row_of[free] - 1], [np.ones(free.size)]
    if constraints is not None:
        m = constraints.masters.shape[1]
        rows.append(np.repeat(constraints.constrained - 1, m))
        cols.append(constraints.masters.ravel() - 1)
        vals.append(constraints.coeffs.ravel())
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row_of.size, n_free))


def prolongate(dofs: DofClassification, constraints: AgConstraints | None,
               interior_values: np.ndarray) -> np.ndarray:
    """Expand a reduced vector to all nodes through the constraints."""
    interior_values = np.asarray(interior_values, dtype=np.float64)
    if interior_values.shape != (dofs.n_interior,):
        raise ValueError(
            f"expected {dofs.n_interior} interior values, "
            f"got {interior_values.shape}")
    return extension_operator(dofs.row_of, constraints,
                              dofs.n_interior) @ interior_values
