"""The aggregated Q1 space: shape functions, node codes, the extension
operator and the serial reference space.

Q1 is the only space.  Its nodes are the vertices of the active cells,
in corner order (``grid.corner_offsets``, x fastest), and every node is
named by one int64 code of its vertex lattice key.  Exterior DOFs
(touched only by cut cells) are constrained to the full DOF set of their
root cell with extrapolation coefficients; interior DOFs stay free and
index the rows of the reduced linear system.

The solve pipeline numbers both spaces, and constrains the aggregated
one, through ``distspace`` for every process count; elements, penalties
and norms read the cells of the ``CellClassification``.  ``StdSpace``
(global node ids first-touch over active cells in ascending id order),
``classify_dofs`` and ``build_constraints_serial`` are the independent
serial reference that the tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import RootMap
from .geometry import CellClassification
from .sparse import CSR


def axis_factors(xi) -> np.ndarray:
    """The factors (1 - xi, xi) of each axis at reference points xi (n, d),
    points last: (d, 2, n).  1 - xi is formed as -(xi - 1), so a value
    that vanishes at xi = 1 is -0.0, as the constraint dumps print it."""
    xi = np.atleast_2d(np.asarray(xi, dtype=np.float64)).T.copy()
    return np.stack([-(xi - 1.0), xi], axis=1)


def tensor_products(factors: np.ndarray) -> np.ndarray:
    """Products (k**d, n) of per-axis factors (d, k, n) in axis order, the
    first axis fastest: with k = 2, one per cell corner in corner order."""
    out = factors[0]
    for f in factors[1:]:
        out = (f[:, None, :] * out[None, :, :]).reshape(
            len(f) * len(out), out.shape[1])
    return out


def q1_gradient(factors: np.ndarray, c: int, out=None) -> np.ndarray:
    """Component c (2**d, n) of the Q1 reference gradients from the
    factors (d, 2, n) of ``axis_factors``: the product of a corner's
    factors over the other axes, negated where its c-bit is 0."""
    corners = np.arange(2 ** len(factors))
    rest = (corners >> (c + 1) << c) | (corners & ((1 << c) - 1))
    return np.multiply(tensor_products(np.delete(factors, c, axis=0))[rest],
                       (2.0 * (corners >> c & 1) - 1.0)[:, None], out=out)


def q1_tables(factors: np.ndarray):
    """Q1 shape values (2**d, n) and reference gradients (d, 2**d, n) from
    the factors (d, 2, n) of ``axis_factors``: a corner's value is the
    product of its factors in axis order, and gradient component c is
    ``q1_gradient``."""
    d, _, n = factors.shape
    grads = np.empty((d, 2 ** d, n))
    for c in range(d):
        q1_gradient(factors, c, out=grads[c])
    return tensor_products(factors), grads


def shape_values(xi: np.ndarray) -> np.ndarray:
    """Q1 shape values at reference points xi (n, d): (n, 2**d), the
    tensor products of (1 - xi, xi) in corner order.

    Reference coordinates may lie outside [0, 1]^d; the functions
    extrapolate, which is exactly what the aggregation constraints use.
    """
    return np.ascontiguousarray(tensor_products(axis_factors(xi)).T)


def shape_gradients(xi: np.ndarray) -> np.ndarray:
    """Reference-coordinate gradients (n, 2**d, d) at points xi (n, d)."""
    return np.ascontiguousarray(q1_tables(axis_factors(xi))[1].T)


def encode_node_keys(keys: np.ndarray, n_per_axis: int) -> np.ndarray:
    """One int64 per vertex lattice key: (..., d) keys to (...)."""
    span = n_per_axis + 1
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
    """Standard conforming Q1 space over the active mesh, numbered
    serially: the reference the distributed numbering is tested against."""

    classification: CellClassification
    node_keys: np.ndarray     # (n_nodes, d) vertex lattice keys
    node_coords: np.ndarray   # (n_nodes, d)
    cell_dofs: np.ndarray     # (n_active, 2**d) 1-based node ids

    @property
    def n_dofs(self) -> int:
        return self.node_keys.shape[0]


def build_std_space(classification: CellClassification, q: int = 1) -> StdSpace:
    """Number the vertices of the active cells first-touch.  ``q``, the
    degree, is accepted for callers that pass it; only 1 is valid."""
    if q != 1:
        raise ValueError("only Q1")
    grid = classification.grid
    cell_keys = classification.vertex_keys(
        np.arange(1, classification.n_active + 1))     # (n_act, 2**d, d)
    enc = encode_node_keys(cell_keys, grid.n_per_axis)
    flat_ids, n_nodes, first_pos = _first_touch_ids(enc.ravel())
    cell_dofs = flat_ids.reshape(cell_keys.shape[:2])
    flat_keys = cell_keys.reshape(-1, grid.d)
    node_keys = flat_keys[first_pos]
    node_coords = grid.origin + node_keys * grid.h
    return StdSpace(classification=classification, node_keys=node_keys,
                    node_coords=node_coords, cell_dofs=cell_dofs)


@dataclass
class DofClassification:
    """Interior/exterior DOF split plus owner cells.

    Interior DOFs get 1-based rows in first-touch order over interior
    cells; those rows index the reduced system.
    """

    interior_mask: np.ndarray   # (n_nodes,) bool
    row_of: np.ndarray          # (n_nodes,) 1-based row or 0
    interior_ids: np.ndarray    # (n_in,) node ids in row order
    exterior_ids: np.ndarray    # (n_out,) node ids ascending
    own_cell: np.ndarray        # (n_nodes,) smallest containing cell (valid on I_out)

    @property
    def n_interior(self) -> int:
        return self.interior_ids.size


def classify_dofs(space: StdSpace,
                  classification: CellClassification) -> DofClassification:
    """Split DOFs into interior and exterior and fix their owner cells."""
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
    return DofClassification(interior_mask=interior_mask,
                             row_of=row_of, interior_ids=interior_ids,
                             exterior_ids=exterior_ids, own_cell=own_cell)


@dataclass
class AgConstraints:
    """Masters and extrapolation coefficients per constrained DOF.

    ``constrained`` holds serial node ids (or subdomain-local ids in the
    distributed setting); masters are always expressed in the numbering
    of the reduced system rows.
    """

    constrained: np.ndarray   # (n_c,)
    masters: np.ndarray       # (n_c, 2**d)
    coeffs: np.ndarray        # (n_c, 2**d)

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
    xi = space.classification.reference_coords(
        roots, space.node_coords[out_ids - 1])
    return AgConstraints(constrained=out_ids.copy(), masters=masters,
                         coeffs=shape_values(xi))


def extension_operator(row_of: np.ndarray, constraints: AgConstraints | None,
                       n_free: int) -> CSR:
    """The aggregation extension operator C, one CSR row per DOF.

    ``row_of[j - 1]`` is the 1-based system row of free DOF j (0 if it is
    not free).  Row j of C is the unit vector of that row for a free DOF
    and the extrapolation coefficients on the masters for a constrained
    one, so an aggregated function with free values x has nodal values
    C @ x.  A DOF that is neither gets an empty row.  Each row holds its
    columns in ascending order, as a canonical CSR matrix does.
    """
    free = np.flatnonzero(row_of > 0)
    lens = np.zeros(row_of.size, dtype=np.int64)
    lens[free] = 1
    if constraints is not None:
        lens[constraints.constrained - 1] = constraints.masters.shape[1]
    indptr = np.concatenate([[0], np.cumsum(lens)])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.ones(indptr[-1])
    indices[indptr[free]] = row_of[free] - 1
    if constraints is not None:
        order = np.argsort(constraints.masters, axis=1)
        at = (indptr[constraints.constrained - 1, None]
              + np.arange(order.shape[1]))
        indices[at] = np.take_along_axis(constraints.masters, order, 1) - 1
        data[at] = np.take_along_axis(constraints.coeffs, order, 1)
    return CSR(data, indices, indptr, (row_of.size, n_free))

