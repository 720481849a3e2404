"""Distributed DOF numbering and aggregation constraints.

Every step runs on arrays over the view's cells, with each Q1 node, a
cell vertex, named by one int64 code of its lattice key
(``fespace.encode_node_keys``).  The nodes of one set of cells, the
interior cells for the aggregated space and every active cell for the
standard space, receive contiguous, sequentially increasing global ids.
A view numbers them from one node table: a stable argsort of its
cell-major corner codes, local cells first, puts each node's corners in
one run in cell order.  A node's first corner gives the local
first-touch order, its least owner over numbered cells the subdomain
that owns it, and its first numbered corner the order of the owned ids;
an exclusive scan turns the owned counts into ranges.  One halo
exchange completes the ids: each subdomain sends each neighbour one
``(2, k)`` array of the (code, id) pairs it owns on the numbered cells
of that neighbour's halo, ascending by code, and the receiver places
them by ``searchsorted`` in its node codes.  One round is enough: the
owner of a node of a local numbered cell has a numbered cell on it,
which shares a vertex with the local cell, so it is a neighbour.  Only
the owner sends a node, once, so a code that is no node of the view,
repeats, or names a node with a known id is a protocol error, and so is
an id the sender cannot own: ranges ascend from 1 with the rank, so a
lower rank's ids lie below the receiver's range and a higher rank's
above it.  Rows of local cut cells keep -1 where a node touches no
numbered cell; nothing reads those entries.

Constrained DOFs never get global ids; each subdomain expresses them by
local id against global master ids.  The roots of all exterior DOFs are
read at once: the master ids of a root the subdomain owns from its
``cell_g``, the rows it also serves to others, of every other root from
the import buffer (``RootDataBuffer.rows_of``).  Reference coordinates
are the integer offsets of node keys from the root keys of the root
map.  The owner side answers the import for a whole batch of roots.

This is the space setup of every run of either space, serial runs being
the one-subdomain case: there the local ids are the serial node ids and
the global ids the serial rows.  Assembly and the nodal values behind
the error norms read a subdomain's owned cells through
``DistSpacePiece.owned_cells``.

Global ids do not depend on the process count when subdomains own
ascending contiguous ranges of cell ids, as ``partition_weighted_sfc``
gives: each node's owner holds its smallest-id numbered cell, so the
owned ranges list the nodes in serial first-touch order.  Other
partitions, such as hand-built ones, get a valid numbering, not the
serial one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import DistRootMap
from .distagg import RootDataBuffer
from .fespace import (AgConstraints, encode_node_keys, extension_operator,
                      shape_values)
from .geometry import INTERIOR
from .grid import corner_offsets
from .partition import SubdomainMesh
from .runtime import RuntimeProtocolError


class MissingImportError(RuntimeError):
    """A constraint needed a root cell that was neither owned nor imported."""


@dataclass
class DistSpacePiece:
    """One subdomain's share of the distributed space."""

    s: int
    mesh: SubdomainMesh
    node_keys: np.ndarray        # (n_j, d) lattice keys of local-cell nodes
    node_codes: np.ndarray       # (n_j,) their int64 codes
    cell_j: np.ndarray           # (n_local, m) local DOF ids
    cell_g: np.ndarray           # (n_local, m) global ids, -1 holes
    j_interior: np.ndarray       # (n_j,) bool: touches a numbered cell
    own_local_cell: np.ndarray   # (n_j,) local cell with smallest global id
    owned_start: int             # first owned global id (1-based)
    n_owned: int
    gid_codes: np.ndarray        # (n_known,) sorted codes of the ids known here
    gids: np.ndarray             # (n_known,) their global ids

    @property
    def n_local_dofs(self) -> int:
        return self.node_keys.shape[0]

    def exterior_js(self) -> np.ndarray:
        return np.flatnonzero(~self.j_interior).astype(np.int64) + 1

    def owned_cells(self):
        """Local DOFs (n_local, m), global ids and the global row of each
        local DOF of the owned cells: its global id if it is free, else 0;
        a free DOF without a global id gets -1, which assembly rejects."""
        cell_dofs = self.cell_j
        free = self.j_interior[cell_dofs - 1]
        row_of = np.zeros(self.n_local_dofs, dtype=np.int64)
        row_of[cell_dofs[free] - 1] = self.cell_g[free]
        return cell_dofs, self.mesh.global_ids[:self.mesh.n_local], row_of


@dataclass
class DistNumbering:
    pieces: list

    @property
    def n_global(self) -> int:
        """The end of the last owned range."""
        last = self.pieces[-1]
        return last.owned_start + last.n_owned - 1

    def owned_ranges(self) -> np.ndarray:
        """Row range starts per subdomain plus the terminating bound."""
        starts = [p.owned_start for p in self.pieces]
        return np.asarray(starts + [self.n_global + 1], dtype=np.int64)


def _numbering_body(proc, mesh: SubdomainMesh, interior_only: bool):
    s = proc.rank
    grid = mesh.grid
    m = 2 ** grid.d
    n_loc = mesh.n_local * m                  # corners of the local cells
    offsets = corner_offsets(grid.d)
    codes = encode_node_keys(mesh.lattice[:, None, :] + offsets,
                             grid.n_per_axis).ravel()         # cell-major

    # the node table: each node's corners form one run, in corner order
    order = np.argsort(codes, kind="stable")
    run = np.r_[True, np.diff(codes[order]) != 0]
    starts = np.flatnonzero(run)
    node_codes = codes[order[starts]]
    node = np.empty(codes.size, dtype=np.int64)   # node of every corner
    node[order] = np.cumsum(run) - 1

    # least owner and first corner over numbered cells, least global id
    numbered = (mesh.labels == INTERIOR if interior_only
                else np.ones(mesh.n_relevant, dtype=bool))
    cell = order // m
    num = numbered[cell]
    big = np.iinfo(np.int64).max
    owner = np.minimum.reduceat(
        np.where(num, mesh.owner_of_relevant[cell], big), starts)
    first_num = np.minimum.reduceat(np.where(num, order, big), starts)
    smallest = np.minimum.reduceat(mesh.global_ids[cell], starts)
    del cell, num             # corner-sized scratch, freed before the ids

    # local DOFs: the first corners of local nodes, read in corner order
    touched = np.zeros(codes.size, dtype=bool)
    touched[order[starts]] = True
    first_touch = np.flatnonzero(touched[:n_loc])
    j_nodes = node[first_touch]
    j_of_node = np.zeros(node_codes.size, dtype=np.int64)
    j_of_node[j_nodes] = np.arange(1, j_nodes.size + 1)

    # owned nodes by first numbered corner, local as local cells lead
    mine = np.zeros(n_loc, dtype=bool)
    mine[first_num[owner == s]] = True
    owned = node[np.flatnonzero(mine)]

    owned_start = (yield proc.exclusive_scan_sum(owned.size)) + 1
    gid = np.full(node_codes.size, -1, dtype=np.int64)
    gid[owned] = owned_start + np.arange(owned.size)

    payloads = {}
    for sp, ls in mesh.send_halo.items():
        on_halo = np.zeros(node_codes.size, dtype=bool)
        on_halo[node.reshape(-1, m)[ls[numbered[ls - 1]] - 1]] = True
        at = np.flatnonzero(on_halo & (gid > 0))
        payloads[sp] = np.stack([node_codes[at], gid[at]])
    received = yield proc.neighbor_exchange(payloads)
    for sp, pairs in sorted(received.items()):
        if np.ndim(pairs) != 2 or len(pairs) != 2:
            raise RuntimeProtocolError(
                f"subdomain {s}: numbering payload from {sp} has shape "
                f"{np.shape(pairs)}, expected (2, k)")
        at = np.minimum(np.searchsorted(node_codes, pairs[0]),
                        node_codes.size - 1)
        if np.any(node_codes[at] != pairs[0]):
            raise RuntimeProtocolError(
                f"subdomain {s}: numbering payload from {sp} names a code "
                f"that is no node of this view")
        known = np.flatnonzero(gid[at] > 0)   # only the owner sends a node
        if known.size:
            i = known[0]
            raise RuntimeProtocolError(
                f"subdomain {s}: conflicting global ids {gid[at[i]]} and "
                f"{pairs[1, i]} for one node")
        if np.any(np.diff(at) <= 0):
            raise RuntimeProtocolError(
                f"subdomain {s}: numbering payload from {sp} has codes "
                f"that are not strictly ascending")
        # ranks own ascending ranges from 1: a lower rank's ids lie below
        # this rank's range, a higher rank's above it
        ids = pairs[1]
        lo, hi = (1, owned_start - 1) if sp < s else \
            (owned_start + owned.size, big)
        if ids.size and (ids.min() < lo or ids.max() > hi):
            raise RuntimeProtocolError(
                f"subdomain {s}: numbering payload from {sp} carries global "
                f"id {ids[(ids < lo) | (ids > hi)][0]}, outside the "
                f"sender's ids {lo}..{hi if sp < s else ''}")
        gid[at] = ids

    cell_g = gid[node[:n_loc]].reshape(mesh.n_local, m)
    unresolved = np.flatnonzero(numbered[:mesh.n_local]
                                & np.any(cell_g == -1, axis=1))
    if unresolved.size:
        raise RuntimeProtocolError(
            f"subdomain {s}: cell {mesh.global_ids[unresolved[0]]} "
            f"has unresolved global DOF ids after the exchange")
    return DistSpacePiece(
        s=s, mesh=mesh, node_codes=codes[first_touch],
        node_keys=mesh.lattice[first_touch // m] + offsets[first_touch % m],
        cell_j=j_of_node[node[:n_loc]].reshape(mesh.n_local, m),
        cell_g=cell_g, j_interior=owner[j_nodes] < big,
        own_local_cell=mesh.local_ids(smallest[j_nodes]),
        owned_start=owned_start, n_owned=owned.size,
        gid_codes=node_codes[gid > 0], gids=gid[gid > 0])


def number_dofs_distributed(runtime, meshes,
                            interior_only: bool = True) -> DistNumbering:
    """Assign global ids to the DOFs of the interior cells across all
    subdomains, or of every active cell with ``interior_only=False``."""
    neighbor_sets = [set(int(x) for x in m.neighbors) for m in meshes]
    return DistNumbering(pieces=runtime.run(
        _numbering_body, args=[(m, interior_only) for m in meshes],
        phase="numbering", neighbor_sets=neighbor_sets))


def build_constraints_distributed(piece: DistSpacePiece,
                                  dist_map: DistRootMap,
                                  buffer: RootDataBuffer) -> AgConstraints:
    """Masters and coefficients for this subdomain's exterior DOFs.

    The master ids of a root cell owned here are read from this piece,
    of every other root from the import buffer.  Reference coordinates
    are the lattice offsets ``node_keys - root_keys``, exact integers.
    """
    s = piece.s
    out_js = piece.exterior_js()
    cells = piece.own_local_cell[out_js - 1] - 1
    roots = dist_map.roots[s - 1][cells]
    l_root = piece.mesh.local_ids(roots)
    mine = (l_root > 0) & (l_root <= piece.mesh.n_local)
    rows = buffer.rows_of(roots)
    missing = np.flatnonzero(~mine & (rows < 0))
    if missing.size:
        i = missing[0]
        raise MissingImportError(
            f"subdomain {s}: DOF {int(out_js[i])} needs root cell "
            f"{int(roots[i])}, which is neither locally owned nor imported")
    masters = np.empty((out_js.size, piece.cell_j.shape[1]), dtype=np.int64)
    masters[mine] = piece.cell_g[l_root[mine] - 1]
    masters[~mine] = buffer.dofs[rows[~mine]]
    unresolved = np.flatnonzero(np.any(masters == -1, axis=1))
    if unresolved.size:
        raise MissingImportError(
            f"subdomain {s}: root cell {int(roots[unresolved[0]])} carries "
            f"unresolved master ids")
    xi = piece.node_keys[out_js - 1] - dist_map.root_keys[s - 1][cells]
    coeffs = shape_values(xi.astype(np.float64))
    return AgConstraints(constrained=out_js, masters=masters, coeffs=coeffs)


def nodal_values(numbering: DistNumbering, constraints_per_s, x: np.ndarray,
                 n_active: int) -> np.ndarray:
    """Nodal values (n_active, m) of every active cell for the solution
    ``x`` in global-id numbering: each subdomain expands ``x`` through its
    own extension operator and fills the rows of its owned cells."""
    nodal = np.zeros((n_active, numbering.pieces[0].cell_j.shape[1]))
    for piece, cons in zip(numbering.pieces, constraints_per_s):
        cell_dofs, cell_ids, row_of = piece.owned_cells()
        C = extension_operator(row_of, cons, numbering.n_global)
        nodal[cell_ids - 1] = (C @ x)[cell_dofs - 1]
    return nodal

