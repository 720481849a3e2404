"""Distributed DOF numbering and aggregation constraints.

Every step runs on arrays over the view's cells, with each Q1 node, a
cell vertex, named by one int64 code of its lattice key
(``fespace.encode_node_keys``).  The nodes of one set of cells, the
interior cells for the aggregated space and every active cell for the
standard space, receive contiguous, sequentially increasing global ids:
a node is owned by the smallest subdomain id among the numbered cells
touching it (one ``np.minimum.at`` over the relevant numbered cells),
every subdomain numbers the nodes it owns in first-touch order over its
local numbered cells, and an exclusive scan turns the owned counts into
ranges.  The ids a subdomain knows live in one table of (code, global
id) pairs sorted by code and read with ``searchsorted``.  The id rows
of the local cells are completed by one halo exchange: each subdomain
sends each neighbour one ``(2, k)`` array of the (code, global id)
pairs it owns on the numbered cells of that neighbour's halo, sorted by
code, and the receiver joins them into its table with one sort.  One
round is enough: a node of a local numbered cell is owned by the
smallest subdomain with a numbered cell on that node, and that cell
shares a vertex with the local cell, so its owner is a neighbour and
sends the id.  Only the owner sends a node, so a code that arrives
twice is a protocol error.  Rows of local cut cells keep -1 where a
node touches no numbered cell; nothing reads those entries.

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
from .fespace import (AgConstraints, _first_touch_ids, encode_node_keys,
                      extension_operator, shape_values)
from .geometry import INTERIOR
from .grid import corner_offsets
from .partition import SubdomainMesh, _lookup
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


def _merge_ids(s: int, codes, gids, pairs):
    """The sorted (code, gid) table joined with received ``(2, k)`` pair
    arrays; a node has one owner, which alone sends it, so a code must
    not arrive twice."""
    table = np.concatenate([np.stack([codes, gids])] + pairs, axis=1)
    if table.shape[1] == codes.size:
        return codes, gids
    codes, gids = table[:, np.argsort(table[0])]
    clash = np.flatnonzero(codes[1:] == codes[:-1])
    if clash.size:
        i = clash[0]
        raise RuntimeProtocolError(
            f"subdomain {s}: conflicting global ids {gids[i]} and "
            f"{gids[i + 1]} for one node")
    return codes, gids


def _numbering_body(proc, mesh: SubdomainMesh, interior_only: bool):
    s = proc.rank
    grid = mesh.grid
    m = 2 ** grid.d
    n_local = mesh.n_local
    keys = mesh.lattice[:, None, :] + corner_offsets(grid.d)  # (n_rel, m, d)
    codes = encode_node_keys(keys, grid.n_per_axis)           # (n_rel, m)

    # local DOF numbering: first touch over local cells ascending global id
    flat_j, n_j, first = _first_touch_ids(codes[:n_local].ravel())
    cell_j = flat_j.reshape(n_local, m)
    node_keys = keys[:n_local].reshape(-1, grid.d)[first]
    j_codes = codes[:n_local].ravel()[first]
    by_j = np.argsort(j_codes)
    j_of = np.concatenate([cell_j, _lookup(j_codes[by_j], by_j + 1,
                                           codes[n_local:])])  # -1: not local

    # owner per numbered node: smallest subdomain among its numbered cells
    numbered = (mesh.labels == INTERIOR if interior_only
                else np.ones(mesh.n_relevant, dtype=bool))
    num_codes = codes[numbered].ravel()
    uniq, inv = np.unique(num_codes, return_inverse=True)
    owner = np.full(uniq.size, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(owner, inv,
                  np.repeat(mesh.owner_of_relevant[numbered], m))
    j_interior = np.isin(j_codes, uniq)

    # owned nodes in first-touch order over the local numbered cells,
    # which lead the numbered rows since local cells come first
    local_num = num_codes[:m * np.count_nonzero(numbered[:n_local])]
    mine = local_num[owner[inv[:local_num.size]] == s]
    owned = mine[np.sort(np.unique(mine, return_index=True)[1])]
    n_owned = owned.size

    offset = yield proc.exclusive_scan_sum(n_owned)
    owned_start = offset + 1
    by_code = np.argsort(owned)
    gid_codes, gids = owned[by_code], owned_start + by_code.astype(np.int64)

    # a node of a local numbered cell is owned here or by a neighbour
    # with a numbered cell on it, so one round of owned (code, id) pairs
    # completes the local rows
    payloads = {}
    for sp, ls in mesh.send_halo.items():
        hit = np.isin(gid_codes, codes[ls[numbered[ls - 1]] - 1],
                      kind="table")
        payloads[sp] = np.stack([gid_codes[hit], gids[hit]])
    received = yield proc.neighbor_exchange(payloads)
    for sp, pairs in received.items():
        if np.ndim(pairs) != 2 or len(pairs) != 2:
            raise RuntimeProtocolError(
                f"subdomain {s}: numbering payload from {sp} has shape "
                f"{np.shape(pairs)}, expected (2, k)")
    gid_codes, gids = _merge_ids(s, gid_codes, gids,
                                 [received[sp] for sp in sorted(received)])

    cell_g = _lookup(gid_codes, gids, codes[:n_local])
    unresolved = np.flatnonzero(numbered[:n_local]
                                & np.any(cell_g == -1, axis=1))
    if unresolved.size:
        raise RuntimeProtocolError(
            f"subdomain {s}: cell {mesh.global_ids[unresolved[0]]} "
            f"has unresolved global DOF ids after the exchange")

    # owner cell per local DOF: smallest global id among relevant cells
    hit = j_of > 0
    smallest = np.full(n_j, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(smallest, j_of[hit] - 1,
                  np.broadcast_to(mesh.global_ids[:, None], j_of.shape)[hit])
    own_local_cell = mesh.local_ids(smallest)

    return DistSpacePiece(
        s=s, mesh=mesh, node_keys=node_keys, node_codes=j_codes,
        cell_j=cell_j, cell_g=cell_g, j_interior=j_interior,
        own_local_cell=own_local_cell, owned_start=owned_start,
        n_owned=n_owned, gid_codes=gid_codes, gids=gids)


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

