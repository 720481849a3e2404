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
id) pairs sorted by code and read with ``searchsorted``.  Cell-wise id
arrays are completed through halo exchanges of ``(n_cells, m)`` id rows,
merged into the table with one lexsort per round.  Two rounds are
needed: after the first, a ghost cell's owner knows the whole cell-wise
array including ids owned by third parties; the second round relays
those to everyone holding the cell as a ghost.  Rows of cut cells keep
-1 where a node has no id known here (it touches no numbered cell, or
none that is locally relevant); nothing reads those entries.

Constrained DOFs never get global ids; each subdomain expresses them by
local id against global master ids, importing root-cell data when the
root is not locally relevant.  The roots of all exterior DOFs are looked
up at once, in the view (``SubdomainMesh.local_ids``) and else in the
import buffer (``RootDataBuffer.rows_of``), and the owner side answers
the import for a whole batch of root cells.

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
from .partition import SubdomainMesh, _lookup
from .runtime import RuntimeProtocolError


class MissingImportError(RuntimeError):
    """A constraint needed a root cell that was neither local nor imported."""


@dataclass
class DistSpacePiece:
    """One subdomain's share of the distributed space."""

    s: int
    mesh: SubdomainMesh
    node_keys: np.ndarray        # (n_j, d) lattice keys of local-cell nodes
    node_codes: np.ndarray       # (n_j,) their int64 codes
    node_coords: np.ndarray      # (n_j, d)
    cell_j: np.ndarray           # (n_local, m) local DOF ids
    cell_g: np.ndarray           # (n_relevant, m) global ids, -1 holes
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

    def gid_of(self, codes: np.ndarray) -> np.ndarray:
        """Global ids of node codes; -1 where unknown here."""
        return _lookup(self.gid_codes, self.gids, codes)

    def owned_cells(self):
        """Local DOFs (n_local, m), global ids and the global row of each
        local DOF of the owned cells: its global id if it is free, else 0;
        a free DOF without a global id gets -1, which assembly rejects."""
        cell_dofs = self.cell_j
        free = self.j_interior[cell_dofs - 1]
        row_of = np.zeros(self.n_local_dofs, dtype=np.int64)
        row_of[cell_dofs[free] - 1] = self.cell_g[:self.mesh.n_local][free]
        return cell_dofs, self.mesh.global_ids[:self.mesh.n_local], row_of


@dataclass
class DistNumbering:
    pieces: list
    n_global: int

    def owned_ranges(self) -> np.ndarray:
        """Row range starts per subdomain plus the terminating bound."""
        starts = [p.owned_start for p in self.pieces]
        return np.asarray(starts + [self.n_global + 1], dtype=np.int64)


def _merge_ids(s: int, codes, gids, new_codes, new_gids):
    """The sorted (code, gid) table extended by received pairs; -1 skipped."""
    known = new_gids != -1
    if not known.any():
        return codes, gids
    codes = np.concatenate([codes, new_codes[known]])
    gids = np.concatenate([gids, new_gids[known]])
    order = np.lexsort((gids, codes))
    codes, gids = codes[order], gids[order]
    same = codes[1:] == codes[:-1]
    clash = np.flatnonzero(same & (gids[1:] != gids[:-1]))
    if clash.size:
        i = clash[0]
        raise RuntimeProtocolError(
            f"subdomain {s}: conflicting global ids {gids[i]} and "
            f"{gids[i + 1]} for one node")
    keep = np.ones(codes.size, dtype=bool)
    keep[1:] = ~same
    return codes[keep], gids[keep]


def _numbering_body(proc, mesh: SubdomainMesh, interior_only: bool):
    s = proc.rank
    grid = mesh.classification.grid
    m = 2 ** grid.d
    n_local = mesh.n_local
    keys = mesh.classification.vertex_keys(mesh.global_ids)  # (n_rel, m, d)
    codes = encode_node_keys(keys, grid.n_per_axis)          # (n_rel, m)

    # local DOF numbering: first touch over local cells ascending global id
    flat_j, n_j, first = _first_touch_ids(codes[:n_local].ravel())
    cell_j = flat_j.reshape(n_local, m)
    node_keys = keys[:n_local].reshape(-1, grid.d)[first]
    node_coords = grid.origin + node_keys * grid.h
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

    # complete cell-wise arrays on locally relevant numbered cells; the
    # second round relays third-party ids resolved at ghost owners
    send = {sp: ls[numbered[ls - 1]] for sp, ls in mesh.send_halo.items()}
    recv = {sp: ls[numbered[ls - 1]] for sp, ls in mesh.recv_halo.items()}
    for _ in range(2):
        received = yield proc.neighbor_exchange(
            {sp: _lookup(gid_codes, gids, codes[ls - 1])
             for sp, ls in send.items()})
        empty = np.zeros(0, dtype=np.int64)
        new_codes, new_gids = [empty], [empty]
        for sp, rows in received.items():
            if rows.shape[0] != recv[sp].size:
                raise RuntimeProtocolError(
                    f"subdomain {s}: numbering payload from {sp} has "
                    f"{rows.shape[0]} cells, expected {recv[sp].size}")
            new_codes.append(codes[recv[sp] - 1].ravel())
            new_gids.append(rows.ravel())
        gid_codes, gids = _merge_ids(s, gid_codes, gids,
                                     np.concatenate(new_codes),
                                     np.concatenate(new_gids))

    cell_g = _lookup(gid_codes, gids, codes)
    unresolved = np.flatnonzero(numbered & np.any(cell_g == -1, axis=1))
    if unresolved.size:
        raise RuntimeProtocolError(
            f"subdomain {s}: cell {mesh.global_ids[unresolved[0]]} "
            f"has unresolved global DOF ids after the exchange rounds")

    # owner cell per local DOF: smallest global id among relevant cells
    hit = j_of > 0
    smallest = np.full(n_j, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(smallest, j_of[hit] - 1,
                  np.broadcast_to(mesh.global_ids[:, None], j_of.shape)[hit])
    own_local_cell = mesh.local_ids(smallest)

    total = yield proc.sum_ordered(np.array([float(n_owned)]))
    piece = DistSpacePiece(
        s=s, mesh=mesh, node_keys=node_keys, node_codes=j_codes,
        node_coords=node_coords, cell_j=cell_j, cell_g=cell_g,
        j_interior=j_interior, own_local_cell=own_local_cell,
        owned_start=owned_start, n_owned=n_owned, gid_codes=gid_codes,
        gids=gids)
    return piece, int(total)


def number_dofs_distributed(runtime, meshes, phase: str = "numbering",
                            interior_only: bool = True) -> DistNumbering:
    """Assign global ids to the DOFs of the interior cells across all
    subdomains, or of every active cell with ``interior_only=False``."""
    neighbor_sets = [set(int(x) for x in m.neighbors) for m in meshes]
    results = runtime.run(
        _numbering_body, args=[(m, interior_only) for m in meshes],
        phase=phase, neighbor_sets=neighbor_sets)
    return DistNumbering(pieces=[r[0] for r in results],
                         n_global=results[0][1])


def root_cell_data_provider(numbering: DistNumbering):
    """Owner-side nodal coordinates (n, m, d) and global ids (n, m) of a
    batch of owned cells, for root-cell import."""
    by_rank = {p.s: p for p in numbering.pieces}

    def cell_data(s: int, global_ids: np.ndarray):
        piece = by_rank[s]
        l = piece.mesh.local_ids(global_ids)
        if np.any((l == 0) | (l > piece.mesh.n_local)):
            raise KeyError(f"subdomain {s} does not own every requested cell")
        return piece.node_coords[piece.cell_j[l - 1] - 1], piece.cell_g[l - 1]

    return cell_data


def build_constraints_distributed(piece: DistSpacePiece,
                                  dist_map: DistRootMap,
                                  buffer: RootDataBuffer) -> AgConstraints:
    """Masters and coefficients for this subdomain's exterior DOFs.

    Local root cells are evaluated from lattice data; non-relevant roots
    use the imported nodal coordinates, reconstructing the cell box from
    the buffered payload itself.
    """
    mesh = piece.mesh
    grid = mesh.classification.grid
    s = piece.s
    out_js = piece.exterior_js()
    roots = dist_map.roots[s - 1][piece.own_local_cell[out_js - 1] - 1]
    l_root = mesh.local_ids(roots)
    here = np.flatnonzero(l_root > 0)
    masters = np.zeros((out_js.size, piece.cell_g.shape[1]), dtype=np.int64)
    masters[here] = piece.cell_g[l_root[here] - 1]
    lo = grid.cell_origin(mesh.classification.id_to_lattice[roots - 1])
    h = np.tile(grid.h, (out_js.size, 1))
    rows = buffer.rows_of(roots)
    missing = (l_root == 0) & (rows < 0)
    imported = np.flatnonzero((l_root == 0) & (rows >= 0))
    coords = buffer.coords[rows[imported]]
    masters[imported] = buffer.dofs[rows[imported]]
    lo[imported] = coords[:, 0]
    h[imported] = coords[:, -1] - coords[:, 0]
    bad = np.flatnonzero(missing | np.any(masters == -1, axis=1))
    if bad.size:
        i = bad[0]
        if missing[i]:
            raise MissingImportError(
                f"subdomain {s}: DOF {int(out_js[i])} needs root cell "
                f"{int(roots[i])}, which is neither locally relevant nor "
                f"imported")
        raise MissingImportError(
            f"subdomain {s}: root cell {int(roots[i])} carries unresolved "
            f"master ids")
    xi = (piece.node_coords[out_js - 1] - lo) / h
    coeffs = shape_values(xi)
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

