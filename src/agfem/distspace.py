"""Distributed DOF numbering and aggregation constraints.

Every step runs on arrays over the view's cells, with each node named by
one int64 code of its lattice key (``fespace.encode_node_keys``).
Interior DOFs receive contiguous, sequentially increasing global ids: a
DOF is owned by the smallest subdomain id among the interior cells
touching it (one ``np.minimum.at`` over the relevant interior cells),
every subdomain numbers the DOFs it owns in first-touch order over its
local interior cells, and an exclusive scan turns the owned counts into
ranges.  The ids a subdomain knows live in one table of (code, global
id) pairs sorted by code and read with ``searchsorted``.  Cell-wise id
arrays are completed through halo exchanges of ``(n_cells, m)`` id rows,
merged into the table with one lexsort per round.  Two rounds are
needed: after the first, a ghost cell's owner knows the whole cell-wise
array including ids owned by third parties; the second round relays
those to everyone holding the cell as a ghost.  Rows of cut cells keep
-1 where a node has no id known here (it touches no interior cell, or
none that is locally relevant); nothing reads those entries.

Constrained DOFs never get global ids; each subdomain expresses them by
local id against global master ids, importing root-cell data when the
root is not locally relevant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import DistRootMap
from .distagg import RootDataBuffer
from .fespace import (AgConstraints, _first_touch_ids, encode_node_keys,
                      node_offsets, shape_values)
from .geometry import INTERIOR
from .partition import SubdomainMesh
from .runtime import RuntimeProtocolError


class MissingImportError(RuntimeError):
    """A constraint needed a root cell that was neither local nor imported."""


def _lookup(table: np.ndarray, values: np.ndarray,
            query: np.ndarray) -> np.ndarray:
    """``values`` at ``query`` in a table sorted ascending; -1 if absent."""
    if table.size == 0:
        return np.full(query.shape, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(table, query), table.size - 1)
    return np.where(table[pos] == query, values[pos], -1)


@dataclass
class DistSpacePiece:
    """One subdomain's share of the distributed space."""

    s: int
    mesh: SubdomainMesh
    q: int
    node_keys: np.ndarray        # (n_j, d) lattice keys of local-cell nodes
    node_codes: np.ndarray       # (n_j,) their int64 codes
    node_coords: np.ndarray      # (n_j, d)
    cell_j: np.ndarray           # (n_local, m) local DOF ids
    cell_g: np.ndarray           # (n_relevant, m) global ids, -1 holes
    j_interior: np.ndarray       # (n_j,) bool
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


def _numbering_body(proc, mesh: SubdomainMesh, q: int):
    s = proc.rank
    grid = mesh.classification.grid
    offs = node_offsets(q, grid.d)
    m = offs.shape[0]
    n_local = mesh.n_local
    keys = (mesh.classification.id_to_lattice[mesh.global_ids - 1][:, None, :]
            * q + offs)                                   # (n_relevant, m, d)
    codes = encode_node_keys(keys, q, grid.n_per_axis)   # (n_relevant, m)

    # local DOF numbering: first touch over local cells ascending global id
    flat_j, n_j, first = _first_touch_ids(codes[:n_local].ravel())
    cell_j = flat_j.reshape(n_local, m)
    node_keys = keys[:n_local].reshape(-1, grid.d)[first]
    node_coords = grid.origin + node_keys * (grid.h / q)
    j_codes = codes[:n_local].ravel()[first]
    by_j = np.argsort(j_codes)
    j_of = _lookup(j_codes[by_j], by_j + 1, codes)        # -1: not local

    # owner per interior node: smallest subdomain among its interior cells
    interior = mesh.labels == INTERIOR
    int_codes = codes[interior].ravel()
    uniq, inv = np.unique(int_codes, return_inverse=True)
    owner = np.full(uniq.size, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(owner, inv,
                  np.repeat(mesh.owner_of_relevant[interior], m))
    j_interior = np.isin(j_codes, uniq)

    # owned nodes in first-touch order over the local interior cells,
    # which lead the interior rows since local cells come first
    local_int = int_codes[:m * np.count_nonzero(interior[:n_local])]
    mine = local_int[owner[inv[:local_int.size]] == s]
    owned = mine[np.sort(np.unique(mine, return_index=True)[1])]
    n_owned = owned.size

    offset = yield proc.exclusive_scan_sum(n_owned)
    owned_start = offset + 1
    by_code = np.argsort(owned)
    gid_codes, gids = owned[by_code], owned_start + by_code.astype(np.int64)

    # complete cell-wise arrays on locally relevant interior cells; the
    # second round relays third-party ids resolved at ghost owners
    send = {sp: ls[interior[ls - 1]] for sp, ls in mesh.send_halo.items()}
    recv = {sp: ls[interior[ls - 1]] for sp, ls in mesh.recv_halo.items()}
    for _ in range(2):
        known = _lookup(gid_codes, gids, codes)
        received = yield proc.neighbor_exchange(
            {sp: known[ls - 1] for sp, ls in send.items()})
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
    unresolved = np.flatnonzero(interior & np.any(cell_g == -1, axis=1))
    if unresolved.size:
        raise RuntimeProtocolError(
            f"subdomain {s}: interior cell {mesh.global_of(unresolved[0] + 1)} "
            f"has unresolved global DOF ids after the exchange rounds")

    # owner cell per local DOF: smallest global id among relevant cells
    hit = j_of > 0
    smallest = np.full(n_j, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(smallest, j_of[hit] - 1,
                  np.broadcast_to(mesh.global_ids[:, None], j_of.shape)[hit])
    by_gid = np.argsort(mesh.global_ids)
    own_local_cell = _lookup(mesh.global_ids[by_gid], by_gid + 1, smallest)

    total = yield proc.sum_ordered(np.array([float(n_owned)]))
    piece = DistSpacePiece(
        s=s, mesh=mesh, q=q, node_keys=node_keys, node_codes=j_codes,
        node_coords=node_coords, cell_j=cell_j, cell_g=cell_g,
        j_interior=j_interior, own_local_cell=own_local_cell,
        owned_start=owned_start, n_owned=n_owned, gid_codes=gid_codes,
        gids=gids)
    return piece, int(total)


def number_dofs_distributed(runtime, meshes, q: int = 1,
                            phase: str = "numbering") -> DistNumbering:
    """Assign global ids to interior DOFs across all subdomains."""
    neighbor_sets = [set(int(x) for x in m.neighbors) for m in meshes]
    results = runtime.run(
        _numbering_body, args=[(m, q) for m in meshes],
        phase=phase, neighbor_sets=neighbor_sets)
    return DistNumbering(pieces=[r[0] for r in results],
                         n_global=results[0][1])


def root_cell_data_provider(numbering: DistNumbering):
    """Owner-side (coordinates, global ids) lookup for root-cell import."""
    by_rank = {p.s: p for p in numbering.pieces}

    def cell_data(s: int, global_id: int):
        piece = by_rank[s]
        l = piece.mesh.local_id(global_id)
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
    by_gid = np.argsort(mesh.global_ids)
    l_root = _lookup(mesh.global_ids[by_gid], by_gid + 1, roots)
    here = np.flatnonzero(l_root > 0)
    masters = np.zeros((out_js.size, piece.cell_g.shape[1]), dtype=np.int64)
    masters[here] = piece.cell_g[l_root[here] - 1]
    lo = grid.cell_origin(mesh.classification.id_to_lattice[roots - 1])
    h = np.tile(grid.h, (out_js.size, 1))
    away = np.flatnonzero(l_root < 0)
    z = np.array([buffer.z_of.get(int(k), 0) for k in roots[away]],
                 dtype=np.int64)
    missing = np.zeros(out_js.size, dtype=bool)
    missing[away[z == 0]] = True
    imported, z = away[z > 0], z[z > 0]
    if z.size:
        coords = np.stack([buffer.coords[zz - 1] for zz in z])
        masters[imported] = np.stack([buffer.dofs[zz - 1] for zz in z])
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
    coeffs = shape_values(piece.q, grid.d, xi)
    return AgConstraints(constrained=out_js, masters=masters, coeffs=coeffs)


def distributed_row_permutation(numbering: DistNumbering, space, dofs):
    """Map distributed global ids to serial reduced rows via node keys.

    Returns ``perm`` with ``perm[gid - 1] = serial row - 1``; used to
    compare distributed systems against their serial counterparts.
    """
    serial = encode_node_keys(space.node_keys[dofs.interior_ids - 1], space.q,
                              space.classification.grid.n_per_axis)
    by_code = np.argsort(serial)
    rows_by_code = dofs.row_of[dofs.interior_ids - 1][by_code]
    perm = np.zeros(numbering.n_global, dtype=np.int64)
    seen = np.zeros(numbering.n_global, dtype=bool)
    for piece in numbering.pieces:
        rows = _lookup(serial[by_code], rows_by_code, piece.gid_codes)
        if np.any(rows == -1):
            gid = int(piece.gids[np.argmax(rows == -1)])
            raise KeyError(f"distributed id {gid} maps to no serial row")
        perm[piece.gids - 1] = rows - 1
        seen[piece.gids - 1] = True
    if not np.all(seen):
        raise KeyError("some distributed ids were never defined")
    return perm
