"""Distributed DOF numbering and aggregation constraints.

Interior DOFs receive contiguous, sequentially increasing global ids:
every subdomain first numbers the interior-cell DOFs it owns (a DOF is
owned by the smallest subdomain id among the interior cells touching
it), an exclusive scan turns the owned counts into ranges, and cell-wise
id arrays are then completed through halo exchanges.  Two exchange
rounds are needed: after the first, a ghost cell's owner knows the whole
cell-wise array including ids owned by third parties; the second round
relays those to everyone holding the cell as a ghost.  Finally the ids
are propagated onto the cut-cell faces that touch interior cells; ids
stay undefined elsewhere on cut cells since nothing reads them.

Constrained DOFs never get global ids; each subdomain expresses them by
local id against global master ids, importing root-cell data when the
root is not locally relevant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import DistRootMap
from .distagg import RootDataBuffer
from .fespace import AgConstraints, node_offsets, shape_values
from .geometry import INTERIOR
from .partition import SubdomainMesh
from .runtime import RuntimeProtocolError


class MissingImportError(RuntimeError):
    """A constraint needed a root cell that was neither local nor imported."""


@dataclass
class DistSpacePiece:
    """One subdomain's share of the distributed space."""

    s: int
    mesh: SubdomainMesh
    q: int
    node_keys: np.ndarray        # (n_j, d) lattice keys of local-cell nodes
    node_coords: np.ndarray      # (n_j, d)
    cell_j: dict                 # local cell id -> (m,) local DOF ids
    cell_g: dict                 # relevant cell id -> (m,) global ids, -1 holes
    j_interior: np.ndarray       # (n_j,) bool
    own_local_cell: np.ndarray   # (n_j,) local cell with smallest global id
    owned_start: int             # first owned global id (1-based)
    n_owned: int
    gid_of_key: dict             # node key -> global id (interior keys seen here)

    @property
    def n_local_dofs(self) -> int:
        return self.node_keys.shape[0]

    def exterior_js(self) -> np.ndarray:
        return np.flatnonzero(~self.j_interior).astype(np.int64) + 1


@dataclass
class DistNumbering:
    pieces: list
    n_global: int

    def owned_ranges(self) -> np.ndarray:
        """Row range starts per subdomain plus the terminating bound."""
        starts = [p.owned_start for p in self.pieces]
        return np.asarray(starts + [self.n_global + 1], dtype=np.int64)


def _cell_keys(classification, global_id: int, q: int,
               offs: np.ndarray) -> np.ndarray:
    return classification.lattice_of(global_id) * q + offs


def _numbering_body(proc, mesh: SubdomainMesh, q: int):
    s = proc.rank
    cls = mesh.classification
    offs = node_offsets(q, cls.grid.d)
    m = offs.shape[0]

    # local DOF numbering: first touch over local cells ascending global id
    j_of_key: dict = {}
    keys_in_order: list = []
    cell_j: dict = {}
    for l in range(1, mesh.n_local + 1):
        keys = _cell_keys(cls, mesh.global_of(l), q, offs)
        row = np.empty(m, dtype=np.int64)
        for a in range(m):
            key = tuple(int(v) for v in keys[a])
            j = j_of_key.get(key)
            if j is None:
                j = len(keys_in_order) + 1
                j_of_key[key] = j
                keys_in_order.append(key)
            row[a] = j
        cell_j[l] = row
    n_j = len(keys_in_order)
    node_keys = np.asarray(keys_in_order, dtype=np.int64)
    node_coords = cls.grid.origin + node_keys * (cls.grid.h / q)

    interior_cells = mesh.relevant_interior()
    j_interior = np.zeros(n_j, dtype=bool)
    owner_of_key: dict = {}
    for l in interior_cells:
        cell_owner = int(mesh.owner_of_relevant[l - 1])
        for kk in _cell_keys(cls, mesh.global_of(l), q, offs):
            key = tuple(int(v) for v in kk)
            prev = owner_of_key.get(key)
            if prev is None or cell_owner < prev:
                owner_of_key[key] = cell_owner
            j = j_of_key.get(key)
            if j is not None:
                j_interior[j - 1] = True

    local_interior = [l for l in interior_cells if mesh.is_local(l)]
    owned_keys: list = []
    seen: set = set()
    for l in local_interior:
        for kk in _cell_keys(cls, mesh.global_of(l), q, offs):
            key = tuple(int(v) for v in kk)
            if key not in seen and owner_of_key[key] == s:
                seen.add(key)
                owned_keys.append(key)
    n_owned = len(owned_keys)

    offset = yield proc.exclusive_scan_sum(n_owned)
    owned_start = offset + 1
    gid_of_key = {key: owned_start + i for i, key in enumerate(owned_keys)}

    # complete cell-wise arrays on locally relevant interior cells; the
    # second round relays third-party ids resolved at ghost owners
    interior_send = {
        sp: [l for l in ids if mesh.labels[l - 1] == INTERIOR]
        for sp, ids in mesh.send_halo.items()}
    interior_recv = {
        sp: [l for l in ids if mesh.labels[l - 1] == INTERIOR]
        for sp, ids in mesh.recv_halo.items()}
    for _ in range(2):
        payloads = {}
        for sp, cells in interior_send.items():
            rows = np.full((len(cells), m), -1, dtype=np.int64)
            for i, l in enumerate(cells):
                for a, kk in enumerate(_cell_keys(cls, mesh.global_of(l), q, offs)):
                    rows[i, a] = gid_of_key.get(tuple(int(v) for v in kk), -1)
            payloads[sp] = rows
        received = yield proc.neighbor_exchange(payloads)
        for sp, rows in received.items():
            cells = interior_recv[sp]
            if rows.shape[0] != len(cells):
                raise RuntimeProtocolError(
                    f"subdomain {s}: numbering payload from {sp} has "
                    f"{rows.shape[0]} cells, expected {len(cells)}")
            for l, row in zip(cells, rows):
                keys = _cell_keys(cls, mesh.global_of(l), q, offs)
                for a in range(m):
                    gid = int(row[a])
                    if gid == -1:
                        continue
                    key = tuple(int(v) for v in keys[a])
                    prev = gid_of_key.get(key)
                    if prev is not None and prev != gid:
                        raise RuntimeProtocolError(
                            f"subdomain {s}: conflicting global ids {prev} "
                            f"and {gid} for one node")
                    gid_of_key[key] = gid

    cell_g: dict = {}
    for l in range(1, mesh.n_relevant + 1):
        keys = _cell_keys(cls, mesh.global_of(l), q, offs)
        row = np.asarray(
            [gid_of_key.get(tuple(int(v) for v in kk), -1) for kk in keys],
            dtype=np.int64)
        if mesh.labels[l - 1] == INTERIOR and np.any(row == -1):
            raise RuntimeProtocolError(
                f"subdomain {s}: interior cell {mesh.global_of(l)} has "
                f"unresolved global DOF ids after the exchange rounds")
        cell_g[l] = row

    # owner cell per local DOF: smallest global id among relevant cells
    own_local_cell = np.zeros(n_j, dtype=np.int64)
    for g in sorted(mesh.global_of(l) for l in range(1, mesh.n_relevant + 1)):
        l = mesh.local_id(g)
        keys = _cell_keys(cls, g, q, offs)
        for kk in keys:
            j = j_of_key.get(tuple(int(v) for v in kk))
            if j is not None and own_local_cell[j - 1] == 0:
                own_local_cell[j - 1] = l

    total = yield proc.sum_ordered(np.array([float(n_owned)]))
    piece = DistSpacePiece(
        s=s, mesh=mesh, q=q, node_keys=node_keys, node_coords=node_coords,
        cell_j=cell_j, cell_g=cell_g, j_interior=j_interior,
        own_local_cell=own_local_cell, owned_start=owned_start,
        n_owned=n_owned, gid_of_key=gid_of_key)
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
        offs = node_offsets(piece.q, piece.mesh.classification.grid.d)
        keys = _cell_keys(piece.mesh.classification, global_id, piece.q, offs)
        grid = piece.mesh.classification.grid
        coords = grid.origin + keys * (grid.h / piece.q)
        return coords, piece.cell_g[l]

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
    cls = mesh.classification
    grid = cls.grid
    s = piece.s
    out_js = piece.exterior_js()
    m = node_offsets(piece.q, grid.d).shape[0]
    masters = np.zeros((out_js.size, m), dtype=np.int64)
    coeffs = np.zeros((out_js.size, m))
    for i, j in enumerate(out_js):
        l_own = int(piece.own_local_cell[j - 1])
        k_root = dist_map.root_of(s, l_own)
        x_j = piece.node_coords[j - 1]
        if mesh.is_relevant(k_root):
            g_row = piece.cell_g[mesh.local_id(k_root)]
            lo = grid.cell_origin(cls.lattice_of(k_root))
            h = grid.h
        else:
            try:
                z = buffer.slot(k_root)
            except KeyError:
                raise MissingImportError(
                    f"subdomain {s}: DOF {int(j)} needs root cell {k_root}, "
                    f"which is neither locally relevant nor imported") from None
            g_row = buffer.dofs[z - 1]
            coords = buffer.coords[z - 1]
            lo = coords[0]
            h = coords[-1] - coords[0]
        if np.any(g_row == -1):
            raise MissingImportError(
                f"subdomain {s}: root cell {k_root} carries unresolved "
                f"master ids")
        xi = (x_j - lo) / h
        masters[i] = g_row
        coeffs[i] = shape_values(piece.q, grid.d, xi)[0]
    return AgConstraints(constrained=out_js, masters=masters, coeffs=coeffs)


def distributed_row_permutation(numbering: DistNumbering, space, dofs):
    """Map distributed global ids to serial reduced rows via node keys.

    Returns ``perm`` with ``perm[gid - 1] = serial row - 1``; used to
    compare distributed systems against their serial counterparts.
    """
    key_to_serial = {}
    for node_id in dofs.interior_ids:
        key = tuple(int(v) for v in space.node_keys[node_id - 1])
        key_to_serial[key] = int(dofs.row_of[node_id - 1])
    perm = np.zeros(numbering.n_global, dtype=np.int64)
    seen = np.zeros(numbering.n_global, dtype=bool)
    for piece in numbering.pieces:
        for key, gid in piece.gid_of_key.items():
            row = key_to_serial.get(key)
            if row is None:
                raise KeyError(f"distributed id {gid} maps to no serial row")
            perm[gid - 1] = row - 1
            seen[gid - 1] = True
    if not np.all(seen):
        raise KeyError("some distributed ids were never defined")
    return perm
