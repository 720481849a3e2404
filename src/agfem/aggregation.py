"""Cell aggregation: one sweep over subdomain views.

Every active cell is assigned a root interior cell.  The sweep runs in
rounds over the untouched cut cells: a cut cell joins the aggregate of a
face neighbor that was touched by the end of the previous round and
whose shared face is open (intersects the domain).  Among candidates
the one whose root-cell barycenter is closest to the cell wins; ties go
to the smaller neighbor id.  That distance is the lattice offset to the
root's key times h, and every cell carries its root's key.  Each round
reads a frozen snapshot, so the result does not depend on the order in
which cells or subdomains are visited, and the sweep runs unchanged on
any partition: every subdomain assigns its owned cut cells from its
view's face table, and a nearest-neighbor exchange refreshes the ghost
copies between rounds.  The sweep stops when no owned cell anywhere is
untouched, so its round count does not depend on the partition.  Serial
aggregation is the run on one subdomain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CUT, INTERIOR, CellClassification
from .partition import Partition, SubdomainMesh, build_subdomain_meshes
from .runtime import VirtualRuntime


class AggregationStalledError(RuntimeError):
    """Some cut cells cannot reach any interior cell through active faces."""

    def __init__(self, orphan_ids):
        self.orphan_ids = sorted(int(k) for k in orphan_ids)
        super().__init__(
            f"aggregation stalled; {len(self.orphan_ids)} cut cell(s) are "
            f"unreachable from any interior cell: {self.orphan_ids}"
        )


class AggregateValidationError(ValueError):
    """An aggregate violates its structural invariants."""


@dataclass
class RootMap:
    """Root-cell map R and next-cell map N over 1-based active ids."""

    root: np.ndarray      # R(k), 1-based interior ids
    next: np.ndarray      # N(k), the face neighbor chosen on the path
    rounds: int

    @property
    def n_cells(self) -> int:
        return self.root.size


@dataclass
class DistRootMap:
    """Per-subdomain root maps over local ids: global ids and root keys."""

    roots: list        # per s: (n_relevant,) global root id
    root_owners: list  # per s: (n_relevant,) subdomain owning the root
    nexts: list        # per s: (n_relevant,) global id of the next cell
    root_keys: list    # per s: (n_relevant, d) lattice key of the root
    rounds: int


def assign_round(cells, face_ids, face_open, root, root_keys, lattice,
                 global_ids, h):
    """One round of the sweep for the untouched cells ``cells`` (local ids).

    Candidates are open-face neighbors touched in the frozen snapshot
    ``root`` (-1 where untouched); each cell takes the candidate whose
    root barycenter is closest, measured as ``(root_key - key) * h``
    from the lattice keys, ties going to the smaller global id.  Returns
    the cells that found a candidate and the local id of the neighbor
    each one chose.
    """
    nb = face_ids[cells - 1]
    # face_open is False where there is no neighbor (nb == 0)
    ok = face_open[cells - 1] & (root[nb - 1] != -1)
    diff = (root_keys[nb - 1] - lattice[cells - 1][:, None, :]) * h
    dist = np.where(ok, np.sum(diff ** 2, axis=-1), np.inf)
    best = dist.min(axis=1)
    tie_ids = np.where(dist == best[:, None], global_ids[nb - 1],
                       np.iinfo(np.int64).max)
    pick = np.argmin(tie_ids, axis=1)
    found = np.isfinite(best)
    return cells[found], nb[found, pick[found]]


def _refresh_ghosts(proc, agg, send, recv):
    payloads = {sp: agg[:, ids - 1] for sp, ids in send.items() if ids.size}
    received = yield proc.neighbor_exchange(payloads)
    for sp, vals in received.items():
        agg[:, recv[sp] - 1] = vals


def _aggregate_body(proc, mesh: SubdomainMesh):
    g_ids = mesh.global_ids
    interior = mesh.labels == INTERIOR
    # rows: root, root owner, next cell, root key (d rows); interior
    # ghosts are known locally
    agg = np.full((3 + mesh.grid.d, mesh.n_relevant), -1, dtype=np.int64)
    agg[:3, interior] = (g_ids[interior], mesh.owner_of_relevant[interior],
                         g_ids[interior])
    agg[3:, interior] = mesh.lattice[interior].T
    cut = mesh.labels == CUT
    send = {sp: ids[cut[ids - 1]] for sp, ids in mesh.send_halo.items()}
    recv = {sp: ids[cut[ids - 1]] for sp, ids in mesh.recv_halo.items()}
    owned_cut = np.flatnonzero(cut[:mesh.n_local]) + 1

    rounds, before = 0, None
    while True:
        untouched = owned_cut[agg[0, owned_cut - 1] == -1]
        left = yield proc.sum_ordered(float(untouched.size))
        if left == 0:
            break
        if left == before:
            raise AggregationStalledError(g_ids[untouched - 1])
        before = left
        if rounds:
            yield from _refresh_ghosts(proc, agg, send, recv)
        cells, chosen = assign_round(untouched, mesh.face_ids, mesh.face_open,
                                     agg[0], agg[3:].T, mesh.lattice, g_ids,
                                     mesh.grid.h)
        agg[:, cells - 1] = agg[:, chosen - 1]
        agg[2, cells - 1] = g_ids[chosen - 1]
        rounds += 1
    if rounds:
        yield from _refresh_ghosts(proc, agg, send, recv)
    return agg, rounds


def aggregate_parallel(runtime, meshes) -> DistRootMap:
    """Run the aggregation sweep on the virtual runtime, one process per
    subdomain view.  Ghost values are current on return."""
    neighbor_sets = [set(m.neighbors.tolist()) for m in meshes]
    results = runtime.run(
        _aggregate_body, args=[(m,) for m in meshes],
        phase="aggregate", neighbor_sets=neighbor_sets)
    return DistRootMap(
        roots=[agg[0] for agg, _ in results],
        root_owners=[agg[1] for agg, _ in results],
        nexts=[agg[2] for agg, _ in results],
        root_keys=[agg[3:].T for agg, _ in results],
        rounds=max(rounds for _, rounds in results))


def gather_root_map(meshes, dist_map: DistRootMap) -> RootMap:
    """The global root map, read off each subdomain's owned cells."""
    n = meshes[0].n_cells
    root = np.empty(n, dtype=np.int64)
    nxt = np.empty(n, dtype=np.int64)
    for mesh, roots, nexts in zip(meshes, dist_map.roots, dist_map.nexts):
        own = mesh.global_ids[:mesh.n_local] - 1
        root[own] = roots[:mesh.n_local]
        nxt[own] = nexts[:mesh.n_local]
    return RootMap(root=root, next=nxt, rounds=dist_map.rounds)


def aggregate_serial(classification: CellClassification) -> RootMap:
    """The sweep on one subdomain that owns every active cell."""
    part = Partition(1, np.ones(classification.n_active, dtype=np.int64))
    meshes = build_subdomain_meshes(classification, part)
    return gather_root_map(meshes, aggregate_parallel(VirtualRuntime(1), meshes))


@dataclass
class AggregateSet:
    """Aggregate sizes by root id, with path statistics."""

    root: np.ndarray   # the validated root map
    n_aggregates: int
    max_size: int
    max_path_length: int


def _first(mask, message):
    bad = np.flatnonzero(mask)
    if bad.size:
        raise AggregateValidationError(message(int(bad[0]) + 1))


def aggregates(classification: CellClassification,
               root_map: RootMap) -> AggregateSet:
    """Validate aggregate well-formedness and measure the aggregates.

    Checks that every cell is assigned, that each aggregate contains
    exactly one interior cell (its root), and that following the
    next-cell map from any member reaches the root through steps to face
    neighbors across open faces.
    """
    n = classification.n_active
    if root_map.n_cells != n:
        raise AggregateValidationError("root map size does not match mesh")
    root, nxt = root_map.root, root_map.next
    if np.any(root == -1):
        missing = np.flatnonzero(root == -1) + 1
        raise AggregateValidationError(f"unassigned cells: {missing.tolist()}")

    interior = ~classification.is_cut
    _first((root < 1) | (root > n) | ~interior[np.clip(root, 1, n) - 1],
           lambda k: f"aggregate rooted at {root[k - 1]} has a non-interior root")
    n_interior = np.bincount(root[interior] - 1, minlength=n)
    _first(n_interior[root - 1] != 1,
           lambda k: f"aggregate rooted at {root[k - 1]} contains "
                     f"{n_interior[root[k - 1] - 1]} interior cells")

    cells = np.arange(1, n + 1)
    step = nxt != cells
    hit = classification.face_ids == nxt[:, None]
    _first(step & ~hit.any(axis=1),
           lambda k: f"next-cell {nxt[k - 1]} of cell {k} is not a face neighbor")
    _first(step & ~(hit & classification.face_open).any(axis=1),
           lambda k: f"path step {k} -> {nxt[k - 1]} crosses an inactive face")
    _first(root[nxt - 1] != root,
           lambda k: f"root changes along the path at {k} -> {nxt[k - 1]}")

    # walk every path at once, one step per pass
    cur, length = cells.copy(), np.zeros(n, dtype=np.int64)
    moving = step
    while moving.any():
        _first(moving & (length >= n), lambda k: f"next-cell cycle through {k}")
        cur[moving] = nxt[cur[moving] - 1]
        length += moving
        moving = nxt[cur - 1] != cur
    _first(cur != root, lambda k: f"path from {k} ends at {cur[k - 1]}, "
                                  f"not its root {root[k - 1]}")

    sizes = np.bincount(root - 1, minlength=n)
    return AggregateSet(root=root, n_aggregates=int(np.count_nonzero(sizes)),
                        max_size=int(sizes.max(initial=0)),
                        max_path_length=int(length.max(initial=0)))
