"""Distributed cell aggregation and root-data import.

The parallel sweep reproduces the serial aggregates exactly: each round
refreshes ghost root values with a nearest-neighbor exchange, assigns
untouched local cut cells against the frozen snapshot with the same
distance/id tie-break as the serial sweep, and terminates on a global
and-reduction.  Path plans are then reconstructed in both directions:
the receive side is a communication-free scan, the send side forwards
(first-cell, next-cell, origin) tuples along the aggregation paths using
only nearest-neighbor traffic.  Only the final data import may route
messages between non-neighbor subdomains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregation import AggregationStalledError, RootMap, pick_candidate
from .geometry import CUT
from .partition import SubdomainMesh


class PathReconstructionError(RuntimeError):
    """A path tuple was forwarded more often than the global cell count."""


class ImportProtocolError(RuntimeError):
    """A root-data buffer did not match its import plan."""


@dataclass
class DistRootMap:
    """Per-subdomain root maps over local ids; values are global ids."""

    roots: list        # per s: (n_relevant,) global root id
    root_owners: list  # per s: (n_relevant,) subdomain owning the root
    nexts: list        # per s: (n_relevant,) global id of the next cell
    rounds: int

    def root_of(self, s: int, l: int) -> int:
        return int(self.roots[s - 1][l - 1])

    def owner_of(self, s: int, l: int) -> int:
        return int(self.root_owners[s - 1][l - 1])

    def next_of(self, s: int, l: int) -> int:
        return int(self.nexts[s - 1][l - 1])


def _aggregate_body(proc, mesh: SubdomainMesh, face_active, barycenters):
    cls = mesh.classification
    n_rel = mesh.n_relevant
    s = proc.rank
    root = np.full(n_rel, -1, dtype=np.int64)
    owner = np.full(n_rel, -1, dtype=np.int64)
    nxt = np.full(n_rel, -1, dtype=np.int64)
    for l in mesh.locals_interior():
        g = mesh.global_of(l)
        root[l - 1] = g
        owner[l - 1] = s
        nxt[l - 1] = g
    local_cut = mesh.locals_cut()

    rounds = 0
    while True:
        payloads = {}
        for sp, send_ids in mesh.send_halo.items():
            payloads[sp] = (root[send_ids - 1].copy(),
                            owner[send_ids - 1].copy(),
                            nxt[send_ids - 1].copy())
        received = yield proc.neighbor_exchange(payloads)
        for sp, (r_vals, o_vals, n_vals) in received.items():
            idx = mesh.recv_halo[sp] - 1
            root[idx] = r_vals
            owner[idx] = o_vals
            nxt[idx] = n_vals

        touched = root != -1  # frozen snapshot; in-round assignments wait
        progressed = False
        for l in local_cut:
            if root[l - 1] != -1:
                continue
            g = mesh.global_of(l)
            cands, cand_roots, cand_owners = [], [], []
            for nb in cls.active_face_neighbors(g):
                l2 = mesh.local_id(int(nb))
                if touched[l2 - 1] and face_active(g, int(nb)):
                    cands.append(int(nb))
                    cand_roots.append(int(root[l2 - 1]))
                    cand_owners.append(int(owner[l2 - 1]))
            if not cands:
                continue
            # root barycenters derive from global ids alone (lattice geometry)
            pick = pick_candidate(
                cands, cand_roots, barycenters[g - 1],
                [barycenters[r - 1] for r in cand_roots])
            root[l - 1] = cand_roots[pick]
            owner[l - 1] = cand_owners[pick]
            nxt[l - 1] = cands[pick]
            progressed = True
        rounds += 1

        all_done = yield proc.reduce_logical_and(bool(np.all(root != -1)))
        if all_done:
            break
        stalled = yield proc.reduce_logical_and(not progressed)
        if stalled:
            orphans = [mesh.global_of(l) for l in local_cut if root[l - 1] == -1]
            raise AggregationStalledError(orphans)
    return root, owner, nxt, rounds


def aggregate_parallel(runtime, meshes, face_active, barycenters=None,
                       phase: str = "aggregate") -> DistRootMap:
    """Run the parallel aggregation sweep on the virtual runtime.

    The restriction of the result to each subdomain's local cells equals
    the serial root map for the same mesh.
    """
    if barycenters is None:
        barycenters = meshes[0].classification.barycenters()
    neighbor_sets = [set(int(x) for x in m.neighbors) for m in meshes]
    results = runtime.run(
        _aggregate_body,
        args=[(m, face_active, barycenters) for m in meshes],
        phase=phase, neighbor_sets=neighbor_sets)
    return DistRootMap(
        roots=[r[0] for r in results],
        root_owners=[r[1] for r in results],
        nexts=[r[2] for r in results],
        rounds=max(r[3] for r in results))


def compare_with_serial(meshes, dist_map: DistRootMap, serial: RootMap):
    """First (subdomain, global id, serial root, parallel root) mismatch."""
    for mesh, roots in zip(meshes, dist_map.roots):
        for l in range(1, mesh.n_local + 1):
            g = mesh.global_of(l)
            if int(roots[l - 1]) != serial.root_of(g):
                return (mesh.s, g, serial.root_of(g), int(roots[l - 1]))
    return None


# ---------------------------------------------------------------------------
# path reconstruction


@dataclass
class DirectPlan:
    """Receive side: which roots to import from which subdomains."""

    s: int
    recv_sources: list                 # sorted subdomain ids
    recv_roots: dict                   # s' -> sorted array of root ids
    remote_roots: np.ndarray = field(default=None)  # all imported roots, ascending
    z_of: dict = field(default=None)   # root id -> 1-based buffer slot

    def __post_init__(self):
        all_roots = sorted({int(k) for roots in self.recv_roots.values()
                            for k in roots})
        self.remote_roots = np.asarray(all_roots, dtype=np.int64)
        self.z_of = {k: z + 1 for z, k in enumerate(all_roots)}


@dataclass
class InversePlan:
    """Send side: which of my root cells each requesting subdomain needs."""

    s: int
    send_targets: list
    send_roots: dict


def build_direct_plan(mesh: SubdomainMesh, dist_map: DistRootMap) -> DirectPlan:
    """Communication-free scan over local and ghost cut cells."""
    s = mesh.s
    recv: dict = {}
    roots = dist_map.roots[s - 1]
    owners = dist_map.root_owners[s - 1]
    for l in mesh.relevant_cut():
        sp = int(owners[l - 1])
        if sp != s:
            recv.setdefault(sp, set()).add(int(roots[l - 1]))
    recv_roots = {sp: np.asarray(sorted(ks), dtype=np.int64)
                  for sp, ks in recv.items()}
    return DirectPlan(s=s, recv_sources=sorted(recv_roots), recv_roots=recv_roots)


def _inverse_body(proc, mesh: SubdomainMesh, roots, owners, nexts, n_cells):
    s = proc.rank
    # one tuple per cut cell whose root lives elsewhere; ghost cut cells
    # participate because their roots must be imported here as well
    tuples = []
    next_of_local = {}
    for l in mesh.relevant_cut():
        if int(owners[l - 1]) != s:
            g = mesh.global_of(l)
            tuples.append((g, g, s, 0))
    for l in range(1, mesh.n_local + 1):
        next_of_local[mesh.global_of(l)] = int(nexts[l - 1])

    send: dict = {}
    labels = mesh.labels
    while True:
        forwards: dict = {}
        for (k, n, z, hops) in tuples:
            while n in next_of_local and labels[mesh.local_id(n) - 1] == CUT:
                n = next_of_local[n]
                hops += 1
                if hops > n_cells:
                    raise PathReconstructionError(
                        f"tuple from cell {k} (origin {z}) exceeded "
                        f"{n_cells} hops; the next-cell map must contain a cycle")
            l_n = mesh.local_id(n)
            if mesh.is_local(l_n):
                send.setdefault(z, set()).add(n)  # rests at an interior local cell
            else:
                owner_of_n = int(mesh.owner_of_relevant[l_n - 1])
                forwards.setdefault(owner_of_n, []).append((k, n, z, hops + 1))
        received = yield proc.neighbor_exchange(forwards)
        tuples = [t for src in sorted(received) for t in received[src]]
        all_empty = yield proc.reduce_logical_and(not tuples)
        if all_empty:
            break
    send_roots = {z: np.asarray(sorted(ks), dtype=np.int64)
                  for z, ks in send.items()}
    return InversePlan(s=s, send_targets=sorted(send_roots), send_roots=send_roots)


def build_inverse_plan(runtime, meshes, dist_map: DistRootMap,
                       phase: str = "inverse-plan"):
    """Forward path tuples to the root owners; nearest-neighbor traffic only."""
    n_cells = meshes[0].classification.n_active
    neighbor_sets = [set(int(x) for x in m.neighbors) for m in meshes]
    return runtime.run(
        _inverse_body,
        args=[(m, dist_map.roots[m.s - 1], dist_map.root_owners[m.s - 1],
               dist_map.nexts[m.s - 1], n_cells) for m in meshes],
        phase=phase, neighbor_sets=neighbor_sets)


def check_plan_duality(direct_plans, inverse_plans):
    """Send and receive plans must name the same (src, dst, cell) triples."""
    recv_triples = {(p.s, sp, int(k))
                    for p in direct_plans
                    for sp in p.recv_sources
                    for k in p.recv_roots[sp]}
    send_triples = {(z, p.s, int(k))
                    for p in inverse_plans
                    for z in p.send_targets
                    for k in p.send_roots[z]}
    return recv_triples, send_triples


# ---------------------------------------------------------------------------
# root-data import


@dataclass
class RootDataBuffer:
    """Imported nodal coordinates and global DOF ids, one slot per root."""

    s: int
    z_of: dict
    coords: list   # per slot: (n_nodes, d) array
    dofs: list     # per slot: (n_nodes,) global DOF ids

    def slot(self, root_id: int) -> int:
        return self.z_of[int(root_id)]

    @property
    def n_cells(self) -> int:
        return len(self.coords)


def _import_body(proc, direct: DirectPlan, inverse: InversePlan, cell_data):
    s = proc.rank
    payloads = {}
    for sp in inverse.send_targets:
        buf = []
        for k in inverse.send_roots[sp]:
            x, g = cell_data(s, int(k))
            buf.append((np.asarray(x, dtype=np.float64),
                        np.asarray(g, dtype=np.int64)))
        payloads[sp] = buf
    received = yield proc.routed_exchange(payloads)

    n_slots = len(direct.remote_roots)
    coords: list = [None] * n_slots
    dofs: list = [None] * n_slots
    for sp in direct.recv_sources:
        if sp not in received:
            raise ImportProtocolError(
                f"subdomain {s} expected a root-data buffer from {sp}")
        cells = received[sp]
        expected = direct.recv_roots[sp]
        if len(cells) != len(expected):
            raise ImportProtocolError(
                f"buffer from {sp} to {s} holds {len(cells)} cells, "
                f"plan expects {len(expected)}")
        for k, (x, g) in zip(expected, cells):
            if x.shape[0] != g.shape[0]:
                raise ImportProtocolError(
                    f"malformed buffer entry for cell {int(k)} from {sp} to {s}")
            z = direct.z_of[int(k)]
            coords[z - 1] = x
            dofs[z - 1] = g
    return RootDataBuffer(s=s, z_of=dict(direct.z_of), coords=coords, dofs=dofs)


def import_root_data(runtime, meshes, direct_plans, inverse_plans, cell_data,
                     phase: str = "import"):
    """Deliver root-cell nodal data to every requesting subdomain.

    ``cell_data(s, k)`` must return the owner-side nodal coordinates and
    cell-wise global DOF ids of local cell ``k``; payloads are forwarded
    untouched so coordinates round-trip bit-exactly.  Destinations need
    not be nearest neighbors, so this step uses routed exchange.
    """
    return runtime.run(
        _import_body,
        args=[(d, i, cell_data) for d, i in zip(direct_plans, inverse_plans)],
        phase=phase)
