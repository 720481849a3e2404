"""Aggregation path plans and root-data import.

The aggregation sweep itself (``aggregation.aggregate_parallel``) leaves
every subdomain with the roots, root owners and next cells of its
locally relevant cells.  Path plans are reconstructed from these in
both directions: the receive side is a communication-free scan, the
send side forwards (first-cell, next-cell, origin) tuples along the
aggregation paths using only nearest-neighbor traffic.  Only the final
data import may route messages between non-neighbor subdomains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregation import DistRootMap
from .geometry import CUT
from .partition import SubdomainMesh, group_sorted


class PathReconstructionError(RuntimeError):
    """A path tuple was forwarded more often than the global cell count."""


class ImportProtocolError(RuntimeError):
    """A root-data buffer did not match its import plan."""


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
    cut = mesh.relevant_cut() - 1
    owners = dist_map.root_owners[s - 1][cut]
    roots = dist_map.roots[s - 1][cut]
    away = owners != s
    # unique (owner, root) pairs, ascending by owner and then root
    pairs = np.unique(np.stack([owners[away], roots[away]], axis=1)
                      .astype(np.int64), axis=0)
    recv_roots = group_sorted(pairs[:, 0], pairs[:, 1])
    return DirectPlan(s=s, recv_sources=sorted(recv_roots), recv_roots=recv_roots)


def _inverse_body(proc, mesh: SubdomainMesh, roots, owners, nexts, n_cells):
    s = proc.rank
    # one tuple per cut cell whose root lives elsewhere; ghost cut cells
    # participate because their roots must be imported here as well
    cut = mesh.relevant_cut() - 1
    away = mesh.global_ids[cut[owners[cut] != s]].tolist()
    tuples = [(g, g, s, 0) for g in away]
    next_of_local = dict(zip(mesh.global_ids[:mesh.n_local].tolist(),
                             nexts[:mesh.n_local].tolist()))

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
