"""Aggregation path plans and root-data import.

The aggregation sweep itself (``aggregation.aggregate_parallel``) leaves
every subdomain with the roots, root owners and next cells of its
locally relevant cells.  Path plans are reconstructed from these in
both directions: the receive side is a communication-free scan, the
send side forwards path rows (first cell, current cell, origin, hops)
along the aggregation paths using only nearest-neighbor traffic.  Only
the final data import, which carries each root's global DOF ids alone,
may route messages between non-neighbor subdomains.

Every plan and buffer is a set of aligned arrays: a plan lists its
(peer, root) pairs sorted by peer and then root, and each phase runs as
array steps over them, one message per peer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import DistRootMap
from .partition import SubdomainMesh, _lookup, _sorted_distinct


class PathReconstructionError(RuntimeError):
    """A path row was forwarded more often than the global cell count."""


class ImportProtocolError(RuntimeError):
    """A root-data buffer did not match its import plan."""


# ---------------------------------------------------------------------------
# path reconstruction


@dataclass
class PathPlan:
    """Pairs (``peers[i]``, ``roots[i]``) of subdomain and root cell id,
    unique and sorted by peer and then root.  A direct (receive) plan
    imports each root from its peer; an inverse (send) plan sends each of
    its roots to the peer."""

    s: int
    peers: np.ndarray   # (n,) subdomain ids
    roots: np.ndarray   # (n,) global root ids

    @classmethod
    def from_pairs(cls, s: int, peers, roots, n_cells: int):
        key = _sorted_distinct(np.asarray(peers, dtype=np.int64)
                               * (n_cells + 1) + roots)
        return cls(s, *np.divmod(key, n_cells + 1))


def build_direct_plan(mesh: SubdomainMesh, dist_map: DistRootMap) -> PathPlan:
    """Communication-free scan over local and ghost cut cells."""
    s = mesh.s
    cut = mesh.relevant_cut() - 1
    owners = dist_map.root_owners[s - 1][cut]
    roots = dist_map.roots[s - 1][cut]
    away = owners != s
    return PathPlan.from_pairs(s, owners[away], roots[away], mesh.n_cells)


def _inverse_body(proc, mesh: SubdomainMesh, owners, nexts):
    s = proc.rank
    # by local id: the local id of the next cell of an owned cut cell (0
    # if that is not relevant here), else -1, where a path row stops
    walk = np.full(mesh.n_relevant + 1, -1)
    owned_cut = mesh.locals_cut()
    walk[owned_cut] = mesh.local_ids(nexts[owned_cut - 1])
    # one path row (first, current, origin, hops) per cut cell whose root
    # lives elsewhere; ghost cut cells take part because their roots must
    # be imported here as well
    cut = mesh.relevant_cut() - 1
    away = mesh.global_ids[cut[owners[cut] != s]]
    rows = np.stack([away, away, np.full(away.size, s), np.zeros_like(away)])
    rests = []
    while True:
        # follow every row through owned cut cells, all rows at once
        l = mesh.local_ids(rows[1])
        step = walk[l] >= 0
        while step.any():
            rows[1, step] = nexts[l[step] - 1]
            rows[3, step] += 1
            over = np.flatnonzero(step & (rows[3] > mesh.n_cells))
            if over.size:
                k, z = rows[0, over[0]], rows[2, over[0]]
                raise PathReconstructionError(
                    f"path row from cell {k} (origin {z}) exceeded "
                    f"{mesh.n_cells} hops; the next-cell map must contain "
                    f"a cycle")
            l[step] = walk[l[step]]
            step = walk[l] >= 0
        if np.any(l == 0):
            raise PathReconstructionError(
                f"path row from cell {rows[0, np.argmax(l == 0)]} left the "
                f"cells relevant to subdomain {s}")
        # a row resting at an owned cell (an interior one) names a root
        # to send; the others move on to the owner of their current cell
        here = l <= mesh.n_local
        rests.append(rows[:, here])
        if (yield proc.reduce_logical_and(here.all())):
            break
        ahead = rows[:, ~here]
        ahead[3] += 1
        to = mesh.owner_of_relevant[l[~here] - 1]
        received = yield proc.neighbor_exchange(
            {int(p): ahead[:, to == p] for p in _sorted_distinct(to)})
        rows = np.concatenate(
            [rows[:, :0]] + [received[src] for src in sorted(received)], axis=1)
    rests = np.concatenate(rests, axis=1)
    return PathPlan.from_pairs(s, rests[2], rests[1], mesh.n_cells)


def build_inverse_plan(runtime, meshes, dist_map: DistRootMap):
    """Forward path rows to the root owners; nearest-neighbor traffic only."""
    neighbor_sets = [set(int(x) for x in m.neighbors) for m in meshes]
    return runtime.run(
        _inverse_body,
        args=[(m, dist_map.root_owners[m.s - 1], dist_map.nexts[m.s - 1])
              for m in meshes],
        phase="inverse-plan", neighbor_sets=neighbor_sets)


# ---------------------------------------------------------------------------
# root-data import


@dataclass
class RootDataBuffer:
    """Imported global DOF ids, one row per root, roots ascending."""

    s: int
    roots: np.ndarray    # (n,) global root ids
    dofs: np.ndarray     # (n, m) global DOF ids

    def rows_of(self, root_ids) -> np.ndarray:
        """Row of each root id; -1 where it was not imported."""
        return _lookup(self.roots, np.arange(self.roots.size),
                       np.asarray(root_ids))


def _import_body(proc, direct: PathPlan, inverse: PathPlan, piece):
    s = proc.rank
    l = piece.mesh.local_ids(inverse.roots)
    foreign = np.flatnonzero((l == 0) | (l > piece.mesh.n_local))
    if foreign.size:
        raise ImportProtocolError(
            f"subdomain {s} does not own root cell "
            f"{int(inverse.roots[foreign[0]])}, which its send plan names")
    dofs = piece.cell_g[l - 1]
    to = inverse.peers
    received = yield proc.routed_exchange(
        {int(p): dofs[to == p] for p in _sorted_distinct(to)})

    parts = [dofs[:0]]  # the shape for when nothing arrives
    peers, counts = np.unique(direct.peers, return_counts=True)
    for sp, n in zip(peers.tolist(), counts.tolist()):
        if sp not in received:
            raise ImportProtocolError(
                f"subdomain {s} expected a root-data buffer from {sp}")
        g = received[sp]
        if np.shape(g) != (n, dofs.shape[1]):
            raise ImportProtocolError(
                f"buffer from {sp} to {s} holds ids {np.shape(g)}, plan "
                f"expects ({n}, {dofs.shape[1]})")
        parts.append(g)
    by_root = np.argsort(direct.roots)
    return RootDataBuffer(s=s, roots=direct.roots[by_root],
                          dofs=np.concatenate(parts)[by_root])


def import_root_data(runtime, numbering, direct_plans, inverse_plans):
    """Deliver root-cell nodal data to every requesting subdomain.

    Each subdomain serves the roots its send plan names from its own
    piece of ``numbering``: their global DOF ids (n, m), rows of
    ``DistSpacePiece.cell_g``.  With the root keys of the root map, that
    is all the constraints read of a root.  Destinations need not be
    nearest neighbors, so this step uses routed exchange.
    """
    return runtime.run(
        _import_body,
        args=list(zip(direct_plans, inverse_plans, numbering.pieces)),
        phase="import")
