"""Space-filling-curve mesh partitioning and per-subdomain views.

Subdomains own contiguous ranges of Morton-ordered cells; range
boundaries balance per-subdomain weight sums.  Each subdomain view keeps
its owned cells plus a ghost layer of every foreign active cell that
shares a vertex, edge, or face with an owned cell, which guarantees all
cells incident to any locally owned node are locally relevant.  All
views are built in array steps from one vertex-adjacency table: ghost
layers, matched halo lists, labels, and each view's own face table in
local ids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import CellClassification, INTERIOR, CUT
from .grid import morton_encode


class PartitionError(ValueError):
    """Invalid partition request."""


def _greedy_bounds(prefix: np.ndarray, n_parts: int, lo: float) -> np.ndarray:
    """Close each range at the first cell where its sum reaches `lo`."""
    n = prefix.size
    bounds = np.zeros(n_parts + 1, dtype=np.int64)
    bounds[n_parts] = n
    start = 0.0
    for s in range(1, n_parts):
        b = int(np.searchsorted(prefix, start + lo, side="left")) + 1
        b = max(b, int(bounds[s - 1]) + 1)
        b = min(b, n - (n_parts - s))
        bounds[s] = b
        start = float(prefix[b - 1])
    return bounds


def _balanced_boundaries(prefix: np.ndarray, n_parts: int) -> np.ndarray:
    """Bisect the greedy threshold so the leftover range is no lighter.

    With threshold lo a closed range weighs in [lo, lo + w_max) unless cut
    short to leave a cell per later range; the leftover weighs at least lo.
    No spread bound follows: weights [2, 3, 1, 3] on three ranges give
    sums [5, 1, 3].  ``_repair_boundaries`` is what bounds the spread.
    """
    total = float(prefix[-1])
    lo_ok, lo_bad = 0.0, total
    for _ in range(100):
        mid = 0.5 * (lo_ok + lo_bad)
        bounds = _greedy_bounds(prefix, n_parts, mid)
        leftover = total - float(prefix[bounds[n_parts - 1] - 1])
        if leftover >= mid:
            lo_ok = mid
        else:
            lo_bad = mid
    return _greedy_bounds(prefix, n_parts, lo_ok)


def _adaptive_boundaries(prefix: np.ndarray, n_parts: int) -> np.ndarray:
    """Close each range at the prefix nearest the remaining average."""
    n = prefix.size
    total = float(prefix[-1])
    bounds = np.zeros(n_parts + 1, dtype=np.int64)
    bounds[n_parts] = n
    start = 0.0
    for s in range(1, n_parts):
        target = start + (total - start) / (n_parts - s + 1)
        c = int(np.searchsorted(prefix, target, side="left"))
        if c >= n:
            b = n
        elif c == 0 or prefix[c] - target <= target - prefix[c - 1]:
            b = c + 1
        else:
            b = c
        b = max(b, int(bounds[s - 1]) + 1)
        b = min(b, n - (n_parts - s))
        bounds[s] = b
        start = float(prefix[b - 1])
    return bounds


def _repair_boundaries(weights: np.ndarray, prefix: np.ndarray,
                       bounds: np.ndarray) -> np.ndarray:
    """Shrink the max-min spread of range sums by boundary moves.

    Candidate moves shift one cell across a single boundary, or cascade
    one cell across every boundary between the heaviest and lightest
    range; the best strictly improving move is applied until the spread
    is within one max weight or no move helps.  Range sums are
    differences of the zero-led ``prefix`` sums of ``weights``.
    """
    n_parts = bounds.size - 1
    if n_parts == 1:
        return bounds
    sums = np.diff(prefix[bounds])
    w_max = float(weights.max())
    mean = sums.sum() / n_parts

    def objective(ns):
        # spread first; ties broken by total imbalance so moves that pull
        # one of several extremal ranges off the extreme still count
        return (ns.max() - ns.min(), float(np.sum((ns - mean) ** 2)))

    current = objective(sums)
    for _ in range(4 * weights.size):
        if current[0] <= w_max:
            break
        # shifting boundary t by -1 moves one cell (and its weight) from
        # range t-1 into range t; by +1 the other way
        candidates = [([t], d) for t in range(1, n_parts) for d in (-1, 1)]
        heavy = np.argsort(sums)[-3:]
        light = np.argsort(sums)[:3]
        for i in heavy:
            for j in light:
                if i < j:
                    candidates.append((list(range(i + 1, j + 1)), -1))
                elif j < i:
                    candidates.append((list(range(j + 1, i + 1)), +1))
        best = None
        for move, delta in candidates:
            trial = bounds.copy()
            trial[move] += delta
            if np.any(np.diff(trial) < 1):
                continue
            ns = np.diff(prefix[trial])
            cand = objective(ns)
            if cand < current and (best is None or cand < best[0]):
                best = (cand, trial, ns)
        if best is None:
            break
        current, bounds, sums = best
    return bounds


def _split(weights: np.ndarray, n_parts: int) -> np.ndarray:
    """Owner (1-based) per position for Morton-ordered weighted cells."""
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    seeds = [_adaptive_boundaries(prefix[1:], n_parts)]
    # equal weights get adaptive sizes within one, which no split beats
    if np.any(weights != weights[0]):
        seeds.append(_balanced_boundaries(prefix[1:], n_parts))
    best = None
    for seed_bounds in seeds:
        bounds = _repair_boundaries(weights, prefix, seed_bounds)
        sums = np.diff(prefix[bounds])
        score = (float(sums.max() - sums.min()), float(np.sum(sums**2)))
        if best is None or score < best[0]:
            best = (score, bounds)
    bounds = best[1]
    owner = np.empty(weights.size, dtype=np.int64)
    for s in range(n_parts):
        owner[bounds[s]:bounds[s + 1]] = s + 1
    return owner


@dataclass
class Partition:
    """Owner subdomain per active cell, 1-based; contiguous Morton ranges."""

    n_subdomains: int
    owner_of_active: np.ndarray
    weights: np.ndarray
    owner_of_background: np.ndarray | None = None  # flat, Morton-code indexed

    def subdomain_weights(self) -> np.ndarray:
        out = np.zeros(self.n_subdomains)
        np.add.at(out, self.owner_of_active - 1, self.weights)
        return out


def partition_weighted_sfc(classification: CellClassification, weights=None,
                           n_subdomains: int = 1, include_exterior: bool = False,
                           exterior_weight: float = 1.0) -> Partition:
    """Split Morton-ordered cells into weight-balanced contiguous ranges.

    By default only active cells are partitioned.  With
    ``include_exterior`` the whole background grid is split (exterior
    cells carrying ``exterior_weight``) and active owners are read off
    the background ranges, which is what the partition weighting study
    exercises.
    """
    n_active = classification.n_active
    if n_subdomains < 1:
        raise PartitionError("subdomain count must be >= 1")
    if n_subdomains > n_active:
        raise PartitionError(
            f"{n_subdomains} subdomains requested for {n_active} active cells")
    if weights is None:
        weights = np.ones(n_active)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n_active,):
            raise PartitionError("need one weight per active cell")
    if np.any(weights <= 0) or exterior_weight <= 0:
        raise PartitionError("weights must be positive")

    grid = classification.grid
    codes = morton_encode(classification.id_to_lattice, grid.level)
    if include_exterior:
        full = np.full(grid.n_cells, exterior_weight, dtype=np.float64)
        full[codes] = weights
        owner_bg = _split(full, n_subdomains)
        owner_active = owner_bg[codes]
        return Partition(n_subdomains, owner_active, weights, owner_bg)
    # active ids are assigned in Morton order, so id order is curve order
    owner_active = _split(weights, n_subdomains)
    return Partition(n_subdomains, owner_active, weights)


def _lookup(table: np.ndarray, values: np.ndarray, query: np.ndarray,
            absent: int = -1) -> np.ndarray:
    """``values`` at ``query`` in a table sorted ascending; ``absent``
    where a query is not in the table."""
    if table.size == 0:
        return np.full(query.shape, absent, dtype=np.int64)
    pos = np.minimum(np.searchsorted(table, query), table.size - 1)
    return np.where(table[pos] == query, values[pos], absent)


@dataclass
class SubdomainMesh:
    """Locally relevant cells of one subdomain: owned first, then ghosts.

    Local ids are 1-based; ``global_ids[l-1]`` maps back to the active
    mesh, and ``local_ids`` maps a batch of global ids forward by
    ``searchsorted`` in the view's ids, sorted once, with 0 where a cell
    is not locally relevant.  Halo lists pair up across subdomains by
    ascending global id, so positional payloads line up without further
    negotiation.  The face table is the global one restricted to the
    view, in local ids: 0 where the neighbor does not exist or is not
    locally relevant.
    """

    s: int
    classification: CellClassification
    global_ids: np.ndarray            # (n_relevant,)
    n_local: int
    owner_of_relevant: np.ndarray     # (n_relevant,)
    neighbors: np.ndarray             # sorted subdomain ids
    send_halo: dict                   # s' -> local ids of owned cells ghosted by s'
    recv_halo: dict                   # s' -> local ids of ghosts owned by s'
    labels: np.ndarray                # (n_relevant,) INTERIOR or CUT
    face_ids: np.ndarray              # (n_relevant, 2d) local ids
    face_open: np.ndarray             # (n_relevant, 2d) bool
    sorted_gids: np.ndarray = field(init=False)   # global_ids ascending
    sorted_locals: np.ndarray = field(init=False)  # their local ids

    def __post_init__(self):
        order = np.argsort(self.global_ids)
        self.sorted_gids, self.sorted_locals = self.global_ids[order], order + 1

    @property
    def n_relevant(self) -> int:
        return self.global_ids.size

    @property
    def n_ghost(self) -> int:
        return self.n_relevant - self.n_local

    def local_ids(self, global_ids) -> np.ndarray:
        """Local ids of ``global_ids``; 0 where not locally relevant."""
        return _lookup(self.sorted_gids, self.sorted_locals,
                       np.asarray(global_ids), absent=0)

    def locals_cut(self) -> np.ndarray:
        return np.flatnonzero(self.labels[:self.n_local] == CUT) + 1

    def relevant_cut(self) -> np.ndarray:
        return np.flatnonzero(self.labels == CUT) + 1

    def relevant_interior(self) -> np.ndarray:
        return np.flatnonzero(self.labels == INTERIOR) + 1


def group_sorted(keys: np.ndarray, values: np.ndarray) -> dict:
    """{key: the values under it} for ``keys`` sorted ascending."""
    uniq, starts = np.unique(keys, return_index=True)
    return dict(zip(uniq.tolist(), np.split(values, starts[1:])))


def build_subdomain_meshes(classification: CellClassification,
                           partition: Partition) -> list:
    """Build every subdomain's local/ghost view plus matched halo lists.

    The ghosts of subdomain s are the foreign active cells that share a
    vertex with a cell of s, read off one vertex-adjacency table."""
    cls = classification
    n = cls.n_active
    owner = partition.owner_of_active
    n_parts = partition.n_subdomains
    steps = [o for o in itertools.product((-1, 0, 1), repeat=cls.grid.d)
             if any(o)]
    adj = cls.neighbor_ids(steps)
    # ghost pairs (s, g), sorted by s, then by g
    host = np.broadcast_to(owner[:, None], adj.shape)
    foreign = (adj > 0) & (owner[adj - 1] != host)
    pairs = np.unique(host[foreign] * (n + 1) + adj[foreign])
    ghost_s, ghost_g = np.divmod(pairs, n + 1)
    ghost_owner = owner[ghost_g - 1]
    ghost_bounds = np.searchsorted(ghost_s, np.arange(1, n_parts + 2))
    # owned cells by subdomain, ascending; rank of each within its owner
    by_owner = np.argsort(owner, kind="stable")
    own_bounds = np.searchsorted(owner[by_owner], np.arange(1, n_parts + 2))
    rank = np.empty(n, dtype=np.int64)
    rank[by_owner] = np.arange(n) - np.repeat(own_bounds[:-1], np.diff(own_bounds))
    # send side mirrors the receiver's ghost list: by sender, receiver, id
    sends = np.lexsort((ghost_g, ghost_s, ghost_owner))
    send_bounds = np.searchsorted(ghost_owner[sends], np.arange(1, n_parts + 2))
    label = np.where(cls.is_cut, CUT, INTERIOR).astype(np.int8)
    to_local = np.zeros(n + 1, dtype=np.int64)

    meshes = []
    for s in range(1, n_parts + 1):
        own = by_owner[own_bounds[s - 1]:own_bounds[s]] + 1
        gs, ge = ghost_bounds[s - 1], ghost_bounds[s]
        global_ids = np.concatenate([own, ghost_g[gs:ge]])
        by_src = np.argsort(ghost_owner[gs:ge], kind="stable")
        recv_halo = group_sorted(ghost_owner[gs:ge][by_src], own.size + 1 + by_src)
        out = sends[send_bounds[s - 1]:send_bounds[s]]
        send_halo = group_sorted(ghost_s[out], rank[ghost_g[out] - 1] + 1)
        to_local[global_ids] = np.arange(1, global_ids.size + 1)
        face_ids = to_local[cls.face_ids[global_ids - 1]]
        to_local[global_ids] = 0
        meshes.append(SubdomainMesh(
            s=s, classification=cls, global_ids=global_ids,
            n_local=own.size, owner_of_relevant=owner[global_ids - 1],
            neighbors=np.asarray(list(recv_halo), dtype=np.int64),
            send_halo=send_halo, recv_halo=recv_halo,
            labels=label[global_ids - 1], face_ids=face_ids,
            face_open=cls.face_open[global_ids - 1] & (face_ids > 0)))
    return meshes
