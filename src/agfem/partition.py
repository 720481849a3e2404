"""Space-filling-curve mesh partitioning and per-subdomain views.

Subdomains own contiguous ranges of Morton-ordered cells.  The split
minimises the heaviest range sum exactly and keeps every range within
one max weight of it; among such splits each boundary sits at the
prefix nearest the remaining average, the later one on a tie, which
with equal weights gives sizes within one.  Each subdomain view keeps
its owned cells plus a ghost layer of every foreign active cell that
shares a vertex, edge, or face with an owned cell, which guarantees all
cells incident to any locally owned node are locally relevant.  All
views are built in array steps from one vertex-adjacency table: ghost
layers, matched halo lists, labels, lattice rows, and each view's own
face table in local ids.  A view holds no reference to the global
classification: a subdomain reads only the rows of its own cells.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import CellClassification, INTERIOR, CUT
from .grid import BackgroundGrid, morton_encode


class PartitionError(ValueError):
    """Invalid partition request."""


def _split(weights: np.ndarray, n_parts: int) -> np.ndarray:
    """Owner (1-based) per position for Morton-ordered weighted cells.

    The heaviest range is minimised exactly.  Its least value B is
    bisected in ``[max(w_max, W/P), W/P + w_max]`` over greedy probes
    (Nicol 1994; Pinar & Aykanat 2004): a feasible probe lowers the
    bracket to its heaviest range, an infeasible one raises it to its
    lightest range plus the next cell.  Some split at B keeps every
    range in ``[B - w_max, B]``, or closing each range as soon as it
    reaches B - w_max would leave every range lighter than B.  Each
    boundary goes at the prefix nearest the remaining average, the later
    one on a tie, clamped to keep its range and every later one in that
    window.
    """
    n = weights.size
    w_max = float(weights.max())
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    total = float(prefix[-1])
    ends = np.zeros(n_parts + 1, dtype=np.int64)
    lo, hi = max(w_max, total / n_parts), total / n_parts + w_max
    while lo < hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:   # rounded prefixes: the bracket is exhausted
            break
        for s in range(1, n_parts + 1):   # each range as long as it fits
            ends[s] = np.searchsorted(prefix, prefix[ends[s - 1]] + mid,
                                      side="right") - 1
        if ends[-1] == n:
            hi = min(mid, float(np.max(np.diff(prefix[ends]))))
        else:
            lo = max(mid, float(np.min(prefix[ends[1:] + 1]
                                       - prefix[ends[:-1]])))
    # a few ulps of the total absorb the rounding of prefix-space tests
    cap = hi + 4 * np.spacing(total)
    floor = hi - w_max - 4 * np.spacing(total)
    # boundary s in [first[s], last[s]] lets every later range weigh in
    # [floor, cap]; a window of width w_max makes each set an interval
    first = np.full(n_parts + 1, n, dtype=np.int64)
    last = first.copy()
    for s in range(n_parts, 1, -1):
        first[s - 1] = np.searchsorted(prefix, prefix[first[s]] - cap)
        last[s - 1] = min(last[s] - 1, np.searchsorted(
            prefix, prefix[last[s]] - floor, side="right") - 1)
    bounds = np.zeros(n_parts + 1, dtype=np.int64)
    bounds[n_parts] = n
    for s in range(1, n_parts):
        start = float(prefix[bounds[s - 1]])
        target = start + (total - start) / (n_parts - s + 1)
        c = min(int(np.searchsorted(prefix, target)), n)
        b = c if prefix[c] - target <= target - prefix[c - 1] else c - 1
        b = max(b, first[s], bounds[s - 1] + 1,
                np.searchsorted(prefix, start + floor))
        bounds[s] = min(b, last[s], np.searchsorted(
            prefix, start + cap, side="right") - 1)
    return np.repeat(np.arange(1, n_parts + 1), np.diff(bounds))


@dataclass
class Partition:
    """Owner subdomain per active cell, 1-based; contiguous Morton ranges."""

    n_subdomains: int
    owner_of_active: np.ndarray
    owner_of_background: np.ndarray | None = None  # flat, Morton-code indexed


def partition_weighted_sfc(classification: CellClassification, weights=None,
                           n_subdomains: int = 1,
                           include_exterior: bool = False) -> Partition:
    """Split Morton-ordered cells into weight-balanced contiguous ranges.

    The heaviest range sum is the least any split into ``n_subdomains``
    nonempty ranges reaches, every range is within one max weight of it,
    and ties go to the boundary nearest the remaining average, the later
    prefix when two are equally near.  By default only active cells are
    partitioned.  With ``include_exterior`` the whole background grid is
    split, exterior cells weighing 1, and active owners are read off the
    background ranges, which is what the partition weighting study
    exercises.  Every weight must be finite and positive.
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
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise PartitionError("weights must be finite and positive")

    grid = classification.grid
    codes = morton_encode(classification.id_to_lattice, grid.level)
    if include_exterior:
        full = np.ones(grid.n_cells)
        full[codes] = weights
        owner_bg = _split(full, n_subdomains)
        owner_active = owner_bg[codes]
        return Partition(n_subdomains, owner_active, owner_bg)
    # active ids are assigned in Morton order, so id order is curve order
    owner_active = _split(weights, n_subdomains)
    return Partition(n_subdomains, owner_active)


def _lookup(table: np.ndarray, values: np.ndarray, query: np.ndarray,
            absent: int = -1) -> np.ndarray:
    """``values`` at ``query`` in a table sorted ascending; ``absent``
    where a query is not in the table."""
    if table.size == 0:
        return np.full(query.shape, absent, dtype=np.int64)
    pos = np.minimum(np.searchsorted(table, query), table.size - 1)
    return np.where(table[pos] == query, values[pos], absent)


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct ``keys``, ascending, by one sort and a mask."""
    keys = np.sort(keys)
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


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
    locally relevant.  ``lattice`` is each cell's integer lattice key,
    the one representation of where a cell sits.
    """

    s: int
    grid: BackgroundGrid
    n_cells: int                      # active cells of the whole mesh
    global_ids: np.ndarray            # (n_relevant,)
    lattice: np.ndarray               # (n_relevant, d) lattice keys
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
    pairs = _sorted_distinct(host[foreign] * (n + 1) + adj[foreign])
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
            s=s, grid=cls.grid, n_cells=n, global_ids=global_ids,
            lattice=cls.id_to_lattice[global_ids - 1],
            n_local=own.size, owner_of_relevant=owner[global_ids - 1],
            neighbors=np.asarray(list(recv_halo), dtype=np.int64),
            send_halo=send_halo, recv_halo=recv_halo,
            labels=label[global_ids - 1], face_ids=face_ids,
            face_open=cls.face_open[global_ids - 1] & (face_ids > 0)))
    return meshes
