import numpy as np
import pytest

from agfem.aggregation import aggregate_parallel, aggregate_serial
from agfem.experiments import ExperimentConfig, make_levelset
from agfem.distagg import (RootDataBuffer, build_direct_plan,
                           build_inverse_plan, import_root_data)
from agfem.distspace import (MissingImportError, build_constraints_distributed,
                             number_dofs_distributed)
from agfem.fespace import (build_constraints_serial, build_std_space,
                           classify_dofs, encode_node_keys)
from agfem.geometry import INTERIOR, CellClassification, classify_cells
from agfem.grid import corner_offsets, unit_box_grid
from agfem.levelset import HalfPlane, Sphere
from agfem.partition import build_subdomain_meshes, partition_weighted_sfc
from agfem.runtime import RuntimeProtocolError, VirtualRuntime

from conftest import classified


def _setup(level, ls, n_parts):
    grid, cls, fa = classified(level, ls)
    serial_rm = aggregate_serial(cls)
    space = build_std_space(cls)
    dofs = classify_dofs(space, cls)
    part = partition_weighted_sfc(cls, n_subdomains=n_parts)
    meshes = build_subdomain_meshes(cls, part)
    rt = VirtualRuntime(n_parts)
    dist = aggregate_parallel(rt, meshes)
    numbering = number_dofs_distributed(rt, meshes)
    return grid, cls, fa, space, dofs, serial_rm, meshes, rt, dist, numbering


def _gid_of_key(piece, space):
    """{node key: global id} of the ids one piece knows."""
    codes = encode_node_keys(space.node_keys,
                             space.classification.grid.n_per_axis)
    key_of = dict(zip(codes.tolist(), map(tuple, space.node_keys.tolist())))
    return {key_of[c]: g
            for c, g in zip(piece.gid_codes.tolist(), piece.gids.tolist())}


def test_single_process_numbering_matches_serial_rows():
    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        3, Sphere((0.5, 0.5), 0.3), 1)
    piece = numbering.pieces[0]
    assert numbering.n_global == dofs.n_interior
    assert piece.owned_start == 1 and piece.n_owned == dofs.n_interior
    gids = _gid_of_key(piece, space)
    for node_id in dofs.interior_ids:
        key = tuple(int(v) for v in space.node_keys[node_id - 1])
        assert gids[key] == dofs.row_of[node_id - 1]


def test_owned_ranges_partition_the_interior_ids():
    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        4, Sphere((0.5, 0.5), 0.3), 4)
    ranges = numbering.owned_ranges()
    assert ranges[0] == 1 and ranges[-1] == numbering.n_global + 1
    assert np.all(np.diff(ranges) >= 0)
    assert numbering.n_global == dofs.n_interior
    seen = {}
    for piece in numbering.pieces:
        for key, gid in _gid_of_key(piece, space).items():
            if key in seen:
                assert seen[key] == gid  # replicated ids agree everywhere
            seen[key] = gid
    assert sorted({g for g in seen.values()}) == list(
        range(1, numbering.n_global + 1))


def test_interface_dofs_owned_by_smaller_subdomain():
    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        3, HalfPlane((1, 0), 5.0), 2)
    ranges = numbering.owned_ranges()
    p1, p2 = numbering.pieces
    # nodes of local cells of both subdomains: the true interface
    keys1 = {tuple(int(v) for v in k) for k in p1.node_keys}
    keys2 = {tuple(int(v) for v in k) for k in p2.node_keys}
    interface = keys1 & keys2
    assert interface
    gids1, gids2 = _gid_of_key(p1, space), _gid_of_key(p2, space)
    for key in interface:
        gid = gids1[key]
        assert gid == gids2[key]
        assert ranges[0] <= gid < ranges[1]  # subdomain 1 owns the interface


def test_distributed_ids_are_the_serial_rows():
    # subdomains of a partition_weighted_sfc partition own ascending cell
    # ranges, so every id a subdomain knows is the node's serial row
    for n_parts in (2, 4, 16):
        grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
            4, Sphere((0.531, 0.472), 0.3), n_parts)
        codes = encode_node_keys(space.node_keys[dofs.interior_ids - 1],
                                 grid.n_per_axis)
        order = np.argsort(codes)
        rows = dofs.row_of[dofs.interior_ids - 1][order]
        for piece in numbering.pieces:
            at = np.searchsorted(codes[order], piece.gid_codes)
            assert np.array_equal(codes[order][at], piece.gid_codes)
            assert np.array_equal(piece.gids, rows[at])


@pytest.mark.parametrize("n_parts", [1, 2, 4, 16])
def test_constraints_match_serial(n_parts):
    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        4, Sphere((0.531, 0.472), 0.3), n_parts)
    serial_cons = build_constraints_serial(space, dofs, rm)
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    buffers = import_root_data(rt, numbering, direct, inverse)
    gid_to_key = {}
    for piece in numbering.pieces:
        for key, gid in _gid_of_key(piece, space).items():
            gid_to_key[gid] = key
    row_to_key = {int(dofs.row_of[i - 1]): tuple(int(v) for v in
                                                 space.node_keys[i - 1])
                  for i in dofs.interior_ids}

    serial_view = {}
    for i, dof in enumerate(serial_cons.constrained):
        key = tuple(int(v) for v in space.node_keys[dof - 1])
        pairs = sorted((row_to_key[int(r)], float(c)) for r, c in
                       zip(serial_cons.masters[i], serial_cons.coeffs[i]))
        serial_view[key] = pairs

    n_checked = 0
    for piece, buf in zip(numbering.pieces, buffers):
        cons = build_constraints_distributed(piece, dist, buf)
        assert np.allclose(cons.coeffs.sum(axis=1), 1.0, atol=1e-13)
        for i, j in enumerate(cons.constrained):
            key = tuple(int(v) for v in piece.node_keys[j - 1])
            pairs = sorted((gid_to_key[int(g)], float(c)) for g, c in
                           zip(cons.masters[i], cons.coeffs[i]))
            assert [k for k, _ in pairs] == [k for k, _ in serial_view[key]]
            dev = max(abs(a - b) for (_, a), (_, b) in
                      zip(pairs, serial_view[key]))
            assert dev <= 1e-13
            n_checked += 1
    assert n_checked >= len(serial_view)


def _run_views(meshes):
    """Aggregation, both plans, numbering, import and constraints on the
    views ``meshes``."""
    rt = VirtualRuntime(len(meshes))
    dist = aggregate_parallel(rt, meshes)
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    numbering = number_dofs_distributed(rt, meshes)
    buffers = import_root_data(rt, numbering, direct, inverse)
    return dist, numbering, [build_constraints_distributed(p, dist, b)
                             for p, b in zip(numbering.pieces, buffers)]


@pytest.mark.parametrize("geometry,d,level,n_parts", [
    ("offset-circle", 2, 5, 4), ("popcorn", 3, 3, 8)])
def test_subdomains_read_only_their_views(geometry, d, level, n_parts):
    # once the views are built, no body from the sweep to the constraints
    # reads the global classification: with its lattice and face tables
    # reversed, the run gives the clean run's results bitwise
    runs = []
    for scramble in (False, True):
        meshes, cls = _views(geometry, d, level, n_parts)
        if scramble:
            cls.id_to_lattice[:] = cls.id_to_lattice[::-1].copy()
            cls.face_ids[:] = cls.face_ids[::-1].copy()
        runs.append(_run_views(meshes))
    (dist, numbering, cons), (dist2, numbering2, cons2) = runs
    for s in range(n_parts):
        assert np.array_equal(dist.roots[s], dist2.roots[s])
        assert np.array_equal(dist.root_keys[s], dist2.root_keys[s])
        assert np.array_equal(numbering.pieces[s].cell_g,
                              numbering2.pieces[s].cell_g)
        assert np.array_equal(cons[s].constrained, cons2[s].constrained)
        assert np.array_equal(cons[s].masters, cons2[s].masters)
        assert cons[s].coeffs.tobytes() == cons2[s].coeffs.tobytes()
    assert sum(c.constrained.size for c in cons) > 0
    for part in [*meshes, *numbering2.pieces, dist2]:
        for value in vars(part).values():
            items = value if isinstance(value, list) else [value]
            assert not any(isinstance(v, CellClassification) for v in items)


def test_owner_consistency_with_serial():
    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        4, Sphere((0.5, 0.5), 0.3), 4)
    node_of_key = {tuple(int(v) for v in k): i + 1
                   for i, k in enumerate(space.node_keys)}
    for piece in numbering.pieces:
        mesh = piece.mesh
        for j in piece.exterior_js():
            l_own = int(piece.own_local_cell[j - 1])
            key = tuple(int(v) for v in piece.node_keys[j - 1])
            node_id = node_of_key[key]
            assert mesh.global_ids[l_own - 1] == dofs.own_cell[node_id - 1]


def test_missing_import_reported():
    # the whisker cells aggregate across whole subdomains, so some roots
    # are not locally relevant and must come from the import buffer
    from agfem.levelset import CallableLevelSet

    def bulb(p):
        p = np.atleast_2d(p)
        strip = np.abs(p[:, 1] - 0.5) - 0.03
        strip = np.maximum(strip, 0.08 - p[:, 0])
        disk = np.linalg.norm(p - np.array([0.15, 0.5]), axis=-1) - 0.12
        return np.minimum(strip, disk)

    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        5, CallableLevelSet(bulb, "bulb"), 8)
    direct = [build_direct_plan(m, dist) for m in meshes]
    buffers = import_root_data(rt, numbering, direct,
                               build_inverse_plan(rt, meshes, dist))
    hit = False
    for piece, mesh, plan, buf in zip(numbering.pieces, meshes, direct,
                                      buffers):
        if np.any(mesh.local_ids(plan.roots) == 0):
            empty = RootDataBuffer(s=piece.s, roots=buf.roots[:0],
                                   dofs=buf.dofs[:0])
            with pytest.raises(MissingImportError, match="neither locally"):
                build_constraints_distributed(piece, dist, empty)
            blank = RootDataBuffer(s=piece.s, roots=buf.roots,
                                   dofs=np.full_like(buf.dofs, -1))
            with pytest.raises(MissingImportError,
                               match="carries unresolved master ids"):
                build_constraints_distributed(piece, dist, blank)
            hit = True
    assert hit


def _cell_keys(mesh, l):
    """Vertex lattice keys of local cell ``l``, in corner order."""
    return mesh.lattice[l - 1] + corner_offsets(mesh.grid.d)


def _oracle_numbering_body(proc, mesh, interior_only):
    """The per-node Q1 numbering over tuple keys and dicts, kept as the
    oracle of the array steps: same supersteps, same payloads.  It numbers
    the nodes of the interior cells, or of every cell with
    ``interior_only=False``."""
    s = proc.rank
    m = 2 ** mesh.grid.d
    numbered = (mesh.labels == INTERIOR if interior_only
                else np.ones(mesh.n_relevant, dtype=bool))

    j_of_key: dict = {}
    keys_in_order: list = []
    cell_j: dict = {}
    for l in range(1, mesh.n_local + 1):
        keys = _cell_keys(mesh, l)
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

    numbered_cells = np.flatnonzero(numbered) + 1
    j_interior = np.zeros(n_j, dtype=bool)
    owner_of_key: dict = {}
    for l in numbered_cells:
        cell_owner = int(mesh.owner_of_relevant[l - 1])
        for kk in _cell_keys(mesh, l):
            key = tuple(int(v) for v in kk)
            prev = owner_of_key.get(key)
            if prev is None or cell_owner < prev:
                owner_of_key[key] = cell_owner
            j = j_of_key.get(key)
            if j is not None:
                j_interior[j - 1] = True

    local_numbered = [l for l in numbered_cells if l <= mesh.n_local]
    owned_keys: list = []
    seen: set = set()
    for l in local_numbered:
        for kk in _cell_keys(mesh, l):
            key = tuple(int(v) for v in kk)
            if key not in seen and owner_of_key[key] == s:
                seen.add(key)
                owned_keys.append(key)
    n_owned = len(owned_keys)

    offset = yield proc.exclusive_scan_sum(n_owned)
    owned_start = offset + 1
    gid_of_key = {key: owned_start + i for i, key in enumerate(owned_keys)}

    # one (2, k) array per neighbour: the owned (code, id) pairs on the
    # numbered cells of its halo, sorted by code
    n_per_axis = mesh.grid.n_per_axis
    payloads = {}
    for sp, ids in mesh.send_halo.items():
        keys = {tuple(int(v) for v in kk) for l in ids if numbered[l - 1]
                for kk in _cell_keys(mesh, l)}
        pairs = sorted((int(encode_node_keys(np.array(key), n_per_axis)),
                        gid_of_key[key]) for key in keys if key in gid_of_key)
        payloads[sp] = np.array([[c for c, _ in pairs], [g for _, g in pairs]],
                                dtype=np.int64).reshape(2, -1)
    key_of_code = {}
    for l in range(1, mesh.n_relevant + 1):
        for kk in _cell_keys(mesh, l):
            key = tuple(int(v) for v in kk)
            key_of_code[int(encode_node_keys(np.array(key), n_per_axis))] = key
    received = yield proc.neighbor_exchange(payloads)
    for sp in sorted(received):
        for code, gid in received[sp].T.tolist():
            key = key_of_code[code]
            assert key not in gid_of_key     # only the owner sends a node
            gid_of_key[key] = gid

    cell_g: dict = {}
    for l in range(1, mesh.n_local + 1):
        keys = _cell_keys(mesh, l)
        cell_g[l] = np.asarray(
            [gid_of_key.get(tuple(int(v) for v in kk), -1) for kk in keys],
            dtype=np.int64)

    own_local_cell = np.zeros(n_j, dtype=np.int64)
    for l in np.argsort(mesh.global_ids) + 1:
        for kk in _cell_keys(mesh, l):
            j = j_of_key.get(tuple(int(v) for v in kk))
            if j is not None and own_local_cell[j - 1] == 0:
                own_local_cell[j - 1] = l

    return dict(node_keys=node_keys, cell_j=cell_j,
                cell_g=cell_g, j_interior=j_interior,
                own_local_cell=own_local_cell, owned_start=owned_start,
                n_owned=n_owned, gid_of_key=gid_of_key)


def _views(geometry, d, level, n_parts):
    cfg = ExperimentConfig(geometry=geometry, dimension=d, level=level)
    cls = classify_cells(unit_box_grid(level, d), make_levelset(cfg))
    part = partition_weighted_sfc(cls, n_subdomains=n_parts)
    return build_subdomain_meshes(cls, part), cls


_ORACLE_CONFIGS = [("circle", 2, 5, 1), ("circle", 2, 5, 4),
                   ("offset-circle", 2, 6, 16), ("popcorn", 3, 3, 8),
                   ("circle", 3, 4, 8)]


@pytest.mark.parametrize("geometry,d,level,n_parts,interior_only", [
    pytest.param(*config, interior_only, id="-".join(map(str, config))
                 + ("" if interior_only else "-every-cell"))
    for interior_only in (True, False) for config in _ORACLE_CONFIGS])
def test_numbering_matches_the_per_node_oracle(geometry, d, level, n_parts,
                                               interior_only):
    meshes, _ = _views(geometry, d, level, n_parts)
    traced = VirtualRuntime(n_parts, trace=True)
    numbering = number_dofs_distributed(traced, meshes, interior_only)
    oracle_rt = VirtualRuntime(n_parts, trace=True)
    oracle = oracle_rt.run(
        _oracle_numbering_body, args=[(m, interior_only) for m in meshes],
        phase="numbering",
        neighbor_sets=[set(m.neighbors.tolist()) for m in meshes])
    assert traced.trace == oracle_rt.trace
    grid = meshes[0].grid
    assert numbering.n_global == sum(want["n_owned"] for want in oracle)
    for piece, want in zip(numbering.pieces, oracle):
        mesh = piece.mesh
        assert (piece.owned_start, piece.n_owned) == (want["owned_start"],
                                                      want["n_owned"])
        for name in ("node_keys", "j_interior", "own_local_cell"):
            assert np.array_equal(getattr(piece, name), want[name]), name
        assert np.array_equal(piece.cell_j, np.array(
            [want["cell_j"][l] for l in range(1, mesh.n_local + 1)]
        ).reshape(piece.cell_j.shape))
        assert np.array_equal(piece.cell_g, np.array(
            [want["cell_g"][l] for l in range(1, mesh.n_local + 1)]
        ).reshape(piece.cell_g.shape))
        keys = np.array(list(want["gid_of_key"]), dtype=np.int64)
        codes = encode_node_keys(keys.reshape(-1, d), grid.n_per_axis)
        order = np.argsort(codes)
        assert np.array_equal(piece.gid_codes, codes[order])
        assert np.array_equal(piece.gids, np.array(
            list(want["gid_of_key"].values()), dtype=np.int64)[order])


def _faulty_numbering(payload_filter):
    meshes, _ = _views("circle", 2, 5, 4)
    rt = VirtualRuntime(4, payload_filter=payload_filter)
    return number_dofs_distributed(rt, meshes)


def test_numbering_rejects_a_changed_global_id():
    clean = _faulty_numbering(None)
    changed = []

    def inject(phase, step, src, dst, pairs):
        # a pair whose code the receiver owns, with another id: only the
        # owner sends a node, so the receiver holds two ids for one node
        if phase != "numbering" or changed:
            return pairs
        piece = clean.pieces[dst - 1]
        i = np.flatnonzero(piece.gids == piece.owned_start)[0]
        changed.append((src, dst))
        return np.concatenate(
            [pairs, [[piece.gid_codes[i]], [piece.gids[i] + 1]]], axis=1)

    with pytest.raises(RuntimeProtocolError, match="conflicting global ids"):
        _faulty_numbering(inject)
    assert changed


def test_numbering_rejects_a_dropped_row():
    def drop_one(phase, step, src, dst, pairs):
        return pairs[1:] if phase == "numbering" else pairs

    with pytest.raises(RuntimeProtocolError, match="numbering payload"):
        _faulty_numbering(drop_one)


def test_numbering_rejects_unresolved_ghost_ids():
    def blank(phase, step, src, dst, pairs):
        return pairs[:, :0] if phase == "numbering" else pairs

    with pytest.raises(RuntimeProtocolError,
                       match="unresolved global DOF ids"):
        _faulty_numbering(blank)


def test_numbering_rejects_a_repeated_code():
    def repeat(phase, step, src, dst, pairs):
        # senders send each owned code once, ascending
        if phase != "numbering" or pairs.shape[1] == 0:
            return pairs
        return np.concatenate([pairs[:, :1], pairs], axis=1)

    with pytest.raises(RuntimeProtocolError, match="not strictly ascending"):
        _faulty_numbering(repeat)


def test_numbering_rejects_a_code_outside_the_view():
    meshes, _ = _views("circle", 2, 5, 4)
    view_codes = [np.unique(encode_node_keys(
        m.lattice[:, None, :] + corner_offsets(m.grid.d), m.grid.n_per_axis))
        for m in meshes]
    strays = []

    def inject(phase, step, src, dst, pairs):
        # a node of the sender's view that the receiver does not see,
        # placed in code order with a fresh id
        if phase != "numbering" or strays:
            return pairs
        stray = np.setdiff1d(view_codes[src - 1], view_codes[dst - 1])[0]
        strays.append(stray)
        out = np.concatenate([pairs, [[stray], [10 ** 6]]], axis=1)
        return out[:, np.argsort(out[0])]

    with pytest.raises(RuntimeProtocolError,
                       match="names a code that is no node of this view"):
        _faulty_numbering(inject)
    assert strays


def test_numbering_rejects_a_global_id_outside_the_senders_range(
        monkeypatch, tmp_path):
    # ranks own ascending id ranges from 1: an id below 1, or one inside
    # the receiver's own range from a higher rank, names no DOF the
    # sender owns; before the check, an id of 0 read as "constrained"
    clean = _faulty_numbering(None)

    def zero(phase, step, src, dst, pairs):
        if phase != "numbering" or pairs.shape[1] == 0:
            return pairs
        pairs = pairs.copy()
        pairs[1, 0] = 0
        return pairs

    def theirs(phase, step, src, dst, pairs):
        if phase != "numbering" or pairs.shape[1] == 0 or src < dst:
            return pairs
        pairs = pairs.copy()
        pairs[1, 0] = clean.pieces[dst - 1].owned_start
        return pairs

    with pytest.raises(RuntimeProtocolError, match="carries global id 0, "
                                                   "outside the sender's ids"):
        _faulty_numbering(zero)
    with pytest.raises(RuntimeProtocolError, match="outside the sender's ids"):
        _faulty_numbering(theirs)

    # through the CLI, a typed error exits with code 3
    from click.testing import CliRunner

    import agfem.experiments as ex
    from agfem import cli

    monkeypatch.setattr(ex, "VirtualRuntime", lambda n, trace=False:
                        VirtualRuntime(n, trace=trace, payload_filter=zero))
    res = CliRunner().invoke(cli.main, [
        "solve", "--geometry", "circle", "--level", "5", "--procs", "4",
        "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert "numerical failure" in res.output
    assert "carries global id 0" in res.output
