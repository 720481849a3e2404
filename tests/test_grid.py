import numpy as np
import pytest

from agfem.grid import (GridError, build_grid, face_neighbors, morton_encode,
                        unit_box_grid)

from conftest import cell_vertices, morton_decode


def test_one_refinement_of_unit_square():
    grid = unit_box_grid(1, 2)
    assert grid.n_cells == 4
    assert np.allclose(grid.h, 0.5)


def test_level_ten_cube_cell_count():
    grid = unit_box_grid(10, 3)
    assert grid.n_cells == 1_073_741_824


def test_morton_index_by_hand():
    grid = unit_box_grid(3, 2)
    assert grid.n_cells == 64
    assert morton_encode(np.array([1, 1]), 3) == 3


def test_morton_bijective_2d():
    for level in range(1, 9):
        n = 1 << level
        lat = np.stack(np.meshgrid(np.arange(n), np.arange(n),
                                   indexing="ij"), axis=-1).reshape(-1, 2)
        codes = morton_encode(lat, level)
        assert np.array_equal(np.sort(codes), np.arange(n * n))
        assert np.array_equal(morton_decode(codes, level, 2), lat)


def test_morton_bijective_3d():
    for level in range(1, 6):
        n = 1 << level
        g = np.meshgrid(*([np.arange(n)] * 3), indexing="ij")
        lat = np.stack(g, axis=-1).reshape(-1, 3)
        codes = morton_encode(lat, level)
        assert np.array_equal(np.sort(codes), np.arange(n**3))
        assert np.array_equal(morton_decode(codes, level, 3), lat)
    # spot-check the upper end of the contract
    rng = np.random.default_rng(7)
    lat = rng.integers(0, 1 << 8, size=(2000, 3))
    assert np.array_equal(morton_decode(morton_encode(lat, 8), 8, 3), lat)


def test_overflow_rejected():
    with pytest.raises(GridError, match="overflow"):
        build_grid((np.zeros(3), np.ones(3)), 21, 3)


def test_bad_bbox_rejected():
    with pytest.raises(GridError):
        build_grid((np.zeros(2), np.array([1.0, 0.0])), 2, 2)
    with pytest.raises(GridError):
        build_grid((np.zeros(2), np.ones(2)), -1, 2)
    with pytest.raises(GridError):
        build_grid((np.zeros(2), np.ones(2)), 2, 4)


def test_face_neighbor_counts_and_order():
    grid = unit_box_grid(2, 2)
    assert len(face_neighbors(grid, (0, 0))) == 2
    nbrs = face_neighbors(grid, (1, 1))
    assert len(nbrs) == 4
    # deterministic order: -x, +x, -y, +y
    assert np.array_equal(nbrs, [[0, 1], [2, 1], [1, 0], [1, 2]])

    grid3 = unit_box_grid(2, 3)
    assert len(face_neighbors(grid3, (1, 1, 1))) == 6
    with pytest.raises(GridError):
        face_neighbors(grid, (4, 0))


def test_cell_geometry():
    grid = build_grid((np.array([1.0, 2.0]), np.array([2.0, 4.0])), 1, 2)
    assert np.allclose(grid.h, [1.0, 2.0])
    assert np.allclose(grid.cell_origin((1, 1)), [2.0, 4.0])
    assert np.allclose(grid.cell_barycenter((0, 0)), [1.5, 3.0])
    verts = cell_vertices(grid, (0, 0))
    assert verts.shape == (4, 2)
    assert np.allclose(verts[0], [1.0, 2.0])
    assert np.allclose(verts[3], [2.0, 4.0])
