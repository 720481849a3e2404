import numpy as np

from agfem.levelset import HalfPlane, Popcorn, Sphere

from conftest import CallableLevelSet, gradient


def test_halfplane_sign_convention():
    ls = HalfPlane((1.0, 0.0), 0.5)
    vals = ls(np.array([[0.25, 0.9], [0.5, 0.1], [0.75, 0.2]]))
    assert vals[0] < 0 and vals[1] == 0 and vals[2] > 0


def test_sphere_zero_set():
    ls = Sphere((0.5, 0.5), 0.3)
    assert ls(np.array([[0.5, 0.5]]))[0] == -0.3
    assert abs(ls(np.array([[0.8, 0.5]]))[0]) < 1e-15
    assert ls(np.array([[0.95, 0.5]]))[0] > 0


def test_evaluation_is_pure():
    ls = Sphere((0.4, 0.6), 0.25)
    pts = np.random.default_rng(0).random((50, 2))
    assert np.array_equal(ls(pts), ls(pts))


def test_popcorn_fits_unit_cube():
    ls = Popcorn()
    assert ls(np.array([[0.5, 0.5, 0.5]]))[0] < 0
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.all(ls(corners) > 0)


def test_callable_wrapper_and_gradient():
    ls = CallableLevelSet(lambda p: p[:, 0] ** 2 + p[:, 1] - 1.0, "parabola")
    pts = np.array([[0.5, 0.25], [1.0, 0.5]])
    grad = gradient(ls, pts, 1e-6)
    assert np.allclose(grad[:, 0], 2 * pts[:, 0], atol=1e-8)
    assert np.allclose(grad[:, 1], 1.0, atol=1e-8)
