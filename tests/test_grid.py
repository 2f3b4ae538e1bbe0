import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barchan.grid import (
    HeightField,
    admissible,
    dist_to_boundary,
    edge_slopes,
    edge_slopes_adjoint,
    hosted,
    make_grid,
    node_slope_magnitude,
)


def test_make_grid_1d_spacing():
    g = make_grid(1, 1.0, 9)
    assert g.spacing == (0.1,)
    assert g.counts == (9,)
    assert g.extents == (1.0,)


def test_make_grid_2d_spacing():
    g = make_grid(2, (1.0, 1.0), (9, 9))
    assert g.spacing == (0.1, 0.1)


def test_make_grid_rejects_small_count():
    with pytest.raises(ValueError, match="counts"):
        make_grid(1, 1.0, 2)


def test_make_grid_rejects_bad_extent():
    with pytest.raises(ValueError, match="extents"):
        make_grid(1, -1.0, 9)
    with pytest.raises(ValueError, match="extents"):
        make_grid(1, 0.0, 9)


def test_make_grid_rejects_dim():
    with pytest.raises(ValueError, match="dim"):
        make_grid(3, (1.0, 1.0, 1.0), (5, 5, 5))


def test_coords_are_interior():
    g = make_grid(1, 1.0, 9)
    np.testing.assert_allclose(g.coords(0), np.arange(1, 10) * 0.1)


def test_diameter():
    assert make_grid(2, (3.0, 4.0), (9, 9)).diameter == pytest.approx(5.0)


def test_dist_to_boundary_1d():
    g = make_grid(1, 1.0, 9)
    d = dist_to_boundary(g)
    # node at x=0.3 is nearer the left endpoint
    assert d[2] == pytest.approx(0.3)
    assert d[6] == pytest.approx(0.3)
    assert d[4] == pytest.approx(0.5)


def test_dist_to_boundary_2d():
    g = make_grid(2, (1.0, 1.0), (9, 9))
    d = dist_to_boundary(g)
    assert d[4, 4] == pytest.approx(0.5)  # center of the unit square
    assert d[0, 3] == pytest.approx(0.1)  # node (0.1, 0.4)


def test_dist_is_one_lipschitz_on_grid_graph():
    for g in (make_grid(1, 2.0, 17), make_grid(2, (1.0, 2.0), (9, 13))):
        d = dist_to_boundary(g)
        if g.dim == 1:
            assert np.max(np.abs(np.diff(d))) <= g.spacing[0] + 1e-12
        else:
            assert np.max(np.abs(np.diff(d, axis=0))) <= g.spacing[0] + 1e-12
            assert np.max(np.abs(np.diff(d, axis=1))) <= g.spacing[1] + 1e-12


def grad_forward(u):
    """Each node's forward differences (the edges it hosts), in 1D."""
    (g,) = hosted(edge_slopes(u.grid, u.values))
    return g


def test_grad_forward_zero_field():
    g = make_grid(1, 1.0, 9)
    np.testing.assert_array_equal(grad_forward(HeightField.zeros(g)), 0.0)


def test_grad_forward_linear_interior():
    g = make_grid(1, 1.0, 9)
    s = 0.37
    u = HeightField(g, s * g.coords(0))
    # away from the right boundary every forward difference equals s
    np.testing.assert_allclose(grad_forward(u)[:-1], s, atol=1e-14)


def test_grad_forward_hat_slopes():
    # hand differencing: hat peaking at 0.5 over [0, 1] with 9 nodes gives
    # slope +1 on the rising flank and -1 on the falling flank including
    # the drop to the right boundary ghost
    g = make_grid(1, 1.0, 9)
    x = g.coords(0)
    u = HeightField(g, 0.5 - np.abs(x - 0.5))
    expected = np.array([1, 1, 1, 1, -1, -1, -1, -1, -1], dtype=float)
    np.testing.assert_allclose(grad_forward(u), expected, atol=1e-13)


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 40), st.integers(0, 2**32 - 1))
def test_edge_slopes_adjoint_1d(n, seed):
    g = make_grid(1, 1.0, n)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    q = rng.normal(size=n + 1)
    (e,) = edge_slopes(g, u)
    lhs = np.vdot(e, q)
    rhs = np.vdot(u, edge_slopes_adjoint(g, (q,)))
    scale = np.linalg.norm(u) * np.linalg.norm(q) + 1e-30
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 12), st.integers(3, 12), st.integers(0, 2**32 - 1))
def test_edge_slopes_adjoint_2d(nx, ny, seed):
    g = make_grid(2, (1.0, 1.3), (nx, ny))
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(nx, ny))
    qx = rng.normal(size=(nx + 1, ny))
    qy = rng.normal(size=(nx, ny + 1))
    ex, ey = edge_slopes(g, u)
    lhs = np.vdot(ex, qx) + np.vdot(ey, qy)
    rhs = np.vdot(u, edge_slopes_adjoint(g, (qx, qy)))
    scale = np.linalg.norm(u) * (np.linalg.norm(qx) + np.linalg.norm(qy)) + 1e-30
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_edge_slopes_include_boundary_edges():
    g = make_grid(1, 1.0, 4)
    (e,) = edge_slopes(g, np.array([0.3, 0.1, 0.1, 0.2]))
    assert e.shape == (5,)
    assert e[0] == pytest.approx(0.3 / g.spacing[0])
    assert e[-1] == pytest.approx(-0.2 / g.spacing[0])


def test_admissible_cone_and_hat():
    g = make_grid(1, 1.0, 9)
    lam = 0.8
    cone = HeightField(g, lam * dist_to_boundary(g))
    assert admissible(cone, lam)
    assert np.max(node_slope_magnitude(cone)) <= lam + 1e-12
    too_steep = HeightField(g, 2 * lam * dist_to_boundary(g))
    assert not admissible(too_steep, lam)


def test_admissible_catches_left_boundary_pin():
    # slopes between interior nodes are fine, but the jump from the zero
    # boundary to the first node exceeds lam: the distance bound must fail
    g = make_grid(1, 1.0, 9)
    u = HeightField(g, np.linspace(0.5, 0.1, 9))
    assert np.max(node_slope_magnitude(u)) <= 1.0
    assert not admissible(u, 1.0)


def test_node_slope_modes_2d():
    g = make_grid(2, (1.0, 1.0), (5, 5))
    rng = np.random.default_rng(3)
    u = HeightField(g, 0.05 * rng.normal(size=(5, 5)))
    iso = node_slope_magnitude(u, "isotropic")
    comp = node_slope_magnitude(u, "componentwise")
    assert np.all(comp <= iso + 1e-15)
    with pytest.raises(ValueError):
        node_slope_magnitude(u, "diagonal")


def test_height_field_validation():
    g = make_grid(1, 1.0, 5)
    with pytest.raises(ValueError, match="shape"):
        HeightField(g, np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        HeightField(g, np.array([0.0, np.nan, 0.0, 0.0, 0.0]))
