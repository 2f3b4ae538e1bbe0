import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barchan.grid import (
    Grid,
    HeightField,
    admissible,
    axis_edges,
    constraint_magnitude,
    dist_to_boundary,
    edge_slopes,
    edge_slopes_adjoint,
    hosted,
    make_grid,
    max_slope,
    node_slope_magnitude,
    paired,
)
from barchan.projection import MultiplierField


def test_make_grid_1d_spacing():
    g = make_grid(1, 1.0, 9)
    assert g.spacing == (0.1,)
    assert g.counts == (9,)
    assert g.extents == (1.0,)


def test_make_grid_2d_spacing():
    g = make_grid(2, (1.0, 1.0), (9, 9))
    assert g.spacing == (0.1, 0.1)


def test_grid_hash_is_kept_and_agrees_with_equality():
    a, b = make_grid(2, (1.0, 1.3), (5, 7)), Grid((1, 1.3), [5.0, 7])
    assert a == b and a is not b and hash(a) == hash(b)
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a) and {a: 1}[back] == 1
    assert make_grid(2, (1.0, 1.3), (7, 5)) != a


def test_make_grid_rejects_small_count():
    with pytest.raises(ValueError, match="counts"):
        make_grid(1, 1.0, 2)
    for counts in (3.7, (9, 4.5), (9, math.nan)):  # not silently truncated
        with pytest.raises(ValueError, match="counts"):
            make_grid(2, 1.0, counts)


def test_make_grid_rejects_bad_extent():
    with pytest.raises(ValueError, match="extents"):
        make_grid(1, -1.0, 9)
    with pytest.raises(ValueError, match="extents"):
        make_grid(1, 0.0, 9)


def test_make_grid_rejects_dim():
    with pytest.raises(ValueError, match="dim"):
        make_grid(3, (1.0, 1.0, 1.0), (5, 5, 5))
    # 2.0 used to fail later with a TypeError, True to build a 1D grid
    for dim in (2.0, True, "2", 3):
        with pytest.raises(ValueError, match="dim must be the integer 1 or 2"):
            make_grid(dim, 1.0, 9)


def test_fields_compare_by_value():
    # == used to raise (the truth value of an array is ambiguous)
    g = make_grid(1, 1.0, 5)
    field = HeightField(g, np.ones(5))
    assert (field == HeightField(g, np.ones(5))) is True
    assert (field != HeightField(g, np.ones(5))) is False
    assert (field == HeightField(g, np.arange(5.0))) is False
    assert (field == HeightField(make_grid(1, 2.0, 5), np.ones(5))) is False
    for other in (MultiplierField(g, np.ones(5)), 1.0, "field", None):
        assert (field == other) is False


def test_make_grid_rejects_an_entry_count_other_than_one_or_dim():
    for extents, counts in [((1.0, 1.0), 9), ((1.0, 1.0), (9, 9)), (1.0, (9, 9))]:
        with pytest.raises(ValueError, match="one entry per axis"):
            make_grid(1, extents, counts)


def test_grid_derives_dim_and_spacing():
    g = Grid((1.0,), (9,))
    assert g.dim == 1 and g.spacing == (0.1,)
    assert g == make_grid(1, 1.0, 9)
    assert Grid((1.0, 0.5), (9, 4)) == make_grid(2, (1.0, 0.5), (9, 4))
    # derived values are not arguments, so they cannot disagree with the box
    with pytest.raises(TypeError):
        Grid(dim=1, extents=(1.0,), counts=(9,), spacing=(0.5,))


@pytest.mark.parametrize(
    "extents, counts, match",
    [
        ((1.0, 1.0), (9,), "one entry per axis"),
        ((1.0,), (2,), "counts"),
        ((1.0,), (4.5,), "counts"),
        ((math.inf,), (9,), "extents"),
        ((), (), "dim"),
        ((1.0, 1.0, 1.0), (5, 5, 5), "dim"),
    ],
)
def test_grid_checks_its_box(extents, counts, match):
    with pytest.raises(ValueError, match=match):
        Grid(extents, counts)


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
    rhs = np.vdot(u, edge_slopes_adjoint(g, q[None]))
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
    du = edge_slopes(g, u)
    q = np.zeros_like(du)
    axis_edges(q, 0)[...] = qx
    axis_edges(q, 1)[...] = qy
    lhs = np.vdot(axis_edges(du, 0), qx) + np.vdot(axis_edges(du, 1), qy)
    rhs = np.vdot(u, edge_slopes_adjoint(g, q))
    scale = np.linalg.norm(u) * (np.linalg.norm(qx) + np.linalg.norm(qy)) + 1e-30
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_edge_slopes_include_boundary_edges():
    g = make_grid(1, 1.0, 4)
    (e,) = edge_slopes(g, np.array([0.3, 0.1, 0.1, 0.2]))
    assert e.shape == (5,)
    assert e[0] == pytest.approx(0.3 / g.spacing[0])
    assert e[-1] == pytest.approx(-0.2 / g.spacing[0])


def _layouts(a: np.ndarray) -> list[np.ndarray]:
    """``a``'s values in three other memory layouts: a transposed view, Fortran
    order, and every other entry of an array twice as large on each axis."""
    wide = np.zeros(tuple(2 * m for m in a.shape))
    sliced = wide[(slice(None, None, 2),) * a.ndim]
    sliced[...] = a
    return [np.ascontiguousarray(a.T).T, np.asfortranarray(a), sliced]


def _adjoint_reference(g, q) -> np.ndarray:
    """D^T q axis by axis, as its definition reads: ``(qa[:-1] - qa[1:]) / h``
    along axis ``a`` of its edges, summed over the axes in order."""
    out = None
    for a, h in enumerate(g.spacing):
        qa = axis_edges(q, a)
        along = lambda index: qa[(slice(None),) * a + (index,)]  # noqa: E731
        d = (along(slice(None, -1)) - along(slice(1, None))) / h
        out = d if out is None else out + d
    return out


@pytest.mark.parametrize(
    "dim, extents, counts, mode",
    [
        pytest.param(1, 1.0, (9,), "isotropic", id="1d"),
        pytest.param(1, 1.0, (8,), "isotropic", id="1d-even"),
        pytest.param(2, (1.0, 1.3), (5, 7), "isotropic", id="5x7-isotropic"),
        pytest.param(2, (1.0, 1.3), (5, 7), "componentwise", id="5x7-componentwise"),
        pytest.param(2, (1.0, 1.3), (6, 9), "isotropic", id="6x9-isotropic"),
        pytest.param(2, (1.0, 1.0), (64, 64), "isotropic", id="64x64-isotropic"),
    ],
)
def test_edge_slopes_lattice_structural_zeros_and_adjoint(dim, extents, counts, mode):
    # the lattice (dim, *(counts + 1)) holds every edge once, per axis in
    # axis_edges, and its other entries are exact zeros that neither D^T nor
    # the constraint norm sees; both operators match their per-axis
    # definitions bitwise, whatever the memory layout of their input
    g = make_grid(dim, extents, counts)
    rng = np.random.default_rng(3)
    structural = np.ones((dim,) + tuple(m + 1 for m in counts), dtype=bool)
    for a in range(dim):
        axis_edges(structural, a)[...] = False
    assert structural.sum() == (dim - 1) * (sum(counts) + dim)
    for _ in range(3):
        u = rng.normal(size=g.shape)
        du = edge_slopes(g, u)
        assert du.shape == (dim,) + tuple(m + 1 for m in counts)
        for a, h in enumerate(g.spacing):
            padded = np.pad(u, [(1, 1) if b == a else (0, 0) for b in range(dim)])
            assert np.array_equal(axis_edges(du, a), np.diff(padded, axis=a) / h)
        assert np.all(du[structural] == 0.0)
        for other in _layouts(u):
            assert np.array_equal(edge_slopes(g, other), du)
        # the first edge of an axis shares its cell with structural zeros,
        # so it is a constraint of its own in either mode
        norms = np.broadcast_to(constraint_magnitude(du, paired(g, mode)), du.shape)
        for a in range(dim):
            first = (slice(None),) * a + (0,)
            assert np.array_equal(axis_edges(norms, a)[first], np.abs(axis_edges(du, a)[first]))
        q = np.where(structural, 0.0, rng.normal(size=du.shape))
        aq = edge_slopes_adjoint(g, q)
        assert np.array_equal(aq, _adjoint_reference(g, q))
        assert aq.shape == g.shape and aq.flags.c_contiguous and not np.shares_memory(aq, q)
        np.testing.assert_allclose(np.vdot(du, q), np.vdot(u, aq), rtol=1e-12)
        for other in _layouts(q):
            assert np.array_equal(edge_slopes_adjoint(g, other), aq)
        # a structural entry lies on no interior node, so D^T does not see
        # it, whatever its value: inf - inf only warns of the NaN it makes
        noisy = q + structural * rng.normal(size=q.shape)
        assert edge_slopes_adjoint(g, noisy).tobytes() == aq.tobytes()
        with np.errstate(invalid="ignore"):
            for bad in (np.inf, np.nan):
                broken = np.where(structural, bad, q)
                assert edge_slopes_adjoint(g, broken).tobytes() == aq.tobytes()


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
    # boundary to the first node, an edge no node hosts, exceeds lam
    g = make_grid(1, 1.0, 9)
    u = HeightField(g, np.linspace(0.5, 0.1, 9))
    assert np.max(node_slope_magnitude(u)) <= 1.0
    assert not admissible(u, 1.0)


@pytest.mark.parametrize("excess, accepted", [(7e-8, False), (5e-9, True)])
def test_admissible_bounds_the_first_edge_in_slope_units(excess, accepted):
    # the first edge of the cone exceeds lam by `excess`: the test allows
    # TOL_CONSTRAINT (1e-8) in slope units on every edge, so 7e-8 fails even
    # though the height excess, 7e-8 * h, is within 1e-8 of the distance cone
    g = make_grid(1, 1.0, 17)
    lam, h = 0.8, g.spacing[0]
    u = lam * dist_to_boundary(g)
    u[0] = (lam + excess) * h
    assert abs(u[0]) <= lam * dist_to_boundary(g)[0] + 1e-8
    for mode in ("isotropic", "componentwise"):
        assert admissible(HeightField(g, u), lam, mode) == accepted


@pytest.mark.parametrize("mode", ["isotropic", "componentwise"])
def test_admissible_catches_a_steep_bottom_edge_in_2d(mode):
    # half the cone, with one bottom node raised so that only the y edge
    # from the bottom wall to it is too steep: no node's forward
    # differences see it
    g = make_grid(2, (1.0, 1.3), (9, 12))
    lam = 0.8
    u = 0.5 * lam * dist_to_boundary(g)
    u[4, 0] = 1.1 * lam * g.spacing[1]
    field = HeightField(g, u)
    bottom = axis_edges(edge_slopes(g, u), 1)[:, 0]
    assert bottom[4] > lam + 1e-8 and np.all(np.delete(bottom, 4) <= lam)
    assert max_slope(field, mode) <= lam
    assert not admissible(field, lam, mode)
    u[4, 0] = 0.5 * lam * g.spacing[1]
    assert admissible(HeightField(g, u), lam, mode)


@pytest.mark.parametrize(
    "dim, extents, counts, mode",
    [
        (1, 1.0, 17, "isotropic"),
        (2, (1.0, 1.3), (7, 9), "isotropic"),
        (2, (1.0, 1.3), (7, 9), "componentwise"),
    ],
)
def test_max_slope_is_the_largest_node_magnitude(dim, extents, counts, mode):
    # max_slope reduces once; it equals the largest per-node magnitude bitwise
    g = make_grid(dim, extents, counts)
    f = HeightField(g, 0.3 * np.random.default_rng(11).normal(size=g.shape))
    expected = node_slope_magnitude(f, mode).max()
    assert max_slope(f, mode) == expected
    assert max_slope(f, mode, edge_slopes(g, f.values)) == expected


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
