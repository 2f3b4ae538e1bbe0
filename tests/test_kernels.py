import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barchan
from barchan.grid import HeightField, dist_to_boundary, make_grid
from barchan.kernels import DiscreteKernel, build_kernel, nonlocal_slope


def brute_force_nonlocal(u: np.ndarray, w: np.ndarray, dx: float) -> np.ndarray:
    """O(n^2) direct-sum oracle: sum_y K(x - y) du/dx(y) dx on the
    zero-extended field, slopes indexed at their left node; a 2D field is
    taken one row ``u[:, j]`` (one x line) at a time."""
    if u.ndim == 2:
        return np.stack([brute_force_nonlocal(row, w, dx) for row in u.T], axis=1)
    n = u.size
    half = (w.size - 1) // 2
    ext = np.concatenate([[0.0], u, [0.0]])
    slopes = {j: (ext[j + 2] - ext[j + 1]) / dx for j in range(-1, n)}
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(-1, n):
            off = i - j
            if -half <= off <= half:
                acc += w[off + half] * slopes[j] * dx
        out[i] = acc
    return out


def test_box_radius_dx_is_point_mass():
    k = build_kernel("box", 0.1, 0.1)
    np.testing.assert_allclose(k.weights, [10.0])


def test_triangle_radius_2dx_hand_normalized():
    # raw samples (0.5, 1, 0.5) normalize to (0.25, 0.5, 0.25) / dx
    dx = 0.1
    k = build_kernel("triangle", 2 * dx, dx)
    np.testing.assert_allclose(k.weights, np.array([0.25, 0.5, 0.25]) / dx, atol=1e-13)


@pytest.mark.parametrize("profile", ["triangle", "cosine_bump", "box"])
@pytest.mark.parametrize("radius_cells", [2, 3, 5.5, 17])
def test_unit_mass(profile, radius_cells):
    dx = 0.05
    k = build_kernel(profile, radius_cells * dx, dx)
    assert abs(k.weights.sum() * dx - 1.0) <= 1e-12
    assert k.weights.size % 2 == 1
    np.testing.assert_allclose(k.weights, k.weights[::-1])


def test_radius_below_spacing_rejected():
    with pytest.raises(ValueError, match="radius"):
        build_kernel("box", 0.05, 0.1)


def test_degenerate_smooth_profile_rejected():
    with pytest.raises(ValueError, match="point mass"):
        build_kernel("triangle", 0.1, 0.1)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="unknown kernel profile 'gauss'"):
        build_kernel("gauss", 0.3, 0.1)


def test_discrete_kernel_checks_its_weights():
    with pytest.raises(ValueError, match="nonnegative"):
        DiscreteKernel("box", 0.3, 0.1, np.array([-1.0, 12.0, -1.0]))
    # unit mass and symmetric, but two cells on each side of a 1.5-cell radius
    with pytest.raises(ValueError, match="exceeds its radius"):
        DiscreteKernel("box", 0.15, 0.1, np.full(5, 2.0))


def test_support_inside_radius():
    k = build_kernel("cosine_bump", 0.31, 0.1)
    assert k.half_width * k.spacing < k.radius


def test_nonlocal_slope_zero_field():
    g = make_grid(1, 1.0, 32)
    k = build_kernel("triangle", 3 * g.spacing[0], g.spacing[0])
    np.testing.assert_array_equal(nonlocal_slope(HeightField.zeros(g), k), 0.0)


def test_nonlocal_slope_linear_region():
    # where the kernel support sits inside a linear stretch of slope s the
    # unit-mass average returns s exactly
    g = make_grid(1, 1.0, 63)
    dx = g.spacing[0]
    k = build_kernel("triangle", 3 * dx, dx)
    s = 0.8
    x = g.coords(0)
    u = HeightField(g, s * np.minimum(x, 1.0 - x))  # symmetric tent
    out = nonlocal_slope(u, k)
    # nodes at least radius + dx from both walls and from the apex
    apex = 31
    inner = np.arange(4, apex - 3)
    np.testing.assert_allclose(out[inner], s, atol=1e-12)
    np.testing.assert_allclose(out[2 * apex - inner], -s, atol=1e-12)


def test_nonlocal_slope_matches_brute_force():
    g = make_grid(1, 1.0, 32)
    dx = g.spacing[0]
    k = build_kernel("triangle", 3 * dx, dx)
    x = g.coords(0)
    u = HeightField(g, np.maximum(0.0, 0.4 - np.abs(x - 0.5)))
    out = nonlocal_slope(u, k)
    oracle = brute_force_nonlocal(u.values, k.weights, dx)
    np.testing.assert_allclose(out, oracle, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nonlocal_slope_linearity(seed):
    g = make_grid(1, 1.0, 24)
    dx = g.spacing[0]
    k = build_kernel("cosine_bump", 4 * dx, dx)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=24)
    v = rng.normal(size=24)
    a, b = rng.normal(size=2)
    lhs = nonlocal_slope(HeightField(g, a * u + b * v), k)
    rhs = a * nonlocal_slope(HeightField(g, u), k) + b * nonlocal_slope(
        HeightField(g, v), k
    )
    scale = max(1.0, np.max(np.abs(rhs)))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)


def test_equivalence_of_forms():
    # convolving K with du/dx equals convolving the discrete dK/dx with u
    # on the zero-extended field (summation by parts is exact)
    g = make_grid(1, 1.0, 32)
    dx = g.spacing[0]
    k = build_kernel("triangle", 4 * dx, dx)
    rng = np.random.default_rng(5)
    u = rng.normal(size=32)
    out = nonlocal_slope(HeightField(g, u), k)

    half = k.half_width
    w = k.weights
    oracle = np.zeros(32)
    for i in range(32):
        acc = 0.0
        for ell in range(32):
            m = i - ell
            wm1 = w[m + 1 + half] if -half <= m + 1 <= half else 0.0
            wm = w[m + half] if -half <= m <= half else 0.0
            acc += u[ell] * (wm1 - wm) / dx * dx
        oracle[i] = acc
    np.testing.assert_allclose(out, oracle, atol=1e-10)


def test_admissible_bound():
    g = make_grid(1, 1.0, 63)
    dx = g.spacing[0]
    k = build_kernel("cosine_bump", 5 * dx, dx)
    lam = 0.7
    u = HeightField(g, lam * dist_to_boundary(g))
    out = nonlocal_slope(u, k)
    assert np.max(np.abs(out)) <= lam + 1e-10


def test_fft_matches_direct():
    # a wide kernel on a long line, against the direct-sum oracle
    g = make_grid(1, 2.0, 127)
    dx = g.spacing[0]
    k = build_kernel("cosine_bump", 24 * dx, dx)
    rng = np.random.default_rng(9)
    u = HeightField(g, rng.normal(size=127))
    oracle = brute_force_nonlocal(u.values, k.weights, dx)
    np.testing.assert_allclose(nonlocal_slope(u, k), oracle, atol=1e-10)


def test_fft_matches_direct_2d():
    # a kernel wider than the grid, row by row against the direct-sum oracle
    g = make_grid(2, (1.0, 1.0), (24, 17))
    dx = g.spacing[0]
    k = build_kernel("triangle", 20 * dx, dx)
    rng = np.random.default_rng(13)
    u = HeightField(g, rng.normal(size=(24, 17)))
    oracle = brute_force_nonlocal(u.values, k.weights, dx)
    np.testing.assert_allclose(nonlocal_slope(u, k), oracle, atol=1e-10)


def _run_fresh(then: str) -> str:
    """The output of a fresh interpreter that imports the solver modules,
    then runs the statements ``then``."""
    src = str(Path(barchan.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "\n".join(["import sys, barchan, barchan.stepper, barchan.verify", then])
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def _loaded_by_solver_imports(package: str, then: str = "") -> list[str]:
    """The modules named ``package`` or ``package.*``, sorted, that
    importing the solver modules in a fresh interpreter, then running the
    statements ``then``, loads."""
    listing = f"print(sorted(m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})))"
    return ast.literal_eval(_run_fresh(then + "\n" + listing).splitlines()[-1])


def test_import_does_not_load_scipy_signal():
    # scipy.signal alone costs more import time than the rest of the solver
    assert not _loaded_by_solver_imports("scipy.signal")


def test_import_does_not_load_scipy_sparse():
    # the Newton blocks are banded, so the solver needs no sparse matrices
    assert not _loaded_by_solver_imports("scipy.sparse")


def test_import_loads_no_scipy():
    # no module of scipy at all: a compiled extension can load without its
    # package, so each one is checked, not the package alone
    assert _loaded_by_solver_imports("scipy") == []


# A 1D run on the wind response ``{h}`` from a tent twice as steep as the
# cone, so the start projection and the steps' avalanches project.
_RUN_1D = """
import numpy as np
from barchan.constitutive import HProfile
from barchan.grid import HeightField, make_grid
from barchan.stepper import KernelSpec, ModelParams, SourceSpec, run
g = make_grid(1, 1.0, 32)
dx = g.spacing[0]
x = g.coords(0)
source = SourceSpec("patch", center=(0.5,), width=0.1, rate=2.0)
params = ModelParams(
    lam=1.0, h={h}, kernel=KernelSpec("triangle", 3 * dx), source=source, T={T}, dt={dt}
)
traj = run(params, HeightField(g, 2.0 * np.minimum(x, 1.0 - x)))
assert traj.failure is None and all(d.projection_iterations for d in traj.steps)
"""


# The audit of a ``_RUN_1D`` run by random test functions.
_AUDIT_1D = """
from barchan.verify import make_test_functions, vi_report
tests = make_test_functions(g, 1.0, 4, 0)
assert vi_report(traj, tests, tol=2.0 * (traj.steps[0].dt + dx)).passed
"""


def test_windless_1d_run_and_audit_load_no_scipy():
    run = _RUN_1D.format(h="HProfile.zero()", T=0.05, dt=0.01)
    assert _loaded_by_solver_imports("scipy", run + _AUDIT_1D) == []


def test_erf_smoothed_run_loads_no_scipy():
    # the paper's wind response takes erf from the standard library
    run = _RUN_1D.format(h="HProfile.erf_smoothed(0.25)", T=0.002, dt='"auto"')
    assert _loaded_by_solver_imports("scipy", run + _AUDIT_1D) == []


# An inadmissible 2D projection whose Newton solves take both routes of
# ``_banded_solve``: Cholesky, and pivoted LU once Cholesky fails.
_PROJECT_2D = """
import numpy as np
from barchan import projection
from barchan.grid import HeightField, make_grid
solve, routes = projection._banded_solve, set()
def recording(band, rhs, pivot=False):
    try:
        solve(band, rhs)
        routes.add("cholesky")
    except np.linalg.LinAlgError:
        routes.add("pivoted" if pivot else "not positive definite")
    return solve(band, rhs, pivot)
projection._banded_solve = recording
res = projection.project(HeightField(make_grid(2, (1.0, 1.0), (6, 6)), 3.0 * np.ones((6, 6))), 1.0)
assert res.converged and res.iterations > 0
assert {"cholesky", "pivoted"} <= routes, routes
projection._banded_solve = solve
"""


def test_inadmissible_2d_projection_loads_only_the_lapack_extension():
    # the 2D Newton solves load scipy's compiled LAPACK and none of scipy's
    # packages: importing scipy.linalg costs more than the rest of the solver
    assert _loaded_by_solver_imports("scipy", _PROJECT_2D) == ["scipy.linalg._flapack"]


def test_scipy_linalg_imported_after_a_2d_solve_shares_its_lapack():
    # the extension a 2D solve loaded alone is the one scipy.linalg then
    # uses, and scipy's banded Cholesky factor and solve still match
    # _banded_solve bit for bit
    check = """
flapack = sys.modules["scipy.linalg._flapack"]
from scipy.linalg import cho_solve_banded, cholesky_banded, lapack
assert lapack._flapack is flapack and lapack.dpbsv is flapack.dpbsv
rng = np.random.default_rng(5)
for rows in (2, 4):
    for n in (2, 5, 30):
        band = rng.uniform(-1.0, 1.0, (rows, n))
        band[-1] = 2.0 * rows + rng.uniform(0.0, 1.0, n)
        rhs = rng.normal(size=n)
        want = cho_solve_banded((cholesky_banded(band), False), rhs)
        assert projection._banded_solve(band, rhs).tobytes() == want.tobytes()
print("bitwise")
"""
    assert _run_fresh(_PROJECT_2D + check) == "bitwise"


@pytest.mark.parametrize("found", ["no scipy", "no extension"])
def test_missing_lapack_raises_import_error(found, tmp_path):
    # when scipy, or its linalg/_flapack extension, cannot be found, the
    # first 2D Newton solve raises an ImportError that names what is missing
    spec = "None" if found == "no scipy" else "ModuleSpec('scipy', None, is_package=True)"
    hide = f"""
import importlib.util
from importlib.machinery import ModuleSpec
import numpy as np
from barchan import projection
find_spec = importlib.util.find_spec
def hidden(name, *args):
    if name != "scipy":
        return find_spec(name, *args)
    spec = {spec}
    if spec is not None:
        spec.submodule_search_locations = [{str(tmp_path)!r}]
    return spec
importlib.util.find_spec = hidden
try:
    projection._banded_solve(np.array([[0.0, -1.0], [2.0, 2.0]]), np.ones(2))
except ImportError as exc:
    print(exc)
"""
    message = _run_fresh(hide)
    if found == "no scipy":
        assert message == "2D Newton solves need scipy's LAPACK, but scipy is not installed"
    else:
        assert "scipy.linalg._flapack was not found" in message and str(tmp_path) in message


def test_2d_is_rowwise():
    # a field constant along y reduces to the 1D result in every row
    g2 = make_grid(2, (1.0, 1.0), (24, 9))
    g1 = make_grid(1, 1.0, 24)
    dx = g2.spacing[0]
    k = build_kernel("triangle", 3 * dx, dx)
    rng = np.random.default_rng(2)
    row = rng.normal(size=24)
    out2 = nonlocal_slope(HeightField(g2, np.tile(row[:, None], (1, 9))), k)
    out1 = nonlocal_slope(HeightField(g1, row), k)
    for j in range(9):
        np.testing.assert_allclose(out2[:, j], out1, atol=1e-13)


def test_spacing_mismatch_rejected():
    g = make_grid(1, 1.0, 32)
    k = build_kernel("triangle", 0.3, 0.05)
    with pytest.raises(ValueError, match="spacing"):
        nonlocal_slope(HeightField.zeros(g), k)


def test_kernel_validation():
    with pytest.raises(ValueError, match="odd"):
        DiscreteKernel("box", 0.2, 0.1, np.array([5.0, 5.0]))
    with pytest.raises(ValueError, match="mass"):
        DiscreteKernel("box", 0.2, 0.1, np.array([1.0, 2.0, 1.0]))
    with pytest.raises(ValueError, match="symmetric"):
        DiscreteKernel("box", 0.3, 0.1, np.array([2.0, 5.0, 3.0]) / 1.0)
    for radius in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius"):
            build_kernel("box", radius, 0.1)


def test_kernel_derivative_norms():
    dx = 0.1
    k = build_kernel("triangle", 2 * dx, dx)
    # weights (2.5, 5, 2.5): total variation 2.5+2.5+2.5+2.5 = 10
    assert k.deriv_l1() == pytest.approx(10.0)
    assert k.second_deriv_l1() > 0.0
