"""Masked grids, the embedded-boundary Laplacian and its inverse."""

import tracemalloc

import numpy as np
import pytest

from vortexpatch import Domain, build_grid
from vortexpatch.errors import ResolutionError
from vortexpatch.grid import check_resolution, gradient, interpolate, GridField

from conftest import same_bits, sparse_operator


@pytest.fixture(scope="module")
def disk_grid(unit_disk):
    return build_grid(unit_disk, h=0.02)


def test_mask_and_arms(disk_grid):
    spec = disk_grid
    assert spec.n_interior > 0
    # all interior points are inside the domain
    assert np.all(np.hypot(spec.points[:, 0], spec.points[:, 1]) < 1.0)
    # arms are in (0, h]
    assert np.all(spec.arms > 0)
    assert np.all(spec.arms <= spec.h + 1e-15)
    # cut arms exactly where a neighbor is missing
    cut = spec.neighbors < 0
    assert np.all(spec.arms[cut] < spec.h)
    assert np.all(spec.arms[~cut] == spec.h)
    # boundary-adjacent flag matches
    assert np.array_equal(spec.is_adjacent, np.any(cut, axis=1))


def test_arm_crossing_on_disk(disk_grid):
    # every cut arm ends on the unit circle: its length is the chord
    # sqrt(1 - across^2) - along, with along/across the node's coordinates
    # along and across the arm, clipped to (0, h] as build_grid clips it
    spec = disk_grid
    k, d = np.nonzero(spec.neighbors < 0)
    assert len(k) > 0
    direction = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], float)[d]
    p = spec.points[k]
    along = (p * direction).sum(axis=1)
    across = p[:, 0] * direction[:, 1] - p[:, 1] * direction[:, 0]
    chord = np.clip(np.sqrt(1.0 - across**2) - along, 1e-12 * spec.h, spec.h)
    assert np.max(np.abs(spec.arms[k, d] - chord)) <= 1e-12 * spec.h


def test_operator_polynomial_exactness(disk_grid):
    apply = disk_grid.solver.apply
    pts = disk_grid.points
    deep = ~disk_grid.is_adjacent
    quad = pts[:, 0]**2 + pts[:, 1]**2
    # the stencil represents -lap: -lap(x^2 + y^2) = -4
    assert np.max(np.abs(apply(quad)[deep] + 4.0)) < 1e-8
    harm = pts[:, 0]**2 - pts[:, 1]**2
    assert np.max(np.abs(apply(harm)[deep])) < 1e-8
    lin = 2.0 * pts[:, 0] - 0.7 * pts[:, 1]
    assert np.max(np.abs(apply(lin)[deep])) < 1e-8
    # and it is the sparse reference matrix of the tests
    v = np.random.default_rng(1).standard_normal(disk_grid.n_interior)
    ref = sparse_operator(disk_grid) @ v
    assert np.max(np.abs(apply(v) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_manufactured_solution(disk_grid):
    # u* = 1 - |x|^2 solves -lap u = 4 with zero boundary data
    pts = disk_grid.points
    ustar = 1.0 - pts[:, 0]**2 - pts[:, 1]**2
    u = disk_grid.solver.solve(np.full(disk_grid.n_interior, 4.0))
    assert np.max(np.abs(u - ustar)) < 1e-10


def test_second_order_convergence(unit_disk):
    # smooth manufactured solution: u = sin(pi x) sin(pi y) restricted
    errs = []
    for h in (0.04, 0.02):
        spec = build_grid(unit_disk, h=h)
        pts = spec.points
        ustar = (1.0 - pts[:, 0]**2 - pts[:, 1]**2) * np.exp(pts[:, 0])
        # -lap u* computed symbolically
        x, y = pts[:, 0], pts[:, 1]
        lap = np.exp(x) * (1 - x**2 - y**2 - 4 * x - 4)
        u = spec.solver.solve(-lap)
        errs.append(np.max(np.abs(u - ustar)))
    rate = np.log2(errs[0] / errs[1])
    assert rate > 1.7


def test_discrete_maximum_principle(disk_grid):
    rng = np.random.default_rng(0)
    rhs = rng.random(disk_grid.n_interior)
    u = disk_grid.solver.solve(rhs)
    assert np.all(u > -1e-14)


def test_resolution_guard():
    with pytest.raises(ResolutionError):
        check_resolution(1.0e-2, 3.0e-2)   # h > s/4
    with pytest.warns(UserWarning):
        check_resolution(5.1e-3, 3.0e-2)   # s/8 < h <= s/4
    check_resolution(3.0e-3, 3.0e-2)       # fine


def test_gradient_exact_for_linear(disk_grid):
    pts = disk_grid.points
    lin = 3.0 * pts[:, 0] - 2.0 * pts[:, 1]
    g = gradient(GridField(disk_grid, lin))
    deep = ~disk_grid.is_adjacent
    assert np.max(np.abs(g[deep, 0] - 3.0)) < 1e-10
    assert np.max(np.abs(g[deep, 1] + 2.0)) < 1e-10


def _gradient_where_form(field):
    """grid.gradient as it was written before the padded gather: each
    missing neighbour read through np.where."""
    spec, v = field.spec, field.values
    out = np.zeros((spec.n_interior, 2))
    arms, nbr = spec.arms, spec.neighbors
    for axis, (dp, dm) in enumerate(((0, 1), (2, 3))):
        vp = np.where(nbr[:, dp] >= 0, v[np.maximum(nbr[:, dp], 0)], 0.0)
        vm = np.where(nbr[:, dm] >= 0, v[np.maximum(nbr[:, dm], 0)], 0.0)
        hp = arms[:, dp]
        hm = arms[:, dm]
        out[:, axis] = (vp * hm**2 - vm * hp**2 + v * (hp**2 - hm**2)) / (hp * hm * (hp + hm))
    return out


@pytest.mark.parametrize("domain", [lambda: Domain.disk(1.0),
                                    lambda: Domain.named("ellipse", a=1.0, b=0.6),
                                    lambda: Domain.named("blob", n=256, mode=5)],
                         ids=["disk", "ellipse", "blob5"])
def test_gradient_is_the_where_form(domain):
    spec = build_grid(domain(), h=0.03)
    x, y = spec.points.T
    for v in (np.exp(x) * np.sin(3.0 * y) - 0.5,
              np.random.default_rng(2).standard_normal(spec.n_interior)):
        fld = GridField(spec, v)
        assert same_bits(gradient(fld), _gradient_where_form(fld))


# tracemalloc peak of gradient on the grid below (100,197 nodes) before the
# padded gather: 5,611,952 bytes
GRADIENT_PEAK_BYTES = 5_611_952


def test_gradient_memory_is_bounded():
    spec = build_grid(Domain.disk(1.0, big_r=4.0), h=0.0056)
    assert spec.n_interior == 100_197
    x, y = spec.points.T
    fld = GridField(spec, np.cos(3.0 * x) * np.sin(2.0 * y))
    gradient(fld)
    tracemalloc.start()
    try:
        gradient(fld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= GRADIENT_PEAK_BYTES

def test_interpolation_and_weights(disk_grid):
    pts = disk_grid.points
    lin = 1.0 + 0.5 * pts[:, 0] + 0.25 * pts[:, 1]
    fld = GridField(disk_grid, lin)
    probe = np.array([[0.111, 0.077], [-0.3, 0.22]])
    vals = interpolate(fld, probe)
    expect = 1.0 + 0.5 * probe[:, 0] + 0.25 * probe[:, 1]
    assert np.max(np.abs(vals - expect)) < 1e-12
    # cell weights sum to the disk area at the O(h) boundary-quadrature order
    assert abs(disk_grid.cell_weights.sum() - np.pi) < 3.0 * disk_grid.h
    # formed once per grid and shared, so read-only
    assert disk_grid.cell_weights is disk_grid.cell_weights
    assert not disk_grid.cell_weights.flags.writeable


# ---------------------------------------------------------------------- #
#  the capacitance solver against SuperLU on the sparse reference matrix
# ---------------------------------------------------------------------- #

R0 = 1.0 / 16.0


@pytest.fixture(scope="module", params=["disk", "ellipse", "blob"])
def solver_case(request):
    """A grid of about 20k nodes on the 1/16 disk, the benchmark ellipse or
    a blob of radius R0, its SuperLU reference and two node sets: a core
    about an off-center point, and one at the wall that meets the
    boundary-adjacent rows."""
    import scipy.sparse.linalg as spla
    domain = {"disk": lambda: Domain.disk(R0),
              "ellipse": lambda: Domain.named("ellipse", a=0.0625, b=0.0375),
              "blob": lambda: Domain.named("blob", n=256, radius=R0)}[request.param]()
    spec = build_grid(domain, R0 / 80.0)
    pts = spec.points
    rows = spec.solver.rows
    center = np.flatnonzero(np.hypot(pts[:, 0] - 0.2 * R0, pts[:, 1] + 0.1 * R0) < 0.1 * R0)
    wall = pts[rows[np.argmax(pts[rows, 0])]]
    edge = np.flatnonzero(np.hypot(*(pts - wall).T) < 0.08 * R0)
    return spec, spla.splu(sparse_operator(spec)), center, edge


def _rel(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


def test_grid_solver_schur_complement_matches_superlu(solver_case):
    spec, lu, center, edge = solver_case
    h2 = spec.h**2
    assert np.isin(edge, spec.solver.rows).sum() >= 3
    for T in (center, edge):
        X, M = spec.solver.core(T)
        unit = np.zeros((spec.n_interior, T.size))
        unit[T, np.arange(T.size)] = 1.0
        block = lu.solve(unit)[T]                      # A^-1 [T, T]
        assert _rel(h2 * M, block) <= 1e-12
        # the Schur complement of A on T
        assert _rel(np.linalg.inv(M) / h2, np.linalg.inv(block)) <= 1e-12
        # the field of a load on T
        g = np.random.default_rng(T.size).standard_normal(T.size)
        load = np.zeros(spec.n_interior)
        load[T] = g / h2
        assert _rel(spec.solver.core_field(T, X, g), lu.solve(load)) <= 1e-12


def test_grid_solver_solve_matches_superlu(solver_case):
    spec, lu, _, _ = solver_case
    f = np.random.default_rng(3).standard_normal(spec.n_interior)
    assert _rel(spec.solver.solve(f), lu.solve(f)) <= 1e-12
