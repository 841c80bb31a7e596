"""Sample-based geometry on parametric domains and the Nystrom regular
part of the Green function, each against an in-file oracle of the
straightforward formula or an independent backend."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from vortexpatch import Domain, GreenEvaluator, build_grid
from vortexpatch.greens import CHUNK
from vortexpatch.grid import ARM_DIRS

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def ellipse():
    return Domain.named("ellipse", n=256, a=1.0, b=0.6)


@pytest.fixture(scope="module")
def blob():
    return Domain.named("blob", n=256, radius=1.0, wobble=0.12, mode=3)


def _signed_distance_ref(dom, x):
    """Distance to the nearest boundary sample, signed by the winding number,
    over all (N, 2) points at once."""
    c = dom.curve.x
    diff = x[:, None, :] - c[None, :, :]
    dist = np.sqrt((diff**2).sum(-1)).min(axis=-1)
    zb = c[:, 0] + 1j * c[:, 1]
    zp = x[:, 0] + 1j * x[:, 1]
    ang = np.angle(zb[None, :] - zp[:, None])
    dang = np.diff(np.concatenate([ang, ang[:, :1]], axis=1), axis=1)
    dang = (dang + np.pi) % (2 * np.pi) - np.pi
    inside = np.abs(dang.sum(axis=1)) / (2 * np.pi) > 0.5
    return np.where(inside, dist, -dist)


def _scalar_crossing(dom, p, direction, h):
    """Bisection of one cut arm with one point test per step."""
    lo, hi = 0.0, h
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dom.contains(p + mid * direction):
            lo = mid
        else:
            hi = mid
    return float(np.clip(0.5 * (lo + hi), 1e-12 * h, h))


# ---------------------------------------------------------------------- #
#  inside test and distance
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("shape", ["ellipse", "blob"])
def test_chunked_distance_matches_unchunked(shape, ellipse, blob):
    dom = {"ellipse": ellipse, "blob": blob}[shape]
    rng = np.random.default_rng(3)
    lo, hi = dom.bounding_box(pad=0.3)
    n = 2 * CHUNK + 38                     # three blocks, the last one partial
    x = lo + (hi - lo) * rng.random((n, 2))
    ref = _signed_distance_ref(dom, x)
    assert 0 < np.count_nonzero(ref < 0) < n   # inside and outside points
    assert np.array_equal(dom.signed_distance(x), ref)
    assert np.array_equal(dom.boundary_distance(x), np.abs(ref))
    assert np.array_equal(dom.contains(x), ref > 0)
    assert np.array_equal(dom.contains(x, tol=0.05), ref > 0.05)
    # batch shape (a, b, 2) maps to (a, b)
    m = n - n % 8
    grid = x[:m].reshape(8, -1, 2)
    assert np.array_equal(dom.signed_distance(grid), ref[:m].reshape(8, -1))
    assert np.array_equal(dom.contains(grid), (ref[:m] > 0).reshape(8, -1))
    # a single point gives a scalar
    assert dom.signed_distance(x[5]) == ref[5]
    assert bool(dom.contains(x[5])) == bool(ref[5] > 0)


def test_contains_memory_is_bounded():
    # the (points x samples) temporaries of 50,000 points against 512
    # samples peak at about 820 MB when built at once
    dom = Domain.named("ellipse", n=512)
    x = np.random.default_rng(0).uniform(-1.1, 1.1, (50_000, 2))
    tracemalloc.start()
    try:
        inside = dom.contains(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < np.count_nonzero(inside) < len(x)
    assert peak < 40e6


def test_distance_memory_is_bounded():
    # the nearest-sample scan runs over blocks of CHUNK targets: at once,
    # 50,000 points against 512 samples would take 205 MB per temporary
    dom = Domain.named("ellipse", n=512)
    x = np.random.default_rng(1).uniform(-1.1, 1.1, (50_000, 2))
    tracemalloc.start()
    try:
        dist = dom.boundary_distance(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.shape == (len(x),) and np.all(dist >= 0)
    assert peak < 40e6


@pytest.mark.parametrize("n", [512, 4096])
@pytest.mark.parametrize("shape", ["ellipse", "nonconvex-blob"])
def test_diameter_is_the_largest_sample_distance(shape, n):
    # the blocked scan gives the per-sample formula's value exactly; all
    # pairs at once would take 0.7 GB at 4,096 samples
    name, params = SERIES_SHAPES[shape]
    tracemalloc.start()
    try:
        dom = Domain.named(name, n=n, **params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    c = dom.curve.x
    assert dom.diameter == float(max(np.sqrt(((c - p)**2).sum(-1)).max() for p in c))
    assert peak < 4e6


@pytest.fixture(scope="module")
def nonconvex():
    return Domain.named("blob", n=256, radius=1.0, wobble=0.3, mode=5)


def _edges_in_band(dom, y):
    """Edges of the sample polygon whose half-open y-span holds y."""
    y0 = dom.curve.x[:, 1]
    y1 = np.roll(y0, -1)
    return np.count_nonzero((np.minimum(y0, y1) <= y) & (y < np.maximum(y0, y1)))


@pytest.mark.parametrize("shape", ["ellipse", "blob", "nonconvex"])
def test_parity_inside_matches_winding_oracle(shape, ellipse, blob, nonconvex):
    dom = {"ellipse": ellipse, "blob": blob, "nonconvex": nonconvex}[shape]
    h = 0.05
    # the lattice build_grid masks
    spec = build_grid(dom, h)
    nx, ny = spec.shape
    X, Y = np.meshgrid(spec.origin[0] + h * np.arange(nx), spec.origin[1] + h * np.arange(ny),
                       indexing="ij")
    lattice = np.column_stack((X.ravel(), Y.ravel()))
    # the mean grid of background_from_flux: its edges sit exactly on the
    # extreme sample coordinates
    lo, hi = dom.bounding_box()
    X, Y = np.meshgrid(np.linspace(lo[0], hi[0], 160), np.linspace(lo[1], hi[1], 160),
                       indexing="ij")
    mean_grid = np.column_stack((X.ravel(), Y.ravel()))
    assert np.any(mean_grid[:, 1] == dom.curve.x[:, 1].max())
    assert np.any(mean_grid[:, 0] == dom.curve.x[:, 0].min())
    # 1e-9 inside and outside along the normal at every sample
    c, nrm = dom.curve.x, dom.curve.normal
    hugging = np.vstack((c - 1e-9 * nrm, c + 1e-9 * nrm))
    # rays through every sample: the half-open rule counts a vertex once
    X, Y = np.meshgrid(np.linspace(lo[0] - 0.1, hi[0] + 0.1, 11), c[:, 1], indexing="ij")
    through = np.column_stack((X.ravel(), Y.ravel()))
    for x in (lattice, mean_grid, hugging, through):
        ref = _signed_distance_ref(dom, x) > 0
        assert 0 < np.count_nonzero(ref) < len(x)
        assert np.array_equal(dom.contains(x), ref)
    assert np.all(dom.contains(hugging[:len(c)])) and not np.any(dom.contains(hugging[len(c):]))
    # batch shape (a, b, 2) maps to (a, b)
    ref = _signed_distance_ref(dom, lattice[:nx * (ny // 2)]) > 0
    assert np.array_equal(dom.contains(lattice[:nx * (ny // 2)].reshape(nx, -1, 2)),
                          ref.reshape(nx, -1))
    if shape == "nonconvex":
        assert max(_edges_in_band(dom, y) for y in np.unique(mean_grid[:, 1])) >= 4


def test_contains_cost_does_not_scale_with_samples():
    # the parity test visits the edges whose y-span holds each point, about
    # two per point on an ellipse: no (points x samples) temporary, which
    # is 32 MB for one block of 1,024 points against 4,096 samples
    dom = Domain.named("ellipse", n=4096)
    x = np.random.default_rng(4).uniform(-1.1, 1.1, (20_000, 2))
    tracemalloc.start()
    try:
        inside = dom.contains(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < np.count_nonzero(inside) < len(x)
    assert peak < 10e6


# ---------------------------------------------------------------------- #
#  cut arms of a parametric domain
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("shape", ["ellipse", "blob"])
def test_batched_arms_match_scalar_bisection(shape, ellipse, blob):
    dom = {"ellipse": ellipse, "blob": blob}[shape]
    h = 0.05
    spec = build_grid(dom, h)
    kk, dd = np.nonzero(spec.neighbors < 0)
    assert len(kk) > 100
    direction = ARM_DIRS.astype(float)
    ref = np.array([_scalar_crossing(dom, spec.points[k], direction[d], h)
                    for k, d in zip(kk, dd)])
    assert np.array_equal(spec.arms[kk, dd], ref)
    assert np.all(spec.arms[spec.neighbors >= 0] == h)
    # each crossing lies on the sample polygon: within half a chord of a sample
    ends = spec.points[kk] + ref[:, None] * direction[dd]
    chord = np.hypot(*(dom.curve.x - np.roll(dom.curve.x, 1, axis=0)).T).max()
    assert np.max(np.abs(dom.signed_distance(ends))) <= 0.5 * chord


# ---------------------------------------------------------------------- #
#  Nystrom regular part: one conformal map per curve, up to the wall
# ---------------------------------------------------------------------- #


def _dlp_ref(targets, bpts, bnormals):
    d = targets[:, None, :] - bpts[None, :, :]
    r2 = (d**2).sum(-1)
    c = (d * bnormals[None, :, :]).sum(-1)
    return c / (TWO_PI * r2)


def _upsample(v, m):
    """Trigonometric interpolant of the periodic samples v at m points."""
    n = len(v)
    spec = np.fft.fft(v)
    pad = np.zeros(m, dtype=complex)
    pad[:n // 2] = spec[:n // 2]
    pad[-(n // 2):] = spec[-(n // 2):]
    return np.fft.ifft(pad) * (m / n)


@functools.lru_cache(maxsize=None)
def _maps(shape, n):
    """The domain, its map on the n samples and the map built on the curve
    resampled to 4n points: the reference, whose discretization error is
    far below the n-sample map's."""
    name, params = SERIES_SHAPES[shape]
    dom = Domain.named(name, n=n, **params)
    return dom, GreenEvaluator(dom, order=n), GreenEvaluator(dom, order=4 * n)


def _between_samples(dom, depths):
    """Targets at the given depths inside the wall along the inward normal,
    at the curve points half-way between consecutive samples."""
    n = dom.curve.n
    z2 = _upsample(dom.curve.x[:, 0] + 1j * dom.curve.x[:, 1], 2 * n)
    dz2 = np.fft.ifft(1j * np.fft.fftfreq(2 * n, 1.0 / (2 * n)) * np.fft.fft(z2))
    j = 2 * np.arange(len(depths)) * (n // len(depths)) + 1
    z = z2[j] + 1j * depths * dz2[j] / np.abs(dz2[j])
    return np.column_stack((z.real, z.imag))


def test_H_matches_images_on_disk():
    dom = Domain.disk(1.0 / 16.0)
    images, nystrom = GreenEvaluator(dom), GreenEvaluator(dom, backend="boundary-integral")
    bp, nrm = dom.boundary_points(96)
    depth = np.repeat(np.logspace(-7, -2, 6), 16)
    x = np.vstack((bp - depth[:, None] * nrm, _disk_targets(np.zeros(2), 0.06, 200, 9)))
    for y in (np.array([0.0, -0.001]), np.array([0.03, 0.02]), 0.045 * nrm[7]):
        assert np.max(np.abs(nystrom.H(x, y) - images.H(x, y))) <= 1e-13


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("shape", ["thin-ellipse", "nonconvex-blob"])
def test_H_matches_fine_trapezoid(shape, n):
    # H up to 3e-4 from the wall against the map of the 4x-resampled curve
    dom, ge, fine = _maps(shape, n)
    c, nrm = dom.curve.x, dom.curve.normal
    x = _between_samples(dom, np.logspace(np.log10(3e-4), -2, 12))
    wall = c[n // 4] - 0.05 * nrm[n // 4]
    for y in (np.array([0.1, 0.05]), wall):
        targets = np.vstack((x, _disk_targets(y, 0.04, 6, n)))
        assert np.max(np.abs(ge.H(targets, y) - fine.H(targets, y))) <= 1e-12
    # a source 0.05 from the wall takes no series: R/2 is below six spacings
    assert ge._b._source(complex(*wall))[0] == 0.0


@pytest.mark.parametrize("shape", ["thin-ellipse", "nonconvex-blob"])
def test_H_on_boundary_samples_is_the_boundary_data(shape):
    name, params = SERIES_SHAPES[shape]
    dom = Domain.named(name, n=512, **params)
    ge = GreenEvaluator(dom)
    c, nrm = dom.curve.x, dom.curve.normal
    for y in (np.array([0.1, 0.05]), c[128] - 0.05 * nrm[128]):
        data = np.log(np.hypot(*(c - y).T)) / TWO_PI
        assert np.max(np.abs(ge.H(c, y) - data)) <= 1e-13
        hugging = np.vstack([c - d * nrm for d in (1e-300, 1e-15, 1e-9)])
        assert np.all(np.isfinite(ge.H(hugging, y)))


def test_H_memory_is_bounded():
    # 20,000 targets against 512 samples: the unchunked distance and kernel
    # temporaries peak at about 490 MB
    dom = Domain.named("ellipse", n=512)
    ge = GreenEvaluator(dom)
    y = np.array([0.1, 0.05])
    t = TWO_PI * np.random.default_rng(1).random(20_000)
    r = 0.8 * np.sqrt(np.random.default_rng(2).random(20_000))
    x = np.column_stack((r * np.cos(t), 0.6 * r * np.sin(t)))
    tracemalloc.start()
    try:
        vals = ge.H(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(vals))
    assert peak < 40e6
    # a fresh source on a few targets outside its series disk: the source's
    # Taylor coefficients are one (SERIES_TERMS, n) table, and no (n, n)
    # matrix is formed per source (one is 4 MB at 512 samples)
    y = np.array([-0.2, 0.1])
    x = 0.9 * dom.curve.x[::128]
    tracemalloc.start()
    try:
        vals = ge.H(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(vals))
    assert peak < 2e6


def test_H_derivatives_memory_is_bounded():
    # 4,096 targets against 512 samples: per-sample real kernels of the
    # gradient and Hessian, (targets, samples, 2[, 2]), peak at 176-336 MB
    dom = Domain.named("ellipse", n=512)
    ge = GreenEvaluator(dom)
    y = np.array([0.1, 0.05])
    t = TWO_PI * np.random.default_rng(3).random(4096)
    r = 0.8 * np.sqrt(np.random.default_rng(4).random(4096))
    x = np.column_stack((r * np.cos(t), 0.6 * r * np.sin(t)))
    for name in ("H_grad_x", "H_hess_xx", "H_hess_xy"):
        tracemalloc.start()
        try:
            vals = getattr(ge, name)(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(vals))
        assert peak < 8e6, name


def _trace_ref(curve, mu):
    """Interior boundary values of the Cauchy integral of mu by the
    subtracted-singularity trapezoid sum, one (n, n) table at a time."""
    z = curve.x[:, 0] + 1j * curve.x[:, 1]
    dz = curve.dx[:, 0] + 1j * curve.dx[:, 1]
    dt = TWO_PI / curve.n
    diff = z[None, :] - z[:, None]
    np.fill_diagonal(diff, 1.0)
    s = ((mu[None, :] - mu[:, None]) * dz[None, :] * dt / diff).sum(1)
    dmu = np.fft.ifft(1j * np.fft.fftfreq(curve.n, 1.0 / curve.n) * np.fft.fft(mu)).real
    return mu + (s + dmu * dt) / (1j * TWO_PI)


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("shape", ["thin-ellipse", "nonconvex-blob"])
def test_nystrom_matrix_and_trace_from_the_cauchy_matrix(shape, n, monkeypatch):
    # the one linear system of a curve is the double-layer trapezoid matrix
    # with the curvature limit on its diagonal, for the data of a source z0
    # inside; the map's boundary values are (zeta - z0) exp(2 pi g) of the
    # subtracted-singularity trace g of its density; no source solves again
    name, params = SERIES_SHAPES[shape]
    dom = Domain.named(name, n=n, **params)
    solved = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append((a.copy(), b.copy()))
                        or solve(a, b))
    monkeypatch.setattr(np.linalg, "inv", None)
    ge = GreenEvaluator(dom, order=n)
    c, nrm = dom.curve.x, dom.curve.normal
    for y in (np.array([0.1, 0.05]), c[n // 4] - 0.05 * nrm[n // 4]):
        x = np.vstack((0.8 * c[::16], y))
        ge.H(x, y), ge.H_grad_x(x, y), ge.H_hess_xx(x, y), ge.H_hess_xy(x, y)
    monkeypatch.undo()
    assert len(solved) == 1
    (a, rhs), b, z0 = solved[0], ge._b, dom.center
    w = dom.curve.speed * TWO_PI / n
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = _dlp_ref(c, c, nrm) * w[None, :]
    np.fill_diagonal(ref, -dom.curve.curvature * w / (2.0 * TWO_PI))
    ref -= 0.5 * np.eye(n)
    assert np.max(np.abs(a - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert np.array_equal(rhs, np.log(np.abs(b.zeta - (z0[0] + 1j * z0[1]))) / TWO_PI)
    mu = solve(a, rhs)
    F = (b.zeta - (z0[0] + 1j * z0[1])) * np.exp(TWO_PI * _trace_ref(dom.curve, mu))
    assert np.max(np.abs(b.F - F)) <= 1e-14
    # the map sends the samples to the unit circle
    assert np.max(np.abs(np.abs(b.F) - 1.0)) <= 1e-13


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("shape", ["thin-ellipse", "nonconvex-blob"])
def test_H_derivatives_are_the_double_layer_sums(shape, n):
    # f', f'' and df'/dy of the closed forms, at targets in and beyond the
    # series disk of a deep source and about a source 0.05 from the wall,
    # against the map of the 4x-resampled curve (largest gaps measured:
    # 1.0e-10 at 256 samples, the Hessian on the thin ellipse's series disk,
    # and 3.4e-12 at 512)
    dom, ge, fine = _maps(shape, n)
    tol = {256: 1e-9, 512: 1e-11}[n]
    c, nrm = dom.curve.x, dom.curve.normal
    far = 0.8 * c[::4]
    for y in (np.array([0.1, 0.05]), c[n // 4] - 0.05 * nrm[n // 4]):
        rho = ge._b._source(complex(*y))[0]
        x = np.vstack((_disk_targets(y, max(rho, 0.04), 200, n), far))
        inside = np.hypot(*(x - y).T) < rho
        assert rho == 0.0 or 0 < np.count_nonzero(inside) < len(x)
        for name in ("H_grad_x", "H_hess_xx", "H_hess_xy"):
            got, ref = getattr(ge, name)(x, y), getattr(fine, name)(x, y)
            assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref)), name


# ---------------------------------------------------------------------- #
#  Nystrom regular part: the series about the source
# ---------------------------------------------------------------------- #


def _disk_targets(y, rho, n, seed):
    """n targets over |x - y| <= 0.999 rho: the source, eight on the rim and
    the rest uniform in area."""
    rng = np.random.default_rng(seed)
    r = 0.999 * rho * np.sqrt(rng.random(n))
    r[0], r[1:9] = 0.0, 0.999 * rho
    t = TWO_PI * rng.random(n)
    return y + np.column_stack((r * np.cos(t), r * np.sin(t)))


SERIES_SHAPES = {
    "ellipse": ("ellipse", dict(a=1.0, b=0.6)),
    "blob": ("blob", dict(radius=1.0, wobble=0.12, mode=3)),
    # F of these two has singularities close enough outside the wall that
    # 28 terms of the series are not enough
    "thin-ellipse": ("ellipse", dict(a=1.0, b=0.3)),
    "nonconvex-blob": ("blob", dict(radius=1.0, wobble=0.3, mode=5)),
}


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("shape", list(SERIES_SHAPES))
def test_H_series_matches_far_sum(shape, n):
    # on its disk the series is the trapezoid Cauchy sum of F,
    # sum_j c_j / (zeta_j - z), whose quotient D = (F(z) - F(w)) / (z - w)
    # and D_w = (D - F'(w)) / (z - w) have derivatives free of cancellation,
    # d^k D_w^l / dz^k = k! l! sum_j c_j / ((zeta_j - z)^(k+1) (zeta_j - w)^(l+1));
    # each is compared on the scale max|D| / rho^(k+l) of its series
    name, params = SERIES_SHAPES[shape]
    dom = Domain.named(name, n=n, **params)
    ge = GreenEvaluator(dom, order=n)
    b = ge._b
    min_radius = b.series_min_radius
    c, nrm = dom.curve.x, dom.curve.normal
    cj = b.F * b.dzeta / (1j * n)
    wall = c[n // 4] - 2.1 * min_radius * nrm[n // 4]
    used = 0
    for y in (np.zeros(2), np.array([0.2, -0.05]), wall):
        w = complex(*y)
        rho, coef, _ = b._source(w)
        if rho == 0.0:
            assert 0.5 * dom.boundary_distance(y) < min_radius
            continue
        assert rho >= min_radius
        used += 1
        x = _disk_targets(y, rho, 4000, n)
        z = x[:, 0] + 1j * x[:, 1]
        rz, rw = 1.0 / (b.zeta[None, :] - z[:, None]), 1.0 / (b.zeta - w)
        fw = cj @ rw
        sums = [[(rz**(k + 1) * rw**(l + 1)) @ cj * math.factorial(k) * math.factorial(l)
                 for k in range(3)] for l in range(2)]
        ref = np.log(np.abs((1.0 - np.conj(fw) * (fw + (z - w) * sums[0][0]))
                            / sums[0][0])) / TWO_PI
        assert np.max(np.abs(ge.H(x, y) - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
        _, _, d, e = b._parts(x, y, 2, y_pair=True)
        scale = np.max(np.abs(sums[0][0]))
        # the z^2 derivative carries the tail's (k - 1)(k - 2) weights
        for got, want, m, tol in ((d[0], sums[0][0], 0, 1e-14), (d[1], sums[0][1], 1, 1e-14),
                                  (d[2], sums[0][2], 2, 1e-13), (e[0], sums[1][0], 1, 1e-14),
                                  (e[1], sums[1][1], 2, 1e-14)):
            assert np.max(np.abs(got - want)) <= tol * scale / rho**m
    assert used >= 2


def test_H_series_targets_skip_kernel_and_distance(ellipse, monkeypatch):
    # H locates no point: the series disk is a radius test, and every
    # target outside it takes the barycentric sum
    ge = GreenEvaluator(ellipse, order=256)
    y = np.array([0.1, 0.05])
    rho = ge._b._source(complex(*y))[0]
    calls = {"rows": 0, "geometry": 0}
    barycentric = ge._b._bary

    def counted_bary(z, data, order):
        calls["rows"] += len(z)
        return barycentric(z, data, order)

    def counted(method):
        def wrapper(*args, **kwargs):
            calls["geometry"] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ge._b, "_bary", counted_bary)
    for name in ("boundary_distance", "signed_distance", "contains", "_parity_inside"):
        monkeypatch.setattr(ellipse, name, counted(getattr(ellipse, name)))
    ge.H(_disk_targets(y, rho, 50_000, 2), y)
    assert calls == {"rows": 0, "geometry": 0}
    # a target just outside the disk and one on the wall take the sum
    ge.H(np.vstack((y + [1.001 * rho, 0.0], ellipse.curve.x[:1])), y)
    assert calls == {"rows": 2, "geometry": 0}
