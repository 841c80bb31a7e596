"""Sample-based geometry on parametric domains and the Nystrom regular
part of the Green function, each against an in-file oracle of the
straightforward formula or an independent backend."""

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
#  Nystrom regular part: the barycentric Cauchy rule up to the wall
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


def _fine_trapezoid(ge, x, y, m=2**20):
    """H(x, y) as the plain double-layer trapezoid sum over the curve and
    the density both resampled to m points, one target at a time."""
    b = ge._b
    mu_f = _upsample(b._densities(y, 0)["mu"], m).real
    z_f = _upsample(b.curve.x[:, 0] + 1j * b.curve.x[:, 1], m)
    dz_f = np.fft.ifft(1j * np.fft.fftfreq(m, 1.0 / m) * np.fft.fft(z_f))
    # (x - b).n |b'| / |x - b|^2 = Im[b' / (z - b)]
    return np.array([mu_f @ (dz_f / (z - z_f)).imag / m for z in x[:, 0] + 1j * x[:, 1]])


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
    name, params = SERIES_SHAPES[shape]
    dom = Domain.named(name, n=n, **params)
    ge = GreenEvaluator(dom, order=n)
    c, nrm = dom.curve.x, dom.curve.normal
    x = _between_samples(dom, np.logspace(np.log10(3e-4), -2, 12))
    wall = c[n // 4] - 0.05 * nrm[n // 4]
    for y in (np.array([0.1, 0.05]), wall):
        targets = np.vstack((x, _disk_targets(y, 0.04, 6, n)))
        assert np.max(np.abs(ge.H(targets, y) - _fine_trapezoid(ge, targets, y))) <= 1e-12
    # a source 0.05 from the wall takes no series: R/2 is below six spacings
    assert ge._b._local(wall, ge._b._densities(wall, 0)) == (0.0, None)


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
    ge.H(np.array([[0.0, 0.0]]), y)      # density solve outside the trace
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
    # a fresh source on a few targets outside its series disk: the density
    # and the boundary trace are each one product with a matrix of the
    # curve, formed once (building the trace from (n, n) complex
    # temporaries peaks at about 11 MB)
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


def _trace_ref(b, mu):
    """Interior boundary values of the Cauchy integral of mu by the
    subtracted-singularity trapezoid sum, one (n, n) table at a time."""
    z = b.curve.x[:, 0] + 1j * b.curve.x[:, 1]
    dz = b.curve.dx[:, 0] + 1j * b.curve.dx[:, 1]
    dt = TWO_PI / b.n
    diff = z[None, :] - z[:, None]
    np.fill_diagonal(diff, 1.0)
    s = ((mu[None, :] - mu[:, None]) * dz[None, :] * dt / diff).sum(1)
    dmu = np.fft.ifft(1j * np.fft.fftfreq(b.n, 1.0 / b.n) * np.fft.fft(mu)).real
    return mu + (s + dmu * dt) / (1j * TWO_PI)


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("shape", ["thin-ellipse", "nonconvex-blob"])
def test_nystrom_matrix_and_trace_from_the_cauchy_matrix(shape, n, monkeypatch):
    # the Nystrom matrix the backend inverts is the double-layer trapezoid
    # matrix with the curvature limit on its diagonal, and the trace of a
    # density is the subtracted-singularity sum
    name, params = SERIES_SHAPES[shape]
    dom = Domain.named(name, n=n, **params)
    inverted = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.copy()) or inv(a))
    ge = GreenEvaluator(dom, order=n)
    monkeypatch.undo()
    b = ge._b
    c, nrm = dom.curve.x, dom.curve.normal
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = _dlp_ref(c, c, nrm) * b.w[None, :]
    np.fill_diagonal(ref, -dom.curve.curvature * b.w / (2.0 * TWO_PI))
    ref -= 0.5 * np.eye(n)
    assert len(inverted) == 1
    assert np.max(np.abs(inverted[0] - ref)) <= 1e-15 * np.max(np.abs(ref))
    for y in (np.array([0.1, 0.05]), c[n // 4] - 0.05 * nrm[n // 4]):
        ent = b._densities(y, 0)
        err = np.max(np.abs(b._trace(ent) - _trace_ref(b, ent["mu"])))
        assert err <= 1e-14 * np.max(np.abs(ent["mu"]))


# ---------------------------------------------------------------------- #
#  Nystrom regular part: local expansion about the source
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
    # H(., y) of these two has singularities close enough outside the wall
    # that 28 terms of the series are not enough
    "thin-ellipse": ("ellipse", dict(a=1.0, b=0.3)),
    "nonconvex-blob": ("blob", dict(radius=1.0, wobble=0.3, mode=5)),
}


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("shape", list(SERIES_SHAPES))
def test_H_series_matches_far_sum(shape, n):
    name, params = SERIES_SHAPES[shape]
    dom = Domain.named(name, n=n, **params)
    ge = GreenEvaluator(dom, order=n)
    min_radius = ge._b.series_min_radius
    c, nrm = dom.curve.x, dom.curve.normal
    wall = c[n // 4] - 2.1 * min_radius * nrm[n // 4]
    used = 0
    for y in (np.zeros(2), np.array([0.2, -0.05]), wall):
        ent = ge._b._densities(y, 0)
        rho, _ = ge._b._local(y, ent)
        if rho == 0.0:
            assert 0.5 * dom.boundary_distance(y) < min_radius
            continue
        assert rho >= min_radius
        used += 1
        x = _disk_targets(y, rho, 4000, n)
        ref = _dlp_ref(x, c, nrm) @ (ent["mu"] * ge._b.w)
        assert np.max(np.abs(ge.H(x, y) - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
    assert used >= 2


def test_H_series_targets_skip_kernel_and_distance(ellipse, monkeypatch):
    # H locates no point: the series disk is a radius test, and every
    # target outside it takes the barycentric sum
    ge = GreenEvaluator(ellipse, order=256)
    y = np.array([0.1, 0.05])
    rho, _ = ge._b._local(y, ge._b._densities(y, 0))
    calls = {"rows": 0, "geometry": 0}
    barycentric = ge._b._eval

    def counted_eval(targets, g):
        calls["rows"] += len(targets)
        return barycentric(targets, g)

    def counted(method):
        def wrapper(*args, **kwargs):
            calls["geometry"] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ge._b, "_eval", counted_eval)
    for name in ("boundary_distance", "signed_distance", "contains", "_parity_inside"):
        monkeypatch.setattr(ellipse, name, counted(getattr(ellipse, name)))
    ge.H(_disk_targets(y, rho, 50_000, 2), y)
    assert calls == {"rows": 0, "geometry": 0}
    # a target just outside the disk and one on the wall take the sum
    ge.H(np.vstack((y + [1.001 * rho, 0.0], ellipse.curve.x[:1])), y)
    assert calls == {"rows": 2, "geometry": 0}
