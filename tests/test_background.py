"""Harmonic background q = -psi0 from prescribed boundary flux."""

import numpy as np
import pytest

from vortexpatch import Domain, HarmonicBackground, background_from_flux
from vortexpatch.errors import CompatibilityError

from conftest import random_disk_points


def test_zero_flux_gives_offset(unit_disk):
    q = background_from_flux(unit_disk, lambda t: 0.0, offset=0.7)
    assert q.representation == "zero"
    assert q.value(np.array([0.3, 0.2])) == 0.7
    assert np.all(q.grad(np.array([0.3, 0.2])) == 0.0)


def test_cos_flux_gives_linear_stream(unit_disk):
    # v_n = cos(theta) on the unit disk -> q = -x2 up to sign conventions.
    # The orientation is fixed by the acceptance requirement that the
    # reconstructed velocity (d2 psi, -d1 psi) reproduces v_n on the
    # boundary; with that orientation psi0 = +int v_n ds and q = -psi0.
    q = background_from_flux(unit_disk, lambda t: np.cos(t))
    rng = np.random.default_rng(4)
    pts = random_disk_points(rng, 10)
    assert np.max(np.abs(q.value(pts) + pts[:, 1])) < 1e-12
    g = q.grad(pts)
    assert np.max(np.abs(g - np.array([0.0, -1.0]))) < 1e-12


def test_disk_series_drops_negligible_tail():
    # v_n = 0.1 cos t on the 1/16 disk: only the zeta^1 coefficient survives.
    # Against the untrimmed 255-term series (built here from the same FFT)
    # the value moves by at most 2 ulp of max|q|; the gradient by at most
    # 2 ulp of |grad q| up to 0.9 R and, at the rim, where the dropped tail
    # is largest, toward the exact constant gradient (0, -0.1).
    d = Domain.disk(1.0 / 16.0)
    q = background_from_flux(d, lambda t: 0.1 * np.cos(t))
    assert len(q.coeffs) == 2
    n = 512
    t = 2 * np.pi * np.arange(n) / n
    spec = np.fft.fft(0.1 * np.cos(t)) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.where(k == 0, 0.0, d.radius * spec / (1j * k))
    full = np.zeros(n // 2, dtype=complex)
    full[1:] = 2.0 * psi[1:n // 2]
    q_full = HarmonicBackground("fourier-on-disk", -full, d.center, d.radius)

    rng = np.random.default_rng(11)
    r = d.radius * np.sqrt(rng.random(20000))
    th = 2 * np.pi * rng.random(20000)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    v_full = q_full.value(pts)
    assert np.max(np.abs(q.value(pts) - v_full)) <= 2 * np.spacing(np.max(np.abs(v_full)))
    g, g_full = q.grad(pts), q_full.grad(pts)
    ulp = np.spacing(0.1)
    inner = r <= 0.9 * d.radius
    assert np.max(np.abs(g - g_full)[inner]) <= 2 * ulp
    exact = np.array([0.0, -0.1])
    assert np.max(np.abs(g - exact)) <= 2 * ulp
    assert np.max(np.abs(g - exact)) <= np.max(np.abs(g_full - exact))
    assert np.all(q.hessian(pts) == 0.0)


def test_nonzero_net_flux_rejected(unit_disk):
    with pytest.raises(CompatibilityError):
        background_from_flux(unit_disk, lambda t: 1.0)
    with pytest.raises(CompatibilityError):
        background_from_flux(unit_disk, np.array([]))


def test_harmonicity_and_mean_zero(unit_disk):
    q = background_from_flux(unit_disk, lambda t: 0.4 * np.cos(2 * t) - 0.2 * np.sin(3 * t))
    # FD Laplacian vanishes
    x = np.array([0.21, -0.33])
    h = 1e-4
    stencil = [x + (h, 0), x - (h, 0), x + (0, h), x - (0, h)]
    lap = (sum(q.value(np.array(s)) for s in stencil) - 4 * q.value(x)) / h**2
    assert abs(lap) < 1e-6
    # analytic Hessian is traceless (harmonic) and symmetric
    H = q.hessian(x)
    assert abs(H[0, 0] + H[1, 1]) < 1e-12
    assert abs(H[0, 1] - H[1, 0]) < 1e-12
    # mean-zero: sample average over the disk is small
    rng = np.random.default_rng(0)
    pts = []
    while len(pts) < 4000:
        c = rng.uniform(-1, 1, 2)
        if np.hypot(*c) < 1.0:
            pts.append(c)
    mean = np.mean(q.value(np.array(pts)))
    assert abs(mean) < 5e-3


def test_gradient_matches_fd(unit_disk):
    q = background_from_flux(unit_disk, lambda t: 0.3 * np.cos(t) + 0.1 * np.sin(2 * t))
    x = np.array([0.4, 0.1])
    h = 1e-6
    eye = np.eye(2)
    fd = np.array([(q.value(x + h * eye[i]) - q.value(x - h * eye[i])) / (2 * h)
                   for i in range(2)])
    assert np.max(np.abs(fd - q.grad(x))) < 1e-8


def test_small_disk_scaling():
    # v_n = A cos(theta) on a disk of radius r0 -> q = -A x2 (independent of r0)
    dom = Domain.disk(1.0 / 16.0)
    q = background_from_flux(dom, lambda t: 0.1 * np.cos(t))
    x = np.array([0.02, -0.013])
    assert abs(q.value(x) + 0.1 * x[1]) < 1e-14


def test_parametric_domain_background():
    dom = Domain.named("ellipse", n=256, a=1.0, b=0.7)
    # boundary flux of the uniform stream psi0 = x2 (q = -x2):
    # v_n = d(psi0)/dtau = psi0'(t)/|x'(t)| along the ellipse parametrization
    t = 2 * np.pi * np.arange(256) / 256
    speed = np.hypot(-np.sin(t), 0.7 * np.cos(t))
    vn = 0.7 * np.cos(t) / speed
    q = background_from_flux(dom, vn)
    assert q.representation == "harmonic-polynomial"
    pts = np.array([[0.3, 0.2], [-0.5, -0.1], [0.0, 0.4]])
    vals = q.value(pts)
    # q = -x2 up to the mean-zero constant; compare differences
    diffs = vals + pts[:, 1]
    assert np.max(np.abs(diffs - diffs[0])) < 1e-6


@pytest.mark.parametrize("wobble, mode, vn", [
    (0.12, 3, lambda t: 0.3 * np.sin(2 * t) + 0.1 * np.sin(t)),
    (0.3, 5, lambda t: 0.2 * np.sin(3 * t) + 0.1 * np.cos(t))], ids=["blob3", "blob5"])
def test_parametric_background_has_zero_mean(wobble, mode, vn):
    # the mean of q over r <= 1 + wobble cos(mode theta), by Gauss-Legendre in
    # r and the trapezoid rule in theta: both exact to rounding for the
    # polynomial q, so the mean is zero to rounding
    q = background_from_flux(Domain.named("blob", wobble=wobble, mode=mode), vn)
    x, wx = np.polynomial.legendre.leggauss(64)
    th = 2 * np.pi * np.arange(1024) / 1024
    rho = 1.0 + wobble * np.cos(mode * th)
    r = 0.5 * (x[:, None] + 1.0) * rho
    weights = 0.5 * wx[:, None] * rho * r
    vals = q.value(np.stack((r * np.cos(th), r * np.sin(th)), axis=-1))
    assert abs((vals * weights).sum() / weights.sum()) <= 1e-12 * np.max(np.abs(vals))


def test_zero_background_class():
    q = HarmonicBackground.zero(offset=0.0)
    pts = np.zeros((3, 2))
    assert np.all(q.value(pts) == 0.0)
    assert q.value(np.array([0.1, 0.2])) == 0.0
    assert q.hessian(np.array([0.1, 0.2])).shape == (2, 2)
