"""Green function, Robin function and domain geometry tests.

The method-of-images closed forms on the disk are the oracle for the
boundary-integral backend; gradients and Hessians are checked against
central finite differences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexpatch import Domain, GreenEvaluator
from vortexpatch.errors import ConfigError, DomainError, SingularityError

from conftest import random_disk_points, same_bits

TWO_PI = 2.0 * np.pi


def images_green_disk(x, y):
    """Independent images formula G = (1/2pi) ln(|x-y*||y|/|x-y|), y* = y/|y|^2."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    ystar = y / (y @ y)
    return np.log(np.hypot(*(x - ystar)) * np.hypot(*y) / np.hypot(*(x - y))) / TWO_PI


# ---------------------------------------------------------------------- #
#  values
# ---------------------------------------------------------------------- #


def test_green_center_value(disk_images):
    # x at the center, source at (0.5, 0): pure log of the image distance
    val = disk_images.green((0.0, 0.0), (0.5, 0.0))
    assert abs(val - np.log(2.0) / TWO_PI) < 1e-14


def test_green_matches_independent_images_formula(disk_images):
    rng = np.random.default_rng(7)
    pts = random_disk_points(rng, 12)
    for i in range(0, 10, 2):
        x, y = pts[i], pts[i + 1]
        assert abs(disk_images.green(x, y) - images_green_disk(x, y)) < 1e-13


def test_green_symmetry_images(disk_images):
    rng = np.random.default_rng(3)
    pts = random_disk_points(rng, 40)
    for i in range(0, 40, 2):
        x, y = pts[i], pts[i + 1]
        assert abs(disk_images.green(x, y) - disk_images.green(y, x)) < 1e-10


def test_green_positive_inside(disk_images):
    rng = np.random.default_rng(11)
    pts = random_disk_points(rng, 30)
    for i in range(0, 30, 2):
        assert disk_images.green(pts[i], pts[i + 1]) > 0.0


def test_green_boundary_decay_monotone(disk_images):
    # approach along a radius: the last 1e-3 of the approach decays to zero
    y = np.array([0.2, 0.1])
    radii = np.array([0.997, 0.998, 0.999, 0.9999])
    vals = np.array([disk_images.green((r, 0.0), y) for r in radii])
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1e-3


def test_robin_disk_values(disk_images):
    assert abs(disk_images.robin((0.0, 0.0))) < 1e-15
    expect = np.log(0.75) / TWO_PI
    assert abs(disk_images.robin((0.5, 0.0)) - expect) < 1e-14
    # rotational symmetry
    assert abs(disk_images.robin((0.0, 0.5)) - expect) < 1e-14


def test_g_value_and_boundary_condition(disk_images):
    # g(z, z) at the center equals ln(bigR) since H(0,0) = 0
    assert abs(disk_images.g((0.0, 0.0), (0.0, 0.0)) - np.log(4.0)) < 1e-14
    # on the boundary g = ln(bigR/|x-z|)
    z = np.array([0.3, -0.2])
    for t in np.linspace(0, TWO_PI, 9)[:-1]:
        xb = 0.999999999 * np.array([np.cos(t), np.sin(t)])
        expect = np.log(4.0 / np.hypot(*(xb - z)))
        assert abs(disk_images.g(xb, z) - expect) < 1e-7


def test_g_harmonicity_mean_value(disk_images):
    # 4-point mean around an interior point reproduces the center value to O(r^2)
    z = np.zeros(2)
    x = np.array([0.3, 0.0])
    r = 1e-3
    probes = x + r * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], float)
    mean = np.mean([disk_images.g(p, z) for p in probes])
    assert abs(mean - disk_images.g(x, z)) < 10.0 * r**2


def test_barg_identity_and_symmetry(disk_images):
    rng = np.random.default_rng(5)
    pts = random_disk_points(rng, 10)
    for i in range(0, 10, 2):
        x, y = pts[i], pts[i + 1]
        bg = disk_images.bar_g(x, y)
        assert abs(bg - TWO_PI * disk_images.green(x, y)) < 1e-12
        assert abs(bg - disk_images.bar_g(y, x)) < 1e-10
    # closed-form check: x = 0, y = (0.5, 0) -> ln 2
    assert abs(disk_images.bar_g((0.0, 0.0), (0.5, 0.0)) - np.log(2.0)) < 1e-13


def _images_H_reduction_form(c, rho, x, y):
    """The images H as it was written with length-2 reductions."""
    xt = x - c
    yt = y - c
    xx = (xt**2).sum(-1)
    yy = (yt**2).sum(-1)
    xy = (xt * yt).sum(-1)
    r2 = rho**2
    q2 = xx * yy - 2.0 * r2 * xy + r2**2
    return np.log(q2) / (2.0 * TWO_PI) - np.log(rho) / TWO_PI


@pytest.mark.parametrize("center, rho", [((0.0, 0.0), 1.0), ((0.03, -0.02), 1.0 / 16.0)],
                         ids=["unit", "off-centre"])
def test_images_H_is_the_reduction_form(center, rho):
    ge = GreenEvaluator(Domain.disk(rho, center=center, big_r=4.0), backend="images")
    c = np.asarray(center, dtype=float)
    x = c + rho * random_disk_points(np.random.default_rng(8), 40, rmax=0.95, min_sep=0.01)
    # the source at the centre, off centre and near the wall; each source
    # is also a target
    for y in (c, c + rho * np.array([0.3, -0.4]), c + rho * np.array([0.0, 0.999])):
        xs = np.vstack((x, y))
        ref = _images_H_reduction_form(c, rho, xs, y)
        assert same_bits(ge.H(xs, y), ref)
        assert same_bits(ge.H(y, y), ref[-1])


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7),
       st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
def test_green_symmetry_property(x1, x2, y1, y2):
    x = np.array([x1, x2])
    y = np.array([y1, y2])
    if np.hypot(*x) > 0.9 or np.hypot(*y) > 0.9 or np.hypot(*(x - y)) < 1e-3:
        return
    ge = GreenEvaluator(Domain.disk(1.0, big_r=4.0), backend="images")
    assert abs(ge.green(x, y) - ge.green(y, x)) < 1e-12


# ---------------------------------------------------------------------- #
#  errors
# ---------------------------------------------------------------------- #


def test_green_domain_and_singularity_errors(disk_images):
    with pytest.raises(DomainError):
        disk_images.green((1.5, 0.0), (0.2, 0.0))
    with pytest.raises(DomainError):
        disk_images.green((0.2, 0.0), (1.5, 0.0))
    for f in (disk_images.green, disk_images.green_grad_x, disk_images.green_hess_xx,
              disk_images.green_hess_xy):
        with pytest.raises(SingularityError):
            f((0.2, 0.0), (0.2, 0.0))
        with pytest.raises(DomainError):
            f((1.5, 0.0), (0.2, 0.0))
    with pytest.raises(DomainError):
        disk_images.robin((2.0, 0.0))


def test_images_backend_requires_disk():
    dom = Domain.named("ellipse", n=128)
    with pytest.raises(ConfigError):
        GreenEvaluator(dom, backend="images")


# ---------------------------------------------------------------------- #
#  cross-backend agreement (disk oracle for the BIE machinery)
# ---------------------------------------------------------------------- #


def test_cross_backend_agreement(disk_images, disk_bie):
    rng = np.random.default_rng(17)
    pts = random_disk_points(rng, 100)
    worst = {"G": 0.0, "H": 0.0, "g": 0.0, "H_grad_x": 0.0, "H_hess_xx": 0.0, "H_hess_xy": 0.0}
    for i in range(0, 100, 2):
        x, y = pts[i], pts[i + 1]
        worst["G"] = max(worst["G"], abs(disk_bie.green(x, y) - disk_images.green(x, y)))
        worst["H"] = max(worst["H"], abs(disk_bie.robin(x) - disk_images.robin(x)))
        worst["g"] = max(worst["g"], abs(disk_bie.g(x, y) - disk_images.g(x, y)))
        # the backends' derivative sums, through the one interface
        for name in ("H_grad_x", "H_hess_xx", "H_hess_xy"):
            gap = getattr(disk_bie, name)(x, y) - getattr(disk_images, name)(x, y)
            worst[name] = max(worst[name], float(np.max(np.abs(gap))))
    assert worst["G"] < 1e-6
    assert worst["H"] < 1e-6
    assert worst["g"] < 1e-6
    # measured below 1e-15 (256 samples, points within 0.85 of the center)
    assert worst["H_grad_x"] < 1e-12
    assert worst["H_hess_xx"] < 1e-12
    assert worst["H_hess_xy"] < 1e-12


def test_bie_symmetry_tolerance(disk_bie):
    rng = np.random.default_rng(23)
    pts = random_disk_points(rng, 40)
    for i in range(0, 40, 2):
        x, y = pts[i], pts[i + 1]
        assert abs(disk_bie.green(x, y) - disk_bie.green(y, x)) < 1e-6


def test_bie_boundary_decay_near_field():
    # near-boundary evaluation keeps |G| small at 1e-4 offsets
    ge = GreenEvaluator(Domain.disk(1.0, big_r=4.0), backend="boundary-integral",
                        order=256)
    y = np.array([0.2, 0.1])
    x = np.array([1.0 - 1e-4, 0.0])
    assert abs(ge.green(x, y)) < 1e-3


def test_gradients_match_finite_differences(disk_images, disk_bie):
    h = 1e-5
    x = np.array([0.31, -0.18])
    z = np.array([-0.25, 0.4])
    eye = np.eye(2)
    for ge in (disk_images, disk_bie):
        for func, grad in ((ge.green, ge.green_grad_x), (ge.g, ge.g_grad_x)):
            fd = np.array([(func(x + h * eye[i], z) - func(x - h * eye[i], z)) / (2 * h)
                           for i in range(2)])
            an = grad(x, z)
            assert np.max(np.abs(fd - an)) / np.max(np.abs(an)) < 1e-5


def test_hessians_match_finite_differences(disk_images, disk_bie):
    h = 1e-5
    x = np.array([0.31, -0.18])
    z = np.array([-0.25, 0.4])
    eye = np.eye(2)
    for ge in (disk_images, disk_bie):
        fd_xx = np.array([[(ge.green_grad_x(x + h * eye[j], z)[i]
                            - ge.green_grad_x(x - h * eye[j], z)[i]) / (2 * h)
                           for j in range(2)] for i in range(2)])
        assert np.max(np.abs(fd_xx - ge.green_hess_xx(x, z))) < 1e-6, ge.backend
        fd_xy = np.array([[(ge.green_grad_x(x, z + h * eye[j])[i]
                            - ge.green_grad_x(x, z - h * eye[j])[i]) / (2 * h)
                           for j in range(2)] for i in range(2)])
        assert np.max(np.abs(fd_xy - ge.green_hess_xy(x, z))) < 1e-6, ge.backend


def test_parametric_domain_green_basics():
    # ellipse: symmetry and boundary decay of the BIE Green function
    dom = Domain.named("ellipse", n=256, a=1.0, b=0.6)
    ge = GreenEvaluator(dom, order=256)
    x = np.array([0.3, 0.1])
    y = np.array([-0.4, -0.15])
    assert abs(ge.green(x, y) - ge.green(y, x)) < 1e-8
    assert ge.green(x, y) > 0
    xb = np.array([0.0, 0.6 * 0.995])   # near the top of the ellipse
    assert abs(ge.green(xb, y)) < 5e-2

    # g boundary condition on the ellipse boundary samples
    bp, _ = dom.boundary_points(16)
    inner = dom.center + (bp - dom.center) * 0.9999
    z = np.array([0.2, 0.05])
    for xbp, xin in zip(bp, inner):
        expect = np.log(dom.big_r / np.hypot(*(xbp - z)))
        assert abs(ge.g(xin, z) - expect) < 1e-3


def test_domain_winding_and_distance():
    dom = Domain.named("blob", n=256, radius=1.0, wobble=0.1, mode=4)
    assert dom.contains(np.array([0.0, 0.0]))
    assert not dom.contains(np.array([1.4, 0.0]))
    assert dom.signed_distance(np.array([0.0, 0.0])) > 0.5
    assert dom.signed_distance(np.array([2.0, 0.0])) < 0
