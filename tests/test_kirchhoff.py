"""Interaction energy W, companion functional Phi, critical point search."""

import numpy as np
import pytest

from vortexpatch import (Domain, GreenEvaluator, HarmonicBackground,
                         background_from_flux, find_critical, kr_grad,
                         kr_hessian, kr_value, phi_value)
from vortexpatch.errors import ConfigError, DomainError, SingularityError
from vortexpatch.greens import TWO_PI, _complex, _hess
from vortexpatch.kirchhoff import (VortexSystem, check_subdomains, classify_hessian,
                                   interaction_table)

from conftest import random_disk_points, same_bits

D_PAIR = np.sqrt(np.sqrt(5.0) - 2.0)   # pair equilibrium distance on the unit disk


def mixed_system(rng=None):
    pos = [[0.3, 0.1], [-0.2, 0.4], [0.1, -0.5]]
    return VortexSystem([1.0, 0.7], [1.3], pos)


def vn_cos(t):
    return 0.3 * np.cos(t) + 0.1 * np.sin(2 * t)


@pytest.fixture(scope="module")
def q_cos(unit_disk):
    return background_from_flux(unit_disk, vn_cos)


@pytest.fixture(scope="module")
def ellipse_green():
    # semi-axes 1 and 0.8: the test points (|z| <= 0.6) stay about 18
    # sample spacings from the wall, where the trapezoid derivatives of H
    # are at rounding
    return GreenEvaluator(Domain.named("ellipse", n=512, a=1.0, b=0.8))


@pytest.fixture(scope="module", params=["disk_images", "disk_bie", "ellipse_green"],
                ids=["images", "bie", "ellipse"])
def green_q(request):
    """A Green evaluator and the vn-fourier background of vn_cos on its domain."""
    green = request.getfixturevalue(request.param)
    return green, background_from_flux(green.domain, vn_cos)


# ---------------------------------------------------------------------- #
#  termwise oracle: one Green call per vortex pair, the sign of each pair
#  term the product of the two vortices' signs
# ---------------------------------------------------------------------- #


def _oracle_value(vs, green, q):
    Z, kap, sgn = vs.positions, vs.kappas, vs.signs
    k = len(Z)
    total = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            total += sgn[i] * sgn[j] * kap[i] * kap[j] * green.green(Z[i], Z[j])
        total += 0.5 * kap[i]**2 * green.robin(Z[i])
        total -= sgn[i] * kap[i] * q.value(Z[i])   # + kappa * psi0, psi0 = -q
    return float(total)


def _oracle_grad(vs, green, q):
    Z, kap, sgn = vs.positions, vs.kappas, vs.signs
    k = len(Z)
    grad = np.zeros((k, 2))
    for i in range(k):
        for j in range(k):
            if j != i:
                grad[i] += sgn[i] * sgn[j] * kap[i] * kap[j] * green.green_grad_x(Z[i], Z[j])
        grad[i] += 0.5 * kap[i]**2 * green.robin_grad(Z[i])
        grad[i] -= sgn[i] * kap[i] * q.grad(Z[i])
    return grad.ravel()


def _oracle_hessian(vs, green, q):
    Z, kap, sgn = vs.positions, vs.kappas, vs.signs
    k = len(Z)
    hess = np.zeros((2 * k, 2 * k))
    for i in range(k):
        blk = 0.5 * kap[i]**2 * green.robin_hess(Z[i]) - sgn[i] * kap[i] * q.hessian(Z[i])
        for j in range(k):
            if j != i:
                blk += sgn[i] * sgn[j] * kap[i] * kap[j] * green.green_hess_xx(Z[i], Z[j])
                hess[2 * i:2 * i + 2, 2 * j:2 * j + 2] = (
                    sgn[i] * sgn[j] * kap[i] * kap[j] * green.green_hess_xy(Z[i], Z[j]))
        hess[2 * i:2 * i + 2, 2 * i:2 * i + 2] = blk
    return 0.5 * (hess + hess.T)


# ---------------------------------------------------------------------- #
#  values
# ---------------------------------------------------------------------- #


def test_single_vortex_center_value(disk_images, q_zero):
    vs = VortexSystem([1.0], [], [[0.0, 0.0]])
    assert abs(kr_value(vs, disk_images, q_zero)) < 1e-15


def test_permutation_symmetry(disk_images, q_zero):
    a = VortexSystem([1.0, 1.0], [], [[0.3, 0.1], [-0.2, 0.4]])
    b = VortexSystem([1.0, 1.0], [], [[-0.2, 0.4], [0.3, 0.1]])
    assert abs(kr_value(a, disk_images, q_zero) - kr_value(b, disk_images, q_zero)) < 1e-14


def test_mixed_pair_against_termwise_sum(disk_images, q_zero):
    # independent brute-force assembly from green/robin primitives
    vs = VortexSystem([1.0], [1.0], [[0.3, 0.0], [-0.3, 0.0]])
    zp, zm = np.array([0.3, 0.0]), np.array([-0.3, 0.0])
    oracle = (0.5 * disk_images.robin(zp) + 0.5 * disk_images.robin(zm)
              - disk_images.green(zp, zm))
    assert abs(kr_value(vs, disk_images, q_zero) - oracle) < 1e-14


def test_errors(disk_images, q_zero):
    with pytest.raises(SingularityError):
        kr_value(VortexSystem([1.0, 1.0], [], [[0.2, 0.1], [0.2, 0.1]]),
                 disk_images, q_zero)
    with pytest.raises(DomainError):
        kr_value(VortexSystem([1.0], [], [[1.5, 0.0]]), disk_images, q_zero)
    with pytest.raises(ConfigError):
        VortexSystem([-1.0], [], [[0.0, 0.0]])


# ---------------------------------------------------------------------- #
#  derivatives
# ---------------------------------------------------------------------- #


def test_gradient_zero_at_center(disk_images, q_zero):
    vs = VortexSystem([1.0], [], [[0.0, 0.0]])
    assert np.max(np.abs(kr_grad(vs, disk_images, q_zero))) < 1e-14


def test_gradient_matches_finite_differences(green_q):
    green, q = green_q
    rng = np.random.default_rng(2)
    for _ in range(3):
        pts = random_disk_points(rng, 3, rmax=0.6, min_sep=0.25)
        vs = VortexSystem([1.0, 0.7], [1.3], pts)
        g = kr_grad(vs, green, q)
        z0 = vs.positions.ravel()
        h = 1e-6
        fd = np.zeros_like(g)
        for i in range(len(z0)):
            zp, zm = z0.copy(), z0.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (kr_value(vs.with_positions(zp), green, q)
                     - kr_value(vs.with_positions(zm), green, q)) / (2 * h)
        assert np.max(np.abs(g - fd)) / np.max(np.abs(g)) < 1e-5


def test_hessian_symmetric_and_fd(green_q):
    green, q = green_q
    vs = mixed_system()
    H = kr_hessian(vs, green, q)
    assert np.max(np.abs(H - H.T)) < 1e-12
    z0 = vs.positions.ravel()
    h = 1e-6
    fd = np.zeros_like(H)
    for i in range(len(z0)):
        zp, zm = z0.copy(), z0.copy()
        zp[i] += h
        zm[i] -= h
        fd[:, i] = (kr_grad(vs.with_positions(zp), green, q)
                    - kr_grad(vs.with_positions(zm), green, q)) / (2 * h)
    assert np.max(np.abs(H - fd)) / np.max(np.abs(H)) < 1e-5


def test_kr_table_matches_termwise_oracle(green_q):
    # W, grad W and the Hessian from the signed interaction table against
    # the per-pair sums, on two + vortices and one - vortex
    green, q = green_q
    vs = mixed_system()
    for got, ref in ((kr_value(vs, green, q), _oracle_value(vs, green, q)),
                     (kr_grad(vs, green, q), _oracle_grad(vs, green, q)),
                     (kr_hessian(vs, green, q), _oracle_hessian(vs, green, q))):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    H = kr_hessian(vs, green, q)
    assert np.array_equal(H, H.T)


def test_strength_rescaling_invariance(disk_images, q_zero):
    # with q = 0, scaling all strengths by lam scales the gradient by lam^2
    vs1 = VortexSystem([1.0], [1.0], [[0.3, 0.05], [-0.28, -0.02]])
    vs2 = VortexSystem([2.5], [2.5], [[0.3, 0.05], [-0.28, -0.02]])
    g1 = kr_grad(vs1, disk_images, q_zero)
    g2 = kr_grad(vs2, disk_images, q_zero)
    assert np.max(np.abs(g2 - 2.5**2 * g1)) < 1e-12
    # and the critical points coincide
    r1 = find_critical(vs1, disk_images, q_zero)
    r2 = find_critical(vs2, disk_images, q_zero)
    assert np.max(np.abs(r1.z_star - r2.z_star)) < 1e-7


def test_rotation_invariance(disk_images, q_zero):
    vs = VortexSystem([1.0, 0.7], [1.3],
                      [[0.3, 0.1], [-0.2, 0.4], [0.1, -0.5]])
    w0 = kr_value(vs, disk_images, q_zero)
    rng = np.random.default_rng(9)
    for theta in rng.uniform(0, 2 * np.pi, 10):
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        vr = vs.with_positions(vs.positions @ R.T)
        assert abs(kr_value(vr, disk_images, q_zero) - w0) < 1e-10 * max(abs(w0), 1.0)


# ---------------------------------------------------------------------- #
#  Phi and the exact identity
# ---------------------------------------------------------------------- #


def test_phi_identity_random_configs(disk_images, q_cos):
    rng = np.random.default_rng(31)
    kap2 = 1.0**2 + 0.7**2 + 1.3**2
    target = np.pi * np.log(4.0) * kap2
    for _ in range(20):
        pts = random_disk_points(rng, 3, rmax=0.6, min_sep=0.3)
        vs = VortexSystem([1.0, 0.7], [1.3], pts)
        lhs = phi_value(vs, disk_images, q_cos) + 4 * np.pi**2 * kr_value(vs, disk_images, q_cos)
        assert abs(lhs - target) / abs(target) < 1e-10


def test_phi_identity_bie_backend(disk_bie, q_cos):
    vs = mixed_system()
    lhs = phi_value(vs, disk_bie, q_cos) + 4 * np.pi**2 * kr_value(vs, disk_bie, q_cos)
    target = np.pi * np.log(4.0) * (1.0 + 0.49 + 1.69)
    assert abs(lhs - target) / abs(target) < 1e-10


def test_phi_single_vortex_closed_form(disk_images, q_zero):
    # m=1, kappa=1, z=0, bigR=4: Phi = pi g(0,0) = pi ln 4 = -4 pi^2 W + pi ln 4
    vs = VortexSystem([1.0], [], [[0.0, 0.0]])
    assert abs(phi_value(vs, disk_images, q_zero) - np.pi * np.log(4.0)) < 1e-12


# ---------------------------------------------------------------------- #
#  critical points
# ---------------------------------------------------------------------- #


def test_single_vortex_critical_point(disk_images, q_zero):
    vs = VortexSystem([1.0], [], [[0.4, 0.2]])
    rep = find_critical(vs, disk_images, q_zero, z0=[[0.4, 0.2]])
    assert np.max(np.abs(rep.z_star)) < 1e-8
    assert rep.classification == "nondegenerate-max"
    assert rep.grad_norm <= 1e-10


def test_fixed_point_returns_immediately(disk_images, q_zero):
    vs = VortexSystem([1.0], [], [[0.0, 0.0]])
    rep = find_critical(vs, disk_images, q_zero, z0=[[0.0, 0.0]])
    assert rep.iterations <= 1
    assert np.max(np.abs(rep.z_star)) < 1e-12


def test_pair_equilibrium_bisection_oracle(disk_images, q_zero):
    # 1D reduced equation on the symmetric slice, solved by bisection
    def dW_dd(d):
        h = 1e-7
        def W(dd):
            vs = VortexSystem([1.0], [1.0], [[dd, 0.0], [-dd, 0.0]])
            return kr_value(vs, disk_images, q_zero)
        return (W(d + h) - W(d - h)) / (2 * h)

    lo, hi = 0.2, 0.8
    assert dW_dd(lo) * dW_dd(hi) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dW_dd(lo) * dW_dd(mid) <= 0:
            hi = mid
        else:
            lo = mid
    d_bisect = 0.5 * (lo + hi)
    assert abs(d_bisect - D_PAIR) < 1e-6

    vs = VortexSystem([1.0], [1.0], [[0.3, 0.0], [-0.3, 0.0]])
    rep = find_critical(vs, disk_images, q_zero, z0=[[0.3, 0.0], [-0.3, 0.0]])
    assert abs(rep.z_star[0, 0] - D_PAIR) < 1e-8
    assert abs(rep.z_star[1, 0] + D_PAIR) < 1e-8
    # the rotation orbit makes this critical point degenerate on the disk
    assert rep.classification == "degenerate"


def test_pair_with_background_nondegenerate(disk_images, unit_disk):
    # a background flux breaks the rotational symmetry
    q = background_from_flux(unit_disk, lambda t: 0.25 * np.cos(t))
    vs = VortexSystem([1.0], [1.0], [[0.45, 0.0], [-0.45, 0.0]])
    rep = find_critical(vs, disk_images, q, z0=[[0.45, 0.0], [-0.45, 0.0]])
    assert rep.converged
    assert rep.classification.startswith("nondegenerate")


def test_classify_hessian_thresholds():
    assert classify_hessian(np.array([1.0, 2.0])) == "nondegenerate-min"
    assert classify_hessian(np.array([-1.0, -2.0])) == "nondegenerate-max"
    assert classify_hessian(np.array([-1.0, 2.0])) == "nondegenerate-saddle"
    assert classify_hessian(np.array([1e-12, 2.0])) == "degenerate"


def test_subdomain_validation(unit_disk):
    vs = VortexSystem([1.0], [1.0], [[0.3, 0.0], [-0.3, 0.0]],
                      subdomain_radius=0.4)
    with pytest.raises(ConfigError):
        check_subdomains(vs, unit_disk)
    vs_ok = VortexSystem([1.0], [1.0], [[0.3, 0.0], [-0.3, 0.0]],
                         subdomain_radius=[0.2, 0.2])
    assert len(check_subdomains(vs_ok, unit_disk)) == 2


def test_table_evaluates_g_only_where_read(ellipse_green, q_cos, monkeypatch):
    # the gradient and Hessian of W read the interaction table's gradients
    # and signs only, so they make no H call (on the Nystrom backend, a
    # series or a barycentric sum per source); W itself reads g
    vs = VortexSystem([1.0], [1.3], [[0.3, 0.1], [-0.2, 0.4]])
    calls = []
    H = ellipse_green._b.H
    monkeypatch.setattr(ellipse_green._b, "H", lambda x, y: calls.append(y) or H(x, y))
    kr_grad(vs, ellipse_green, q_cos)
    kr_hessian(vs, ellipse_green, q_cos)
    assert calls == []
    kr_value(vs, ellipse_green, q_cos)
    assert len(calls) == 2


def _kr_hessian_from_table(vs, green, q):
    """kr_hessian as it was written when it read S from a whole interaction
    table (whose k g_grad_x calls it threw away)."""
    t = interaction_table(vs, green)
    Z, kap = vs.positions, vs.kappas
    k = len(Z)
    w = t.S * np.outer(kap, kap)
    hxx = np.stack([green.H_hess_xx(Z, z) for z in Z], axis=1)
    hxy = np.stack([green.H_hess_xy(Z, z) for z in Z], axis=1)
    off = ~np.eye(k, dtype=bool)
    d = np.where(off[..., None], Z[:, None, :] - Z[None, :, :], 1.0)
    lh = _hess(-1.0 / (TWO_PI * _complex(d)**2))
    diag = np.arange(k)
    blocks = w[..., None, None] * (lh + hxy)
    blocks[diag, diag] = (np.einsum("ij,ijab->iab", w, hxx - lh)
                          + kap[:, None, None]**2 * (hxx + hxy)[diag, diag]
                          - (vs.signs * kap)[:, None, None] * q.hessian(Z))
    hess = blocks.transpose(0, 2, 1, 3).reshape(2 * k, 2 * k)
    return 0.5 * (hess + hess.T)


def test_kr_hessian_makes_no_g_grad_call(green_q, monkeypatch):
    green, q = green_q
    vs = VortexSystem([1.0], [1.3], [[0.3, 0.1], [-0.2, 0.4]])
    ref = _kr_hessian_from_table(vs, green, q)
    calls = []
    g_grad_x = green.g_grad_x
    monkeypatch.setattr(green, "g_grad_x", lambda x, y: calls.append(y) or g_grad_x(x, y))
    assert same_bits(kr_hessian(vs, green, q), ref)
    assert calls == []
    # the positions are checked as the table checks them
    with pytest.raises(SingularityError):
        kr_hessian(VortexSystem([1.0], [1.0], [[0.2, 0.1], [0.2, 0.1]]), green, q)
    with pytest.raises(DomainError):
        kr_hessian(VortexSystem([1.0], [1.0], [[0.2, 0.1], [1.5, 0.0]]), green, q)
