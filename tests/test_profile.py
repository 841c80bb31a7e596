"""Radial ground-state profile: Pohozaev identities, independent integrator
oracles, scaling consistency, glued whole-plane profile."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from vortexpatch import limit_profile_eval, solve_profile
from vortexpatch.errors import SolvabilityError, VortexPatchError
from vortexpatch.profile import _integrate, _ode_residual


def rk4_shoot(p, h=2e-4, alpha=1.0):
    """Independent fixed-step RK4 shoot from psi(0) = alpha; the crossing is
    re-integrated with a 256x finer step so the slope there is sharp."""
    def f(r, y):
        return np.array([y[1], -y[1] / r - max(y[0], 0.0)**p])

    def rk4_until_crossing(r, y, h):
        prev_r, prev_y = r, y.copy()
        while y[0] > 0:
            prev_r, prev_y = r, y.copy()
            k1 = f(r, y)
            k2 = f(r + h / 2, y + h / 2 * k1)
            k3 = f(r + h / 2, y + h / 2 * k2)
            k4 = f(r + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            r += h
        return prev_r, prev_y, r, y

    r = 1e-6
    y = np.array([alpha - alpha**p * r**2 / 4.0, -alpha**p * r / 2.0])
    prev_r, prev_y, r, y = rk4_until_crossing(r, y, h)
    prev_r, prev_y, r, y = rk4_until_crossing(prev_r, prev_y.copy(), h / 256.0)
    t = prev_y[0] / (prev_y[0] - y[0])
    r0 = prev_r + t * (h / 256.0)
    dpsi0 = prev_y[1] + t * (y[1] - prev_y[1])
    return r0, dpsi0


def dop853_profile(p):
    """The shoot by scipy's DOP853 (rtol 1e-13) from r = 1e-6, its zero found
    by an event and the table read off its dense output."""
    r_start = 1e-6
    y0 = [1.0 - r_start**2 / 4.0 + p * r_start**4 / 64.0,
          -r_start / 2.0 + p * r_start**3 / 16.0, np.pi * r_start**2, np.pi * r_start**2]

    def rhs(r, y):
        psi = max(y[0], 0.0)
        return [y[1], -y[1] / r - psi**p, 2.0 * np.pi * r * psi**p, 2.0 * np.pi * r * psi**(p + 1)]

    def hit_zero(r, y):
        return y[0]
    hit_zero.terminal = True
    hit_zero.direction = -1

    sol = solve_ivp(rhs, [r_start, 100.0], y0, method="DOP853", rtol=1e-13, atol=1e-14,
                    events=hit_zero, dense_output=True)
    r0 = float(sol.t_events[0][0])
    _, dpsi, ip, ip1 = sol.y_events[0][0]
    alpha = 2.0 / (p - 1.0)
    n = 4096
    t = 0.5 * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1))) * r0
    psi, dpsi_t = sol.sol(np.maximum(t, r_start))[:2]
    series = t < r_start
    psi[series] = 1.0 - t[series]**2 / 4.0
    dpsi_t[series] = -t[series] / 2.0
    return dict(r0=r0, slope_at_one=r0**(alpha + 1.0) * dpsi, phi0=r0**alpha,
                int_phi_p=r0**(alpha * p - 2.0) * ip, int_phi_p1=r0**(alpha * (p + 1.0) - 2.0) * ip1,
                phi=r0**alpha * psi, dphi=r0**(alpha + 1.0) * dpsi_t)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_profile_matches_dop853(profiles, p):
    rp = profiles[p]
    ref = dop853_profile(p)
    assert abs(_integrate(p)[0] - ref["r0"]) <= 1e-10 * ref["r0"]
    for key in ("slope_at_one", "phi0", "int_phi_p", "int_phi_p1"):
        assert abs(getattr(rp, key) - ref[key]) <= 1e-10 * abs(ref[key]), key
    for key in ("phi", "dphi"):
        assert np.max(np.abs(getattr(rp, key) - ref[key])) <= 1e-10 * np.max(np.abs(ref[key])), key


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_phi_at_matches_pchip(profiles, p):
    rp = profiles[p]
    pchip = PchipInterpolator(rp.r, rp.phi)
    x = np.concatenate([np.random.default_rng(5).random(10_000), rp.r])
    assert np.max(np.abs(rp.phi_at(x) - pchip(x))) <= 1e-9 * rp.phi0
    assert rp.phi_at(0.0) == rp.phi0 and rp.phi_at(1.0) == 0.0


@pytest.mark.parametrize("p", [1.38, 1.5, 2.0, 3.0, 4.0, 6.0, 6.5])
def test_accepted_exponents(p):
    rp = solve_profile(p)
    assert _ode_residual(rp) <= 1e-4
    assert max(rp.pohozaev_residuals()) < 1e-8


@pytest.mark.parametrize("p", [1.37, 7.0])
def test_exponents_outside_the_range_raise(p):
    # the table residual crosses its 1e-4 tol just outside 1.38 <= p <= 6.5
    with pytest.raises(VortexPatchError, match="table residual"):
        solve_profile(p)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_pohozaev_identities(profiles, p):
    rp = profiles[p]
    s = abs(rp.slope_at_one)
    assert abs(rp.int_phi_p - 2 * np.pi * s) / (2 * np.pi * s) < 1e-8
    expect = np.pi * (p + 1) / 2 * s**2
    assert abs(rp.int_phi_p1 - expect) / expect < 1e-8


def test_slope_against_independent_integrator(profiles):
    rp = profiles[2.0]
    r0, dpsi0 = rk4_shoot(2.0)
    alpha = 2.0 / (2.0 - 1.0)
    slope_oracle = r0**(alpha + 1.0) * dpsi0
    assert abs(rp.slope_at_one - slope_oracle) < 1e-9 * abs(slope_oracle) + 1e-9


def test_boundary_and_symmetry_conditions(profiles):
    for rp in profiles.values():
        assert rp.phi[-1] == 0.0
        assert abs(rp.dphi[0]) < 1e-12
        assert rp.phi0 > 0
        assert rp.slope_at_one < 0
        assert np.all(np.diff(rp.phi) <= 1e-12)  # strictly decreasing table


def test_ode_residual_small(profiles):
    for rp in profiles.values():
        assert _ode_residual(rp) < 1e-4


def test_scaling_consistency(profiles):
    # shooting from a different height and rescaling by the exact similarity
    # reproduces the same normalized profile
    rp = profiles[2.0]
    p = 2.0
    r0a, dpa = rk4_shoot(p, alpha=1.0)
    r0b, dpb = rk4_shoot(p, alpha=2.0)
    alpha_exp = 2.0 / (p - 1.0)
    slope_a = r0a**(alpha_exp + 1.0) * dpa
    slope_b = 2.0**((p + 1.0) / 2.0 / 1.0)  # alpha^( (p+1)(p-1)/... ) see below
    # similarity: psi_alpha(r) = alpha psi(alpha^{(p-1)/2} r), so both shoots
    # rescale to the same profile; compare the normalized slopes directly
    slope_b = r0b**(alpha_exp + 1.0) * dpb
    assert abs(slope_a - slope_b) < 1e-7 * abs(slope_a)
    assert abs(slope_a - rp.slope_at_one) < 1e-7 * abs(slope_a)


def test_slope_continuity_in_p(profiles):
    slopes = [abs(profiles[p].slope_at_one) for p in (1.5, 2.0, 3.0)]
    # no wild jumps between tabulated exponents (monotone decreasing here)
    assert slopes[0] > slopes[1] > slopes[2]


def test_parameter_errors():
    with pytest.raises(SolvabilityError):
        solve_profile(1.0)
    with pytest.raises(SolvabilityError):
        solve_profile(0.5)
    with pytest.raises(SolvabilityError):
        solve_profile(2.0, tol=-1.0)


def test_limit_profile_gluing(profiles):
    rp = profiles[2.0]
    # zero at the gluing circle from both branches
    assert limit_profile_eval(rp, np.array([1.0, 0.0])) == 0.0
    assert abs(limit_profile_eval(rp, np.array([1.0 + 1e-12, 0.0]))) < 1e-10
    # one-sided radial derivatives both equal phi'(1)
    h = 1e-7
    inner = (limit_profile_eval(rp, np.array([1.0, 0.0]))
             - limit_profile_eval(rp, np.array([1.0 - h, 0.0]))) / h
    outer = (limit_profile_eval(rp, np.array([1.0 + h, 0.0]))
             - limit_profile_eval(rp, np.array([1.0, 0.0]))) / h
    assert abs(inner - rp.slope_at_one) < 1e-4
    assert abs(outer - rp.slope_at_one) < 1e-4
    # ln e = 1
    assert abs(limit_profile_eval(rp, np.array([np.e, 0.0])) - rp.slope_at_one) < 1e-13


def test_limit_profile_weak_equation(profiles):
    # -lap w = w_+^p on a grid away from the gluing circle
    rp = profiles[2.0]
    h = 2e-3
    for center in ((0.35, 0.2), (1.6, 0.9)):
        c = np.array(center)
        stencil = [c, c + (h, 0), c - (h, 0), c + (0, h), c - (0, h)]
        vals = [limit_profile_eval(rp, s) for s in stencil]
        lap = (sum(vals[1:]) - 4 * vals[0]) / h**2
        rhs = max(vals[0], 0.0)**2.0
        assert abs(-lap - rhs) < 1e-4 * max(1.0, abs(rhs))
