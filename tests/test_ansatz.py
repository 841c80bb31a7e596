"""Core radii, plateau levels, the coupled system and the composite field."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from vortexpatch import (Domain, GreenEvaluator, HarmonicBackground,
                         background_from_flux, solve_core_system, solve_s,
                         w_delta_eval)
import vortexpatch.ansatz as ansatz
from vortexpatch.ansatz import (AnsatzField, _glue_root, activation_level, ansatz_tilt,
                                core_residuals, delta_from_eps, glue_residual,
                                refine_positions, support_predict)
from vortexpatch.diagnostics import ansatz_energy_expansion
from vortexpatch.errors import (ConvergenceError, DomainError, SingularityError,
                                SolvabilityError)
from vortexpatch.kirchhoff import VortexSystem, interaction_table, phi_value

from conftest import same_bits


@pytest.fixture(scope="module")
def ge10():
    return GreenEvaluator(Domain.disk(1.0, big_r=10.0))


# ---------------------------------------------------------------------- #
#  single-core machinery
# ---------------------------------------------------------------------- #


def test_w_delta_continuity_at_core_radius(profiles, disk_images):
    rp = profiles[2.0]
    delta, a, big_r = 1e-4, 1.2, 4.0
    s = solve_s(delta, a, big_r, rp)
    z = np.array([0.1, -0.2])
    inner = w_delta_eval(delta, a, s, z, rp, big_r, z + np.array([s * (1 - 1e-13), 0]))
    outer = w_delta_eval(delta, a, s, z, rp, big_r, z + np.array([s * (1 + 1e-13), 0]))
    assert abs(inner - a) < 1e-9
    assert abs(outer - a) < 1e-9
    # vanishes at |x - z| = bigR
    edge = w_delta_eval(delta, a, s, z, rp, big_r, z + np.array([big_r, 0.0]))
    assert abs(edge) < 1e-14
    with pytest.raises(DomainError):
        w_delta_eval(delta, a, s, z, rp, big_r, z + np.array([big_r * 1.01, 0.0]))



def _w_delta_where_form(delta, a, s, z, rp, big_r, x):
    """w_delta_eval as it was written before it took only each point's own
    side of r = s: both branches on every point, np.where keeps one."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    r = np.hypot(pts[..., 0] - z[0], pts[..., 1] - z[1])
    amp = delta**(2.0 / (rp.p - 1.0)) * s**(-2.0 / (rp.p - 1.0))
    inner = a + amp * rp.phi_at(np.minimum(r / s, 1.0))
    outer = a * np.log(np.maximum(r, 1e-300) / big_r) / np.log(s / big_r)
    out = np.where(r <= s, inner, outer)
    return float(out[0]) if single else out


def test_w_delta_eval_is_the_where_form(profiles):
    rp = profiles[2.0]
    delta, a, big_r = 1e-4, 1.2, 4.0
    s = solve_s(delta, a, big_r, rp)
    args = (delta, a, s)
    # on the x axis about z = 0, hypot gives r = |x| exactly: the radii s,
    # one ulp either side of it, 0 and bigR
    z0 = np.zeros(2)
    for r in (s, np.nextafter(s, 0.0), np.nextafter(s, np.inf), 0.0, big_r):
        x = np.array([r, 0.0])
        new = w_delta_eval(*args, z0, rp, big_r, x)
        assert isinstance(new, float)
        assert same_bits(new, _w_delta_where_form(*args, z0, rp, big_r, x)), r
    # an (a, b, 2) batch about an off-centre z, through the core, the tail
    # and the point z itself
    z = np.array([0.1, -0.2])
    rng = np.random.default_rng(5)
    radii = np.concatenate(([0.0, s], s * rng.uniform(0.0, 3.0, 22), rng.uniform(s, big_r, 6)))
    th = rng.uniform(0.0, 2.0 * np.pi, radii.size)
    batch = (z + radii[:, None] * np.column_stack((np.cos(th), np.sin(th)))).reshape(5, 6, 2)
    new = w_delta_eval(*args, z, rp, big_r, batch)
    assert new.shape == (5, 6)
    assert same_bits(new, _w_delta_where_form(*args, z, rp, big_r, batch))
    with pytest.raises(DomainError):
        w_delta_eval(*args, z, rp, big_r, np.concatenate((batch.reshape(-1, 2),
                                                          [z + [1.01 * big_r, 0.0]])))

def test_c1_gluing_derivative_jump(profiles):
    rp = profiles[2.0]
    delta, a, big_r = 1e-4, 1.0, 4.0
    s = solve_s(delta, a, big_r, rp)
    z = np.zeros(2)
    step = 1e-4 * s

    def one_sided(a, side):
        # second-order one-sided difference of the radial slope at r = s,
        # on the core (side -1) or on the tail (side +1) only
        w = [w_delta_eval(delta, a, s, z, rp, big_r, np.array([s + side * k * step, 0.0]))
             for k in range(3)]
        return side * (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * step)

    g_in, g_out = one_sided(a, -1), one_sided(a, 1)
    assert abs(g_in - g_out) < 1e-6 * abs(g_in)
    # a 1% plateau perturbation at the same radius produces a visible kink
    g_in_p, g_out_p = one_sided(1.01 * a, -1), one_sided(1.01 * a, 1)
    jump = (g_in_p - g_out_p) / g_in_p
    assert abs(jump) > 1e-3
    assert jump < 0  # larger plateau pulls the tail slope up relative to the core


def test_solve_s_defining_residual(profiles):
    rp = profiles[2.0]
    for delta in (1e-3, 1e-5, 1e-7):
        for a in (0.5, 1.0, 2.0):
            s = solve_s(delta, a, 4.0, rp)
            assert 0 < s < 4.0
            assert abs(glue_residual(delta, a, s, rp, 4.0)) < 1e-12


def test_solve_s_asymptotic_ratio(profiles):
    rp = profiles[2.0]
    a, big_r = 1.0, 10.0
    target = (abs(rp.slope_at_one) / a)**0.5
    tolerances = {1e-4: 0.05, 1e-5: 0.02, 1e-6: 0.01}
    last = np.inf
    for delta, tol in tolerances.items():
        s = solve_s(delta, a, big_r, rp)
        dev = abs(s / (delta * abs(np.log(delta))**0.5) / target - 1.0)
        assert dev < tol
        assert dev < last + 1e-12   # approach is monotone in delta
        last = dev


def test_solve_s_monotone_in_a(profiles):
    rp = profiles[2.0]
    s1 = solve_s(1e-5, 1.0, 4.0, rp)
    s2 = solve_s(1e-5, 2.0, 4.0, rp)
    assert s2 < s1


def test_solve_s_errors(profiles):
    rp = profiles[2.0]
    with pytest.raises(SolvabilityError):
        solve_s(-1e-5, 1.0, 4.0, rp)
    with pytest.raises(SolvabilityError):
        solve_s(1e-5, -1.0, 4.0, rp)


def _scan_bracket(delta, big_r, f):
    """solve_s's bracket scan written as one scalar call per grid point."""
    grid = np.linspace(np.log(delta) - 60.0, np.log(big_r) - 1e-12, 200)
    vals = np.array([f(g) for g in grid])
    idx = np.nonzero(np.diff(np.sign(vals)) < 0)[0]
    return float(grid[idx[0]]), float(grid[idx[0] + 1])


def _glue_f(delta, a, big_r, rp):
    al = 2.0 / (rp.p - 1.0)
    c = abs(rp.slope_at_one)

    def f(ls):
        s = np.exp(ls)
        return (delta / s)**al * c * np.log(big_r / s) - a
    return al, c, f


def _solve_s_scalar_scan(delta, a, big_r, rp):
    """solve_s with its bracket scan written as one scalar call per grid
    point, refined by the same root finder."""
    al, c, f = _glue_f(delta, a, big_r, rp)
    lo, hi = _scan_bracket(delta, big_r, f)
    return math.exp(_glue_root(delta, a, big_r, al, c, lo, hi))


GLUE_GRID = [(p, delta, a, big_r) for p in (1.5, 2.0, 3.0) for delta in (1e-2, 1e-4, 1e-6, 1e-8)
             for a in (0.3, 1.0, 3.0) for big_r in (1.0, 4.0)]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_solve_s_vector_scan_matches_scalar_scan(profiles, p):
    rp = profiles[p]
    for _, delta, a, big_r in (g for g in GLUE_GRID if g[0] == p):
        assert solve_s(delta, a, big_r, rp) == _solve_s_scalar_scan(delta, a, big_r, rp)


def test_glue_root_matches_brentq(profiles):
    # the root in log s against scipy's Brent plus three Newton steps; one
    # ulp of log s is up to ~30 ulp of s at the smallest cores
    worst = 0.0
    for p, delta, a, big_r in GLUE_GRID:
        rp = profiles[p]
        al, c, f = _glue_f(delta, a, big_r, rp)
        lo, hi = _scan_bracket(delta, big_r, f)
        ref = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
        for _ in range(3):
            s = np.exp(ref)
            ref -= f(ref) / -(al * (delta / s)**al * c * np.log(big_r / s) + (delta / s)**al * c)
        ls = _glue_root(delta, a, big_r, al, c, lo, hi)
        assert lo < ls < hi
        worst = max(worst, abs(ls - ref) / np.spacing(abs(ref)))
    assert worst <= 4.0


# ---------------------------------------------------------------------- #
#  coupled core system
# ---------------------------------------------------------------------- #


def test_core_system_residuals(disk_images, profiles):
    q = background_from_flux(disk_images.domain, lambda t: np.cos(t))
    vs = VortexSystem([1.0, 0.8], [1.2], [[0.35, 0.1], [-0.4, 0.25], [0.05, -0.45]])
    cores = solve_core_system(vs, disk_images, q, 1e-3, profiles[2.0])
    assert max(cores.residuals.values()) < 1e-12
    assert np.all(cores.a_all > 0)
    assert np.all((cores.s_all > 0) & (cores.s_all < 4.0))


def _fixed_point_cores(vs, table, q, eps, rp, big_r, max_iter=200):
    """Reference: the damped fixed-point map that solved the core system
    before Newton.  Gluing roots at frozen plateau levels alternate with the
    linear balance at frozen radii; the update is halved once it oscillates."""
    delta = delta_from_eps(eps, rp.p)
    k = vs.m + vs.n
    rhs = activation_level(vs.kappas, vs.signs, q.value(vs.positions), eps)
    coupling = table.S * table.bar
    a = vs.kappas.astype(float).copy()
    prev_step, damping = None, 1.0
    for _ in range(max_iter):
        L = np.log(big_r / np.array([solve_s(delta, a[i], big_r, rp) for i in range(k)]))
        A = np.eye(k) - np.diag(table.g_diag / L) + coupling / L[None, :]
        step = np.linalg.solve(A, rhs) - a
        if prev_step is not None and np.dot(step, prev_step) < 0:
            damping = 0.5
        a_next = a + damping * step
        settled = np.max(np.abs(a_next - a)) <= 1e-15 * max(1.0, np.max(a_next))
        a, prev_step = a_next, step
        if settled:
            return a, np.array([solve_s(delta, a[i], big_r, rp) for i in range(k)])
    raise ConvergenceError("reference fixed-point map did not settle")


def test_newton_core_system_matches_fixed_point_map(disk_images, profiles):
    q = background_from_flux(disk_images.domain, lambda t: np.cos(t))
    vs = VortexSystem([1.0, 0.8], [1.2], [[0.35, 0.1], [-0.4, 0.25], [0.05, -0.45]])
    cores = solve_core_system(vs, disk_images, q, 1e-3, profiles[2.0])
    a_ref, s_ref = _fixed_point_cores(vs, interaction_table(vs, disk_images), q, 1e-3,
                                      profiles[2.0], 4.0)
    assert np.max(np.abs(cores.a_all / a_ref - 1.0)) <= 1e-13
    assert np.max(np.abs(cores.s_all / s_ref - 1.0)) <= 1e-13
    assert cores.iterations <= 8


def test_core_system_close_same_sign_pair(disk_images, q_zero, profiles):
    # two same-sign vortices 0.01 apart: the fixed-point map does not settle
    # in 200 iterations, Newton converges in a few
    rp = profiles[2.0]
    vs = VortexSystem([1.0, 1.0], [], [[0.1, 0.0], [0.11, 0.0]])
    with pytest.raises(ConvergenceError):
        _fixed_point_cores(vs, interaction_table(vs, disk_images), q_zero, 1e-3, rp, 4.0)
    cores = solve_core_system(vs, disk_images, q_zero, 1e-3, rp)
    assert max(cores.residuals.values()) <= 1e-12
    assert cores.iterations <= 8


def test_core_system_max_iter_raises(disk_images, q_zero, profiles):
    vs = VortexSystem([1.0], [1.0], [[0.3, 0.0], [-0.3, 0.0]])
    with pytest.raises(ConvergenceError, match="did not settle in 1 iterations"):
        solve_core_system(vs, disk_images, q_zero, 1e-3, profiles[2.0], max_iter=1)


def test_core_system_non_positive_plateau_raises(disk_images, q_zero, profiles):
    # a weak vortex 0.01 from a strong one of the same sign: its balance asks
    # for a plateau level near 0.3 - 4 < 0
    vs = VortexSystem([0.3, 3.0], [], [[0.1, 0.0], [0.11, 0.0]])
    with pytest.raises(SolvabilityError, match="negative plateau level"):
        solve_core_system(vs, disk_images, q_zero, 1e-2, profiles[2.0])


def test_refine_positions_builds_one_table_per_tilt(monkeypatch, disk_images, profiles):
    # each tilt evaluation solves the core system once, on the table the tilt
    # reads; the finite-difference columns start at the base plateau levels.
    # The final position gets one more solve, from a = 1.5 kappa on its last
    # table: the multiple-fixed-point check
    tables, iterations, seeds, used = [], [], [], []
    table_fn, iterate_fn = ansatz.interaction_table, ansatz._iterate_cores

    def counted_table(*args):
        out = table_fn(*args)      # line-search trials outside the disk raise here
        tables.append(out)
        return out

    def counted_iterate(*args):
        out = iterate_fn(*args)
        iterations.append(out[2])
        seeds.append(float(args[7][0]))
        used.append(args[1])
        return out

    monkeypatch.setattr(ansatz, "interaction_table", counted_table)
    monkeypatch.setattr(ansatz, "_iterate_cores", counted_iterate)
    q = background_from_flux(disk_images.domain, lambda t: 0.5 * np.cos(t))
    refine_positions(VortexSystem([1.0], [], [[0.0, -0.05]]), disk_images, q, 1e-3,
                     profiles[2.0])
    assert len(iterations) > 4
    assert len(tables) == len(iterations) - 1
    assert seeds[-1] == 1.5 and 1.5 not in seeds[:-1]
    assert used[-1] is tables[-1]
    assert max(iterations[1:3]) < iterations[0]
    assert max(iterations) <= 8


def test_refine_positions_warns_on_a_second_core_root(monkeypatch, disk_images, profiles):
    # a core solve from a = 1.5 kappa that lands on another root warns
    iterate_fn = ansatz._iterate_cores

    def second_root(vs, table, q, eps, delta, rp, big_r, a_init, max_iter):
        a, s, it = iterate_fn(vs, table, q, eps, delta, rp, big_r, a_init, max_iter)
        return (2.0 * a if np.array_equal(a_init, 1.5 * vs.kappas) else a), s, it

    monkeypatch.setattr(ansatz, "_iterate_cores", second_root)
    q = background_from_flux(disk_images.domain, lambda t: 0.5 * np.cos(t))
    with pytest.warns(UserWarning, match="multiple fixed points"):
        refine_positions(VortexSystem([1.0], [], [[0.0, -0.05]]), disk_images, q, 1e-3,
                         profiles[2.0])


def test_core_system_symmetric_pair(disk_images, q_zero, profiles):
    vs = VortexSystem([1.0], [1.0], [[0.3, 0.0], [-0.3, 0.0]])
    cores = solve_core_system(vs, disk_images, q_zero, 1e-4, profiles[2.0])
    assert abs(cores.a_plus[0] - cores.a_minus[0]) < 1e-12
    assert abs(cores.s_plus[0] - cores.s_minus[0]) < 1e-12


def test_core_system_single_vortex_against_2d_rootfind(disk_images, q_zero, profiles):
    # independent nested-bisection solve of the two scalar equations
    rp = profiles[2.0]
    eps = 1e-3
    delta = delta_from_eps(eps, 2.0)
    z = np.array([0.2, 0.1])
    vs = VortexSystem([1.0], [], [z])
    g_zz = disk_images.g(z, z)

    def balance(a):
        s = solve_s(delta, a, 4.0, rp)
        return a - (1.0 + g_zz * a / np.log(4.0 / s))

    lo, hi = 0.5, 5.0
    assert balance(lo) * balance(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if balance(lo) * balance(mid) <= 0:
            hi = mid
        else:
            lo = mid
    a_oracle = 0.5 * (lo + hi)
    cores = solve_core_system(vs, disk_images, q_zero, eps, rp)
    assert abs(cores.a_plus[0] - a_oracle) < 1e-10


def test_core_expansion_remainder_bounded(disk_images, profiles):
    # plateau levels approach the closed-form expansion at the |ln eps|^-2 rate
    rp = profiles[2.0]
    q = background_from_flux(disk_images.domain, lambda t: np.cos(t))
    vs = VortexSystem([1.0, 0.8], [1.2], [[0.35, 0.1], [-0.4, 0.25], [0.05, -0.45]])
    Z = vs.positions
    big_r = 4.0
    ratios = []
    for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        cores = solve_core_system(vs, disk_images, q, eps, rp)
        lg = abs(np.log(eps))
        lre = np.log(big_r) + lg
        kap = vs.kappas
        expansion = np.empty(3)
        for i in range(3):
            sign = 1.0 if i < vs.m else -1.0
            val = (kap[i] + sign * 2 * np.pi * q.value(Z[i]) / lg
                   + kap[i] * disk_images.g(Z[i], Z[i]) / lre)
            for j in range(3):
                if j == i:
                    continue
                same = (j < vs.m) == (i < vs.m)
                val += (-1.0 if same else 1.0) * kap[j] * disk_images.bar_g(Z[i], Z[j]) / lre
            expansion[i] = val
        resid = np.max(np.abs(cores.a_all - expansion))
        ratios.append(resid / (np.log(lg) / lg**2))
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 5.0


def test_core_log_factor_expansion(disk_images, profiles):
    # 1/ln(R/s) - 1/ln(R/eps) stays on the ln|ln eps|/|ln eps|^2 scale
    rp = profiles[2.0]
    vs = VortexSystem([1.0], [], [[0.2, 0.1]])
    q = HarmonicBackground.zero()
    ratios = []
    for eps in (1e-3, 1e-5, 1e-7):
        cores = solve_core_system(vs, disk_images, q, eps, rp)
        lg = abs(np.log(eps))
        gap = abs(1.0 / np.log(4.0 / cores.s_plus[0]) - 1.0 / (np.log(4.0) + lg))
        ratios.append(gap / (np.log(lg) / lg**2))
    assert max(ratios) / min(ratios) < 5.0
    assert max(ratios) < 10.0


def test_core_parameter_z_derivative_scaling(disk_images, q_zero, profiles):
    # d a/d z = O(1/|ln eps|), d s/d z = O(eps/|ln eps|)
    rp = profiles[2.0]
    h = 1e-6
    scaled_a, scaled_s = [], []
    for eps in (1e-3, 1e-5, 1e-7):
        lg = abs(np.log(eps))
        vals_a, vals_s = [], []
        for dz in (np.array([h, 0.0]), np.array([0.0, h])):
            cp = solve_core_system(VortexSystem([1.0], [], [np.array([0.2, 0.1]) + dz]),
                                   disk_images, q_zero, eps, rp)
            cm = solve_core_system(VortexSystem([1.0], [], [np.array([0.2, 0.1]) - dz]),
                                   disk_images, q_zero, eps, rp)
            vals_a.append(abs(cp.a_plus[0] - cm.a_plus[0]) / (2 * h))
            vals_s.append(abs(cp.s_plus[0] - cm.s_plus[0]) / (2 * h))
        scaled_a.append(max(vals_a) * lg)
        scaled_s.append(max(vals_s) * lg / eps)
    assert max(scaled_a) / max(min(scaled_a), 1e-300) < 10.0
    assert max(scaled_s) / max(min(scaled_s), 1e-300) < 10.0


def test_core_system_domain_and_singularity_errors(disk_images, q_zero, profiles):
    rp = profiles[2.0]
    outside = VortexSystem([1.0], [1.0], [[0.3, 0.0], [1.2, 0.0]])
    with pytest.raises(DomainError):
        solve_core_system(outside, disk_images, q_zero, 1e-3, rp)
    coincident = VortexSystem([1.0], [1.0], [[0.3, 0.0], [0.3, 0.0]])
    with pytest.raises(SingularityError):
        solve_core_system(coincident, disk_images, q_zero, 1e-3, rp)


def test_single_vortex_outside_domain_raises(disk_images, q_zero, profiles):
    # one vortex needs the domain check as much as a pair: without it the
    # Green machinery returns finite values (a = 1.506, Phi = 6.93 here)
    outside = VortexSystem([1.0], [], [[1.2, 0.0]])
    with pytest.raises(DomainError):
        solve_core_system(outside, disk_images, q_zero, 1e-3, profiles[2.0])
    with pytest.raises(DomainError):
        phi_value(outside, disk_images, q_zero)


# ---------------------------------------------------------------------- #
#  signed interaction table against scalar same/opposite-sign loops
# ---------------------------------------------------------------------- #


def _scalar_reference(cores, vs, green, q):
    """Balance residuals, tilt, energy expansion and Phi with one scalar
    Green call per vortex pair, the sign of each pair term chosen by whether
    the two vortices belong to the same family."""
    Z, kap, m, k = vs.positions, vs.kappas, vs.m, vs.m + vs.n
    lg = abs(np.log(cores.eps))
    a = cores.a_all
    L = np.log(cores.big_r / cores.s_all)
    d2, p = cores.delta**2, cores.p
    bal = np.zeros(k)
    tilt = np.zeros((k, 2))
    expansion = phi = 0.0
    for i in range(k):
        sign = 1.0 if i < m else -1.0
        gz = green.g(Z[i], Z[i])
        bal[i] = a[i] - (kap[i] + sign * 2 * np.pi * q.value(Z[i]) / lg + a[i] * gz / L[i])
        tilt[i] = (sign * (2 * np.pi / lg) * q.grad(Z[i])
                   + (a[i] / L[i]) * green.g_grad_x(Z[i], Z[i]))
        expansion += np.pi * d2 * a[i]**2 * ((p + 1.0) / 4.0 / L[i]**2 + 1.0 / L[i]
                                             - gz / L[i]**2 - 0.5 / L[i]**2)
        phi += 4 * np.pi**2 * sign * kap[i] * q.value(Z[i]) + np.pi * kap[i]**2 * gz
        for j in range(k):
            if j == i:
                continue
            same = (i < m) == (j < m)
            bg = green.bar_g(Z[i], Z[j])
            bal[i] -= (-1.0 if same else 1.0) * a[j] * bg / L[j]
            # barG = 2 pi G
            tilt[i] += ((-1.0 if same else 1.0) * (a[j] / L[j])
                        * 2 * np.pi * green.green_grad_x(Z[i], Z[j]))
            if same:
                expansion += np.pi * d2 * a[i] * a[j] * bg / (L[i] * L[j])
                phi -= np.pi * kap[i] * kap[j] * bg
            elif i < m:
                expansion -= 2 * np.pi * d2 * a[i] * a[j] * bg / (L[i] * L[j])
                phi += 2 * np.pi * kap[i] * kap[j] * bg
    return np.abs(bal), tilt, expansion, phi


@pytest.mark.parametrize("green_name", ["disk_images", "disk_bie"],
                         ids=["images", "boundary-integral"])
def test_interaction_table_matches_scalar_loops(request, unit_disk, profiles, green_name):
    green = request.getfixturevalue(green_name)
    rp = profiles[2.0]
    q = background_from_flux(unit_disk, lambda t: np.cos(t))
    vs = VortexSystem([1.0, 0.8], [1.2], [[0.35, 0.1], [-0.4, 0.25], [0.05, -0.45]])
    cores = solve_core_system(vs, green, q, 1e-3, rp)
    # the solved plateau levels satisfy the scalar balance
    assert np.max(_scalar_reference(cores, vs, green, q)[0]) <= 1e-12
    # off the solution the balance residuals are O(1), not rounding
    off = replace(cores, a_plus=1.1 * cores.a_plus, a_minus=0.9 * cores.a_minus)
    bal, tilt, expansion, phi = _scalar_reference(off, vs, green, q)
    res = core_residuals(off, vs, interaction_table(vs, green), q, rp)
    got = {"balance": np.concatenate([res["balance_plus"], res["balance_minus"]]),
           "tilt": ansatz_tilt(off, vs, green, q),
           "expansion": ansatz_energy_expansion(off, vs, green),
           "phi": phi_value(vs, green, q)}
    ref = {"balance": bal, "tilt": tilt, "expansion": expansion, "phi": phi}
    for name, val in got.items():
        err = np.max(np.abs(val - ref[name])) / np.max(np.abs(ref[name]))
        assert err <= 1e-13, (name, err)


# ---------------------------------------------------------------------- #
#  composite field
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def single_af(disk_images, profiles):
    q = HarmonicBackground.zero()
    vs = VortexSystem([1.0], [], [[0.2, 0.1]])
    cores = solve_core_system(vs, disk_images, q, 1e-3, profiles[2.0])
    return AnsatzField(cores, vs, profiles[2.0], disk_images, q)


def test_ansatz_boundary_trace(single_af, unit_disk):
    bp, _ = unit_disk.boundary_points(64)
    vals = single_af.evaluate(bp * (1.0 - 1e-9))
    assert np.max(np.abs(vals)) < 1e-6


def test_ansatz_r_independence(disk_images, profiles, q_zero):
    vs = VortexSystem([1.0], [], [[0.2, 0.1]])
    rp = profiles[2.0]
    c4 = solve_core_system(vs, disk_images, q_zero, 1e-3, rp)
    ge8 = GreenEvaluator(Domain.disk(1.0, big_r=8.0))
    c8 = solve_core_system(vs, ge8, q_zero, 1e-3, rp)
    af4 = AnsatzField(c4, vs, rp, disk_images, q_zero)
    af8 = AnsatzField(c8, vs, rp, ge8, q_zero)
    probes = np.array([[0.25, 0.12], [0.5, -0.3], [0.0, 0.0], [0.21, 0.1], [0.2, 0.1]])
    assert np.max(np.abs(af4.evaluate(probes) - af8.evaluate(probes))) < 1e-8
    # the plateau levels DO change with bigR; only the field is invariant
    assert abs(c4.a_plus[0] - c8.a_plus[0]) > 1e-3


def test_ansatz_rotational_symmetry(disk_images, profiles, q_zero):
    vs = VortexSystem([1.0], [], [[0.0, 0.0]])
    cores = solve_core_system(vs, disk_images, q_zero, 1e-3, profiles[2.0])
    af = AnsatzField(cores, vs, profiles[2.0], disk_images, q_zero)
    r = 0.3
    th = np.linspace(0, 2 * np.pi, 11)[:-1]
    vals = af.evaluate(np.column_stack((r * np.cos(th), r * np.sin(th))))
    assert np.max(vals) - np.min(vals) < 1e-10


def test_local_expansion_probe(disk_images, profiles):
    # inside the core ball the composite field minus the activation level is
    # the bump profile plus a linear tilt of the expected size
    rp = profiles[2.0]
    q = background_from_flux(disk_images.domain, lambda t: 0.5 * np.cos(t))
    vs = VortexSystem([1.0], [], [[0.2, 0.1]])
    eps = 1e-4
    cores = solve_core_system(vs, disk_images, q, eps, rp)
    af = AnsatzField(cores, vs, rp, disk_images, q)
    s, a = cores.s_plus[0], cores.a_plus[0]
    z = vs.positions[0]
    lg = abs(np.log(eps))
    rng = np.random.default_rng(8)
    pts = z + s * rng.uniform(-2, 2, size=(40, 2))
    bump = np.array([w_delta_eval(cores.delta, a, s, z, rp, cores.big_r, p) for p in pts])
    lhs = af.evaluate(pts) - 1.0 - 2 * np.pi * q.value(pts) / lg
    resid = lhs - (bump - a)
    # fit the linear tilt and check its magnitude is O(s/|ln eps|)-ish
    A = np.column_stack([pts[:, 0] - z[0], pts[:, 1] - z[1], np.ones(len(pts))])
    coef, *_ = np.linalg.lstsq(A, resid, rcond=None)
    fit_err = np.max(np.abs(resid - A @ coef))
    tilt = np.hypot(coef[0], coef[1])
    assert fit_err < 20.0 * s**2          # quadratic remainder
    assert tilt * s < 30.0 * s / lg       # linear term has the O(1/lg) weight


def test_refine_positions_zeroes_tilt(disk_images, profiles):
    q = background_from_flux(disk_images.domain, lambda t: 0.5 * np.cos(t))
    rp = profiles[2.0]
    vs = VortexSystem([1.0], [], [[0.0, -0.05]])
    vs_eps, cores = refine_positions(vs, disk_images, q, 1e-3, rp)
    tilt = ansatz_tilt(cores, vs_eps, disk_images, q)
    assert np.max(np.abs(tilt)) < 1e-11


def test_support_predict_brackets(single_af):
    inner, outer = support_predict(single_af)
    s = single_af.cores.s_plus[0]
    assert inner[0] == pytest.approx(s * (1 - 10.0 * s))
    assert outer[0] == pytest.approx(s * (1 + s**0.1))
    # width shrinks relative to s as eps decreases
    widths = []
    for eps in (1e-3, 1e-4, 1e-5):
        cores = solve_core_system(single_af.vs, single_af.green,
                                  single_af.q, eps, single_af.rp)
        af = AnsatzField(cores, single_af.vs, single_af.rp,
                         single_af.green, single_af.q)
        i2, o2 = support_predict(af, check=(eps == 1e-3))
        widths.append((o2[0] - i2[0]) / cores.s_plus[0])
    assert widths[0] > widths[1] > widths[2]
