"""Nonlinear solves of the gated free-boundary problem on small grids.

The heavy acceptance sweep lives in test_acceptance; these tests exercise
the machinery at eps = 3e-3 on a 1/16-radius disk (cheap grids) plus the
trivial and manufactured cases.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vortexpatch import (Domain, GreenEvaluator, HarmonicBackground,
                         background_from_flux, build_grid, solve_profile)
from vortexpatch.ansatz import (AnsatzField, activation_level, refine_positions,
                                solve_core_system)
from vortexpatch.diagnostics import energy_eval, reconstruct_flow
from vortexpatch.errors import ConfigError, ConvergenceError
from vortexpatch.grid import GridField, GridSolver, gradient, interpolate
from vortexpatch.kirchhoff import VortexSystem, find_critical
from vortexpatch import solver
from vortexpatch.solver import (MIN_DAMPING, STALL_WINDOW, TRUST_RADIUS, SolveReport,
                                _Core, _core_candidates, _deflated_step, _dense_solve,
                                _near_null_basis, _trust_step, picard_gap,
                                rhs_derivative, rhs_eval, setup_problem,
                                solve_newton)

from conftest import sparse_operator

R0 = 1.0 / 16.0


@pytest.fixture(scope="module")
def small_disk():
    return Domain.disk(R0)


# ---------------------------------------------------------------------- #
#  rhs evaluation
# ---------------------------------------------------------------------- #


def test_rhs_zero_field(solved_case):
    setup = solved_case["setup"]
    zero = np.zeros(setup.spec.n_interior)
    assert np.all(rhs_eval(zero, setup) == 0.0)
    assert np.all(rhs_derivative(zero, setup) == 0.0)


def test_rhs_unit_excess(solved_case):
    # w = kappa + 2 pi q/lg + 1 on the subdomain -> rhs = 1 there (p-th power of 1)
    setup = solved_case["setup"]
    w = setup.level + 1.0
    rhs = rhs_eval(w, setup)
    mask = setup.vortex == 0
    assert np.max(np.abs(rhs[mask] - 1.0)) < 1e-14
    assert np.all(rhs[~mask] == 0.0)


def test_rhs_matches_core_bump(solved_case):
    # at the solved cores the nonlinearity of the ansatz tracks the pure bump
    from vortexpatch.ansatz import w_delta_eval
    c = solved_case
    cores, setup, af = c["cores"], c["setup"], c["af"]
    z = c["vs"].positions[0]
    s, a = cores.s_plus[0], cores.a_plus[0]
    rng = np.random.default_rng(12)
    pts = z + 0.8 * s * (rng.random((20, 2)) - 0.5)
    vals = af.evaluate(pts)
    lg = abs(np.log(c["eps"]))
    arg = vals - 1.0 - 2 * np.pi * c["q"].value(pts) / lg
    bump = np.array([w_delta_eval(cores.delta, a, s, z, c["rp"], cores.big_r, p)
                     for p in pts]) - a
    # agreement up to the O(s/lg) linear tilt
    assert np.max(np.abs(arg - bump)) < 5.0 * s


# ---------------------------------------------------------------------- #
#  the gate map against the per-vortex (k, N) gate arrays it replaced
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def gate_pair(small_disk):
    """A +/- pair of unequal strengths under a nonzero background, and a
    field that opens both gates on a few dozen nodes and stays shut on the
    rest of each subdomain."""
    q = background_from_flux(small_disk, lambda t: 0.1 * np.cos(t) + 0.05 * np.sin(2 * t))
    Z = np.array([[0.02, 0.005], [-0.02, -0.005]])
    vs = VortexSystem([1.0], [1.3], Z, subdomain_radius=0.015)
    gs = build_grid(small_disk, R0 / 48.0)
    pts = gs.points
    bumps = [np.exp(-((pts - z)**2).sum(axis=1) / 0.006**2) for z in Z]
    w = (1.6 * bumps[0] - 2.0 * bumps[1]
         + 0.05 * np.random.default_rng(3).standard_normal(gs.n_interior))
    return dict(q=q, vs=vs, grid=gs, eps=3e-3, p=2.0, w=w)


def _old_gates(c, variable, level_order):
    """The (k, N) masks and thresholds of the per-vortex design.  With
    level_order="old" the thresholds use its own formulas, with "helper"
    the operation order of ansatz.activation_level."""
    pts, vs, eps = c["grid"].points, c["vs"], c["eps"]
    lg = abs(np.log(eps))
    masks = np.array([np.hypot(pts[:, 0] - z[0], pts[:, 1] - z[1]) < r
                      for z, r in zip(vs.positions, vs.subdomain_radii(c["grid"].domain))])
    kap, sgn, qn = vs.kappas[:, None], vs.signs[:, None], c["q"].value(pts)[None, :]
    if level_order == "helper":
        thr = kap + sgn * 2.0 * np.pi * qn / lg
        return masks, thr if variable == "w" else thr * (lg / (2.0 * np.pi))
    if variable == "w":
        return masks, kap + sgn * (2.0 * np.pi / lg) * qn
    return masks, kap * (lg / (2.0 * np.pi)) + sgn * qn


def _old_excess(c, masks, thr, values, i):
    arg = c["vs"].signs[i] * values - thr[i]
    np.maximum(arg, 0.0, out=arg)
    arg[~masks[i]] = 0.0
    return arg


@pytest.mark.parametrize("variable", ["w", "u"])
def test_gate_map_matches_old_levels(gate_pair, variable):
    c = gate_pair
    setup = setup_problem(c["grid"], c["vs"], c["q"], c["eps"], c["p"], variable=variable)
    masks, thr = _old_gates(c, variable, "old")
    assert np.all(masks.sum(axis=0) <= 1) and np.all(masks.sum(axis=1) > 100)
    assert np.array_equal(setup.vortex, np.where(masks.any(axis=0), masks.argmax(axis=0), -1))
    off = setup.vortex < 0
    assert np.all(setup.sign[off] == 0.0) and np.all(setup.level[off] == 0.0)
    for i in range(2):
        assert np.all(setup.sign[masks[i]] == c["vs"].signs[i])
        # one definition of the level: the same value as the old formulas up
        # to the rounding of their different operation order
        ref = thr[i][masks[i]]
        assert np.all(np.abs(setup.level[masks[i]] - ref) <= np.spacing(np.abs(ref)))


@pytest.mark.parametrize("variable", ["w", "u"])
def test_gate_map_matches_per_vortex_loops(gate_pair, variable):
    c = gate_pair
    p, eps = c["p"], c["eps"]
    lg = abs(np.log(eps))
    conv = 1.0 if variable == "w" else lg / (2.0 * np.pi)
    values = c["w"] * conv
    setup = setup_problem(c["grid"], c["vs"], c["q"], eps, p, variable=variable)
    masks, thr = _old_gates(c, variable, "helper")
    ex = [_old_excess(c, masks, thr, values, i) for i in range(2)]
    assert all(np.sum(e > 0.0) > 10 for e in ex)

    rhs = np.zeros_like(values)
    der = np.zeros_like(values)
    for i in range(2):
        rhs += c["vs"].signs[i] * ex[i]**p
        der += ex[i]**(p - 1.0)
    assert np.array_equal(rhs_eval(values, setup), rhs)
    assert np.array_equal(rhs_derivative(values, setup), p * der)

    fld = GridField(c["grid"], values)
    q = c["q"]
    dpsi = gradient(GridField(c["grid"], values * setup.u_per_unit)) - q.grad(c["grid"].points)
    if variable == "u":
        pot = sum(e**(p + 1.0) / (p + 1.0) for e in ex)
        pressure = -pot / eps**2 - 0.5 * (dpsi**2).sum(axis=1)
        assert np.array_equal(reconstruct_flow(fld, setup, q).pressure, pressure)
        return

    weights = c["grid"].cell_weights
    kinetic = 0.5 * setup.coef * float(((gradient(fld)**2).sum(axis=1) * weights).sum())
    energy = kinetic - sum(float((e**(p + 1.0) * weights).sum()) / (p + 1.0) for e in ex)
    # one sum over the nodes in place of one per vortex
    assert abs(energy_eval(fld, setup) - energy) <= np.spacing(abs(energy))

    # the old loop converted to u units before the subtraction, the gate map
    # after it: the u-unit excess moves by at most 4 |u| unit roundoffs, so
    # the pressure by e_max^p times that / eps^2, plus its own last rounding
    u_vals = values * (lg / (2.0 * np.pi))
    ex_u = [_old_excess(c, masks, thr * (lg / (2.0 * np.pi)), u_vals, i) for i in range(2)]
    pot = sum(e**(p + 1.0) / (p + 1.0) for e in ex_u)
    pressure = -pot / eps**2 - 0.5 * (dpsi**2).sum(axis=1)
    e_max = max(float(e.max()) for e in ex_u)
    bound = e_max**p * 4.0 * np.abs(u_vals).max() * 2.0**-53 / eps**2
    diff = np.abs(reconstruct_flow(fld, setup, q).pressure - pressure)
    assert np.all(diff <= bound + np.spacing(np.abs(pressure)))


def test_overlapping_subdomains_rejected(small_disk, profiles):
    q = HarmonicBackground.zero()
    vs = VortexSystem([1.0], [1.0], [[0.01, 0.0], [-0.01, 0.0]],
                      subdomain_radius=0.02)
    gs = build_grid(small_disk, R0 / 40.0)
    with pytest.raises(ConfigError):
        setup_problem(gs, vs, q, 3e-3, 2.0)


# ---------------------------------------------------------------------- #
#  newton
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("fraction", [0.0, 0.1], ids=["zero", "tenth-ansatz"])
def test_zero_data_returns_zero(solved_case, fraction):
    # a start below every activation level (the zero field, or a tenth of
    # the ansatz, whose largest gate argument is -0.84) has an empty core:
    # the zero field is the solution, returned without an iteration
    setup = solved_case["setup"]
    start = fraction * solved_case["init"].values
    assert np.max(setup.gate_argument(start)) < -0.8
    fld, rep = solve_newton(setup, start)
    assert rep.iterations == 0
    assert np.all(fld.values == 0.0)
    assert rep.converged


def _full_grid_newton(setup, start, tol=1e-10, max_iter=60):
    """An independent reference for the core reduction: semismooth Newton on
    every node, a sparse LU of Ac - diag(f') at each iteration, with
    solve_newton's step cap and line search.  Returns the field and the
    damping history."""
    Ac = setup.coef * sparse_operator(setup.spec)
    w = start.copy()
    field_range = max(float(np.max(w) - np.min(w)), 1e-12)
    rhs = rhs_eval(w, setup)
    r = Ac @ w - rhs
    damping = []
    while np.max(np.abs(r)) > tol * max(np.max(np.abs(rhs)), 1e-300):
        assert len(damping) < max_iter
        J = (Ac - sp.diags(rhs_derivative(w, setup))).tocsc()
        step = spla.splu(J).solve(-r)
        sn = np.max(np.abs(step))
        if sn > 0.3 * field_range:
            step *= 0.3 * field_range / sn
        lam, rl2 = 1.0, np.linalg.norm(r)
        while True:
            assert lam >= MIN_DAMPING
            w_try = w + lam * step
            rhs_try = rhs_eval(w_try, setup)
            r_try = Ac @ w_try - rhs_try
            if np.linalg.norm(r_try) <= (1.0 - 1e-4 * lam) * rl2 or \
               np.max(np.abs(r_try)) <= tol * max(np.max(np.abs(rhs)), 1e-300):
                break
            lam *= 0.5
        w, rhs, r = w_try, rhs_try, r_try
        damping.append(lam)
    return w, damping


def test_core_newton_matches_full_grid_newton(solved_case):
    # Newton on the core values takes the full-grid Newton steps restricted
    # to the core: the same iterations and dampings, and the same field
    c = solved_case
    fld, rep = solve_newton(c["setup"], c["init"].values)
    w_ref, damping = _full_grid_newton(c["setup"], c["init"].values)
    assert rep.converged and rep.iterations == len(damping) >= 2
    assert rep.damping_history == damping
    assert np.max(np.abs(fld.values - w_ref)) <= 1e-10 * np.max(np.abs(w_ref))


def test_newton_converges_and_residual_monotone_tail(solved_case):
    rep = solved_case["report"]
    assert rep.converged
    assert rep.iterations < 25
    hist = [h[1] for h in rep.residual_history]
    # after the final damped step the residual decreases monotonically
    last_damped = 0
    for i, lam in enumerate(rep.damping_history):
        if lam < 1.0:
            last_damped = i + 1
    tail = hist[last_damped:]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))


def test_newton_solution_properties(solved_case):
    c = solved_case
    fld, setup = c["field"], c["setup"]
    # residual below tolerance relative to the nonlinearity
    r = setup.apply(fld.values) - rhs_eval(fld.values, setup)
    assert np.max(np.abs(r)) <= 1e-10 * np.max(np.abs(rhs_eval(fld.values, setup)))
    # positive in the bulk (single positive vortex)
    assert fld.values.min() > -1e-12
    # plateau exceeded near the vortex center
    z = c["vs"].positions[0]
    iz = np.argmin(np.hypot(*(setup.spec.points - z).T))
    assert fld.values[iz] > 1.0


def test_manufactured_linear_recovery(solved_case):
    # prescribe w* = ansatz, recover from its own discrete laplacian image
    c = solved_case
    setup, init = c["setup"], c["init"]
    f_star = setup.apply(init.values)
    w_rec = setup.spec.solver.solve(f_star / setup.coef)
    assert np.max(np.abs(w_rec - init.values)) < 1e-9 * np.max(np.abs(init.values))


def test_correction_small_and_field_scale(solved_case):
    c = solved_case
    d = c["cores"].delta
    ratio = np.max(np.abs(c["correction"].values)) / (d * abs(np.log(d))**0.5)
    assert ratio < 5.0


@pytest.mark.parametrize("variable", ["w", "u"])
def test_newton_stall_raises_with_best_iterate(solved_case, variable):
    # an unreachable tolerance: once the residual sits at rounding level no
    # iteration brings a new best, so the solve must give up within the
    # non-progress window (plus one window of the deflated restart) rather
    # than run to max_iter, and hand back its lowest-residual iterate
    c = solved_case
    conv = 1.0 if variable == "w" else abs(np.log(c["eps"])) / (2 * np.pi)
    setup = setup_problem(c["grid"], c["vs"], c["q"], c["eps"], 2.0, variable=variable)
    init = c["init"].values * conv
    max_iter = 60
    with pytest.raises(ConvergenceError,
                       match="no new best residual.*near-null eigenvalues") as info:
        solve_newton(setup, init, tol=1e-30, max_iter=max_iter)
    exc = info.value
    hist = [h[1] for h in exc.report.residual_history]
    best_it = int(np.argmin(hist))
    assert exc.report.iterations < max_iter
    assert exc.report.iterations - best_it <= 2 * STALL_WINDOW
    # the history holds core residuals y - f_T(x), x the values on the core
    # and y their tracked load S x: recomputed from the best iterate's core
    # values, the residual differs from the lowest one in the history by
    # rounding on the scale |S| |x| of the product S x (measured: 2.3 units
    # of 2^-52 in the w-form)
    core = _Core(setup, _core_candidates(setup, init), SolveReport())
    T = core.core
    x = exc.best.values[T]
    r = core.S @ x - rhs_eval(exc.best.values, setup)[T]
    rounding = np.finfo(float).eps * np.max(np.abs(core.S) @ np.abs(x))
    assert abs(float(np.max(np.abs(r))) - min(hist)) <= 16.0 * rounding


def test_deflated_steps_reach_newton_solution(solved_case):
    # the deflated mode on its own, from the cold start: complement Newton
    # steps plus trust-region steps along the near-null pair of the core
    # Jacobian land on the plain Newton solution
    c = solved_case
    setup = c["setup"]
    core = _Core(setup, _core_candidates(setup, c["init"].values), SolveReport())
    T = core.core
    gates = replace(setup, vortex=setup.vortex[T], sign=setup.sign[T], level=setup.level[T])

    def residual(v):
        f = rhs_eval(v, gates)
        return core.S @ v - f, f

    x = c["init"].values[T]
    r, f = residual(x)
    radius = TRUST_RADIUS
    for _ in range(10):
        if np.max(np.abs(r)) <= 1e-10 * np.max(np.abs(f)):
            break
        J = core.S - np.diag(rhs_derivative(x, gates))
        Q, _ = _near_null_basis(J, 2)
        x, r, f, _, radius = _deflated_step(x, r, residual, J, np.linalg.inv(J), Q, radius)
    assert np.max(np.abs(r)) <= 1e-10 * np.max(np.abs(f))
    assert np.max(np.abs(core.field(x, core.S @ x) - c["field"].values)) < 1e-8


def test_factorize_singular_raises():
    # a singular core Jacobian fails its dense solve, which names the failed
    # factorization
    assert np.allclose(_dense_solve(np.diag([1.0, 3.0]), np.ones(2), SolveReport()),
                       [1.0, 1.0 / 3.0])
    with pytest.raises(ConvergenceError, match="factorization failed.*core block"):
        _dense_solve(np.diag([3.0, 2.0]) - np.diag([0.0, 2.0]), np.ones(2), SolveReport())


# ---------------------------------------------------------------------- #
#  the core Schur complement
# ---------------------------------------------------------------------- #


def _superlu_schur(Ac, T):
    """The Schur complement A_TT - A_TO A_OO^-1 A_OT of a sparse Ac on T."""
    O = np.setdiff1d(np.arange(Ac.shape[0]), T)
    A_OO_inv_A_OT = spla.splu(Ac[O][:, O].tocsc()).solve(Ac[O][:, T].toarray())
    return Ac[T][:, T].toarray() - Ac[T][:, O] @ A_OO_inv_A_OT


def _field_error(core, Ac, x):
    """The max-norm distance of the field of core values x from SuperLU's
    solve of Ac w = [0; S x], relative to the latter's max norm."""
    y = core.S @ x
    load = np.zeros(Ac.shape[0])
    load[core.core] = y
    ref = spla.splu(Ac.tocsc()).solve(load)
    return np.max(np.abs(core.field(x, y) - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("variable", ["w", "u"])
def test_core_jacobian_solve_matches_splu(solved_case, variable):
    # S is the Schur complement of the operator on the core T, a solve with
    # the core Jacobian S - diag(f'_T) is the core block of the full
    # Jacobian's solve of a load on T, and the field of core values x
    # solves Ac w = [0; S x]; SuperLU on the assembled matrix is the reference
    c = solved_case
    conv = 1.0 if variable == "w" else abs(np.log(c["eps"])) / (2 * np.pi)
    setup = setup_problem(c["grid"], c["vs"], c["q"], c["eps"], 2.0, variable=variable)
    Ac = (setup.coef * sparse_operator(setup.spec)).tocsc()
    start = c["init"].values * conv
    report = SolveReport()
    core = _Core(setup, _core_candidates(setup, start), report)
    T = core.core
    schur = _superlu_schur(Ac, T)
    assert np.max(np.abs(core.S - schur)) <= 1e-12 * np.max(np.abs(schur))
    assert _field_error(core, Ac, start[T]) <= 1e-12
    b = np.random.default_rng(5).standard_normal(T.size)
    load = np.zeros(Ac.shape[0])
    load[T] = b
    for w in (start, c["field"].values * conv):
        d = rhs_derivative(w, setup)
        assert 100 < np.sum(d[T] > 0.0) == np.sum(d > 0.0) < T.size
        y = _dense_solve(core.S - np.diag(d[T]), b, report)
        ref = spla.splu((Ac - sp.diags(d)).tocsc()).solve(load)[T]
        assert np.linalg.norm(y - ref) <= 1e-10 * np.linalg.norm(ref)
    # one Schur complement, no rebuild
    assert report.factorizations == 1 and report.core_nodes == T.size


def test_core_that_meets_the_boundary_rows(solved_case):
    # a gate subdomain at the wall: its core holds boundary-adjacent nodes,
    # where the unit loads of the core enter the capacitance system as well;
    # S and the field of smooth core values still match SuperLU.  The FFT
    # convolution's error scales with the summed charge: random core values
    # next to an arm clipped to 0.011 h make it 13 times that of a smooth
    # field, and the field error 1.3e-12
    c = solved_case
    spec = c["grid"]
    wall = spec.points[np.argmax(spec.points[:, 0])]
    vs = VortexSystem([1.0], [], [wall], subdomain_radius=0.1 * R0)
    setup = setup_problem(spec, vs, c["q"], c["eps"], 2.0)
    T = np.flatnonzero(setup.vortex == 0)
    assert np.isin(T, spec.solver.rows).sum() >= 3
    core = _Core(setup, T, SolveReport())
    Ac = (setup.coef * sparse_operator(spec)).tocsc()
    schur = _superlu_schur(Ac, T)
    assert np.max(np.abs(core.S - schur)) <= 1e-12 * np.max(np.abs(schur))
    assert _field_error(core, Ac, 1.0 + np.cos(200.0 * spec.points[T, 1])) <= 1e-12
    assert _field_error(core, Ac, np.random.default_rng(6).standard_normal(T.size)) <= 1e-11


def test_core_grows_when_the_active_set_leaves_it(solved_case, monkeypatch):
    # a core of only the nodes above half the start's largest gate argument:
    # the field of the first converged core values activates nodes outside
    # it, so the core grows to the union and Newton continues there, until
    # a field activates no node outside its core
    c = solved_case
    setup = c["setup"]
    monkeypatch.setattr(solver, "CORE_MARGIN", -0.5)
    first = _core_candidates(setup, c["init"].values)
    fld, rep = solve_newton(setup, c["init"].values)
    active = np.flatnonzero(setup.excess(fld.values) > 0.0)
    assert not np.all(np.isin(active, first))
    assert rep.converged and rep.factorizations >= 2
    assert rep.core_nodes >= active.size
    assert len(rep.residual_history) == len(rep.damping_history) + 1 == rep.iterations + 1
    ref = c["field"].values
    assert np.max(np.abs(fld.values - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_empty_core(solved_case):
    # a start that activates no node has an empty core (k = 0) and the zero
    # field; where the zero field itself activates nodes (here: levels
    # lowered below zero on a few nodes), the core grows from nothing to
    # them, with the first factorization, and Newton solves from there.  The
    # constant start has no range, so its step cap comes from the levels and
    # it converges by plain full steps, not through the deflated mode
    c = solved_case
    setup = c["setup"]
    gated = setup.vortex >= 0
    low = setup.level - (np.min(setup.level[gated]) + 1e-3)
    lowered = replace(setup, level=np.where(gated, low, 0.0))
    for start in (-0.1 * c["init"].values, np.full_like(c["init"].values, -0.1)):
        assert _core_candidates(lowered, start).size == 0
        assert np.any(lowered.excess(np.zeros_like(start)) > 0.0)
        fld, rep = solve_newton(lowered, start)
        assert rep.converged and rep.iterations >= 1 and rep.notes == ""
        assert rep.damping_history == [1.0] * rep.iterations
        assert rep.factorizations == 1 and rep.core_nodes > 0
        r = lowered.apply(fld.values) - rhs_eval(fld.values, lowered)
        assert np.max(np.abs(r)) <= 1e-10 * np.max(np.abs(rhs_eval(fld.values, lowered)))


def test_newton_factors_the_operator_once(solved_case, monkeypatch):
    # one core block of the operator and one convolution, for the field of
    # the converged load.  The plain path never forms S (no inverse, no
    # cached S): one LU solve with W gives the start's load, and each Newton
    # step is one dense solve on the active nodes, fewer than the core's
    c = solved_case
    calls, cores, solves, inverses = [], [], [], []

    def recording(name):
        real = getattr(GridSolver, name)

        def call(self, *args):
            calls.append(name)
            return real(self, *args)
        return call

    class RecordedCore(_Core):
        def __init__(self, *args):
            super().__init__(*args)
            cores.append(self)

    def dense_solve(J, b, report):
        solves.append((J.shape, b.shape))
        return _dense_solve(J, b, report)

    def inv(a):
        inverses.append(a.shape)
        return np.linalg.solve(a, np.eye(a.shape[0]))

    for name in ("core", "convolve", "solve"):
        monkeypatch.setattr(GridSolver, name, recording(name))
    monkeypatch.setattr(solver, "_Core", RecordedCore)
    monkeypatch.setattr(solver, "_dense_solve", dense_solve)
    monkeypatch.setattr(np.linalg, "inv", inv)
    fld, rep = solve_newton(c["setup"], c["init"].values)
    assert rep.converged and rep.iterations >= 2
    assert calls == ["core", "convolve"]
    assert rep.factorizations == 1
    k = rep.core_nodes
    assert k == _core_candidates(c["setup"], c["init"].values).size
    assert len(cores) == 1 and "S" not in cores[0].__dict__ and inverses == []
    assert solves[0] == ((k, k), (k,))
    assert solves[1:] == [((a, a), (a,)) for a in rep.active_nodes]
    assert len(rep.active_nodes) == rep.iterations and max(rep.active_nodes) < k
    assert np.max(np.abs(fld.values - c["field"].values)) < 1e-12


@pytest.mark.parametrize("variable", ["w", "u"])
def test_active_set_step_is_the_newton_step(solved_case, variable):
    # the step of the plain path, a solve on the active rows of the load's
    # Jacobian, is the exact Newton step of the core system, dx =
    # (S - diag(d_T))^-1 (-r), with dy = S dx: at the start and at the
    # solution, where the active nodes are fewer than the core's
    c = solved_case
    conv = 1.0 if variable == "w" else abs(np.log(c["eps"])) / (2 * np.pi)
    setup = setup_problem(c["grid"], c["vs"], c["q"], c["eps"], 2.0, variable=variable)
    start = c["init"].values * conv
    core = _Core(setup, _core_candidates(setup, start), SolveReport())
    T = core.core
    for w in (start, c["field"].values * conv):
        d = rhs_derivative(w, setup)[T]
        r = core.S @ w[T] - rhs_eval(w, setup)[T]
        assert 100 < np.count_nonzero(d) < T.size
        dx, dy = core.step(r, d)
        ref = np.linalg.solve(core.S - np.diag(d), -r)
        assert np.max(np.abs(dx - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert np.max(np.abs(dy - core.S @ dx)) <= 1e-10 * np.max(np.abs(core.S @ dx))


def test_report_counts_the_active_nodes(solved_case):
    # one active-node count per iteration; the last one, of the iterate
    # before the final step, is that of the converged field on the core
    c = solved_case
    rep, setup = c["report"], c["setup"]
    T = _core_candidates(setup, c["init"].values)
    assert len(rep.active_nodes) == rep.iterations
    assert rep.active_nodes[-1] == np.count_nonzero(rhs_derivative(c["field"].values, setup)[T])
    assert rep.to_dict()["active_nodes"] == rep.active_nodes


def test_pair_converges_on_the_plain_path(small_disk, profiles, monkeypatch):
    # the +/- pair at eps 3e-3 in 0.02 subdomains, a saddle of the reduced
    # energy: exact Newton steps converge with no deflated restart and no
    # near-null basis at all
    rp, eps = profiles[2.0], 3e-3
    ge = GreenEvaluator(small_disk)
    q = HarmonicBackground.zero()
    d = R0 * np.sqrt(np.sqrt(5.0) - 2.0)
    z0 = [[d, 0.0], [-d, 0.0]]
    z_star = find_critical(VortexSystem([1.0], [1.0], z0), ge, q, z0=z0).z_star
    vs_eps, cores = refine_positions(VortexSystem([1.0], [1.0], z_star), ge, q, eps, rp)
    vs = VortexSystem([1.0], [1.0], vs_eps.positions, subdomain_radius=0.02)
    gs = build_grid(small_disk, float(np.min(cores.s_all)) / 8.0)
    setup = setup_problem(gs, vs, q, eps, rp.p)
    init = AnsatzField(cores, vs, rp, ge, q).evaluate(gs.points)

    def no_basis(*args):
        raise AssertionError("near-null basis computed on the plain path")

    monkeypatch.setattr(solver, "_near_null_basis", no_basis)
    _, rep = solve_newton(setup, init)
    assert setup.near_null_dim == 4
    assert rep.converged and rep.notes == ""


def test_trust_step_model_minimizer():
    rng = np.random.default_rng(7)
    V = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    g = rng.standard_normal(4)
    pos = V @ np.diag([1.0, 2.0, 3.0, 4.0]) @ V.T
    # inside the ball the step is the Newton step
    b, interior = _trust_step(g, pos, 10.0)
    assert interior and np.allclose(pos @ b, -g)
    # indefinite model: the step sits on the boundary and beats the steepest
    # descent step of the same length
    ind = V @ np.diag([-2.0, 1e-12, 3.0, 4.0]) @ V.T
    b, interior = _trust_step(g, ind, 0.5)
    assert not interior and abs(np.linalg.norm(b) - 0.5) < 1e-9

    def model(x):
        return g @ x + 0.5 * x @ ind @ x

    assert model(b) < model(-0.5 * g / np.linalg.norm(g)) < 0.0


# ---------------------------------------------------------------------- #
#  picard
# ---------------------------------------------------------------------- #


def test_picard_fixed_point_gap_at_newton_solution(solved_case):
    gap = picard_gap(solved_case["setup"], solved_case["field"].values)
    assert gap < 1e-8


# ---------------------------------------------------------------------- #
#  variable change and mesh refinement
# ---------------------------------------------------------------------- #


def test_u_form_matches_w_form(solved_case):
    c = solved_case
    setup_u = setup_problem(c["grid"], c["vs"], c["q"], c["eps"], 2.0, variable="u")
    # the physical u per unit of w, from the w-form setup
    w_unit = c["setup"].u_per_unit
    assert w_unit == abs(np.log(c["eps"])) / (2 * np.pi) and setup_u.u_per_unit == 1.0
    fld_u, rep_u = solve_newton(setup_u, c["init"].values * w_unit)
    assert rep_u.converged
    assert np.max(np.abs(fld_u.values / w_unit - c["field"].values)) < 1e-8


def test_mesh_refinement_study(solved_case):
    # halving h changes the solution at second order in the smooth region
    c = solved_case
    h2 = c["grid"].h / 2.0
    gs2 = build_grid(c["domain"], h2)
    setup2 = setup_problem(gs2, c["vs"], c["q"], c["eps"], 2.0)
    init2 = c["af"].evaluate(gs2.points)
    fld2, _ = solve_newton(setup2, init2)
    # compare on probe points in the smooth annulus between core and boundary
    z = c["vs"].positions[0]
    th = np.linspace(0, 2 * np.pi, 16)[:-1]
    for rad_fac in (2.0, 4.0):
        probes = z + rad_fac * c["cores"].s_plus[0] * np.column_stack(
            (np.cos(th), np.sin(th)))
        assert np.all(c["domain"].contains(probes))
        v1 = interpolate(c["field"], probes)
        v2 = interpolate(fld2, probes)
        assert np.max(np.abs(v1)) > 0
        assert np.max(np.abs(v1 - v2)) < 5e-3 * np.max(np.abs(v1))


def test_solver_independent_of_big_r(solved_case, small_disk, profiles):
    # bigR enters only through the initial guess; the solved field must agree
    c = solved_case
    dom2 = Domain.disk(R0, big_r=2.0 * small_disk.big_r)
    ge2 = GreenEvaluator(dom2)
    cores2 = solve_core_system(c["vs"], ge2, c["q"], c["eps"], profiles[2.0])
    af2 = AnsatzField(cores2, c["vs"], profiles[2.0], ge2, c["q"])
    init2 = af2.evaluate(c["grid"].points)
    fld2, _ = solve_newton(c["setup"], init2)
    assert np.max(np.abs(fld2.values - c["field"].values)) < 1e-8
