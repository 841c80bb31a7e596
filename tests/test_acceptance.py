"""Acceptance criteria, one test per criterion, at their stated tolerances.

The PDE sweep of criteria 7-11 (single vortex at eps in {3e-3, 1e-3, 3e-4},
fixture `sweep`; a mixed pair at the smallest eps, fixture `pair`, read by
criteria 8 and 9 only) runs once per session on a disk of radius 1/16
(the confinement and circulation claims are domain-independent).  Both
run the pipeline's own stages on the run configs of conftest.py, so the
suite checks the solve that `vortexpatch run` writes.  Each test prints a
PASS/FAIL line.
"""

import re

import numpy as np
import pytest

from vortexpatch import (Domain, GreenEvaluator, HarmonicBackground,
                         background_from_flux, solve_profile)
from vortexpatch.ansatz import AnsatzField, solve_core_system, solve_s
from vortexpatch.diagnostics import (ansatz_energy, ansatz_energy_expansion,
                                     boundary_normal_velocity)
from vortexpatch.kirchhoff import VortexSystem, kr_value, phi_value
from vortexpatch.solver import picard_gap, setup_problem, solve_newton

from conftest import (EPS_SWEEP, PAIR_CONFIG, equilibrium_stage, random_disk_points,
                      solve_case)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def sig_digit_tolerance(value, digits=3):
    """Half a unit in the last matched significant digit."""
    mag = int(np.floor(np.log10(abs(value))))
    return 0.5 * 10.0**(mag - digits + 1)


# ---------------------------------------------------------------------- #
#  shared PDE sweep (criteria 7-11)
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="session")
def sweep(single_equilibrium, solved_case):
    """Single vortex at every eps of the sweep (criteria 7-11)."""
    ctx, vs_star = single_equilibrium
    singles = [solved_case] + [solve_case(ctx, vs_star, eps) for eps in EPS_SWEEP[1:]]
    return dict(q=ctx.q, rp=ctx.profile, singles=singles)


@pytest.fixture(scope="session")
def pair():
    """Mixed pair, equal strengths, zero background, at the smallest eps
    (criteria 8 and 9).  Kept apart from the singles so that a failure of
    this solve touches only the criteria that read it."""
    return solve_case(*equilibrium_stage(PAIR_CONFIG), EPS_SWEEP[-1])


# ---------------------------------------------------------------------- #
#  criteria 1-6 (no PDE solve)
# ---------------------------------------------------------------------- #


def test_criterion_1_pohozaev():
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        rp = solve_profile(p)
        shapes = rp.pohozaev_residuals()
        worst = max(worst, *shapes)
    ok = worst < 1e-8
    assert report(1, ok, f"Pohozaev identities, worst relative residual {worst:.2e} "
                         "(tolerance 1e-8)"), worst


def test_criterion_2_disk_green_oracle():
    dom = Domain.disk(1.0, big_r=4.0)
    images = GreenEvaluator(dom, backend="images")
    bie = GreenEvaluator(dom, backend="boundary-integral", order=256)
    rng = np.random.default_rng(42)
    pts = random_disk_points(rng, 100)
    worst = 0.0
    for i in range(0, 100, 2):
        x, y = pts[i], pts[i + 1]
        worst = max(worst,
                    abs(bie.green(x, y) - images.green(x, y)),
                    abs(bie.robin(x) - (np.log(1 - x @ x) / (2 * np.pi))),
                    abs(bie.g(x, y) - images.g(x, y)))
    ok = worst < 1e-6
    assert report(2, ok, f"cross-backend G/H/g at 50 probes, worst {worst:.2e} "
                         "(tolerance 1e-6)"), worst


def test_criterion_3_phi_identity():
    dom = Domain.disk(1.0, big_r=4.0)
    ge = GreenEvaluator(dom)
    q = background_from_flux(dom, lambda t: 0.3 * np.cos(t) + 0.1 * np.sin(2 * t))
    kappas = ([1.0, 0.7], [1.3])
    target = np.pi * np.log(4.0) * (1.0 + 0.49 + 1.69)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        pts = random_disk_points(rng, 3, rmax=0.6, min_sep=0.3)
        vs = VortexSystem(kappas[0], kappas[1], pts)
        lhs = phi_value(vs, ge, q) + 4 * np.pi**2 * kr_value(vs, ge, q)
        worst = max(worst, abs(lhs - target) / abs(target))
    ok = worst < 1e-10
    assert report(3, ok, f"Phi + 4 pi^2 W identity at 20 configurations, "
                         f"worst relative {worst:.2e} (tolerance 1e-10)"), worst


def test_criterion_4_core_expansions():
    dom = Domain.disk(1.0, big_r=4.0)
    ge = GreenEvaluator(dom)
    q = background_from_flux(dom, lambda t: np.cos(t))
    rp = solve_profile(2.0)
    vs = VortexSystem([1.0, 0.8], [1.2], [[0.35, 0.1], [-0.4, 0.25], [0.05, -0.45]])
    Z = vs.positions
    ratios_log = []
    ratios_a = []
    for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        cores = solve_core_system(vs, ge, q, eps, rp)
        lg = abs(np.log(eps))
        lre = np.log(4.0) + lg
        scale = np.log(lg) / lg**2
        gap_log = np.max(np.abs(1.0 / np.log(4.0 / cores.s_all) - 1.0 / lre))
        ratios_log.append(gap_log / scale)
        kap = vs.kappas
        expansion = np.empty(3)
        for i in range(3):
            sign = 1.0 if i < vs.m else -1.0
            val = (kap[i] + sign * 2 * np.pi * q.value(Z[i]) / lg
                   + kap[i] * ge.g(Z[i], Z[i]) / lre)
            for j in range(3):
                if j == i:
                    continue
                same = (j < vs.m) == (i < vs.m)
                val += (-1.0 if same else 1.0) * kap[j] * ge.bar_g(Z[i], Z[j]) / lre
            expansion[i] = val
        ratios_a.append(np.max(np.abs(cores.a_all - expansion)) / scale)
    spread_log = max(ratios_log) / min(ratios_log)
    spread_a = max(ratios_a) / min(ratios_a)
    ok = spread_log <= 5.0 and spread_a <= 5.0
    assert report(4, ok, f"core-system expansion remainders / (ln|ln eps|/|ln eps|^2) "
                         f"spread x{spread_log:.2f} (log factors) and x{spread_a:.2f} "
                         "(plateau levels); limit x5"), (spread_log, spread_a)


def test_criterion_5_core_radius_asymptotics():
    rp = solve_profile(2.0)
    a, big_r, delta = 1.0, 10.0, 1e-6
    s = solve_s(delta, a, big_r, rp)
    target = (abs(rp.slope_at_one) / a)**((rp.p - 1.0) / 2.0)
    dev = abs(s / (delta * abs(np.log(delta))**((rp.p - 1.0) / 2.0)) / target - 1.0)
    ok = dev < 0.01
    assert report(5, ok, f"s_delta/(delta |ln delta|^((p-1)/2)) within {dev:.3%} of "
                         "(|phi'(1)|/a)^((p-1)/2) at delta=1e-6 (tolerance 1%)"), dev


def test_criterion_6_ansatz_energy_expansion():
    # off-center single vortex: at the exact disk center the expansion is
    # exact and the comparison degenerates to quadrature noise
    dom = Domain.disk(1.0, big_r=4.0)
    ge = GreenEvaluator(dom)
    q0 = HarmonicBackground.zero()
    rp = solve_profile(2.0)
    vs = VortexSystem([1.0], [], [[0.3, 0.0]])
    errs = []
    for eps in EPS_SWEEP:
        cores = solve_core_system(vs, ge, q0, eps, rp)
        af = AnsatzField(cores, vs, rp, ge, q0)
        iq = ansatz_energy(af)
        ic = ansatz_energy_expansion(cores, vs, ge)
        errs.append(abs(iq - ic) / abs(ic))
    ok = errs[0] > errs[1] > errs[2] and errs[-1] <= 0.01
    assert report(6, ok, f"quadrature vs closed-form composite-field energy: relative "
                         f"errors {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}, "
                         "final <= 1%"), errs


# ---------------------------------------------------------------------- #
#  criteria 7-11 (shared sweep)
# ---------------------------------------------------------------------- #


def test_criterion_7_newton_convergence_and_correction_law(sweep):
    convs = [s["report"].converged for s in sweep["singles"]]
    assert report("7a", all(convs),
                  f"Newton converged from the composite-field guess at eps "
                  f"{list(EPS_SWEEP)} with h <= s/8 "
                  f"(iterations: {[s['report'].iterations for s in sweep['singles']]})")
    ratios = []
    for s in sweep["singles"]:
        d = s["cores"].delta
        denom = d * abs(np.log(d))**((s["cores"].p - 1.0) / 2.0)
        ratios.append(s["corr_recentered"] / denom)
    spread = max(ratios) / min(ratios)
    ok = spread < 3.0
    # Known shortfall, kept red by ROADMAP.md item 0 (the x3 window is not to
    # be widened): at the reduced equilibrium the true correction is far below
    # the delta |ln delta|^((p-1)/2) envelope (grid studies show the measured
    # norm is pure O(h^2) floor), so the bound holds with large margin but its
    # *rate* cannot be certified to a x3 window by any grid at h <= s/8.
    assert report("7b", ok,
                  f"correction ratios {[f'{r:.3f}' for r in ratios]} "
                  f"(max/min x{spread:.2f}, required < x3; envelope satisfied, "
                  "rate window not certifiable - see ROADMAP.md item 0)"), ratios


def test_pair_deflates_after_a_line_search_stall(pair):
    # the zero-background pair at 3e-4 is a degenerate equilibrium: plain
    # Newton creeps along the near-null pair, the line search gives up at its
    # smallest damping, and the deflated restart converges; every iteration,
    # the refused step included, has one residual and one damping entry
    rep = pair["report"]
    m = re.match(r"deflated from iteration (\d+) \(line search stalled", rep.notes)
    ok = rep.converged and m is not None and int(m.group(1)) <= 3 and rep.iterations <= 10
    assert ok, (rep.notes, rep.iterations)
    assert len(rep.residual_history) == len(rep.damping_history) + 1 == rep.iterations + 1


def test_criterion_8_circulation_limit(sweep, pair):
    gaps = []
    for s in sweep["singles"]:
        diag = s["diag"]
        gaps.append(abs(diag.circulations[0] - 1.0))
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))

    last = sweep["singles"][-1]
    cores = last["cores"]
    lg = abs(np.log(last["eps"]))
    pred = float(cores.a_plus[0] * lg / np.log(cores.big_r / cores.s_plus[0]))
    meas = float(last["diag"].circulations[0])
    tol3 = sig_digit_tolerance(pred - 1.0, 3)
    match = abs((meas - 1.0) - (pred - 1.0)) <= tol3

    pair_total = float(pair["diag"].total_circulation)
    pair_ok = abs(pair_total) <= 0.02
    ok = decreasing and match and pair_ok
    assert report(8, ok,
                  f"|circulation - 1| decreasing {[f'{g:.3f}' for g in gaps]}; "
                  f"smallest-eps match |{meas - 1.0:.6f} - {pred - 1.0:.6f}| = "
                  f"{abs(meas - pred):.2e} <= {tol3:.2e} (3 significant digits); "
                  f"mixed pair total circulation {pair_total:.2e} <= 0.02"), \
        (gaps, meas, pred, pair_total)


def test_criterion_9_support_confinement(sweep, pair):
    all_ok = True
    details = []
    cases = [(s, i) for s in sweep["singles"] for i in range(1)]
    cases += [(pair, i) for i in range(2)]
    for s, i in cases:
        cores = s["cores"]
        diag = s["diag"]
        sv = cores.s_all[i]
        lo = sv * (1.0 - 10.0 * sv)
        hi = sv * (1.0 + sv**0.1)
        inside = diag.support_outer[i] <= hi
        contains = diag.support_inner[i] >= lo
        all_ok &= inside and contains
        details.append(f"eps={s['eps']:g}/v{i}: [{diag.support_inner[i] / sv:.4f}, "
                       f"{diag.support_outer[i] / sv:.4f}]s in [{lo / sv:.4f}, {hi / sv:.4f}]s")
    assert report(9, all_ok, "vorticity supports inside B(z, s(1+s^0.1)) and "
                             "containing B(z, s(1-10s)): " + "; ".join(details)), details


def test_criterion_10_flow_reconstruction(sweep):
    s = sweep["singles"][-1]
    flow = s["flow"]
    reg = flow.regular
    vmax = float(np.max(np.abs(flow.velocity)))
    div_rel = float(np.max(np.abs(flow.divergence[reg]))) / vmax

    z = s["vs"].positions[0]
    pts = s["grid"].points
    r = np.hypot(*(pts - z).T)
    sv = s["cores"].s_plus[0]
    curl_in = float(np.max(np.abs(flow.curl[(r < 0.8 * sv) & reg])))
    curl_out = float(np.max(np.abs(flow.curl[(r > 3.0 * sv) & reg])))
    curl_ratio = curl_out / curl_in

    t, vn = boundary_normal_velocity(flow, n_samples=64)
    vn_err = float(np.max(np.abs(vn - 0.1 * np.cos(t))))
    stencil_tol = 0.05 * 0.1   # boundary-stencil error budget: 5% of the flux amplitude

    ok = div_rel <= 1e-6 and curl_ratio <= 1e-3 and vn_err <= stencil_tol
    assert report(10, ok,
                  f"div(v)/|v| = {div_rel:.2e} (<= 1e-6); curl outside/inside = "
                  f"{curl_ratio:.2e} (<= 1e-3); boundary v_n error {vn_err:.2e} "
                  f"(stencil budget {stencil_tol:.1e})"), (div_rel, curl_ratio, vn_err)


def test_criterion_11_cross_solver_and_variables(sweep):
    # Picard-map fixed-point gap at the Newton solution (the bare map has the
    # solution as an unstable fixed point, so the cross-check is the gap)
    s = sweep["singles"][1]   # eps = 1e-3: mid-size grid
    gap = picard_gap(s["setup"], s["field"].values)

    # u-form solve converted back to w-form by the w-form setup's u per unit
    w_unit = s["setup"].u_per_unit
    setup_u = setup_problem(s["grid"], s["vs"], sweep["q"], s["eps"],
                            sweep["rp"].p, variable="u")
    fld_u, rep_u = solve_newton(setup_u, s["af"].evaluate(s["grid"].points) * w_unit)
    diff = float(np.max(np.abs(fld_u.values / w_unit - s["field"].values)))
    ok = gap <= 1e-8 and rep_u.converged and diff <= 1e-8
    assert report(11, ok,
                  f"Picard fixed-point gap at the Newton solution {gap:.2e} (<= 1e-8); "
                  f"u-form vs w-form solve difference {diff:.2e} (<= 1e-8)"), (gap, diff)
