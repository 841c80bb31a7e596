"""Explicit near-solution: truncated cores, plateau levels, projections.

Each vortex carries a core radius s and a plateau level a.  The radial bump

    W_{delta,a}(x) = a + delta^(2/(p-1)) s^(-2/(p-1)) phi(|x|/s),   |x| <= s
                   = a ln(|x|/bigR) / ln(s/bigR),                   s <= |x| <= bigR

is C^1 across |x| = s exactly when s solves the gluing equation

    delta^(2/(p-1)) s^(-2/(p-1)) phi'(1) = a / ln(s/bigR).

Subtracting the harmonic extension of the tail gives the projected bump

    PW(x) = W_{delta,z,a}(x) - a g(x, z) / ln(bigR/s),

which vanishes on the boundary, and the composite field is

    sum_i PW(z_i^+, a_i^+) - sum_j PW(z_j^-, a_j^-).

The plateau levels couple through the per-vortex balance equations

    a_i^+ = kappa_i^+ + 2 pi q(z_i^+)/|ln eps| + a_i^+ g(z_i^+, z_i^+)/L_i^+
            - sum_{al != i} a_al^+ barG(z_i^+, z_al^+)/L_al^+
            + sum_l a_l^- barG(z_i^+, z_l^-)/L_l^-,       L = ln(bigR/s),

with the minus family the exact +/- mirror (the sign of the q term flips and
the roles of the two families swap).  In array form, with c = a/L and the
signed table S_ij = sigma_i sigma_j of kirchhoff.interaction_table,

    a = kappa + sigma 2 pi q(z)/|ln eps| + g(z, z) c - (S o barG) c;

the same table gives the first-order tilt of ansatz_tilt (the gradient of
the Kirchhoff-Routh energy with kappa replaced by c, kirchhoff.signed_tilt).
The gluing equation fixes each core radius as a function s(a) of its
plateau level, so the solver runs Newton on the plateau levels alone, with
the derivative of L = ln(bigR/s(a)) from the implicit function theorem,
until both residual families sit at rounding level.
"""

import math
import warnings

import numpy as np
from dataclasses import asdict, dataclass, field

from .errors import DomainError, SolvabilityError, ConvergenceError
from .kirchhoff import interaction_table, signed_tilt

TWO_PI = 2.0 * np.pi
# every residual family of the core system must land below this
CORE_TOL = 1e-12
# Newton steps of refine_positions before it reports a stall
REFINE_MAX_ITER = 40
# support_predict's bracket s(1 - T s) < r < s(1 + s^sigma), checked on
# SUPPORT_ANGLES rays
SUPPORT_T = 10.0
SUPPORT_SIGMA = 0.1
SUPPORT_ANGLES = 32


def delta_from_eps(eps, p):
    """delta = eps (2 pi / |ln eps|)^((p-1)/2)."""
    return eps * (TWO_PI / abs(np.log(eps)))**((p - 1.0) / 2.0)


def eps_log(eps):
    return abs(np.log(eps))


def activation_level(kappa, sign, q_values, eps):
    """kappa + sign 2 pi q/|ln eps|: the level of the rescaled field w at
    which a vortex's gate opens (times |ln eps|/2 pi in u units)."""
    return kappa + sign * TWO_PI * q_values / eps_log(eps)


# ---------------------------------------------------------------------- #
#  single-core machinery
# ---------------------------------------------------------------------- #


def w_delta_eval(delta, a, s, z, rp, big_r, x):
    """The truncated bump W_{delta,a}(x - z); defined for |x - z| <= bigR.

    Each point takes its own side of r = s only: the core a + amp phi(r/s)
    on r <= s, the log tail a ln(r/bigR)/ln(s/bigR) beyond."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    r = np.hypot(pts[..., 0] - z[0], pts[..., 1] - z[1])
    if np.any(r > big_r * (1.0 + 1e-12)):
        raise DomainError("evaluation point outside B_bigR(z)")
    amp = delta**(2.0 / (rp.p - 1.0)) * s**(-2.0 / (rp.p - 1.0))
    core = r <= s
    out = np.empty_like(r)
    out[core] = a + amp * rp.phi_at(r[core] / s)
    out[~core] = a * np.log(r[~core] / big_r) / np.log(s / big_r)
    return float(out[0]) if single else out


def glue_residual(delta, a, s, rp, big_r):
    """Residual of the C^1 gluing equation in its printed form."""
    lhs = delta**(2.0 / (rp.p - 1.0)) * s**(-2.0 / (rp.p - 1.0)) * rp.slope_at_one
    return lhs - a / np.log(s / big_r)


def _glue_root(delta, a, big_r, al, c, lo, hi):
    """The root in log s of f(ls) = (delta/s)^al c ln(bigR/s) - a, s = e^ls,
    inside [lo, hi] with f(lo) > 0 > f(hi): Newton on Python floats, with a
    bisection of the shrinking bracket whenever a step would leave it."""
    ls = 0.5 * (lo + hi)
    for _ in range(200):
        s = math.exp(ls)
        u = (delta / s)**al * c
        big_l = math.log(big_r / s)
        f = u * big_l - a
        if f > 0.0:
            lo = ls
        else:
            hi = ls
        new = ls + f / (u * (al * big_l + 1.0))       # f' = -u (al ln(bigR/s) + 1)
        if new == ls:
            break
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
            if new in (lo, hi):                       # bracket at adjacent floats
                break
        ls = new
    return ls


def solve_s(delta, a, big_r, rp):
    """Unique core radius in (0, bigR) solving the gluing equation.

    Brackets the root on a log grid (the rescaled residual
    (delta/s)^(2/(p-1)) |phi'(1)| ln(bigR/s) - a decreases in s), then
    refines by safeguarded Newton in log s.
    """
    if delta <= 0 or a <= 0:
        raise SolvabilityError("solve_s needs delta > 0 and a > 0")
    al = 2.0 / (rp.p - 1.0)
    c = abs(rp.slope_at_one)

    def f(ls):
        s = np.exp(ls)
        return (delta / s)**al * c * np.log(big_r / s) - a

    lo = np.log(delta) - 60.0
    hi = np.log(big_r) - 1e-12
    grid = np.linspace(lo, hi, 200)
    vals = f(grid)
    sign = np.sign(vals)
    idx = np.nonzero(np.diff(sign) < 0)[0]
    if len(idx) == 0:
        raise SolvabilityError(
            "no admissible core radius: the gluing equation has no sign change "
            f"in (0, bigR) for delta={delta:.3e}; use a smaller delta")
    s = math.exp(_glue_root(float(delta), float(a), float(big_r), al, c,
                            float(grid[idx[0]]), float(grid[idx[0] + 1])))
    res = abs(glue_residual(delta, a, s, rp, big_r))
    if res > 1e-12 * max(1.0, a / abs(np.log(s / big_r))):
        raise SolvabilityError(f"gluing root refinement stalled at residual {res:.2e}")
    return s


# ---------------------------------------------------------------------- #
#  coupled core system
# ---------------------------------------------------------------------- #


@dataclass
class CoreParameters:
    eps: float
    delta: float
    p: float
    big_r: float
    s_plus: np.ndarray
    a_plus: np.ndarray
    s_minus: np.ndarray
    a_minus: np.ndarray
    residuals: dict = field(default_factory=dict)
    iterations: int = 0

    @property
    def s_all(self):
        return np.concatenate([self.s_plus, self.s_minus])

    @property
    def a_all(self):
        return np.concatenate([self.a_plus, self.a_minus])

    def to_dict(self):
        return asdict(self)


def core_residuals(cores, vs, table, q, rp):
    """Residual families of the gluing equations and the plateau balances."""
    m = vs.m
    s = cores.s_all
    a = cores.a_all
    c = a / np.log(cores.big_r / s)
    glue = glue_residual(cores.delta, a, s, rp, cores.big_r)
    rhs = (activation_level(vs.kappas, vs.signs, q.value(vs.positions), cores.eps)
           + table.g_diag * c - (table.S * table.bar) @ c)
    bal = a - rhs
    return {"glue_plus": np.abs(glue[:m]), "glue_minus": np.abs(glue[m:]),
            "balance_plus": np.abs(bal[:m]), "balance_minus": np.abs(bal[m:])}


def solve_core_system(vs, green, q, eps, rp, max_iter=200):
    """Solve the coupled (s_i, a_i) system at parameter eps.

    Newton on the plateau levels, seeded at a = kappa, with each core radius
    the gluing root s(a) of solve_s; a step is halved only to keep every
    plateau level positive.  All four residual families must land below
    CORE_TOL; divergence and non-positive plateau levels raise with
    diagnostics.  A second solve seeded at a = 1.5 kappa warns when it lands
    on another root.
    """
    big_r = green.big_r
    table = interaction_table(vs, green)
    cores = _solve_cores(vs, table, q, eps, rp, big_r, vs.kappas, max_iter)
    _warn_if_multiple(cores, vs, table, q, rp, max_iter)
    return cores


def _warn_if_multiple(cores, vs, table, q, rp, max_iter=200):
    """Solve the core system again from a = 1.5 kappa and warn when it lands
    on another root than `cores`."""
    try:
        a_alt = _iterate_cores(vs, table, q, cores.eps, cores.delta, rp, cores.big_r,
                               1.5 * vs.kappas, max_iter)[0]
    except (SolvabilityError, ConvergenceError):
        return
    if np.max(np.abs(a_alt - cores.a_all)) > 1e-9 * np.max(np.abs(cores.a_all)):
        warnings.warn(
            "core system admits multiple fixed points at this eps; "
            "reporting the branch seeded at a = kappa", stacklevel=3)


def _solve_cores(vs, table, q, eps, rp, big_r, a_init, max_iter=200):
    """The core system on a given interaction table, seeded at a_init."""
    delta = delta_from_eps(eps, rp.p)
    a_vec, s_vec, iters = _iterate_cores(vs, table, q, eps, delta, rp, big_r,
                                         a_init, max_iter)
    m = vs.m
    cores = CoreParameters(eps=float(eps), delta=float(delta), p=rp.p,
                           big_r=float(big_r),
                           s_plus=s_vec[:m].copy(), a_plus=a_vec[:m].copy(),
                           s_minus=s_vec[m:].copy(), a_minus=a_vec[m:].copy(),
                           iterations=iters)
    res = core_residuals(cores, vs, table, q, rp)
    cores.residuals = {k: float(np.max(v)) if len(v) else 0.0 for k, v in res.items()}
    worst = max(cores.residuals.values())
    if worst > CORE_TOL:
        raise ConvergenceError(
            f"core system residual {worst:.2e} above tol {CORE_TOL:.1e} at eps={eps:.3e}",
            best=cores)
    return cores


def _iterate_cores(vs, table, q, eps, delta, rp, big_r, a_init, max_iter):
    """Newton on F(a) = a - rhs - g_diag c + (S o barG) c, c = a/L(a).

    L = ln(bigR/s) with s(a) the gluing root, so u L = a for
    u = (delta/s)^al |phi'(1)|, al = 2/(p-1), and L' = 1/(u (al L + 1)) (the
    f' of _glue_root); hence c' = 1/L - a L'/L^2 = al/(al L + 1) and
    J = I - diag(g_diag c') + (S o barG) diag(c').  A step that would leave
    a plateau level non-positive is halved until all stay positive; when two
    steps in a row need that, Newton is driving a level through zero and
    SolvabilityError is raised.
    """
    rhs = activation_level(vs.kappas, vs.signs, q.value(vs.positions), eps)
    coupling = table.S * table.bar
    al = 2.0 / (rp.p - 1.0)

    a = np.array(a_init, dtype=float)
    halved = False
    kappa_scale = float(np.max(vs.kappas))
    for it in range(1, max_iter + 1):
        s = np.array([solve_s(delta, ai, big_r, rp) for ai in a])
        L = np.log(big_r / s)
        c = a / L
        F = a - rhs - table.g_diag * c + coupling @ c
        dc = al / (al * L + 1.0)
        J = np.eye(len(a)) - np.diag(table.g_diag * dc) + coupling * dc[None, :]
        step = -np.linalg.solve(J, F)
        lam = 1.0
        while np.any(a + lam * step <= 0):
            lam *= 0.5
        if lam < 1.0 and halved:
            raise SolvabilityError(
                f"negative plateau level encountered at eps={eps:.3e}; "
                "the vortex interactions are too strong at this scale")
        halved = lam < 1.0
        a_next = a + lam * step
        if not np.all(np.isfinite(a_next)) or np.max(a_next) > 1e6 * kappa_scale:
            raise ConvergenceError(
                f"core-system iteration diverged at eps={eps:.3e}")
        delta_a = float(np.max(np.abs(a_next - a)))
        a = a_next
        if delta_a <= 1e-15 * max(1.0, float(np.max(a))):
            s = np.array([solve_s(delta, ai, big_r, rp) for ai in a])
            return a, s, it
    raise ConvergenceError(
        f"core system did not settle in {max_iter} iterations at eps={eps:.3e}")


# ---------------------------------------------------------------------- #
#  composite field
# ---------------------------------------------------------------------- #


def ansatz_tilt(cores, vs, green, q):
    """First-order tilt of the composite field at each vortex center.

    Inside core i the composite field minus its activation level is the pure
    bump plus a linear term <t_i, x - z_i> with

        t_i = sign_i (2 pi/|ln eps|) grad q(z_i) + (a_i/L_i) grad_x g(z_i, z_i)
              - sum_{same sign, k != i} (a_k/L_k) grad_x barG(z_i, z_k)
              + sum_{opposite l} (a_l/L_l) grad_x barG(z_i, z_l),

    kirchhoff.signed_tilt with weights c = a/L.  Zeroing all t_i places the
    configuration at the finite-eps equilibrium of the reduced energy; at
    that point the near-solution has no first-order defect and the vorticity
    supports stay concentric with their vortices.
    """
    c = cores.a_all / np.log(cores.big_r / cores.s_all)
    return signed_tilt(vs, interaction_table(vs, green), q, c, TWO_PI / eps_log(cores.eps))


def refine_positions(vs, green, q, eps, rp):
    """Move the vortex positions to the finite-eps reduced equilibrium.

    Newton (finite-difference Jacobian) on the tilt balance of ansatz_tilt,
    to a max tilt of 1e-12 max(1, max kappa) within REFINE_MAX_ITER steps,
    re-solving the core system at every evaluation on the one interaction
    table that the tilt reads; the perturbed and trial positions seed it at
    the current plateau levels; at the final position a second core solve
    from a = 1.5 kappa warns when the core system has another root.  Seeded
    at a critical point of the interaction energy this converges in a few
    steps and shifts each center by O(1/|ln eps|); the shift vanishes in the
    limit.
    """
    big_r = green.big_r
    tol = 1e-12 * max(1.0, float(np.max(vs.kappas)))
    Z = vs.positions.copy()
    k = vs.m + vs.n
    q_weight = TWO_PI / eps_log(eps)

    def tilt_of(Zflat, a_init):
        work = vs.with_positions(Zflat.reshape(k, 2))
        table = interaction_table(work, green)
        cores = _solve_cores(work, table, q, eps, rp, big_r, a_init)
        c = cores.a_all / np.log(big_r / cores.s_all)
        return signed_tilt(work, table, q, c, q_weight).ravel(), cores, table

    zf = Z.ravel()
    f, cores, table = tilt_of(zf, vs.kappas)
    step_fd = 1e-7 * green.domain.diameter
    for _ in range(REFINE_MAX_ITER):
        if np.max(np.abs(f)) <= tol:
            break
        J = np.zeros((2 * k, 2 * k))
        for c in range(2 * k):
            zp = zf.copy()
            zp[c] += step_fd
            J[:, c] = (tilt_of(zp, cores.a_all)[0] - f) / step_fd
        try:
            d = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(J, -f, rcond=None)[0]
        lam = 1.0
        while lam > 1e-6:
            try:
                trial = tilt_of(zf + lam * d, cores.a_all)
            except (SolvabilityError, ConvergenceError, DomainError):
                lam *= 0.5
                continue
            if np.max(np.abs(trial[0])) < np.max(np.abs(f)):
                zf = zf + lam * d
                f, cores, table = trial
                break
            lam *= 0.5
        else:
            break
    else:
        raise ConvergenceError(
            f"position refinement stalled at tilt {np.max(np.abs(f)):.3e}")
    vs_eps = vs.with_positions(zf.reshape(k, 2))
    _warn_if_multiple(cores, vs_eps, table, q, rp)
    return vs_eps, cores


class AnsatzField:
    """The composite projected field P^+ - P^- and its pieces.

    Immutable after construction; evaluation is pure and vectorized over
    batches of points.
    """

    def __init__(self, cores, vs, rp, green, q):
        self.cores = cores
        self.vs = vs
        self.rp = rp
        self.green = green
        self.q = q
        self.big_r = cores.big_r

    def _params(self, idx):
        s = self.cores.s_all[idx]
        a = self.cores.a_all[idx]
        z = self.vs.positions[idx]
        return s, a, z

    def pw_eval(self, idx, x):
        """One projected bump PW for vortex idx (sign not applied)."""
        s, a, z = self._params(idx)
        w = w_delta_eval(self.cores.delta, a, s, z, self.rp, self.big_r, x)
        return w - a / np.log(self.big_r / s) * self.green.g(x, z)

    def evaluate(self, x, require_inside=True):
        """P^+(x) - P^-(x)."""
        if require_inside:
            if not np.all(self.green.domain.contains(np.asarray(x, dtype=float))):
                raise DomainError("ansatz evaluation point outside the domain")
        total = sum(sign * np.asarray(self.pw_eval(idx, x))
                    for idx, sign in enumerate(self.vs.signs))
        return float(total) if np.ndim(total) == 0 else total

    def threshold(self, idx, x):
        """kappa_idx (+/-) 2 pi q(x)/|ln eps|: the local activation level."""
        return activation_level(self.vs.kappas[idx], self.vs.signs[idx],
                                self.q.value(x), self.cores.eps)

    def excess(self, idx, x):
        """Signed field minus the activation level near vortex idx."""
        return (self.vs.signs[idx] * self.evaluate(x, require_inside=False)
                - self.threshold(idx, x))


def support_predict(af, check=True):
    """Bracketing radii s(1 - T s) and s(1 + s^sigma) for each vortex
    (T = SUPPORT_T, sigma = SUPPORT_SIGMA).

    With check=True the ansatz is sampled on SUPPORT_ANGLES rays on circles
    strictly inside/outside the bracket and the predicted sign of
    (field - activation level) is verified; failures raise with the measured
    bracket.
    """
    cores = af.cores
    k = af.vs.m + af.vs.n
    inner = np.empty(k)
    outer = np.empty(k)
    for idx in range(k):
        s = cores.s_all[idx]
        z = af.vs.positions[idx]
        inner[idx] = s * (1.0 - SUPPORT_T * s)
        outer[idx] = s * (1.0 + s**SUPPORT_SIGMA)
        if inner[idx] <= 0:
            raise SolvabilityError(
                f"support bracket degenerate for vortex {idx}: T*s = {SUPPORT_T * s:.3e} >= 1")
        if not check:
            continue
        r_sub = af.vs.subdomain_radii(af.green.domain)[idx]
        r_check = min(2.0 * s, 0.5 * (outer[idx] + r_sub))
        if r_check <= outer[idx]:
            raise SolvabilityError(
                f"support bracket for vortex {idx} exceeds its subdomain "
                f"(outer {outer[idx]:.3e} vs subdomain radius {r_sub:.3e})")
        th = TWO_PI * np.arange(SUPPORT_ANGLES) / SUPPORT_ANGLES
        ex_in = af.excess(idx, _ring(z, 0.5 * s, th))
        ex_out = af.excess(idx, _ring(z, r_check, th))
        if not np.all(ex_in > 0):
            raise SolvabilityError(
                f"support bracket failed inside vortex {idx}: min excess {ex_in.min():.3e}")
        if not np.all(ex_out < 0):
            raise SolvabilityError(
                f"support bracket failed outside vortex {idx}: max excess {ex_out.max():.3e}")
    return inner, outer


def _ring(z, r, angles):
    return z + r * np.column_stack((np.cos(angles), np.sin(angles)))
