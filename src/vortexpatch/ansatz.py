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

the same table gives the first-order tilt of ansatz_tilt.  For fixed core
radii these equations are linear in the plateau levels, so the solver
alternates 1D gluing-root solves with a linear update until both residual
families sit at rounding level.
"""

import math
import warnings

import numpy as np
from dataclasses import dataclass, field

from .errors import DomainError, SolvabilityError, ConvergenceError
from .kirchhoff import interaction_table

TWO_PI = 2.0 * np.pi


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
    """The truncated bump W_{delta,a}(x - z); defined for |x - z| <= bigR."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    r = np.hypot(pts[..., 0] - z[0], pts[..., 1] - z[1])
    if np.any(r > big_r * (1.0 + 1e-12)):
        raise DomainError("evaluation point outside B_bigR(z)")
    amp = delta**(2.0 / (rp.p - 1.0)) * s**(-2.0 / (rp.p - 1.0))
    inner = a + amp * rp.phi_at(np.minimum(r / s, 1.0))
    outer = a * np.log(np.maximum(r, 1e-300) / big_r) / np.log(s / big_r)
    out = np.where(r <= s, inner, outer)
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
        return {
            "eps": self.eps, "delta": self.delta, "p": self.p, "big_r": self.big_r,
            "s_plus": self.s_plus.tolist(), "a_plus": self.a_plus.tolist(),
            "s_minus": self.s_minus.tolist(), "a_minus": self.a_minus.tolist(),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "iterations": self.iterations,
        }


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


def solve_core_system(vs, green, q, eps, rp, big_r=None, max_iter=200,
                      tol=1e-12, check_multiplicity=True):
    """Solve the coupled (s_i, a_i) system at parameter eps.

    Alternates the 1D gluing solves (given plateau levels) with the linear
    plateau balance (given core radii), damping the plateau update by 0.5
    when it starts oscillating.  All four residual families must land below
    tol; divergence and negative plateau values raise with diagnostics.
    """
    big_r = green.big_r if big_r is None else big_r
    delta = delta_from_eps(eps, rp.p)
    table = interaction_table(vs, green)
    a = _iterate_cores(vs, table, q, eps, delta, rp, big_r, vs.kappas.copy(),
                       max_iter, tol)
    if check_multiplicity:
        try:
            a_alt = _iterate_cores(vs, table, q, eps, delta, rp, big_r,
                                   1.5 * vs.kappas, max_iter, tol)
            if np.max(np.abs(a_alt[0] - a[0])) > 1e-9 * np.max(np.abs(a[0])):
                warnings.warn(
                    "core system admits multiple fixed points at this eps; "
                    "reporting the branch seeded at a = kappa", stacklevel=2)
        except (SolvabilityError, ConvergenceError):
            pass

    a_vec, s_vec, iters = a
    m = vs.m
    cores = CoreParameters(eps=float(eps), delta=float(delta), p=rp.p,
                           big_r=float(big_r),
                           s_plus=s_vec[:m].copy(), a_plus=a_vec[:m].copy(),
                           s_minus=s_vec[m:].copy(), a_minus=a_vec[m:].copy(),
                           iterations=iters)
    res = core_residuals(cores, vs, table, q, rp)
    cores.residuals = {k: float(np.max(v)) if len(v) else 0.0 for k, v in res.items()}
    worst = max(cores.residuals.values())
    if worst > tol:
        raise ConvergenceError(
            f"core system residual {worst:.2e} above tol {tol:.1e} at eps={eps:.3e}",
            best=cores)
    return cores


def _iterate_cores(vs, table, q, eps, delta, rp, big_r, a_init, max_iter, tol):
    k = vs.m + vs.n
    rhs = activation_level(vs.kappas, vs.signs, q.value(vs.positions), eps)
    coupling = table.S * table.bar

    a = a_init.astype(float).copy()
    prev_step = None
    damping = 1.0
    kappa_scale = float(np.max(vs.kappas))
    for it in range(1, max_iter + 1):
        s = np.array([solve_s(delta, a[i], big_r, rp) for i in range(k)])
        L = np.log(big_r / s)
        # linear balance for the plateau levels at frozen radii
        A = np.eye(k) - np.diag(table.g_diag / L) + coupling / L[None, :]
        a_new = np.linalg.solve(A, rhs)
        step = a_new - a
        if prev_step is not None and np.dot(step, prev_step) < 0:
            damping = 0.5
        a_next = a + damping * step
        if np.any(a_next <= 0):
            raise SolvabilityError(
                f"negative plateau level encountered at eps={eps:.3e}; "
                "the vortex interactions are too strong at this scale")
        if not np.all(np.isfinite(a_next)) or np.max(a_next) > 1e6 * kappa_scale:
            raise ConvergenceError(
                f"core-system iteration diverged at eps={eps:.3e}")
        delta_a = float(np.max(np.abs(a_next - a)))
        a = a_next
        prev_step = step
        if delta_a <= 1e-15 * max(1.0, float(np.max(a))):
            s = np.array([solve_s(delta, a[i], big_r, rp) for i in range(k)])
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
              + sum_{opposite l} (a_l/L_l) grad_x barG(z_i, z_l).

    Zeroing all t_i places the configuration at the finite-eps equilibrium of
    the reduced energy; at that point the near-solution has no first-order
    defect and the vorticity supports stay concentric with their vortices.
    """
    t = interaction_table(vs, green)
    c = cores.a_all / np.log(cores.big_r / cores.s_all)
    return ((TWO_PI / eps_log(cores.eps)) * vs.signs[:, None] * q.grad(vs.positions)
            + c[:, None] * t.dg_diag - np.einsum("ij,j,ijh->ih", t.S, c, t.dbar))


def refine_positions(vs, green, q, eps, rp, big_r=None, tol=None, max_iter=40):
    """Move the vortex positions to the finite-eps reduced equilibrium.

    Newton (finite-difference Jacobian) on the tilt balance of ansatz_tilt,
    re-solving the core system at every evaluation.  Seeded at a critical
    point of the interaction energy this converges in a few steps and shifts
    each center by O(1/|ln eps|); the shift vanishes in the limit.
    """
    big_r = green.big_r if big_r is None else big_r
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.max(vs.kappas)))
    Z = vs.positions.copy()
    k = vs.m + vs.n

    def tilt_of(Zflat):
        work = vs.with_positions(Zflat.reshape(k, 2))
        cores = solve_core_system(work, green, q, eps, rp, big_r=big_r,
                                  check_multiplicity=False)
        return ansatz_tilt(cores, work, green, q).ravel(), cores

    zf = Z.ravel()
    f, cores = tilt_of(zf)
    step_fd = 1e-7 * green.domain.diameter
    for _ in range(max_iter):
        if np.max(np.abs(f)) <= tol:
            break
        J = np.zeros((2 * k, 2 * k))
        for c in range(2 * k):
            zp = zf.copy()
            zp[c] += step_fd
            J[:, c] = (tilt_of(zp)[0] - f) / step_fd
        try:
            d = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(J, -f, rcond=None)[0]
        lam = 1.0
        while lam > 1e-6:
            try:
                f_new, cores_new = tilt_of(zf + lam * d)
            except (SolvabilityError, ConvergenceError, DomainError):
                lam *= 0.5
                continue
            if np.max(np.abs(f_new)) < np.max(np.abs(f)):
                zf = zf + lam * d
                f, cores = f_new, cores_new
                break
            lam *= 0.5
        else:
            break
    else:
        raise ConvergenceError(
            f"position refinement stalled at tilt {np.max(np.abs(f)):.3e}")
    return vs.with_positions(zf.reshape(k, 2)), cores


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


def support_predict(af, T=10.0, sigma=0.1, check=True, n_angles=32):
    """Bracketing radii s(1 - T s) and s(1 + s^sigma) for each vortex.

    With check=True the ansatz is sampled on circles strictly inside/outside
    the bracket and the predicted sign of (field - activation level) is
    verified; failures raise with the measured bracket.
    """
    cores = af.cores
    k = af.vs.m + af.vs.n
    inner = np.empty(k)
    outer = np.empty(k)
    for idx in range(k):
        s = cores.s_all[idx]
        z = af.vs.positions[idx]
        inner[idx] = s * (1.0 - T * s)
        outer[idx] = s * (1.0 + s**sigma)
        if inner[idx] <= 0:
            raise SolvabilityError(
                f"support bracket degenerate for vortex {idx}: T*s = {T * s:.3e} >= 1")
        if not check:
            continue
        r_sub = _subdomain_radius(af, idx)
        r_check = min(2.0 * s, 0.5 * (outer[idx] + r_sub))
        if r_check <= outer[idx]:
            raise SolvabilityError(
                f"support bracket for vortex {idx} exceeds its subdomain "
                f"(outer {outer[idx]:.3e} vs subdomain radius {r_sub:.3e})")
        th = TWO_PI * np.arange(n_angles) / n_angles
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


def _subdomain_radius(af, idx):
    subs = af.vs.default_subdomains(af.green.domain)
    return subs[idx][1]
