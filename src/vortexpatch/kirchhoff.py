"""Kirchhoff-Routh interaction energy of a +/- point-vortex system.

For strengths kappa_i^+ > 0 (i = 1..m) and kappa_j^- > 0 (j = 1..n) at
positions z_i^+, z_j^- the interaction energy is

    W = 1/2 sum_{i != k} k_i^+ k_k^+ G(z_i^+, z_k^+)
      + 1/2 sum_{j != l} k_j^- k_l^- G(z_j^-, z_l^-)
      + 1/2 sum_i (k_i^+)^2 H(z_i^+, z_i^+) + 1/2 sum_j (k_j^-)^2 H(z_j^-, z_j^-)
      - sum_{i,j} k_i^+ k_j^- G(z_i^+, z_j^-)
      + sum_i k_i^+ psi0(z_i^+) - sum_j k_j^- psi0(z_j^-),     psi0 = -q.

Its critical points are the stationary point-vortex configurations that the
desingularization targets.  The companion functional

    Phi = 4 pi^2 [sum k^+ q(z^+) - sum k^- q(z^-)]
        + pi sum (k^+)^2 g(z^+, z^+) + pi sum (k^-)^2 g(z^-, z^-)
        - pi sum_{i != k} k_i^+ k_k^+ barG - pi sum_{j != l} k_j^- k_l^- barG
        + 2 pi sum_{i,j} k_i^+ k_j^- barG(z_i^+, z_j^-)

satisfies Phi = -4 pi^2 W + pi ln(bigR) sum kappa^2 exactly, so the two share
critical points; the identity is a standing cross-check.
"""

import numpy as np
from dataclasses import dataclass, field

from .errors import ConfigError, ConvergenceError, DomainError, SingularityError

# admissible positions keep a boundary clearance rho = CLEARANCE * diameter
# and a pairwise separation rho^SEPARATION_EXPONENT
CLEARANCE = 0.05
SEPARATION_EXPONENT = 2.0
# a Hessian eigenvalue at most this fraction of the largest one is zero
DEGENERACY_THRESHOLD = 1e-8
# critical points closer than this in every coordinate are the same one
DEDUPE_TOL = 1e-6


@dataclass
class VortexSystem:
    """Strengths and positions of the vortex system.

    positions holds the m plus-vortices first, then the n minus-vortices.
    subdomains, when set, is a list of (center, radius) disks, one per vortex,
    mutually disjoint and compactly inside the domain.
    """
    kappa_plus: np.ndarray
    kappa_minus: np.ndarray
    positions: np.ndarray
    subdomains: list = None

    def __post_init__(self):
        self.kappa_plus = np.atleast_1d(np.asarray(self.kappa_plus, dtype=float))
        self.kappa_minus = np.atleast_1d(np.asarray(self.kappa_minus, dtype=float)) \
            if np.size(self.kappa_minus) else np.zeros(0)
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if np.any(self.kappa_plus <= 0) or np.any(self.kappa_minus <= 0):
            raise ConfigError("all vortex strengths must be positive")
        if self.positions.shape != (self.m + self.n, 2):
            raise ConfigError("positions must be (m + n, 2)")

    @property
    def m(self):
        return len(self.kappa_plus)

    @property
    def n(self):
        return len(self.kappa_minus)

    @property
    def kappas(self):
        return np.concatenate([self.kappa_plus, self.kappa_minus])

    @property
    def signs(self):
        return np.concatenate([np.ones(self.m), -np.ones(self.n)])

    def with_positions(self, Z):
        return VortexSystem(self.kappa_plus, self.kappa_minus,
                            np.asarray(Z, dtype=float).reshape(self.m + self.n, 2),
                            subdomains=self.subdomains)

    def check_admissible(self, domain):
        """Raise DomainError unless every vortex clears the boundary by
        rho = CLEARANCE * diameter and every pair by rho^SEPARATION_EXPONENT."""
        rho = CLEARANCE * domain.diameter
        k = self.m + self.n
        close = any(np.hypot(*(self.positions[i] - self.positions[j])) < rho**SEPARATION_EXPONENT
                    for i in range(k) for j in range(i + 1, k))
        if close or not np.all(domain.signed_distance(self.positions) >= rho):
            raise DomainError("vortex positions violate the separation constraints")

    def default_subdomains(self, domain):
        """Disks around each vortex: radius min(rho, half min pairwise distance)."""
        if self.subdomains is not None:
            return self.subdomains
        k = self.m + self.n
        radius = CLEARANCE * domain.diameter
        if k > 1:
            dmin = min(np.hypot(*(self.positions[i] - self.positions[j]))
                       for i in range(k) for j in range(i + 1, k))
            radius = min(radius, 0.5 * dmin)
        return [(self.positions[i].copy(), radius) for i in range(k)]


@dataclass
class InteractionTable:
    """Green interactions of a vortex system; pair entries vanish on the diagonal."""
    g_diag: np.ndarray    # (k,)       g(z_i, z_i)
    bar: np.ndarray       # (k, k)     barG(z_i, z_j)
    dg_diag: np.ndarray   # (k, 2)     grad_x g(x, z_i) at x = z_i
    dbar: np.ndarray      # (k, k, 2)  grad_x barG(x, z_j) at x = z_i
    S: np.ndarray         # (k, k)     sigma_i sigma_j: +1 same sign, -1 mixed


def interaction_table(vs, green):
    """The signed interaction table that couples the vortices in the plateau
    balance, the first-order tilt, the energy expansion and Phi.

    One batched g and g_grad_x call per source point.  Every position must
    lie in the domain (DomainError) and no two may coincide
    (SingularityError), as for the Green function itself.
    """
    Z = vs.positions
    k = len(Z)
    off = ~np.eye(k, dtype=bool)
    d = Z[:, None, :] - Z[None, :, :]                      # z_i - z_j
    r = np.hypot(d[..., 0], d[..., 1])
    if not np.all(green.domain.contains(Z)):
        raise DomainError("vortex position outside the domain")
    if np.any(r[off] == 0.0):
        raise SingularityError("coincident vortices")
    g = np.column_stack([green.g(Z, z) for z in Z])        # g(z_i, z_j)
    dg = np.stack([green.g_grad_x(Z, z) for z in Z], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        bar = np.where(off, np.log(green.big_r / r) - g, 0.0)
        dbar = np.where(off[..., None], -d / (r**2)[..., None] - dg, 0.0)
    diag = np.arange(k)
    return InteractionTable(g_diag=g[diag, diag], bar=bar, dg_diag=dg[diag, diag],
                            dbar=dbar, S=np.where(off, np.outer(vs.signs, vs.signs), 0.0))


def check_subdomains(vs, domain):
    """Mutual disjointness + containment; raises ConfigError naming offenders."""
    subs = vs.default_subdomains(domain)
    k = len(subs)
    for i in range(k):
        ci, ri = np.asarray(subs[i][0]), subs[i][1]
        if domain.signed_distance(ci) < ri:
            raise ConfigError(f"subdomain {i} is not contained in the domain")
        if np.hypot(*(ci - vs.positions[i])) >= ri:
            raise ConfigError(f"subdomain {i} does not contain its vortex")
        for j in range(i + 1, k):
            cj, rj = np.asarray(subs[j][0]), subs[j][1]
            if np.hypot(*(ci - cj)) <= ri + rj:
                raise ConfigError(f"subdomains {i} and {j} overlap")
    return subs


# ---------------------------------------------------------------------- #
#  W, its derivatives, and Phi
# ---------------------------------------------------------------------- #


def _pair_iter(vs):
    k = vs.m + vs.n
    for i in range(k):
        for j in range(i + 1, k):
            yield i, j


def kr_value(vs, green, q):
    """Kirchhoff-Routh energy W at the system's positions."""
    Z = vs.positions
    kap = vs.kappas
    sgn = vs.signs
    if not np.all(green.domain.contains(Z)):
        raise DomainError("vortex position outside the domain")
    total = 0.0
    for i, j in _pair_iter(vs):
        d = np.hypot(*(Z[i] - Z[j]))
        if d == 0.0:
            raise SingularityError(f"coincident vortices {i} and {j}")
        total += sgn[i] * sgn[j] * kap[i] * kap[j] * green.green(Z[i], Z[j])
    for i in range(vs.m + vs.n):
        total += 0.5 * kap[i]**2 * green.robin(Z[i])
        total -= sgn[i] * kap[i] * q.value(Z[i])   # + kappa * psi0, psi0 = -q
    return float(total)


def kr_grad(vs, green, q):
    """Gradient of W in all 2(m+n) coordinates (plus block first)."""
    Z = vs.positions
    kap = vs.kappas
    sgn = vs.signs
    k = vs.m + vs.n
    grad = np.zeros((k, 2))
    for i in range(k):
        for j in range(k):
            if j == i:
                continue
            grad[i] += sgn[i] * sgn[j] * kap[i] * kap[j] * green.green_grad_x(Z[i], Z[j])
        grad[i] += 0.5 * kap[i]**2 * green.robin_grad(Z[i])
        grad[i] -= sgn[i] * kap[i] * q.grad(Z[i])
    return grad.ravel()


def kr_hessian(vs, green, q):
    """Hessian of W; assembled from one mixed block per unordered pair so the
    result is symmetric to rounding."""
    Z = vs.positions
    kap = vs.kappas
    sgn = vs.signs
    k = vs.m + vs.n
    hess = np.zeros((2 * k, 2 * k))
    for i in range(k):
        blk = 0.5 * kap[i]**2 * green.robin_hess(Z[i])
        blk -= sgn[i] * kap[i] * q.hessian(Z[i])
        for j in range(k):
            if j != i:
                blk += sgn[i] * sgn[j] * kap[i] * kap[j] * green.green_hess_xx(Z[i], Z[j])
        hess[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 0.5 * (blk + blk.T)
    for i, j in _pair_iter(vs):
        mixed = sgn[i] * sgn[j] * kap[i] * kap[j] * green.green_hess_xy(Z[i], Z[j])
        hess[2 * i:2 * i + 2, 2 * j:2 * j + 2] = mixed
        hess[2 * j:2 * j + 2, 2 * i:2 * i + 2] = mixed.T
    return hess


def phi_value(vs, green, q):
    """The reduced-energy companion of W (same critical points)."""
    t = interaction_table(vs, green)
    kap = vs.kappas
    total = (4.0 * np.pi**2 * np.sum(vs.signs * kap * q.value(vs.positions))
             + np.pi * np.sum(kap**2 * t.g_diag) - np.pi * kap @ (t.S * t.bar) @ kap)
    return float(total)


# ---------------------------------------------------------------------- #
#  critical point search
# ---------------------------------------------------------------------- #


@dataclass
class CriticalPointReport:
    z_star: np.ndarray
    grad_norm: float
    hessian_eigenvalues: np.ndarray
    classification: str
    iterations: int
    converged: bool
    value: float = 0.0
    history: list = field(default_factory=list)

    def to_dict(self):
        return {
            "z_star": self.z_star.tolist(),
            "grad_norm": self.grad_norm,
            "hessian_eigenvalues": self.hessian_eigenvalues.tolist(),
            "classification": self.classification,
            "iterations": self.iterations,
            "converged": self.converged,
            "value": self.value,
        }


def classify_hessian(eigs):
    """Nondegenerate min/max/saddle when min |eig| clears the relative cutoff
    DEGENERACY_THRESHOLD."""
    eigs = np.asarray(eigs)
    cutoff = DEGENERACY_THRESHOLD * np.max(np.abs(eigs)) if np.max(np.abs(eigs)) > 0 else 0.0
    if np.min(np.abs(eigs)) <= cutoff:
        return "degenerate"
    if np.all(eigs > 0):
        return "nondegenerate-min"
    if np.all(eigs < 0):
        return "nondegenerate-max"
    return "nondegenerate-saddle"


def _project_admissible(Z, domain):
    """Pull positions back inside the admissible set (boundary clearance and
    pairwise separation margins)."""
    rho = CLEARANCE * domain.diameter
    Z = Z.copy()
    k = Z.shape[0]
    for i in range(k):
        d = domain.signed_distance(Z[i])
        if d < rho:
            # retreat towards the domain center until clear
            direction = domain.center - Z[i]
            nl = np.hypot(*direction)
            if nl == 0:
                continue
            step = (rho - d) * 1.25
            Z[i] = Z[i] + direction / nl * min(step, nl)
    sep = rho**SEPARATION_EXPONENT
    for i in range(k):
        for j in range(i + 1, k):
            diff = Z[i] - Z[j]
            d = np.hypot(*diff)
            if d < sep and d > 0:
                push = 0.5 * (sep - d) * diff / d
                Z[i] += push
                Z[j] -= push
    return Z


def find_critical(vs, green, q, z0=None, tol=None, max_iter=200):
    """Trust-region Newton search for a critical point of W.

    Solves the gradient system (so saddles are reachable), with Levenberg
    regularization when the Newton step fails to reduce the gradient norm,
    and projection back into the admissible set after every step.
    """
    domain = green.domain
    Z = np.asarray(z0, dtype=float).reshape(-1, 2).copy() if z0 is not None \
        else vs.positions.copy()
    scale = float(np.max(vs.kappas)**2)
    if tol is None:
        tol = 1e-10 * max(scale, 1.0)

    work = vs.with_positions(Z)
    g = kr_grad(work, green, q)
    gnorm = float(np.max(np.abs(g)))
    lam = 0.0
    radius = 0.25 * domain.diameter
    history = [gnorm]
    it = 0
    while gnorm > tol and it < max_iter:
        it += 1
        Hm = kr_hessian(work, green, q)
        step = None
        for attempt in range(8):
            try:
                step = np.linalg.solve(Hm + lam * np.eye(Hm.shape[0]), -g)
            except np.linalg.LinAlgError:
                lam = max(10.0 * lam, 1e-8 * scale)
                continue
            sn = float(np.max(np.abs(step)))
            if sn > radius:
                step *= radius / sn
            Znew = _project_admissible(Z + step.reshape(-1, 2), domain)
            cand = vs.with_positions(Znew)
            try:
                gnew = kr_grad(cand, green, q)
            except (DomainError, SingularityError):
                lam = max(10.0 * lam, 1e-8 * scale)
                continue
            if np.max(np.abs(gnew)) < gnorm or np.max(np.abs(gnew)) <= tol:
                Z, work, g = Znew, cand, gnew
                gnorm = float(np.max(np.abs(g)))
                lam *= 0.25
                radius = min(radius * 2.0, 0.5 * domain.diameter)
                break
            lam = max(10.0 * lam, 1e-8 * scale)
            radius *= 0.5
        else:
            break
        history.append(gnorm)

    converged = gnorm <= tol
    Hm = kr_hessian(work, green, q)
    eigs = np.linalg.eigvalsh(0.5 * (Hm + Hm.T))
    report = CriticalPointReport(
        z_star=Z, grad_norm=gnorm, hessian_eigenvalues=eigs,
        classification=classify_hessian(eigs),
        iterations=it, converged=converged,
        value=kr_value(work, green, q), history=history)
    if not converged:
        raise ConvergenceError(
            f"critical-point search stalled at |grad| = {gnorm:.3e} "
            f"after {it} iterations", best=Z, report=report)
    return report


def multistart_find_critical(vs, green, q, seeds, tol=None, known=()):
    """Run find_critical from several seeds, dropping each critical point
    within DEDUPE_TOL of an earlier one or of one in `known`."""
    found = [np.asarray(z) for z in known]
    reports = []
    for z0 in seeds:
        try:
            rep = find_critical(vs, green, q, z0=np.asarray(z0), tol=tol)
        except (ConvergenceError, DomainError, SingularityError):
            continue
        if not any(np.max(np.abs(rep.z_star - z)) < DEDUPE_TOL for z in found):
            found.append(rep.z_star)
            reports.append(rep)
    return reports
