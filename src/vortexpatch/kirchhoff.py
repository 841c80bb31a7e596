"""Kirchhoff-Routh interaction energy of a +/- point-vortex system.

For strengths kappa_i > 0 with signs sigma_i (the m plus-vortices first,
then the n minus-vortices) at positions z_i the interaction energy is

    W = 1/2 sum_{i != j} sigma_i sigma_j kappa_i kappa_j G(z_i, z_j)
      + 1/2 sum_i kappa_i^2 H(z_i, z_i) + sum_i sigma_i kappa_i psi0(z_i),   psi0 = -q.

Its critical points are the stationary point-vortex configurations that the
desingularization targets.  With barG = 2 pi G, H(z, z) = (ln bigR -
g(z, z))/2 pi and the signed table S_ij = sigma_i sigma_j of
interaction_table (zero on the diagonal),

    W = [kappa^T (S o barG) kappa + sum kappa_i^2 (ln bigR - g(z_i, z_i))]/4 pi
        - sum sigma_i kappa_i q(z_i),

so W, its gradient, its Hessian and the companion functional

    Phi = 4 pi^2 sum sigma_i kappa_i q(z_i) + pi sum kappa_i^2 g(z_i, z_i)
        - pi kappa^T (S o barG) kappa  =  pi ln(bigR) sum kappa^2 - 4 pi^2 W,

which has the same critical points, are all read off that one table.
grad_i W = -kappa_i t_i/2 pi for t = signed_tilt with weights c = kappa;
with the plateau weights c = a/L the same formula is the composite field's
tilt.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError, SingularityError
from .greens import TWO_PI, _complex, _hess

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
    """Strengths and positions of the vortex system, and its gate disks.

    positions holds the m plus-vortices first, then the n minus-vortices.
    Each vortex's gate disk (subdomain) is centred on its position, so the
    disks move with the vortices.  subdomain_radius is the disks' radius,
    one number or one per vortex, or None for the default of
    subdomain_radii.
    """
    kappa_plus: np.ndarray
    kappa_minus: np.ndarray
    positions: np.ndarray
    subdomain_radius: float | list | None = None

    def __post_init__(self):
        self.kappa_plus = np.atleast_1d(np.asarray(self.kappa_plus, dtype=float))
        self.kappa_minus = np.atleast_1d(np.asarray(self.kappa_minus, dtype=float)) \
            if np.size(self.kappa_minus) else np.zeros(0)
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if np.any(self.kappa_plus <= 0) or np.any(self.kappa_minus <= 0):
            raise ConfigError("all vortex strengths must be positive")
        if self.positions.shape != (self.m + self.n, 2):
            raise ConfigError("positions must be (m + n, 2)")
        if np.ndim(self.subdomain_radius) == 1 and len(self.subdomain_radius) != self.m + self.n:
            raise ConfigError("need one subdomain radius per vortex")

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
                            subdomain_radius=self.subdomain_radius)

    def check_admissible(self, domain):
        """Raise ConfigError unless every vortex clears the boundary by
        rho = CLEARANCE * diameter and every pair by rho^SEPARATION_EXPONENT."""
        rho = CLEARANCE * domain.diameter
        if (self._min_separation() < rho**SEPARATION_EXPONENT
                or not np.all(domain.signed_distance(self.positions) >= rho)):
            raise ConfigError("vortex positions violate the separation constraints")

    def subdomain_radii(self, domain):
        """(m + n,) radii of the gate disks about the positions; the default
        radius is min(rho, half the smallest pairwise distance)."""
        radius = self.subdomain_radius
        if radius is None:
            radius = min(CLEARANCE * domain.diameter, 0.5 * self._min_separation())
        return np.broadcast_to(np.asarray(radius, dtype=float), self.m + self.n)

    def _min_separation(self):
        """Smallest distance between two vortices (inf for a single one)."""
        i, j = np.triu_indices(self.m + self.n, 1)
        d = self.positions[i] - self.positions[j]
        return float(np.min(np.hypot(d[:, 0], d[:, 1]), initial=np.inf))


@dataclass
class InteractionTable:
    """Green interactions of a vortex system; pair entries vanish on the
    diagonal.  g itself (H through the Green backend) is evaluated on the
    first read of g_diag or bar: the gradient and Hessian of W and the tilt
    read only the gradients and the signs."""
    Z: np.ndarray         # (k, 2)     the positions z_i
    green: object
    dg_diag: np.ndarray   # (k, 2)     grad_x g(x, z_i) at x = z_i
    dbar: np.ndarray      # (k, k, 2)  grad_x barG(x, z_j) at x = z_i
    S: np.ndarray         # (k, k)     sigma_i sigma_j: +1 same sign, -1 mixed

    @cached_property
    def _g(self):
        """g(z_i, z_j), one batched g call per source point."""
        return np.column_stack([self.green.g(self.Z, z) for z in self.Z])

    @property
    def g_diag(self):
        """(k,) g(z_i, z_i)."""
        return np.diagonal(self._g)

    @cached_property
    def bar(self):
        """(k, k) barG(z_i, z_j)."""
        d = self.Z[:, None, :] - self.Z[None, :, :]
        off = self.S != 0.0
        with np.errstate(divide="ignore"):
            return np.where(off, np.log(self.green.big_r / np.hypot(d[..., 0], d[..., 1]))
                            - self._g, 0.0)


def _pairs(vs, green):
    """The off-diagonal mask, the offsets z_i - z_j, their lengths and the
    sign table S.  Every position must lie in the domain (DomainError) and
    no two may coincide (SingularityError), as for the Green function."""
    Z = vs.positions
    off = ~np.eye(len(Z), dtype=bool)
    d = Z[:, None, :] - Z[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1])
    if not np.all(green.domain.contains(Z)):
        raise DomainError("vortex position outside the domain")
    if np.any(r[off] == 0.0):
        raise SingularityError("coincident vortices")
    return off, d, r, np.where(off, np.outer(vs.signs, vs.signs), 0.0)


def interaction_table(vs, green):
    """The signed interaction table that couples the vortices in the plateau
    balance, the first-order tilt, the energy expansion and Phi.

    One batched g_grad_x call per source point, and one g call per source
    point once g is read; the positions are checked as in _pairs.
    """
    Z = vs.positions
    off, d, r, S = _pairs(vs, green)
    dg = np.stack([green.g_grad_x(Z, z) for z in Z], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dbar = np.where(off[..., None], -d / (r**2)[..., None] - dg, 0.0)
    diag = np.arange(len(Z))
    return InteractionTable(Z=Z, green=green, dg_diag=dg[diag, diag], dbar=dbar, S=S)


def check_subdomains(vs, domain):
    """Mutual disjointness + containment of the gate disks; raises
    ConfigError naming offenders, else returns their radii."""
    Z, radii = vs.positions, vs.subdomain_radii(domain)
    k = len(radii)
    for i in range(k):
        if domain.signed_distance(Z[i]) < radii[i]:
            raise ConfigError(f"subdomain {i} is not contained in the domain")
        for j in range(i + 1, k):
            if np.hypot(*(Z[i] - Z[j])) <= radii[i] + radii[j]:
                raise ConfigError(f"subdomains {i} and {j} overlap")
    return radii


# ---------------------------------------------------------------------- #
#  W, its derivatives, and Phi
# ---------------------------------------------------------------------- #


def signed_tilt(vs, table, q, c, q_weight):
    """t_i = q_weight sigma_i grad q(z_i) + c_i grad_x g(z_i, z_i)
    - sum_j S_ij c_j grad_x barG(z_i, z_j) for weights c on a table.

    With c = kappa and q_weight = 2 pi this is -2 pi grad_i W / kappa_i;
    with the plateau weights c = a/L and q_weight = 2 pi/|ln eps| it is the
    first-order tilt of the composite field (ansatz.ansatz_tilt).
    """
    return (q_weight * vs.signs[:, None] * q.grad(vs.positions)
            + c[:, None] * table.dg_diag - np.einsum("ij,j,ijh->ih", table.S, c, table.dbar))


def kr_value(vs, green, q):
    """Kirchhoff-Routh energy W at the system's positions."""
    t = interaction_table(vs, green)
    kap = vs.kappas
    total = ((kap @ (t.S * t.bar) @ kap + np.sum(kap**2 * (np.log(green.big_r) - t.g_diag)))
             / (2.0 * TWO_PI) - np.sum(vs.signs * kap * q.value(vs.positions)))
    return float(total)


def kr_grad(vs, green, q):
    """Gradient of W in all 2(m+n) coordinates (plus block first)."""
    kap = vs.kappas
    tilt = signed_tilt(vs, interaction_table(vs, green), q, kap, TWO_PI)
    return (-kap[:, None] / TWO_PI * tilt).ravel()


def kr_hessian(vs, green, q):
    """Hessian of W, exactly symmetric: pair weights S_ij kappa_i kappa_j
    from the sign table of the interaction table, one batched H_hess_xx and
    H_hess_xy call per source and the Hessian of the log kernel from its
    f''."""
    off, d, _, S = _pairs(vs, green)
    Z, kap = vs.positions, vs.kappas
    k = len(Z)
    w = S * np.outer(kap, kap)
    hxx = np.stack([green.H_hess_xx(Z, z) for z in Z], axis=1)    # [i, j]: at (z_i, z_j)
    hxy = np.stack([green.H_hess_xy(Z, z) for z in Z], axis=1)
    # any nonzero offset on the diagonal, where every pair weight is zero;
    # lh is the Hessian of ln|x - y|/2pi, whose f'' is -1/(2pi (z - w)^2)
    d = np.where(off[..., None], d, 1.0)
    lh = _hess(-1.0 / (TWO_PI * _complex(d)**2))
    # G_xx = -lh + H_xx and G_xy = lh + H_xy off the diagonal; the Robin
    # Hessian is 2 (H_xx + H_xy) at (z_i, z_i)
    diag = np.arange(k)
    blocks = w[..., None, None] * (lh + hxy)
    blocks[diag, diag] = (np.einsum("ij,ijab->iab", w, hxx - lh)
                          + kap[:, None, None]**2 * (hxx + hxy)[diag, diag]
                          - (vs.signs * kap)[:, None, None] * q.hessian(Z))
    hess = blocks.transpose(0, 2, 1, 3).reshape(2 * k, 2 * k)
    return 0.5 * (hess + hess.T)


def phi_value(vs, green, q):
    """The reduced-energy companion of W (same critical points)."""
    return float(np.pi * np.sum(vs.kappas**2) * np.log(green.big_r)
                 - 4.0 * np.pi**2 * kr_value(vs, green, q))


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
