"""Physical quantities extracted from solved fields and from the explicit
near-solution: vorticity and its support, circulations, kinetic energy,
reduced-energy consistency, and the reconstructed velocity/pressure pair.
"""

import warnings

import numpy as np
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

from .ansatz import delta_from_eps, eps_log
from .errors import ConfigError
from .grid import ARM_DIRS, GridField, bilinear, difference, gradient
from .kirchhoff import interaction_table
# not called (omega is its sign * excess^p on the shared excess), but
# perfbench/tracer.py's tests look this binding up by name
from .solver import rhs_eval  # noqa: F401

TWO_PI = 2.0 * np.pi
# samples of the ring-flux circulation check
RING_ANGLES = 720


def __getattr__(name):
    """``brentq`` is unused here, but perfbench/tracer.py patches this name
    to count root solves: it is imported on first access, so only a traced
    run loads scipy.optimize."""
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------- #
#  the solved field
# ---------------------------------------------------------------------- #


@dataclass
class SolvedField(GridField):
    """A field with its setup, and the nodal quantities that the checks
    read, each formed on first read and kept (the values must not change
    after).  The checks of stage_verify_one share one; a check given a
    plain GridField forms its own."""
    setup: object

    @cached_property
    def gate_argument(self):
        return self.setup.gate_argument(self.values)

    @cached_property
    def excess(self):
        return np.maximum(self.gate_argument, 0.0)

    @cached_property
    def u(self):
        """The physical u."""
        return GridField(self.spec, self.values * self.setup.u_per_unit)


def _solved(fld, setup):
    """fld as a SolvedField of setup: fld itself when it is one."""
    if isinstance(fld, SolvedField) and fld.setup is setup:
        return fld
    return SolvedField(fld.spec, fld.values, setup)


# ---------------------------------------------------------------------- #
#  vorticity, supports, circulation
# ---------------------------------------------------------------------- #


@dataclass
class VortexDiagnostics:
    eps: float
    delta: float
    p: float
    centers: np.ndarray              # vorticity centroids, (k, 2)
    circulations: np.ndarray         # midpoint quadrature per vortex (signed)
    circulations_flux: np.ndarray    # ring-flux cross-check per vortex
    support_inner: np.ndarray        # min free-boundary radius about the centroid
    support_outer: np.ndarray        # max free-boundary radius about the centroid
    total_circulation: float
    total_circulation_flux: float = None
    energy: float = None
    residual_max: float = None
    confinement_ok: bool = True
    omega: np.ndarray = field(default=None, repr=False)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "omega"}


def _ring_flux(spec, u_arr, center, radius):
    """-oint d(u)/dr ds on a circle (the enclosed vorticity integral), for
    u scattered onto the grid's (nx, ny) array."""
    h = spec.h
    th = TWO_PI * np.arange(RING_ANGLES) / RING_ANGLES
    ring = np.column_stack((np.cos(th), np.sin(th)))
    up = bilinear(spec, u_arr, center + (radius + h) * ring)
    um = bilinear(spec, u_arr, center + (radius - h) * ring)
    dudr = (up - um) / (2.0 * h)
    return float(-np.sum(dudr) * radius * TWO_PI / RING_ANGLES)


def vorticity_extract(fld, setup, vs):
    """Vorticity field, per-vortex supports, centroids and circulations.

    The field is in the setup's variable form, and the subdomains are the
    gate disks of vs.  Support radii are measured about each vortex's
    extracted centroid with sub-cell refinement (linear interpolation of the
    gate argument along grid edges).  Circulations come from midpoint
    quadrature over each subdomain, which coincides with the discrete flux
    of the solved field, plus an interpolated ring-flux cross-check.
    """
    sf = _solved(fld, setup)
    spec = sf.spec
    radii = vs.subdomain_radii(spec.domain)
    # vorticity = (physical nonlinearity)/eps^2, rhs_eval in u units
    omega = setup.sign * sf.excess**setup.p * setup.u_per_unit**setup.p / setup.eps**2
    weights = spec.cell_weights
    # u on the (nx, ny) array, scattered once for every ring
    u_arr = spec.values_to_array(sf.u.values)
    k = vs.m + vs.n
    pts = spec.points

    centers = np.zeros((k, 2))
    circ = np.zeros(k)
    circ_flux = np.zeros(k)
    r_in = np.zeros(k)
    r_out = np.zeros(k)
    confinement_ok = True

    # gate argument (positive on the supports), -1 off each vortex's subdomain
    gate_arg = sf.gate_argument
    for i in range(k):
        arg = np.where(setup.vortex == i, gate_arg, -1.0)
        on = arg > 0.0
        if not np.any(on):
            warnings.warn(f"vortex {i}: empty vorticity support on the grid", stacklevel=2)
            centers[i] = vs.positions[i]
            continue
        wgt = np.abs(omega[on]) * weights[on]
        centers[i] = (pts[on] * wgt[:, None]).sum(axis=0) / wgt.sum()
        circ[i] = float((omega[on] * weights[on]).sum())

        # sub-cell free-boundary crossings along grid edges, measured about
        # the extracted centroid (the finite-eps center of this vortex)
        z = centers[i]
        crossings = []
        for d in range(4):
            nbr = spec.neighbors[:, d]
            edge = on & (nbr >= 0)
            idx = np.nonzero(edge)[0]
            idx = idx[arg[nbr[idx]] <= 0.0]
            if len(idx) == 0:
                continue
            a0 = arg[idx]
            a1 = arg[spec.neighbors[idx, d]]
            t = a0 / (a0 - a1)
            direction = ARM_DIRS[d].astype(float)
            xc = pts[idx] + (t * spec.h)[:, None] * direction[None, :]
            crossings.append(np.hypot(xc[:, 0] - z[0], xc[:, 1] - z[1]))
        if crossings:
            rads = np.concatenate(crossings)
            r_in[i] = float(rads.min())
            r_out[i] = float(rads.max())
        # support must sit strictly inside its subdomain
        c_sub, r_sub = vs.positions[i], radii[i]
        d_out = np.hypot(pts[on][:, 0] - c_sub[0], pts[on][:, 1] - c_sub[1]).max()
        if d_out >= r_sub - spec.h:
            confinement_ok = False
            warnings.warn(f"vortex {i}: support within one cell of its subdomain "
                          "boundary (confinement at risk)", stacklevel=2)
        ring_r = 0.5 * (r_out[i] + r_sub)
        circ_flux[i] = vs.signs[i] * abs(_ring_flux(spec, u_arr, z, ring_r))

    total = float((omega * weights).sum())
    total_flux = None
    if spec.domain.kind == "disk":
        rr = spec.domain.radius - 4.0 * spec.h
        total_flux = _ring_flux(spec, u_arr, spec.domain.center, rr)

    return VortexDiagnostics(
        eps=setup.eps, delta=delta_from_eps(setup.eps, setup.p), p=setup.p,
        centers=centers, circulations=circ, circulations_flux=circ_flux,
        support_inner=r_in, support_outer=r_out,
        total_circulation=total, total_circulation_flux=total_flux,
        confinement_ok=confinement_ok, omega=omega)


# ---------------------------------------------------------------------- #
#  energies
# ---------------------------------------------------------------------- #


def energy_eval(fld, setup):
    """Composite-quadrature value of the rescaled energy

        I(w) = delta^2/2 int |Dw|^2 - sum 1/(p+1) int X_i (arg_i)_+^(p+1).

    Both terms scale as the (p+1)-th power of the variable (delta^2 =
    eps^2 (2 pi/|ln eps|)^(p-1)), so in either form the functional of the
    setup's variable times (w per unit of the variable)^(p+1) is I(w).
    """
    sf = _solved(fld, setup)
    weights = sf.spec.cell_weights
    grad = gradient(sf)
    kinetic = 0.5 * setup.coef * float(((grad**2).sum(axis=1) * weights).sum())
    potential = float((sf.excess**(setup.p + 1.0) * weights).sum())
    w_per_unit = setup.u_per_unit / (eps_log(setup.eps) / TWO_PI)
    return (kinetic - potential / (setup.p + 1.0)) * w_per_unit**(setup.p + 1.0)


def _free_boundary_radii(af, idx, z, dirs, lo, hi, xtol):
    """Radius of the free boundary of vortex idx on every ray z + r*dir.

    A safeguarded Illinois iteration on [lo, hi] for all rays at once: the
    excess must be positive at lo and negative at hi on every ray.  Each
    step takes the false-position point of every ray's bracket, with the
    value at an end that the previous step kept halved, and the midpoint
    where that point is not strictly inside the bracket (as on a closed
    bracket, after an excess of exactly 0).  It stops when no ray's point
    moves by more than xtol, and after at most the steps of a bisection to
    xtol.
    """
    fa = af.excess(idx, z + lo * dirs)
    fb = af.excess(idx, z + hi * dirs)
    if np.any(fb >= 0):
        raise ConfigError("free boundary reaches the subdomain edge")
    if np.any(fa <= 0):
        raise ConfigError("composite field below the activation level at the core center")
    a = np.full(len(dirs), lo)
    b = np.full(len(dirs), hi)
    kept_a = kept_b = np.zeros(len(dirs), dtype=bool)
    r = a
    for _ in range(int(np.ceil(np.log2((hi - lo) / xtol)))):
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (a * fb - b * fa) / (fb - fa)
        c = np.where((c > a) & (c < b), c, 0.5 * (a + b))
        fc = af.excess(idx, z + c[:, None] * dirs)
        inside = fc > 0
        # an excess of exactly 0 is a root: the bracket closes on it
        root = fc == 0
        fa = np.where(inside | root, fc, np.where(kept_a, 0.5 * fa, fa))
        fb = np.where(inside, np.where(kept_b, 0.5 * fb, fb), fc)
        a = np.where(inside | root, c, a)
        b = np.where(inside, b, c)
        kept_a, kept_b = ~inside, inside
        moved = float(np.max(np.abs(c - r)))
        r = c
        if moved <= xtol:
            break
    return r


@lru_cache(maxsize=8)
def _gauss_rule(n_r):
    """The n_r-point Gauss-Legendre rule on [-1, 1], built once (leggauss(96)
    costs milliseconds) and read-only."""
    x, w = np.polynomial.legendre.leggauss(n_r)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def ansatz_energy(af, n_r=96, n_theta=192):
    """High-accuracy quadrature of I(P^+ - P^-).

    The gradient term is reduced exactly (integration by parts against the
    defining equation of each projected bump) to integrals of the core
    nonlinearity against the composite field over the core disks; the
    potential terms are integrated in polar coordinates with the free
    boundary located per angle (a batched Illinois iteration to steps of
    1e-14 s), so the integrand is smooth on every quadrature panel.
    """
    cores = af.cores
    vs = af.vs
    rp = af.rp
    p = rp.p
    gauss_x, gauss_w = _gauss_rule(n_r)
    th = TWO_PI * np.arange(n_theta) / n_theta
    dirs = np.column_stack((np.cos(th), np.sin(th)))
    radii = vs.subdomain_radii(af.green.domain)

    k = vs.m + vs.n
    grad_term = 0.0
    pot_term = 0.0
    for idx in range(k):
        sign = vs.signs[idx]
        s = cores.s_all[idx]
        z = vs.positions[idx]
        amp = cores.delta**(2.0 / (p - 1.0)) * s**(-2.0 / (p - 1.0))

        # sum_c sign_c int_{B_sc} (W_c - a_c)_+^p (P+ - P-)
        r = 0.5 * s * (gauss_x + 1.0)
        wr = 0.5 * s * gauss_w
        bump_p = (amp * rp.phi_at(r / s))**p
        pts = (z + r[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
        field_vals = af.evaluate(pts, require_inside=False).reshape(n_r, n_theta)
        ang_avg = field_vals.mean(axis=1)
        grad_term += sign * float((bump_p * ang_avg * r * wr).sum()) * TWO_PI

        # 1/(p+1) int (sign (P+ - P-) - threshold)_+^(p+1), free boundary per angle
        hi = min(2.0 * s, 0.95 * radii[idx])
        rstar = _free_boundary_radii(af, idx, z, dirs, 1e-12 * s, hi, 1e-14 * s)
        rr = 0.5 * rstar * (gauss_x[:, None] + 1.0)
        wrr = 0.5 * rstar * gauss_w[:, None]
        pe = af.excess(idx, (z + rr[:, :, None] * dirs[None, :, :]).reshape(-1, 2))
        pe = np.maximum(pe, 0.0).reshape(n_r, n_theta)
        pot_term += float((pe**(p + 1.0) * rr * wrr).sum()) * (TWO_PI / n_theta) / (p + 1.0)

    return 0.5 * grad_term - pot_term


def ansatz_energy_expansion(cores, vs, green):
    """Closed-form energy of the composite field through the interaction
    order, written in the exact per-vortex (a_i, s_i):

        sum_i [ pi(p+1)/4 d^2 a^2/L^2 + pi d^2 a^2/L - pi g(z,z) d^2 a^2/L^2
                - pi d^2 a^2/(2 L^2) ]
        + pi d^2 sum_{i != k} sigma_i sigma_k a_i a_k barG(z_i, z_k)/(L_i L_k)

    with L = ln(bigR/s): the pair term is pi d^2 c^T (S o barG) c with
    c = a/L and S the signed table of kirchhoff.interaction_table.  The
    remainder is higher order in eps.
    """
    t = interaction_table(vs, green)
    d2 = cores.delta**2
    p = cores.p
    a = cores.a_all
    L = np.log(cores.big_r / cores.s_all)
    c = a / L
    self_terms = (p + 1.0) / 4.0 * c**2 + a**2 / L - t.g_diag * c**2 - 0.5 * c**2
    return float(np.pi * d2 * (self_terms.sum() + c @ (t.S * t.bar) @ c))


def kr_consistency(eps_values, energies, phi_values, p):
    """Check that reduced-energy differences follow the Phi landscape.

    energies: {label: array of I over eps_values}, phi_values: {label: Phi}.
    For each pair of configurations the scaled difference
    (I_Z - I_Z') |ln eps|^2 / delta^2 is fit to Phi_diff + C ln|ln eps|/|ln eps|
    (the reduced-energy expansion with its leading remainder mode); the
    fitted Phi_diff is compared against the functional values and the raw
    remainders are ratioed against the remainder mode.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    if len(eps_values) < 3:
        raise ConfigError("kr_consistency needs at least 3 eps values")
    labels = sorted(energies)
    if len(labels) < 2:
        raise ConfigError("kr_consistency needs at least 2 configurations")
    lg = np.abs(np.log(eps_values))
    d2 = np.array([delta_from_eps(e, p) for e in eps_values])**2
    pairs = {}
    rem_mode = np.log(lg) / lg
    for ia in range(len(labels)):
        for ib in range(ia + 1, len(labels)):
            la, lb = labels[ia], labels[ib]
            scaled = (np.asarray(energies[la]) - np.asarray(energies[lb])) * lg**2 / d2
            target = phi_values[la] - phi_values[lb]
            # fit the expansion  scaled = Phi_diff + C ln|ln eps|/|ln eps|
            A = np.column_stack([np.ones_like(rem_mode), rem_mode])
            coef, *_ = np.linalg.lstsq(A, scaled, rcond=None)
            remainder = scaled - target
            rem_ratio = remainder / rem_mode
            pairs[(la, lb)] = {
                "scaled_differences": scaled.tolist(),
                "phi_difference": float(target),
                "fitted_phi_difference": float(coef[0]),
                "remainder_coefficient": float(coef[1]),
                "relative_error_at_smallest": float(abs(coef[0] - target) / max(abs(target), 1e-300)),
                "remainder_ratios": rem_ratio.tolist(),
                "remainder_ratio_bounded": bool(np.max(np.abs(rem_ratio)) < 50.0 * max(1.0, abs(target))),
            }
    return pairs


# ---------------------------------------------------------------------- #
#  velocity / pressure reconstruction
# ---------------------------------------------------------------------- #


def _deep_mask(spec):
    """Nodes whose stencil and its four neighbors' stencils are all uncut."""
    ok = ~spec.is_adjacent
    nbr = spec.neighbors
    return ok & np.all((nbr >= 0) & ok[np.maximum(nbr, 0)], axis=1)


@dataclass
class FlowField:
    """The velocity of a solved field and its divergence; the pressure and
    the curl are formed on first read."""
    spec: object
    solved: SolvedField
    velocity: np.ndarray          # (N, 2), perp gradient of u - q
    divergence: np.ndarray        # (N,) centered divergence, regular nodes
    regular: np.ndarray           # (N,) nodes with depth-2 uncut stencils

    @cached_property
    def pressure(self):
        """Stationary pressure P = -F(psi) - |grad psi|^2/2 with F' = f and
        -lap psi = f(psi); for the physical equation f carries the eps^-2 of
        the vorticity, and the rigid-rotation oracle fixes the sign of F.
        |grad psi|^2 is read off the velocity, its components swapped."""
        setup = self.solved.setup
        excess = self.solved.excess * setup.u_per_unit
        potential = excess**(setup.p + 1.0) / (setup.p + 1.0)
        return -potential / setup.eps**2 - 0.5 * (self.velocity**2).sum(axis=1)

    @cached_property
    def curl(self):
        """(N,) centered curl of the velocity, regular nodes."""
        vx, vy = (GridField(self.spec, c) for c in self.velocity.T)
        return difference(vy, 0) - difference(vx, 1)


def reconstruct_flow(fld, setup, q):
    """Velocity v = (grad(u - q))^perp and the matching pressure.

    The field is in the setup's variable form; the physical u is its values
    times setup.u_per_unit.  Divergence and curl are centered differences of
    the velocity samples, reported on nodes whose depth-2 stencil is uncut.
    """
    sf = _solved(fld, setup)
    spec = sf.spec
    dpsi = gradient(sf.u) - q.grad(spec.points)
    velocity = np.column_stack((dpsi[:, 1], -dpsi[:, 0]))
    vx, vy = (GridField(spec, c) for c in velocity.T)
    return FlowField(spec=spec, solved=sf, velocity=velocity,
                     divergence=difference(vx, 0) + difference(vy, 1),
                     regular=_deep_mask(spec))


def boundary_normal_velocity(flow, n_samples=128):
    """Normal velocity on the boundary by linear extrapolation of bilinear
    samples at 2h and 4h along the inward normal; returns (parameters, v.n)."""
    spec = flow.spec
    bp, nrm = spec.domain.boundary_points(n_samples)
    d1, d2 = 2.0 * spec.h, 4.0 * spec.h
    # each velocity component scattered once, for both distances
    arrs = [spec.values_to_array(c) for c in flow.velocity.T]
    v1, v2 = (np.column_stack([bilinear(spec, a, bp - d * nrm) for a in arrs])
              for d in (d1, d2))
    vb = v1 + (v1 - v2) * (d1 / (d2 - d1))
    t = TWO_PI * np.arange(n_samples) / n_samples
    return t, vb[:, 0] * nrm[:, 0] + vb[:, 1] * nrm[:, 1]
