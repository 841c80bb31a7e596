"""Radial ground state of -laplace(phi) = phi^p on the unit disk.

One shooting integration per exponent: start the radial ODE

    phi'' + phi'/r + phi^p = 0,   phi(0) = 1, phi'(0) = 0

off the coordinate singularity with a two-term Taylor step, integrate to the
first zero r0, then rescale by the exact similarity

    phi(r) = r0^(2/(p-1)) * psi(r0 * r)

to place the zero at r = 1.  The boundary slope and the two disk integrals
int phi^p, int phi^(p+1) are accumulated along the integration and rescaled
exactly, so the Pohozaev identities

    int_B1 phi^p     = 2 pi |phi'(1)|
    int_B1 phi^(p+1) = pi (p+1)/2 |phi'(1)|^2

act as end-to-end accuracy checks rather than inputs.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from .errors import SolvabilityError, VortexPatchError

N_TABLE = 4096


@dataclass
class RadialProfile:
    p: float
    r: np.ndarray                      # Chebyshev-spaced radii on [0, 1]
    phi: np.ndarray
    dphi: np.ndarray
    slope_at_one: float                # phi'(1) < 0
    int_phi_p: float                   # int_{B1} phi^p
    int_phi_p1: float                  # int_{B1} phi^(p+1)
    phi0: float                        # phi(0)
    _phi_ip: PchipInterpolator = field(default=None, repr=False)

    def phi_at(self, r):
        """phi(|r|) for r in [0, 1]; clamps tiny overshoots at the ends."""
        rr = np.clip(np.asarray(r, dtype=float), 0.0, 1.0)
        return np.maximum(self._phi_ip(rr), 0.0)

    def pohozaev_residuals(self):
        s = abs(self.slope_at_one)
        r1 = abs(self.int_phi_p - 2.0 * np.pi * s) / (2.0 * np.pi * s)
        r2 = abs(self.int_phi_p1 - 0.5 * np.pi * (self.p + 1) * s**2) / (0.5 * np.pi * (self.p + 1) * s**2)
        return r1, r2


def _integrate(p, rtol=1e-13, atol=1e-14):
    """Shoot from psi(0) = 1; returns (r0, psi'(r0), Ip(r0), Ip1(r0), dense sol)."""
    r_start = 1e-6
    # series psi = 1 - r^2/4 + p r^4/64 near the singular origin
    y0 = [1.0 - r_start**2 / 4.0 + p * r_start**4 / 64.0,
          -r_start / 2.0 + p * r_start**3 / 16.0,
          np.pi * r_start**2,            # int 2 pi t psi^p dt ~ pi r^2
          np.pi * r_start**2]

    def rhs(r, y):
        psi = max(y[0], 0.0)
        return [y[1], -y[1] / r - psi**p,
                2.0 * np.pi * r * psi**p,
                2.0 * np.pi * r * psi**(p + 1)]

    def hit_zero(r, y):
        return y[0]
    hit_zero.terminal = True
    hit_zero.direction = -1

    sol = solve_ivp(rhs, [r_start, 100.0], y0, method="DOP853",
                    rtol=rtol, atol=atol, events=hit_zero, dense_output=True)
    if sol.status != 1 or len(sol.t_events[0]) == 0:
        raise VortexPatchError(f"radial shoot failed for p={p}: {sol.message}")
    r0 = float(sol.t_events[0][0])
    ye = sol.y_events[0][0]
    return r0, float(ye[1]), float(ye[2]), float(ye[3]), sol


def solve_profile(p, tol=1e-4):
    """Ground-state profile for exponent p > 1.

    tol bounds the finite-difference ODE residual of the tabulated profile
    (a sanity check on the table, the integration itself runs much tighter;
    the Pohozaev invariants hold at the integrator's 1e-8 level).
    """
    if p <= 1.0:
        raise SolvabilityError("profile exponent must satisfy p > 1")
    if tol <= 0:
        raise SolvabilityError("tol must be positive")
    r0, dpsi_r0, ip_r0, ip1_r0, sol = _integrate(p)

    alpha = 2.0 / (p - 1.0)
    phi0 = r0**alpha
    slope = r0**(alpha + 1.0) * dpsi_r0
    int_phi_p = r0**(alpha * p - 2.0) * ip_r0
    int_phi_p1 = r0**(alpha * (p + 1.0) - 2.0) * ip1_r0

    # Chebyshev-type nodes cluster near both the center and the rim
    k = np.arange(N_TABLE)
    r = 0.5 * (1.0 - np.cos(np.pi * k / (N_TABLE - 1)))
    t = np.minimum(r * r0, r0)
    vals = np.empty((2, N_TABLE))
    series = t < sol.t[0]
    vals[:, ~series] = sol.sol(t[~series])[:2]
    ts = t[series]
    vals[0, series] = 1.0 - ts**2 / 4.0 + p * ts**4 / 64.0
    vals[1, series] = -ts / 2.0 + p * ts**3 / 16.0
    phi = phi0 * vals[0]
    dphi = r0**(alpha + 1.0) * vals[1]
    phi[-1] = 0.0

    prof = RadialProfile(p=float(p), r=r, phi=phi, dphi=dphi,
                         slope_at_one=slope, int_phi_p=int_phi_p,
                         int_phi_p1=int_phi_p1, phi0=phi0)
    prof._phi_ip = PchipInterpolator(r, phi, extrapolate=False)

    res = _ode_residual(prof)
    if res > tol:
        raise VortexPatchError(
            f"profile table residual {res:.2e} exceeds tol {tol:.2e} for p={p}")
    return prof


def _ode_residual(prof):
    """Max of |phi'' + phi'/r + phi^p| with phi'' from centered differences
    of the tabulated slope (an independent arithmetic path)."""
    r = prof.r[1:-1]
    d2 = (prof.dphi[2:] - prof.dphi[:-2]) / (prof.r[2:] - prof.r[:-2])
    res = d2 + prof.dphi[1:-1] / r + prof.phi[1:-1]**prof.p
    return float(np.max(np.abs(res)))


def limit_profile_eval(rp, x):
    """Whole-plane C^1 profile: phi(|x|) inside the unit disk, phi'(1) ln|x| outside."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    r = np.hypot(pts[..., 0], pts[..., 1])
    out = np.where(r <= 1.0, rp.phi_at(np.minimum(r, 1.0)),
                   rp.slope_at_one * np.log(np.maximum(r, 1.0)))
    return float(out[0]) if single else out
