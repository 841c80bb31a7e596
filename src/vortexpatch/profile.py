"""Radial ground state of -laplace(phi) = phi^p on the unit disk.

One shooting integration per exponent: start the radial ODE

    psi'' + psi'/r + psi^p = 0,   psi(0) = 1, psi'(0) = 0

off the coordinate singularity at r = 1e-3 from its Taylor series, integrate
to the first zero r0 with the embedded Runge-Kutta pair of Dormand & Prince
(J. Comput. Appl. Math. 6, 1980; order 5 with a 4th-order error estimate,
rtol 1e-13, atol 1e-15, on plain floats), then rescale by the exact
similarity

    phi(r) = r0^(2/(p-1)) * psi(r0 * r)

to place the zero at r = 1.  The last step is cut at the zero by Newton on
its length.  The table is read off the steps by quintic Hermite
interpolation of (psi, psi', psi'') at the step ends, and phi between table
nodes by a cubic Hermite of (phi, phi') in the angle of the Chebyshev
nodes, on which they are uniform.  The boundary slope and the two
disk integrals int phi^p, int phi^(p+1) are accumulated along the
integration and rescaled exactly, so the Pohozaev identities

    int_B1 phi^p     = 2 pi |phi'(1)|
    int_B1 phi^(p+1) = pi (p+1)/2 |phi'(1)|^2

act as end-to-end accuracy checks rather than inputs.
"""

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .errors import ConfigError, SolvabilityError, VortexPatchError

N_TABLE = 4096
R_START = 1e-3
TWO_PI = 2.0 * math.pi

# Dormand-Prince 5(4): nodes c2..c7 and rows a_i of the stages; the last row
# is the 5th-order solution, so its stage is the next step's first, and _E
# weighs the error estimate (5th- minus 4th-order solution)
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_B = _A[-1]                            # the 7th stage has weight 0
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


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
    _scale: float = field(init=False, repr=False)
    _coef: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # phi as a cubic Hermite in x = n - 1 - (n-1) theta/pi, with
        # r = (1 + cos theta)/2 (theta runs from the rim): the table nodes sit
        # at the integers x = k, so a radius lies in the interval floor(x),
        # and r = 0 and r = 1 land on x = 0 and the last node exactly
        n = len(self.r)
        self._scale = (n - 1) / np.pi
        # dphi/dx = phi'(r) dr/dx, with dr/dtheta = sqrt(r (1 - r)): zero at both ends
        dx = self.dphi * np.sqrt(self.r * (1.0 - self.r)) / self._scale
        step = np.diff(self.phi)
        d0, d1 = dx[:-1], dx[1:]
        # the last piece is the constant phi(1) = 0 at x = n - 1
        self._coef = (self.phi, dx, np.append(3.0 * step - 2.0 * d0 - d1, 0.0),
                      np.append(d0 + d1 - 2.0 * step, 0.0))

    def phi_at(self, r):
        """phi(|r|) for r in [0, 1]; clamps tiny overshoots at the ends."""
        x = (len(self.r) - 1) - np.arccos(2.0 * np.clip(r, 0.0, 1.0) - 1.0) * self._scale
        k = x.astype(np.intp)
        d = x - k
        c0, c1, c2, c3 = self._coef
        return np.maximum(c0.take(k) + d * (c1.take(k) + d * (c2.take(k) + d * c3.take(k))), 0.0)

    def pohozaev_residuals(self):
        s = abs(self.slope_at_one)
        r1 = abs(self.int_phi_p - 2.0 * np.pi * s) / (2.0 * np.pi * s)
        r2 = abs(self.int_phi_p1 - 0.5 * np.pi * (self.p + 1) * s**2) / (0.5 * np.pi * (self.p + 1) * s**2)
        return r1, r2


def _series(p, t):
    """psi, psi' = 1 - t^2/4 + p t^4/64, -t/2 + p t^3/16 near the origin."""
    t2 = t * t
    return 1.0 - t2 / 4.0 + p * t2 * t2 / 64.0, t * (-0.5 + p * t2 / 16.0)


def _integrate(p, rtol=1e-13, atol=1e-15):
    """Shoot from psi(0) = 1 to the first zero r0.

    Returns (r0, psi'(r0), Ip(r0), Ip1(r0), ends), with Ip, Ip1 the disk
    integrals of psi^p, psi^(p+1) and ends = (r, psi, psi', psi'') at every
    step end from R_START to r0.
    """
    def stage(r, u, v):
        # (psi', psi'', Ip', Ip1') at (r, psi = u, psi' = v)
        up = u if u > 0.0 else 0.0
        w = up**p
        return v, -v / r - w, TWO_PI * r * w, TWO_PI * r * w * up

    def step(h):
        # one Dormand-Prince step of length h from (r, u, v, ip, ip1)
        ks = [k]
        for c, a in zip(_C, _A):
            ks.append(stage(r + c * h, u + h * sum(map(mul, a, [s[0] for s in ks])),
                            v + h * sum(map(mul, a, [s[1] for s in ks]))))
        dv, dg, dw, dx = zip(*ks)
        new = (u + h * sum(map(mul, _B, dv)), v + h * sum(map(mul, _B, dg)),
               ip + h * sum(map(mul, _B, dw)), ip1 + h * sum(map(mul, _B, dx)))
        err = math.sqrt(0.25 * sum(
            (h * sum(map(mul, _E, dk)) / (atol + rtol * max(abs(y0), abs(y1))))**2
            for dk, y0, y1 in zip((dv, dg, dw, dx), (u, v, ip, ip1), new)))
        return new, ks[-1], err

    r = R_START
    u, v = _series(p, r)
    # int_0^r 2 pi t psi^q dt = pi r^2 (1 - q r^2/8) + O(r^6) for q = p, p+1
    ip, ip1 = math.pi * r * r * (1.0 - p * r * r / 8.0), math.pi * r * r * (1.0 - (p + 1.0) * r * r / 8.0)
    k = stage(r, u, v)
    ends = [(r, u, v, k[1])]
    h = 1e-2
    while True:
        if r > 100.0 or h < 1e-12 * r:
            raise VortexPatchError(f"radial shoot failed for p={p}: no zero found at r={r:.3g}")
        new, k_new, err = step(h)
        if new[0] <= 0.0:
            # the zero lies inside this step: Newton on the step length
            h *= u / (u - new[0])
            for _ in range(50):
                new, k_new, err = step(h)
                dh = new[0] / new[1]
                if abs(dh) <= 1e-16 * (r + h):
                    break
                h -= dh
            else:
                raise VortexPatchError(f"radial shoot failed for p={p}: no zero in the last step")
            if err <= 1.0:
                r += h
                ends.append((r, new[0], new[1], k_new[1]))
                return r, new[1], new[2], new[3], ends
            h *= 0.5
            continue
        if err <= 1.0:
            r += h
            (u, v, ip, ip1), k = new, k_new
            ends.append((r, u, v, k[1]))
        h *= min(10.0, max(0.2, 0.9 * err**-0.2)) if err > 0.0 else 10.0


def _hermite5(ends, t):
    """psi(t) and psi'(t) from the quintic Hermite of (psi, psi', psi'') on
    the step holding each t (R_START <= t <= r0)."""
    re, y, dy, ddy = np.array(ends).T
    i = np.clip(np.searchsorted(re, t, side="right") - 1, 0, len(re) - 2)
    h = re[i + 1] - re[i]
    x = (t - re[i]) / h
    y0, y1 = y[i], y[i + 1]
    d0, d1 = h * dy[i], h * dy[i + 1]
    e0, e1 = h * h * ddy[i], h * h * ddy[i + 1]
    # the quintic in powers of x matching value, slope and curvature at 0, 1
    a3 = 10.0 * (y1 - y0) - 6.0 * d0 - 4.0 * d1 - 1.5 * e0 + 0.5 * e1
    a4 = -15.0 * (y1 - y0) + 8.0 * d0 + 7.0 * d1 + 1.5 * e0 - e1
    a5 = 6.0 * (y1 - y0) - 3.0 * (d0 + d1) - 0.5 * (e0 - e1)
    psi = y0 + x * (d0 + x * (0.5 * e0 + x * (a3 + x * (a4 + x * a5))))
    dpsi = (d0 + x * (e0 + x * (3.0 * a3 + x * (4.0 * a4 + x * 5.0 * a5)))) / h
    return psi, dpsi


def solve_profile(p, tol=1e-4):
    """Ground-state profile for exponent p > 1.

    tol bounds the finite-difference ODE residual of the tabulated profile
    (a sanity check on the table, the integration itself runs much tighter;
    the Pohozaev invariants hold to about 1e-12).  The default tol holds for
    1.38 <= p <= 6.5; outside it the check raises ConfigError, so a run
    configured with such a p exits with the configuration-error code.
    """
    if p <= 1.0:
        raise SolvabilityError("profile exponent must satisfy p > 1")
    if tol <= 0:
        raise SolvabilityError("tol must be positive")
    r0, dpsi_r0, ip_r0, ip1_r0, ends = _integrate(p)

    alpha = 2.0 / (p - 1.0)
    phi0 = r0**alpha
    slope = r0**(alpha + 1.0) * dpsi_r0
    int_phi_p = r0**(alpha * p - 2.0) * ip_r0
    int_phi_p1 = r0**(alpha * (p + 1.0) - 2.0) * ip1_r0

    # Chebyshev-type nodes cluster near both the center and the rim
    k = np.arange(N_TABLE)
    r = 0.5 * (1.0 - np.cos(np.pi * k / (N_TABLE - 1)))
    t = np.minimum(r * r0, r0)
    series = t < R_START
    vals = np.empty((2, N_TABLE))
    vals[:, series] = _series(p, t[series])
    vals[:, ~series] = _hermite5(ends, t[~series])
    phi = phi0 * vals[0]
    dphi = r0**(alpha + 1.0) * vals[1]
    phi[-1] = 0.0

    prof = RadialProfile(p=float(p), r=r, phi=phi, dphi=dphi,
                         slope_at_one=slope, int_phi_p=int_phi_p,
                         int_phi_p1=int_phi_p1, phi0=phi0)
    res = _ode_residual(prof)
    if res > tol:
        raise ConfigError(
            f"profile table residual {res:.2e} exceeds tol {tol:.2e} for p={p}; "
            "the table meets it for 1.38 <= p <= 6.5")
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
