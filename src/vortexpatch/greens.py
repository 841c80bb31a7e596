"""Dirichlet Green function, Robin function and harmonic background flow.

Conventions (fixed once for the whole package):

    G(x, y) = (1/2pi) ln(1/|x-y|) + H(x, y),   G = 0 on the boundary,
    h(x, y) = -H(x, y),
    g(x, z) = ln(bigR) + 2 pi h(x, z)          (harmonic in x, g = ln(bigR/|x-z|) on the boundary),
    barG(x, y) = ln(bigR/|x-y|) - g(x, y)      (equals 2 pi G identically).

Two backends with one interface (H, H_grad_x, H_hess_xx and H_hess_xy of
a batch of targets and one source): the method of images on disks (closed
forms, machine accurate) and a second-kind boundary integral equation on the
boundary samples of any smooth domain, a disk included (double-layer
representation, Nystrom/trapezoid, spectrally accurate).  GreenEvaluator
picks the backend once, from the domain kind unless one is named, and
delegates the regular part to it.  H is always evaluated directly from the
smooth representation, never as a difference of two nearly equal
logarithms.  In the boundary integral backend H(., y) is a Taylor series
about y on a disk around the source and, everywhere else up to the wall,
the barycentric form of the interior Cauchy integral of the density
(Helsing & Ojala, J. Comput. Phys. 227, 2008), with the curve's Cauchy
matrix formed once: a new source costs one matvec for its trace, and a sum
over targets one product per block.  H_grad_x and H_hess_* are plain
trapezoid sums, accurate only some sample spacings away from the wall.
"""

import numpy as np

from .errors import CompatibilityError, ConfigError, DomainError, SingularityError
from .geometry import CHUNK, BoundaryCurve, _fft_derivative

TWO_PI = 2.0 * np.pi
# Far-field series about y on |x - y| < SERIES_THETA min_j |b_j - y|: each
# pole's tail after SERIES_TERMS terms is below 2 * 2^-56 = 2.8e-17 of it.
SERIES_THETA = 0.5
SERIES_TERMS = 56


def _as_points(x):
    a = np.asarray(x, dtype=float)
    single = a.ndim == 1
    return np.atleast_2d(a), single


def _ret(val, single):
    return val[0] if single else val


def _log_hess(x, y):
    """Hessian of ln|x - y| in x, shape (..., 2, 2)."""
    d = x - y[None, :]
    r2 = (d**2).sum(-1)
    return (np.eye(2) / r2[..., None, None]
            - 2.0 * d[..., :, None] * d[..., None, :] / (r2**2)[..., None, None])


# ====================================================================== #
#  images backend (disks)
# ====================================================================== #


class _ImagesBackend:
    """Closed-form H for a disk of radius rho centered at c.

    Uses the symmetric combination
        q2(x, y) = |x|^2 |y|^2 - 2 rho^2 x.y + rho^4   (coordinates relative to c)
    so that H = (1/4pi) ln q2 - (1/2pi) ln rho is exactly symmetric and stays
    stable as y -> 0 or x -> y.
    """

    def __init__(self, domain):
        self.c = domain.center
        self.rho = domain.radius

    def _q2(self, x, y):
        xt = x - self.c
        yt = y - self.c
        xx = (xt**2).sum(-1)
        yy = (yt**2).sum(-1)
        xy = (xt * yt).sum(-1)
        r2 = self.rho**2
        return xx * yy - 2.0 * r2 * xy + r2**2, xt, yt

    def H(self, x, y):
        q2, _, _ = self._q2(x, y)
        return np.log(q2) / (2.0 * TWO_PI) - np.log(self.rho) / TWO_PI

    def H_grad_x(self, x, y):
        q2, xt, yt = self._q2(x, y)
        yy = (yt**2).sum(-1)[..., None]
        dq = 2.0 * yy * xt - 2.0 * self.rho**2 * yt
        return dq / (2.0 * TWO_PI * q2[..., None])

    def H_hess_xx(self, x, y):
        q2, xt, yt = self._q2(x, y)
        yy = (yt**2).sum(-1)[..., None, None]
        dq = (2.0 * (yt**2).sum(-1)[..., None] * xt - 2.0 * self.rho**2 * yt)
        eye = np.eye(2)
        hess_q = 2.0 * yy * eye
        outer = dq[..., :, None] * dq[..., None, :]
        return (hess_q / q2[..., None, None] - outer / (q2**2)[..., None, None]) / (2.0 * TWO_PI)

    def H_hess_xy(self, x, y):
        # d^2 H / dx_i dy_j
        q2, xt, yt = self._q2(x, y)
        r2 = self.rho**2
        dqx = 2.0 * (yt**2).sum(-1)[..., None] * xt - 2.0 * r2 * yt
        dqy = 2.0 * (xt**2).sum(-1)[..., None] * yt - 2.0 * r2 * xt
        mixed = 4.0 * xt[..., :, None] * yt[..., None, :] - 2.0 * r2 * np.eye(2)
        outer = dqx[..., :, None] * dqy[..., None, :]
        return (mixed / q2[..., None, None] - outer / (q2**2)[..., None, None]) / (2.0 * TWO_PI)


# ====================================================================== #
#  boundary integral backend (smooth parametric boundaries)
# ====================================================================== #


class _BoundaryIntegralBackend:
    """Interior Dirichlet solver via the double-layer Nystrom method.

    The density for boundary data f solves (K_w - I/2) mu = f where K_w is
    the trapezoid discretization of the double-layer operator; the diagonal
    carries the continuous limit -curvature/(4pi).  Formed once per curve:
    the Cauchy matrix Q_ij = zeta'_j dt / (zeta_j - zeta_i), 0 on the
    diagonal, whose -Re Q_ij / (2pi i) are the off-diagonal entries of K_w
    on a positively oriented curve, its row sums q, and one inverse of the
    Nystrom matrix.  Cached per source: the densities of H(., y) and of its
    y-derivatives, and, built on first use, the local expansion of H about
    y and the boundary trace of the Cauchy integral of the density.
    """

    def __init__(self, curve):
        self.curve = curve
        self.n = curve.n
        self.w = TWO_PI / self.n * curve.speed
        # boundary samples zeta_j and zeta'_j as complex numbers
        self.zeta = curve.x[:, 0] + 1j * curve.x[:, 1]
        self.dzeta = curve.dx[:, 0] + 1j * curve.dx[:, 1]
        diff = self.zeta[None, :] - self.zeta[:, None]
        np.fill_diagonal(diff, 1.0)
        self.Q = self.dzeta * (TWO_PI / self.n) / diff
        np.fill_diagonal(self.Q, 0.0)
        self.q = self.Q.sum(1)
        A = self.Q.imag / -TWO_PI
        np.fill_diagonal(A, -curve.curvature * self.w / (2.0 * TWO_PI) - 0.5)
        self.A_inv = np.linalg.inv(A)
        self._cache = {}
        # the series stands in for the plain trapezoid sum, which is at
        # rounding only about six sample spacings or more from the samples
        self.series_min_radius = 6.0 * curve.perimeter / self.n

    # -- density solves -------------------------------------------------- #

    def _densities(self, y, level):
        """Density for H(., y) plus y-derivative densities up to `level`."""
        key = (float(y[0]), float(y[1]))
        entry = self._cache.get(key)
        if entry is None or entry["level"] < level:
            d = self.curve.x - y[None, :]
            r2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
            f = 0.5 * np.log(r2) / TWO_PI  # boundary data (1/2pi) ln|x_b - y|
            entry = {"level": 0, "mu": self.A_inv @ f}
            if level >= 1:
                # d f / d y_h = (y - x_b)_h / (2pi |x_b - y|^2)
                rhs = (-d) / (TWO_PI * r2[:, None])
                entry["mu_y"] = self.A_inv @ rhs
                entry["level"] = 1
            if len(self._cache) > 2048:
                self._cache.clear()
            self._cache[key] = entry
        return entry

    def _local(self, y, entry):
        """Radius rho and Taylor coefficients L of the far-field sum
        Re sum_j c_j / (z - b_j), c_j = mu_j w_j n_j / 2pi, about z = y:
        Re sum_k L_k (z - y)^k for |z - y| < rho.  rho is 0 when the disk
        would be smaller than series_min_radius (a source near the wall)."""
        if "local" not in entry:
            d = self.zeta - (y[0] + 1j * y[1])
            rho = SERIES_THETA * float(np.abs(d).min())
            entry["local"] = (0.0, None)
            if rho >= self.series_min_radius:
                nrm = self.curve.normal
                c = entry["mu"] * self.w * (nrm[:, 0] + 1j * nrm[:, 1]) / TWO_PI
                # L_k = -sum_j c_j (b_j - y)^-(k+1)
                powers = np.cumprod(np.broadcast_to(1.0 / d, (SERIES_TERMS, self.n)), axis=0)
                entry["local"] = (rho, -(powers @ c))
        return entry["local"]

    def _trace(self, entry):
        """Interior boundary values g of the Cauchy integral
        C mu(z) = (1/2pi i) int mu zeta' / (zeta - z) dt, whose real part is
        -H(., y):  g_i = mu_i + (1/2pi i) [sum_{j != i} (mu_j - mu_i) Q_ij
        + mu'_i dt], that is g = mu + (Q mu - q mu + mu' dt) / (2pi i)."""
        if "trace" not in entry:
            mu = entry["mu"]
            s = self.Q @ mu - self.q * mu + _fft_derivative(mu) * (TWO_PI / self.n)
            entry["trace"] = mu + s / (1j * TWO_PI)
        return entry["trace"]

    # -- regular part ---------------------------------------------------- #

    def H(self, x, y):
        ent = self._densities(y, 0)
        rho, L = self._local(y, ent)
        out = np.empty(x.shape[0])
        t = (x[:, 0] - y[0]) + 1j * (x[:, 1] - y[1])
        inner = np.abs(t) < rho
        if np.any(inner):
            # targets in the series disk lie at least rho >= series_min_radius
            # from every sample, so the series stands in for the far sum (Horner)
            ti = t[inner]
            acc = np.full(ti.shape, L[-1])
            for lk in L[-2::-1]:
                acc *= ti
                acc += lk
            out[inner] = acc.real
        if not np.all(inner):
            out[~inner] = self._eval(x[~inner], self._trace(ent))
        return out

    def H_grad_x(self, x, y):
        return self._eval_grad(x, self._densities(y, 0)["mu"])

    def H_hess_xx(self, x, y):
        return self._eval_hess(x, self._densities(y, 0)["mu"])

    def H_hess_xy(self, x, y):
        mu_y = self._densities(y, 1)["mu_y"]
        return np.stack([self._eval_grad(x, mu_y[:, h]) for h in range(2)], axis=-1)

    # -- interior evaluation ---------------------------------------------- #

    def _eval(self, targets, g):
        """-Re of the interior Cauchy integral with boundary values g by the
        barycentric rule sum_j g_j E_j / sum_j E_j, E_j = zeta'_j/(zeta_j - z):
        the quadrature errors of the two sums cancel up to the wall.  Per block
        both are one product, 1/(zeta_j - z) times zeta'_j [g_j, 1].  A target
        on a sample (a row that is not finite) takes that sample's value."""
        z = targets[:, 0] + 1j * targets[:, 1]
        out = np.empty(z.shape[0])
        weights = self.dzeta[:, None] * np.column_stack((g, np.ones(self.n)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in range(0, z.shape[0], CHUNK):
                r = self.zeta[None, :] - z[i:i + CHUNK, None]
                s = np.reciprocal(r, out=r) @ weights
                out[i:i + CHUNK] = -(s[:, 0] / s[:, 1]).real
        hit = ~np.isfinite(out)
        out[hit] = -g[np.abs(self.zeta - z[hit, None]).argmin(1)].real
        return out

    def _eval_grad(self, targets, mu):
        d = targets[:, None, :] - self.curve.x[None, :, :]
        r2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
        nrm = self.curve.normal
        c = d[..., 0] * nrm[:, 0] + d[..., 1] * nrm[:, 1]
        gk = (nrm[None, :, :] / r2[..., None]
              - 2.0 * c[..., None] * d / (r2**2)[..., None]) / TWO_PI
        return np.einsum("tbi,b->ti", gk, mu * self.w)

    def _eval_hess(self, targets, mu):
        d = targets[:, None, :] - self.curve.x[None, :, :]
        r2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
        nrm = self.curve.normal
        c = d[..., 0] * nrm[:, 0] + d[..., 1] * nrm[:, 1]
        eye = np.eye(2)
        t1 = -2.0 * (nrm[None, :, :, None] * d[:, :, None, :]
                     + nrm[None, :, None, :] * d[:, :, :, None]) / (r2**2)[..., None, None]
        t2 = -2.0 * c[..., None, None] * eye / (r2**2)[..., None, None]
        t3 = 8.0 * c[..., None, None] * d[:, :, :, None] * d[:, :, None, :] / (r2**3)[..., None, None]
        hk = (t1 + t2 + t3) / TWO_PI
        return np.einsum("tbij,b->tij", hk, mu * self.w)


# ====================================================================== #
#  public evaluator
# ====================================================================== #


class GreenEvaluator:
    """Green function machinery for a Domain.

    backend "images" is available on disks only; "boundary-integral" works on
    any smooth domain.  All evaluations are pure; the inverse of the Nystrom
    matrix and the density cache are computed once, so a single instance can
    be shared across threads.
    """

    def __init__(self, domain, backend=None, order=512):
        self.domain = domain
        self.big_r = domain.big_r
        if backend is None:
            backend = "images" if domain.kind == "disk" else "boundary-integral"
        if backend == "images":
            if domain.kind != "disk":
                raise ConfigError("images backend requires a disk domain")
            self._b = _ImagesBackend(domain)
        elif backend == "boundary-integral":
            self._b = _BoundaryIntegralBackend(BoundaryCurve(domain.boundary_points(order)[0]))
        else:
            raise ConfigError(f"unknown Green backend {backend!r}")
        self.backend = backend

    # -- regular part ---------------------------------------------------- #

    def H(self, x, y):
        x, single = _as_points(x)
        return _ret(self._b.H(x, np.asarray(y, dtype=float)), single)

    def H_grad_x(self, x, y):
        x, single = _as_points(x)
        return _ret(self._b.H_grad_x(x, np.asarray(y, dtype=float)), single)

    def H_hess_xx(self, x, y):
        x, single = _as_points(x)
        return _ret(self._b.H_hess_xx(x, np.asarray(y, dtype=float)), single)

    def H_hess_xy(self, x, y):
        x, single = _as_points(x)
        return _ret(self._b.H_hess_xy(x, np.asarray(y, dtype=float)), single)

    # -- Green function and friends --------------------------------------- #

    def green(self, x, y):
        """G(x, y); x may be a batch of points, y a single point."""
        x, single = _as_points(x)
        y = np.asarray(y, dtype=float)
        self._check_pair(x, y)
        r = np.hypot(x[..., 0] - y[0], x[..., 1] - y[1])
        return _ret(-np.log(r) / TWO_PI + self.H(x, y), single)

    def green_grad_x(self, x, y):
        x, single = _as_points(x)
        y = np.asarray(y, dtype=float)
        self._check_pair(x, y)
        d = x - y[None, :]
        r2 = (d**2).sum(-1)[..., None]
        return _ret(-d / (TWO_PI * r2) + self.H_grad_x(x, y), single)

    def green_hess_xx(self, x, y):
        x, single = _as_points(x)
        y = np.asarray(y, dtype=float)
        return _ret(-_log_hess(x, y) / TWO_PI + self.H_hess_xx(x, y), single)

    def green_hess_xy(self, x, y):
        x, single = _as_points(x)
        y = np.asarray(y, dtype=float)
        return _ret(_log_hess(x, y) / TWO_PI + self.H_hess_xy(x, y), single)

    def robin(self, z):
        """Robin function H(z, z)."""
        z = np.asarray(z, dtype=float)
        self.domain.require_inside(z)
        return float(self.H(z[None, :], z)[0])

    def robin_grad(self, z):
        z = np.asarray(z, dtype=float)
        return 2.0 * self.H_grad_x(z[None, :], z)[0]

    def robin_hess(self, z):
        z = np.asarray(z, dtype=float)
        hxx = self.H_hess_xx(z[None, :], z)[0]
        hxy = self.H_hess_xy(z[None, :], z)[0]
        return 2.0 * (hxx + hxy)

    def g(self, x, z):
        """g(x, z) = ln(bigR) - 2 pi H(x, z); defined also at x = z."""
        x, single = _as_points(x)
        z = np.asarray(z, dtype=float)
        return _ret(np.log(self.big_r) - TWO_PI * self.H(x, z), single)

    def g_grad_x(self, x, z):
        x, single = _as_points(x)
        z = np.asarray(z, dtype=float)
        return _ret(-TWO_PI * self.H_grad_x(x, z), single)

    def bar_g(self, x, y):
        """barG(x, y) = ln(bigR/|x-y|) - g(x, y); identical to 2 pi G."""
        x, single = _as_points(x)
        y = np.asarray(y, dtype=float)
        self._check_pair(x, y)
        r = np.hypot(x[..., 0] - y[0], x[..., 1] - y[1])
        return _ret(np.log(self.big_r / r) - self.g(x, y), single)

    def _check_pair(self, x, y):
        if not np.all(self.domain.contains(x)):
            raise DomainError("evaluation point outside the domain")
        if not self.domain.contains(y):
            raise DomainError("source point outside the domain")
        r = np.hypot(x[..., 0] - y[0], x[..., 1] - y[1])
        if np.any(r == 0.0):
            raise SingularityError("Green function evaluated on its diagonal; "
                                   "use robin() for the regular part")


# ====================================================================== #
#  harmonic background q = -psi0 from prescribed boundary flux
# ====================================================================== #


class HarmonicBackground:
    """Harmonic function q on the domain with analytic gradient and Hessian.

    Represented through a holomorphic polynomial/series f in the scaled
    variable zeta = (z - center)/scale with q = Re f + offset, which keeps
    the Laplacian exactly zero for every representation.
    """

    def __init__(self, representation, coeffs, center, scale, offset=0.0):
        self.representation = representation
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.offset = float(offset)

    @classmethod
    def zero(cls, offset=0.0):
        return cls("zero", np.zeros(0, dtype=complex), (0.0, 0.0), 1.0, offset)

    @classmethod
    def from_polynomial(cls, coeffs, center=(0.0, 0.0), scale=1.0, offset=0.0):
        """q = Re(sum c_k zeta^k) + offset with zeta = (z - center)/scale."""
        return cls("harmonic-polynomial", coeffs, center, scale, offset)

    def _poly(self, x, deriv=0):
        """The deriv-th derivative of f at zeta(x); zeros, with no zeta
        computed, when no coefficients remain (the zero background)."""
        x = np.asarray(x, dtype=float)
        c = self.coeffs
        if deriv:
            k = np.arange(len(c))
            for _ in range(deriv):
                c = c * k
                c = c[1:]
                k = np.arange(len(c))
        if len(c) == 0:
            return np.zeros(x.shape[:-1], dtype=complex)
        z = ((x[..., 0] - self.center[0]) + 1j * (x[..., 1] - self.center[1])) / self.scale
        return np.polynomial.polynomial.polyval(z, c)

    def value(self, x):
        return np.real(self._poly(x)) + self.offset

    def grad(self, x):
        fp = self._poly(x, 1) / self.scale
        return np.stack([np.real(fp), -np.imag(fp)], axis=-1)

    def hessian(self, x):
        fpp = self._poly(x, 2) / self.scale**2
        a, b = np.real(fpp), -np.imag(fpp)
        return np.stack([np.stack([a, b], -1), np.stack([b, -a], -1)], -2)


def background_from_flux(domain, vn, offset=0.0):
    """Build q = -psi0 from the outward boundary flux v_n.

    vn is either a callable of the boundary parameter t in [0, 2pi) or an
    array of samples on the uniform parameter grid.  The net flux must vanish
    (relative tolerance 1e-10); psi0 solves -dpsi0/dtau = v_n and q is
    normalized to zero mean over the domain before the offset is added.
    """
    if domain.kind == "disk":
        n = 512 if not hasattr(vn, "__len__") else max(len(vn), 16)
    else:
        n = domain.curve.n
    t = TWO_PI * np.arange(n) / n
    if callable(vn):
        samples = np.asarray([vn(tj) for tj in t], dtype=float)
    else:
        samples = np.asarray(vn, dtype=float)
        if samples.size == 0:
            raise CompatibilityError("empty boundary flux samples")
        if samples.shape[0] != n:
            raise ConfigError("flux samples must match the boundary parameter grid")

    if domain.kind == "disk":
        ds = domain.radius * np.full(n, TWO_PI / n)
    else:
        ds = domain.curve.speed * TWO_PI / n
    net = float(np.sum(samples * ds))
    scale_flux = float(np.sum(np.abs(samples) * ds))
    if scale_flux == 0.0:
        return HarmonicBackground.zero(offset)
    if abs(net) > 1e-10 * scale_flux:
        raise CompatibilityError(
            f"net boundary flux {net:.3e} violates the zero-circulation "
            f"compatibility condition (relative {abs(net) / scale_flux:.2e})")

    # psi0 on the boundary from the flux: psi0(t) = + int v_n ds.  With the
    # velocity orientation v = (d2 psi, -d1 psi) (which makes the vorticity
    # of a positive vortex positive), this sign reproduces v . n = v_n on
    # the boundary; the opposite sign would flip the measured flux.
    if domain.kind == "disk":
        spec = np.fft.fft(samples) / n
        k = np.fft.fftfreq(n, d=1.0 / n)
        with np.errstate(divide="ignore", invalid="ignore"):
            psi_spec = np.where(k == 0, 0.0, domain.radius * spec / (1j * k))
        kmax = n // 2 - 1
        # boundary trace psi0 = sum_k psi_spec[k] e^{ikt}; for real data the
        # harmonic extension is psi0 = Re(sum_{k>=1} 2 psi_spec[k] zeta^k),
        # zeta = (z - center)/radius.  Dropping k = 0 makes q mean-zero.
        coeffs = np.zeros(kmax + 1, dtype=complex)
        coeffs[1:] = 2.0 * psi_spec[1:kmax + 1]
        # drop the trailing FFT noise: the coefficients whose summed
        # magnitude is below rounding of the whole series
        tail = np.cumsum(np.abs(coeffs[::-1]))[::-1]
        coeffs = coeffs[:np.count_nonzero(tail > np.finfo(float).eps * tail[0])]
        return HarmonicBackground("fourier-on-disk", -coeffs, domain.center,
                                  domain.radius, offset)

    # parametric: integrate v_n along arclength spectrally (the k = 0 mode of
    # v_n |x'| vanishes by compatibility), then fit a harmonic polynomial
    integrand = samples * domain.curve.speed
    spec_i = np.fft.fft(integrand) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        anti = np.where(k == 0, 0.0, spec_i / (1j * k))
    psi_b = np.real(np.fft.ifft(anti * n))
    psi_b -= psi_b.mean()
    pts = domain.curve.x
    zeta = ((pts[:, 0] - domain.center[0]) + 1j * (pts[:, 1] - domain.center[1])) / (domain.diameter / 2.0)
    kmax = min(48, n // 4)
    cols = [np.ones(n)]
    for kk in range(1, kmax + 1):
        cols.append(np.real(zeta**kk))
        cols.append(np.imag(zeta**kk))
    Amat = np.column_stack(cols)
    sol, *_ = np.linalg.lstsq(Amat, psi_b, rcond=1e-12)
    coeffs = np.zeros(kmax + 1, dtype=complex)
    coeffs[0] = sol[0]
    for kk in range(1, kmax + 1):
        coeffs[kk] = sol[2 * kk - 1] - 1j * sol[2 * kk]
    qc = -coeffs
    q = HarmonicBackground("harmonic-polynomial", qc, domain.center, domain.diameter / 2.0, offset)
    # subtract the domain mean (midpoint quadrature on a masked grid)
    lo, hi = domain.bounding_box()
    m = 160
    gx = np.linspace(lo[0], hi[0], m)
    gy = np.linspace(lo[1], hi[1], m)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    P = np.stack([X.ravel(), Y.ravel()], axis=-1)
    mask = domain.contains(P)
    mean = float(np.mean(q.value(P[mask]))) - offset
    q.coeffs = q.coeffs.copy()
    q.coeffs[0] -= mean
    return q
