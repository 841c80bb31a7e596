"""Dirichlet Green function, Robin function and harmonic background flow.

Conventions (fixed once for the whole package):

    G(x, y) = (1/2pi) ln(1/|x-y|) + H(x, y),   G = 0 on the boundary,
    h(x, y) = -H(x, y),
    g(x, z) = ln(bigR) + 2 pi h(x, z)          (harmonic in x, g = ln(bigR/|x-z|) on the boundary),
    barG(x, y) = ln(bigR/|x-y|) - g(x, y)      (equals 2 pi G identically).

Two backends with one interface: the method of images on disks (closed
forms, machine accurate) and a second-kind boundary integral equation on the
boundary samples of any smooth domain, a disk included (double-layer
representation, Nystrom/trapezoid, spectrally accurate).  GreenEvaluator
picks the backend once, from the domain kind unless one is named, and
delegates the regular part to it.  On both backends H(., y) = Re f(z),
z = x_1 + i x_2: a backend gives H, f' and f'' (df) and df'/dy_1,2 (df_y)
for a batch of targets and one source, and _grad and _hess form every real
gradient and Hessian from such complex derivatives.  H is always evaluated
directly from the smooth representation, never as a difference of two
nearly equal logarithms.  In the boundary integral backend H(., y) is a
Taylor series about y on a disk around the source and, everywhere else up
to the wall, the barycentric form of the interior Cauchy integral of the
density (Helsing & Ojala, J. Comput. Phys. 227, 2008), with the curve's
Cauchy matrix formed once: a new source costs one matvec for its trace,
and a sum over targets one product per block.  Its f' and f'' are plain
trapezoid sums of the poles, also one product per block, accurate only
some sample spacings away from the wall.
"""

import math

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


def _complex(x):
    """The points x (..., 2) as z = x_1 + i x_2."""
    return x[..., 0] + 1j * x[..., 1]


def _grad(fp):
    """Gradient (Re f', -Im f') of Re f from its z-derivative f'."""
    return np.stack([fp.real, -fp.imag], axis=-1)


def _hess(fpp):
    """Hessian [[a, b], [b, -a]], a + i b = conj f'', of Re f from f''."""
    a, b = fpp.real, -fpp.imag
    return np.stack([np.stack([a, b], -1), np.stack([b, -a], -1)], -2)


# ====================================================================== #
#  images backend (disks)
# ====================================================================== #


class _ImagesBackend:
    """Closed-form H for a disk of radius rho centered at c.

    In coordinates relative to c, H(., y) = Re f - (1/2pi) ln rho with
    f(z) = ln(z conj(y) - rho^2)/2pi.  H itself is formed from
        q2(x, y) = |z conj(y) - rho^2|^2 = |x|^2 |y|^2 - 2 rho^2 x.y + rho^4,
    which is exactly symmetric and stays stable as y -> 0 or x -> y.
    """

    def __init__(self, domain):
        self.c = domain.center
        self.rho = domain.radius

    def H(self, x, y):
        x0, x1 = x[..., 0] - self.c[0], x[..., 1] - self.c[1]
        y0, y1 = y[..., 0] - self.c[0], y[..., 1] - self.c[1]
        xx = x0 * x0 + x1 * x1
        yy = y0 * y0 + y1 * y1
        xy = x0 * y0 + x1 * y1
        r2 = self.rho**2
        q2 = xx * yy - 2.0 * r2 * xy + r2**2
        return np.log(q2) / (2.0 * TWO_PI) - np.log(self.rho) / TWO_PI

    def _pole(self, x, y):
        """d = z conj(y) - rho^2 and conj(y), relative to c."""
        yb = np.conj(_complex(y - self.c))
        return _complex(x - self.c) * yb - self.rho**2, yb

    def df(self, x, y, order):
        """f' = conj(y)/(2pi d) (order 1) or f'' = -conj(y)^2/(2pi d^2)."""
        d, yb = self._pole(x, y)
        return -(-yb / d)**order / TWO_PI

    def df_y(self, x, y):
        """(df'/dy_1, df'/dy_2) = (K, -i K), K = -rho^2/(2pi d^2): f depends
        on y only through conj(y)."""
        d, _ = self._pole(x, y)
        k = -self.rho**2 / (TWO_PI * d**2)
        return np.stack([k, -1j * k], axis=-1)


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
        self.zeta = _complex(curve.x)
        self.dzeta = _complex(curve.dx)
        self.nu = _complex(curve.normal)
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

    def _coeffs(self, mu):
        """Pole weights c_j = mu_j w_j n_j / 2pi of the double layer of the
        density mu (n,) or of each column of mu (n, m): its potential is
        Re sum_j c_j / (z - b_j), with n_j as a complex number."""
        return (mu.T * self.w * self.nu / TWO_PI).T

    def _local(self, y, entry):
        """Radius rho and Taylor coefficients L of the far-field sum
        Re sum_j c_j / (z - b_j) about z = y:
        Re sum_k L_k (z - y)^k for |z - y| < rho.  rho is 0 when the disk
        would be smaller than series_min_radius (a source near the wall)."""
        if "local" not in entry:
            d = self.zeta - (y[0] + 1j * y[1])
            rho = SERIES_THETA * float(np.abs(d).min())
            entry["local"] = (0.0, None)
            if rho >= self.series_min_radius:
                # L_k = -sum_j c_j (b_j - y)^-(k+1)
                powers = np.cumprod(np.broadcast_to(1.0 / d, (SERIES_TERMS, self.n)), axis=0)
                entry["local"] = (rho, -(powers @ self._coeffs(entry["mu"])))
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

    def df(self, x, y, order):
        """f' (order 1) or f'' (order 2) of the pole sum f of H(., y)."""
        return self._pole_sum(x, self._coeffs(self._densities(y, 0)["mu"]), order)

    def df_y(self, x, y):
        """(df'/dy_1, df'/dy_2): f' of the y-derivative densities."""
        return self._pole_sum(x, self._coeffs(self._densities(y, 1)["mu_y"]), 1)

    # -- interior evaluation ---------------------------------------------- #

    def _eval(self, targets, g):
        """-Re of the interior Cauchy integral with boundary values g by the
        barycentric rule sum_j g_j E_j / sum_j E_j, E_j = zeta'_j/(zeta_j - z):
        the quadrature errors of the two sums cancel up to the wall.  Per block
        both are one product, 1/(zeta_j - z) times zeta'_j [g_j, 1].  A target
        on a sample (a row that is not finite) takes that sample's value."""
        z = _complex(targets)
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

    def _pole_sum(self, targets, c, order):
        """The order-th z-derivative of sum_j c_j / (z - zeta_j) for weights
        c (n,) or (n, m), -order! sum_j c_j / (zeta_j - z)^(order + 1): per
        block of targets one product, the powers of the in-place
        reciprocals times c.  A plain trapezoid sum, accurate some sample
        spacings away from the wall."""
        z = _complex(targets)
        out = np.empty(z.shape + c.shape[1:], dtype=complex)
        for i in range(0, z.shape[0], CHUNK):
            r = self.zeta[None, :] - z[i:i + CHUNK, None]
            np.reciprocal(r, out=r)
            out[i:i + CHUNK] = r**(order + 1) @ c
        return -math.factorial(order) * out


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

    # -- regular part: H(., y) = Re f(z) -------------------------------- #

    def H(self, x, y):
        x, single = _as_points(x)
        return _ret(self._b.H(x, np.asarray(y, dtype=float)), single)

    def H_grad_x(self, x, y):
        x, single = _as_points(x)
        return _ret(_grad(self._b.df(x, np.asarray(y, dtype=float), 1)), single)

    def H_hess_xx(self, x, y):
        x, single = _as_points(x)
        return _ret(_hess(self._b.df(x, np.asarray(y, dtype=float), 2)), single)

    def H_hess_xy(self, x, y):
        """d^2 H / dx_i dy_h at [..., i, h]: the gradient of each df'/dy_h."""
        x, single = _as_points(x)
        pair = self._b.df_y(x, np.asarray(y, dtype=float))
        return _ret(np.swapaxes(_grad(pair), -1, -2), single)

    # -- Green function and friends --------------------------------------- #
    # -(1/2pi) ln|x - y| = Re[-ln(z - w)/2pi], w = y_1 + i y_2

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
        fp = self._b.df(x, y, 1) - 1.0 / (TWO_PI * _complex(x - y))
        return _ret(_grad(fp), single)

    def green_hess_xx(self, x, y):
        x, single = _as_points(x)
        y = np.asarray(y, dtype=float)
        self._check_pair(x, y)
        fpp = self._b.df(x, y, 2) + 1.0 / (TWO_PI * _complex(x - y)**2)
        return _ret(_hess(fpp), single)

    def green_hess_xy(self, x, y):
        # the log term's f' = -1/(2pi (z - w)) has y-pair (D, i D) with
        # D = -1/(2pi (z - w)^2), whose gradients form the matrix _hess(D)
        x, single = _as_points(x)
        y = np.asarray(y, dtype=float)
        self._check_pair(x, y)
        log_xy = _hess(-1.0 / (TWO_PI * _complex(x - y)**2))
        return _ret(log_xy + self.H_hess_xy(x, y), single)

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
        return _grad(self._poly(x, 1) / self.scale)

    def hessian(self, x):
        return _hess(self._poly(x, 2) / self.scale**2)


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
    qc = -np.concatenate((sol[:1], sol[1::2] - 1j * sol[2::2]))
    # subtract the domain mean of Re f: int_Omega f dA = (1/2i) oint f
    # conj(zeta) dzeta for holomorphic f, by the trapezoid rule on the samples
    wts = np.conj(zeta) * (domain.curve.dx[:, 0] + 1j * domain.curve.dx[:, 1])
    qc[0] -= np.imag(np.sum(np.polynomial.polynomial.polyval(zeta, qc) * wts)) / np.imag(np.sum(wts))
    return HarmonicBackground("harmonic-polynomial", qc, domain.center, domain.diameter / 2.0, offset)
