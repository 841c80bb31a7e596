"""Dirichlet Green function, Robin function and harmonic background flow.

Conventions (fixed once for the whole package):

    G(x, y) = (1/2pi) ln(1/|x-y|) + H(x, y),   G = 0 on the boundary,
    h(x, y) = -H(x, y),
    g(x, z) = ln(bigR) + 2 pi h(x, z)          (harmonic in x, g = ln(bigR/|x-z|) on the boundary),
    barG(x, y) = ln(bigR/|x-y|) - g(x, y)      (equals 2 pi G identically).

Two backends with one interface: the method of images on disks (closed
forms) and, on the boundary samples of any smooth domain (a disk
included), one conformal map F onto the unit disk from one Nystrom solve
per curve: G(x, y) = (1/2pi) ln(|1 - conj F(y) F(x)| / |F(x) - F(y)|)
(Gustafsson 1979).  GreenEvaluator picks the backend once, from the domain
kind unless one is named.  On both backends H(., y) = Re f(z),
z = x_1 + i x_2: a backend gives H, f' and f'' (df) and df'/dy_1,2 (df_y)
for a batch of targets and one source, and _grad and _hess form every real
gradient and Hessian from them.  H is never a difference of two nearly
equal logarithms.
"""

import math

import numpy as np

from .errors import CompatibilityError, ConfigError, DomainError, SingularityError
from .geometry import CHUNK, BoundaryCurve, _fft_derivative

TWO_PI = 2.0 * np.pi
# Taylor series about the source y on |x - y| < SERIES_THETA min_j |b_j - y|:
# each sample's tail after SERIES_TERMS terms is below 2 * 2^-56 = 2.8e-17 of it.
SERIES_THETA = 0.5
SERIES_TERMS = 56
# sources whose Taylor record a curve keeps for later calls with them
SOURCES_KEPT = 64


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
    """H from one conformal map F of the curve's interior onto the unit disk.

    F(z) = (z - z0) exp(2pi C(z)), where C is the Cauchy integral whose
    real part is -H(., z0): F_j = (zeta_j - z0) exp(2pi g_j), g the trace of
    the curve's one Nystrom density.  For a source w = y_1 + i y_2,

        H(x, y) = (1/2pi) ln|(1 - conj F(w) F(z)) / D(z)|,
        D(z) = (F(z) - F(w)) / (z - w),

    and f', f'' and df'/dy_1,2 are closed forms in F(w), F'(w) and the
    z-derivatives of D and of D_w = (D - F'(w)) / (z - w).  Both are
    holomorphic in the domain: on a disk about the source they are Taylor
    series of F, elsewhere the barycentric rule on their boundary values.
    """

    def __init__(self, curve, z0):
        self.n = curve.n
        self.zeta = _complex(curve.x)
        self.dzeta = _complex(curve.dx)
        dt = TWO_PI / self.n
        diff = self.zeta[None, :] - self.zeta[:, None]
        np.fill_diagonal(diff, 1.0)
        Q = self.dzeta * dt / diff
        np.fill_diagonal(Q, 0.0)
        A = Q.imag / -TWO_PI
        np.fill_diagonal(A, -curve.curvature * curve.speed * dt / (2.0 * TWO_PI) - 0.5)
        # (K_w - I/2) mu = (1/2pi) ln|zeta - z0|: K_w is the trapezoid double
        # layer, -Re Q_ij / (2pi i) off the diagonal, the curvature limit on it
        w0 = z0[0] + 1j * z0[1]
        mu = np.linalg.solve(A, np.log(np.abs(self.zeta - w0)) / TWO_PI)
        # interior trace of the Cauchy integral of mu: g_i = mu_i + (1/2pi i)
        # [sum_{j != i} (mu_j - mu_i) Q_ij + mu'_i dt]
        g = mu + (Q @ mu - Q.sum(1) * mu + _fft_derivative(mu) * dt) / (1j * TWO_PI)
        self.F = (self.zeta - w0) * np.exp(TWO_PI * g)
        # the series needs its trapezoid sums at rounding: six spacings or more
        self.series_min_radius = 6.0 * curve.perimeter / self.n
        self._sources = {}

    def _bary(self, z, data, order):
        """The function with boundary values `data` and its first `order`
        z-derivatives at z: the barycentric rule sum_j data_j E_j / sum_j E_j,
        E_j = zeta'_j / (zeta_j - z), one product per block, whose quadrature
        errors cancel up to the wall, and its Schneider-Werner derivatives
        v^(k)/k! = sum_j E_j d_kj / sum_j E_j, d_(k+1)j = (d_kj - v^(k)/k!) /
        (zeta_j - z), d_0 = data.  A target on a sample takes its value."""
        out = np.empty((order + 1, z.shape[0]), dtype=complex)
        weights = self.dzeta[:, None] * np.column_stack((data, np.ones(self.n)))
        block = np.empty((min(CHUNK, z.shape[0]), self.n), dtype=complex)  # reused
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in range(0, z.shape[0], CHUNK):
                r = block[:len(z[i:i + CHUNK])]
                np.subtract(self.zeta, z[i:i + CHUNK, None], out=r)
                np.reciprocal(r, out=r)
                s = r @ weights
                val = s[:, 0] / s[:, 1]
                out[0, i:i + CHUNK] = val
                if order:
                    d = data - val[:, None]
                for k in range(1, order + 1):
                    d *= r
                    val = (d * r) @ self.dzeta / s[:, 1]
                    out[k, i:i + CHUNK] = math.factorial(k) * val
                    d -= val[:, None]
        hit = ~np.isfinite(out[0])
        out[0, hit] = data[np.abs(self.zeta - z[hit, None]).argmin(1)]
        return out

    def _source(self, w):
        """(rho, c, phi) of the source w, kept for later calls: its series
        disk's radius, the Taylor coefficients c_k = F^(k)(w)/k! as trapezoid
        sums (1/2pi i) sum_j F_j zeta'_j dt / (zeta_j - w)^(k+1), and D's boundary
        values (F_j - F(w)) / (zeta_j - w); nearer the wall than series_min_radius,
        rho = 0 and c = (F(w), F'(w)) by the barycentric rule."""
        rec = self._sources.get(w)   # one lookup: another thread may clear
        if rec is not None:
            return rec
        d = self.zeta - w
        rho = SERIES_THETA * float(np.abs(d).min())
        if rho < self.series_min_radius:
            rho, c = 0.0, self._bary(np.array([w]), self.F, 1)[:, 0]
        else:
            powers = np.cumprod(np.broadcast_to(1.0 / d, (SERIES_TERMS, self.n)), axis=0)
            c = powers @ (self.F * self.dzeta) / (1j * self.n)
        if len(self._sources) == SOURCES_KEPT:
            self._sources.clear()
        self._sources[w] = rec = rho, c, (self.F - c[0]) / d
        return rec

    def _quotient(self, z, t, inner, rho, p, data, order):
        """A holomorphic function and its first `order` z-derivatives at z = w + t:
        on `inner` by Horner over its Taylor coefficients p about w, to the terms
        that reach 2^-SERIES_TERMS at max|t|; elsewhere from its boundary values."""
        q = np.empty((order + 1, z.shape[0]), dtype=complex)
        if not np.all(inner):
            q[:, ~inner] = self._bary(z[~inner], data, order)
        if np.any(inner):
            ti = t[inner]
            reach = math.log2(2.0 * rho / max(float(np.abs(ti).max()), 1e-300))
            m = min(len(p), order + 1 + math.ceil(SERIES_TERMS / reach))
            coef = np.zeros((m, order + 1), dtype=complex)
            coef[:, 0] = p[:m]
            for k in range(1, order + 1):
                coef[:m - k, k] = coef[1:m - k + 1, k - 1] * np.arange(1, m - k + 1)
            acc = np.repeat(coef[-1][:, None], len(ti), axis=1)
            for ck in coef[-2::-1, :, None]:
                acc *= ti
                acc += ck
            q[:, inner] = acc
        return q

    def _parts(self, x, y, order, y_pair=False):
        """c = (F(w), F'(w), ...) and, at the targets x, the z-derivatives up
        to `order` of F and of D, and with y_pair those of D_w."""
        w = complex(y[0], y[1])
        rho, c, phi = self._source(w)
        z = _complex(x)
        t = z - w
        inner = np.abs(t) < rho
        d = self._quotient(z, t, inner, rho, c[1:], phi, order)
        # F = F(w) + t D, so F^(k) = k D^(k-1) + t D^(k)
        f = t * d
        f[0] += c[0]
        f[1:] += np.arange(1, order + 1)[:, None] * d[:-1]
        if not y_pair:
            return c, f, d
        psi = (phi - c[1]) / (self.zeta - w)   # the boundary values of D_w
        return c, f, d, self._quotient(z, t, inner, rho, c[2:], psi, order)

    def H(self, x, y):
        c, f, d = self._parts(x, y, 0)
        return np.log(np.abs((1.0 - np.conj(c[0]) * f[0]) / d[0])) / TWO_PI

    def df(self, x, y, order):
        """f' (order 1) or f'' (order 2) of f = (ln(1 - conj F(w) F) - ln D)/2pi."""
        c, f, d = self._parts(x, y, order)
        u = np.conj(c[0]) / (1.0 - np.conj(c[0]) * f[0])
        v = d[1] / d[0]
        if order == 1:
            return -(u * f[1] + v) / TWO_PI
        return -(u * f[2] + (u * f[1])**2 + d[2] / d[0] - v * v) / TWO_PI

    def df_y(self, x, y):
        """(df'/dy_1, df'/dy_2) = (K + K', i (K - K')): K' via conj F(w), K via D."""
        c, f, d, e = self._parts(x, y, 1, y_pair=True)
        k_bar = -np.conj(c[1]) * f[1] / (1.0 - np.conj(c[0]) * f[0])**2
        k = (d[1] * e[0] / d[0] - e[1]) / d[0]
        return np.stack([k + k_bar, 1j * (k - k_bar)], axis=-1) / TWO_PI


# ====================================================================== #
#  public evaluator
# ====================================================================== #


def _interior_point(domain):
    """The domain's center when it lies inside, else the point of a 32 x 32
    lattice over the bounding box that lies deepest inside."""
    if domain.contains(domain.center):
        return domain.center
    lo, hi = domain.bounding_box()
    s = np.linspace(0.0, 1.0, 34)[1:-1]
    pts = lo + (hi - lo) * np.stack(np.meshgrid(s, s), axis=-1).reshape(-1, 2)
    return pts[np.argmax(np.where(domain.contains(pts), domain.boundary_distance(pts), -1.0))]


class GreenEvaluator:
    """Green function machinery for a Domain.

    backend "images" is available on disks only; "boundary-integral" works on
    any smooth domain: its map is built once, and a source's Taylor record
    on first use.  One instance can be shared across threads.
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
            curve = BoundaryCurve(domain.boundary_points(order)[0])
            self._b = _BoundaryIntegralBackend(curve, _interior_point(domain))
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
        for _ in range(deriv):
            c = c[1:] * np.arange(1, len(c))
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

    vn is either a callable, called once on the array of the uniform
    boundary parameters t in [0, 2pi) and returning the flux at each of them
    (or one scalar, taken at every t), or an array of samples on that grid.
    The net flux must vanish (relative tolerance 1e-10); psi0 solves
    -dpsi0/dtau = v_n and q is normalized to zero mean over the domain
    before the offset is added.
    """
    if domain.kind == "disk":
        n = 512 if not hasattr(vn, "__len__") else max(len(vn), 16)
    else:
        n = domain.curve.n
    t = TWO_PI * np.arange(n) / n
    if callable(vn):
        samples = np.broadcast_to(np.asarray(vn(t), dtype=float), t.shape)
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
