"""Planar domains: disks and smooth parametric boundaries.

A Domain is either an analytic disk (center, radius) or a smooth closed
curve given by a 2pi-periodic parametrization sampled on a uniform grid.
Curve derivatives (tangent, normal, curvature, arclength element) are
obtained by FFT differentiation, which is spectrally accurate for smooth
closed curves.  Point location on the sample polygon: ray-crossing parity
inside, nearest-sample distance by a scan of the samples in blocks of
targets.  The outward-enclosure constant bigR is chosen so that the whole
domain sits well inside the ball B_bigR(x) around any of its points; the
default is twice the diameter.
"""

import numpy as np

from .errors import ConfigError, DomainError

# Targets per block in the sums over boundary samples (the distance scan
# here, the barycentric Green sum in greens): each (block x samples)
# temporary is 1-2 MB at 512 samples and stays in a core's L2 cache
# (1,024-target blocks of the Green sum took twice as long on a 2 MB-L2 Xeon).
CHUNK = 256


def _fft_derivative(values, order=1):
    """Differentiate 2pi-periodic samples spectrally along axis 0.
    values: (n,) or (n, d)."""
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    mult = (1j * np.fft.fftfreq(n, d=1.0 / n)) ** order
    mult = mult.reshape((n,) + (1,) * (v.ndim - 1))
    return np.real(np.fft.ifft(mult * np.fft.fft(v, axis=0), axis=0))


class BoundaryCurve:
    """Closed positively-oriented curve from uniform parameter samples.

    Stores positions, first/second parameter derivatives, outward normals,
    curvature and the arclength element |x'(t)|.  The parameter grid is
    t_j = 2*pi*j/n.
    """

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] < 16 or pts.shape[1] != 2:
            raise ConfigError("boundary needs at least 16 (x1, x2) samples")
        area2 = np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1])
        if area2 < 0:  # enforce positive orientation
            pts = pts[::-1].copy()
        self.n = pts.shape[0]
        self.x = pts
        self.dx = _fft_derivative(pts, 1)
        self.ddx = _fft_derivative(pts, 2)
        self.speed = np.hypot(self.dx[:, 0], self.dx[:, 1])
        if np.any(self.speed <= 0):
            raise ConfigError("degenerate boundary parametrization (zero speed)")
        # outward normal of a positively oriented curve
        self.normal = np.column_stack((self.dx[:, 1], -self.dx[:, 0])) / self.speed[:, None]
        self.curvature = (self.dx[:, 0] * self.ddx[:, 1] - self.dx[:, 1] * self.ddx[:, 0]) / self.speed**3
        self.perimeter = np.sum(self.speed) * 2.0 * np.pi / self.n

    def resample(self, n):
        """Trigonometric resampling to n points (exact for the trig interpolant
        when upsampling; spectral truncation when downsampling)."""
        if n == self.n:
            return self
        f = np.fft.fft(self.x, axis=0)
        g = np.zeros((n, 2), dtype=complex)
        half = min(n, self.n) // 2
        g[:half] = f[:half]
        g[-(half - 1):] = f[-(half - 1):]
        pts = np.real(np.fft.ifft(g, axis=0)) * (n / self.n)
        return BoundaryCurve(pts)


def _ellipse(n, a, b, center):
    t = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack((center[0] + a * np.cos(t), center[1] + b * np.sin(t)))


def _smooth_blob(n, radius, center, wobble, mode):
    # star-like analytic perturbation of a circle, handy for backend tests
    t = 2.0 * np.pi * np.arange(n) / n
    r = radius * (1.0 + wobble * np.cos(mode * t))
    return np.column_stack((center[0] + r * np.cos(t), center[1] + r * np.sin(t)))


NAMED_SHAPES = {
    "ellipse": _ellipse,
    "blob": _smooth_blob,
}

# sample pairs per block of the diameter scan: a few 512 kB temporaries,
# where all pairs at once take 0.7 GB at 4,096 samples
DIAMETER_BLOCK = 2**16


def _diameter(pts):
    """Largest distance between two samples, scanned over blocks of rows,
    each against the samples from its first row on."""
    x, y = pts.T
    rows = max(1, DIAMETER_BLOCK // len(pts))
    sq = 0.0
    for i in range(0, len(pts), rows):
        dx = x[i:i + rows, None] - x[i:]
        dy = y[i:i + rows, None] - y[i:]
        sq = max(sq, float((dx * dx + dy * dy).max()))
    return float(np.sqrt(sq))


class Domain:
    """Bounded simply connected domain.

    kind "disk": center + radius, analytic inside tests and Green function
    by the method of images.  kind "parametric": BoundaryCurve, inside test
    by the crossing parity of the sample polygon, distance by a scan of
    the samples, Green function by a boundary integral backend.
    """

    def __init__(self, kind, center=(0.0, 0.0), radius=1.0, curve=None, big_r=None):
        self.kind = kind
        self.center = np.asarray(center, dtype=float)
        if kind == "disk":
            if radius <= 0:
                raise ConfigError("disk radius must be positive")
            self.radius = float(radius)
            self.curve = None
            self.diameter = 2.0 * self.radius
        elif kind == "parametric":
            if curve is None:
                raise ConfigError("parametric domain needs a BoundaryCurve")
            self.curve = curve
            self.radius = None
            self.diameter = _diameter(curve.x)
            self.center = curve.x.mean(axis=0)
        else:
            raise ConfigError(f"unknown domain kind {kind!r}")
        self.big_r = float(big_r) if big_r is not None else 2.0 * self.diameter
        if self.big_r <= self.diameter:
            raise ConfigError("bigR must exceed the domain diameter")

    # ------------------------------------------------------------------ #

    @classmethod
    def disk(cls, radius=1.0, center=(0.0, 0.0), big_r=None):
        return cls("disk", center=center, radius=radius, big_r=big_r)

    @classmethod
    def from_samples(cls, points, big_r=None):
        return cls("parametric", curve=BoundaryCurve(points), big_r=big_r)

    @classmethod
    def named(cls, shape, n=512, big_r=None, **params):
        if shape not in NAMED_SHAPES:
            raise ConfigError(f"unknown shape {shape!r}; have {sorted(NAMED_SHAPES)}")
        defaults = {
            "ellipse": dict(a=1.0, b=0.6, center=(0.0, 0.0)),
            "blob": dict(radius=1.0, center=(0.0, 0.0), wobble=0.12, mode=3),
        }[shape]
        defaults.update(params)
        return cls.from_samples(NAMED_SHAPES[shape](n, **defaults), big_r=big_r)

    # ------------------------------------------------------------------ #

    def contains(self, x, tol=0.0):
        """Point-in-domain test; x is (..., 2).  tol > 0 shrinks the domain."""
        x = np.asarray(x, dtype=float)
        if self.kind == "disk":
            r = np.hypot(x[..., 0] - self.center[0], x[..., 1] - self.center[1])
            return r < self.radius - tol
        return self._parity_inside(x) if tol == 0 else self.signed_distance(x) > tol

    def boundary_distance(self, x):
        """Unsigned distance to the boundary (parametric: to the nearest
        sample, an overestimate of up to half a sample spacing)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "disk":
            return np.abs(self.signed_distance(x))
        pts = x.reshape(-1, 2)
        cx, cy = self.curve.x.T
        sq = np.empty(len(pts))
        for i in range(0, len(pts), CHUNK):
            dx = pts[i:i + CHUNK, :1] - cx
            dy = pts[i:i + CHUNK, 1:] - cy
            sq[i:i + CHUNK] = (dx * dx + dy * dy).min(axis=1)
        return np.sqrt(sq).reshape(x.shape[:-1])

    def signed_distance(self, x):
        """Distance to the boundary, positive inside (parametric: to the
        nearest sample, too large by up to half a sample spacing)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "disk":
            r = np.hypot(x[..., 0] - self.center[0], x[..., 1] - self.center[1])
            return self.radius - r
        dist = self.boundary_distance(x)
        return np.where(self._parity_inside(x), dist, -dist)

    def _parity_inside(self, x):
        """A rightward ray from each point crosses the sample polygon an odd
        number of times; each edge meets the points in its half-open y-span."""
        px, py = x.reshape(-1, 2).T
        order = np.argsort(py)
        x0, y0 = self.curve.x.T
        x1, y1 = np.roll(self.curve.x, -1, axis=0).T
        first, stop = np.searchsorted(py[order], [np.minimum(y0, y1), np.maximum(y0, y1)])
        count = stop - first
        edge = np.repeat(np.arange(len(x0)), count)
        # pair k of edge e is the point at sorted position first[e] + k - (pairs before e)
        p = order[np.arange(len(edge)) + np.repeat(stop - np.cumsum(count), count)]
        x_cross = x0[edge] + (py[p] - y0[edge]) * (x1[edge] - x0[edge]) / (y1[edge] - y0[edge])
        return (np.bincount(p[px[p] < x_cross], minlength=len(px)) % 2 == 1).reshape(x.shape[:-1])

    def boundary_points(self, n=256):
        """n boundary samples plus outward unit normals, uniform in parameter."""
        if self.kind == "disk":
            t = 2.0 * np.pi * np.arange(n) / n
            nrm = np.column_stack((np.cos(t), np.sin(t)))
            return self.center + self.radius * nrm, nrm
        cur = self.curve.resample(n) if n != self.curve.n else self.curve
        return cur.x, cur.normal

    def bounding_box(self, pad=0.0):
        if self.kind == "disk":
            lo = self.center - self.radius - pad
            hi = self.center + self.radius + pad
        else:
            lo = self.curve.x.min(axis=0) - pad
            hi = self.curve.x.max(axis=0) + pad
        return lo, hi

    def require_inside(self, x):
        if not np.all(self.contains(x)):
            raise DomainError("point outside the domain")
