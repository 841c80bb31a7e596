"""Masked Cartesian grids and the embedded-boundary Laplacian.

Uniform node spacing in both axes.  Nodes strictly inside the domain are
unknowns; a node with a neighbor outside is boundary-adjacent and carries
fractional arm lengths in (0, h], measured to the true boundary along the
axis (Shortley-Weller).  The discrete operator represents -Laplace with
homogeneous Dirichlet data: second order at regular stencils, first order at
the cut stencils, symmetric wherever all arms are full.
"""

import numpy as np
import scipy.sparse as sp
from dataclasses import dataclass, field

from .errors import ResolutionError

ARM_DIRS = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])  # E, W, N, S


@dataclass
class GridSpec:
    domain: object
    h: float
    origin: np.ndarray            # coordinates of node (0, 0)
    shape: tuple                  # (nx, ny)
    index: np.ndarray             # (nx, ny) -> unknown number or -1
    points: np.ndarray            # (N, 2) node coordinates
    neighbors: np.ndarray         # (N, 4) unknown numbers, -1 if arm is cut
    arms: np.ndarray              # (N, 4) arm lengths
    is_adjacent: np.ndarray       # (N,) true if any arm is cut
    ij: np.ndarray = None         # (N, 2) integer coordinates

    @property
    def n_interior(self):
        return self.points.shape[0]

    def values_to_array(self, values, fill=0.0):
        """Scatter unknowns into the full (nx, ny) array (exterior = fill)."""
        out = np.full(self.shape, fill, dtype=float)
        out[self.ij[:, 0], self.ij[:, 1]] = values
        return out


@dataclass
class GridField:
    spec: GridSpec
    values: np.ndarray
    variable: str = "w"           # "w" (rescaled) or "u" (physical)
    params: dict = field(default_factory=dict)

    def copy(self, values=None):
        return GridField(self.spec, self.values.copy() if values is None else values,
                         self.variable, dict(self.params))


def _arm_crossings(domain, p, directions, h):
    """Distances in (0, h] from inside nodes p (m, 2) to the boundary along
    directions (m, 2): 60 bisection steps of Domain.contains on all arms at
    once, on disks and parametric curves alike."""
    lo = np.zeros(p.shape[0])
    hi = np.full(p.shape[0], float(h))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = domain.contains(p + mid[:, None] * directions)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return np.clip(0.5 * (lo + hi), 1e-12 * h, h)


def build_grid(domain, h):
    """Mask the domain on a uniform grid and measure the cut arms."""
    lo, hi = domain.bounding_box(pad=1.5 * h)
    nx = int(np.ceil((hi[0] - lo[0]) / h)) + 1
    ny = int(np.ceil((hi[1] - lo[1]) / h)) + 1
    xs = lo[0] + h * np.arange(nx)
    ys = lo[1] + h * np.arange(ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    inside = domain.contains(pts).reshape(nx, ny)

    index = -np.ones((nx, ny), dtype=np.int64)
    ii, jj = np.nonzero(inside)
    index[ii, jj] = np.arange(len(ii))
    points = np.column_stack([xs[ii], ys[jj]])
    n = len(ii)

    neighbors = -np.ones((n, 4), dtype=np.int64)
    arms = np.full((n, 4), h, dtype=float)
    for d, (di, dj) in enumerate(ARM_DIRS):
        ni, nj = ii + di, jj + dj
        ok = (0 <= ni) & (ni < nx) & (0 <= nj) & (nj < ny)
        nbr = np.full(n, -1, dtype=np.int64)
        nbr[ok] = index[ni[ok], nj[ok]]
        neighbors[:, d] = nbr
    is_adjacent = np.any(neighbors < 0, axis=1)

    direction = ARM_DIRS.astype(float)
    kk, dd = np.nonzero(neighbors < 0)
    arms[kk, dd] = _arm_crossings(domain, points[kk], direction[dd], h)

    return GridSpec(domain=domain, h=float(h), origin=np.array([lo[0], lo[1]]),
                    shape=(nx, ny), index=index,
                    points=points, neighbors=neighbors, arms=arms,
                    is_adjacent=is_adjacent, ij=np.column_stack([ii, jj]))


def check_resolution(h, s_min):
    """Enforce the core-resolution contract h <= s_min/8 (warn above, error
    above s_min/4)."""
    if h > s_min / 4.0:
        raise ResolutionError(
            f"grid spacing h={h:.3e} too coarse for core radius {s_min:.3e}; "
            f"need h <= {s_min / 8.0:.3e}")
    if h > s_min / 8.0:
        import warnings
        warnings.warn(f"grid spacing h={h:.3e} only marginally resolves the "
                      f"smallest core ({s_min:.3e}); accuracy degraded", stacklevel=2)


def discretize(spec):
    """Sparse matrix of -Laplace_h with Dirichlet data eliminated.

    Row k:  sum_dir 2/(h_dir (h_dir + h_opp)) (u_k - u_nbr)  with u_nbr = 0
    on cut arms.  Exact for quadratics on full stencils.
    """
    n = spec.n_interior
    arms = spec.arms
    he, hw, hn, hs = arms[:, 0], arms[:, 1], arms[:, 2], arms[:, 3]
    diag = 2.0 / (he * hw) + 2.0 / (hn * hs)
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [diag]
    opp = [1, 0, 3, 2]
    for d in range(4):
        mask = spec.neighbors[:, d] >= 0
        k = np.nonzero(mask)[0]
        hd = arms[k, d]
        ho = arms[k, opp[d]]
        rows.append(k)
        cols.append(spec.neighbors[k, d])
        vals.append(-2.0 / (hd * (hd + ho)))
    A = sp.csc_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return A


def gradient(field):
    """Centered-difference gradient honoring the Dirichlet boundary.

    On cut arms the boundary value 0 at the arm distance enters a one-sided
    difference; interior stencils are the usual second-order ones.
    """
    spec = field.spec
    v = field.values
    n = spec.n_interior
    out = np.zeros((n, 2))
    arms = spec.arms
    nbr = spec.neighbors
    for axis, (dp, dm) in enumerate(((0, 1), (2, 3))):
        vp = np.where(nbr[:, dp] >= 0, v[np.maximum(nbr[:, dp], 0)], 0.0)
        vm = np.where(nbr[:, dm] >= 0, v[np.maximum(nbr[:, dm], 0)], 0.0)
        hp = arms[:, dp]
        hm = arms[:, dm]
        # nonuniform centered difference, exact for quadratics
        out[:, axis] = (vp * hm**2 - vm * hp**2 + v * (hp**2 - hm**2)) / (hp * hm * (hp + hm))
    return out


def interpolate(field, pts):
    """Bilinear interpolation of a grid field (0 outside the mask)."""
    spec = field.spec
    arr = spec.values_to_array(field.values)
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    fx = (p[:, 0] - spec.origin[0]) / spec.h
    fy = (p[:, 1] - spec.origin[1]) / spec.h
    i0 = np.clip(np.floor(fx).astype(int), 0, spec.shape[0] - 2)
    j0 = np.clip(np.floor(fy).astype(int), 0, spec.shape[1] - 2)
    tx = fx - i0
    ty = fy - j0
    v = (arr[i0, j0] * (1 - tx) * (1 - ty) + arr[i0 + 1, j0] * tx * (1 - ty)
         + arr[i0, j0 + 1] * (1 - tx) * ty + arr[i0 + 1, j0 + 1] * tx * ty)
    return v if np.asarray(pts).ndim > 1 else float(v[0])


def cell_weights(spec):
    """Quadrature weight per unknown: h^2 inside, arm-clipped near the cut
    boundary (midpoint rule; a cell extends h/2 per side unless the boundary
    is closer)."""
    half = 0.5 * spec.h
    arms = np.minimum(spec.arms, half)
    wx = arms[:, 0] + arms[:, 1]
    wy = arms[:, 2] + arms[:, 3]
    return wx * wy
