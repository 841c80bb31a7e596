"""Masked Cartesian grids, the embedded-boundary Laplacian and its inverse.

Uniform node spacing in both axes.  Nodes strictly inside the domain are
unknowns; a node with a neighbor outside is boundary-adjacent and carries
fractional arm lengths in (0, h], measured to the true boundary along the
axis (Shortley-Weller).  The discrete operator represents -Laplace with
homogeneous Dirichlet data: second order at regular stencils, first order at
the cut stencils, symmetric wherever all arms are full.  It is kept as
stencil weights, and `GridSolver` inverts it by the capacitance matrix on
the lattice Green function, with no sparse factorization.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResolutionError
from .lattice import green_table

ARM_DIRS = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])  # E, W, N, S


@dataclass
class GridSpec:
    domain: object
    h: float
    origin: np.ndarray            # coordinates of node (0, 0)
    shape: tuple                  # (nx, ny)
    points: np.ndarray            # (N, 2) node coordinates
    neighbors: np.ndarray         # (N, 4) unknown numbers, -1 if arm is cut
    arms: np.ndarray              # (N, 4) arm lengths
    is_adjacent: np.ndarray       # (N,) true if any arm is cut
    ij: np.ndarray = None         # (N, 2) integer coordinates

    @property
    def n_interior(self):
        return self.points.shape[0]

    @cached_property
    def solver(self):
        """The inverse of -lap_h on this grid, built on first use."""
        return GridSolver(self)

    def values_to_array(self, values):
        """Scatter unknowns into the full (nx, ny) array (exterior = 0)."""
        out = np.zeros(self.shape)
        out[self.ij[:, 0], self.ij[:, 1]] = values
        return out


@dataclass
class GridField:
    """Nodal values on a grid.  Which variable they are, and its eps and p,
    belong to the problem setup that they solve."""
    spec: GridSpec
    values: np.ndarray


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
                    shape=(nx, ny), points=points, neighbors=neighbors, arms=arms,
                    is_adjacent=is_adjacent, ij=np.column_stack([ii, jj]))


def check_resolution(h, s_min):
    """Enforce the core-resolution contract h <= s_min/8 (warn above, error
    above s_min/4)."""
    if h > s_min / 4.0:
        raise ResolutionError(
            f"grid spacing h={h:.3e} too coarse for core radius {s_min:.3e}; "
            f"need h <= {s_min / 8.0:.3e}")
    if h > s_min / 8.0:
        warnings.warn(f"grid spacing h={h:.3e} only marginally resolves the "
                      f"smallest core ({s_min:.3e}); accuracy degraded", stacklevel=2)


def discretize(spec):
    """Stencil weights of -Laplace_h with Dirichlet data eliminated: the
    diagonal (N,) and the neighbor weights (N, 4), zero on cut arms, so that

        (-lap_h u)_k = diag_k u_k - sum_dir off_k,dir u_nbr,
        diag = sum_dir 2/(h_dir (h_dir + h_opp)),  off_dir = 2/(h_dir (h_dir + h_opp)).

    Exact for quadratics on full stencils.
    """
    arms = spec.arms
    opp = arms[:, [1, 0, 3, 2]]
    off = np.where(spec.neighbors >= 0, 2.0 / (arms * (arms + opp)), 0.0)
    diag = 2.0 / (arms[:, 0] * arms[:, 1]) + 2.0 / (arms[:, 2] * arms[:, 3])
    return diag, off


def _fft_size(n):
    """The smallest 5-smooth integer >= n."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class GridSolver:
    """-lap_h of one grid and its inverse, by the capacitance matrix on the
    lattice Green function (Buzbee, Dorr, George & Golub, SIAM J. Numer.
    Anal. 8, 1971).

    In lattice units the operator is h^2 A.  Off the boundary-adjacent rows
    B it is the five-point Laplacian L of the infinite lattice, which its
    Green function G (lattice.green_table) inverts.  So the nodal values of
    u = G * (g + rho), g a load and rho a charge on B, solve h^2 A u = g on
    every row off B, and the rows of B fix rho:

        C rho = D^-1 (g_B - h^2 A[B, :] (G * g)),   C = D^-1 h^2 A[B, :] G[:, B],

    with D the diagonal of h^2 A on B.  That scaling keeps C of order one
    where an arm is clipped to 1e-12 h.  A convolution with G over the grid
    is one zero-padded FFT product.  `core` gives the blocks that the
    Schur complement on a node set T needs.
    """

    def __init__(self, spec):
        self.spec = spec
        self.diag, self.off = discretize(spec)
        self.rows = np.flatnonzero(spec.is_adjacent)
        # each node's position in rows, -1 off B
        self._row_of = np.full(spec.n_interior, -1)
        self._row_of[self.rows] = np.arange(self.rows.size)
        nx, ny = spec.shape
        self._table = green_table((nx, ny))
        # node coordinates as int32 (the table index |di| ny + |dj| fits)
        self._i, self._j = spec.ij.T.astype(np.int32)
        self.C = self.stencil_green(self.rows, self.rows)
        # G at every offset of the zero-padded periodic grid; the offsets
        # between nx - 1 and P - nx + 1 are never read
        self._shape = (_fft_size(2 * nx - 1), _fft_size(2 * ny - 1))
        di, dj = (np.minimum(np.minimum(np.arange(P), P - np.arange(P)), n - 1)
                  for P, n in zip(self._shape, (nx, ny)))
        self._kernel = np.fft.rfft2(self._table[np.ix_(di, dj)])

    def apply(self, u):
        """-lap_h u."""
        return self.diag * u - (self.off * u[np.maximum(self.spec.neighbors, 0)]).sum(axis=1)

    def green(self, p, q):
        """G between the nodes p and q, shape (len(p), len(q))."""
        idx = np.abs(self._i[p][:, None] - self._i[q]) * np.int32(self._table.shape[1])
        idx += np.abs(self._j[p][:, None] - self._j[q])
        return self._table.ravel().take(idx)

    def stencil_green(self, rows, cols):
        """(D^-1 h^2 A G)[rows, cols]: each row of h^2 A scaled by its
        diagonal, applied to G."""
        out = self.green(rows, cols)
        for d in range(4):
            nbr = self.spec.neighbors[rows, d]
            ok = nbr >= 0
            out[ok] -= (self.off[rows[ok], d] / self.diag[rows[ok]])[:, None] \
                * self.green(nbr[ok], cols)
        return out

    def convolve(self, charge):
        """G * charge at the nodes, for a charge given at the nodes."""
        spec = self.spec
        grid = np.fft.irfft2(np.fft.rfft2(spec.values_to_array(charge), self._shape)
                             * self._kernel, self._shape)
        return grid[spec.ij[:, 0], spec.ij[:, 1]]

    def solve(self, f):
        """A^-1 f for a load f at every node."""
        h2 = self.spec.h**2
        B = self.rows
        v = self.convolve(h2 * f)
        rho = np.linalg.solve(self.C, (f[B] - self.apply(v)[B]) / self.diag[B])
        charge = np.zeros_like(v)
        charge[B] = rho
        return v + self.convolve(charge)

    def core(self, T):
        """The blocks of a Schur complement on the nodes T: X, with the
        charge rho = -X g_T of a load g on T, and M = G[T, T] - G[T, B] X,
        the block (h^2 A)^-1[T, T].  X = C^-1 D^-1 (h^2 A[B, :] G[:, T] - E),
        E the unit entries of the nodes of T that lie in B."""
        R = self.stencil_green(self.rows, T)
        b = self._row_of[T]
        hit = np.flatnonzero(b >= 0)
        R[b[hit], hit] -= 1.0 / (self.spec.h**2 * self.diag[T[hit]])
        X = np.linalg.solve(self.C, R)
        return X, self.green(T, T) - self.green(T, self.rows) @ X

    def core_field(self, T, X, g):
        """(h^2 A)^-1 of the load g on the nodes T, with X = core(T)[0]."""
        charge = np.zeros(self.spec.n_interior)
        charge[T] = g
        charge[self.rows] -= X @ g
        return self.convolve(charge)


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
    # a missing neighbour (index -1) reads the trailing Dirichlet value 0
    v0 = np.append(v, 0.0)
    for axis, (dp, dm) in enumerate(((0, 1), (2, 3))):
        hp = arms[:, dp]
        hm = arms[:, dm]
        # nonuniform centered difference, exact for quadratics; the gathers
        # and squares stay inline, so no (n,) array outlives its product
        out[:, axis] = (v0[nbr[:, dp]] * hm**2 - v0[nbr[:, dm]] * hp**2
                        + v * (hp**2 - hm**2)) / (hp * hm * (hp + hm))
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
