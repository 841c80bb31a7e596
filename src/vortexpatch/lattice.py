"""The Green function of the five-point Laplacian on the infinite lattice.

G solves L G = delta on Z^2, where L u = 4u - (the sum of the four shifts
of u), with G(0, 0) = 0.  It is G = -a, a the potential kernel

    a(m, n) = (1/2pi) int_0^pi (1 - cos(m t) e^(-|n| s)) / sinh s dt,
    cosh s = 2 - cos t,

so that a(1, 0) = 1/4, a(1, 1) = 1/pi and a(m, m) = (1/pi) sum_{j<=m} 1/(2j - 1).
Offsets with r = |(m, n)| < SEAM take that integral by composite
Gauss-Legendre quadrature.  The others take the expansion in r and the
polar angle theta (Martinsson & Rodin, Proc. R. Soc. Lond. A 458, 2002)

    a = (ln r + gamma + (3/2) ln 2)/2pi
        + (1/pi) sum_{k=1}^{6} r^(-2k) sum_j c_kj cos(4 j theta).

Its coefficients solve L a = 0 order by order in 1/r; the one coefficient
that each even order leaves free is fixed by the closed form on the
diagonal.  Truncated after r^-12, the expansion is within 5e-16 of a at
r >= SEAM, and about 4e-14 at r = 20.
"""

from functools import lru_cache

import numpy as np

SEAM = 30.0
# c_kj of the order r^(-2k), k = 1..6, for j = 0..k
EXPANSION = (
    (0.0, -1 / 24),
    (0.0, -3 / 80, -5 / 96),
    (0.0, 0.0, -51 / 224, -35 / 144),
    (0.0, 0.0, -217 / 640, -45 / 16, -1925 / 768),
    (0.0, 0.0, 0.0, -38859 / 2816, -3795 / 64, -35035 / 768),
    (0.0, 0.0, 0.0, -933471 / 33280, -2302365 / 3584, -975975 / 512, -2977975 / 2304),
)
# Gauss-Legendre nodes per panel; a panel spans at most PANEL_SPAN lattice
# units of m + n in t (at least 8 panels on [0, pi])
PANEL_NODES = 16
PANEL_SPAN = 4


def potential_kernel(m, n):
    """a(m, n) for integer arrays m, n by composite Gauss-Legendre
    quadrature of its integral, with enough panels for the largest offset.

    The integrand is written without cancellation: with u = 2 sin^2(t/2),
    sinh s = sqrt(u (u + 2)), s = log1p(u + sinh s) and
    1 - cos(m t) e^(-n s) = -expm1(-n s) + 2 e^(-n s) sin^2(m t/2).
    """
    m = np.abs(np.asarray(m, dtype=float))[..., None]
    n = np.abs(np.asarray(n, dtype=float))[..., None]
    panels = max(8, int(np.ceil((m.max(initial=0.0) + n.max(initial=0.0)) / PANEL_SPAN)))
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    width = np.pi / panels
    t = (width * (np.arange(panels)[:, None] + 0.5 * (x + 1.0))).ravel()
    u = 2.0 * np.sin(0.5 * t)**2
    sinh_s = np.sqrt(u * (u + 2.0))
    s = np.log1p(u + sinh_s)
    f = (-np.expm1(-n * s) + 2.0 * np.exp(-n * s) * np.sin(0.5 * m * t)**2) / sinh_s
    return f @ np.tile(0.5 * width * w, panels) / (2.0 * np.pi)


@lru_cache(maxsize=1)
def _near_block():
    """a(m, n) at every offset with r < SEAM, by quadrature on m >= n and
    symmetry (a(m, n) = a(n, m)); zero elsewhere in the block."""
    size = int(np.ceil(SEAM))
    m, n = np.tril_indices(size)
    near = m * m + n * n < SEAM**2
    m, n = m[near], n[near]
    block = np.zeros((size, size))
    block[m, n] = block[n, m] = potential_kernel(m, n)
    block.flags.writeable = False
    return block


def green_table(shape):
    """G(m, n) for 0 <= m < shape[0] and 0 <= n < shape[1]; G is even in
    m and in n."""
    mi, ni = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]), indexing="ij")
    r2 = (mi * mi + ni * ni).astype(float)
    a = np.empty(r2.shape)
    near = r2 < SEAM**2
    a[near] = _near_block()[mi[near], ni[near]]
    m, n, r2 = mi[~near].astype(float), ni[~near].astype(float), r2[~near]
    # cos(4 j theta) = T_j(cos 4 theta), the Chebyshev polynomials
    c4 = (m**4 - 6.0 * m * m * n * n + n**4) / (r2 * r2)
    cheb = [np.ones_like(c4), c4]
    for _ in range(len(EXPANSION) - 1):
        cheb.append(2.0 * c4 * cheb[-1] - cheb[-2])
    series = np.zeros_like(c4)
    for coefs in EXPANSION[::-1]:
        series = (series + sum(c * cheb[j] for j, c in enumerate(coefs) if c)) / r2
    a[~near] = (0.5 * np.log(r2) + np.euler_gamma + 1.5 * np.log(2.0)) / (2.0 * np.pi) \
        + series / np.pi
    return -a
