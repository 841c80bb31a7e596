"""The lattice Green function of the five-point Laplacian."""

import numpy as np

from vortexpatch.lattice import SEAM, green_table, potential_kernel

# the acceptance pair's grid at eps 3e-4, the largest of the suite, spans
# 744 nodes per axis
EXTENT = 744


def _full_plane(G):
    """The table on every offset in (-M, M) x (-N, N), by evenness."""
    G = np.concatenate((G[:0:-1], G), axis=0)
    return np.concatenate((G[:, :0:-1], G), axis=1)


def test_green_table_known_values():
    G = green_table((3, 3))
    assert G[0, 0] == 0.0
    assert abs(G[1, 0] - G[0, 0] + 0.25) <= 1e-15
    assert abs(G[1, 1] - G[0, 0] + 1.0 / np.pi) <= 1e-15
    # the closed form on the diagonal, a(m, m) = (1/pi) sum_{j<=m} 1/(2j - 1),
    # across the seam between quadrature and expansion
    G = green_table((EXTENT, EXTENT))
    m = np.arange(EXTENT)
    diagonal = np.concatenate(([0.0], np.cumsum(1.0 / (2.0 * m[1:] - 1.0)))) / np.pi
    assert np.max(np.abs(G[m, m] + diagonal)) <= 1e-13


def test_green_table_solves_the_lattice_equation():
    # L G = delta on the whole table: quadrature and expansion meet at the
    # seam r = SEAM, where a mismatch would show as a defect of L G
    G = _full_plane(green_table((EXTENT, EXTENT)))
    LG = (4.0 * G[1:-1, 1:-1] - G[2:, 1:-1] - G[:-2, 1:-1] - G[1:-1, 2:] - G[1:-1, :-2])
    center = EXTENT - 2
    LG[center, center] -= 1.0
    assert np.max(np.abs(LG)) <= 1e-13


def test_green_table_matches_quadrature():
    # the table (the expansion beyond the seam) against the integral at
    # offsets up to the largest extent, corners and axes included
    rng = np.random.default_rng(4)
    m = rng.integers(0, EXTENT, 300)
    n = rng.integers(0, EXTENT, 300)
    m[:4], n[:4] = [EXTENT - 1, EXTENT - 1, 0, int(SEAM)], [EXTENT - 1, 0, EXTENT - 1, 0]
    G = green_table((EXTENT, EXTENT))
    assert np.max(np.abs(G[m, n] + potential_kernel(m, n))) <= 1e-13
