import numpy as np
import pytest

from vortexpatch import Domain, GreenEvaluator, HarmonicBackground, solve_profile

SMALL_R0 = 1.0 / 16.0


@pytest.fixture(scope="session")
def profiles():
    """Ground-state profiles for the exponents used throughout the suite."""
    return {p: solve_profile(p) for p in (1.5, 2.0, 3.0)}


@pytest.fixture(scope="session")
def solved_case(profiles):
    """Single vortex at eps = 3e-3 on a 1/16-radius disk with a mild
    background flux: solved field plus every intermediate object.  Shared by
    the solver and diagnostics tests (one Newton solve for the session)."""
    return _build_solved_case(profiles)


def _build_solved_case(profiles):
    from vortexpatch import background_from_flux, build_grid
    from vortexpatch.ansatz import AnsatzField, refine_positions
    from vortexpatch.grid import GridField
    from vortexpatch.kirchhoff import VortexSystem, find_critical
    from vortexpatch.solver import setup_problem, solve_newton

    small_disk = Domain.disk(SMALL_R0)
    small_ge = GreenEvaluator(small_disk)
    rp = profiles[2.0]
    q = background_from_flux(small_disk, lambda t: 0.1 * np.cos(t))
    rep = find_critical(VortexSystem([1.0], [], [[0.0, -0.001]]), small_ge, q,
                        z0=[[0.0, -0.001]])
    eps = 3e-3
    vs_eps, cores = refine_positions(VortexSystem([1.0], [], rep.z_star),
                                     small_ge, q, eps, rp)
    z = vs_eps.positions[0]
    vs = VortexSystem([1.0], [], [z], subdomains=[(z, 0.45 * SMALL_R0)])
    gs = build_grid(small_disk, float(np.min(cores.s_all)) / 8.0)
    setup = setup_problem(gs, vs, q, eps, rp.p)
    af = AnsatzField(cores, vs, rp, small_ge, q)
    init = GridField(gs, af.evaluate(gs.points), "w", {"eps": eps, "p": rp.p})
    fld, rep_n = solve_newton(setup, init)
    return dict(domain=small_disk, green=small_ge, q=q, rp=rp, vs=vs, eps=eps,
                cores=cores, grid=gs, setup=setup, af=af, init=init,
                field=fld, report=rep_n)


@pytest.fixture(scope="session")
def unit_disk():
    return Domain.disk(1.0, big_r=4.0)


@pytest.fixture(scope="session")
def disk_images(unit_disk):
    return GreenEvaluator(unit_disk, backend="images")


@pytest.fixture(scope="session")
def disk_bie(unit_disk):
    return GreenEvaluator(unit_disk, backend="boundary-integral", order=256)


@pytest.fixture(scope="session")
def q_zero():
    return HarmonicBackground.zero()


def random_disk_points(rng, n, rmax=0.85, min_sep=0.05):
    """n points in the disk of radius rmax with pairwise separation."""
    pts = []
    while len(pts) < n:
        cand = rng.uniform(-rmax, rmax, size=2)
        if np.hypot(*cand) > rmax:
            continue
        if all(np.hypot(*(cand - p)) > min_sep for p in pts):
            pts.append(cand)
    return np.array(pts)
