import numpy as np
import pytest
import scipy.sparse as sp

from vortexpatch import Domain, GreenEvaluator, HarmonicBackground, solve_profile
from vortexpatch.grid import discretize
from vortexpatch.pipeline import (PipelineContext, stage_equilibrium, stage_solve_one,
                                  stage_verify_one)

R0 = 1.0 / 16.0
EPS_SWEEP = (3e-3, 1e-3, 3e-4)

# The PDE cases of the suite, as run configs on a disk of radius R0 (with
# grid spacing s/8 this is the node budget the free-boundary solves need).
# One vortex with a mild background flux, at every eps of the sweep:
SINGLE_CONFIG = {
    "domain": {"kind": "disk", "radius": R0},
    "vortices": {"kappa_plus": [1.0], "kappa_minus": [], "seeds": [[0.0, -0.001]],
                 "subdomain_radius": 0.45 * R0},
    "background": {"kind": "vn-fourier", "cos": {"1": 0.1}},
    "profile": {"p": 2.0},
    "eps": list(EPS_SWEEP),
}

# the +/- pair, equal strengths, zero background, at the smallest eps; its
# equilibrium on the disk sits at +/- R0 sqrt(sqrt5 - 2)
PAIR_D = float(R0 * np.sqrt(np.sqrt(5.0) - 2.0))
PAIR_CONFIG = {
    "domain": {"kind": "disk", "radius": R0},
    "vortices": {"kappa_plus": [1.0], "kappa_minus": [1.0],
                 "seeds": [[PAIR_D, 0.0], [-PAIR_D, 0.0]], "subdomain_radius": 0.02},
    "profile": {"p": 2.0},
    "eps": [EPS_SWEEP[-1]],
}


def sparse_operator(spec):
    """-lap_h of a grid as a sparse matrix assembled from the stencil
    weights of grid.discretize: the reference that SuperLU factors in the
    tests (a run assembles no matrix)."""
    diag, off = discretize(spec)
    n = spec.n_interior
    k, d = np.nonzero(spec.neighbors >= 0)
    rows = np.concatenate((np.arange(n), k))
    cols = np.concatenate((np.arange(n), spec.neighbors[k, d]))
    return sp.csc_matrix((np.concatenate((diag, -off[k, d])), (rows, cols)), shape=(n, n))


def equilibrium_stage(cfg):
    """The run's shared objects and the equilibrium that every eps starts from."""
    ctx = PipelineContext(cfg)
    vs_star, _, _ = stage_equilibrium(ctx)
    return ctx, vs_star


def solve_case(ctx, vs_star, eps):
    """One cold solve at eps through the pipeline's stages, with its checks."""
    product = stage_solve_one(ctx, vs_star, eps)
    verify, diag, flow = stage_verify_one(ctx, product)
    return dict(domain=ctx.domain, green=ctx.green, q=ctx.q, rp=ctx.profile, eps=eps,
                vs=product["vs"], cores=product["cores"], af=product["ansatz"],
                grid=product["setup"].spec, setup=product["setup"],
                init=product["ansatz_field"], field=product["field"],
                correction=product["correction"], report=product["report"],
                diag=diag, flow=flow,
                corr_recentered=verify["correction_recentered_max_norm"])


@pytest.fixture(scope="session")
def profiles():
    """Ground-state profiles for the exponents used throughout the suite."""
    return {p: solve_profile(p) for p in (1.5, 2.0, 3.0)}


@pytest.fixture(scope="session")
def single_equilibrium():
    """Context and equilibrium of the single-vortex sweep."""
    return equilibrium_stage(SINGLE_CONFIG)


@pytest.fixture(scope="session")
def solved_case(single_equilibrium):
    """The single vortex at eps = 3e-3: solved field plus every intermediate
    object.  Shared by the solver and diagnostics tests and the acceptance
    sweep, whose first entry it is (one Newton solve for the session)."""
    return solve_case(*single_equilibrium, EPS_SWEEP[0])


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


def same_bits(a, b):
    """True when two float arrays (or floats) agree bit for bit: equal
    shapes, and equal values including the sign of zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
