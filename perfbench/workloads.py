"""The benchmark's reference configs and their seeded variants.

Each workload is a fixed vortexpatch run config.  The workload seed becomes
the config ``seed`` and drives a small jitter of the equilibrium-search start
points; the jitter is chosen so that the search lands on the same
equilibrium, which the output check confirms against the recorded reference.
"""

import copy
import random

R0 = 1.0 / 16.0
# the +/- pair equilibrium on the disk of radius R0 sits at R0 sqrt(sqrt5 - 2)
PAIR_D = 0.0303668

WORKLOADS = {
    # Opposite signs, k=2 interactions in refine_positions/solve_core_system
    # and a continuation warm start; verify (ansatz_energy) dominates.
    "pair-sweep": {
        "config": {
            "domain": {"kind": "disk", "radius": R0},
            "vortices": {"kappa_plus": [1.0], "kappa_minus": [1.0],
                         "seeds": [[PAIR_D, 0.0], [-PAIR_D, 0.0]],
                         "subdomain_radius": 0.02},
            "background": {"kind": "zero"},
            "profile": {"p": 2.0},
            "eps": [3e-3, 1e-3],
            "solver": {"continuation": True},
        },
        # The pair is only unique up to rotation about the disk center, so
        # the jitter moves the seeds along the pair axis only: by the
        # reflection symmetry y -> -y the search then stays on that axis.
        "jitter": [[1e-3, 0.0], [1e-3, 0.0]],
    },
    # One vortex, cold start: the Newton solve and its sparse LU dominate.
    "single-fine": {
        "config": {
            "domain": {"kind": "disk", "radius": R0},
            "vortices": {"kappa_plus": [1.0], "kappa_minus": [],
                         "seeds": [[0.0, -0.001]],
                         "subdomain_radius": 0.45 * R0},
            "background": {"kind": "vn-fourier", "cos": {"1": 0.1}, "sin": {}},
            "profile": {"p": 2.0},
            "eps": [6e-4],
            "solver": {"continuation": False},
        },
        "jitter": [[1e-3, 1e-3]],
    },
    # Non-disk geometry: the boundary-integral (Nystrom) Green backend and
    # the sample-based signed distance dominate; LU work is negligible.
    "ellipse-coarse": {
        "config": {
            "domain": {"kind": "ellipse", "a": 0.0625, "b": 0.0375,
                       "n_boundary": 512, "backend": "boundary-integral"},
            "vortices": {"kappa_plus": [1.0], "kappa_minus": [],
                         "seeds": [[0.0, 0.0]], "subdomain_radius": 0.016},
            "background": {"kind": "vn-fourier", "cos": {"1": 0.1}, "sin": {}},
            "profile": {"p": 2.0},
            "eps": [3e-3],
        },
        "jitter": [[1e-3, 1e-3]],
    },
}


def build_config(name, seed):
    """The workload's config for one seed: config seed plus jittered
    search start points (uniform in +/- the workload's jitter box)."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    spec = WORKLOADS[name]
    cfg = copy.deepcopy(spec["config"])
    rng = random.Random(seed)
    cfg["seed"] = int(seed)
    cfg["vortices"]["seeds"] = [
        [x + rng.uniform(-jx, jx), y + rng.uniform(-jy, jy)]
        for (x, y), (jx, jy) in zip(cfg["vortices"]["seeds"], spec["jitter"])]
    return cfg
