import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

# a single vortex at eps 3e-3 on the 1/16 disk: a few thousand nodes
TINY_CONFIG = {
    "domain": {"kind": "disk", "radius": 1.0 / 16.0},
    "vortices": {"kappa_plus": [1.0], "kappa_minus": [],
                 "seeds": [[0.0, -0.001]], "subdomain_radius": 0.45 / 16.0},
    "background": {"kind": "zero"},
    "profile": {"p": 2.0},
    "eps": [3e-3],
}
