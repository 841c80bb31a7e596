"""Record the reference outputs that the output check compares against.

Usage, from the repository root: ``python3 perfbench/record_reference.py
[workload ...]`` (default: every workload).  Each workload runs once at seed
0, in this process, and ``perfbench/reference/<workload>.json`` is
rewritten.  Besides the checked outputs it records each eps's residual
scale, the max norm of the gated nonlinearity at the solution, which the
solver's own stopping test multiplies by tol.
"""

import json
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import vortexpatch.pipeline as pipeline  # noqa: E402
from vortexpatch.config import validate_config  # noqa: E402
from vortexpatch.solver import rhs_eval  # noqa: E402

from checks import extract  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402


def reference_outputs(cfg, outdir):
    """Run ``cfg`` into ``outdir`` and return its outputs in the layout of
    a reference file."""
    cfg = validate_config(cfg)
    scales = []
    solve_newton = pipeline.solve_newton

    def capture(setup, initial, **kwargs):
        fld, report = solve_newton(setup, initial, **kwargs)
        scales.append(float(np.max(np.abs(rhs_eval(fld.values, setup)))))
        return fld, report

    pipeline.solve_newton = capture
    try:
        pipeline.run_pipeline(cfg, outdir)
    finally:
        pipeline.solve_newton = solve_newton
    equilibrium, entries = extract(outdir)
    return {
        "solver_tol": cfg["solver"]["tol"],
        "equilibrium": equilibrium,
        "entries": [dict(entries[eps], residual_scale=scale)
                    for eps, scale in zip(cfg["eps"], scales)],
    }


def record(name):
    outdir = os.path.join(HERE, "_work", "reference", name)
    shutil.rmtree(outdir, ignore_errors=True)
    ref = dict(reference_outputs(build_config(name, 0), outdir), workload=name)
    path = os.path.join(HERE, "reference", f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")
    shutil.rmtree(outdir, ignore_errors=True)
    print(f"wrote {path}")


if __name__ == "__main__":
    for workload in sys.argv[1:] or sorted(WORKLOADS):
        record(workload)
