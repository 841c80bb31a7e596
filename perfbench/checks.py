"""Output check: one run directory against the workload's recorded reference.

Every eps entry of the config is checked on its own.  It passes when the
run found the reference equilibrium, verified that eps, and its solver
converged with final residual at most tol x (the reference's residual
scale), with total and per-vortex circulations, support radii and energy
within REL_TOL of the reference and the same confinement flag.

The tolerances sit between two measured scales.  The seeded jitter of the
search start points moves the equilibrium by at most 3e-13; running with
two BLAS threads (another summation order) moves the checked outputs by at
most 7e-14 relative, and converging to tol 1e-12 instead of 1e-10 by at
most 1e-10.  A rotated pair equilibrium moves a vortex by about 0.03, and
an unconverged solve misses the flag or the residual bound.
"""

import json
import os

POSITION_TOL = 1e-9     # absolute, in domain units (the domains are ~0.06 across)
REL_TOL = 1e-6


def extract(outdir):
    """The checked outputs of one run directory: the equilibrium positions
    (None when missing) and the verified entries keyed by eps."""
    equilibrium = None
    try:
        with open(os.path.join(outdir, "equilibrium.jsonl")) as f:
            equilibrium = json.loads(f.readline())["z_star"]
    except (FileNotFoundError, json.JSONDecodeError, KeyError):
        pass
    entries = {}
    try:
        with open(os.path.join(outdir, "diagnostics.jsonl")) as f:
            lines = [line for line in f if line.strip()]
    except FileNotFoundError:
        lines = []
    for line in lines:
        verify = json.loads(line)
        d = verify["diagnostics"]
        entries[verify["eps"]] = {
            "eps": verify["eps"],
            "converged": verify["solver"]["converged"],
            "residual_max": d["residual_max"],
            "total_circulation": d["total_circulation"],
            "circulations": d["circulations"],
            "support_inner": d["support_inner"],
            "support_outer": d["support_outer"],
            "energy": d["energy"],
            "confinement_ok": d["confinement_ok"],
        }
    return equilibrium, entries


def _gap(a, b):
    a = a if isinstance(a, list) else [a]
    b = b if isinstance(b, list) else [b]
    if len(a) != len(b):
        return float("inf")
    return max(abs(x - y) for x, y in zip(a, b))


def _entry_problem(got, ref, tol):
    if not got["converged"]:
        return "solver did not converge"
    bound = tol * ref["residual_scale"]
    if got["residual_max"] > bound:
        return f"final residual {got['residual_max']:.3e} above tol*scale {bound:.3e}"
    circ_scale = max(abs(c) for c in ref["circulations"])
    support_scale = max(ref["support_outer"])
    for key, scale in (("total_circulation", circ_scale), ("circulations", circ_scale),
                       ("support_inner", support_scale), ("support_outer", support_scale),
                       ("energy", abs(ref["energy"]))):
        gap = _gap(got[key], ref[key])
        if gap > REL_TOL * scale:
            return f"{key} off the reference by {gap:.3e} (allowed {REL_TOL * scale:.3e})"
    if got["confinement_ok"] != ref["confinement_ok"]:
        return f"confinement_ok is {got['confinement_ok']}, reference {ref['confinement_ok']}"
    return None


def check_outputs(outdir, cfg, ref):
    """One (eps, problem) pair per configured eps; problem is None when the
    entry passes."""
    equilibrium, entries = extract(outdir)
    eps_list = cfg["eps"]
    if equilibrium is None:
        return [(eps, "no equilibrium output") for eps in eps_list]
    moved = _gap([x for z in equilibrium for x in z],
                 [x for z in ref["equilibrium"] for x in z])
    if moved > POSITION_TOL:
        return [(eps, f"equilibrium off the reference by {moved:.3e}") for eps in eps_list]
    ref_entries = {e["eps"]: e for e in ref["entries"]}
    out = []
    for eps in eps_list:
        if eps not in entries:
            out.append((eps, "no verified output (solve failed or run aborted)"))
        elif eps not in ref_entries:
            out.append((eps, "no reference entry for this eps"))
        else:
            out.append((eps, _entry_problem(entries[eps], ref_entries[eps], ref["solver_tol"])))
    return out
