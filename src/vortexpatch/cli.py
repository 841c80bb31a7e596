"""Command-line interface.

Subcommands: find-equilibrium, profile, ansatz, solve, sweep, run (alias verify).
Exit codes: 0 success, 2 invalid configuration, 3 non-convergence, 4 I/O.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__
from .ansatz import AnsatzField, refine_positions
from .config import load_config
from .errors import ConfigError, ConvergenceError, VortexPatchError
from .kirchhoff import kr_value
from .pipeline import (PipelineContext, run_pipeline, run_sweep, stage_equilibrium,
                       stage_solve_one, write_csv, write_json, write_jsonl,
                       write_solution)
from .profile import _ode_residual, solve_profile


def _common(parser):
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--eps", action="append", type=float, default=None,
                        help="override the config eps list (repeatable)")
    parser.add_argument("--grid-h", type=float, default=None,
                        help="override the grid spacing")
    parser.add_argument("--seed", type=int, default=None)


def _load(args):
    cfg = load_config(args.config)
    if args.eps:
        cfg["eps"] = sorted(args.eps, reverse=True)
    if args.grid_h is not None:
        cfg["grid"]["h"] = args.grid_h
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def cmd_run(args):
    cfg = _load(args)
    manifest = run_pipeline(cfg, args.out, progress=lambda s: print(f"[stage] {s}"))
    print(f"manifest: {os.path.join(args.out, 'manifest.json')}")
    print(f"config hash: {manifest['config_hash']}")
    return 0


def cmd_sweep(args):
    cfg = _load(args)
    run_sweep(cfg, args.out, progress=lambda s: print(f"[stage] {s}"))
    print(f"convergence table: {os.path.join(args.out, 'convergence.csv')}")
    return 0


def cmd_find_equilibrium(args):
    cfg = _load(args)
    ctx = PipelineContext(cfg)
    vs_star, report, extra = stage_equilibrium(ctx)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "equilibrium.jsonl")
    precision = cfg["output"]["precision"]
    write_jsonl(path, [report] + extra, precision)
    print(f"critical point: {vs_star.positions.tolist()}")
    if args.landscape_grid:
        n = args.landscape_grid
        lo, hi = ctx.domain.bounding_box()
        rows = []
        for i in range(n):
            for j in range(n):
                x = lo + (hi - lo) * np.array([(i + 0.5) / n, (j + 0.5) / n])
                if not ctx.domain.contains(x, tol=0.02 * ctx.domain.diameter):
                    continue
                work = vs_star.with_positions(
                    np.vstack([[x], vs_star.positions[1:]]))
                try:
                    rows.append((x[0], x[1], kr_value(work, ctx.green, ctx.q)))
                except VortexPatchError:
                    continue
        write_csv(os.path.join(args.out, "landscape.csv"),
                  ["x1", "x2", "W"], rows, precision)
    print(f"wrote {path}")
    return 0


def cmd_profile(args):
    rp = solve_profile(args.p, args.tol)
    r1, r2 = rp.pohozaev_residuals()
    print(f"p = {rp.p}")
    print(f"phi'(1)          = {rp.slope_at_one:.15g}")
    print(f"phi(0)           = {rp.phi0:.15g}")
    print(f"int phi^p        = {rp.int_phi_p:.15g}   (Pohozaev residual {r1:.2e})")
    print(f"int phi^(p+1)    = {rp.int_phi_p1:.15g}   (Pohozaev residual {r2:.2e})")
    print(f"table ODE residual = {_ode_residual(rp):.2e}")
    if args.csv:
        write_csv(args.csv, ["r", "phi", "dphi"],
                  np.column_stack((rp.r, rp.phi, rp.dphi)))
        print(f"wrote {args.csv}")
    return 0


def cmd_ansatz(args):
    cfg = _load(args)
    ctx = PipelineContext(cfg)
    vs_star, _, _ = stage_equilibrium(ctx)
    vs_eps, cores = refine_positions(vs_star, ctx.green, ctx.q, cfg["eps"][0],
                                     ctx.profile)
    os.makedirs(args.out, exist_ok=True)
    precision = cfg["output"]["precision"]
    write_json(os.path.join(args.out, "cores.json"), cores.to_dict(), precision)
    af = AnsatzField(cores, vs_eps, ctx.profile, ctx.green, ctx.q)
    n = args.sample_grid
    lo, hi = ctx.domain.bounding_box()
    t = (np.arange(n) + 0.5) / n
    ti, tj = np.meshgrid(t, t, indexing="ij")
    probes = lo + (hi - lo) * np.column_stack((ti.ravel(), tj.ravel()))
    pts = probes[ctx.domain.contains(probes)]
    write_csv(os.path.join(args.out, "ansatz.csv"), ["x1", "x2", "value"],
              np.column_stack((pts, af.evaluate(pts, require_inside=False))), precision)
    print(f"wrote {args.out}/cores.json and {args.out}/ansatz.csv")
    return 0


def cmd_solve(args):
    cfg = _load(args)
    ctx = PipelineContext(cfg)
    vs_star, _, _ = stage_equilibrium(ctx)
    product = stage_solve_one(ctx, vs_star, cfg["eps"][0])
    os.makedirs(args.out, exist_ok=True)
    write_solution(product, os.path.join(args.out, "field.npy"),
                   os.path.join(args.out, "report.json"), cfg["output"]["precision"])
    print(f"converged in {product['report'].iterations} iterations; "
          f"wrote {args.out}/field.npy")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="vortexpatch",
        description="Desingularized point-vortex equilibria in bounded planar domains")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", aliases=["verify"],
                       help="full pipeline and diagnostics over the configured eps list")
    _common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="continuation sweep with convergence table")
    _common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("find-equilibrium", help="critical points of the interaction energy")
    _common(p)
    p.add_argument("--landscape-grid", type=int, default=0,
                   help="also sample the energy landscape on an NxN probe grid")
    p.set_defaults(func=cmd_find_equilibrium)

    p = sub.add_parser("profile", help="radial ground-state profile")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--csv", default=None, help="dump (r, phi, dphi) table")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("ansatz", help="core parameters and sampled composite field")
    _common(p)
    p.add_argument("--sample-grid", type=int, default=64)
    p.set_defaults(func=cmd_ansatz)

    p = sub.add_parser("solve", help="one PDE solve at the first configured eps")
    _common(p)
    p.set_defaults(func=cmd_solve)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except VortexPatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
