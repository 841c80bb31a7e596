"""End-to-end orchestration: equilibrium -> profile -> cores -> solve -> verify.

Every stage writes versioned, deterministic artifacts (fixed float precision
in text, exact float64 in the field array, atomic replace) into the output
directory; the manifest records the config hash, per-stage wall time and
artifact paths.
"""

import contextlib
import json
import os
import resource
import time
import warnings

import numpy as np

from . import __version__
from .ansatz import AnsatzField, eps_log, refine_positions, support_predict
from .config import config_hash, validate_config
from .diagnostics import (SolvedField, ansatz_energy, ansatz_energy_expansion,
                          energy_eval, reconstruct_flow, vorticity_extract)
from .errors import ConfigError, ConvergenceError
from .geometry import Domain
from .greens import GreenEvaluator, HarmonicBackground, background_from_flux
from .grid import GridField, build_grid, check_resolution, interpolate
from .kirchhoff import (VortexSystem, check_subdomains, find_critical, kr_grad,
                        multistart_find_critical)
from .profile import solve_profile
from .solver import setup_problem, solve_newton

TWO_PI = 2.0 * np.pi

# rows per block of write_csv: the writer holds the text of one block, a
# few MB, whatever the number of rows
CSV_BLOCK = 8192


# ---------------------------------------------------------------------- #
#  deterministic file helpers
# ---------------------------------------------------------------------- #


def _fmt(x, precision=17):
    return f"{float(x):.{precision}g}"


@contextlib.contextmanager
def _atomic_file(path, mode="w"):
    """A file opened at `path`.tmp in `mode` ("w" text, "wb" binary) that
    replaces `path` when the block ends; if anything raises, the temp file
    is removed and `path` keeps its old bytes."""
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def _collect_warnings(messages):
    """Appends the message of each warning raised in the block to
    `messages`, and shows the warning as before when the block ends."""
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            yield
    finally:
        for w in caught:
            messages.append(str(w.message))
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)


def atomic_write(path, text):
    with _atomic_file(path) as f:
        f.write(text)


def write_json(path, obj, precision=17):
    atomic_write(path, json.dumps(_round_floats(obj, precision), indent=2,
                                  sort_keys=True) + "\n")


def _round_floats(obj, precision):
    if isinstance(obj, float):
        return float(_fmt(obj, precision))
    if isinstance(obj, dict):
        return {k: _round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, precision) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist(), precision)
    if isinstance(obj, (np.floating, np.integer)):
        return _round_floats(obj.item(), precision)
    return obj


def write_jsonl(path, records, precision=17):
    """One sorted-key JSON object per line."""
    atomic_write(path, "\n".join(json.dumps(_round_floats(r, precision), sort_keys=True)
                                 for r in records) + "\n")


def write_csv(path, header, rows, precision=17):
    """A 2-D float array (no rows: the header alone), each row through one
    template of `%.{precision}g` fields.

    The rows are formatted and written in blocks of `CSV_BLOCK`, so the
    text held in memory does not grow with the number of rows.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, len(header))
    row = ",".join([f"%.{precision}g"] * len(header))
    with _atomic_file(path) as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_BLOCK):
            block = rows[start:start + CSV_BLOCK].tolist()
            f.write("\n".join(row % tuple(r) for r in block) + "\n")


# ---------------------------------------------------------------------- #
#  object construction from config
# ---------------------------------------------------------------------- #


def build_domain(cfg):
    d = cfg["domain"]
    if d["kind"] == "disk":
        return Domain.disk(d["radius"], center=d["center"], big_r=d["big_r"])
    if d["kind"] == "ellipse":
        return Domain.named("ellipse", n=d["n_boundary"], a=d["a"], b=d["b"],
                            center=tuple(d["center"]), big_r=d["big_r"])
    if d["kind"] == "blob":
        return Domain.named("blob", n=d["n_boundary"], radius=d["radius"],
                            center=tuple(d["center"]), wobble=d["wobble"],
                            mode=d["mode"], big_r=d["big_r"])
    return Domain.from_samples(d["samples"], big_r=d["big_r"])


def build_background(cfg, domain):
    b = cfg["background"]
    if b["kind"] == "zero":
        return HarmonicBackground.zero(b["offset"])
    if b["kind"] == "vn-fourier":
        cos = {int(k): float(v) for k, v in b["cos"].items()}
        sin = {int(k): float(v) for k, v in b["sin"].items()}

        def vn(t):
            return (sum(a * np.cos(k * t) for k, a in cos.items())
                    + sum(a * np.sin(k * t) for k, a in sin.items()))
        return background_from_flux(domain, vn, offset=b["offset"])
    if b["kind"] == "vn-samples":
        return background_from_flux(domain, np.asarray(b["values"], dtype=float),
                                    offset=b["offset"])
    coeffs = np.array([complex(c[0], c[1]) for c in b["coeffs"]])
    return HarmonicBackground.from_polynomial(coeffs, center=domain.center,
                                              scale=domain.diameter / 2.0,
                                              offset=b["offset"])


def build_system(cfg):
    v = cfg["vortices"]
    pos = v["positions"] if v["positions"] is not None else v["seeds"]
    return VortexSystem(v["kappa_plus"], v["kappa_minus"], pos,
                        subdomain_radius=v["subdomain_radius"])


class PipelineContext:
    """Shared objects for one run: domain, Green machinery, background, profile."""

    def __init__(self, cfg):
        self.cfg = validate_config(cfg)
        self.domain = build_domain(self.cfg)
        self.green = GreenEvaluator(self.domain, backend=self.cfg["domain"]["backend"])
        self.q = build_background(self.cfg, self.domain)
        self.profile = solve_profile(self.cfg["profile"]["p"])


# ---------------------------------------------------------------------- #
#  stages
# ---------------------------------------------------------------------- #


def stage_equilibrium(ctx):
    cfg = ctx.cfg
    v = cfg["vortices"]
    vs = build_system(cfg)
    if v["positions"] is not None:
        vs.check_admissible(ctx.domain)
        gnorm = float(np.max(np.abs(kr_grad(vs, ctx.green, ctx.q))))
        return vs, {"positions": vs.positions.tolist(), "grad_norm": gnorm,
                    "from": "configured"}, []
    s = cfg["search"]
    rep = find_critical(vs, ctx.green, ctx.q, z0=v["seeds"], tol=s["tol"],
                        max_iter=s["max_iter"])
    extra = []
    if s["multistart"] > 0:
        rng = np.random.default_rng(cfg["seed"])
        k = vs.m + vs.n
        lo, hi = ctx.domain.bounding_box()
        seeds = []
        while len(seeds) < s["multistart"]:
            cand = lo + (hi - lo) * rng.random((k, 2))
            if np.all(ctx.domain.contains(cand, tol=0.05 * ctx.domain.diameter)):
                seeds.append(cand)
        extra = multistart_find_critical(vs, ctx.green, ctx.q, seeds, tol=s["tol"],
                                         known=[rep.z_star])
    vs_star = vs.with_positions(rep.z_star)
    return vs_star, rep.to_dict(), [r.to_dict() for r in extra]


def _grid_h(cfg, cores):
    g = cfg["grid"]
    s_min = float(np.min(cores.s_all))
    h = g["h"] if g["h"] is not None else s_min / float(g["points_per_core"])
    check_resolution(h, s_min)
    return h


def write_solution(product, field_path, report_path, precision):
    """The solved field of one eps as an (N, 3) float64 `.npy` array of
    x1, x2, w rows (exact values; `precision` applies to the report only)
    and its solver report."""
    setup = product["setup"]
    spec = setup.spec
    with _atomic_file(field_path, "wb") as f:
        np.save(f, np.column_stack((spec.points, product["field"].values)))
    write_json(report_path, {"eps": setup.eps, "grid_h": spec.h,
                             "grid_nodes": spec.n_interior,
                             "solver": product["report"].to_dict()}, precision)


def stage_solve_one(ctx, vs_star, eps, warm=None):
    """Cores (centers moved to the finite-eps equilibrium, the gate disks
    with them), ansatz, grid and PDE solve at one eps, started from the
    ansatz plus the correction GridField `warm` when given.  Returns a dict
    of stage products keyed for downstream verification; the grid and eps
    are those of its setup, and `correction` is w - P at this eps."""
    cfg = ctx.cfg
    vs_eps, cores = refine_positions(vs_star, ctx.green, ctx.q, eps, ctx.profile)
    check_subdomains(vs_eps, ctx.domain)
    af = AnsatzField(cores, vs_eps, ctx.profile, ctx.green, ctx.q)
    spec = build_grid(ctx.domain, _grid_h(cfg, cores))
    setup = setup_problem(spec, vs_eps, ctx.q, eps, ctx.profile.p)

    # build_grid selected the nodes with domain.contains already
    ansatz_vals = af.evaluate(spec.points, require_inside=False)
    init_vals = ansatz_vals
    if warm is not None:
        # warm start: previous correction interpolated onto the new grid
        init_vals = ansatz_vals + interpolate(warm, spec.points)
    sol_cfg = cfg["solver"]
    fld, rep = solve_newton(setup, init_vals, tol=sol_cfg["tol"], max_iter=sol_cfg["max_iter"])
    return {
        "vs": vs_eps, "cores": cores, "ansatz": af, "setup": setup, "field": fld,
        "report": rep, "ansatz_field": GridField(spec, ansatz_vals),
        "correction": GridField(spec, fld.values - ansatz_vals),
    }


def stage_verify_one(ctx, product):
    """Diagnostics for one solved eps: vorticity, supports, energies, flow."""
    cores = product["cores"]
    vs = product["vs"]
    setup = product["setup"]
    spec = setup.spec
    # one SolvedField for every check, so they share its nodal quantities
    fld = SolvedField(spec, product["field"].values, setup)
    diag = vorticity_extract(fld, setup, vs)
    diag.energy = energy_eval(fld, setup)
    diag.residual_max = product["report"].residual_history[-1][1]
    af = product["ansatz"]
    i_quad = ansatz_energy(af)
    i_closed = ansatz_energy_expansion(cores, vs, ctx.green)
    inner_pred, outer_pred = support_predict(af, check=False)
    lg = eps_log(cores.eps)
    preds = cores.a_all * lg / np.log(cores.big_r / cores.s_all)
    flow = reconstruct_flow(fld, setup, ctx.q)
    reg = flow.regular
    div_rel = float(np.max(np.abs(flow.divergence[reg]))
                    / max(np.max(np.abs(flow.velocity)), 1e-300))

    # the construction's correction term is defined with the core centers
    # optimized out; re-base the composite field on the extracted centroids
    # so the reported norm measures shape error, not the sub-cell offset
    # between the configured centers and the discrete solution's own centers
    af_centered = AnsatzField(cores, vs.with_positions(diag.centers),
                              ctx.profile, ctx.green, ctx.q)
    corr_centered = float(np.max(np.abs(
        fld.values - af_centered.evaluate(spec.points, require_inside=False))))
    corr = float(np.max(np.abs(product["correction"].values)))
    denom = cores.delta * abs(np.log(cores.delta))**((cores.p - 1.0) / 2.0)
    out = {
        "eps": cores.eps, "delta": cores.delta, "p": cores.p,
        "diagnostics": diag.to_dict(),
        "cores": cores.to_dict(),
        "positions": vs.positions.tolist(),
        "circulation_prediction": (preds * vs.signs).tolist(),
        "support_bracket_inner": inner_pred.tolist(),
        "support_bracket_outer": outer_pred.tolist(),
        "ansatz_energy_quadrature": float(i_quad),
        "ansatz_energy_closed_form": float(i_closed),
        "ansatz_energy_rel_error": float(abs(i_quad - i_closed) / max(abs(i_closed), 1e-300)),
        "correction_max_norm": corr,
        "correction_ratio": corr / denom,
        "correction_recentered_max_norm": corr_centered,
        "correction_recentered_ratio": corr_centered / denom,
        "flow_divergence_rel": div_rel,
        "solver": product["report"].to_dict(),
        "grid_h": spec.h, "grid_nodes": spec.n_interior,
    }
    return out, diag, flow


# ---------------------------------------------------------------------- #
#  full pipeline and sweep
# ---------------------------------------------------------------------- #


def run_pipeline(cfg, outdir, progress=None):
    cfg = validate_config(cfg)
    os.makedirs(outdir, exist_ok=True)
    t_start = time.time()
    manifest = {"config_hash": config_hash(cfg), "version": __version__,
                "stages": {}, "artifacts": {}}
    precision = cfg["output"]["precision"]

    def tick(stage, t0, **artifacts):
        manifest["stages"][stage] = round(time.time() - t0, 3)
        manifest["artifacts"].update(artifacts)
        if progress:
            progress(stage)

    ctx = PipelineContext(cfg)

    t0 = time.time()
    vs_star, eq_report, extra = stage_equilibrium(ctx)
    eq_path = os.path.join(outdir, "equilibrium.jsonl")
    write_jsonl(eq_path, [eq_report] + extra, precision)
    tick("equilibrium", t0, equilibrium=eq_path)

    t0 = time.time()
    rp = ctx.profile
    prof_path = os.path.join(outdir, "profile.json")
    write_json(prof_path, {
        "p": rp.p, "slope_at_one": rp.slope_at_one, "phi_zero": rp.phi0,
        "int_phi_p": rp.int_phi_p, "int_phi_p1": rp.int_phi_p1,
        "pohozaev_residuals": list(rp.pohozaev_residuals()),
    }, precision)
    tick("profile", t0, profile=prof_path)

    rows = []
    warm = None
    failures = []
    diags = []
    for idx, eps in enumerate(cfg["eps"]):
        t0 = time.time()
        tag = f"eps{idx}"
        messages = []
        try:
            with _collect_warnings(messages):
                product = stage_solve_one(ctx, vs_star, eps,
                                          warm=warm if cfg["solver"]["continuation"] else None)
        except ConvergenceError as exc:
            failures.append((eps, str(exc)))
            tick(f"solve_{tag}", t0)
            warm = None
            continue
        cores_path = os.path.join(outdir, f"cores_{tag}.json")
        write_json(cores_path, product["cores"].to_dict(), precision)
        field_path = os.path.join(outdir, f"field_{tag}.npy")
        report_path = os.path.join(outdir, f"report_{tag}.json")
        write_solution(product, field_path, report_path, precision)
        tick(f"solve_{tag}", t0, **{f"cores_{tag}": cores_path,
                                    f"field_{tag}": field_path,
                                    f"report_{tag}": report_path})

        t0 = time.time()
        with _collect_warnings(messages):
            verify, diag, _flow = stage_verify_one(ctx, product)
        verify["warnings"] = messages
        diags.append(verify)
        rows.append(_convergence_row(verify, vs_star))
        tick(f"verify_{tag}", t0)
        warm = product["correction"]

    diag_path = os.path.join(outdir, "diagnostics.jsonl")
    write_jsonl(diag_path, diags, precision)
    manifest["artifacts"]["diagnostics"] = diag_path

    conv_path = os.path.join(outdir, "convergence.csv")
    write_csv(conv_path, _CONV_HEADER, rows, precision)
    manifest["artifacts"]["convergence"] = conv_path

    manifest["wall_time"] = round(time.time() - t_start, 3)
    manifest["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    manifest["failures"] = [{"eps": e, "error": msg} for e, msg in failures]
    manifest["converged"] = not failures
    manifest_path = os.path.join(outdir, "manifest.json")
    write_json(manifest_path, manifest, precision)
    if failures:
        raise ConvergenceError(
            f"{len(failures)} sweep entr{'y' if len(failures) == 1 else 'ies'} failed; "
            f"first: eps={failures[0][0]}: {failures[0][1]}")
    return manifest


_CONV_HEADER = [
    "eps", "delta", "grid_h", "grid_nodes", "total_circulation",
    "circulation_error", "circulation_pred_error", "max_support_outer_over_s",
    "min_support_inner_over_s", "energy", "ansatz_energy_rel_error",
    "correction_max_norm", "correction_ratio", "correction_recentered_ratio",
    "center_drift", "log_ratio_residual",
]


def _convergence_row(verify, vs_star):
    cores = verify["cores"]
    d = verify["diagnostics"]
    s_all = np.concatenate([cores["s_plus"], cores["s_minus"]])
    kap_sum = sum(verify["circulation_prediction"])
    drift = float(np.max(np.hypot(
        *(np.asarray(verify["positions"]) - vs_star.positions).T)))
    lg = abs(np.log(verify["eps"]))
    log_ratio = float(np.max(np.abs(
        1.0 / np.log(np.asarray(cores["big_r"]) / s_all) - 1.0 / (np.log(cores["big_r"]) + lg)))
        / (np.log(lg) / lg**2))
    return [
        verify["eps"], verify["delta"], verify["grid_h"], verify["grid_nodes"],
        d["total_circulation"],
        abs(d["total_circulation"] - kap_sum),
        float(np.max(np.abs(np.asarray(d["circulations"])
                            - np.asarray(verify["circulation_prediction"])))),
        float(np.max(np.asarray(d["support_outer"]) / s_all)),
        float(np.min(np.asarray(d["support_inner"]) / np.maximum(s_all, 1e-300))),
        d["energy"], verify["ansatz_energy_rel_error"],
        verify["correction_max_norm"], verify["correction_ratio"],
        verify["correction_recentered_ratio"],
        drift, log_ratio,
    ]


def run_sweep(cfg, outdir, progress=None):
    cfg = validate_config(cfg)
    if len(cfg["eps"]) < 2:
        raise ConfigError("sweep needs at least 2 eps values")
    return run_pipeline(cfg, outdir, progress=progress)
