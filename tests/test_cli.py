"""Config validation, hashing, pipeline artifacts and the CLI surface."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexpatch import ansatz
from vortexpatch.cli import main
from vortexpatch.config import config_hash, load_config, validate_config
from vortexpatch.errors import ConfigError, ConvergenceError
from vortexpatch.grid import interpolate
from vortexpatch.kirchhoff import VortexSystem, kr_value
from vortexpatch.pipeline import (_CONV_HEADER, PipelineContext, run_pipeline,
                                  run_sweep, stage_equilibrium, stage_solve_one,
                                  stage_verify_one)

BASE_CONFIG = {
    "domain": {"kind": "disk", "radius": 1.0 / 16.0},
    "vortices": {"kappa_plus": [1.0], "kappa_minus": [],
                 "seeds": [[0.0, -0.001]], "subdomain_radius": 0.45 / 16.0},
    "background": {"kind": "vn-fourier", "cos": {"1": 0.1}, "sin": {}},
    "profile": {"p": 2.0},
    "eps": [3e-3],
    "solver": {"tol": 1e-10},
}


# config_hash of the validated BASE_CONFIG; it pins the schema's defaults
# and key set, so a deleted or added key changes it on purpose
HASH_BASE = "ede5d14a67ecded1c847bf02ad87e88b44a24cd6ce3e2eae21ff4489490406bf"


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, val in (overrides or {}).items():
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------- #
#  config validation and hashing
# ---------------------------------------------------------------------- #


def test_unknown_keys_rejected():
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["unknown_section"] = {}
    with pytest.raises(ConfigError):
        validate_config(bad)
    bad2 = json.loads(json.dumps(BASE_CONFIG))
    bad2["solver"]["typo_tol"] = 1e-8
    with pytest.raises(ConfigError):
        validate_config(bad2)
    with pytest.raises(ConfigError):
        validate_config(dict(BASE_CONFIG, threads=1))
    with pytest.raises(ConfigError):
        validate_config(dict(BASE_CONFIG, solver={"jacobian_cap": 1.0}))
    # keys of removed options are rejected, not silently ignored
    for section, key, val in (("solver", "method", "newton"),
                              ("solver", "picard_relax", 1.0),
                              ("grid", "boundary", "shortley-weller"),
                              ("vortices", "refine_centers", True),
                              ("vortices", "rho", 0.01),
                              ("vortices", "lbar", 2.0),
                              ("domain", "quadrature_order", 512),
                              ("search", "degeneracy_threshold", 1e-8),
                              ("profile", "tol", 1e-4)):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad.setdefault(section, {})[key] = val
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config(bad)


@pytest.mark.parametrize("override", [
    {"solver": {"tol": True}}, {"solver": {"max_iter": True}},
    {"grid": {"h": True}}, {"search": {"multistart": True}}, {"seed": True},
    {"profile": {"p": True}}, {"eps": [True]}])
def test_boolean_numbers_rejected(override):
    # isinstance(True, int) holds: a bool must not pass as 1 or 1.0
    with pytest.raises(ConfigError, match="type|eps"):
        validate_config(dict(BASE_CONFIG, **override))


def test_bool_keys_accept_bools_and_hash_unchanged():
    cfg = validate_config(dict(BASE_CONFIG, solver={"continuation": False}))
    assert cfg["solver"]["continuation"] is False
    with pytest.raises(ConfigError, match="type"):
        validate_config(dict(BASE_CONFIG, solver={"continuation": 0}))
    assert config_hash(validate_config(BASE_CONFIG)) == HASH_BASE


def test_validation_rules():
    for mutate, err_part in [
        ({"eps": []}, "eps"),
        ({"eps": [1e-3, 3e-3]}, "descending"),
        ({"eps": [2.0]}, "below 1"),
        ({"vortices": {"kappa_plus": [], "kappa_minus": [], "seeds": []}}, "vortex"),
        ({"vortices": {"kappa_plus": [1.0], "kappa_minus": [], "seeds": []}}, "seed"),
        ({"profile": {"p": 0.5}}, "p"),
    ]:
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad.update(json.loads(json.dumps(mutate)))
        with pytest.raises(ConfigError):
            validate_config(bad)


def test_defaults_are_not_shared_between_configs():
    # the schema's default lists and dicts are copied into each config
    first = validate_config(json.loads(json.dumps(BASE_CONFIG)))
    first["domain"]["center"][0] = 0.5
    first["background"]["values"].append(1.0)
    second = validate_config(json.loads(json.dumps(BASE_CONFIG)))
    assert second["domain"]["center"] == [0.0, 0.0]
    assert second["background"]["values"] == []


def test_hash_stable_under_key_reordering():
    a = validate_config(json.loads(json.dumps(BASE_CONFIG)))
    shuffled = {k: BASE_CONFIG[k] for k in reversed(list(BASE_CONFIG))}
    b = validate_config(json.loads(json.dumps(shuffled)))
    assert config_hash(a) == config_hash(b)


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(BASE_CONFIG)))
def test_hash_stable_property(order):
    cfg = validate_config({k: BASE_CONFIG[k] for k in order})
    assert config_hash(cfg) == config_hash(validate_config(dict(BASE_CONFIG)))


def test_hash_changes_with_content():
    a = validate_config(dict(BASE_CONFIG))
    b = validate_config(dict(BASE_CONFIG, eps=[1e-3]))
    assert config_hash(a) != config_hash(b)


# ---------------------------------------------------------------------- #
#  pipeline artifacts (one cheap end-to-end run)
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = validate_config(json.loads(json.dumps(BASE_CONFIG)))
    manifest = run_pipeline(cfg, str(out))
    return out, cfg, manifest


def test_minimal_pipeline_artifacts(pipeline_out):
    out, cfg, manifest = pipeline_out
    for artifact in ("equilibrium", "profile", "cores_eps0", "field_eps0",
                     "report_eps0", "diagnostics", "convergence"):
        path = manifest["artifacts"][artifact]
        assert os.path.exists(path), artifact
    assert manifest["converged"]
    assert manifest["config_hash"] == config_hash(cfg)
    # every stage carries a wall-clock entry
    assert {"equilibrium", "profile"}.issubset(manifest["stages"])
    assert manifest["peak_rss_mb"] > 0


def test_pipeline_determinism(pipeline_out, tmp_path):
    out, cfg, manifest = pipeline_out
    out2 = tmp_path / "rerun"
    manifest2 = run_pipeline(json.loads(json.dumps(
        {k: v for k, v in cfg.items()})), str(out2))
    for name in ("field_eps0.csv", "cores_eps0.json", "diagnostics.jsonl",
                 "convergence.csv", "equilibrium.jsonl"):
        a = (out / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_diagnostics_content(pipeline_out):
    out, cfg, manifest = pipeline_out
    lines = (out / "diagnostics.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1
    d = json.loads(lines[0])
    assert d["eps"] == 3e-3
    assert d["diagnostics"]["confinement_ok"]
    assert d["solver"]["converged"]
    assert d["correction_recentered_ratio"] < 5.0
    assert d["warnings"] == []


def test_warnings_go_into_the_diagnostics(tmp_path, monkeypatch):
    # a core solve from a = 1.5 kappa that lands on another root warns: the
    # warning is still shown, and its message is in the eps entry
    iterate_fn = ansatz._iterate_cores

    def second_root(vs, table, q, eps, delta, rp, big_r, a_init, max_iter):
        a, s, it = iterate_fn(vs, table, q, eps, delta, rp, big_r, a_init, max_iter)
        return (2.0 * a if np.array_equal(a_init, 1.5 * vs.kappas) else a), s, it

    monkeypatch.setattr(ansatz, "_iterate_cores", second_root)
    with pytest.warns(UserWarning, match="multiple fixed points"):
        run_pipeline(validate_config(json.loads(json.dumps(BASE_CONFIG))), str(tmp_path))
    d = json.loads((tmp_path / "diagnostics.jsonl").read_text())
    assert len(d["warnings"]) == 1 and "multiple fixed points" in d["warnings"][0]


def test_pipeline_field_is_the_suites_solved_case(pipeline_out, solved_case):
    # the solve the suite checks is the one the pipeline writes: 17
    # significant digits round-trip every value exactly
    out, _, _ = pipeline_out
    rows = np.loadtxt(out / "field_eps0.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, :2], solved_case["grid"].points)
    assert np.array_equal(rows[:, 2], solved_case["field"].values)


def test_warm_started_correction_is_measured_from_the_ansatz(single_equilibrium,
                                                             solved_case):
    # continuation starts eps 1e-3 from its ansatz plus the correction of eps
    # 3e-3; the reported correction is still w - P at 1e-3, not w - start
    ctx, vs_star = single_equilibrium
    product = stage_solve_one(ctx, vs_star, 1e-3, warm=solved_case["correction"])
    verify, _, _ = stage_verify_one(ctx, product)
    w, ansatz_vals = product["field"].values, product["ansatz_field"].values
    corr = np.max(np.abs(w - ansatz_vals))
    assert verify["correction_max_norm"] == corr
    d = verify["delta"]
    assert verify["correction_ratio"] == corr / (d * abs(np.log(d))**0.5)
    start = ansatz_vals + interpolate(solved_case["correction"], product["setup"].spec.points)
    assert np.max(np.abs(w - start)) != corr


def test_field_csv_precision(pipeline_out):
    out, _, _ = pipeline_out
    header, first = (out / "field_eps0.csv").read_text().splitlines()[:2]
    assert header == "x1,x2,w"
    # 17 significant digits requested: round-trip exactly
    vals = [float(v) for v in first.split(",")]
    assert f"{vals[2]:.17g}" in first


# ---------------------------------------------------------------------- #
#  pipeline stages without a PDE solve
# ---------------------------------------------------------------------- #


def test_context_validates_every_config():
    # a config without eps is invalid too, not passed on unchecked
    cfg = {k: v for k, v in BASE_CONFIG.items() if k != "eps"}
    with pytest.raises(ConfigError, match="eps"):
        PipelineContext(cfg)


def test_configured_positions_skip_the_search():
    _, rep, _ = stage_equilibrium(PipelineContext(BASE_CONFIG))
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["vortices"].update(positions=rep["z_star"], seeds=None)
    vs, configured, extra = stage_equilibrium(PipelineContext(cfg))
    assert configured["from"] == "configured" and extra == []
    assert configured["positions"] == rep["z_star"]
    assert np.array_equal(vs.positions, rep["z_star"])
    assert configured["grad_norm"] <= 1e-10


def test_multistart_reports_each_critical_point_once():
    # one vortex in the disk has one critical point: four random starts
    # that all reach the searched one add no other critical point
    cfg = dict(BASE_CONFIG, search={"multistart": 4})
    _, rep, extra = stage_equilibrium(PipelineContext(cfg))
    assert rep["converged"] and extra == []


ELLIPSE_CONFIG = {
    "domain": {"kind": "ellipse", "a": 0.0625, "b": 0.0375, "n_boundary": 512,
               "backend": "boundary-integral"},
    "vortices": {"kappa_plus": [1.0], "kappa_minus": [], "seeds": [[0.0, 0.0]],
                 "subdomain_radius": 0.016},
    "background": {"kind": "vn-fourier", "cos": {"1": 0.1}, "sin": {}},
    "profile": {"p": 2.0},
    "eps": [3e-3],
    "solver": {"tol": 1e-10},
}


def test_ellipse_pipeline_end_to_end(tmp_path, monkeypatch):
    # the boundary-integral Green function on a parametric domain, with
    # and without the local expansion of H about each source
    from vortexpatch.greens import _BoundaryIntegralBackend

    def run(name):
        out = tmp_path / name
        run_pipeline(validate_config(json.loads(json.dumps(ELLIPSE_CONFIG))), str(out))
        return out, json.loads((out / "diagnostics.jsonl").read_text())["diagnostics"]

    out, diag = run("first")
    assert diag["confinement_ok"]
    out2, _ = run("rerun")
    for name in ("field_eps0.csv", "diagnostics.jsonl", "equilibrium.jsonl"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name
    monkeypatch.setattr(_BoundaryIntegralBackend, "_local", lambda self, y, entry: (0.0, None))
    _, direct = run("direct")
    for key in ("circulations", "energy", "total_circulation"):
        assert np.allclose(diag[key], direct[key], rtol=1e-12, atol=0.0), key
    assert json.loads((out / "manifest.json").read_text())["converged"]


def test_start_up_loads_only_the_linear_algebra_of_scipy():
    # the radial profile, the gluing root and the boundary distance are
    # computed in the package: importing the CLI and building a run's shared
    # objects, on a disk and on an ellipse, loads none of scipy's optimize,
    # integrate, interpolate or spatial
    code = textwrap.dedent("""
        import json, sys
        import vortexpatch.cli
        from vortexpatch.pipeline import PipelineContext
        for cfg in json.loads(sys.argv[1]):
            PipelineContext(cfg)
        unused = ("optimize", "integrate", "interpolate", "spatial")
        print(json.dumps(sorted(name for name in sys.modules
                                if name.startswith("scipy.") and name.split(".")[1] in unused)))
    """)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", code, json.dumps([BASE_CONFIG, ELLIPSE_CONFIG])],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         check=True)
    assert json.loads(out.stdout) == []


def test_a_run_imports_no_scipy(tmp_path):
    # the grid operator is inverted by the lattice Green function and the
    # dense algebra is numpy's: a whole run, on a disk and on an ellipse,
    # leaves no scipy module in sys.modules, nor numpy.ma, which scipy used
    # to import and np.unique imports on first use (30 ms of CPU)
    code = textwrap.dedent("""
        import json, sys
        from vortexpatch.config import validate_config
        from vortexpatch.pipeline import run_pipeline
        for i, cfg in enumerate(json.loads(sys.argv[1])):
            run_pipeline(validate_config(cfg), sys.argv[2] + f"/run{i}")
        print(json.dumps(sorted(name for name in sys.modules if name in ("scipy", "numpy.ma")
                                or name.startswith(("scipy.", "numpy.ma.")))))
    """)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", code, json.dumps([BASE_CONFIG, ELLIPSE_CONFIG]),
                          str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []
    assert (tmp_path / "run0" / "manifest.json").exists()
    assert (tmp_path / "run1" / "manifest.json").exists()


@pytest.mark.parametrize("precision", [17, 9])
def test_field_csv_bytes_match_per_value_format(tmp_path, precision):
    # the row-format writer gives the same bytes as formatting every value
    # on its own
    from vortexpatch import Domain, HarmonicBackground, build_grid
    from vortexpatch.grid import GridField
    from vortexpatch.kirchhoff import VortexSystem
    from vortexpatch.pipeline import write_solution
    from vortexpatch.solver import SolveReport, setup_problem
    spec = build_grid(Domain.disk(1.0 / 16.0), 1.0 / 64.0)
    n = spec.n_interior
    vals = np.random.default_rng(2).standard_normal(n) * 1e-3
    vals[:6] = [-0.0, 1e-300, 0.12345678901234567, -2.5e-7, np.nan, np.inf]
    setup = setup_problem(spec, VortexSystem([1.0], [], [[0.0, 0.0]]),
                          HarmonicBackground.zero(), 3e-3, 2.0)
    product = {"setup": setup, "field": GridField(spec, vals), "report": SolveReport()}
    path = tmp_path / "field.csv"
    write_solution(product, str(path), str(tmp_path / "report.json"), precision)
    expected = "x1,x2,w\n" + "".join(
        ",".join(f"{float(v):.{precision}g}" for v in (x1, x2, w)) + "\n"
        for (x1, x2), w in zip(spec.points, vals))
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("precision", [17, 9])
def test_csv_integer_column_matches_per_value_format(tmp_path, precision):
    # convergence.csv rows mix an integer column (grid_nodes) into floats:
    # the one row format prints it as str(int) does
    from vortexpatch.pipeline import write_csv
    rows = [[3e-3, 6006, 0.1 / 3.0, -0.0], [1e-3, 104123, 2.5e-300, np.nan]]
    path = tmp_path / "rows.csv"
    write_csv(str(path), ["eps", "grid_nodes", "a", "b"], rows, precision)
    expected = "eps,grid_nodes,a,b\n" + "".join(
        ",".join(str(v) if isinstance(v, int) else f"{v:.{precision}g}" for v in row) + "\n"
        for row in rows)
    assert path.read_bytes() == expected.encode()


def _row_format_csv(header, rows, precision):
    """Reference: the writer that formatted each row with one % format."""
    rows = np.asarray(rows, dtype=float).reshape(-1, len(header))
    fmt = ",".join([f"%.{precision}g"] * len(header))
    return "\n".join([",".join(header)] + [fmt % tuple(row) for row in rows.tolist()]) + "\n"


@pytest.mark.parametrize("precision", [17, 6])
def test_csv_matches_row_formatter(tmp_path, precision):
    # repeated values, both zeros, nan, +/-inf, integer-valued floats
    # (short and past `precision` digits), and the empty table
    from vortexpatch.pipeline import CSV_BLOCK, write_csv
    rng = np.random.default_rng(7)
    special = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 3.0, -12.0, 104123.0,
               1234567.0, 1e16, 0.1, 1.0 / 3.0, 2.5e-300, -5e-324]
    rows = np.column_stack((rng.choice(special, 400), rng.choice(np.linspace(-1, 1, 9), 400),
                            rng.standard_normal(400)))
    rows[:len(special), 2] = special
    # blocks: the last one partial; x1 repeats in runs of 100, one of which
    # spans the first block edge; x2 repeats and w is mostly distinct in
    # every block, so both ways of formatting a column run; -0.0 and 0.0
    # meet at the second block edge
    n = 2 * CSV_BLOCK + 3
    blocks = np.column_stack((np.repeat(rng.standard_normal(n // 100 + 1), 100)[:n],
                              rng.choice(special, n), rng.standard_normal(n)))
    assert blocks[CSV_BLOCK - 1, 0] == blocks[CSV_BLOCK, 0]
    blocks[2 * CSV_BLOCK - 1, 1:] = -0.0
    blocks[2 * CSV_BLOCK, 1:] = 0.0
    header = ["x1", "x2", "w"]
    for case in (rows, rows[::2], rows.tolist(), np.empty((0, 3)),   # [::2]: strided
                 blocks, blocks[:CSV_BLOCK]):
        path = tmp_path / "rows.csv"
        write_csv(str(path), header, case, precision)
        assert path.read_text() == _row_format_csv(header, case, precision)


def test_write_csv_memory_is_bounded(tmp_path):
    # the writer holds one block of text, not the text of every row
    import tracemalloc
    from vortexpatch.pipeline import write_csv
    x1, x2 = np.meshgrid(np.linspace(-1, 1, 600), np.linspace(-1, 1, 500))
    rows = np.column_stack((x1.ravel(), x2.ravel(),
                            np.random.default_rng(3).standard_normal(x1.size)))
    tracemalloc.start()
    try:
        write_csv(str(tmp_path / "field.csv"), ["x1", "x2", "w"], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    # a write that raises before its rename removes its temp file, and the
    # artifact already at the path keeps its bytes
    from vortexpatch import pipeline

    def refuse(src, dst):
        raise OSError("refused")
    path = tmp_path / "out.csv"
    path.write_bytes(b"earlier\n")
    monkeypatch.setattr(pipeline.os, "replace", refuse)
    for write in (lambda: pipeline.write_csv(str(path), ["a", "b"], [[1.0, 2.0]]),
                  lambda: pipeline.atomic_write(str(path), "text\n")):
        with pytest.raises(OSError, match="refused"):
            write()
        assert os.listdir(tmp_path) == ["out.csv"]
        assert path.read_bytes() == b"earlier\n"


def test_all_failed_sweep_writes_header_only_table(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["solver"]["max_iter"] = 1
    out = tmp_path / "failed"
    with pytest.raises(ConvergenceError, match="1 sweep entry failed"):
        run_pipeline(cfg, str(out))
    assert (out / "convergence.csv").read_text() == ",".join(_CONV_HEADER) + "\n"
    assert (out / "diagnostics.jsonl").read_text() == "\n"
    assert not json.loads((out / "manifest.json").read_text())["converged"]


def test_invalid_config_no_artifacts(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["vortices"]["subdomain_radius"] = 0.2    # sticks out of the 1/16 disk
    out = tmp_path / "bad"
    with pytest.raises(ConfigError):
        run_pipeline(cfg, str(out))
    assert not (out / "diagnostics.jsonl").exists()
    # a radius short (one vortex, no radius), one too many and a negative
    # one fail the config validation, before any stage runs
    for i, rad in enumerate([[], [0.02, 0.02], -0.02]):
        cfg["vortices"]["subdomain_radius"] = rad
        out = tmp_path / f"bad{i}"
        with pytest.raises(ConfigError, match="subdomain_radius"):
            run_pipeline(cfg, str(out))
        assert not (out / "equilibrium.jsonl").exists()
    cfg_path = write_config(tmp_path, {"vortices.subdomain_radius": -0.02})
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "cli")]) == 2
    assert not (tmp_path / "cli" / "equilibrium.jsonl").exists()


def test_sweep_requires_two_eps(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    with pytest.raises(ConfigError):
        run_sweep(cfg, str(tmp_path / "s"))


# ---------------------------------------------------------------------- #
#  CLI surface
# ---------------------------------------------------------------------- #


def test_cli_profile(capsys):
    assert main(["profile", "--p", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "phi'(1)" in out
    assert "-7.897" in out


def test_cli_find_equilibrium(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    rc = main(["find-equilibrium", "--config", cfg_path,
               "--out", str(tmp_path / "eq")])
    assert rc == 0
    assert (tmp_path / "eq" / "equilibrium.jsonl").exists()


def test_cli_landscape_rows_are_kr_values(tmp_path, capsys):
    # each W row of landscape.csv is kr_value with the first vortex at the
    # probe and the others at the critical point
    cfg_path = write_config(tmp_path, {"vortices.kappa_minus": [1.0],
                                       "vortices.seeds": [[0.0, 0.02], [0.0, -0.02]]})
    out = tmp_path / "eq"
    assert main(["find-equilibrium", "--config", cfg_path, "--out", str(out),
                 "--landscape-grid", "6"]) == 0
    z_star = np.array(json.loads((out / "equilibrium.jsonl").read_text().splitlines()[0])
                      ["z_star"])
    ctx = PipelineContext(load_config(cfg_path))
    vs = VortexSystem([1.0], [1.0], z_star)
    rows = np.loadtxt(out / "landscape.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) >= 20
    for x1, x2, w in rows:
        probe = vs.with_positions(np.vstack([[x1, x2], z_star[1:]]))
        assert w == kr_value(probe, ctx.green, ctx.q)


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    cfg_path = write_config(tmp_path, {"unknown_key": 1})
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2


def test_cli_too_coarse_grid_exits_2(tmp_path, capsys):
    # an explicit grid spacing above s/4 is an invalid configuration
    cfg_path = write_config(tmp_path)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                 "--grid-h", "0.01"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "too coarse" in err


def test_cli_unsupported_profile_exponent_exits_2(tmp_path, capsys):
    # the config accepts any p > 1; the profile table check rejects p = 7
    cfg_path = write_config(tmp_path, {"profile.p": 7.0})
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "1.38 <= p <= 6.5" in err


def test_cli_flux_with_net_flux_exits_2(tmp_path, capsys):
    # a constant outward flux violates the zero-circulation compatibility
    cfg_path = write_config(tmp_path, {"background.cos": {"0": 0.1}})
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "net boundary flux" in err


def test_cli_positions_within_the_clearance_exit_2(tmp_path, capsys):
    # 0.0025 from the wall of a disk of diameter 0.125: the clearance is 0.00625
    cfg_path = write_config(tmp_path, {"vortices.positions": [[0.06, 0.0]]})
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "separation constraints" in err


def test_cli_ansatz(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    rc = main(["ansatz", "--config", cfg_path, "--out", str(tmp_path / "a"),
               "--sample-grid", "16"])
    assert rc == 0
    assert (tmp_path / "a" / "cores.json").exists()
    assert (tmp_path / "a" / "ansatz.csv").exists()


def test_cli_solve(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "s"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert (out / "field.csv").read_text().splitlines()[0] == "x1,x2,w"


def test_cli_verify(tmp_path, pipeline_out, capsys):
    # verify is a view of run: the same diagnostics, byte for byte, plus the
    # manifest and the other run artifacts
    run_out, _, _ = pipeline_out
    cfg_path = write_config(tmp_path)
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "diagnostics.jsonl").read_bytes() == \
        (run_out / "diagnostics.jsonl").read_bytes()
    for name in ("manifest.json", "equilibrium.jsonl", "convergence.csv", "field_eps0.csv"):
        assert (out / name).exists(), name
