"""The harness end to end on tiny configs: failure counting, the output
check, the speed scaling, and that only the traced path touches the
program's functions."""

import copy
import json
import os
import time

import numpy as np
import pytest

import child
import run
import speedprobe
import tracer
from checks import check_outputs
from conftest import TINY_CONFIG
from record_reference import reference_outputs


def _config(**solver):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["solver"] = solver
    return cfg


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    """Outputs of a converged tiny run, in the reference file's layout."""
    return reference_outputs(_config(), str(tmp_path_factory.mktemp("ref")))


def test_forced_convergence_failure_counts_every_entry(tiny_reference):
    reps = run.run_workload("test-max-iter", _config(max_iter=1), tiny_reference,
                            seed=0, seconds=0, trace=0)
    assert sum(1 for r in reps if not r.get("setup_only")) == 1
    assert reps[0]["error"].startswith("ConvergenceError")
    assert run.failure_counts(reps) == (1, 1)
    assert reps[0]["run_s"] > 0
    # the run's own setup sample is topped up by setup-only processes
    setups = run._untraced(reps, "setup_s")
    assert len(setups) == run.MIN_SETUP_SAMPLES and min(setups) > 0


def test_run_aborted_without_manifest_counts_as_failed(tiny_reference):
    # grid.h far too coarse raises ResolutionError out of run_pipeline,
    # which then writes no manifest
    cfg = _config()
    cfg["grid"] = {"h": 0.01}
    reps = run.run_workload("test-abort", cfg, tiny_reference, seed=0, seconds=0, trace=0)
    assert reps[0]["error"].startswith("ResolutionError")
    assert run.failure_counts(reps) == (1, 1)
    assert "no verified output" in reps[0]["checks"][0]["problem"]


def test_check_passes_reference_and_fails_perturbations(tiny_reference, tmp_path):
    cfg = _config()
    rep = child.run_rep({"cfg": cfg, "outdir": str(tmp_path), "trace": False, "t_spawn": 0.0})
    assert rep["error"] is None
    assert check_outputs(str(tmp_path), cfg, tiny_reference) == [(3e-3, None)]

    moved = copy.deepcopy(tiny_reference)
    moved["equilibrium"] = [[x + 0.03, y] for x, y in moved["equilibrium"]]
    assert "equilibrium" in check_outputs(str(tmp_path), cfg, moved)[0][1]

    unconverged = copy.deepcopy(tiny_reference)
    unconverged["entries"][0]["residual_scale"] = 1e-6
    assert "final residual" in check_outputs(str(tmp_path), cfg, unconverged)[0][1]

    other = copy.deepcopy(tiny_reference)
    other["entries"][0]["energy"] *= 1.0 + 1e-5
    assert "energy" in check_outputs(str(tmp_path), cfg, other)[0][1]


def test_times_scaled_by_the_run_speed_factor():
    reps = [{"run_s": 2.0, "setup_s": 0.5, "solve_s": 1.0, "verify_s": 0.75,
             "peak_rss_mb": 10.0},
            {"setup_s": 0.4}]
    run.scale_to_reference(reps, 0.5)
    assert (reps[0]["run_s"], reps[0]["solve_s"], reps[0]["verify_s"]) == (1.0, 0.5, 0.375)
    assert reps[0]["cpu"]["run_s"] == 2.0 and reps[0]["peak_rss_mb"] == 10.0
    assert reps[1]["setup_s"] == 0.2 and reps[1]["cpu"]["run_s"] is None


def test_speed_probe_samples_and_stops():
    with speedprobe.SpeedProbe(run.CPU) as probe:
        while len(probe.durations) < 3:
            time.sleep(0.05)
    assert not probe._thread.is_alive()
    assert 0 < probe.factor() < 100


def test_untraced_run_installs_no_wrappers(tmp_path, monkeypatch):
    def forbidden(self):
        raise AssertionError("the untraced path installed wrappers")

    monkeypatch.setattr(tracer.Tracer, "install", forbidden)
    rep = child.run_rep({"cfg": _config(max_iter=1), "outdir": str(tmp_path),
                         "trace": False, "t_spawn": 0.0})
    assert rep["error"].startswith("ConvergenceError")
    assert tracer.find_wrapped() == []


def test_traced_run_removes_wrappers_and_writes_spans(tmp_path):
    spans = str(tmp_path / "spans.npz")
    rep = child.run_rep({"cfg": _config(max_iter=1), "outdir": str(tmp_path / "out"),
                         "trace": True, "t_spawn": 0.0, "spans": spans, "run_id": "t"})
    assert rep["error"].startswith("ConvergenceError")
    assert tracer.find_wrapped() == []
    with np.load(spans) as z:
        assert str(z["run_id"]) == "t"
        m = tracer.layer_metrics(z["names"], z["name_id"], z["parent"], z["start"],
                                 z["end"], z["outer"], json.loads(str(z["counts"])))
        root = z["name_id"] == list(z["names"]).index("pipeline.run_pipeline")
        assert root.sum() == 1 and z["parent"][root][0] == -1
        run_time = float((z["end"] - z["start"])[root][0])
    # every traced second is some layer's self time
    assert sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) == pytest.approx(run_time)
    assert m["solver.splu_calls"] >= 1
    assert m["grid.nodes"] > 0
    assert m["pipeline.stage_solve_one_s"] > 0
    assert os.path.exists(tmp_path / "out" / "manifest.json")
