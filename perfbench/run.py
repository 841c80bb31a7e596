"""The vortexpatch benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload pair-sweep --seed 1 --seconds 40 --trace 0

Each repetition runs the workload's config through
``vortexpatch.pipeline.run_pipeline`` in a fresh single process
(``perfbench/child.py``) with single-threaded BLAS.  Repetitions continue
while the next one is expected to end within ``--seconds``; there is always
at least one.  Every repetition's outputs are checked against
``perfbench/reference/<workload>.json``.

With ``--trace 0`` the end-to-end metrics are the medians over the
untraced repetitions of the following; when there are fewer than three,
processes that only build the ``PipelineContext`` add ``setup_s`` samples.
Every time is the repetition process's CPU time (its wall time on a CPU of
its own, since it runs single-threaded), scaled to a reference machine
speed by a probe that shares its CPU (``perfbench/speedprobe.py``).  The
record keeps the measured CPU times as ``cpu`` and the wall times as
``wall``.

- ``run_s``: the ``run_pipeline(cfg, outdir)`` call;
- ``setup_s``: process start to a ready ``PipelineContext`` (import,
  ``validate_config``, domain, Green evaluator, background, profile);
- ``solve_s`` / ``verify_s``: the sum of the ``solve_eps*`` /
  ``verify_eps*`` stages;
- ``peak_rss_mb``: the process's peak resident set.

With ``--trace 1`` the first repetition runs with timing wrappers on every
public function of the layer modules (``perfbench/tracer.py``) and the
per-layer metrics come from its spans; ``trace.overhead_s`` is its
``run_s`` minus the median untraced one.

The last line printed is one JSON object with the keys ``correct``,
``attempted`` and ``failed`` (eps entries across all repetitions; an entry
fails on any exception or a failed output check) and ``metrics``.  The
lines before it give every metric with its unit, ``failed_frac``, the
provenance, and the per-entry check results; the same record is written to
``perfbench/_work/BENCH_<workload>.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "_work")
# a run must end within 180 s; repetitions are cut off this far in
RUN_CAP_S = 165.0
MIN_SETUP_SAMPLES = 3

# single-threaded BLAS: steadier timings on a small shared machine
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"run_s": "s", "setup_s": "s", "solve_s": "s", "verify_s": "s",
              "peak_rss_mb": "MB"}
# CPU times, scaled to the reference machine speed (speedprobe.py)
SCALED = ("run_s", "setup_s", "solve_s", "verify_s")
# the repetitions and the speed probe share the first CPU this process may use
CPU = min(os.sched_getaffinity(0))

sys.path.insert(0, HERE)
from checks import check_outputs  # noqa: E402
from speedprobe import REFERENCE_CHUNK_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402


def _git_commit():
    """HEAD's commit read from .git directly; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256():
    """Hash of the package sources, which identifies the code also where
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "vortexpatch")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_child(spec, timeout):
    """Run one repetition; returns its measurement dict, or one with only
    ``error`` set when the process failed or timed out."""
    env = dict(os.environ, **CHILD_ENV)
    spec = dict(spec, cpu=CPU, t_spawn=time.time())
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exited with code {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def scale_to_reference(reps, factor):
    """Multiply every repetition's CPU times by the run's speed factor; the
    measured ones move to ``cpu``."""
    for rep in reps:
        rep["cpu"] = {k: rep.get(k) for k in SCALED}
        for k in SCALED:
            if rep.get(k) is not None:
                rep[k] *= factor
        rep["speed_factor"] = factor


def run_workload(name, cfg, ref, seed, seconds, trace):
    """Run repetitions of one config, the first traced when ``trace``;
    each carries its measurements and its per-eps check results."""
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    t_begin = time.perf_counter()
    reps = []
    probe = SpeedProbe(CPU)

    def repetition(traced):
        outdir = os.path.join(work, f"rep{len(reps)}")
        spec = {"cfg": cfg, "outdir": outdir, "trace": traced,
                "spans": os.path.join(work, "spans.npz"),
                "run_id": f"{name}-seed{seed}-rep{len(reps)}"}
        remaining = RUN_CAP_S - (time.perf_counter() - t_begin)
        rep = run_child(spec, timeout=max(remaining, 1.0))
        rep["traced"] = traced
        rep["checks"] = [{"eps": eps, "problem": problem}
                         for eps, problem in check_outputs(outdir, cfg, ref)]
        shutil.rmtree(outdir, ignore_errors=True)
        reps.append(rep)

    with probe:
        if trace:
            repetition(True)
        while True:
            repetition(False)
            elapsed = time.perf_counter() - t_begin
            if elapsed + elapsed / len(reps) > seconds:
                break
        # top up setup_s with processes that only build the PipelineContext
        while len(_untraced(reps, "setup_s")) < MIN_SETUP_SAMPLES:
            remaining = RUN_CAP_S - (time.perf_counter() - t_begin)
            rep = run_child({"cfg": cfg, "trace": False, "setup_only": True},
                            timeout=max(remaining, 1.0))
            reps.append(dict(rep, traced=False, setup_only=True, checks=[]))
            if "error" in rep:
                break
    scale_to_reference(reps, probe.factor())
    return reps


def failure_counts(reps):
    """(attempted, failed) eps entries over all repetitions."""
    attempted = sum(len(r["checks"]) for r in reps)
    failed = sum(1 for r in reps for c in r["checks"] if c["problem"] is not None)
    return attempted, failed


def _untraced(reps, key):
    return [r[key] for r in reps if not r["traced"] and r.get(key) is not None]


def end_to_end_metrics(reps):
    """Medians over the untraced processes; setup-only ones add to setup_s."""
    values = {k: _untraced(reps, k) for k in END_TO_END}
    return {k: {"value": statistics.median(v) if v else None, "unit": END_TO_END[k]}
            for k, v in values.items()}


def per_layer_metrics(reps, spans_path):
    import numpy as np

    from tracer import layer_metrics
    with np.load(spans_path) as z:
        values = layer_metrics(z["names"], z["name_id"], z["parent"], z["start"], z["end"],
                               z["outer"], json.loads(str(z["counts"])))
    traced = [r for r in reps if r["traced"]][0]
    untraced_run = _untraced(reps, "run_s")
    if traced.get("run_s") is not None and untraced_run:
        values["trace.overhead_s"] = traced["run_s"] - statistics.median(untraced_run)
    else:
        values["trace.overhead_s"] = None
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def layer_unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_per_newton_iter")):
        return "ratio"
    if metric == "pipeline.bytes_written":
        return "bytes"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vortexpatch", "pipeline.py")):
        print(f"vortexpatch sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    cfg = build_config(args.workload, args.seed)
    with open(os.path.join(HERE, "reference", f"{args.workload}.json")) as f:
        ref = json.load(f)
    reps = run_workload(args.workload, cfg, ref, args.seed, args.seconds, args.trace)
    spans = os.path.join(WORK, args.workload, "spans.npz")
    errors = [r["error"] for r in reps if r.get("error")]
    if args.trace and not os.path.exists(spans):
        print(f"the traced repetition wrote no spans; errors: {errors}", file=sys.stderr)
        return 1
    metrics = per_layer_metrics(reps, spans) if args.trace else end_to_end_metrics(reps)
    missing = sorted(k for k, m in metrics.items() if m["value"] is None)
    if missing:
        print(f"no measurement for {missing}; repetition errors: {errors}", file=sys.stderr)
        return 1

    attempted, failed = failure_counts(reps)
    measured = next(r for r in reps if "versions" in r)
    provenance = {
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": measured["versions"]["numpy"],
        "scipy": measured["versions"]["scipy"],
        "blas_threads": int(CHILD_ENV["OPENBLAS_NUM_THREADS"]),
        "config_hash": measured["config_hash"],
        "cpu": CPU,
        "probe_reference_chunk_s": REFERENCE_CHUNK_S,
    }
    speed_factor = reps[0]["speed_factor"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance, "config": cfg,
              "speed_factor": speed_factor,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "metrics": metrics, "repetitions": reps}
    with open(os.path.join(WORK, f"BENCH_{args.workload}.json"), "w") as f:
        json.dump(record, f, indent=2)

    n_runs = sum(1 for r in reps if not r.get("setup_only"))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"pipeline runs {n_runs} ({int(args.trace)} traced), "
          f"setup_s samples {len(_untraced(reps, 'setup_s'))}, "
          f"speed factor {speed_factor:.4f} (CPU times x factor)")
    for key, m in metrics.items():
        print(f"  {key:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':42s} {failed / attempted:>16.6g} ratio ({failed}/{attempted} eps entries)")
    # the unscaled clocks, for reading the scaled times against
    for clock in ("cpu", "wall"):
        for key in SCALED:
            values = [r[clock][key] for r in reps
                      if not r["traced"] and r.get(clock, {}).get(key) is not None]
            if values:
                print(f"  {clock + ' ' + key + ' (unscaled)':42s} "
                      f"{statistics.median(values):>16.6g} s")
    for i, rep in enumerate(reps):
        for c in rep["checks"]:
            status = "PASS" if c["problem"] is None else f"FAIL: {c['problem']}"
            print(f"  check rep{i} eps={c['eps']:g}: {status}")
        if rep.get("error"):
            print(f"  rep{i} error: {rep['error']}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
