"""One benchmark repetition in a fresh process: ``run_pipeline`` on one config.

Usage: ``python3 perfbench/child.py '<spec json>'``.  The spec holds ``cfg``
(the run config), ``outdir``, ``cpu`` (the CPU to pin the process to, or
null), ``t_spawn`` (the parent's wall clock just before it started this
process), ``trace`` and, when tracing, ``spans`` (the span file to write)
and ``run_id``.  The last line printed is one JSON object with the
repetition's timings: ``run_s``, ``setup_s``, ``solve_s`` and ``verify_s``
in CPU seconds of this process (``time.process_time``), and the same in
wall seconds under ``wall``.  With ``setup_only`` the process only builds
the ``PipelineContext`` and reports ``setup_s``.

The pipeline is single-threaded here (one BLAS thread), so on a CPU of its
own its CPU time is its wall time.  The benchmark shares the CPU with a
speed probe (``speedprobe.py``), whose slices count in wall time but not
in CPU time.

Stage times come from the ``progress`` callback that ``run_pipeline`` calls
as each manifest stage ends, so they match the manifest's ``solve_eps*`` and
``verify_eps*`` entries and are available even when the run raises before
the manifest is written.
"""

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _stage_times(marks, clock):
    """Durations of the stages after the first on one clock (1 wall, 2 CPU),
    from consecutive progress marks (the pipeline starts each stage right
    after the previous tick)."""
    return {m[0]: m[clock] - marks[i - 1][clock] for i, m in enumerate(marks) if i}


def _equilibrium_stage(outdir):
    """The first stage's own time from the manifest; 0 when the run raised
    before writing one (setup_s then also counts the equilibrium search)."""
    try:
        with open(os.path.join(outdir, "manifest.json")) as f:
            return json.load(f)["stages"].get("equilibrium", 0.0)
    except FileNotFoundError:
        return 0.0


def run_rep(spec):
    """Run the pipeline once and return the repetition's measurements."""
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import vortexpatch.pipeline as pipeline

    if spec.get("setup_only"):
        pipeline.PipelineContext(spec["cfg"])
        return {"setup_s": time.process_time(),
                "wall": {"setup_s": time.time() - spec["t_spawn"]}}

    marks = []

    def progress(stage):
        marks.append((stage, time.time(), time.process_time()))

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install()
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        # looked up after install, so a traced run_pipeline is the root span
        pipeline.run_pipeline(spec["cfg"], spec["outdir"], progress=progress)
    except Exception as exc:        # a failed run is counted by the harness
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.remove()
    if tracer is not None:
        tracer.save(spec["spans"])

    import numpy
    import scipy
    from vortexpatch.config import config_hash, validate_config
    equilibrium = _equilibrium_stage(spec["outdir"])
    times = {}
    for clock, run, start in ((1, wall, spec["t_spawn"]), (2, cpu, 0.0)):
        stages = _stage_times(marks, clock)
        times[clock] = {
            "run_s": run,
            "setup_s": marks[0][clock] - equilibrium - start if marks else None,
            "solve_s": sum(v for k, v in stages.items() if k.startswith("solve_")),
            "verify_s": sum(v for k, v in stages.items() if k.startswith("verify_")),
        }
    return dict(times[2], **{
        "wall": times[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stages": _stage_times(marks, 1),
        "error": error,
        "config_hash": config_hash(validate_config(spec["cfg"])),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    })


if __name__ == "__main__":
    print(json.dumps(run_rep(json.loads(sys.argv[1]))))
