"""Span arithmetic and wrapper installation of the benchmark's tracer."""

import numpy as np
import pytest

from tracer import LAYERS, Tracer, find_wrapped, layer_metrics, self_times


def test_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parent, start, end).tolist() == pytest.approx([3.0, 2.0, 1.0, 4.0])


def _metrics(spans, counts=None):
    names = sorted({s[0] for s in spans})
    base = {"grid.nodes": 0, "kirchhoff.find_critical_iters": 0, "solver.newton_iters": 4,
            "solver.newton_full_steps": 3, "ansatz.evaluate_points": 0,
            "pipeline.bytes_written": 0, "solver.lu_nnz": 0}
    base.update(counts or {})
    return layer_metrics(names, [names.index(s[0]) for s in spans], [s[1] for s in spans],
                         [s[2] for s in spans], [s[3] for s in spans],
                         [s[4] for s in spans], base)


def test_layer_metrics_on_nested_spans():
    spans = [  # (name, parent, start, end, outer)
        ("pipeline.run_pipeline", -1, 0.0, 20.0, 1),
        ("solver.solve_newton", 0, 1.0, 11.0, 1),
        ("solver.splu", 1, 2.0, 5.0, 1),
        ("solver.splu", 1, 6.0, 8.0, 1),
        ("pipeline.write_csv", 0, 12.0, 16.0, 1),
        ("pipeline.atomic_write", 4, 15.0, 16.0, 1),
        ("pipeline.atomic_write", 0, 17.0, 17.5, 1),
        ("greens.GreenEvaluator.g", 0, 18.0, 19.5, 1),
        ("greens.GreenEvaluator.g", 7, 18.5, 19.0, 0),
    ]
    m = _metrics(spans)
    assert m["solver.splu_calls"] == 2
    assert m["solver.splu_s"] == pytest.approx(5.0)
    assert m["solver.solve_newton_s"] == pytest.approx(10.0)
    # only the outermost of nested same-name calls counts toward time
    assert m["greens.g_calls"] == 2
    assert m["greens.g_s"] == pytest.approx(1.5)
    # atomic_write inside write_csv is not counted twice
    assert m["pipeline.write_s"] == pytest.approx(4.5)
    assert m["solver.self_s"] == pytest.approx(10.0)
    # run_pipeline 4, write_csv 3, the two atomic_writes 1 and 0.5
    assert m["pipeline.self_s"] == pytest.approx(4.0 + 3.0 + 1.0 + 0.5)
    assert m["greens.self_s"] == pytest.approx(1.5)
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(20.0)
    assert m["solver.newton_full_step_ratio"] == pytest.approx(0.75)
    assert m["solver.splu_per_newton_iter"] == pytest.approx(0.5)


def test_install_wraps_rebindings_and_remove_restores():
    import scipy.sparse.linalg as spla

    import vortexpatch.diagnostics as diagnostics
    import vortexpatch.pipeline as pipeline
    import vortexpatch.solver as solver
    from vortexpatch.ansatz import AnsatzField

    originals = (pipeline.solve_newton, diagnostics.rhs_eval, solver.rhs_eval,
                 AnsatzField.evaluate, spla.splu, spla.eigs, diagnostics.brentq)
    assert find_wrapped() == []
    tracer = Tracer("test")
    tracer.install()
    try:
        wrapped = find_wrapped()
        for name in ("vortexpatch.pipeline.solve_newton", "vortexpatch.diagnostics.rhs_eval",
                     "vortexpatch.solver.rhs_eval", "AnsatzField.evaluate",
                     "scipy.sparse.linalg.splu", "scipy.sparse.linalg.eigs",
                     "vortexpatch.diagnostics.brentq"):
            assert name in wrapped
        assert pipeline.solve_newton is not originals[0]
    finally:
        tracer.remove()
    assert find_wrapped() == []
    assert (pipeline.solve_newton, diagnostics.rhs_eval, solver.rhs_eval,
            AnsatzField.evaluate, spla.splu, spla.eigs, diagnostics.brentq) == originals


def test_traced_lu_counts_solves():
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    tracer = Tracer("test")
    tracer.install()
    try:
        lu = spla.splu(sp.csc_matrix(np.diag([2.0, 4.0])))
        x = lu.solve(np.array([2.0, 4.0]))
        nnz = lu.nnz
    finally:
        tracer.remove()
    assert x.tolist() == [1.0, 1.0]
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["solver.splu", "solver.lu_solve"]
    assert tracer.counts["solver.lu_nnz"] == nnz
