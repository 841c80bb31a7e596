"""Timing wrappers around vortexpatch's public functions, and the per-layer
metrics computed from the spans they record.

The tracer lives entirely in the benchmark: it replaces each public
function of the layer modules (and every ``from .x import f`` binding of it
in other vortexpatch modules), each public method of their classes, and
three scipy entry points (``splu`` with its ``SuperLU.solve``, ``eigs`` and
the ``brentq`` bound in ``vortexpatch.diagnostics``).  ``remove`` puts every
original back.  Spans are kept in flat arrays in memory and written out
once, at the end of the traced run.
"""

import dataclasses
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "greens", "kirchhoff", "profile", "ansatz", "grid",
          "solver", "diagnostics", "pipeline")

WRAPPED_MARK = "__perfbench_wrapped__"

WRITE_SPANS = ("pipeline.write_json", "pipeline.write_csv", "pipeline.atomic_write")


def _collect_build_grid(counts, args, kwargs, result):
    counts["grid.nodes"] += result.n_interior


def _collect_find_critical(counts, args, kwargs, result):
    counts["kirchhoff.find_critical_iters"] += result.iterations


def _collect_solve_newton(counts, args, kwargs, result):
    report = result[1]
    counts["solver.newton_iters"] += report.iterations
    counts["solver.newton_full_steps"] += sum(1 for d in report.damping_history if d == 1.0)


def _collect_evaluate(counts, args, kwargs, result):
    counts["ansatz.evaluate_points"] += np.size(args[1]) // 2


def _collect_atomic_write(counts, args, kwargs, result):
    counts["pipeline.bytes_written"] += len(args[1].encode())


def _collect_splu(counts, args, kwargs, result):
    counts["solver.lu_nnz"] = max(counts["solver.lu_nnz"], int(result.nnz))


COLLECTORS = {
    "grid.build_grid": _collect_build_grid,
    "kirchhoff.find_critical": _collect_find_critical,
    "solver.solve_newton": _collect_solve_newton,
    "ansatz.AnsatzField.evaluate": _collect_evaluate,
    "pipeline.atomic_write": _collect_atomic_write,
    "solver.splu": _collect_splu,
}


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is traced; everything else is the
    factorization's own attribute."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records one span per call of a wrapped function: name, start, end and
    parent span; all spans of one traced process share ``run_id``."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")     # 1 when no span of the same name encloses it
        self.counts = {"grid.nodes": 0, "kirchhoff.find_critical_iters": 0,
                       "solver.newton_iters": 0, "solver.newton_full_steps": 0,
                       "ansatz.evaluate_points": 0, "pipeline.bytes_written": 0,
                       "solver.lu_nnz": 0}
        self._stack = [-1]
        self._active = []
        self._patches = []

    # -- recording -------------------------------------------------------- #

    def wrap(self, fn, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        nid = self._name_ids[name]
        collect = COLLECTORS.get(name)
        stack, active = self._stack, self._active
        name_id, parent, start, end, outer = (self.name_id, self.parent, self.start,
                                              self.end, self.outer)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[nid] -= 1
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if collect is not None:
                collect(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        setattr(traced, WRAPPED_MARK, True)
        return traced

    # -- installation ----------------------------------------------------- #

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, attr in vars(owner), vars(owner).get(attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every public function and method of the layer modules, their
        re-bindings elsewhere in the package, and the scipy boundary."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"vortexpatch.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "vortexpatch"
                                      or mod_name.startswith("vortexpatch.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        self._wrap_scipy()

    def _wrap_methods(self, cls, layer):
        dataclass = dataclasses.is_dataclass(cls)
        for attr, member in list(vars(cls).items()):
            public = not attr.startswith("_") or (attr == "__init__" and not dataclass)
            if public and inspect.isfunction(member):
                self._patch(cls, attr, self.wrap(member, f"{layer}.{cls.__name__}.{attr}"))

    def _wrap_scipy(self):
        import scipy.sparse.linalg as spla
        import vortexpatch.diagnostics as diagnostics

        lu_solve_name = "solver.lu_solve"
        splu = self.wrap(spla.splu, "solver.splu")

        def splu_traced(*args, **kwargs):
            lu = splu(*args, **kwargs)
            return _TracedLU(lu, self.wrap(lu.solve, lu_solve_name))

        setattr(splu_traced, WRAPPED_MARK, True)
        self._patch(spla, "splu", splu_traced)
        self._patch(spla, "eigs", self.wrap(spla.eigs, "solver.eigs"))
        self._patch(diagnostics, "brentq", self.wrap(diagnostics.brentq, "diagnostics.brentq"))

    def remove(self):
        """Restore every patched attribute, most recent first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ----------------------------------------------------------- #

    def save(self, path):
        """Write the spans (one array per field) and the boundary counts."""
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 outer=np.frombuffer(self.outer, dtype=np.int8),
                 counts=np.array(json.dumps(self.counts)))


def find_wrapped():
    """Every attribute of vortexpatch modules and classes, and of the
    patched scipy module, that currently holds a tracing wrapper."""
    import scipy.sparse.linalg as spla

    owners = [spla]
    for mod_name, module in list(sys.modules.items()):
        if module is not None and (mod_name == "vortexpatch" or mod_name.startswith("vortexpatch.")):
            owners.append(module)
            owners.extend(obj for obj in vars(module).values() if inspect.isclass(obj))
    return sorted({f"{getattr(o, '__name__', o)}.{attr}" for o in owners
                   for attr, obj in vars(o).items() if getattr(obj, WRAPPED_MARK, False)})


# ---------------------------------------------------------------------- #
#  per-layer metrics from spans
# ---------------------------------------------------------------------- #


def self_times(parent, start, end):
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span are disjoint
    sub-intervals of it and their durations add up to the covered time.
    """
    parent = np.asarray(parent)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


# metric -> (kind, span name); "s" is inclusive time of the outermost calls
SPAN_METRICS = {
    "profile.solve_profile_s": ("s", "profile.solve_profile"),
    "geometry.signed_distance_calls": ("calls", "geometry.Domain.signed_distance"),
    "geometry.signed_distance_s": ("s", "geometry.Domain.signed_distance"),
    "geometry.contains_calls": ("calls", "geometry.Domain.contains"),
    "geometry.contains_s": ("s", "geometry.Domain.contains"),
    "greens.init_s": ("s", "greens.GreenEvaluator.__init__"),
    "greens.background_from_flux_s": ("s", "greens.background_from_flux"),
    "greens.H_calls": ("calls", "greens.GreenEvaluator.H"),
    "greens.H_s": ("s", "greens.GreenEvaluator.H"),
    "greens.g_calls": ("calls", "greens.GreenEvaluator.g"),
    "greens.g_s": ("s", "greens.GreenEvaluator.g"),
    "greens.q_value_calls": ("calls", "greens.HarmonicBackground.value"),
    "greens.q_value_s": ("s", "greens.HarmonicBackground.value"),
    "kirchhoff.find_critical_s": ("s", "kirchhoff.find_critical"),
    "ansatz.refine_positions_s": ("s", "ansatz.refine_positions"),
    "ansatz.solve_core_system_calls": ("calls", "ansatz.solve_core_system"),
    "ansatz.solve_core_system_s": ("s", "ansatz.solve_core_system"),
    "ansatz.evaluate_calls": ("calls", "ansatz.AnsatzField.evaluate"),
    "ansatz.evaluate_s": ("s", "ansatz.AnsatzField.evaluate"),
    "ansatz.excess_calls": ("calls", "ansatz.AnsatzField.excess"),
    "ansatz.excess_s": ("s", "ansatz.AnsatzField.excess"),
    "ansatz.translation_modes_s": ("s", "ansatz.AnsatzField.translation_modes"),
    "grid.build_grid_s": ("s", "grid.build_grid"),
    "grid.discretize_s": ("s", "grid.discretize"),
    "grid.interpolate_calls": ("calls", "grid.interpolate"),
    "solver.setup_problem_s": ("s", "solver.setup_problem"),
    "solver.solve_newton_s": ("s", "solver.solve_newton"),
    "solver.rhs_eval_calls": ("calls", "solver.rhs_eval"),
    "solver.rhs_eval_s": ("s", "solver.rhs_eval"),
    "solver.splu_calls": ("calls", "solver.splu"),
    "solver.splu_s": ("s", "solver.splu"),
    "solver.lu_solve_calls": ("calls", "solver.lu_solve"),
    "solver.lu_solve_s": ("s", "solver.lu_solve"),
    "solver.eigs_calls": ("calls", "solver.eigs"),
    "solver.eigs_s": ("s", "solver.eigs"),
    "diagnostics.vorticity_extract_s": ("s", "diagnostics.vorticity_extract"),
    "diagnostics.energy_eval_s": ("s", "diagnostics.energy_eval"),
    "diagnostics.ansatz_energy_s": ("s", "diagnostics.ansatz_energy"),
    "diagnostics.ansatz_energy_expansion_s": ("s", "diagnostics.ansatz_energy_expansion"),
    "diagnostics.reconstruct_flow_s": ("s", "diagnostics.reconstruct_flow"),
    "diagnostics.brentq_calls": ("calls", "diagnostics.brentq"),
    "pipeline.stage_equilibrium_s": ("s", "pipeline.stage_equilibrium"),
    "pipeline.stage_solve_one_s": ("s", "pipeline.stage_solve_one"),
    "pipeline.stage_verify_one_s": ("s", "pipeline.stage_verify_one"),
}

COUNT_METRICS = ("grid.nodes", "kirchhoff.find_critical_iters", "solver.newton_iters",
                 "solver.lu_nnz", "ansatz.evaluate_points", "pipeline.bytes_written")


def layer_metrics(names, name_id, parent, start, end, outer, counts):
    """The per-layer metrics: named call counts and times, boundary counts,
    the derived solver ratios, and each layer's self time."""
    names = [str(n) for n in names]
    name_id = np.asarray(name_id)
    parent = np.asarray(parent)
    outer = np.asarray(outer).astype(bool)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    own = self_times(parent, start, end)
    n_names = len(names)
    calls = np.bincount(name_id, minlength=n_names)
    incl = np.bincount(name_id[outer], weights=dur[outer], minlength=n_names)
    index = {n: i for i, n in enumerate(names)}

    out = {}
    for metric, (kind, span) in SPAN_METRICS.items():
        i = index.get(span)
        if kind == "calls":
            out[metric] = int(calls[i]) if i is not None else 0
        else:
            out[metric] = float(incl[i]) if i is not None else 0.0
    for metric in COUNT_METRICS:
        out[metric] = counts[metric]

    # artifact writing: write_json/write_csv call atomic_write, so only the
    # spans whose parent is not itself a write span are counted
    write_ids = [index[n] for n in WRITE_SPANS if n in index]
    is_write = np.isin(name_id, write_ids)
    parent_write = np.zeros_like(is_write)
    parent_write[parent >= 0] = is_write[parent[parent >= 0]]
    out["pipeline.write_s"] = float(dur[is_write & ~parent_write].sum())

    iters = counts["solver.newton_iters"]
    out["solver.newton_full_step_ratio"] = counts["solver.newton_full_steps"] / iters if iters else 0.0
    out["solver.splu_per_newton_iter"] = out["solver.splu_calls"] / iters if iters else 0.0

    layer_of = np.array([n.split(".", 1)[0] for n in names])
    for layer in LAYERS:
        ids = np.nonzero(layer_of == layer)[0]
        out[f"{layer}.self_s"] = float(own[np.isin(name_id, ids)].sum())
    out["trace.spans"] = int(len(dur))
    return out
