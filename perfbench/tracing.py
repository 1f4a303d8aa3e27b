"""Span tracing of the `dne` layers, installed from outside the package.

The tracer wraps every public function of each `src/dne` module, the two
`Mesh` methods every energy evaluation goes through, and the scipy
sparse/banded solve entry points.  Each wrapper is installed in every `dne.*`
namespace that binds the original, so `from .elliptic import solve` in
another module is traced too.  The scipy wrappers are installed before `dne`
is imported.  `dne` itself is not edited.

A span is (name, start, end, parent); spans of one run share the tracer's
run id.  They are kept in flat arrays in memory and written out once, after
the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# layer name -> module, in the order the metrics are reported
LAYERS = {
    "scenario": "dne.scenario",
    "meshing": "dne.meshing",
    "operators": "dne.operators",
    "elliptic": "dne.elliptic",
    "evolution": "dne.evolution",
    "checks": "dne.checks",
    "io_utils": "dne.io_utils",
    "cli": "dne.cli",
}
MESH_METHODS = ("element_means", "gradient_of")
# (module, attribute) of every solve entry point `elliptic` could call
LINALG = (("scipy.sparse.linalg", "spsolve"), ("scipy.sparse.linalg", "splu"),
          ("scipy.sparse.linalg", "factorized"), ("scipy.linalg", "solve_banded"))
NORMS = ("modular", "lq_integral", "l2_norm_diff_power", "lr_norm_diff_power",
         "l2_norm_values")
# span name of speed.py's kernel samples, which run between steps inside dne
# spans; their time is left out of every busy_s
PROBE = "speed.sample"

# per-layer metrics: (name, unit), the list BENCHMARK.json names
PER_LAYER = [
    ("scenario.load_scenario.busy_s", "s"),
    ("evolution.evolve.calls", "count"),
    ("evolution.step.calls", "count"),
    ("elliptic.make_subsolution.busy_s", "s"),
    ("elliptic.make_supersolution.busy_s", "s"),
    ("elliptic.solve.calls", "count"),
    ("elliptic.solve.self_s", "s"),
    ("elliptic.solve.fail", "count"),
    ("elliptic.solve_stationary.busy_s", "s"),
    ("elliptic.solve_lambda_problem.busy_s", "s"),
    ("elliptic.dirs_per_step", "dir/step"),
    ("elliptic.evals_per_dir", "eval/dir"),
    ("operators.flux_jacobian_batch.calls", "count"),
    ("operators.flux_jacobian_batch.busy_s", "s"),
    ("operators.eval_A.calls", "count"),
    ("operators.eval_A.busy_s", "s"),
    ("operators.eval_flux.calls", "count"),
    ("operators.eval_flux.busy_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.busy_s", "s"),
    ("linalg.unknowns", "count"),
    ("meshing.gradient_of.calls", "count"),
    ("meshing.gradient_of.busy_s", "s"),
    ("meshing.element_means.calls", "count"),
    ("meshing.element_means.busy_s", "s"),
    ("meshing.norms.busy_s", "s"),
    ("checks.busy_s", "s"),
    ("io_utils.write_field_csv.calls", "count"),
    ("io_utils.write_field_csv.busy_s", "s"),
    ("io_utils.write_json.busy_s", "s"),
    ("io_utils.bytes_written", "B"),
    ("cli.run.busy_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in [*LAYERS, "linalg"]] + [
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
]


class Tracer:
    """Records spans of wrapped calls; `install_*` patch, `uninstall` restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.keys: list[str] = []
        self._key_index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.fails: Counter = Counter()
        self.unknowns = array("q")  # rows of each linalg system, in call order
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, key: str) -> int:
        if key not in self._key_index:
            self._key_index[key] = len(self.keys)
            self.keys.append(key)
        return self._key_index[key]

    def wrap(self, fn, key: str):
        idx = self._intern(key)
        stack, name, parent, start, end = (self._stack, self.name, self.parent,
                                           self.start, self.end)
        fails = self.fails

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name)
            name.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                fails[key] += 1
                raise
            finally:
                end[sid] = perf_counter()
                stack.pop()

        traced.__traced__ = key
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install_linalg(self) -> None:
        """Wrap the scipy solve entry points; call before importing `dne`."""
        for module_name, attr in LINALG:
            module = importlib.import_module(module_name)
            fn = self.wrap(self._count_unknowns(getattr(module, attr), attr),
                           f"linalg.{attr}")
            if attr == "factorized":
                fn = self._wrap_result(fn, "linalg.factorized.solve")
            elif attr == "splu":
                fn = self._wrap_superlu(fn)
            self._patch(module, attr, fn)

    def _count_unknowns(self, fn, attr: str):
        unknowns = self.unknowns

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if attr == "solve_banded":  # solve_banded(l_and_u, ab, b)
                size = (args[1] if len(args) > 1 else kwargs["ab"]).shape[-1]
            else:
                size = (args[0] if args else kwargs["A"]).shape[0]
            unknowns.append(int(size))
            return fn(*args, **kwargs)

        return counted

    def _wrap_result(self, factory, key: str):
        """`factorized` returns a solve callable; trace the calls it gets."""
        @functools.wraps(factory)
        def wrapped(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), key)
        return wrapped

    def _wrap_superlu(self, factory):
        tracer = self

        class TracedSuperLU:
            def __init__(self, lu):
                self._lu = lu
                self.solve = tracer.wrap(lu.solve, "linalg.splu.solve")

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        @functools.wraps(factory)
        def wrapped(*args, **kwargs):
            return TracedSuperLU(factory(*args, **kwargs))
        return wrapped

    def install_dne(self) -> None:
        """Wrap the public functions of every layer module and rebind them in
        every loaded `dne` namespace; call after importing `dne`."""
        replacements = {}
        for layer, module_name in LAYERS.items():
            module = importlib.import_module(module_name)
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module_name):
                    replacements[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for namespace in dne_namespaces():
            for attr, obj in list(vars(namespace).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(namespace, attr, hit[1])
        mesh_cls = importlib.import_module("dne.meshing").Mesh
        for attr in MESH_METHODS:
            self._patch(mesh_cls, attr, self.wrap(getattr(mesh_cls, attr),
                                                  f"meshing.{attr}"))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write every span as gzipped JSON columns."""
        payload = {"run_id": self.run_id, "names": self.keys,
                   "name": self.name.tolist(), "parent": self.parent.tolist(),
                   "start": self.start.tolist(), "end": self.end.tolist()}
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle)

    def metrics(self) -> dict:
        return layer_metrics(self.keys, self.name, self.parent, self.start,
                             self.end, self.fails, self.unknowns)


def dne_namespaces():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "dne" or n.startswith("dne."))]


# -- span arithmetic --------------------------------------------------------

def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(parent, start, end) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(parent)):
        s, e = start[i], end[i]
        covered = union_length((max(start[c], s), min(end[c], e))
                               for c in children.get(i, ())
                               if start[c] < e and end[c] > s)
        out.append((e - s) - covered)
    return out


def layer_metrics(keys, name, parent, start, end, fails, unknowns) -> dict:
    """Per-function calls/busy_s/self_s/fail and the derived layer metrics.

    busy_s is the union of a group's spans, so a call nested in a call of the
    same group is not counted twice, less the PROBE spans inside it."""
    selfs = self_times(parent, start, end)
    by_key = defaultdict(list)
    for i, k in enumerate(name):
        by_key[keys[k]].append(i)

    def spans(pred):
        return [i for key, ids in by_key.items() if pred(key) for i in ids]

    probes = by_key.pop(PROBE, [])

    def busy(ids):
        ids = set(ids)
        total = union_length((start[i], end[i]) for i in ids)
        for p in probes:
            a = parent[p]
            while a >= 0 and a not in ids:
                a = parent[a]
            if a >= 0:
                total -= end[p] - start[p]
        return total

    out = {}
    for key, ids in by_key.items():
        out[f"{key}.calls"] = len(ids)
        out[f"{key}.busy_s"] = busy(ids)
        out[f"{key}.self_s"] = sum(selfs[i] for i in ids)
        out[f"{key}.fail"] = fails.get(key, 0)
    for layer in [*LAYERS, "linalg"]:
        ids = spans(lambda key: key.startswith(layer + "."))
        out[f"{layer}.busy_s"] = busy(ids)
        out[f"{layer}.self_s"] = sum(selfs[i] for i in ids)
    out["meshing.norms.busy_s"] = busy(spans(lambda key: key in
                                             {f"meshing.{n}" for n in NORMS}))
    solves = spans(lambda key: key.startswith("linalg."))
    out["linalg.solve.calls"] = len(solves)
    out["linalg.solve.busy_s"] = busy(solves)
    out["linalg.unknowns"] = (sum(unknowns) / len(unknowns)) if unknowns else 0.0

    # Newton directions (one flux Jacobian each) inside implicit Euler steps
    step_key = keys.index("evolution.step") if "evolution.step" in keys else -1
    jac_key = (keys.index("operators.flux_jacobian_batch")
               if "operators.flux_jacobian_batch" in keys else -1)
    in_step = bytearray(len(name))
    step_dirs = 0
    for i, k in enumerate(name):
        p = parent[i]
        in_step[i] = k == step_key or (p >= 0 and in_step[p])
        if k == jac_key and in_step[i]:
            step_dirs += 1
    steps = out.get("evolution.step.calls", 0)
    out["elliptic.dirs_per_step"] = step_dirs / steps if steps else 0.0
    dirs = out.get("operators.flux_jacobian_batch.calls", 0)
    out["elliptic.evals_per_dir"] = (out.get("operators.eval_A.calls", 0) / dirs
                                     if dirs else 0.0)
    out["trace.spans"] = len(name)
    return out
