"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules
(and the ``Als`` methods that compute solution families) with a wrapper
that records a span: layer, name, start, end, parent span and the phase
the benchmark was in.  It patches every module attribute that holds the
original, so names one module imported from another (for example
``ncpoly.minimizer.als_add``) are traced too.  Nothing under ``src/``
changes; ``uninstall`` restores the originals.

Spans stay in memory and are written out by ``dump`` at the end of a run.
A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("freepoly", "linalg", "realization", "minimizer", "factorizer",
          "evaluator", "families")
ALS_METHODS = ("left_family", "right_family", "polynomial")
# Phases whose spans are the program's own work for the workload; oracle
# spans are kept apart so checking never counts as a layer's work.
WORK_PHASES = ("setup", "op")


class Tracer:
    def __init__(self, api):
        self.api = api
        self.keys = []  # span key index -> (layer, name)
        # (id, key, parent id, start, end, phase, outermost of its key)
        self.spans = []
        self._next_id = 0
        self.counts = Counter()  # (phase, metric) -> count
        self.maxes = defaultdict(int)
        self.phase = "setup"
        self._stack = []
        self._depth = Counter()
        self._patches = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        package = self.api.__name__
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == package or name.startswith(package + "."))
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(module, name, wrappers[id(obj)][1])
        als = self.api.Als
        for name in ALS_METHODS:
            wrapper = self._wrap("realization", f"Als.{name}", getattr(als, name))
            self._patch(als, name, wrapper)

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, layer, name, fn):
        key = len(self.keys)
        self.keys.append((layer, name))
        hook = _HOOKS.get(f"{layer}.{name}")
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            outer = depth[key] == 0
            depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[key] -= 1
                stack.pop()
                spans.append((span_id, key, parent, start, end, self.phase, outer))
            if hook is not None:
                hook(self, args, result)
            if layer == "realization" and isinstance(result, self.api.Als):
                metric = (self.phase, "realization.max_dim")
                self.maxes[metric] = max(self.maxes[metric], result.n)
            return result

        return traced

    # -- reading ---------------------------------------------------------------

    def count(self, metric: str, phases=WORK_PHASES) -> int:
        return sum(self.counts[(phase, metric)] for phase in phases)

    def maximum(self, metric: str, phases=WORK_PHASES) -> int:
        return max(self.maxes[(phase, metric)] for phase in phases)

    def summary(self) -> dict:
        """Calls, self time and outermost inclusive time per layer and name.

        ``calls``, ``self_s`` and ``incl_s`` cover the work phases;
        ``oracle_incl_s`` covers the oracle phase.
        """
        child = defaultdict(float)
        for _, _, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {"calls": Counter(), "self_s": defaultdict(float),
               "incl_s": defaultdict(float), "oracle_incl_s": defaultdict(float)}
        for span_id, key, _, start, end, phase, outer in self.spans:
            layer, name = self.keys[key]
            full = f"{layer}.{name}"
            if phase in WORK_PHASES:
                out["calls"][full] += 1
                out["self_s"][layer] += end - start - child[span_id]
                if outer:
                    out["incl_s"][full] += end - start
            elif outer:
                out["oracle_incl_s"][full] += end - start
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines, in the order they ended."""
        with open(path, "w") as handle:
            for span_id, key, parent, start, end, phase, _ in self.spans:
                layer, name = self.keys[key]
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer, "name": name,
                    "start": start, "end": end, "phase": phase}) + "\n")


# -- counts recorded at the boundaries --------------------------------------------


def _solve_rows(tracer, args, result):
    rows, _, width = args[:3]
    tracer.counts[(tracer.phase, "linalg.solve_rows.cells")] += len(rows) * width
    tracer.counts[(tracer.phase, "linalg.solve_rows.consistent")] += result is not None


def _hit(metric):
    def hook(tracer, args, result):
        tracer.counts[(tracer.phase, metric)] += result is not None
    return hook


def _atoms(tracer, args, result):
    tracer.counts[(tracer.phase, "factorizer.atoms")] += len(result)


def _naive(tracer, args, result):
    poly = args[0]
    products = sum(max(len(word) - 1, 0) for word in poly.support())
    tracer.counts[(tracer.phase, "freepoly.naive_products")] += products


_HOOKS = {
    "linalg.solve_rows": _solve_rows,
    "minimizer.solve_left_minimization": _hit("minimizer.left_solve.hits"),
    "minimizer.solve_right_minimization": _hit("minimizer.right_solve.hits"),
    "factorizer.find_split": _hit("factorizer.find_split.hits"),
    "factorizer.factor_atoms": _atoms,
    "freepoly.naive_evaluate": _naive,
}
