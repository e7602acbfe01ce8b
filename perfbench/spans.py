"""Spans around electroid_lab's public functions, installed from outside the package.

`Tracer.install` replaces every public function of the layer modules (and the
public methods of the classes they define) by a wrapper that records a span
(name, start, end, parent, op).  The wrapper is bound at every module
attribute that holds the original, so `from .grassmann import plucker_check`
inside `temperley` is traced too.  Generator functions are left alone, since
a span would close before the generator runs; their time counts as self time
of the caller that drains them.  Functions called ~10^5 times per run are left
alone as well (see HOT), since their wrappers would cost more than their work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "combinat",
    "network",
    "linalg",
    "embedding",
    "medial",
    "affine",
    "grassmann",
    "temperley",
    "realize",
    "electroid",
    "vectors",
    "cli",
)

# The functions that do the work; each gets its own per-layer metrics.
FUNCTIONS = (
    "network.grove_vector",
    "network.response_matrix",
    "grassmann.boundary_measurements",
    "grassmann.plucker_check",
    "grassmann.perm_of_point",
    "grassmann.mat_mul",
    "temperley.temperley_graph",
    "temperley.embed",
    "temperley.recover_groves",
    "temperley.classify_point",
    "temperley.quadratic_check",
    "realize.reduce_step",
    "affine.bruhat_leq",
    "affine.uncross_covers",
    "electroid.electroid",
    "electroid.oh_electroid",
    "combinat.enumerate_nc",
    "combinat.dual",
    "linalg.mat_solve",
    "linalg.det",
    "medial.network_of_matching",
    "embedding.disk_view",
)

# Helpers called per edge subset, per matching, per rank entry or per
# partition: in a 20-second run of some workload each is called 7*10^4
# (catalan_subset in poset) to several 10^6 times (BEdge.endpoint in forward),
# where a wrapper would cost more than the work it times.
HOT = frozenset(
    {
        "affine.rank_entry",
        "affine.BoundedAffinePermutation.of",
        "combinat.in_open_arc",
        "combinat.cyclic_rank",
        "combinat.bar_slot",
        "combinat.tilde_slot",
        "combinat.dominance_leq",
        "combinat.NCPartition.of",
        "combinat.CatalanSubset.of",
        "combinat.catalan_subset",
        "combinat.is_catalan_subset",
        "combinat.matching_of_partition",
        "combinat.NCPartition.part_index",
        "combinat.Matching.of",
        "combinat.Matching.partner_map",
        "grassmann.BEdge.endpoint",
        "grassmann.PlanarBipartiteGraph.boundary_color",
        "grassmann.boundary_subset",
        "vectors.subset_key",
    }
)

# Work computed from the arguments of a call, labelled as computed: the number
# of edge subsets the brute-force grove sum visits, and the coordinate pairs
# times k that the one-index exchange check visits.
WORK = {
    "network.grove_vector": ("subsets", lambda net: 2 ** len(net.edges)),
    "grassmann.plucker_check": ("pairs", lambda delta: delta.k * len(delta.coords) ** 2),
}


def _public_callables(module):
    """(qualified name, owner, attribute, function, wrap kind) for one module."""
    short = module.__name__.rsplit(".", 1)[1]
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{short}.{attr}", module, attr, obj, "function"
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for name, member in vars(obj).items():
                if name.startswith("_"):
                    continue
                if isinstance(member, staticmethod):
                    yield f"{short}.{attr}.{name}", obj, name, member.__func__, "static"
                elif inspect.isfunction(member):
                    yield f"{short}.{attr}.{name}", obj, name, member, "method"


class Tracer:
    """Spans of traced calls, kept in memory until `write`."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.work: dict = {}  # (op id, "function.label") -> computed count
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return None
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            if work is not None:
                key = (self.op, f"{name}.{work[0]}")
                self.work[key] = self.work.get(key, 0) + work[1](*args, **kwargs)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "electroid_lab") -> None:
        """Wrap every public callable of the layer modules, except HOT ones and generators."""
        originals = {}
        names = []
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name, owner, attr, fn, kind in _public_callables(module):
                if name in HOT:
                    continue
                wrapper = self._wrap(name, fn)
                if wrapper is None:
                    continue
                originals[id(fn)] = wrapper
                names.append(name)
                if kind == "static":
                    setattr(owner, attr, staticmethod(wrapper))
                elif kind == "method":
                    setattr(owner, attr, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        missing = set(FUNCTIONS) - set(names)
        if missing:
            raise RuntimeError(f"functions to trace are missing: {sorted(missing)}")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


class LayerTotals:
    """Self time and calls per layer and per function, summed over batches of spans.

    A batch is one process's spans, so a parent index never leaves its batch.
    """

    def __init__(self):
        self.self_ms: dict = {}
        self.calls: dict = {}
        self.covered_s = 0.0  # time inside top-level spans
        self.spans = 0

    def add(self, spans) -> "LayerTotals":
        for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
            for key in (name.split(".", 1)[0], name):
                self.self_ms[key] = self.self_ms.get(key, 0.0) + own * 1e3
                self.calls[key] = self.calls.get(key, 0) + 1
            if parent < 0:
                self.covered_s += end - start
        self.spans += len(spans)
        return self

    def metrics(self, ops: int, op_seconds: float) -> dict:
        """Per-op metrics; op time outside every span is `untraced.self_ms_per_op`."""
        out = {}
        for key in LAYERS + FUNCTIONS:
            out[f"{key}.self_ms_per_op"] = (self.self_ms.get(key, 0.0) / ops, "ms")
            out[f"{key}.calls_per_op"] = (self.calls.get(key, 0) / ops, "count")
        out["untraced.self_ms_per_op"] = ((op_seconds - self.covered_s) * 1e3 / ops, "ms")
        out["trace.spans_per_op"] = (self.spans / ops, "count")
        return out
