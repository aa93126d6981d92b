"""Span tracing of capelli's layers from outside the library.

Each layer is one or more functions. A wrapper is installed at every name a
capelli module looks the function up by (for example both
`capelli.verify.diag_highest_weight` and its home
`capelli.weights.diag_highest_weight`), or on the class for a method. Each
call records a span (id, parent id, layer, start, end) in memory; the spans
are written out after the pass. A layer whose function no longer exists is
reported absent instead of failing, so later refactors run under the same
benchmark.

Metrics per layer, over the spans that are not nested in a span of the same
layer:
  calls           number of such spans
  s               their summed duration (inclusive)
  self_s          duration minus the time covered by direct child spans,
                  each child's wrapper work included
  distinct_ratio  distinct argument tuples / calls
  hit_ratio       share of calls that opened no child span, i.e. were
                  served without building anything
  cells           sum of rows * (cols + 1) of the solved systems
"""

import gzip
import importlib
import json
import re
import sys
import time

# name, home module, attribute (or "Class.method"), stats to report
LAYERS = (
    ("weights.diag_highest_weight", "capelli.weights", "diag_highest_weight",
     ("calls", "s", "distinct_ratio")),
    ("borel.weyl_vector", "capelli.borel", "weyl_vector", ("calls", "s")),
    # Every public map constructor of capelli.tau: see _map_constructors.
    ("tau.map_build", "capelli.tau", None, ("calls", "s")),
    ("tau.AffineMap.apply", "capelli.tau", "AffineMap.apply", ("calls", "s")),
    ("partitions.frobenius_coords", "capelli.partitions", "frobenius_coords",
     ("calls", "s")),
    ("sympoly.evaluate", "capelli.sympoly", "SparsePolynomial.evaluate",
     ("calls", "s", "distinct_ratio")),
    ("weights.highest_weight", "capelli.weights", "highest_weight", ("calls", "s")),
    ("isjp.interpolation_polynomial", "capelli.isjp", "interpolation_polynomial",
     ("calls", "self_s", "hit_ratio")),
    ("sympoly.lambda_basis", "capelli.sympoly", "lambda_basis", ("calls", "self_s")),
    ("exact_linalg.nullspace_basis", "capelli.exact_linalg", "nullspace_basis",
     ("calls", "s")),
    ("exact_linalg.solve_linear", "capelli.exact_linalg", "solve_linear",
     ("calls", "s", "cells")),
    ("verify.run_sweep", "capelli.verify", "run_sweep", ("self_s",)),
)

COUNT_STATS = ("calls", "distinct_ratio", "hit_ratio", "cells")
UNITS = {"calls": "count", "s": "s", "self_s": "s", "distinct_ratio": "ratio",
         "hit_ratio": "ratio", "cells": "count"}

_MAP_NAME = re.compile(r"(?:^|_)map(?:_|$)")


def _map_constructors(module):
    """Public functions defined in capelli.tau whose name has the word
    `map`: standard_map, eigenvalue_map_*, forced_kernel_map, diag_map_*."""
    return [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and _MAP_NAME.search(name)
        and callable(value)
        and getattr(value, "__module__", None) == module.__name__
        and not isinstance(value, type)
    ]


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def _arg_key(args, kwargs):
    key = (_freeze(args), _freeze(kwargs))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


def _cells(args, kwargs):
    matrix = args[0] if args else kwargs.get("matrix")
    rows = getattr(matrix, "rows", 0)
    cols = getattr(matrix, "cols", 0)
    return rows * (cols + 1)


class Tracer:
    """Holds the spans of one traced pass. Spans are tuples (span_id,
    parent_id, layer_index, start_ns, end_ns, arg_key, cells, enter_ns,
    leave_ns): [start, end] times the wrapped call, [enter, leave] the whole
    wrapper."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []
        self.stack = [0]
        self.next_id = 1
        self.absent = []

    def install(self):
        for index, (name, home, attr, stats) in enumerate(LAYERS):
            try:
                module = importlib.import_module(home)
            except ImportError:
                self.absent.append(name)
                continue
            attrs = _map_constructors(module) if attr is None else [attr]
            done = [self._wrap(module, a, index, stats) for a in attrs]
            if not any(done):
                self.absent.append(name)

    def _wrap(self, module, attr, index, stats):
        owner_name, _, func_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, func_name, None) if owner is not None else None
        if not callable(original):
            return False
        wrapper = self._wrapper(original, index, "distinct_ratio" in stats,
                                "cells" in stats)
        if owner_name:
            setattr(owner, func_name, wrapper)
            return True
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "capelli" and not mod_name.startswith("capelli."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        return True

    def _wrapper(self, fn, index, want_key, want_cells):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            enter = clock()
            key = _arg_key(args, kwargs) if want_key else None
            cells = _cells(args, kwargs) if want_cells else 0
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, index, start, end, key, cells,
                              enter, clock()))

        traced.__wrapped__ = fn
        return traced

    def metrics(self):
        """Per-layer metrics named `<layer>.<stat>`; absent layers read 0."""
        by_id = {span[0]: span for span in self.spans}
        child_ns = {}
        has_child = set()
        for _, parent, _, _, _, _, _, enter, leave in self.spans:
            if parent:
                # The child's whole footprint, wrapper work included, so a
                # parent's self time holds none of the tracer's own cost.
                child_ns[parent] = child_ns.get(parent, 0) + (leave - enter)
                has_child.add(parent)
        acc = [
            {"calls": 0, "ns": 0, "self_ns": 0, "keys": set(), "hits": 0, "cells": 0}
            for _ in LAYERS
        ]
        for span_id, parent, index, start, end, key, cells, _, _ in self.spans:
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[2] != index:
                ancestor = by_id.get(ancestor[1])
            if ancestor is not None:
                continue  # nested in the same layer: counted by the outer span
            a = acc[index]
            a["calls"] += 1
            a["ns"] += end - start
            a["self_ns"] += end - start - child_ns.get(span_id, 0)
            a["keys"].add(key)
            a["hits"] += span_id not in has_child
            a["cells"] += cells
        out = {}
        for (name, _, _, stats), a in zip(LAYERS, acc):
            calls = a["calls"]
            values = {
                "calls": calls,
                "s": a["ns"] / 1e9,
                "self_s": a["self_ns"] / 1e9,
                "distinct_ratio": len(a["keys"]) / calls if calls else 0.0,
                "hit_ratio": a["hits"] / calls if calls else 0.0,
                "cells": a["cells"],
            }
            for stat in stats:
                out[f"{name}.{stat}"] = values[stat]
        return out

    def write(self, path):
        names = [layer[0] for layer in LAYERS]
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span_id, parent, index, start, end, *_ in self.spans:
                out.write(json.dumps({
                    "trace": self.trace_id, "span": span_id, "parent": parent,
                    "name": names[index], "start_ns": start, "end_ns": end,
                }) + "\n")
