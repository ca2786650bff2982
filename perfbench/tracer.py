"""Spans around the public functions of each ferrers_lab module.

Only traced runs import this module.  ``install`` wraps every public
function defined in a traced module, plus a few hot methods, and rebinds
the wrapper at every name that held the original: the modules import
functions by name (``from .trees import tau``), so patching only the
defining module would miss most calls.  Module-level dicts that hold
functions (the CLI's bound table) are patched too.

A span is (name, start, end, id, parent id, run id, error, work): times in
nanoseconds, the run id is the index of the CLI operation it belongs to,
and ``work`` is a per-function count such as scalar multiplications.
``aggregate`` turns spans into per-function and per-module numbers; self
time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("search", "graphs", "trees", "exactla", "resistance", "spectral",
           "conjectures", "cli")

#: (module, class, method) -> span name within the module
METHODS = {
    ("exactla", "RatMatrix", "__matmul__"): "matmul",
    ("exactla", "RatMatrix", "matvec"): "matvec",
    ("graphs", "BipartiteGraph", "is_connected"): "is_connected",
}


def _matmul_work(args, result):
    a, b = args
    return a.nrows * a.ncols * b.ncols


#: span name -> work(args, result); recorded only when the call returns
WORK = {
    "exactla.matmul": _matmul_work,
    "search.enumerate_class": lambda args, result: len(result),
    "graphs.is_connected": lambda args, result: int(result),
}


class Tracer:
    """In-memory span recorder; one per traced interpreter."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.run_id = 0
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error, amount = 1, 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = 0
                if work is not None:
                    amount = work(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((idx, start, end, sid, parent, self.run_id, error, amount))

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


def install(tracer: Tracer):
    """Wrap the traced functions and methods of the imported package."""
    package = [mod for name, mod in sys.modules.items()
               if name == "ferrers_lab" or name.startswith("ferrers_lab.")]
    wrapped = {}
    for short in MODULES:
        mod = sys.modules["ferrers_lab." + short]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = tracer.wrap("%s.%s" % (short, name), obj)
    for mod in package:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if id(value) in wrapped:
                        obj[key] = wrapped[id(value)]
    for (short, cls_name, method), label in METHODS.items():
        cls = getattr(sys.modules["ferrers_lab." + short], cls_name)
        setattr(cls, method,
                tracer.wrap("%s.%s" % (short, label), getattr(cls, method)))


def _bits(names, wanted):
    mask = 0
    for idx, name in enumerate(names):
        if name in wanted:
            mask |= 1 << idx
    return mask


def aggregate(names, spans) -> dict:
    """Per-function and per-module numbers of one traced pass.

    Returns {"functions": {name: {calls, self_s, total_s, errors, work}},
    "modules": {module: self_s}, "derived": {...}}.  ``total_s`` counts
    only the outermost span of a name, so recursion is not double counted.
    """
    spans = sorted(spans, key=lambda s: s[3])
    enum_bit = _bits(names, {"search.enumerate_class"})
    ginv_bits = _bits(names, {"exactla.moore_penrose_laplacian",
                              "exactla.bordered_ginverse"})
    inverse_idx = names.index("exactla.inverse") if "exactla.inverse" in names else -1
    child_ns = {}
    path = {-1: 0}
    name_of = {}
    for idx, start, end, sid, parent, _run, _err, _work in spans:
        child_ns[parent] = child_ns.get(parent, 0) + end - start
        path[sid] = path[parent] | 1 << idx
        name_of[sid] = idx
    funcs = {}
    classes = dedupe_inputs = connectivity_tests = connected_kept = 0
    build_ns = 0
    for idx, start, end, sid, parent, _run, err, work in spans:
        name = names[idx]
        dur = end - start
        entry = funcs.setdefault(
            name, {"calls": 0, "self_ns": 0, "total_ns": 0, "errors": 0, "work": 0}
        )
        entry["calls"] += 1
        entry["self_ns"] += dur - child_ns.get(sid, 0)
        if not path[parent] >> idx & 1:
            entry["total_ns"] += dur
        entry["errors"] += err
        entry["work"] += work
        if name == "search.enumerate_class":
            classes += work
        inside_enum = path[parent] & enum_bit
        if inside_enum and name == "search.canonical_code":
            dedupe_inputs += 1
        if inside_enum and name == "graphs.is_connected":
            connectivity_tests += 1
            connected_kept += work
        if idx == inverse_idx and parent >= 0 and ginv_bits >> name_of[parent] & 1:
            build_ns += dur
    ginv_ns = sum(funcs.get(n, {}).get("total_ns", 0)
                  for n in ("exactla.moore_penrose_laplacian", "exactla.bordered_ginverse"))
    modules = {mod: 0 for mod in MODULES}
    for name, entry in funcs.items():
        modules[name.split(".")[0]] += entry["self_ns"]
    return {
        "functions": {
            name: {
                "calls": e["calls"],
                "self_s": e["self_ns"] / 1e9,
                "total_s": e["total_ns"] / 1e9,
                "errors": e["errors"],
                "work": e["work"],
            }
            for name, e in sorted(funcs.items())
        },
        "modules": {mod: ns / 1e9 for mod, ns in modules.items()},
        "derived": {
            "search.classes": classes,
            "search.dedupe_inputs": dedupe_inputs,
            "search.connectivity_tests": connectivity_tests,
            "search.connected_kept": connected_kept,
            "exactla.ginverse.build_s": build_ns / 1e9,
            "exactla.ginverse.verify_s": (ginv_ns - build_ns) / 1e9,
        },
    }
