"""Outside-in tracer for redconn.

Nothing inside the program is edited.  ``Tracer.install`` wraps every public
function and method defined in the ``redconn`` modules, rebinds each wrapped
name in every module namespace that imported it with ``from ... import``, and
wraps the numpy/scipy kernels redconn calls through module attributes
(``np.linalg.lstsq``, ``scipy.linalg.expm``, ...).  ``uninstall`` puts every
original back.

Spans live in flat in-memory arrays (name id, parent id, start, end).  Self
time is a span's duration minus the durations of its direct children; calls
run on one thread, so children never overlap.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time
from collections import Counter

import numpy as np

REDCONN_MODULES = ("liealg", "linalg", "phasespace", "connections", "orbits",
                   "reduction", "curvature", "pipeline", "report", "cli")

# numpy/scipy entry points redconn reaches through module attributes.
KERNELS = (("numpy.linalg", "lstsq"), ("numpy.linalg", "svd"), ("numpy.linalg", "solve"),
           ("numpy.linalg", "inv"), ("scipy.linalg", "expm"),
           ("scipy.linalg", "expm_frechet"))

# Methods whose return value is a callable that is itself traced under the
# given span name (the memoizing closure of ``lift_field``).
TRACED_RESULTS = {"reduction.SigmaGeometry.lift_field": "reduction.lift_field.closure"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, span_name: str):
        nid = self._name_id(span_name)
        result_name = TRACED_RESULTS.get(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if result_name is not None:
                out = self.wrap(out, result_name)
            return out

        return traced

    def span(self, span_name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._name_id(span_name))

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {short: importlib.import_module(f"redconn.{short}") for short in REDCONN_MODULES}
        namespaces = [importlib.import_module("redconn"), *mods.values()]
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self.wrap(fn, f"{short}.{attr}.{meth}"))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(ns, attr, wrapped[id(obj)])
        for modname, attr in KERNELS:
            mod = importlib.import_module(modname)
            self._set(mod, attr, self.wrap(getattr(mod, attr), f"kernel.{attr}"))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, value = self._originals.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; per (parent, child)
        name pair: the number of child calls made directly under that parent."""
        if len(self._stack) != 1:
            raise RuntimeError("summary requested while a span is still open")
        k = len(self.names)
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        spans = {self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                                 "self_s": float(own[i])}
                 for i in range(k) if calls[i]}
        pairs, counts = np.unique(name[parent[nested]] * k + name[nested], return_counts=True)
        edges = sorted([self.names[p // k], self.names[p % k], int(n)]
                       for p, n in zip(pairs.tolist(), counts))
        return {"spans": spans, "edges": edges}

    def dump(self, path: str) -> None:
        """Write every span as parallel arrays (``numpy.load`` reads them back)."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.start)
        t.name.append(self.nid)
        t.parent.append(t._stack[-1])
        t.end.append(0.0)
        t._stack.append(self.sid)
        t.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.sid] = time.perf_counter()
        t._stack.pop()
        return False


def merge_summaries(parts: list) -> dict:
    """Add span summaries from several tracers (one per CLI process)."""
    spans: dict[str, dict] = {}
    edges: Counter = Counter()
    for part in parts:
        for name, rec in part["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        for p, c, n in part["edges"]:
            edges[(p, c)] += n
    return {"spans": spans, "edges": [[p, c, n] for (p, c), n in sorted(edges.items())]}
