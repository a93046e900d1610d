"""Spans around every call into a public function of each library layer.

A layer is a module of the library; its public functions are the plain
functions named in its ``__all__``.  :meth:`Tracer.install` replaces each of
them, in every library module that refers to it, by a wrapper that records a
span: name, start, end, parent span, request id and whether it returned.
Calls between layers (``transport`` asking ``chambers.same_chamber``,
``cohomology`` evaluating ``chambers.wall_margin``) are therefore traced too,
and a layer's self time excludes the time of the spans it caused.  Spans are
kept in flat arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("chambers", "realize", "stable", "cohomology", "cone")
REFERRERS = ("", ".chambers", ".realize", ".stable", ".cohomology", ".cone", ".cli")
PACKAGE = "stablegons"


class Tracer:
    def __init__(self):
        self.names = []
        self.fn = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.ok = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._request = -1
        self._wrappers = {}
        self._patched = []
        self._request_names = {}
        self.origin = perf_counter()

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _begin(self, name_id):
        i = len(self.fn)
        self.fn.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.ok.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _finish(self, i, ok):
        self.end[i] = perf_counter()
        self.ok[i] = ok
        self._stack.pop()

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(name_id)
            ok = 0
            try:
                out = fn(*args, **kwargs)
                ok = 1
                return out
            finally:
                finish(i, ok)

        return traced

    def install(self):
        """Route every public layer function through a span-recording wrapper."""
        if not self._wrappers:
            for layer in LAYERS:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
                for attr in mod.__all__:
                    obj = getattr(mod, attr)
                    if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                        self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for suffix in REFERRERS:
            mod = importlib.import_module(PACKAGE + suffix)
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(mod, attr, self._wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def run_request(self, workload, request_id, call):
        """Run call() inside a request span named after the workload."""
        if workload not in self._request_names:
            self._request_names[workload] = self._name_id(f"request.{workload}")
        self._request = request_id
        i = self._begin(self._request_names[workload])
        ok = 0
        try:
            out = call()
            ok = 1
            return out
        finally:
            self._finish(i, ok)
            self._request = -1

    # -- aggregation ------------------------------------------------------

    def durations(self, name, workload, ok=True):
        """Durations (s) of spans of `name` called directly by a request of `workload`."""
        want = self.names.index(name)
        req = self._request_names.get(workload)
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.fn))
            if self.fn[i] == want
            and self.ok[i] == ok
            and self.parent[i] >= 0
            and self.fn[self.parent[i]] == req
        ]

    def layer_totals(self, workloads):
        """Per layer: (self time in s, number of spans) within requests of `workloads`."""
        roots = {self._request_names[w] for w in workloads if w in self._request_names}
        child = [0.0] * len(self.fn)
        root = list(range(len(self.fn)))
        for i in range(len(self.fn)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                root[i] = root[p]  # a parent always precedes its children
        busy, calls = {}, {}
        for i in range(len(self.fn)):
            if self.fn[root[i]] not in roots:
                continue
            layer = self.names[self.fn[i]].split(".", 1)[0]
            busy[layer] = busy.get(layer, 0.0) + (self.end[i] - self.start[i]) - child[i]
            calls[layer] = calls.get(layer, 0) + 1
        return busy, calls

    def write(self, path, extra):
        """Write every span, column by column, plus `extra`, as gzipped JSON."""
        doc = {
            "names": self.names,
            "fn": list(self.fn),
            "parent": list(self.parent),
            "request": list(self.request),
            "ok": list(self.ok),
            "start_s": [round(t - self.origin, 7) for t in self.start],
            "end_s": [round(t - self.origin, 7) for t in self.end],
        }
        doc.update(extra)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
