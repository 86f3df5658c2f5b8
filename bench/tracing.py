"""Spans recorded around the program's layers, for the traced run.

The tracer wraps the public functions of degengeo's layers, the family
evaluators, the report writers and the dense factorizations of numpy and
scipy. Each call records a span: its name, start, end and the span that was
open when it began (its parent); the root of every span is the op that
caused it. Spans stay in memory, in flat arrays, until the run ends.

A function is wrapped under every name its callers look it up by: the
package namespace and each layer module that imports it. For example
`degengeo.weyl.collapse_projection` and `degengeo.cli.sw_decompose_general`
are the names those modules call, so both are replaced.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("matrixio", "models", "spectra", "projection", "swtransform",
          "splitting", "weyl", "cli")

#: Dense O(n^3) factorizations counted where the package calls them.
FACTORIZATIONS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
                  ("numpy.linalg", "svd"), ("scipy.linalg", "schur"))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo = []
        #: Spans are recorded only while this is set; calls outside the
        #: traced rounds (checks, untraced rounds) pass straight through.
        self.enabled = False

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def run_op(self, kind, call):
        """Call an op as a root span named op.<kind>."""
        idx = self._open(self._id(f"op.{kind}"))
        try:
            return call()
        finally:
            self._close(idx)

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def install(self):
        import importlib

        import degengeo
        from degengeo.matrixio import RunReport
        from degengeo.splitting import FamilyHandle
        from degengeo.weyl import ParamFamily

        modules = [importlib.import_module(f"degengeo.{m}") for m in LAYERS]
        public = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            exported = getattr(mod, "__all__", ["main"])
            for attr in exported:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    public[id(fn)] = f"{short}.{attr}"
        for namespace in (degengeo, *modules):
            for attr, value in list(vars(namespace).items()):
                if id(value) in public:
                    self._patch(namespace, attr, public[id(value)])
        for cls, attr, name in (
                (RunReport, "to_json", "matrixio.RunReport.to_json"),
                (RunReport, "to_text", "matrixio.RunReport.to_text"),
                (FamilyHandle, "__call__", "splitting.family_eval"),
                (ParamFamily, "__call__", "weyl.family_eval")):
            self._patch(cls, attr, name)
        for module_name, attr in FACTORIZATIONS:
            self._patch(importlib.import_module(module_name), attr,
                        f"linalg.{attr}")

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        return name_id, parent, start, end

    def summary(self):
        """Per span name: calls, inclusive ms and self ms (the span's
        duration minus the part its child spans cover); and the same split
        by the op kind at each span's root."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        root = np.where(has_parent, parent, np.arange(len(parent)))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        per_name = {}
        per_op = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            if not mask.any():
                continue
            per_name[name] = {
                "calls": int(mask.sum()),
                "incl_ms": float(dur[mask].sum() * 1e3),
                "self_ms": float(self_time[mask].sum() * 1e3),
            }
            for rid in np.unique(name_id[root[mask]]):
                sel = mask & (name_id[root] == rid)
                per_op.setdefault(self.names[rid], {})[name] = {
                    "calls": int(sel.sum()),
                    "self_ms": float(self_time[sel].sum() * 1e3),
                }
        return per_name, per_op

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)
