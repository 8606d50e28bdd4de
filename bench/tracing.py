"""In-memory span tracer for the traced benchmark pass.

``Tracer.install`` wraps every public function of every loaded ``kdvlab``
module, under each name that binds it: modules import functions by name
(``flows.green_diagonal``, ``cli.evolve``, ...), so patching only the
defining module would miss most calls.  ``ResolventContext.inv_ib`` is
wrapped on the class.  Each call records a span (name, start, end, parent);
``remove`` puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "kdvlab"


class Tracer:
    def __init__(self):
        self.labels = []      # span name table
        self.name_idx = []    # per span: index into labels
        self.start = []
        self.end = []
        self.parent = []      # per span: parent span id, -1 for a root
        self._stack = []
        self._patches = []    # (owner, attribute, original)

    def _wrap(self, label, fn):
        label_id = len(self.labels)
        self.labels.append(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_idx.append(label_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()

        return traced

    def install(self):
        modules = {name: mod for name, mod in sorted(sys.modules.items())
                   if name.startswith(PACKAGE + ".") and mod is not None}
        for modname, mod in modules.items():
            short = modname[len(PACKAGE) + 1:]
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != modname):
                    continue
                wrapped = self._wrap(f"{short}.{attr}", obj)
                for owner in [sys.modules[PACKAGE], *modules.values()]:
                    for name, value in list(vars(owner).items()):
                        if value is obj:
                            self._patch(owner, name, obj, wrapped)
        from kdvlab.greens import ResolventContext

        orig = ResolventContext.__dict__["inv_ib"]
        self._patch(ResolventContext, "inv_ib", orig, self._wrap("greens.inv_ib", orig))

    def _patch(self, owner, name, original, replacement):
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def remove(self):
        """Restore every wrapped binding; True when all originals are back."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        ok = all(vars(owner)[name] is original for owner, name, original in self._patches)
        self._patches = []
        return ok

    def arrays(self):
        return {
            "labels": np.array(self.labels),
            "name_idx": np.array(self.name_idx, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())


def layer_totals(spans):
    """{span name: (calls, self seconds)}; self = duration minus child spans."""
    dur = spans["end"] - spans["start"]
    child = np.zeros(len(dur))
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    self_s = dur - child
    n = len(spans["labels"])
    calls = np.bincount(spans["name_idx"], minlength=n)
    totals = np.bincount(spans["name_idx"], weights=self_s, minlength=n)
    return {str(label): (int(calls[i]), float(totals[i]))
            for i, label in enumerate(spans["labels"])}
