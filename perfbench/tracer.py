"""Outside-in tracing of curalg: spans around the calls into each layer.

``instrument`` replaces the public functions of curalg's modules (and a
few hot methods) with wrappers that record a span: name, start, end and
the span that was open when it began.  curalg's source is untouched;
the wrappers live only in the traced worker process.  Spans stay in
flat arrays in memory and are written out once, after the run.

A span's self time is its duration minus the durations of its direct
children.  Every span belongs to one layer (the first part of its
name); the root span ``verify`` wraps the timed call, and its self time
is the time no layer boundary covered (``unattributed_s``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# layer -> modules whose public functions are wrapped
_MODULES = {
    "report": ("curalg.report",),
    "boson": ("curalg.boson.checks", "curalg.boson.contraction", "curalg.boson.currents",
              "curalg.boson.kernel", "curalg.boson.master"),
    "trigcalc": ("curalg.trigcalc",),
    "structfn": ("curalg.structfn",),
    "evalrep": ("curalg.evalrep",),
    "hopf": ("curalg.hopf",),
    "intertwine": ("curalg.intertwine",),
}

# Methods that carry the layers' pointwise and construction work.
_METHODS = {
    "boson": (("curalg.boson.contraction", "ClosedForm",
               ("value", "exp_value", "residue_at", "pole_catalog")),),
    "trigcalc": (("curalg.trigcalc", "DistExpr",
                  ("__init__", "eval", "residue", "plemelj_reduce")),),
    "structfn": (("curalg.structfn", "StructureRatio", ("eval", "rational_eval")),),
}

# Leaf helpers left unwrapped: each is a few arithmetic operations called
# once per primitive or factor, so a span would cost more than the work
# and split their caller's self time into noise.
_LEAVES = {"curalg.trigcalc.var", "curalg.boson.master.master_integral",
           "curalg.boson.master.i0_closed", "curalg.boson.master.exp_master",
           "curalg.boson.master.exp_i0", "curalg.evalrep.matrix_unit"}


def pair_key(x, y, *_rest, **_kw) -> tuple:
    """An ordered current pair with its variable names abstracted."""
    names: dict[str, int] = {}

    def arg(a):
        return (tuple((names.setdefault(n, len(names)), c) for n, c in a.vars),
                a.q, a.lattice, a.t)

    return (x.kind, x.j, x.slot, arg(x.arg), y.kind, y.j, y.slot, arg(y.arg))


class Tracer:
    """Spans in flat arrays: name id, parent index, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rejects: Counter = Counter()       # span name -> ArithmeticError raised
        self.distinct: dict[str, set] = {}       # span name -> distinct argument keys
        self._stack = [-1]

    def wrap(self, fn, name: str, key=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, rejects, clock = self.start, self.end, self.rejects, time.perf_counter
        keys = self.distinct.setdefault(name, set()) if key else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(key(*args, **kwargs))
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except ArithmeticError:
                rejects[name] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside one span named ``name``."""
        return self.wrap(fn, name)(*args)

    def stats(self, root: str = "verify") -> dict[str, dict]:
        """Per span name inside the last ``root`` span: calls, self and
        total seconds, ArithmeticErrors raised, distinct argument keys."""
        import numpy as np

        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        t0 = np.frombuffer(self.start, dtype=np.float64)
        t1 = np.frombuffer(self.end, dtype=np.float64)
        dur = t1 - t0
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        root_idx = int(np.flatnonzero(nid == self.names.index(root))[-1])
        inside = (t0 >= t0[root_idx]) & (t1 <= t1[root_idx])
        size = len(self.names)
        calls = np.bincount(nid[inside], minlength=size)
        self_s = np.bincount(nid[inside], weights=own[inside], minlength=size)
        total_s = np.bincount(nid[inside], weights=dur[inside], minlength=size)
        return {name: {"n": int(calls[k]), "self_s": float(self_s[k]),
                       "total_s": float(total_s[k]), "rejects": self.rejects[name],
                       "distinct": len(self.distinct.get(name, ()))}
                for k, name in enumerate(self.names) if calls[k]}

    def dump(self, path: str) -> None:
        """Write every span out (numpy .npz: names, name_id, parent, start, end)."""
        import numpy as np

        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64))


def instrument(tracer: Tracer):
    """Wrap curalg's layer boundaries in ``tracer`` spans.

    Returns a function that puts every original back.
    """
    import importlib

    patched: list[tuple[object, str, object]] = []   # (owner, attribute, original)

    def patch(owner, attr, wrapped):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    importlib.import_module("curalg.cli")    # loads every layer
    curalg_modules = [m for n, m in sys.modules.items() if n.startswith("curalg") and m]
    for layer, modules in _MODULES.items():
        for mod_name in modules:
            mod = sys.modules[mod_name]
            for attr, fn in list(vars(mod).items()):
                full = f"{mod_name}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod_name or full in _LEAVES):
                    continue
                short = mod_name.split(".")[-1] if layer == "boson" else None
                name = ".".join(p for p in (layer, short, attr) if p)
                key = pair_key if full == "curalg.boson.checks.pair_exponent" else None
                wrapped = tracer.wrap(fn, name, key)
                # every module that imported the function by name holds its own reference
                for holder in curalg_modules:
                    for hattr, val in list(vars(holder).items()):
                        if val is fn:
                            patch(holder, hattr, wrapped)
    for layer, entries in _METHODS.items():
        for mod_name, cls_name, methods in entries:
            cls = getattr(sys.modules[mod_name], cls_name)
            for meth in methods:
                patch(cls, meth, tracer.wrap(getattr(cls, meth), f"{layer}.{cls_name}.{meth}"))
    suites = sys.modules["curalg.report"]._SUITE_FNS
    originals = dict(suites)
    for suite, fn in originals.items():
        suites[suite] = tracer.wrap(fn, f"report.suite.{suite}")

    def restore() -> None:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)
        suites.update(originals)

    return restore
