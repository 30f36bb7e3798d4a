"""Tracing from outside the program: wrap conjlab's public functions, record
spans in memory, count scalar operations and enumerated items, and put
every patched attribute back afterwards.

Modules bind kernels by name (``from .matrix import rank``), so a wrapper is
installed under every name, in every conjlab module, that refers to the
original.  ``Matrix.__matmul__`` is patched on the class.  Scalar operations
of GF, QQ and QQ(t) and the items of generator functions are counted, not
timed.  Self time is a span's duration minus the durations of its child
spans.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from array import array

FIELD_KEYS = {"gf:2": "gf2", "qq": "qq", "qq_t": "qqt"}  # any other GF(p) is "gfp"
MATRIX_OPS = ("rank_and_rref", "det", "inverse", "char_poly", "eigen_data", "matmul")
VERIFY_FAMILIES = {
    "verify_commutator_scalar": "commutator",
    "verify_conjugation_identity": "conj",
    "verify_equivariance": "equivariance",
    "verify_rank_bound_samples": "rankbound",
}
SPAN_MODULES = ("pencil", "orbits", "chains", "coordpoly", "graphs", "jsonio")
METHOD_DUNDERS = {"__add__", "__sub__", "__neg__", "__mul__", "__matmul__"}
SCALAR_OPS = {"GF": "gf", "QQ": "qq", "QQT": "qqt"}

_WRAPPER = "__perfbench_wrapper__"


def field_key(field) -> str:
    return FIELD_KEYS.get(field.name, "gfp")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._stack = [-1]
        self.task_id = -1
        self._counters: dict[str, itertools.count] = {}
        self._patches: list[tuple] = []  # (namespace dict owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _spanned(self, fn, namer):
        """Wrap fn so that each call records a span named namer(args)."""
        names, parents, tasks = self.span_name, self.span_parent, self.span_task
        t0s, t1s, stack, clock = self.span_t0, self.span_t1, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(t0s)
            names.append(namer(args))
            parents.append(stack[-1])
            tasks.append(self.task_id)
            t1s.append(0.0)
            stack.append(i)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()

        return self._mark(wrapper, fn)

    def _counter(self, key: str):
        return self._counters.setdefault(key, itertools.count()).__next__

    def _counted(self, fn, key):
        tick = self._counter(key)
        if fn.__code__.co_argcount == 3:  # add(self, a, b), mul(self, a, b): the hot case
            def wrapper(s, a, b):
                tick()
                return fn(s, a, b)
        else:
            def wrapper(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)

        return self._mark(wrapper, fn)

    def _counted_gen(self, fn, key):
        tick = self._counter(key)

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tick()
                yield item

        return self._mark(wrapper, fn)

    @staticmethod
    def _mark(wrapper, fn):
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__wrapped__ = fn
        setattr(wrapper, _WRAPPER, True)
        return wrapper

    def counts(self) -> dict[str, int]:
        """Read every counter once; the tracer is finished afterwards."""
        return {k: next(c) for k, c in self._counters.items()}

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper):
        """Install wrapper under every name that refers to fn in a conjlab module."""
        for mod in _conjlab_modules():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)

    def _fixed(self, name):
        i = self._id(name)
        return lambda args: i

    def _per_field(self, prefix):
        ids = {}

        def namer(args):
            fname = args[0].field.name
            i = ids.get(fname)
            if i is None:
                i = ids[fname] = self._id(f"{prefix}.{field_key(args[0].field)}")
            return i

        return namer

    def install(self):
        mods = {m.__name__.split(".", 1)[1]: m for m in _conjlab_modules()}
        fields, matrix = mods["fields"], mods["matrix"]
        for cls_name, key in SCALAR_OPS.items():
            cls = getattr(fields, cls_name)
            for op in ("add", "mul", "inv"):
                self._set(cls, op, self._counted(cls.__dict__[op], f"fields.{key}.{op}.calls"))
        make = fields.RatFunc.__dict__["make"]
        self._set(fields.RatFunc, "make",
                  staticmethod(self._counted(make.__func__, "fields.qqt.make.calls")))
        for op in MATRIX_OPS[:-1]:
            fn = getattr(matrix, op)
            self._rebind(fn, self._spanned(fn, self._per_field(f"matrix.{op}")))
        self._set(matrix.Matrix, "__matmul__",
                  self._spanned(matrix.Matrix.__matmul__, self._per_field("matrix.matmul")))
        verify = mods.get("verify")
        if verify is not None:
            part = {"a": self._id("verify.char2a"), "b": self._id("verify.char2b")}
            char2 = verify.verify_char2
            self._rebind(char2, self._spanned(char2, lambda args: part[args[0]]))
            for fname, family in VERIFY_FAMILIES.items():
                fn = getattr(verify, fname)
                self._rebind(fn, self._spanned(fn, self._fixed(f"verify.{family}")))
        for short in SPAN_MODULES:
            mod = mods.get(short)
            if mod is None:
                continue
            for name, fn in _public_functions(mod):
                if inspect.isgeneratorfunction(fn):
                    self._rebind(fn, self._counted_gen(fn, f"{short}.{name}.yielded"))
                else:
                    self._rebind(fn, self._spanned(fn, self._fixed(f"{short}.{name}")))
            if short in ("pencil", "orbits", "jsonio"):
                continue
            for cls in _own_classes(mod):
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_") and name not in METHOD_DUNDERS:
                        continue
                    span = self._fixed(f"{short}.{cls.__name__}.{name}")
                    if inspect.isfunction(attr):
                        self._set(cls, name, self._spanned(attr, span))
                    elif isinstance(attr, staticmethod):
                        self._set(cls, name, staticmethod(self._spanned(attr.__func__, span)))

    def restore(self) -> bool:
        """Undo every patch, newest first; True when nothing traced is left."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(owner.__dict__[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        for mod in _conjlab_modules():
            for holder in [mod] + list(_own_classes(mod)):
                for val in vars(holder).values():
                    inner = val.__func__ if isinstance(val, staticmethod) else val
                    if getattr(inner, _WRAPPER, False):
                        ok = False
        return ok

    # -- results --------------------------------------------------------------

    def aggregate(self, task_scale) -> dict:
        """Per-name calls, inclusive time, self time and first-call time, and
        per-module self time and inclusive time of the outermost spans.  Each
        span's duration is multiplied by task_scale[its task], so that times
        are at the same reference speed as the pass's wall time."""
        n = len(self.span_t0)
        names, parents = self.span_name, self.span_parent
        dur = [(t1 - t0) * task_scale[task] for t0, t1, task
               in zip(self.span_t0, self.span_t1, self.span_task)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        group = [nm.split(".", 1)[0] for nm in self.names]
        by_name: dict[str, dict] = {}
        by_group: dict[str, dict] = {}
        for i in range(n):
            nid, p = names[i], parents[i]
            name, g = self.names[nid], group[nid]
            rec = by_name.get(name)
            if rec is None:
                rec = by_name[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "first_s": dur[i]}
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if p < 0 or names[p] != nid:
                rec["s"] += dur[i]
            grec = by_group.setdefault(g, {"s": 0.0, "self_s": 0.0})
            grec["self_s"] += dur[i] - child[i]
            if p < 0 or group[names[p]] != g:
                grec["s"] += dur[i]
        return {"names": by_name, "groups": by_group, "spans": n}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span\tparent\ttask\tname\tt0\tt1\n")
            for i in range(len(self.span_t0)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.span_task[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.span_t0[i]:.9f}\t"
                         f"{self.span_t1[i]:.9f}\n")


def _conjlab_modules():
    return [m for name, m in list(sys.modules.items())
            if name.startswith("conjlab.") and m is not None]


def _public_functions(mod):
    return [(name, fn) for name, fn in list(vars(mod).items())
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__
            and not name.startswith("_")]


def _own_classes(mod):
    return [c for c in vars(mod).values()
            if inspect.isclass(c) and c.__module__ == mod.__name__]
