"""Span tracing of the library from outside it.

The tracer replaces every public function of every loaded ``bipermute``
module, and two hot methods, with a wrapper that records one span per call:
name, start, end, parent span and op id.  A name brought in with
``from .x import f`` is a separate module attribute, so every attribute that
holds the original function is replaced, in every module.  Spans are kept in
flat arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

PACKAGE = "bipermute"

# (module, class, method) wrapped in addition to the module-level functions
METHODS = (("matrices", "Matrix", "make"), ("quotients", "CongruenceQuotient", "class_of"))

SEARCH = "permutability.find_preserving_permutation"
MAT_MUL = "matrices.mat_mul"


def _outcome(result):
    strategy = getattr(result, "strategy", None)
    if strategy is not None:
        return "permutability.outcome." + strategy
    if type(result).__name__ == "IdentityOnly":
        return "permutability.outcome.identity_only"
    return None


# exact counters keyed off a call's arguments or result, beside the spans
ARG_TAGS = {MAT_MUL: lambda args: f"{MAT_MUL}.calls.n{args[0].n}"}
RESULT_TAGS = {SEARCH: _outcome, "quotients.kerperm_find_swap": _outcome}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.current = -1
        self.op_id = -1
        self.tags: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        span_name, start, end, parent, ops = self.span_name, self.start, self.end, self.parent, self.op
        tags = self.tags
        arg_tag = ARG_TAGS.get(label)
        result_tag = RESULT_TAGS.get(label)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            up = tracer.current
            span_name.append(nid)
            parent.append(up)
            ops.append(tracer.op_id)
            end.append(0.0)
            tracer.current = idx
            if arg_tag is not None:
                tags[arg_tag(args)] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                tracer.current = up
            if result_tag is not None:
                key = result_tag(result)
                if key is not None:
                    tags[key] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the loaded package, in every module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            raw = cls.__dict__[meth]
            label = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(label, raw.__func__))
            else:
                new = self._wrap(label, raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Exact call counts, self times, and products per search (overall and per op).

        A span's self time is its duration minus the durations of its direct
        children.  Parents always have a lower index than their children, so
        one descending pass sees every child before its parent.
        """
        n = len(self.span_name)
        names, span_name, start, end, parent, ops = (
            self.names, self.span_name, self.start, self.end, self.parent, self.op)
        child = [0.0] * n
        calls = Counter()
        self_s = Counter()
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            name = names[span_name[i]]
            calls[name] += 1
            self_s[name] += dur - child[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
        search_id = names.index(SEARCH) if SEARCH in names else -1
        mul_id = names.index(MAT_MUL) if MAT_MUL in names else -1
        in_search = bytearray(n)
        products_by_op: Counter = Counter()
        for i in range(n):
            p = parent[i]
            if span_name[i] == search_id or (p >= 0 and in_search[p]):
                in_search[i] = 1
                if span_name[i] == mul_id:
                    products_by_op[ops[i]] += 1
        return {"spans": n, "calls": calls, "self_s": self_s, "tags": self.tags,
                "products_by_op": products_by_op}

    def write(self, path: Path) -> None:
        """Spans as raw native-order columns plus a JSON header naming them."""
        columns = [("name", self.span_name), ("start", self.start), ("end", self.end),
                   ("parent", self.parent), ("op", self.op)]
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "columns": [{"name": c, "typecode": a.typecode, "itemsize": a.itemsize} for c, a in columns],
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(path.with_suffix(".spans"), "wb") as fh:
            for _, a in columns:
                a.tofile(fh)
