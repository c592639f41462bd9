"""Spans recorded from outside the program.

The tracer replaces each public function of the traced modules with a
wrapper, at module-attribute level, in every polyflow module that holds a
reference to it (``from .x import f`` copies the reference).  It also wraps
the method ``DomainGrid.deriv``.  Nothing under ``src/`` is edited.

Each call records a span: name, start, end and the index of the enclosing
span.  Spans stay in memory until :meth:`Tracer.write` and
:meth:`Tracer.aggregate` run after the workload.
"""

from __future__ import annotations

import functools
import sys
import time
import types


class Tracer:
    def __init__(self):
        self.names = []  # name per span id
        self.span_name = []  # index into self.names, per span
        self.parent = []  # enclosing span id, -1 at the root
        self.start = []
        self.end = []
        self.outermost = []  # no enclosing span of the same name
        self.counters = {}  # counts kept by observers
        self.state = {}  # values observers share
        self._stack = [-1]
        self._active = []  # open spans per name id

    def wrap(self, fn, name: str, observe=None):
        """Wrapper recording a span per call; ``observe(args, kwargs,
        result)`` runs after the span closes."""
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        outermost, stack, active = self.outermost, self._stack, self._active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            outermost.append(active[nid] == 0)
            end.append(0)
            stack.append(i)
            active[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                active[nid] -= 1
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str, layers, methods=(), observers=None):
        """Wrap the public functions of ``package.<layer>`` for each layer,
        and each ``(layer, class name, method)`` in ``methods``.

        Spans are named ``<layer>.<function>``; a method span is named
        ``<layer>.<method>``.
        """
        observers = observers or {}
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for layer in layers:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(fn, name, observers.get(name))
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, wrapper)
        for layer, cls_name, method in methods:
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            name = f"{layer}.{method}"
            setattr(cls, method,
                    self.wrap(getattr(cls, method), name, observers.get(name)))

    def write(self, path) -> None:
        """All spans as CSV: id, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (nid, p, s, e) in enumerate(
                    zip(self.span_name, self.parent, self.start, self.end)):
                fh.write(f"{i},{p},{self.names[nid]},{s},{e}\n")

    def aggregate(self, within: str = None) -> dict:
        """Per name: ``calls``, ``total_s`` (outermost spans only) and
        ``self_s`` (span minus its direct children).

        With ``within``, also ``calls_within``: the calls made inside a
        span named ``within``.
        """
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        wid = self.names.index(within) if within in self.names else -1
        inside = [False] * n
        out = {name: {"calls": 0, "calls_within": 0, "self_s": 0.0, "total_s": 0.0}
               for name in self.names}
        for i in range(n):
            p = self.parent[i]
            inside[i] = p >= 0 and (inside[p] or self.span_name[p] == wid)
            rec = out[self.names[self.span_name[i]]]
            rec["calls"] += 1
            rec["calls_within"] += inside[i]
            rec["self_s"] += (dur[i] - child[i]) * 1e-9
            if self.outermost[i]:
                rec["total_s"] += dur[i] * 1e-9
        return out
