"""Span recorder for the traced run.

Tracing wraps the public functions of the program's modules from the
outside: every module attribute that refers to one of them (the defining
module and every module that imported it by name) is replaced by a wrapper
that records one span per call, with its name, start, end, parent span and
the operation it belongs to.  Generator functions get one span whose
duration is the time spent inside the generator, whatever the consumer does
between items.  Spans stay in memory and are written out when the run ends.
Nothing under `src/` changes; `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "parent", "name", "op", "start", "end", "busy", "info")

    def __init__(self, sid, parent, name, op):
        self.id, self.parent, self.name, self.op = sid, parent, name, op
        self.start = self.end = time.perf_counter()
        self.busy = 0.0
        self.info = {}


class Recorder:
    """Spans of the calls made while an operation is open (`op` not None)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None          # label of the timed operation in progress
        self.op_vars = None     # template variables of the update in progress
        self.bindings = set()   # their distinct WHERE bindings
        self._patched = []

    def _open(self, name):
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, name, self.op)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span, t0):
        t1 = time.perf_counter()
        span.busy += t1 - t0
        span.end = t1
        self.stack.pop()

    def wrap(self, name, fn, describe=None, label=None):
        rec = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if rec.op is None:
                    yield from fn(*args, **kwargs)
                    return
                # The span is on the stack only while the generator runs.
                span = rec._open(name)
                rec.stack.pop()
                it = fn(*args, **kwargs)
                n = 0
                while True:
                    rec.stack.append(span)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        rec._close(span, t0)
                        break
                    except BaseException:
                        rec._close(span, t0)
                        raise
                    rec._close(span, t0)
                    n += 1
                    span.info["items"] = n
                    if describe is not None:
                        describe(rec, span, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op is None:
                return fn(*args, **kwargs)
            span = rec._open(label(args) if label else name)
            t0 = span.start
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._close(span, t0)
            if describe is not None:
                describe(rec, span, (args, out))
            return out
        return wrapper

    def patch(self, fn, wrapper):
        """Point every `rdfsupd` module attribute that names `fn` at `wrapper`."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "rdfsupd":
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn))

    def patch_method(self, cls, attr, wrapper):
        self._patched.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- derived figures ---------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per span name, minus the time covered by child spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.busy
        out = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.busy - child[s.id]
        return dict(out)

    def write(self, path, failed_ops):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "op": s.op,
                    "start": s.start, "end": s.end, "busy": s.busy,
                    "failed_op": s.op in failed_ops, **s.info,
                }) + "\n")
