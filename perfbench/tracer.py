"""Span tracer that wraps hexpack's module-level functions from outside.

The program itself is not instrumented.  For each traced function the
tracer replaces every binding of that function object in the loaded
``hexpack`` modules (the defining module and every module that imported
the name), so a call is recorded whichever module makes it.  A name that
no longer exists is skipped and simply reports zero calls.

A span records its name, start, end and the span that caused it.  Span
stacks are per thread; a span opened on a worker thread with an empty
stack is attributed to the innermost span open on the main thread, which
is the search that handed the work to the pool.  A span's self time is
its duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter

PACKAGE = "hexpack"

# (defining module, function name, note): note maps a call's result to
# one number kept on the span, or is None.
SPANS = (
    ("search", "build_ledger", None),
    ("search", "replay_witness", None),
    ("search", "save_checkpoint", None),
    ("search", "load_checkpoint", None),
    ("search", "find_grow_order", lambda r: r.nodes),
    ("moves", "enumerate_moves", len),
    ("moves", "apply_move", None),
    ("hexmodel", "check_conformity", lambda r: 0 if r.ok else 1),
    ("hexmodel", "extract_boundary", None),
    ("surface", "canonical_code", None),
    ("surface", "build_pattern", None),
    ("geometry", "init_interior", None),
    ("geometry", "optimize_embedding", lambda r: r.iterations),
    ("formats", "parse_mesh", None),
)

# Counted on the enclosing enumerate_moves span, without a span of their
# own, so that candidate validation stays in the moves layer's self time.
CANDIDATE_CHECK = ("moves", "_realize")
ENUMERATE = "moves.enumerate_moves"


class Span:
    __slots__ = ("name", "start", "end", "parent", "note", "tried", "realized")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.note = None
        self.tried = self.realized = 0


class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`uninstall`."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._main_thread = threading.current_thread()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if threading.current_thread() is self._main_thread:
            return None
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def _span_wrapper(self, name, fn, note):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, self._parent(stack))
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                spans.append(span)
            if note is not None:
                try:
                    span.note = note(result)
                except (AttributeError, TypeError):
                    span.note = None
            return result

        return traced

    def _candidate_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            stack = self._stack()
            if stack and stack[-1].name == ENUMERATE:
                stack[-1].tried += 1
                if result is not None:
                    stack[-1].realized += 1
            return result

        return counted

    def install(self):
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        targets = [(m, f, True, note) for m, f, note in SPANS]
        targets.append(CANDIDATE_CHECK + (False, None))
        for modname, fname, as_span, note in targets:
            home = sys.modules.get(f"{PACKAGE}.{modname}")
            original = getattr(home, fname, None) if home else None
            if not callable(original):
                continue
            if as_span:
                wrapper = self._span_wrapper(f"{modname}.{fname}", original, note)
            else:
                wrapper = self._candidate_wrapper(original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _under(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


class Summary:
    """Per-name call counts, inclusive and self seconds, notes and ratios."""

    def __init__(self, spans):
        children = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append((s.start, s.end))
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.notes = {}
        self.tried = self.realized = 0
        self.expanded = self.successors = 0
        self.codes_in_enumerate = 0
        for s in spans:
            dur = s.end - s.start
            own = dur - _covered(s.start, s.end, children.get(id(s), ()))
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.total_s[s.name] = self.total_s.get(s.name, 0.0) + dur
            self.self_s[s.name] = self.self_s.get(s.name, 0.0) + own
            if s.note is not None:
                self.notes[s.name] = self.notes.get(s.name, 0) + s.note
            if s.name == ENUMERATE:
                self.tried += s.tried
                self.realized += s.realized
                if _under(s, "search.build_ledger"):
                    self.expanded += 1
                    self.successors += s.note or 0
            elif s.name == "surface.canonical_code" and s.parent is not None:
                if s.parent.name == ENUMERATE:
                    self.codes_in_enumerate += 1

    def table(self):
        """{name: {calls, total_s, self_s}} for the result file."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
        }
