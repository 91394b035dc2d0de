"""Span tracing from outside the program.

The benchmark wraps the layer-boundary functions of ``plancritic`` while a
traced pass runs and restores the original attributes afterwards; the
program itself carries no instrumentation.  A wrapper is installed on every
module attribute that holds the function (``from .x import f`` makes a copy
of the binding in each importing module) and on the class for methods.

Each call becomes a span: name, start, end, parent span, problem id, an
optional tag (the instance family for search spans) and counts taken from the
arguments or the result.  Spans stay in memory and are written out when the
benchmark ends.  A span's parent is the innermost open span of the same
thread; a thread with no open span (a batch worker) takes the innermost open
span of the thread that created the tracer, which is where the program
starts its pools.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

PACKAGE = "plancritic"


class Span:
    __slots__ = ("name", "parent", "pid", "tag", "start", "end", "counts")

    def __init__(self, name, parent, pid, tag=None, start=0.0, end=0.0, counts=None):
        self.name = name
        self.parent = parent
        self.pid = pid
        self.tag = tag
        self.start = start
        self.end = end
        self.counts = counts

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
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


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(span.start, span.end, children.get(i, ()))
        for i, span in enumerate(spans)
    ]


class Tracer:
    """Collects spans; safe to call from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def recording(self):
        """Record spans only inside this block: the benchmark's own calls into
        the program (checks, stub table) happen outside it."""
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def call(self, target: "Target", original, args, kwargs):
        if not self.enabled:
            return original(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._home and self._home_stack:
            parent = self._home_stack[-1]
        else:
            parent = None
        name = target.span_name(args, kwargs)
        pid = target.pid(args, kwargs) if target.pid else None
        if pid is None and parent is not None:
            pid = self.spans[parent].pid
        tag = target.tag(args, kwargs) if target.tag else None
        span = Span(name, parent, pid, tag)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if target.counts:
            span.counts = target.counts(args, kwargs, result)
        return result

    DUMP_FIELDS = ("phase", "id", "name", "parent", "pid", "tag", "start", "end", "counts")

    def dump(self, fh, phase: str) -> None:
        """One JSON array per span, in the order of ``DUMP_FIELDS``."""
        for i, s in enumerate(self.spans):
            row = [phase, i, s.name, s.parent, s.pid, s.tag, s.start, s.end, s.counts]
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``"module:attr"`` or ``"module:Class.method"``."""

    path: str
    name: str | Callable[[tuple, dict], str]
    counts: Callable[[tuple, dict, Any], dict] | None = None
    pid: Callable[[tuple, dict], str | None] | None = None
    tag: Callable[[tuple, dict], str | None] | None = None

    def span_name(self, args, kwargs) -> str:
        return self.name(args, kwargs) if callable(self.name) else self.name


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _make_wrapper(tracer: Tracer, target: Target, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(target, original, args, kwargs)

    return wrapper


class Patches:
    """The attributes replaced by :func:`install`, for restoring them."""

    def __init__(self):
        self.entries: list[tuple[Any, str, Any]] = []  # (owner, attribute, original)
        self.missing: list[str] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.entries):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        return all(vars(owner).get(attr) is original for owner, attr, original in self.entries)


def install(tracer: Tracer, targets: list[Target]) -> Patches:
    """Wrap every target; a target the program no longer has is skipped."""
    patches = Patches()
    modules = _package_modules()
    for target in targets:
        module_name, _, attr_path = target.path.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            patches.missing.append(target.path)
            continue
        owner_name, _, method = attr_path.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name, None)
            original = vars(cls).get(method) if inspect.isclass(cls) else None
            if original is None:
                patches.missing.append(target.path)
                continue
            patches.entries.append((cls, method, original))
            setattr(cls, method, _make_wrapper(tracer, target, original))
            continue
        original = getattr(module, attr_path, None)
        if original is None:
            patches.missing.append(target.path)
            continue
        wrapper = _make_wrapper(tracer, target, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.entries.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    return patches


@contextmanager
def installed(tracer: Tracer, targets: list[Target]):
    patches = install(tracer, targets)
    try:
        yield patches
    finally:
        patches.restore()
