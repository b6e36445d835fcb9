"""Span tracer that wraps pengeo's public functions from outside the package.

Each wrapped call records one span ``[name, start, end, parent, rows]``:
``parent`` is the index of the enclosing span (-1 for none) and ``rows`` the
length of the call's batch argument where it has one.  Spans stay in memory
until the caller summarizes or dumps them.  A wrapper only reads the clock
around the original call, so traced and untraced runs compute bitwise
identical results.

A function is replaced in every ``pengeo`` module namespace that holds it
under any name (``optimizer.penalized_forms`` as well as
``geometry.penalized_forms``), because callers bind the name at import.  A
target that no longer exists is listed in ``Tracer.absent`` instead of
raising, so the tracer survives refactors of the package.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Target:
    """One callable to trace.

    ``attr`` is a module attribute (``"penalized_forms"``) or a method given
    as ``"Class.method"``; ``rows_arg`` names the parameter whose ``len`` is
    recorded as the span's row count.
    """

    module: str
    attr: str
    span: str
    rows_arg: Optional[str] = None


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []
        self._patches: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(name, None)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _open(self, name, rows) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, rows])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _install(self) -> None:
        self.absent = []
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "pengeo" or name.startswith("pengeo."))
        ]
        for target in self.targets:
            try:
                owner = importlib.import_module(target.module)
                cls_name, _, method = target.attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name)
                original = getattr(owner, method)
            except (ImportError, AttributeError):
                self.absent.append(target.span)
                continue
            wrapper = self._wrap(target, original)
            if cls_name:
                self._patch(owner, method, original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, fn):
        rows_index = None
        if target.rows_arg is not None:
            try:
                params = list(inspect.signature(fn).parameters)
                rows_index = params.index(target.rows_arg)
            except ValueError:
                rows_index = None
        rows_arg = target.rows_arg if rows_index is not None else None
        name = target.span

        def traced(*args, **kwargs):
            rows = None
            if rows_arg is not None:
                batch = args[rows_index] if len(args) > rows_index else kwargs.get(rows_arg)
                rows = None if batch is None else len(batch)
            idx = self._open(name, rows)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced


def summarize(spans: list, first: int, last: int) -> dict:
    """Per-name totals over ``spans[first:last]``, the spans of one unit.

    Returns ``{name: {"calls", "rows", "s", "self_s"}}``.  ``s`` is the
    inclusive time, counting a span nested in one of the same name only
    once; ``self_s`` subtracts the time covered by direct child spans.
    """
    child_time: dict = defaultdict(float)
    for name, start, end, parent, _ in spans[first:last]:
        if parent >= first:
            child_time[parent] += end - start
    out: dict = {}
    for i in range(first, last):
        name, start, end, parent, rows = spans[i]
        entry = out.setdefault(name, {"calls": 0, "rows": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["rows"] += rows or 0
        entry["self_s"] += (end - start) - child_time[i]
        if not _inside(spans, parent, first, lambda other: other == name):
            entry["s"] += end - start
    return out


def prefix_time(spans: list, prefix: str, first: int, last: int) -> float:
    """Time in ``spans[first:last]`` named ``prefix...``, nested ones counted once."""
    total = 0.0
    for i in range(first, last):
        name, start, end, parent, _ = spans[i]
        if name.startswith(prefix) and not _inside(
            spans, parent, first, lambda other: other.startswith(prefix)
        ):
            total += end - start
    return total


def _inside(spans, idx, first, match) -> bool:
    while idx >= first:
        if match(spans[idx][0]):
            return True
        idx = spans[idx][3]
    return False
