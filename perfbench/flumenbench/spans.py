"""In-memory span recording for the benchmark's traced run.

A :class:`SpanRecorder` times calls into the program by wrapping them
from the outside: a class attribute or module attribute (process-wide,
for objects the program builds internally) or an attribute of an object
the benchmark built itself (per instance).  Nothing under ``src/`` is
edited; :meth:`SpanRecorder.patch` restores every wrapped attribute on
exit.

Each span records its name, start and end (``perf_counter_ns``), the
index of the span that was open when it began (its parent, ``-1`` for a
root), and the id of the operation it belongs to (a sweep point or a
serve session), which its children share.  Spans live in flat typed
arrays, so a serve pass with about a million per-cycle spans costs tens
of megabytes, not hundreds.  Self times are derived from the stored
spans afterwards (:func:`self_times`), not accumulated while running,
and the table is checked for the nesting that makes them meaningful.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

_MISSING = object()


class SpanRecorder:
    """Flat span store plus the counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[str] = []
        self.counts: Counter[str] = Counter()
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and counters (names and ops are kept)."""
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack: list[int] = []
        self.op = -1
        self.counts.clear()

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        """Stable integer id of a span name."""
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def begin_op(self, label: str) -> None:
        """Following spans belong to the operation ``label``."""
        self.op = len(self.ops)
        self.ops.append(label)

    def open(self, ident: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_id.append(ident)
        self.parent.append(stack[-1] if stack else -1)
        self.op_id.append(self.op)
        self.end.append(0)
        stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def add_leaves(self, name: str, starts, ends) -> None:
        """Record closed spans ``name`` over ``[starts[i], ends[i])``
        after the fact, each under the innermost recorded span that
        contains it: work that interrupted the program between two
        recorded timestamps, such as a host-clock probe."""
        ident = self.intern(name)
        start, end, parent = self.start, self.end, self.parent
        recorded = len(start)
        for begin, finish in zip(starts, ends):
            index = bisect_right(start, begin, 0, recorded) - 1
            while index >= 0 and end[index] < finish:
                index = parent[index]
            self.name_id.append(ident)
            self.start.append(begin)
            self.end.append(finish)
            self.parent.append(index)
            self.op_id.append(self.op_id[index] if index >= 0 else -1)

    def innermost(self) -> str | None:
        """Name of the innermost open span, if any."""
        if not self._stack:
            return None
        return self.names[self.name_id[self._stack[-1]]]

    @contextmanager
    def span(self, name: str):
        index = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` timed as span ``name``.

        ``before(args)`` runs ahead of the span and its result is handed
        to ``after(state, args, result)``, which runs once the span has
        closed; both feed :attr:`counts`, outside the timed interval.
        """
        ident = self.intern(name)
        open_, close = self.open, self.close

        if before is None and after is None:
            def traced(*args, **kwargs):
                index = open_(ident)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(index)
            return traced

        def traced_counted(*args, **kwargs):
            state = before(args) if before is not None else None
            index = open_(ident)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if after is not None:
                after(state, args, result)
            return result
        return traced_counted

    def timed(self, name: str, before=None, after=None):
        """Factory for :meth:`patch`: wrap the original as span ``name``."""
        return lambda fn: self.wrap(fn, name, before, after)

    @contextmanager
    def patch(self, targets):
        """Replace ``owner.attr`` by ``make(original)`` for each
        ``(owner, attr, make)`` target.

        On exit every attribute is restored: a class or module gets its
        original object back, an instance loses the shadowing attribute.
        """
        saved = []
        try:
            for owner, attr, make in targets:
                saved.append((owner, attr,
                              vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, make(getattr(owner, attr)))
            yield
        finally:
            for owner, attr, own in reversed(saved):
                if own is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)

    # -- export ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The span table as numpy arrays (one row per span)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        """Write the span table to ``path`` (``.npz``) with its name and
        operation tables stored as JSON beside the arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tables = json.dumps({"names": self.names, "ops": self.ops})
        np.savez(path, tables=np.array(tables), **self.arrays())


def self_times(spans: dict[str, np.ndarray], names: list[str]
               ) -> tuple[dict[str, int], list[str]]:
    """Per-name self time (ns) of one traced pass, and what is wrong
    with its span table.

    A span's self time is its duration minus the durations of its direct
    children.  That is the part of the span no child covers only when
    the table is well formed: every span closed, exactly one root (the
    pass), every child inside its parent, and no two children of one
    parent overlapping.  Each violation is listed in the returned
    problems; the self times are then not to be trusted.
    """
    start, end, parent = spans["start_ns"], spans["end_ns"], spans["parent"]
    problems = []
    if (end < start).any() or (end == 0).any():
        problems.append("unclosed span")
    roots = int((parent < 0).sum())
    if roots != 1:
        problems.append(f"{roots} root spans, not 1")
    inner = np.flatnonzero(parent >= 0)
    outer = parent[inner]
    if ((start[inner] < start[outer]) | (end[inner] > end[outer])).any():
        problems.append("a child span lies outside its parent")
    order = np.lexsort((start[inner], outer))
    siblings = outer[order][1:] == outer[order][:-1]
    if (start[inner][order][1:][siblings]
            < end[inner][order][:-1][siblings]).any():
        problems.append("sibling spans overlap")
    duration = end - start
    child = np.zeros_like(duration)
    np.add.at(child, outer, duration[inner])
    by_name = np.zeros(len(names), dtype=np.int64)
    np.add.at(by_name, spans["name_id"], duration - child)
    return ({name: int(by_name[i]) for i, name in enumerate(names)},
            problems)
