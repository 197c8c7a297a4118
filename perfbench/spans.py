"""In-memory span recording for the traced benchmark run.

Spans are recorded by wrapping public functions of the program's layer
modules from the benchmark's own files (nothing under ``src/`` knows about
them). Each span carries a name, start and end (``perf_counter_ns``), the
thread CPU clock at both ends (``thread_time_ns``), the span that was open
when it started (its parent) and a request id shared by every span of one
request. Spans live in flat ``array`` columns, so a run with a million
spans stays a few tens of megabytes, and are written out once, when the
run ends.

A span's *self time* is its duration minus the part of that interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: ``(open span id, request id)`` of the running code; span ids are
#: 1-based row numbers of the log, 0 means "no span".
_CURRENT = contextvars.ContextVar("perfbench_span", default=(0, 0))


class SpanLog:
    """Column store of spans plus per-span attributes and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.cpu_start = array("q")
        self.cpu_end = array("q")
        self.parent = array("q")
        self.request = array("q")
        #: span id -> small JSON-able value (solver path, artifact kind,
        #: queries per gather) for the spans that need one.
        self.attrs: dict[int, object] = {}
        #: free-form tallies (charge outcomes and the like).
        self.counts: dict[str, int] = {}
        self._next_request = 0

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def new_request(self) -> int:
        self._next_request += 1
        return self._next_request

    def begin(self, name_id: int, parent: int, request: int) -> int:
        """Open a span; returns its 1-based id."""
        self.name.append(name_id)
        self.parent.append(parent)
        self.request.append(request)
        self.end.append(-1)
        self.cpu_end.append(-1)
        self.cpu_start.append(time.thread_time_ns())
        self.start.append(time.perf_counter_ns())
        return len(self.name)

    def finish(self, span_id: int) -> None:
        self.end[span_id - 1] = time.perf_counter_ns()
        self.cpu_end[span_id - 1] = time.thread_time_ns()

    def add(self, name, start, end, parent=0, request=0) -> int:
        """Append a finished span (used by the unit checks); its CPU
        clock reads the same as its wall clock."""
        span_id = self.begin(self.name_id(name), parent, request)
        self.start[span_id - 1] = self.cpu_start[span_id - 1] = start
        self.end[span_id - 1] = self.cpu_end[span_id - 1] = end
        return span_id

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- columns -------------------------------------------------------
    def columns(self, finished_only: bool = True) -> dict[str, np.ndarray]:
        """The spans as numpy columns (by default without unfinished
        ones)."""
        cols = {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "cpu_start": np.frombuffer(self.cpu_start, dtype=np.int64).copy(),
            "cpu_end": np.frombuffer(self.cpu_end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.request, dtype=np.int64).copy(),
        }
        cols["id"] = np.arange(1, len(cols["name"]) + 1, dtype=np.int64)
        if not finished_only:
            return cols
        done = cols["end"] >= 0
        return {key: value[done] for key, value in cols.items()}

    def select(self, name: str) -> dict[str, np.ndarray]:
        """Columns of the finished spans called ``name``."""
        cols = self.columns()
        ident = self._name_ids.get(name, -1)
        mask = cols["name"] == ident
        return {key: value[mask] for key, value in cols.items()}

    # -- persistence ---------------------------------------------------
    def save(self, path) -> None:
        """Write the spans (``.npz``) and names/attrs/counts (``.json``)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.columns(finished_only=False)
        del cols["id"]  # ids are row numbers; a reload renumbers alike
        np.savez(path.with_suffix(".npz"), **cols)
        meta = {
            "names": self.names,
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "counts": self.counts,
        }
        path.with_suffix(".json").write_text(json.dumps(meta))

    @classmethod
    def load(cls, path) -> "SpanLog":
        path = Path(path)
        meta = json.loads(path.with_suffix(".json").read_text())
        log = cls()
        for name in meta["names"]:
            log.name_id(name)
        with np.load(path.with_suffix(".npz")) as data:
            log.name.frombytes(data["name"].astype(np.int32).tobytes())
            for column in ("start", "end", "cpu_start", "cpu_end", "parent",
                           "request"):
                getattr(log, column).frombytes(
                    data[column].astype(np.int64).tobytes()
                )
        log.attrs = {int(k): v for k, v in meta["attrs"].items()}
        log.counts = meta["counts"]
        return log


def self_times(start, end, parent, ids) -> np.ndarray:
    """Self time of every span: duration minus the union of the parts of
    its interval covered by its children.

    All arguments are equal-length arrays; ``ids`` holds each span's id
    and ``parent`` the id of its parent (0 for a root). Children may
    overlap each other (concurrent async children) and may outlive their
    parent; only the covered part of the parent's interval counts.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    result = (end - start).astype(np.int64)
    position = {int(i): k for k, i in enumerate(ids)}
    has_parent = np.flatnonzero(parent > 0)
    if has_parent.size == 0:
        return result
    order = has_parent[np.lexsort((start[has_parent], parent[has_parent]))]
    current = -1
    lo = hi = 0
    covered = 0
    p_start = p_end = 0

    def settle():
        if current in position:
            k = position[current]
            result[k] -= covered + max(0, hi - lo)

    for k in order.tolist():
        pid = int(parent[k])
        if pid != current:
            if current != -1:
                settle()
            current = pid
            covered = 0
            lo = hi = 0
            p = position.get(pid)
            p_start, p_end = (
                (int(start[p]), int(end[p])) if p is not None else (0, 0)
            )
        s = max(int(start[k]), p_start)
        e = min(int(end[k]), p_end)
        if e <= s:
            continue
        if s > hi:
            covered += hi - lo
            lo, hi = s, e
        elif e > hi:
            hi = e
    settle()
    return result


# -- wrapping ------------------------------------------------------------
def _span_wrapper(log: SpanLog, name: str, fn, request_of=None, after=None):
    """Wrap ``fn`` so each call records one span named ``name``.

    ``request_of(args, kwargs)`` may name the request id for a root span
    (otherwise roots get a fresh id); ``after(span_id, args, result)``
    records attributes or counts from the call and its result.
    """
    name_id = log.name_id(name)

    def enter(args, kwargs):
        parent, request = _CURRENT.get()
        if parent == 0:
            request = (
                request_of(args, kwargs) if request_of is not None else None
            ) or log.new_request()
        span_id = log.begin(name_id, parent, request)
        return span_id, _CURRENT.set((span_id, request))

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id, token = enter(args, kwargs)
            try:
                result = await fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                log.finish(span_id)
            if after is not None:
                after(span_id, args, result)
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, token = enter(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                log.finish(span_id)
            if after is not None:
                after(span_id, args, result)
            return result

    wrapper.__perfbench_original__ = fn
    return wrapper


class Instrumentation:
    """Installs span wrappers and undoes them.

    Module-level functions are replaced in *every* loaded ``repro``
    module that holds a reference to them (``from x import f`` copies the
    binding), so callers see the wrapper whichever name they use.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, attr, name, **hooks) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, _span_wrapper(self.log, name, original, **hooks))
        self._undo.append((cls, attr, original))

    def tally(self, cls, attr, hook) -> None:
        """Wrap a method without a span: ``hook(args, result)`` runs after
        each call (for byte counts on paths too hot for a span)."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            hook(args, result)
            return result

        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    def function(self, module, attr, name, **hooks) -> None:
        original = getattr(module, attr)
        wrapper = _span_wrapper(self.log, name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
