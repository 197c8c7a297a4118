"""Micro-batching for the mechanism-serving pipeline.

The sampling layer is fastest when it is fed *batches*: one
:meth:`repro.sampling.alias.HeterogeneousAliasSampler.sample` call draws
for thousands of queries — across deployments of different ``n`` and
``alpha`` — in a single fused numpy gather. Individual serving requests,
however, arrive one at a time on an asyncio loop. The
:class:`MicroBatcher` bridges the two: concurrent requests park on
futures while their ``(table, row)`` pairs accumulate, and the batch is
executed as one gather when

* the **size bound** is hit (``max_size`` pending queries), or
* the **event loop goes idle** (``window == 0``, the default): the first
  query of a batch schedules the flush with ``loop.call_soon``, so it
  runs right after every callback that was already ready in the same
  loop turn. Concurrent work still fuses — the callers one flush wakes
  all resubmit before the next flush, and requests that became ready
  while a group-commit fsync blocked the loop share the next batch —
  but a lone request never waits on a timer; or
* the **deadline** fires (``window > 0``: ``window`` seconds after the
  first query of the batch arrived), which parks queries on purpose.

``max_size == 1`` is unbatched execution (every query is its own gather,
flushed through the size path), which is exactly the baseline
``benchmarks/bench_serving.py`` measures micro-batching against.

The executor callback is synchronous and must never block the loop for
long — the intended executor is a pure alias-table gather plus counter
updates (see :meth:`repro.serving.server.MechanismServer`).

Telemetry: ``stats`` is derived from one tally of queries, flushes by
reason and power-of-two batch sizes; when a
:class:`repro.obs.Telemetry` is attached, flushes also land in the
metrics registry (folded from that tally at scrape time) and — for
requests being traced — a ``batch.flush`` span is broadcast to every
traced request fused into the batch (the batcher binds the batch's
trace contexts around ``execute``, so spans opened inside it, like the
group-commit fsync and the fused gather, join every one of those
traces).
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable

import numpy as np

from ..exceptions import ValidationError
from ..obs.metrics import TallyFold
from ..release.durable_ledger import NO_FAULTS

__all__ = ["DEFAULT_BATCH_WINDOW", "MicroBatcher"]

#: Flush reasons tracked in ``stats["flush_reasons"]``. ``idle`` is the
#: ``window == 0`` flush once the loop has no more ready work;
#: ``deadline`` the ``window > 0`` timer; ``manual`` covers direct
#: ``flush()`` calls (drain paths).
FLUSH_REASONS = ("max_size", "idle", "deadline", "manual", "close")

#: The batch window every serving entry point defaults to (the server,
#: ``repro serve --batch-window`` and fleet workers): flush on idle.
DEFAULT_BATCH_WINDOW = 0.0

#: Batch-size tally slots: slot ``i < 15`` counts batches of at most
#: ``2**i`` rows (and more than half that), slot 15 larger ones — the
#: buckets of the ``repro_batch_size`` histogram.
_SIZE_SLOTS = 16


class MicroBatcher:
    """Coalesce concurrent queries into fused sampler executions.

    Parameters
    ----------
    execute:
        ``execute(tables, rows) -> values``: one vectorized tick over
        equal-length int64 arrays, returning one output per query.
        Raising makes every query of the batch fail with that exception.
    window:
        ``0`` (default) flushes once the event loop has run every
        callback that was ready when the batch's first query arrived;
        a positive value is a fixed deadline in seconds from that first
        query to the flush.
    max_size:
        Flush immediately once this many queries are pending (``1``
        is unbatched service).
    telemetry:
        Optional :class:`repro.obs.Telemetry`; adds flush metrics and
        batch-scoped trace spans. ``None`` keeps the batcher free of
        any observability work.

    Stats (``stats`` dict): ``queries``, ``batches``, ``size_flushes``,
    ``deadline_flushes`` (timer flushes only), ``max_batch``, plus
    ``flush_reasons`` (counts per :data:`FLUSH_REASONS`) and
    ``occupancy`` (power-of-two batch size buckets: key ``"1"`` counts
    1-row batches, ``"2"`` 2-row, ``"4"`` 3-4, doubling up to
    ``"8192"``, then ``"16384+"`` for anything larger).
    """

    def __init__(
        self,
        execute: Callable[[np.ndarray, np.ndarray], np.ndarray],
        *,
        window: float = DEFAULT_BATCH_WINDOW,
        max_size: int = 4096,
        faults=None,
        telemetry=None,
    ) -> None:
        if window < 0:
            raise ValidationError(f"window must be >= 0, got {window}")
        if max_size < 1:
            raise ValidationError(f"max_size must be >= 1, got {max_size}")
        self._execute = execute
        self.faults = NO_FAULTS if faults is None else faults
        self.window = float(window)
        self.max_size = int(max_size)
        self.telemetry = telemetry
        self._pending: list[tuple[int, int, asyncio.Future]] = []
        self._traced: list = []
        # The scheduled flush of the open batch: a ``call_soon`` handle
        # (idle flush) or a ``call_later`` one (deadline).
        self._timer: asyncio.Handle | None = None
        self._queries = 0
        # High-water mark of parked queries: the admission controller
        # bounds in-flight publishes, and this is the observable proof
        # the bound held (peak_pending <= queue depth + the executing
        # batch).
        self._peak_pending = 0
        self._max_batch = 0
        self._rows = 0
        self._flushes = {reason: 0 for reason in FLUSH_REASONS}
        self._sizes = [0] * _SIZE_SLOTS
        if telemetry is not None:
            self._fold = TallyFold()
            telemetry.registry.register_collector(self._fold_counts)

    @property
    def stats(self) -> dict:
        """A fresh dict derived from the tally."""
        flushes = self._flushes
        sizes = self._sizes
        occupancy = {str(1 << i): sizes[i] for i in range(_SIZE_SLOTS - 2)}
        occupancy["16384+"] = sizes[-2] + sizes[-1]
        return {
            "queries": self._queries,
            "batches": sum(flushes.values()),
            "size_flushes": flushes["max_size"],
            "deadline_flushes": flushes["deadline"],
            "max_batch": self._max_batch,
            "peak_pending": self._peak_pending,
            "flush_reasons": dict(flushes),
            "occupancy": occupancy,
        }

    def _fold_counts(self) -> None:
        obs = self.telemetry
        for reason, count in self._flushes.items():
            self._fold.counter(obs.batch_flushes, (reason,), count)
        self._fold.histogram(obs.batch_size, self._sizes, self._rows)

    @property
    def pending(self) -> int:
        """Queries currently parked awaiting a flush."""
        return len(self._pending)

    async def submit(self, table: int, row: int, trace=None) -> int:
        """Enqueue one query and await its sampled output.

        ``trace`` optionally carries the submitting request's
        :class:`repro.obs.TraceContext`, so batch-scoped spans from the
        flush that serves this query are recorded under its trace ID.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((int(table), int(row), future))
        if trace is not None:
            self._traced.append(trace)
        self._queries += 1
        if len(self._pending) > self._peak_pending:
            self._peak_pending = len(self._pending)
        if len(self._pending) >= self.max_size:
            self.flush(reason="max_size")
        elif self._timer is None:
            if self.window > 0:
                self._timer = loop.call_later(
                    self.window, self.flush, "deadline"
                )
            else:
                self._timer = loop.call_soon(self.flush, "idle")
        return await future

    def flush(self, reason: str = "manual") -> None:
        """Execute everything pending as one fused tick (no-op if empty).

        Safe to call at any time — shutdown paths use it to drain the
        queue without waiting for the scheduled flush.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        traced, self._traced = self._traced, []
        if not pending:
            return
        size = len(pending)
        self._flushes[reason] += 1
        self._sizes[min((size - 1).bit_length(), _SIZE_SLOTS - 1)] += 1
        self._rows += size
        if size > self._max_batch:
            self._max_batch = size
        tables = np.fromiter(
            (item[0] for item in pending), dtype=np.int64, count=len(pending)
        )
        rows = np.fromiter(
            (item[1] for item in pending), dtype=np.int64, count=len(pending)
        )
        obs = self.telemetry
        batch_token = None
        if obs is not None and traced:
            batch_token = obs.tracer.activate_batch(traced)
        t0 = time.perf_counter() if obs is not None else 0.0
        try:
            span = (
                obs.tracer.span(
                    "batch.flush", size=len(pending), reason=reason
                )
                if batch_token is not None
                else None
            )
            try:
                if span is not None:
                    span.__enter__()
                self.faults.crash("batcher.before-execute")
                values = self._execute(tables, rows)
                self.faults.crash("batcher.after-execute")
            except BaseException as err:  # noqa: BLE001 - must not strand futures
                # InjectedCrash (and real crashes like KeyboardInterrupt)
                # tear through `except Exception` everywhere else, but a
                # flush may run from a timer callback where nothing
                # awaits it — re-raising would strand every parked
                # future forever. Failing the futures *is* the
                # propagation path.
                if span is not None:
                    span.__exit__(type(err), err, None)
                for _, _, future in pending:
                    if not future.done():
                        future.set_exception(err)
                return
            if span is not None:
                span.__exit__(None, None, None)
        finally:
            if batch_token is not None:
                obs.tracer.deactivate_batch(batch_token)
        if obs is not None:
            obs.batch_flush_latency.observe(time.perf_counter() - t0)
        for (_, _, future), value in zip(pending, values):
            # A caller may have timed out / been cancelled mid-batch;
            # its slot was still sampled (the gather is all-or-nothing)
            # but nobody is waiting for the result.
            if not future.done():
                future.set_result(int(value))

    def close(self) -> None:
        """Cancel the scheduled flush and fail anything still pending."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        self._traced = []
        for _, _, future in pending:
            if not future.done():
                future.set_exception(
                    RuntimeError("micro-batcher closed with queries pending")
                )
