"""Tests for the serving micro-batcher."""

import asyncio
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.obs import MetricsRegistry, Telemetry
from repro.serving.batching import MicroBatcher


class Recorder:
    """An executor that records every tick it is handed."""

    def __init__(self, fail=None):
        self.ticks = []
        self.fail = fail

    def __call__(self, tables, rows):
        if self.fail is not None:
            raise self.fail
        self.ticks.append((tables.copy(), rows.copy()))
        # Deterministic output: value = 10*table + row.
        return tables * 10 + rows


def run(coro):
    return asyncio.run(coro)


class TestValidation:
    def test_negative_window_rejected(self):
        with pytest.raises(ValidationError):
            MicroBatcher(Recorder(), window=-0.001)

    def test_zero_max_size_rejected(self):
        with pytest.raises(ValidationError):
            MicroBatcher(Recorder(), max_size=0)


class TestFlushTriggers:
    def test_empty_flush_is_a_noop(self):
        recorder = Recorder()
        batcher = MicroBatcher(recorder)
        batcher.flush()
        assert recorder.ticks == []
        assert batcher.stats["batches"] == 0

    def test_single_query_deadline_flush(self):
        recorder = Recorder()
        batcher = MicroBatcher(recorder, window=0.001, max_size=100)

        async def go():
            return await batcher.submit(0, 3)

        assert run(go()) == 3
        assert batcher.stats["deadline_flushes"] == 1
        assert batcher.stats["size_flushes"] == 0
        assert len(recorder.ticks) == 1

    def test_size_bound_flushes_without_waiting(self):
        recorder = Recorder()
        # A window far too long to ever fire in this test: if the size
        # bound did not flush, the gather below would time out.
        batcher = MicroBatcher(recorder, window=60.0, max_size=4)

        async def go():
            return await asyncio.wait_for(
                asyncio.gather(*[batcher.submit(0, r) for r in range(4)]),
                timeout=5.0,
            )

        assert run(go()) == [0, 1, 2, 3]
        assert batcher.stats["size_flushes"] == 1
        assert batcher.stats["max_batch"] == 4

    def test_max_size_one_is_unbatched(self):
        recorder = Recorder()
        batcher = MicroBatcher(recorder, max_size=1)

        async def go():
            return await asyncio.gather(
                *[batcher.submit(0, r) for r in range(3)]
            )

        assert run(go()) == [0, 1, 2]
        # Every query was its own tick, flushed through the size path.
        assert batcher.stats["batches"] == 3
        assert batcher.stats["size_flushes"] == 3
        assert all(len(t) == 1 for t, _ in recorder.ticks)

    def test_mixed_deployments_fuse_into_one_tick(self):
        recorder = Recorder()
        batcher = MicroBatcher(recorder, window=0.005, max_size=100)

        async def go():
            return await asyncio.gather(
                batcher.submit(0, 1),
                batcher.submit(2, 5),
                batcher.submit(1, 0),
            )

        assert run(go()) == [1, 25, 10]
        assert len(recorder.ticks) == 1
        tables, rows = recorder.ticks[0]
        assert tables.tolist() == [0, 2, 1]
        assert rows.tolist() == [1, 5, 0]
        assert tables.dtype == np.int64


def forbid_timers(loop):
    """Make any ``call_later`` on ``loop`` fail the test."""

    def call_later(*args, **kwargs):
        raise AssertionError("the idle flush must not arm a timer")

    loop.call_later = call_later


class TestIdleFlush:
    def test_one_loop_turn_is_one_idle_flush(self):
        recorder = Recorder()
        batcher = MicroBatcher(recorder)

        async def go():
            forbid_timers(asyncio.get_running_loop())
            return await asyncio.gather(
                *[batcher.submit(r % 3, r) for r in range(50)]
            )

        assert run(go()) == [10 * (r % 3) + r for r in range(50)]
        assert len(recorder.ticks) == 1
        assert batcher.stats["batches"] == 1
        reasons = batcher.stats["flush_reasons"]
        assert reasons["idle"] == 1
        assert sum(reasons.values()) == 1
        assert batcher.stats["deadline_flushes"] == 0

    def test_lone_submit_resolves_without_a_wall_clock_wait(self):
        batcher = MicroBatcher(Recorder())

        async def go():
            forbid_timers(asyncio.get_running_loop())
            task = asyncio.ensure_future(batcher.submit(1, 4))
            await asyncio.sleep(0)  # the submit parks, scheduling its flush
            assert batcher.pending == 1
            for _ in range(2):
                await asyncio.sleep(0)
            assert task.done()
            return task.result()

        assert run(go()) == 14
        assert batcher.stats["flush_reasons"]["idle"] == 1

    def test_submits_ready_during_a_blocking_execute_share_a_batch(self):
        # The first tick blocks the loop like a group-commit fsync; a
        # thread makes five submits ready meanwhile. They all run in the
        # loop turn after the flush, so they fuse into one batch.
        latecomers = []
        recorder = Recorder()

        def arrive(loop):
            for r in range(5):
                loop.call_soon_threadsafe(
                    lambda r=r: latecomers.append(
                        asyncio.ensure_future(batcher.submit(2, r))
                    )
                )

        def execute(tables, rows):
            if not recorder.ticks:
                worker = threading.Thread(
                    target=arrive, args=(asyncio.get_running_loop(),)
                )
                worker.start()
                worker.join()  # the "fsync": the loop is blocked
            return recorder(tables, rows)

        batcher = MicroBatcher(execute)

        async def go():
            first = await batcher.submit(0, 7)
            while len(latecomers) < 5:
                await asyncio.sleep(0)
            return first, await asyncio.gather(*latecomers)

        assert run(go()) == (7, [20, 21, 22, 23, 24])
        assert [len(t) for t, _ in recorder.ticks] == [1, 5]
        assert batcher.stats["flush_reasons"]["idle"] == 2

    @settings(max_examples=60, deadline=None)
    @given(
        groups=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(0, 5), st.integers(0, 9)
                    ),
                    min_size=1,
                    max_size=12,
                ),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=8,
        ),
        max_size=st.integers(1, 8),
    )
    def test_batches_partition_queries_in_order(self, groups, max_size):
        recorder = Recorder()
        batcher = MicroBatcher(recorder, max_size=max_size)
        queries = [query for group, _ in groups for query in group]

        async def go():
            tasks = []
            for group, turns in groups:
                tasks.extend(
                    asyncio.ensure_future(batcher.submit(table, row))
                    for table, row in group
                )
                for _ in range(turns):
                    await asyncio.sleep(0)
            return await asyncio.gather(*tasks)

        values = run(go())
        assert values == [10 * table + row for table, row in queries]
        fused = [
            (int(t), int(r))
            for tables, rows in recorder.ticks
            for t, r in zip(tables, rows)
        ]
        assert fused == queries
        assert all(0 < len(t) <= max_size for t, _ in recorder.ticks)
        assert batcher.stats["batches"] == len(recorder.ticks)
        assert batcher.stats["deadline_flushes"] == 0


class TestFailureModes:
    def test_executor_exception_fails_the_whole_batch(self):
        boom = RuntimeError("sampler exploded")
        batcher = MicroBatcher(Recorder(fail=boom), window=0.001)

        async def go():
            results = await asyncio.gather(
                batcher.submit(0, 1),
                batcher.submit(0, 2),
                return_exceptions=True,
            )
            return results

        results = run(go())
        assert all(r is boom for r in results)

    def test_close_fails_pending_queries(self):
        batcher = MicroBatcher(Recorder(), window=60.0, max_size=100)

        async def go():
            task = asyncio.ensure_future(batcher.submit(0, 1))
            await asyncio.sleep(0)  # let the submit park
            assert batcher.pending == 1
            batcher.close()
            with pytest.raises(RuntimeError, match="closed"):
                await task

        run(go())
        assert batcher.pending == 0

    def test_cancelled_caller_does_not_poison_the_batch(self):
        recorder = Recorder()
        batcher = MicroBatcher(recorder, window=0.005, max_size=100)

        async def go():
            doomed = asyncio.ensure_future(batcher.submit(0, 1))
            survivor = asyncio.ensure_future(batcher.submit(0, 2))
            await asyncio.sleep(0)
            doomed.cancel()
            return await survivor

        assert run(go()) == 2
        # The cancelled slot was still part of the fused gather.
        assert len(recorder.ticks[0][0]) == 2


class TestStats:
    def test_counts_accumulate(self):
        batcher = MicroBatcher(Recorder(), window=0.001, max_size=2)

        async def go():
            await asyncio.gather(*[batcher.submit(0, r % 2) for r in range(4)])
            await batcher.submit(0, 0)

        run(go())
        stats = batcher.stats
        assert stats["queries"] == 5
        assert stats["size_flushes"] == 2
        assert stats["deadline_flushes"] == 1
        assert stats["batches"] == 3
        assert stats["max_batch"] == 2

    def test_batch_above_8192_rows_lands_in_the_top_bucket(self):
        """A 9,000-row batch resolves every caller: the occupancy tally
        has a slot for 8,193-16,384 rows, reported under ``16384+`` and
        folded into the ``le="16384"`` batch-size bucket."""
        telemetry = Telemetry(MetricsRegistry())
        batcher = MicroBatcher(
            Recorder(), max_size=20000, telemetry=telemetry
        )

        async def go():
            return await asyncio.wait_for(
                asyncio.gather(*[batcher.submit(0, r) for r in range(9000)]),
                timeout=10,
            )

        values = run(go())
        assert values == list(range(9000))
        stats = batcher.stats
        assert stats["batches"] == 1
        assert stats["occupancy"]["16384+"] == 1
        assert stats["occupancy"]["8192"] == 0
        assert sum(stats["occupancy"].values()) == 1
        sizes = telemetry.registry.snapshot()["repro_batch_size"]["series"]
        assert sizes[""]["count"] == 1 and sizes[""]["sum"] == 9000
        assert sizes[""]["p50"] == 16384.0
