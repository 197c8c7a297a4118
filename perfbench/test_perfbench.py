"""Unit checks of the benchmark's own arithmetic and generators.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import asyncio
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from perfbench.checks import pooled_chi_square
from perfbench.inputs import (
    SERVED,
    RequestStream,
    ZipfUsers,
    poisson_schedule,
)
from perfbench.layers import batch_waits_us
from perfbench.loadgen import run_open_loop
from perfbench.spans import SpanLog, _span_wrapper, self_times


# -- span self time ---------------------------------------------------------
def _self_by_name(log: SpanLog) -> dict:
    cols = log.columns()
    selfs = self_times(cols["start"], cols["end"], cols["parent"], cols["id"])
    return {log.names[n]: int(s) for n, s in zip(cols["name"], selfs)}


def test_self_time_subtracts_union_of_children():
    log = SpanLog()
    root = log.add("root", 0, 100)
    log.add("a", 10, 30, parent=root)
    log.add("b", 20, 50, parent=root)  # overlaps a: union is 10..50
    log.add("c", 90, 120, parent=root)  # outlives root: only 90..100 counts
    assert _self_by_name(log) == {"root": 50, "a": 20, "b": 30, "c": 30}


def test_self_time_nests_and_leaves_siblings_alone():
    log = SpanLog()
    root = log.add("root", 0, 100)
    child = log.add("child", 10, 60, parent=root)
    log.add("grandchild", 20, 30, parent=child)
    log.add("other", 200, 210)
    assert _self_by_name(log) == {
        "root": 50, "child": 40, "grandchild": 10, "other": 10,
    }


def test_self_time_survives_a_save_and_load(tmp_path):
    log = SpanLog()
    root = log.add("root", 0, 100)
    log.add("child", 10, 60, parent=root)
    log.attrs[root] = "x"
    log.count("charge.charged", 3)
    log.save(tmp_path / "spans")
    again = SpanLog.load(tmp_path / "spans")
    assert _self_by_name(again) == {"root": 50, "child": 50}
    assert again.attrs == {root: "x"}
    assert again.counts == {"charge.charged": 3}


def test_wrappers_record_parents_and_requests_per_task():
    log = SpanLog()

    def inner():
        return 1

    wrapped_inner = _span_wrapper(log, "inner", inner)

    async def outer():
        await asyncio.sleep(0)
        wrapped_inner()
        await asyncio.sleep(0)
        return 2

    wrapped_outer = _span_wrapper(log, "outer", outer)

    async def main():
        return await asyncio.gather(wrapped_outer(), wrapped_outer())

    assert asyncio.run(main()) == [2, 2]
    cols = log.columns()
    names = [log.names[n] for n in cols["name"]]
    outers = {int(i): int(r) for i, r, n in
              zip(cols["id"], cols["request"], names) if n == "outer"}
    assert len(outers) == 2 and len(set(outers.values())) == 2
    for parent, request, name in zip(cols["parent"], cols["request"], names):
        if name == "inner":
            # Each inner call belongs to the outer span of its own task.
            assert outers[int(parent)] == int(request)


def test_batch_wait_is_submit_minus_the_flush_that_served_it():
    submit_start = np.array([0, 1_000, 5_000])
    submit_dur = np.array([3.0, 2.5, 1.0])
    flush_start = np.array([6_000, 2_500])
    flush_dur = np.array([0.5, 0.4])
    waits = batch_waits_us(submit_start, submit_dur, flush_start, flush_dur)
    assert waits.tolist() == pytest.approx([2.6, 2.1, 0.5])


# -- seeded inputs ------------------------------------------------------------
def test_zipf_users_are_reproducible_from_the_seed():
    users = ZipfUsers(1000, 1.0)
    a = users.sample(np.random.default_rng([7, 1]), 50_000)
    b = users.sample(np.random.default_rng([7, 1]), 50_000)
    c = users.sample(np.random.default_rng([8, 1]), 50_000)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert a.min() >= 1 and a.max() <= 1000
    harmonic = sum(1.0 / k for k in range(1, 1001))
    assert (a == 1).mean() == pytest.approx(1.0 / harmonic, rel=0.05)
    assert (a == 2).mean() == pytest.approx(0.5 / harmonic, rel=0.08)


def test_request_stream_prefix_does_not_depend_on_length():
    short = RequestStream(3, ZipfUsers(500, 0.7), SERVED)
    short.ensure(10)
    long = RequestStream(3, ZipfUsers(500, 0.7), SERVED)
    long.ensure(RequestStream.CHUNK + 5)
    assert [long.payload(i) for i in range(10)] == [
        short.payload(i) for i in range(10)
    ]
    for i in range(2000):
        payload = long.payload(i)
        deployment = SERVED[int(long.deps[i])]
        assert payload["true_result"] in deployment.members()


def test_poisson_schedule_is_seeded_and_at_rate():
    a = poisson_schedule(300.0, 20.0, 5)
    assert np.array_equal(a, poisson_schedule(300.0, 20.0, 5))
    assert not np.array_equal(a, poisson_schedule(300.0, 20.0, 6))
    assert np.all(np.diff(a) > 0) and a[-1] < 20.0
    assert len(a) == pytest.approx(6000, rel=0.05)


# -- the open loop under an injected stall -------------------------------------
def _stalling_server(stall_index: int, stall_s: float):
    """A one-connection HTTP responder that sleeps before answering the
    ``stall_index``-th request."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        buf = b""
        answered = 0
        with conn:
            while True:
                data = conn.recv(1 << 16)
                if not data:
                    return
                buf += data
                while True:
                    head_end = buf.find(b"\r\n\r\n")
                    if head_end < 0:
                        break
                    length = int(re.search(
                        rb"Content-Length: (\d+)", buf[:head_end]
                    ).group(1))
                    total = head_end + 4 + length
                    if len(buf) < total:
                        break
                    buf = buf[total:]
                    if answered == stall_index:
                        time.sleep(stall_s)
                    body = b'{"value": 1}'
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d"
                                 b"\r\n\r\n%s" % (len(body), body))
                    answered += 1

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


def test_open_loop_counts_a_stall_from_the_due_time():
    listener, thread = _stalling_server(stall_index=10, stall_s=0.2)
    port = listener.getsockname()[1]
    due = np.arange(50) * 0.01  # one request every 10 ms
    body = b"{}"
    request = (b"POST /publish HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
               % (len(body), body))
    try:
        result = run_open_loop("127.0.0.1", port, due, lambda i: request,
                               connections=1)
    finally:
        listener.close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert (result.status == 200).all()
    # The generator kept to the schedule while the server stalled ...
    assert np.percentile(result.lateness_s, 99) < 0.02
    latency = result.latency_from_due_s(missing=10.0)
    stall_end = result.start + due[10] + 0.2
    # ... so every request due during the stall waited for its end,
    # counted from when it was due, not from when the server read it.
    for k in range(10, 30):
        assert result.done[k] >= stall_end - 0.005
        assert latency[k] >= stall_end - (result.start + due[k]) - 0.005
    assert latency[45:].max() < 0.05


def test_failed_requests_count_as_missing_the_limit():
    from perfbench.loadgen import LoadResult

    result = LoadResult(
        start=0.0, due=np.array([0.0, 1.0, 2.0]),
        sent=np.array([0.0, 1.0, np.nan]),
        done=np.array([0.5, np.nan, np.nan]),
        status=np.array([200, 0, 0]), bodies=[b"", None, None],
    )
    assert result.latency_from_due_s(missing=99.0).tolist() == [0.5, 99, 99]


# -- output checks --------------------------------------------------------------
def test_pooled_chi_square_accepts_the_law_and_rejects_another():
    from repro.release.artifacts import ArtifactSpec
    from repro.serving.audit import expected_response_matrix

    law = expected_response_matrix(ArtifactSpec("geometric", 8, Fraction(1, 2)))
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 9, 20_000)
    values = np.array([rng.choice(9, p=law[r]) for r in rows])
    assert pooled_chi_square(rows, values, law)[2] > 1e-4
    other = expected_response_matrix(
        ArtifactSpec("geometric", 8, Fraction(2, 3))
    )
    wrong = np.array([rng.choice(9, p=other[r]) for r in rows])
    assert pooled_chi_square(rows, wrong, law)[2] < 1e-6


def test_ledger_check_counts_the_prepopulation(tmp_path):
    from repro.release.durable_ledger import DurableLedger

    from perfbench.checks import acked_products, check_ledger
    from perfbench.serving import PREPOPULATE_ALPHA, prepopulate

    floor = Fraction(1, 2 ** 256)
    ledger = DurableLedger(tmp_path, floor, fsync="group")
    stats = prepopulate(ledger, 5)
    ledger.charge("u2", SERVED[1].alpha)  # u2's acked publish below
    ledger.close()
    assert stats["users"] == 5 and stats["compactions"] == 1
    prior = {f"u{user}": PREPOPULATE_ALPHA for user in range(1, 6)}
    products = acked_products([2, 3], [1, 0], [200, 429], SERVED, prior=prior)
    assert check_ledger(tmp_path, products, floor) == []
    products["u2"] = prior["u2"]  # as if the acked charge were lost
    assert check_ledger(tmp_path, products, floor)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(Path(__file__).resolve().parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "http_open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode == 2
    assert done.stdout == ""


def test_benchmark_json_names_the_reported_metrics():
    import json

    from perfbench.common import ROOT
    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END, WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(PER_LAYER)
