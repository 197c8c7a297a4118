"""The two serving workloads: ``http_open`` and ``inproc_burst``.

``http_open`` runs one ``repro serve`` worker in a child process through
the real CLI and drives it with the open-loop generator. ``inproc_burst``
serves the same deployments in this process through
``MechanismServer.publish`` from 1024 concurrent coroutines, against a
ledger that already holds every one of its 10^5 users. Both use a
durable group-commit WAL ledger and otherwise the server's defaults.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import checks
from .common import (
    ROOT,
    RssPeak,
    child_env,
    cpu_seconds,
    percentile,
    remove_tree,
    scratch_dir,
    stop_child,
)
from .inputs import SERVED, RequestStream, ZipfUsers, poisson_schedule
from .layers import install
from .loadgen import run_open_loop
from .spans import SpanLog

HTTP_PARAMS = {
    "rate_per_s": 300.0,
    "connections": 2,
    "users": 50_000,
    "zipf_s": 1.0,
    "floor": "1/65536",
    "ledger_fsync": "group",
    "lateness_p50_limit_ms": 0.5,
    "lateness_p99_limit_ms": 10.0,
}
INPROC_PARAMS = {
    "callers": 1024,
    "rss_over_publishes": 50_000,
    "users": 100_000,
    "zipf_s": 0.7,
    "floor": "2^-256",
    "ledger_fsync": "group",
    "prepopulate_alpha": "1/2",
}
INPROC_FLOOR = Fraction(1, 2 ** 256)
#: Before ``inproc_burst`` is timed, every one of its users is charged
#: once at this alpha, straight through the ledger. The ledger then holds
#: all 10^5 users for the whole run, so each compaction snapshot costs
#: the same however many publishes a faster or slower server gets
#: through.
PREPOPULATE_ALPHA = Fraction(INPROC_PARAMS["prepopulate_alpha"])
#: Fresh compiles of the served deployments per run (median reported).
COMPILES = 3


# -- artifacts ---------------------------------------------------------------
def compile_served(rounds: int = COMPILES, log=None
                   ) -> tuple[Path, list[float]]:
    """Compile the served deployments into fresh stores ``rounds`` times
    (no solve cache, in-process caches cleared); returns the last store
    and each round's wall time. With a span ``log`` the compiles are
    traced."""
    inst = install(log) if log is not None else None
    try:
        return _compile_rounds(rounds)
    finally:
        if inst is not None:
            inst.remove()


def _compile_rounds(rounds: int) -> tuple[Path, list[float]]:
    import repro
    from repro.release.artifacts import ArtifactSpec, ArtifactStore

    times, store_dir = [], None
    for _ in range(rounds):
        if store_dir is not None:
            remove_tree(store_dir)
        store_dir = scratch_dir("store-")
        repro.clear_caches()
        t0 = time.perf_counter()
        store = ArtifactStore(store_dir)
        for d in SERVED:
            store.get_or_compile(
                ArtifactSpec(d.kind, d.n, d.alpha, loss=d.loss, side=d.side),
                solve_cache=False,
            )
        times.append(time.perf_counter() - t0)
    return store_dir, times


# -- http_open ---------------------------------------------------------------
def _cpu_split():
    """``(generator cpus, server cpus)``: on two or more usable CPUs the
    load generator and the server child each get one of their own, so
    neither is preempted by the other or migrated mid-run."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


class ServerChild:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, store, ledger_dir, *, traced_out=None) -> None:
        self.dir = scratch_dir("child-")
        cli = (
            [str(ROOT / "perfbench" / "server_entry.py"), str(traced_out)]
            if traced_out is not None
            else ["-m", "repro"]
        )
        cmd = [
            sys.executable, *cli, "serve", "--store", str(store),
            "--port", "0", "--floor", HTTP_PARAMS["floor"],
            "--ledger-dir", str(ledger_dir),
            "--ledger-fsync", HTTP_PARAMS["ledger_fsync"],
        ]
        self.stdout_path = self.dir / "stdout.txt"
        self.stderr_path = self.dir / "stderr.txt"
        self.started = time.perf_counter()
        with open(self.stdout_path, "wb") as out, \
                open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT
            )
        server_cpus = _cpu_split()[1]
        if server_cpus is not None:
            os.sched_setaffinity(self.proc.pid, server_cpus)
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until ``/readyz`` answers 200; returns seconds since
        launch."""
        deadline = self.started + timeout
        while self.port is None:
            self._check_alive(deadline)
            for line in self.stdout_path.read_text().splitlines():
                if line.startswith("serving on http://"):
                    address = line.split()[2].rstrip("/")
                    self.port = int(address.rsplit(":", 1)[1])
            if self.port is None:
                time.sleep(0.002)
        while True:
            self._check_alive(deadline)
            if _get_status(self.port, "/readyz") == 200:
                return time.perf_counter() - self.started
            time.sleep(0.002)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                "server child exited during set-up: "
                + self.stderr_path.read_text()[-2000:]
            )
        if time.perf_counter() > deadline:
            raise RuntimeError("server child not ready in time")

    def stop(self) -> int:
        code = stop_child(self.proc)
        remove_tree(self.dir)
        return code


def _get_status(port: int, path: str) -> int:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=2.0) as s:
            s.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
                      "Connection: close\r\n\r\n".encode())
            head = s.recv(64)
    except OSError:
        return 0
    try:
        return int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0


def _request_bytes(stream: RequestStream):
    def build(i: int) -> bytes:
        body = stream.body(i)
        return (
            "POST /publish HTTP/1.1\r\nHost: bench\r\n"
            "Content-Type: application/json\r\n"
            f"X-Bench-Id: {i + 1}\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body
    return build


def http_phase(store, seed: int, seconds: float, *, setups: int = 1,
               trace_path=None) -> dict:
    """Launch the server ``setups`` times (keeping the last), drive it
    for ``seconds`` and check every output. With a ``trace_path`` the
    kept server runs traced; its span log and counters are returned
    under ``log``, ``batch_stats`` and ``ledger_stats``."""
    due = poisson_schedule(HTTP_PARAMS["rate_per_s"], seconds, seed)
    stream = RequestStream(
        seed, ZipfUsers(HTTP_PARAMS["users"], HTTP_PARAMS["zipf_s"]), SERVED
    )
    stream.ensure(len(due))
    setup_times = []
    child = ledger_dir = None
    for attempt in range(setups):
        ledger_dir = scratch_dir("ledger-")
        last = attempt == setups - 1
        child = ServerChild(store, ledger_dir,
                            traced_out=trace_path if last else None)
        try:
            setup_times.append(child.wait_ready())
        except BaseException:
            child.stop()
            raise
        if not last:
            child.stop()
            remove_tree(ledger_dir)
    try:
        pid = child.proc.pid
        rss = RssPeak(pid)
        generator_cpus = _cpu_split()[0]
        previous = os.sched_getaffinity(0)
        connections = min(HTTP_PARAMS["connections"], len(previous))
        if generator_cpus is not None:
            os.sched_setaffinity(0, generator_cpus)
        try:
            cpu0 = cpu_seconds(pid)
            result = run_open_loop(
                "127.0.0.1", child.port, due, _request_bytes(stream),
                connections=connections, tick=rss.sample,
            )
            cpu1 = cpu_seconds(pid)
            rss.sample()
        finally:
            os.sched_setaffinity(0, previous)
    finally:
        exit_code = child.stop()
    try:
        outcome = _http_outcome(result, stream, ledger_dir, exit_code,
                                setup_times, cpu1 - cpu0, rss, seconds)
    finally:
        remove_tree(ledger_dir)
    if trace_path is not None:
        stats = json.loads(Path(f"{trace_path}.stats.json").read_text())
        outcome.update(log=SpanLog.load(trace_path),
                       batch_stats=stats.get("batch", {}),
                       ledger_stats=stats.get("ledger", {}))
    return outcome


def _http_outcome(result, stream, ledger_dir, exit_code, setup_times,
                  cpu_s, rss, seconds) -> dict:
    count = len(result.due)
    statuses = result.status.copy()
    values = np.full(count, -1, dtype=np.int64)
    for k in np.flatnonzero(statuses == 200).tolist():
        try:
            body = json.loads(result.bodies[k])
            values[k] = int(body["value"])
        except (ValueError, KeyError, TypeError):
            statuses[k] = -1
    users, deps, rows = (stream.users[:count], stream.deps[:count],
                         stream.rows[:count])
    failures, lines = checks.check_responses(statuses, deps, values, SERVED)
    if exit_code != 0:
        failures.append(f"server exited with code {exit_code} on SIGTERM")
    floor = Fraction(HTTP_PARAMS["floor"])
    products = checks.acked_products(users, deps, statuses, SERVED)
    failures += checks.check_ledger(ledger_dir, products, floor)
    draw_failures, draw_lines = checks.check_draws(
        rows, deps, statuses, values, SERVED
    )
    failures += draw_failures
    answered = np.isin(statuses, (200, 429))
    completed = int(answered.sum())
    latency_ms = result.latency_from_due_s(missing=seconds) * 1e3
    lateness_ms = result.lateness_s * 1e3
    finished = result.done[answered]
    span = (float(np.nanmax(finished)) - result.start) if completed else 0.0
    send_latency_us = {
        k + 1: (result.done[k] - result.sent[k]) * 1e6
        for k in np.flatnonzero(answered).tolist()
    }
    return {
        "attempted": count,
        "failed_ops": count - completed,
        "failures": failures,
        "lines": lines + draw_lines,
        "setup_times": setup_times,
        "op_p50_ms": percentile(latency_ms, 50),
        "op_p99_ms": percentile(latency_ms, 99),
        "ops_per_s": completed / span if span > 0 else 0.0,
        "offered_per_s": count / seconds,
        "cpu_us_per_op": cpu_s / completed * 1e6 if completed else 0.0,
        "rss_growth_mb": rss.growth_mb,
        "lateness_p50_ms": percentile(lateness_ms, 50),
        "lateness_p99_ms": percentile(lateness_ms, 99),
        "reject_share": float((statuses == 429).mean()) if count else 0.0,
        "completed": completed,
        "client_latency_us": send_latency_us,
    }


# -- inproc_burst -------------------------------------------------------------
def _new_server(store, ledger_dir):
    from repro.serving.server import MechanismServer

    server = MechanismServer(
        store, floor=INPROC_FLOOR, ledger_dir=ledger_dir,
        ledger_fsync=INPROC_PARAMS["ledger_fsync"],
    )
    server.load_store()
    return server


def prepopulate(ledger, users: int) -> dict:
    """Charge users ``u1..u<users>`` once each at
    :data:`PREPOPULATE_ALPHA`, then compact once; returns the ledger's
    stats afterwards. Auto-compaction is held off meanwhile, so this
    costs one snapshot rather than one per 4096 charges."""
    every, ledger.snapshot_every = ledger.snapshot_every, 0
    try:
        for user in range(1, users + 1):
            ledger.charge(f"u{user}", PREPOPULATE_ALPHA, label="prepopulate")
    finally:
        ledger.snapshot_every = every
    ledger.compact()
    return ledger.stats()


async def _drive(server, stream: RequestStream, seconds: float, rss) -> dict:
    """``callers`` coroutines publish back to back for ``seconds``.

    ``rss`` is sampled only until ``rss_over_publishes`` publishes have
    been issued: memory growth then follows the request stream, not how
    many requests a faster or slower server got through in the run."""
    templates = [d.fields() for d in stream.deployments]
    index = array("q")
    status = array("i")
    value = array("i")
    latency = array("d")
    state = {"next": 0, "running": True}
    clock = time.perf_counter
    stop_at = clock() + seconds

    async def caller():
        while clock() < stop_at:
            i = state["next"]
            state["next"] = i + 1
            if i >= len(stream.users):
                stream.ensure(i + 1)
            payload = dict(templates[stream.deps[i]])
            payload["user"] = f"u{stream.users[i]}"
            payload["true_result"] = int(stream.rows[i])
            t0 = clock()
            try:
                code, body = await server.publish(payload)
            except Exception:  # noqa: BLE001 - counted as a failed publish
                code, body = -1, None
            latency.append(clock() - t0)
            index.append(i)
            status.append(code)
            value.append(body["value"] if code == 200 else -1)

    async def sample_rss():
        limit = INPROC_PARAMS["rss_over_publishes"]
        while state["running"] and state["next"] < limit:
            rss.sample()
            await asyncio.sleep(0.05)
        rss.sample()

    sampler = asyncio.create_task(sample_rss())
    cpu0 = time.process_time()
    t0 = clock()
    await asyncio.gather(*(caller() for _ in range(INPROC_PARAMS["callers"])))
    elapsed = clock() - t0
    cpu = time.process_time() - cpu0
    state["running"] = False
    await sampler
    return {
        "index": np.frombuffer(index, dtype=np.int64).copy(),
        "status": np.frombuffer(status, dtype=np.int32).astype(np.int64),
        "value": np.frombuffer(value, dtype=np.int32).astype(np.int64),
        "latency_s": np.frombuffer(latency, dtype=np.float64).copy(),
        "elapsed": elapsed,
        "cpu_s": cpu,
    }


def inproc_phase(store, seed: int, seconds: float, *, setups: int = 1,
                 trace_path=None) -> dict:
    """Set the server up ``setups`` times (keeping the last), prepopulate
    its ledger, drive it for ``seconds`` and check every output.
    ``rss_growth_mb`` counts from the end of set-up, so it includes the
    prepopulated ledger. With a ``trace_path`` the layer wrappers record
    spans during set-up and from the start of the drive until the server
    stopped (not while prepopulating); the log is saved there and
    returned under ``log``. The ledger counters are those of the drive."""
    log = SpanLog() if trace_path is not None else None
    users = INPROC_PARAMS["users"]
    stream = RequestStream(
        seed, ZipfUsers(users, INPROC_PARAMS["zipf_s"]), SERVED
    )
    stream.ensure(1 << 18)

    async def measured():
        inst = install(log) if log is not None else None
        setup_times = []
        server = ledger_dir = None
        try:
            for _ in range(setups):
                if server is not None:
                    await server.stop()
                    remove_tree(ledger_dir)
                ledger_dir = scratch_dir("ledger-")
                t0 = time.perf_counter()
                server = _new_server(store, ledger_dir)
                setup_times.append(time.perf_counter() - t0)
            rss = RssPeak()
            try:
                if inst is not None:
                    inst.remove()
                before = prepopulate(server.ledgers, users)
                if log is not None:
                    inst = install(log)
                run = await _drive(server, stream, seconds, rss)
            finally:
                await server.stop()
        finally:
            if inst is not None:
                inst.remove()
        after = server.ledgers.stats()
        for counter in ("compactions", "fsyncs"):
            after[counter] -= before[counter]
        run["setup_times"] = setup_times
        run["rss_growth_mb"] = rss.growth_mb
        run["batch_stats"] = dict(server.batcher.stats)
        run["ledger_stats"] = after
        run["ledger_dir"] = ledger_dir
        return run

    run = asyncio.run(measured())
    try:
        outcome = _inproc_outcome(run, stream)
    finally:
        remove_tree(run["ledger_dir"])
    if log is not None:
        log.save(trace_path)
        outcome["log"] = log
    return outcome


def _inproc_outcome(run: dict, stream: RequestStream) -> dict:
    idx = run["index"]
    statuses, values = run["status"], run["value"]
    users, deps, rows = stream.users[idx], stream.deps[idx], stream.rows[idx]
    failures, lines = checks.check_responses(statuses, deps, values, SERVED)
    prepopulated = {f"u{user}": PREPOPULATE_ALPHA
                    for user in range(1, INPROC_PARAMS["users"] + 1)}
    products = checks.acked_products(users, deps, statuses, SERVED,
                                     prior=prepopulated)
    failures += checks.check_ledger(run["ledger_dir"], products, INPROC_FLOOR)
    draw_failures, draw_lines = checks.check_draws(
        rows, deps, statuses, values, SERVED
    )
    failures += draw_failures
    answered = np.isin(statuses, (200, 429))
    completed = int(answered.sum())
    latency_ms = run["latency_s"] * 1e3
    latency_ms[~answered] = run["elapsed"] * 1e3
    return {
        "attempted": len(idx),
        "failed_ops": len(idx) - completed,
        "failures": failures,
        "lines": lines + draw_lines,
        "setup_times": run["setup_times"],
        "op_p50_ms": percentile(latency_ms, 50),
        "op_p99_ms": percentile(latency_ms, 99),
        "ops_per_s": completed / run["elapsed"],
        "cpu_us_per_op": run["cpu_s"] / completed * 1e6 if completed else 0.0,
        "rss_growth_mb": run["rss_growth_mb"],
        "reject_share": float((statuses == 429).mean()) if len(idx) else 0.0,
        "completed": completed,
        "batch_stats": run["batch_stats"],
        "ledger_stats": run["ledger_stats"],
    }

