"""One tally per serving layer: JSON ``/metrics``, ``batcher.stats`` and
the Prometheus counter families all read the same counts.

A scripted request mix reaches every final publish outcome and both
kinds of brownout skip. It runs against a telemetry-on server, a
``telemetry=False`` server and two servers sharing one
:class:`~repro.obs.Telemetry`; each JSON view must equal a hand-counted
dict, and each scraped family must equal the value derived from it.
"""

import asyncio
from fractions import Fraction

import pytest

from repro.obs import MetricsRegistry, Telemetry
from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.release.durable_ledger import DurableLedger
from repro.serving import (
    AdmissionController,
    FaultInjector,
    FaultyFS,
    MechanismServer,
    WALCircuitBreaker,
    fsync_storm,
)
from tests.obs.test_metrics import assert_valid_exposition
from tests.serving.test_fallback import tamper
from tests.serving.test_overload import FakeClock

HALF = Fraction(1, 2)
GEOMETRIC8 = ArtifactSpec("geometric", 8, HALF)
GEOMETRIC4 = ArtifactSpec("geometric", 4, HALF)
OPTIMAL4 = ArtifactSpec("optimal", 4, HALF, loss="absolute")
BROKEN6 = ArtifactSpec("geometric", 6, HALF)

BATCHER_KEYS = {
    "queries", "batches", "size_flushes", "deadline_flushes", "max_batch",
    "peak_pending", "flush_reasons", "occupancy",
}


@pytest.fixture()
def store(tmp_path):
    """A live geometric deployment, a quarantined bespoke one with a
    geometric fallback, and a quarantined geometric one with none."""
    store = ArtifactStore(tmp_path / "artifacts")
    for spec in (GEOMETRIC8, GEOMETRIC4, OPTIMAL4, BROKEN6):
        store.get_or_compile(spec)
    tamper(store, OPTIMAL4)
    tamper(store, BROKEN6)
    return store


def make_server(store, ledger_dir, telemetry=None):
    faults = FaultInjector()
    fs = FaultyFS(faults)

    def factory():
        return DurableLedger(ledger_dir, HALF ** 2, fsync="always", fs=fs)

    kwargs = {} if telemetry is None else {"telemetry": telemetry}
    server = MechanismServer(
        store, ledger=factory(), ledger_factory=factory, floor=HALF ** 2,
        degraded="geometric", audit_rate=1.0, audit_every=0,
        trace_rate=1.0, seed=3, audit_seed=4, **kwargs,
    )
    server.load_store()
    # A 4-decision brownout window and a hand-driven breaker clock keep
    # the script short and its outcomes independent of wall time.
    server.admission = AdmissionController(2, brownout_window=4)
    clock = FakeClock()
    server.breaker = WALCircuitBreaker(
        policy="reject", cooldown=1.0, clock=clock
    )
    return server, faults, clock


def publish(user, n=8, **extra):
    payload = {"user": user, "n": n, "alpha": "1/2", "true_result": 1}
    payload.update(extra)
    return payload


async def request_mix(server, faults, clock):
    """Twenty sequential publishes; returns their statuses."""
    statuses = []

    async def send(payload):
        status, _ = await server.publish(payload)
        statuses.append(status)

    admission = server.admission
    await send(publish("alice"))                          # 200
    await send({"n": 8, "alpha": "1/2", "true_result": 1})  # 400: no user
    await send(publish("alice", true_result="x"))         # 400: bad row
    await send(publish("alice", n=5))                     # 404
    await send(publish("alice", n=6))                     # 503 quarantine
    await send(publish("alice", n=4, kind="optimal", loss="absolute"))
    await send(publish("bob", idem="k1"))                 # 200
    await send(publish("bob", idem="k1"))                 # 200 replay
    for _ in range(3):
        await send(publish("carol"))                      # 200, 200, 429
    fsync_storm(faults, times=1)
    await send(publish("dave"))                 # 503: WAL lost, trips
    await send(publish("dave"))                 # 503: breaker rejects
    clock.now += 2.0
    await send(publish("dave"))                 # probe recovers: 200
    admission.inflight = 2
    await send(publish("erin"))                 # 429 queue full
    await send(publish("erin"))                 # 429; brownout begins
    admission.inflight = 1
    admission.service_ewma = 2.0
    await send(publish("erin", deadline_ms=100))  # 503 deadline
    admission.inflight = 0
    # Two admitted publishes under brownout skip their trace and audit
    # work; the third finds the window clear again.
    for user in ("erin", "erin", "frank"):
        await send(publish(user))
    assert admission.brownout is False
    server.audit()
    return statuses


STATUSES = [
    200, 400, 400, 404, 503, 200, 200, 200, 200, 200, 429,
    503, 503, 200, 429, 429, 503, 200, 200, 200,
]


def expected_metrics(traced: bool) -> dict:
    """The hand count of the mix; trace skips need a tracer."""
    return {
        "requests": 17,
        "published": 9,
        "replayed": 1,
        "rejected_budget": 1,
        "not_found": 1,
        "bad_request": 2,
        "quarantined_requests": 1,
        "shed": 3,
        "degraded": 1,
        "breaker_rejected": 1,
        "brownout_skips": 4 if traced else 2,
        "ledger_unavailable": 1,
        "errors": 0,
        "audit_recorded": 7,
        "audit_sweeps": 1,
        "audit_flagged": 0,
    }


def expected_families(metrics: dict, body: dict, scale: int = 1) -> dict:
    """The counter families derived from one server's JSON ``/metrics``
    body, times the number of servers sharing the registry."""
    m = metrics
    admission = body["admission"]
    breaker = body["breaker"]
    batcher = body["batcher"]
    charged = m["published"]  # every sampled response was charged once
    families = {
        "repro_requests_total": {
            ("publish", "200"): m["published"] + m["replayed"],
            ("publish", "400"): m["bad_request"],
            ("publish", "404"): m["not_found"],
            ("publish", "429"): (
                m["rejected_budget"] + admission["shed_queue_full"]
            ),
            ("publish", "503"): (
                m["quarantined_requests"] + m["breaker_rejected"]
                + m["ledger_unavailable"] + admission["shed_deadline"]
            ),
        },
        "repro_ledger_charges_total": {
            ("charged",): charged,
            ("rejected",): m["rejected_budget"],
            ("replayed",): m["replayed"],
        },
        "repro_serving_shed_total": {
            ("queue_full",): admission["shed_queue_full"],
            ("deadline",): admission["shed_deadline"],
        },
        "repro_serving_brownout_skips_total": {
            # Each brownout publish skips its audit slice; a traced
            # server also skips the trace coin.
            ("audit",): 2,
            ("trace",): m["brownout_skips"] - 2,
        },
        "repro_serving_degraded_responses_total": {(): m["degraded"]},
        "repro_audit_findings_total": {
            # One finding per loaded deployment (two) per sweep.
            ("false",): m["audit_sweeps"] * 2 - m["audit_flagged"],
        },
        "repro_wal_breaker_trips_total": {
            ("open",): breaker["trips"],
            ("recover",): breaker["recoveries"],
        },
        "repro_batch_flushes_total": {
            (reason,): count
            for reason, count in batcher["flush_reasons"].items()
            if count
        },
    }
    return {
        name: {labels: value * scale for labels, value in series.items()}
        for name, series in families.items()
    }


def counter_series(families, name) -> dict:
    return {
        tuple(labels.values()): value
        for _, labels, value in families[name]["samples"]
    }


def batch_size_series(families) -> dict:
    return {
        labels.get("le", sample.rsplit("_", 1)[-1]): value
        for sample, labels, value in families["repro_batch_size"]["samples"]
    }


def run_mix(server, faults, clock):
    async def go():
        statuses = await request_mix(server, faults, clock)
        _, body = await server.handle_request("GET", "/metrics")
        await server.stop()
        return statuses, body

    return asyncio.run(go())


class TestOneTally:
    def check_json(self, server, body, traced):
        expected = expected_metrics(traced)
        assert body["metrics"] == expected
        assert server.metrics == expected
        assert set(body["batcher"]) == BATCHER_KEYS
        assert body["batcher"] == server.batcher.stats
        # Every sampled response was its own one-row idle flush.
        assert body["batcher"]["queries"] == expected["published"]
        assert body["batcher"]["flush_reasons"]["idle"] == 9
        assert body["batcher"]["occupancy"]["1"] == 9
        assert body["admission"]["shed_queue_full"] == 2
        assert body["admission"]["shed_deadline"] == 1
        assert (body["breaker"]["trips"], body["breaker"]["recoveries"]) == (
            1, 1
        )

    def check_families(self, registry, metrics, body, scale):
        families = assert_valid_exposition(registry.render())
        for name, series in expected_families(metrics, body, scale).items():
            got = counter_series(families, name)
            if name == "repro_requests_total":
                got = {k: v for k, v in got.items() if k[0] == "publish"}
            assert got == series, name
        batches = 9 * scale
        sizes = batch_size_series(families)
        assert sizes["1"] == batches
        assert sizes["+Inf"] == batches
        assert sizes["count"] == batches
        assert sizes["sum"] == batches

    def test_telemetry_on(self, store, tmp_path):
        server, faults, clock = make_server(store, tmp_path / "w")
        statuses, body = run_mix(server, faults, clock)
        assert statuses == STATUSES
        self.check_json(server, body, traced=True)
        self.check_families(
            server.telemetry.registry, server.metrics, body, scale=1
        )

    def test_telemetry_off_keeps_the_tally(self, store, tmp_path):
        server, faults, clock = make_server(
            store, tmp_path / "w", telemetry=False
        )
        statuses, body = run_mix(server, faults, clock)
        assert statuses == STATUSES
        self.check_json(server, body, traced=False)

    def test_servers_sharing_a_telemetry_sum(self, store, tmp_path):
        telemetry = Telemetry(MetricsRegistry(), trace_rate=1.0)
        bodies = []
        for scale, worker in enumerate(("a", "b"), start=1):
            server, faults, clock = make_server(
                store, tmp_path / worker, telemetry=telemetry
            )
            statuses, body = run_mix(server, faults, clock)
            assert statuses == STATUSES
            self.check_json(server, body, traced=True)
            bodies.append(body)
            # Scraped after each server: the second adds its own counts
            # on top of what the first already folded.
            self.check_families(
                telemetry.registry, body["metrics"], body, scale=scale
            )
        assert bodies[0]["metrics"] == bodies[1]["metrics"]
        # A repeated scrape folds nothing new.
        self.check_families(
            telemetry.registry, bodies[0]["metrics"], bodies[0], scale=2
        )


class TestSharedTelemetry:
    def test_each_server_adds_its_own_publishes(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        store.get_or_compile(GEOMETRIC8)
        telemetry = Telemetry(MetricsRegistry())
        servers = []
        for _ in range(2):
            server = MechanismServer(
                store, telemetry=telemetry, audit_rate=0.0, seed=1
            )
            server.load_store()
            servers.append(server)

        async def go():
            for server, count in zip(servers, (3, 1)):
                for i in range(count):
                    status, _ = await server.publish(publish(f"u{i}"))
                    assert status == 200
            for server in servers:
                await server.stop()

        asyncio.run(go())
        families = assert_valid_exposition(telemetry.registry.render())
        requests = counter_series(families, "repro_requests_total")
        assert requests[("publish", "200")] == 4
        charges = counter_series(families, "repro_ledger_charges_total")
        assert charges[("charged",)] == 4
        flushes = counter_series(families, "repro_batch_flushes_total")
        assert flushes[("idle",)] == 4
