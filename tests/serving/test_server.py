"""Tests for the mechanism server (in-process and over HTTP)."""

import asyncio
from fractions import Fraction

import pytest

from repro.exceptions import ReproError
from repro.release.artifacts import (
    ArtifactSpec,
    ArtifactStore,
    compile_artifact,
)
from repro.serving import (
    HTTPServingClient,
    InProcessClient,
    MechanismServer,
)


@pytest.fixture()
def store(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    store.get_or_compile(ArtifactSpec("geometric", 8, Fraction(1, 2)))
    store.get_or_compile(ArtifactSpec("geometric", 4, Fraction(1, 4)))
    store.get_or_compile(
        ArtifactSpec("optimal", 4, Fraction(1, 2), loss="absolute")
    )
    return store


def make_server(store, **kwargs):
    kwargs.setdefault("batch_window", 0.001)
    kwargs.setdefault("audit_rate", 0.0)
    kwargs.setdefault("seed", 11)
    server = MechanismServer(store, **kwargs)
    server.load_store()
    return server


def run(coro):
    return asyncio.run(coro)


class TestLifecycle:
    def test_needs_a_store(self, monkeypatch):
        from repro.release import artifacts as artifacts_module

        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        monkeypatch.setattr(
            artifacts_module, "_default_store", artifacts_module._UNSET
        )
        with pytest.raises(ReproError, match="artifact store"):
            MechanismServer(None)

    def test_load_store_loads_everything_verified(self, store):
        server = make_server(store)
        assert len(server.deployments) == 3
        assert all(d.verification.ok for d in server.deployments)

    def test_load_miss_is_an_error_not_a_compile(self, store):
        server = make_server(store)
        before = store.stats["compiles"]
        with pytest.raises(ReproError, match="repro compile"):
            server.load(ArtifactSpec("geometric", 100, Fraction(1, 3)))
        assert store.stats["compiles"] == before

    def test_load_is_idempotent(self, store):
        server = make_server(store)
        spec = ArtifactSpec("geometric", 8, Fraction(1, 2))
        assert server.load(spec) == server.load(spec)
        assert len(server.deployments) == 3

    def test_tampered_artifact_refused_at_load(self, store):
        artifact = compile_artifact("geometric", 3, Fraction(1, 2))
        artifact.kernel[0][0], artifact.kernel[0][1] = (
            artifact.kernel[0][1],
            artifact.kernel[0][0],
        )
        server = make_server(store)
        with pytest.raises(ReproError, match="verification"):
            server.load_artifact(artifact)


class TestPublish:
    def test_publish_round_trip(self, store):
        server = make_server(store)
        client = InProcessClient(server)

        async def go():
            return await client.publish(
                user="gov", n=8, alpha="1/2", true_result=3
            )

        status, body = run(go())
        assert status == 200
        assert 0 <= body["value"] <= 8
        assert body["alpha"] == "1/2"
        assert body["cumulative_alpha"] == "1/2"

    def test_optimal_deployment_served_by_spec_fields(self, store):
        server = make_server(store)
        client = InProcessClient(server)

        async def go():
            return await client.publish(
                user="gov", n=4, alpha="1/2", true_result=2,
                kind="optimal", loss="absolute",
            )

        status, body = run(go())
        assert status == 200
        assert 0 <= body["value"] <= 4

    def test_unknown_deployment_is_404_and_never_solves(self, store):
        server = make_server(store)
        client = InProcessClient(server)
        before = store.stats["compiles"]

        async def go():
            return await client.publish(
                user="gov", n=50, alpha="1/2", true_result=3
            )

        status, _ = run(go())
        assert status == 404
        assert store.stats["compiles"] == before
        assert server.metrics["not_found"] == 1

    def test_bad_payloads_are_400(self, store):
        server = make_server(store)

        async def go():
            return [
                await server.publish({}),  # no user
                await server.publish({"user": "g"}),  # no deployment
                await server.publish(
                    {"user": "g", "n": 8, "alpha": "zebra",
                     "true_result": 1}
                ),
                await server.publish(
                    {"user": "g", "n": 8, "alpha": "1/2",
                     "true_result": 99}  # out of range
                ),
                await server.publish(
                    {"user": "g", "n": 8, "alpha": "1/2",
                     "true_result": "many"}
                ),
            ]

        statuses = [status for status, _ in run(go())]
        assert statuses == [400] * 5
        assert server.metrics["bad_request"] == 5

    def test_budget_floor_gives_429_with_accounting(self, store):
        server = make_server(store, floor=Fraction(1, 4))
        client = InProcessClient(server)

        async def go():
            first = await client.publish(
                user="u", n=8, alpha="1/2", true_result=0
            )
            second = await client.publish(
                user="u", n=8, alpha="1/2", true_result=0
            )
            third = await client.publish(
                user="u", n=8, alpha="1/2", true_result=0
            )
            other = await client.publish(
                user="other", n=8, alpha="1/2", true_result=0
            )
            return first, second, third, other

        first, second, third, other = run(go())
        assert first[0] == 200 and second[0] == 200
        assert third[0] == 429
        assert third[1]["cumulative_alpha"] == "1/4"
        # Budgets are per-user: a fresh user is unaffected.
        assert other[0] == 200
        assert server.metrics["rejected_budget"] == 1

    def test_ledger_reads_never_create_users(self, store):
        server = make_server(store, floor=Fraction(1, 4))
        run(InProcessClient(server).publish(
            user="u", n=8, alpha="1/2", true_result=0
        ))
        ghost = server.ledger("ghost")
        assert len(ghost) == 0
        assert ghost.cumulative_alpha == 1
        assert ghost.remaining_alpha == Fraction(1, 4)
        assert len(server.ledger("u")) == 1
        assert server.ledgers.users() == 1

    def test_concurrent_publishes_fuse_across_deployments(self, store):
        server = make_server(store, batch_window=0.005)
        client = InProcessClient(server)

        async def go():
            return await asyncio.gather(*(
                [client.publish(user=f"a{i}", n=8, alpha="1/2",
                               true_result=4) for i in range(10)]
                + [client.publish(user=f"b{i}", n=4, alpha="1/4",
                                  true_result=1) for i in range(10)]
            ))

        results = run(go())
        assert all(status == 200 for status, _ in results)
        # All 20 mixed n/alpha queries went through one fused gather.
        assert server.batcher.stats["batches"] == 1
        assert server.batcher.stats["max_batch"] == 20


class TestRoutes:
    def test_healthz_artifacts_metrics_ledger(self, store):
        server = make_server(store)
        client = InProcessClient(server)

        async def go():
            await client.publish(user="gov", n=8, alpha="1/2", true_result=1)
            return (
                await client.get("/healthz"),
                await client.get("/artifacts"),
                await client.get("/metrics"),
                await client.get("/ledger/gov"),
                await client.get("/ledger/nobody"),
                await client.get("/nope"),
                await server.handle_request("PUT", "/publish"),
            )

        health, artifacts, metrics, ledger, missing, nope, put = run(go())
        assert health[0] == 200
        assert health[1]["status"] == "ok"
        assert health[1]["deployments"] == 3
        assert health[1]["ledger"]["backend"] == "memory"
        assert len(artifacts[1]["artifacts"]) == 3
        assert all(a["verified"] for a in artifacts[1]["artifacts"])
        assert metrics[1]["metrics"]["published"] == 1
        assert metrics[1]["users"] == 1
        assert ledger[0] == 200
        assert ledger[1]["cumulative_alpha"] == "1/2"
        assert missing[0] == 404
        assert nope[0] == 404
        assert put[0] == 405


class TestHTTP:
    def test_http_round_trip_keep_alive(self, store):
        server = make_server(store)

        async def go():
            await server.start(port=0)
            client = HTTPServingClient("127.0.0.1", server.port)
            try:
                publish = await client.publish(
                    user="web", n=8, alpha="1/2", true_result=5
                )
                # Second request rides the same keep-alive connection.
                health = await client.get("/healthz")
                bad = await client.request("POST", "/publish", {"user": 3})
            finally:
                await client.close()
                await server.stop()
            return publish, health, bad

        publish, health, bad = run(go())
        assert publish[0] == 200
        assert 0 <= publish[1]["value"] <= 8
        assert health[0] == 200
        assert health[1]["status"] == "ok"
        assert health[1]["deployments"] == 3
        assert bad[0] == 400

    def test_stop_is_idempotent(self, store):
        server = make_server(store)

        async def go():
            await server.start(port=0)
            await server.stop()
            await server.stop()

        run(go())


class TestAuditIntegration:
    def test_periodic_sweep_flags_injected_tamper(self, store, rng):
        # Load a deployment whose kernel serves alpha=7/8 while its spec
        # claims alpha=1/2 — through the explicit verify=False injection
        # port (load verification would have refused it).
        server = make_server(
            store, audit_rate=1.0, audit_every=1, audit_seed=5
        )
        honest = compile_artifact("geometric", 6, Fraction(7, 8))
        forged_spec = ArtifactSpec("geometric", 6, Fraction(1, 2))
        forged = type(honest)(
            forged_spec, honest.kernel, sampler=honest.sampler
        )
        index = server.load_artifact(forged, verify=False)
        client = InProcessClient(server)

        async def go():
            for batch in range(30):
                await asyncio.gather(*[
                    client.publish(
                        user=f"u{batch}-{i}", n=6, alpha="1/2",
                        true_result=int(rng.integers(0, 7)),
                    )
                    for i in range(100)
                ])

        run(go())
        flagged = server.auditor.flagged()
        assert any(f.key == forged_spec.key() for f in flagged)
        assert server.metrics["audit_flagged"] >= 1
        assert server.metrics["audit_sweeps"] >= 1
        assert index == 3
