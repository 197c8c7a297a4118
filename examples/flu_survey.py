#!/usr/bin/env python3
"""The paper's running example: the San Diego flu survey.

Section 1 motivates the whole theory with one query:

    Q: How many adults from San Diego contracted the flu this October?

Three parties care, with different stakes (Section 2.3):

* the *government* tracks the epidemic — absolute-error loss, no side
  information;
* a *drug company* plans production — squared-error loss, and its own
  sales receipts lower-bound the count (Example 1);
* a *journalist* wants to know whether an outbreak happened at all —
  zero-one loss with a population upper bound.

One geometric release serves all three optimally (Theorem 1), which is
exactly what lets the statistic be published to an unknown audience.

The deployment itself runs from a *compiled artifact* (PR 6): the first
run compiles the exact geometric kernel, its per-row alias sampling
tables, and the verification evidence into a content-addressed store
(``examples/.artifacts`` unless ``REPRO_ARTIFACT_DIR`` is set); every
later run loads, verifies, and publishes without ever constructing a
mechanism — the ``repro compile`` → ``repro cache verify`` → publish
lifecycle in miniature.

The final act (PR 7) completes that lifecycle with ``repro serve``: the
same artifact is served from a live asyncio statistic service — the
survey count is published over real HTTP/1.1 (what ``curl`` would see),
concurrent requests fuse into micro-batches, and the per-user privacy
ledger turns an exhausted budget into a 429. Since PR 8 that ledger is
*durable*: charges are journaled to a crash-safe write-ahead log before
any response is released, so the epilogue restarts the server on the
same ledger directory and the government's spent budget survives.

Run:  python examples/flu_survey.py
"""

import asyncio
import os
import pathlib
import tempfile
from fractions import Fraction

import numpy as np

from repro import (
    AbsoluteLoss,
    GeometricMechanism,
    MinimaxAgent,
    SideInformation,
    SquaredLoss,
    ZeroOneLoss,
)
from repro.analysis.fractions_fmt import format_value
from repro.db.generators import (
    drug_purchases_lower_bound,
    flu_population,
    flu_query,
)
from repro.release.artifacts import (
    ArtifactSpec,
    ArtifactStore,
    verify_artifact,
)
from repro.release.publisher import Publisher
from repro.serving import HTTPServingClient, InProcessClient, MechanismServer


def deployment_artifact(n: int, alpha):
    """Load the compiled geometric deployment, compiling it if missing."""
    directory = os.environ.get(
        "REPRO_ARTIFACT_DIR",
        pathlib.Path(__file__).resolve().parent / ".artifacts",
    )
    store = ArtifactStore(directory)
    spec = ArtifactSpec("geometric", n, alpha)
    precompiled = store.get(spec) is not None
    artifact = store.get_or_compile(spec)
    report = verify_artifact(artifact)
    assert report.ok, f"artifact failed verification: {report.failures}"
    print(
        f"deployment artifact {spec.key()[:12]} "
        f"({'precompiled' if precompiled else 'compiled now'}, "
        f"verified: {', '.join(report.checks)})"
    )
    return store, artifact


def main() -> None:
    rng = np.random.default_rng(20101001)

    # --- Synthesize the survey population ------------------------------
    # n = 6 keeps the exact (Fraction) LP solves instant; crank it up and
    # pass exact=False below for float solves at survey scale.
    database = flu_population(
        6, rng, flu_rate=0.35, san_diego_share=0.7, drug_uptake=0.6
    )
    n = database.size
    query = flu_query()
    true_count = query(database)
    print(query.describe())
    print(f"population={n}, true count={true_count}")

    # --- Publish once at alpha = 1/2, from the compiled artifact -------
    alpha = Fraction(1, 2)
    store, artifact = deployment_artifact(n, alpha)
    publisher = Publisher.from_artifact(database, artifact)
    statistic = publisher.publish(query, rng)
    print(f"published value: {statistic.value}  (alpha={alpha})")

    # --- Three heterogeneous consumers ---------------------------------
    sales_bound = drug_purchases_lower_bound(database)
    consumers = [
        MinimaxAgent(AbsoluteLoss(), None, n=n, name="government"),
        MinimaxAgent(
            SquaredLoss(),
            SideInformation.at_least(sales_bound, n=n),
            n=n,
            name="drug-company",
        ),
        MinimaxAgent(
            ZeroOneLoss(),
            SideInformation.at_most(n - 1, n=n),
            n=n,
            name="journalist",
        ),
    ]
    print(f"\ndrug company's sales lower bound: {sales_bound}")

    # --- Each interacts rationally with the SAME deployment ------------
    deployed = publisher.mechanism
    print(f"\n{'consumer':<14} {'interaction':<16} {'bespoke LP':<16} equal?")
    for agent in consumers:
        interaction = agent.best_interaction(deployed, exact=True)
        bespoke = agent.bespoke_mechanism(alpha, exact=True)
        print(
            f"{agent.name:<14} "
            f"{format_value(interaction.loss):<16} "
            f"{format_value(bespoke.loss):<16} "
            f"{interaction.loss == bespoke.loss}"
        )
        assert interaction.loss == bespoke.loss

    # --- What the drug company actually does with the number -----------
    company = consumers[1]
    kernel = company.best_interaction(deployed, exact=True).kernel
    estimate = company.reinterpret(statistic.value, kernel, rng)
    print(
        f"\ndrug company reinterprets published {statistic.value} "
        f"as {estimate} (never below its sales bound {sales_bound})"
    )
    assert estimate >= sales_bound

    # --- Serve the same deployment live (`repro serve` in miniature) ---
    with tempfile.TemporaryDirectory(prefix="flu-ledger-") as ledger_dir:
        asyncio.run(
            serve_live(store, n, alpha, true_count, pathlib.Path(ledger_dir))
        )


async def serve_live(store, n, alpha, true_count, ledger_dir) -> None:
    """Boot the statistic service on the example's own artifact store."""
    print("\n--- live serving (`repro serve`) ---")
    server = MechanismServer(
        store,
        floor=alpha**3,  # each user may consume three alpha=1/2 releases
        audit_rate=1.0,
        seed=20101001,
        ledger_dir=ledger_dir,  # budgets live in a crash-safe WAL (PR 8)
        ledger_fsync="group",  # one fsync per micro-batch, before release
        trace_rate=1.0,  # trace everything for the demo (PR 9)
        trace_seed=20101003,
    )
    loaded = server.load_store()
    await server.start(port=0)  # ephemeral port; `repro serve` pins one
    print(
        f"serving {loaded} verified deployments on "
        f"http://127.0.0.1:{server.port}"
    )

    # What `curl -d '{"user":"gov","n":6,"alpha":"1/2","true_result":3}'
    # http://127.0.0.1:PORT/publish` would see — a real socket round-trip.
    http = HTTPServingClient("127.0.0.1", server.port)
    status, body = await http.publish(
        user="government", n=n, alpha=str(alpha), true_result=true_count
    )
    print(
        f"HTTP publish -> {status}: value={body['value']} "
        f"(budget left: alpha down to {body['cumulative_alpha']})"
    )
    government_trace = body["trace"]  # traced end-to-end (PR 9)

    # Concurrent consumers fuse into one micro-batched gather.
    client = InProcessClient(server)
    results = await asyncio.gather(*[
        client.publish(
            user=f"clinic-{i}", n=n, alpha=str(alpha), true_result=true_count
        )
        for i in range(32)
    ])
    stats = server.batcher.stats
    print(
        f"32 concurrent clinic queries -> "
        f"{sum(1 for s, _ in results if s == 200)} served in "
        f"{stats['batches'] - 1} fused batch(es) "
        f"(largest {stats['max_batch']})"
    )

    # The ledger is the enforcement point: the government already spent
    # one of its three releases over HTTP; two more succeed, the fourth
    # is refused.
    for _ in range(2):
        status, _ = await client.publish(
            user="government", n=n, alpha=str(alpha), true_result=true_count
        )
        assert status == 200
    status, body = await http.publish(
        user="government", n=n, alpha=str(alpha), true_result=true_count
    )
    print(
        f"4th government release -> {status} (floor ({alpha})^3 reached; "
        f"remaining allowance {body['remaining_alpha']})"
    )
    assert status == 429

    # The online auditor saw every response; nothing diverges from the
    # re-derived geometric law.
    flagged = [f for f in server.audit() if f.flagged]
    print(f"online audit: {len(flagged)} deployments flagged")
    assert not flagged

    # --- Observability (PR 9): the same traffic as the operator sees it.
    # One Prometheus scrape covers requests by status, per-deployment
    # latency histograms, WAL health, and budget burn-down; the HTTP
    # publish above was traced end-to-end through the durable ledger
    # and the fused sampler.
    _, scrape = await server.handle_request(
        "GET", "/metrics?format=prometheus"
    )
    lines = scrape["__raw__"].splitlines()
    for prefix in (
        'repro_requests_total{route="publish",status="200"}',
        "repro_budget_users_near_floor",
    ):
        for line in lines:
            if line.startswith(prefix):
                print(f"scrape: {line}")
                break
    spans = server.telemetry.tracer.recent(trace=government_trace)
    print(
        f"trace {government_trace}: "
        + " -> ".join(record["name"] for record in reversed(spans))
    )

    await http.close()
    await server.stop()

    # --- Durability: the budget survives the server, not the process ---
    # Every charge above was journaled to the write-ahead ledger before
    # its response went out; a fresh server on the same directory starts
    # with the government's budget already spent.
    reborn = MechanismServer(
        store,
        floor=alpha**3,
        audit_rate=0.0,
        seed=20101002,
        ledger_dir=ledger_dir,
    )
    reborn.load_store()
    client = InProcessClient(reborn)
    status, body = await client.publish(
        user="government", n=n, alpha=str(alpha), true_result=true_count
    )
    print(
        f"after restart, government release -> {status} "
        f"(recovered budget: cumulative alpha {body['cumulative_alpha']})"
    )
    assert status == 429  # recovered from the WAL, not refilled
    await reborn.stop()


if __name__ == "__main__":
    main()
