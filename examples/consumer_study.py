#!/usr/bin/env python3
"""Consumer study: universality across a grid of preferences.

Theorem 1 is a *for all* statement; this study makes it tangible by
sweeping losses (absolute, squared, zero-one, capped, threshold),
side-information sets, and privacy levels, reporting for each cell the
bespoke LP optimum, the interaction loss against the deployed geometric
mechanism, and their (always zero) gap. A second sweep runs the
Bayesian baseline of Ghosh et al. (Section 2.7) for contrast.

The closing act serves the study's deployments live: the grid of
side-information artifacts is pre-warmed the way
``repro compile --side-grid`` does, and the whole heterogeneous
population of consumers then queries one running server concurrently —
every response zero-solve, fused into micro-batches.

Run:  python examples/consumer_study.py
"""

import asyncio
from fractions import Fraction

from repro.analysis.fractions_fmt import format_value
from repro.analysis.sweeps import (
    bayesian_universality_sweep,
    universality_sweep,
)
from repro.losses import (
    AbsoluteLoss,
    CappedLoss,
    SquaredLoss,
    ThresholdLoss,
    ZeroOneLoss,
)


def main() -> None:
    n = 3
    losses = [
        AbsoluteLoss(),
        SquaredLoss(),
        ZeroOneLoss(),
        CappedLoss(AbsoluteLoss(), 2),
        ThresholdLoss(1),
    ]
    side_infos = [None, {0, 1}, {1, 2, 3}]
    alphas = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]

    cases = [
        (n, alpha, loss, side)
        for alpha in alphas
        for loss in losses
        for side in side_infos
    ]
    print(f"minimax universality sweep: {len(cases)} consumers, n={n}")
    header = f"{'alpha':>6} {'loss':<28} {'S':<12} {'bespoke':>10} {'interact':>10} gap"
    print(header)
    print("-" * len(header))
    records = universality_sweep(cases, exact=True)
    for record in records:
        side_label = (
            "all" if len(record.side_information) == n + 1
            else str(set(record.side_information))
        )
        print(
            f"{str(record.alpha):>6} "
            f"{record.loss_name:<28} "
            f"{side_label:<12} "
            f"{format_value(record.bespoke_loss):>10} "
            f"{format_value(record.interaction_loss):>10} "
            f"{format_value(record.gap)}"
        )
    assert all(record.holds for record in records)
    print(f"\nall {len(records)} minimax consumers: gap == 0 exactly")

    # --- Bayesian baseline (GRS09) -------------------------------------
    uniform = [Fraction(1, n + 1)] * (n + 1)
    skewed = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
    bayes_cases = [
        (n, alpha, loss, prior)
        for alpha in alphas[:2]
        for loss in losses[:3]
        for prior in (uniform, skewed)
    ]
    bayes_records = bayesian_universality_sweep(bayes_cases, exact=True)
    assert all(record.holds for record in bayes_records)
    print(
        f"Bayesian baseline sweep: all {len(bayes_records)} consumers "
        "optimal too (GRS09, reproduced)"
    )

    # --- Serve the study's deployments live ----------------------------
    asyncio.run(serve_study(n, alphas))


async def serve_study(n, alphas) -> None:
    """Pre-warm a side-information grid and serve it to live consumers."""
    import tempfile

    from repro.release.artifacts import ArtifactSpec, ArtifactStore
    from repro.serving import InProcessClient, MechanismServer

    print("\n--- live serving of the study grid (`repro serve`) ---")
    with tempfile.TemporaryDirectory(prefix="consumer-study-") as tmp:
        # What `repro compile -n 3 --alphas ... --side-grid lower` does:
        # the geometric release per level plus a bespoke optimal
        # mechanism per "result >= b" side-information set, so the
        # server never meets a solver while requests are in flight.
        store = ArtifactStore(tmp)
        specs = []
        for alpha in alphas:
            specs.append(ArtifactSpec("geometric", n, alpha))
            for bound in range(1, n + 1):
                specs.append(
                    ArtifactSpec(
                        "optimal", n, alpha,
                        loss="absolute", side=tuple(range(bound, n + 1)),
                    )
                )
        for spec in specs:
            store.get_or_compile(spec)

        server = MechanismServer(
            store, audit_rate=0.1, seed=7
        )
        loaded = server.load_store()
        print(f"pre-warmed and loaded {loaded} verified deployments")

        client = InProcessClient(server)
        requests = [
            client.publish(
                user=f"consumer-{i}",
                n=n,
                alpha=str(alphas[i % len(alphas)]),
                true_result=i % (n + 1),
                **(
                    {}
                    if i % 2 == 0
                    else {
                        "kind": "optimal",
                        "loss": "absolute",
                        "side": list(range(1 + i % n, n + 1)),
                    }
                ),
            )
            for i in range(60)
        ]
        results = await asyncio.gather(*requests)
        served = sum(1 for status, _ in results if status == 200)
        stats = server.batcher.stats
        print(
            f"{served}/60 heterogeneous consumers served in "
            f"{stats['batches']} fused batch(es) "
            f"(largest {stats['max_batch']}); "
            f"{server.metrics['audit_recorded']} responses audited"
        )
        assert served == 60
        assert not [f for f in server.audit() if f.flagged]

        # PR 9: one /metrics scrape covers the serving layer and the
        # solver layer that compiled the grid (solve-cache hits,
        # artifact-store loads land in the process-default registry).
        _, scrape = await server.handle_request(
            "GET", "/metrics?format=prometheus"
        )
        lines = scrape["__raw__"].splitlines()
        latency_series = sum(
            1
            for line in lines
            if line.startswith("repro_publish_latency_seconds_count")
        )
        solver = [
            line
            for line in lines
            if line.startswith(
                ("repro_solve_cache_total", "repro_artifact_store_total")
            )
        ]
        print(
            f"one /metrics scrape: latency histograms for "
            f"{latency_series} deployments; solver layer: "
            + ", ".join(solver[:3])
        )


if __name__ == "__main__":
    main()
