"""Known-defect probe: the shipped default ``--floor 0`` (accounting
only) keeps an exact, ever-growing ``Fraction`` per user.

One user publishes at alpha=1/4 until a publish raises. Once the
cumulative alpha 4^-k has more than 4300 digits, ``str()`` of it (the
``cumulative_alpha`` response field) raises ``ValueError`` out of
``MechanismServer.publish`` -- after the charge was recorded. On the
seed the first failure is publish 7143. Reported, never gated: the
probe runs once per invocation, outside every timed workload.
"""

from __future__ import annotations

import asyncio
import time
from fractions import Fraction

PROBE_N = 40
PROBE_ALPHA = Fraction(1, 4)
LIMIT = 8000
BLOCK = 1000


async def _probe(store_dir) -> dict:
    from repro.release.artifacts import ArtifactSpec, ArtifactStore
    from repro.serving.server import MechanismServer

    store = ArtifactStore(store_dir)
    spec = ArtifactSpec("geometric", PROBE_N, PROBE_ALPHA)
    store.get_or_compile(spec, solve_cache=False)
    # The CLI defaults (floor 0, in-memory budgets, telemetry on), but
    # unbatched so a lone sequential caller never waits on a window.
    server = MechanismServer(store, batch_window=0)
    server.load(spec)
    payload = {"user": "probe", "n": PROBE_N, "alpha": str(PROBE_ALPHA),
               "true_result": PROBE_N // 2}
    times = []
    failure = None
    try:
        for k in range(1, LIMIT + 1):
            t0 = time.perf_counter()
            try:
                await server.publish(dict(payload))
            except ValueError as err:
                failure = {"publish": k, "error": str(err)[:120]}
                break
            times.append(time.perf_counter() - t0)
        releases = len(server.ledger("probe"))
    finally:
        await server.stop()
    curve = [
        round(sum(times[i:i + BLOCK]) / len(times[i:i + BLOCK]) * 1e6, 1)
        for i in range(0, len(times), BLOCK)
    ]
    return {
        "first_failure": failure["publish"] if failure else None,
        "error": failure["error"] if failure else None,
        "charges_recorded": releases,
        "us_per_publish_by_1000": curve,
    }


def run_probe(store_dir) -> dict:
    return asyncio.run(_probe(store_dir))
