"""The ``compile_grid`` workload: certified compiles from a cold store.

Each pass starts from a fresh ``ArtifactStore`` with no ``SolveCache``
and cleared in-process caches, and runs ``compile_artifact`` (through
``ArtifactStore.get_or_compile``) plus ``verify_artifact`` over 72
bespoke ``optimal`` specs and two large geometric ones, in a seeded
order.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from .common import (
    ROOT,
    SETUPS,
    RssPeak,
    child_env,
    median,
    percentile,
    remove_tree,
    scratch_dir,
)
from .inputs import shuffled

PARAMS = {
    "optimal_n": [6, 8, 10, 12],
    "optimal_alpha": ["1/2", "1/3", "1/4"],
    "losses": ["absolute", "squared", "zero-one"],
    "sides": ["full", "upper half"],
    "geometric_n": [100, 200],
    "geometric_alpha": "1/2",
    "solve_cache": "none; fresh store and cleared caches per pass",
}

#: Set-up as a user of ``repro compile`` pays it: a fresh interpreter
#: importing the compile stack and opening a fresh store.
_SETUP_CODE = (
    "import sys; from repro.release.artifacts import ArtifactStore, "
    "compile_artifact, verify_artifact; import repro.core.optimal, "
    "repro.solvers.hybrid; ArtifactStore(sys.argv[1])"
)


def grid_specs():
    from repro.release.artifacts import ArtifactSpec

    specs = []
    for n in PARAMS["optimal_n"]:
        for alpha in PARAMS["optimal_alpha"]:
            for loss in PARAMS["losses"]:
                for side in (None, tuple(range(n // 2, n + 1))):
                    specs.append(ArtifactSpec("optimal", n, Fraction(alpha),
                                              loss=loss, side=side))
    for n in PARAMS["geometric_n"]:
        specs.append(ArtifactSpec("geometric", n,
                                  Fraction(PARAMS["geometric_alpha"])))
    return specs


def measure_setup() -> list[float]:
    times = []
    for _ in range(SETUPS):
        store = scratch_dir("setup-store-")
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(store)],
                       env=child_env(), cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
        remove_tree(store)
    return times


def run_pass(specs, rss: RssPeak) -> dict:
    """One cold pass over ``specs``; returns timings and check results.
    ``rss`` is sampled after every spec."""
    import repro
    from repro.release.artifacts import ArtifactStore, verify_artifact
    from repro.serving.audit import expected_response_matrix

    store_dir = scratch_dir("grid-store-")
    repro.clear_caches()
    op_s, failures = [], []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        store = ArtifactStore(store_dir)
        for spec in specs:
            t = time.perf_counter()
            artifact = store.get_or_compile(spec, solve_cache=False)
            report = verify_artifact(artifact)
            op_s.append(time.perf_counter() - t)
            rss.sample()
            if not report.ok:
                failures.append(f"{spec.canonical()}: {report.failures}")
            elif spec.kind == "geometric" and not np.allclose(
                artifact.float_matrix, expected_response_matrix(spec),
                rtol=1e-9, atol=1e-12,
            ):
                failures.append(f"{spec.canonical()}: kernel differs from "
                                "the re-derived geometric law")
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    finally:
        remove_tree(store_dir)
    return {"wall": wall, "cpu": cpu, "op_s": op_s, "failures": failures}


def run_passes(specs, seconds: float) -> tuple[list[dict], float]:
    """Cold passes until the next one would overrun ``seconds`` (always
    at least one); returns the passes and the peak RSS growth over
    them."""
    rss = RssPeak()
    passes = [run_pass(specs, rss)]
    used = passes[0]["wall"]
    while used + passes[-1]["wall"] <= seconds:
        passes.append(run_pass(specs, rss))
        used += passes[-1]["wall"]
    return passes, rss.growth_mb


def summarize(passes, rss_growth_mb: float) -> dict:
    op_ms = np.concatenate([np.asarray(p["op_s"]) for p in passes]) * 1e3
    ops = len(op_ms)
    wall = sum(p["wall"] for p in passes)
    return {
        "compile_s": median([p["wall"] for p in passes]),
        "op_p50_ms": percentile(op_ms, 50),
        "op_p99_ms": percentile(op_ms, 99),
        "ops_per_s": ops / wall,
        "cpu_us_per_op": sum(p["cpu"] for p in passes) / ops * 1e6,
        "rss_growth_mb": rss_growth_mb,
        "ops": ops,
        "failures": [f for p in passes for f in p["failures"]],
    }


def ordered_specs(seed: int):
    return shuffled(grid_specs(), seed)
