"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload http_open --seed 1 --seconds 15 \\
        --trace 0

Run from the root of a checkout. ``--workload all`` runs every workload
in turn, each in its own process, and exits 1 unless every output check
passed. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the workload untraced and
traced for half of ``--seconds`` each and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 when a result was printed (``correct`` may still be false),
2 when the program's sources are missing and 3 when the run was invalid
(the load generator ran late), in which case no result is printed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import compile_grid as grid  # noqa: E402
from perfbench import serving  # noqa: E402
from perfbench.common import (  # noqa: E402
    SETUPS,
    WORK,
    cleanup,
    envelope,
    median,
    require_program,
    scratch_dir,
)
from perfbench.layers import (  # noqa: E402
    COMPILE_WORK_SPANS,
    PER_LAYER,
    SERVING_WORK_SPANS,
    LayerRun,
    install,
    layer_metrics,
    self_time_table,
)
from perfbench.probe import run_probe  # noqa: E402
from perfbench.spans import SpanLog  # noqa: E402

#: ``(name, unit)`` of every end-to-end metric, reported on every
#: workload (see README.md for what "operation" means on each).
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("rss_growth_mb", "MB"),
)
WORKLOADS = ("http_open", "inproc_burst", "compile_grid")


class InvalidRun(Exception):
    """The measurement itself is not trustworthy (not a slow program)."""


def _e2e(values: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END}


# -- workloads -------------------------------------------------------------
def _serving(phase, params, name, seed, seconds, trace, report):
    """A serving workload: ``phase`` is ``serving.http_phase`` or
    ``serving.inproc_phase``."""
    if not trace:
        store, compile_times = serving.compile_served()
        out = phase(store, seed, seconds, setups=SETUPS)
        _lateness(out, params, report)
        _serving_lines(out, report)
        values = dict(out, setup_s=median(out["setup_times"]),
                      compile_s=median(compile_times))
        return values, out
    compile_log = SpanLog()
    store, _ = serving.compile_served(1, log=compile_log)
    plain = phase(store, seed, seconds / 2)
    traced = phase(store, seed, seconds / 2, trace_path=WORK / f"trace-{name}")
    for out in (plain, traced):
        _lateness(out, params, report)
        _serving_lines(out, report)
    run = LayerRun(
        ops=traced["completed"],
        cpu_us_traced=traced["cpu_us_per_op"],
        cpu_us_untraced=plain["cpu_us_per_op"],
        batch_stats=traced["batch_stats"],
        ledger_stats=traced["ledger_stats"],
        client_latency_us=traced.get("client_latency_us", {}),
    )
    per = layer_metrics([compile_log, traced["log"]], run, [traced["log"]])
    _reconcile(report, [traced["log"]], run, per, SERVING_WORK_SPANS)
    return per, _merge(plain, traced)


def http_open(seed, seconds, trace, report):
    params = dict(serving.HTTP_PARAMS)
    return (params, *_serving(serving.http_phase, params, "http_open",
                              seed, seconds, trace, report))


def inproc_burst(seed, seconds, trace, report):
    params = dict(serving.INPROC_PARAMS)
    return (params, *_serving(serving.inproc_phase, params, "inproc_burst",
                              seed, seconds, trace, report))


def compile_grid(seed, seconds, trace, report):
    params = dict(grid.PARAMS)
    specs = grid.ordered_specs(seed)
    if not trace:
        setup_times = grid.measure_setup()
        passes, rss_growth = grid.run_passes(specs, seconds)
        out = grid.summarize(passes, rss_growth)
        report.append(f"  {len(passes)} cold pass(es) of {len(specs)} specs; "
                      f"set-ups {[round(t, 4) for t in setup_times]} s")
        out.update(attempted=out["ops"], failed_ops=0,
                   setup_s=median(setup_times))
        return params, out, out
    half = seconds / 2
    plain = grid.summarize(*grid.run_passes(specs, half))
    log = SpanLog()
    inst = install(log)
    try:
        traced = grid.summarize(*grid.run_passes(specs, half))
    finally:
        inst.remove()
    log.save(WORK / "trace-compile_grid")
    ops = traced["ops"]
    run = LayerRun(ops=ops, cpu_us_traced=traced["cpu_us_per_op"],
                   cpu_us_untraced=plain["cpu_us_per_op"])
    per = layer_metrics([log], run, work=COMPILE_WORK_SPANS)
    _reconcile(report, [log], run, per, COMPILE_WORK_SPANS)
    out = {"attempted": plain["ops"] + ops, "failed_ops": 0,
           "failures": plain["failures"] + traced["failures"]}
    return params, per, out


RUNNERS = {"http_open": http_open, "inproc_burst": inproc_burst,
           "compile_grid": compile_grid}


# -- report helpers --------------------------------------------------------
def _lateness(out, params, report):
    """A run whose generator sent late is invalid, not slow."""
    if "lateness_p50_ms" not in out:
        return
    report.append(
        f"  generator lateness p50={out['lateness_p50_ms']:.4f} ms "
        f"p99={out['lateness_p99_ms']:.4f} ms (limits "
        f"{params['lateness_p50_limit_ms']} / "
        f"{params['lateness_p99_limit_ms']} ms)"
    )
    for q in ("p50", "p99"):
        value, limit = (out[f"lateness_{q}_ms"],
                        params[f"lateness_{q}_limit_ms"])
        if value > limit:
            raise InvalidRun(f"load generator lateness {q} {value:.3f} ms "
                             f"exceeds the {limit} ms limit")


def _serving_lines(out, report):
    report.append(
        f"  {out['completed']} publishes answered of {out['attempted']}; "
        f"budget 429 share {out['reject_share']:.4f}; set-ups "
        f"{[round(t, 4) for t in out['setup_times']]} s"
    )
    if "offered_per_s" in out:
        report.append(f"  offered {out['offered_per_s']:.2f}/s, completed "
                      f"{out['ops_per_s']:.2f}/s")
    report.extend("  " + line for line in out["lines"])


def _reconcile(report, logs, run, per, names):
    explained = run.cpu_us_traced - per["trace.unexplained_us_per_op"]
    report.append("  self time per op by span (traced part): wall / CPU")
    for name, wall, cpu in self_time_table(logs, run.ops, names):
        report.append(f"    {name:<24} {wall:12.3f} us {cpu:12.3f} us")
    report.append(
        f"  reconciliation: layer self CPU {explained:.3f} us/op vs "
        f"traced CPU {run.cpu_us_traced:.3f} us/op -> unexplained "
        f"{per['trace.unexplained_us_per_op']:.3f} us/op; "
        f"trace.overhead_share {per['trace.overhead_share']:.4f} "
        f"(untraced CPU {run.cpu_us_untraced:.3f} us/op)"
    )


def _merge(plain, traced):
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed_ops": plain["failed_ops"] + traced["failed_ops"],
        "failures": plain["failures"] + traced["failures"],
    }


# -- main -------------------------------------------------------------------
def _run_all(args) -> int:
    """Every workload in a fresh process; 1 unless all were correct."""
    ok = True
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(done.stdout, end="", flush=True)
        lines = done.stdout.strip().splitlines()
        ok = ok and done.returncode == 0 and bool(lines) and (
            json.loads(lines[-1]).get("correct") is True
        )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    if args.workload == "all":
        return _run_all(args)
    report = [f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}"]
    try:
        try:
            params, values, out = RUNNERS[args.workload](
                args.seed, args.seconds, bool(args.trace), report
            )
        except InvalidRun as err:
            print("\n".join(report))
            print(f"perfbench: invalid run: {err}", file=sys.stderr)
            return 3
        probe = run_probe(scratch_dir("probe-store-"))
    finally:
        cleanup()
    failures = out["failures"]
    failed = out["failed_ops"] + len(failures)
    attempted = max(1, out["attempted"])
    if args.trace:
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = _e2e(values)
    for name, metric in metrics.items():
        report.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        # Printed, not reported: on the 2-vCPU VM the benchmark was built
        # on, their run-to-run spread exceeded the largest allowed bound.
        for name, unit in (("op_p99_ms", "ms"), ("compile_s", "s")):
            report.append(f"  {name} = {values[name]:.6g} {unit} "
                          "(printed, not gated)")
    report.append(f"  failed_share = {failed / attempted:.6g} "
                  f"({failed}/{attempted})")
    report.extend(f"  CHECK FAILED: {failure}" for failure in failures)
    report.append(
        f"  known defect (floor 0): first failing publish "
        f"{probe['first_failure']}, {probe['charges_recorded']} charges "
        f"recorded; us/publish by 1000: {probe['us_per_publish_by_1000']}"
    )
    print("\n".join(report))
    print("PROBE " + json.dumps(probe))
    print("ENVELOPE " + json.dumps(envelope(
        args.workload, args.seed, args.seconds, bool(args.trace), params
    )))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
