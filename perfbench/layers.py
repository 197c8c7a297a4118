"""The layer map of the traced run and the per-layer metrics it yields.

Layers are named after the program's modules. Each span wraps one public
entry point of a layer (plus the durable ledger's compaction step, the
one private boundary worth a span of its own); see ``README.md`` for which
end-to-end metric each per-layer metric should move, and on which
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spans import Instrumentation, SpanLog, self_times

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("server.transport_us", "us", "lower"),
    ("server.publish_self_us", "us", "lower"),
    ("batch.wait_us_p50", "us", "lower"),
    ("batch.size_mean", "count", "higher"),
    ("batch.deadline_flush_share", "ratio", "lower"),
    ("ledger.charge_us_p50", "us", "lower"),
    ("ledger.charge_us_max", "us", "lower"),
    ("ledger.compactions", "count", "lower"),
    ("ledger.compact_us_per_charge", "us", "lower"),
    ("ledger.wal_bytes_per_charge", "B", "lower"),
    ("ledger.snapshot_bytes_per_charge", "B", "lower"),
    ("ledger.users", "count", "lower"),
    ("ledger.reject_share", "ratio", "lower"),
    ("ledger.sync_us_p50", "us", "lower"),
    ("ledger.publishes_per_fsync", "count", "higher"),
    ("sampler.gather_us_per_query", "us", "lower"),
    ("sampler.queries_per_call", "count", "higher"),
    ("audit.observe_us_per_batch", "us", "lower"),
    ("audit.sweep_ms_total", "ms", "lower"),
    ("artifacts.load_verify_s", "s", "lower"),
    ("artifacts.compile_s.optimal", "s", "lower"),
    ("artifacts.compile_s.geometric", "s", "lower"),
    ("artifacts.verify_s.optimal", "s", "lower"),
    ("artifacts.verify_s.geometric", "s", "lower"),
    ("lp.build_s", "s", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.fallbacks", "count", "lower"),
    ("solver.fallback_share", "ratio", "lower"),
    ("solver.fallback_s", "s", "lower"),
    ("solver.certificate_s", "s", "lower"),
    ("geometric.exact_kernel_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unexplained_us_per_op", "us", "lower"),
)

#: Spans of the serving request path, whose self CPU time is summed
#: against the process CPU time per publish (set-up spans are left out).
#: ``batch.submit`` is left out too: its self time is a parked query
#: waiting while other requests run.
SERVING_WORK_SPANS = (
    "server.handle_request", "server.publish", "batch.flush",
    "ledger.charge", "ledger.sync", "ledger.compact", "sampler.gather",
    "audit.observe", "audit.sweep",
)
#: Spans of the compile path, summed against CPU time per compiled spec.
COMPILE_WORK_SPANS = (
    "artifacts.compile", "artifacts.verify", "lp.build", "solver.solve",
    "solver.certificate", "geometric.kernel",
)


def _bench_id(args, kwargs):
    """Request id of an HTTP request: the generator's ``X-Bench-Id``."""
    headers = args[4] if len(args) > 4 else kwargs.get("headers")
    if headers:
        try:
            return int(headers.get("x-bench-id", 0))
        except ValueError:
            return None
    return None


def install(log: SpanLog, servers: list | None = None) -> Instrumentation:
    """Wrap every layer's entry points so calls record spans in ``log``.

    ``servers`` (optional) collects each :class:`MechanismServer` whose
    store gets loaded, so its batcher and ledger stats can be read later.
    """
    from repro.core import geometric, optimal
    from repro.release import artifacts, durable_ledger
    from repro.sampling import alias
    from repro.serving import audit, batching
    from repro.serving import server as server_mod
    from repro.solvers import hybrid

    inst = Instrumentation(log)
    server_cls = server_mod.MechanismServer

    def keep_server(span_id, args, result):
        if servers is not None:
            servers.append(args[0])

    def charge_outcome(span_id, args, result):
        log.count(f"charge.{result.outcome}")

    def queries(span_id, args, result):
        log.attrs[span_id] = len(args[1])

    def artifact_kind(span_id, args, result):
        log.attrs[span_id] = result.spec.kind

    def verified_kind(span_id, args, result):
        log.attrs[span_id] = result.kind

    def solver_path(span_id, args, result):
        log.attrs[span_id] = args[0].last_path

    inst.method(server_cls, "handle_request", "server.handle_request",
                request_of=_bench_id)
    inst.method(server_cls, "publish", "server.publish")
    inst.method(server_cls, "load_store", "artifacts.load_store",
                after=keep_server)
    inst.method(batching.MicroBatcher, "submit", "batch.submit")
    inst.method(batching.MicroBatcher, "flush", "batch.flush")
    ledger_cls = durable_ledger.DurableLedger
    inst.method(ledger_cls, "charge", "ledger.charge", after=charge_outcome)
    inst.method(ledger_cls, "sync", "ledger.sync")
    inst.method(ledger_cls, "_compact_locked", "ledger.compact")
    inst.tally(durable_ledger.LedgerFS, "write", _count_ledger_bytes(log))
    inst.method(alias.HeterogeneousAliasSampler, "sample", "sampler.gather",
                after=queries)
    inst.method(audit.OnlineAuditor, "observe", "audit.observe")
    inst.method(audit.OnlineAuditor, "sweep", "audit.sweep")
    inst.function(artifacts, "compile_artifact", "artifacts.compile",
                  after=artifact_kind)
    inst.function(artifacts, "verify_artifact", "artifacts.verify",
                  after=verified_kind)
    inst.function(optimal, "build_optimal_lp", "lp.build")
    inst.method(hybrid.HybridBackend, "solve", "solver.solve",
                after=solver_path)
    inst.function(hybrid, "find_certificate", "solver.certificate")
    inst.function(geometric, "geometric_matrix", "geometric.kernel")
    return inst


def _count_ledger_bytes(log: SpanLog):
    def count(args, result):
        handle, data = args[1], args[2]
        kind = "wal" if str(getattr(handle, "name", "")).endswith(
            "wal.jsonl"
        ) else "snapshot"
        log.count(f"bytes.{kind}", len(data))
    return count


@dataclass
class LayerRun:
    """What the traced run knows besides its spans.

    ``ops`` is the number of completed operations (publishes or compiled
    specs) in the traced part; ``cpu_us_*`` the CPU per operation of the
    traced and the untraced part; ``batch_stats``/``ledger_stats`` are
    the serving server's counters at the end of the traced part;
    ``client_latency_us`` maps HTTP request ids to the client-measured
    send-to-response time.
    """

    ops: int
    cpu_us_traced: float
    cpu_us_untraced: float
    batch_stats: dict = field(default_factory=dict)
    ledger_stats: dict = field(default_factory=dict)
    client_latency_us: dict = field(default_factory=dict)


class _Spans:
    """Durations, self times and attributes of the spans of some logs."""

    def __init__(self, logs) -> None:
        self.by_name: dict[str, dict[str, np.ndarray]] = {}
        self.attrs: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        for log in logs:
            cols = log.columns()
            selfs = self_times(
                cols["start"], cols["end"], cols["parent"], cols["id"]
            )
            self_cpu = self_times(
                cols["cpu_start"], cols["cpu_end"], cols["parent"],
                cols["id"],
            )
            for ident, name in enumerate(log.names):
                mask = cols["name"] == ident
                if not mask.any():
                    continue
                part = {
                    "dur": (cols["end"][mask] - cols["start"][mask]) / 1e3,
                    "self": selfs[mask] / 1e3,
                    "self_cpu": self_cpu[mask] / 1e3,
                    "request": cols["request"][mask],
                }
                ids = cols["id"][mask]
                attrs = [log.attrs.get(int(i)) for i in ids]
                old = self.by_name.get(name)
                if old is not None:
                    part = {k: np.concatenate([old[k], part[k]])
                            for k in part}
                    attrs = self.attrs[name] + attrs
                self.by_name[name] = part
                self.attrs[name] = attrs
            for key, value in log.counts.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def dur(self, name) -> np.ndarray:
        return self.by_name.get(name, {}).get("dur", np.zeros(0))

    def total_s(self, name, attr=None) -> float:
        durations = self.dur(name)
        if attr is not None:
            keep = np.array(
                [a == attr for a in self.attrs.get(name, [])], dtype=bool
            )
            durations = durations[keep] if keep.size else durations[:0]
        return float(durations.sum()) / 1e6


def _p(values, q) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def batch_waits_us(submit_start, submit_dur_us, flush_start, flush_dur_us):
    """Time each batched query waited: its ``submit`` span minus the
    ``flush`` that served it (the first flush starting at or after the
    submit started). Inputs are from one log; starts in ns."""
    order = np.argsort(flush_start)
    flush_start = np.asarray(flush_start)[order]
    flush_dur_us = np.asarray(flush_dur_us)[order]
    index = np.searchsorted(flush_start, submit_start, side="left")
    served = index < len(flush_start)
    return np.asarray(submit_dur_us)[served] - flush_dur_us[index[served]]


def layer_metrics(logs, run: LayerRun, serving_logs=None,
                  work=SERVING_WORK_SPANS) -> dict:
    """Every :data:`PER_LAYER` metric; layers the workload never called
    read 0. ``serving_logs`` (default: ``logs``) are the logs of the
    measured operations, against which batch waits and the
    self-time-versus-CPU reconciliation over the ``work`` spans are
    computed."""
    serving_logs = logs if serving_logs is None else serving_logs
    spans = _Spans(logs)
    counts = spans.counts
    out: dict[str, float] = {}

    # serving.server
    transport = []
    handle = spans.by_name.get("server.handle_request")
    if handle is not None and run.client_latency_us:
        for request, dur in zip(handle["request"].tolist(),
                                handle["dur"].tolist()):
            client = run.client_latency_us.get(request)
            if client is not None:
                transport.append(client - dur)
    out["server.transport_us"] = _p(transport, 50)
    publish = spans.by_name.get("server.publish")
    out["server.publish_self_us"] = (
        float(publish["self"].mean()) if publish is not None else 0.0
    )

    # serving.batching
    waits = []
    for log in serving_logs:
        sub, fl = log.select("batch.submit"), log.select("batch.flush")
        if len(sub["start"]) and len(fl["start"]):
            waits.append(batch_waits_us(
                sub["start"], (sub["end"] - sub["start"]) / 1e3,
                fl["start"], (fl["end"] - fl["start"]) / 1e3,
            ))
    out["batch.wait_us_p50"] = _p(
        np.concatenate(waits) if waits else [], 50
    )
    stats = run.batch_stats
    out["batch.size_mean"] = _ratio(stats.get("queries", 0),
                                    stats.get("batches", 0))
    out["batch.deadline_flush_share"] = _ratio(
        stats.get("deadline_flushes", 0), stats.get("batches", 0)
    )

    # release.durable_ledger
    charge = spans.dur("ledger.charge")
    charged = counts.get("charge.charged", 0)
    rejected = counts.get("charge.rejected", 0)
    ledger = run.ledger_stats
    out["ledger.charge_us_p50"] = _p(charge, 50)
    out["ledger.charge_us_max"] = float(charge.max()) if charge.size else 0.0
    out["ledger.compactions"] = float(ledger.get("compactions", 0))
    out["ledger.compact_us_per_charge"] = _ratio(
        spans.total_s("ledger.compact") * 1e6, charged
    )
    out["ledger.wal_bytes_per_charge"] = _ratio(
        counts.get("bytes.wal", 0), charged
    )
    out["ledger.snapshot_bytes_per_charge"] = _ratio(
        counts.get("bytes.snapshot", 0), charged
    )
    out["ledger.users"] = float(ledger.get("users", 0))
    out["ledger.reject_share"] = _ratio(rejected, charged + rejected)
    out["ledger.sync_us_p50"] = _p(spans.dur("ledger.sync"), 50)
    out["ledger.publishes_per_fsync"] = _ratio(
        charged, ledger.get("fsyncs", 0)
    )

    # sampling.alias
    gather = spans.dur("sampler.gather")
    queries = sum(a or 0 for a in spans.attrs.get("sampler.gather", []))
    out["sampler.gather_us_per_query"] = _ratio(gather.sum(), queries)
    out["sampler.queries_per_call"] = _ratio(queries, gather.size)

    # serving.audit
    observe = spans.dur("audit.observe")
    out["audit.observe_us_per_batch"] = (
        float(observe.mean()) if observe.size else 0.0
    )
    out["audit.sweep_ms_total"] = spans.total_s("audit.sweep") * 1e3

    # release.artifacts
    out["artifacts.load_verify_s"] = _p(spans.dur("artifacts.load_store"),
                                        50) / 1e6
    for kind in ("optimal", "geometric"):
        out[f"artifacts.compile_s.{kind}"] = spans.total_s(
            "artifacts.compile", kind
        )
        out[f"artifacts.verify_s.{kind}"] = spans.total_s(
            "artifacts.verify", kind
        )

    # core.optimal, solvers.hybrid, core.geometric
    out["lp.build_s"] = spans.total_s("lp.build")
    solves = spans.dur("solver.solve")
    fallbacks = sum(
        1 for a in spans.attrs.get("solver.solve", []) if a == "fallback"
    )
    out["solver.solve_s"] = float(solves.sum()) / 1e6
    out["solver.fallbacks"] = float(fallbacks)
    out["solver.fallback_share"] = _ratio(fallbacks, solves.size)
    out["solver.fallback_s"] = spans.total_s("solver.solve", "fallback")
    out["solver.certificate_s"] = spans.total_s("solver.certificate")
    out["geometric.exact_kernel_s"] = spans.total_s("geometric.kernel")

    # the benchmark's own tracing
    out["trace.overhead_share"] = _ratio(
        run.cpu_us_traced - run.cpu_us_untraced, run.cpu_us_untraced
    )
    out["trace.unexplained_us_per_op"] = run.cpu_us_traced - sum(
        cpu for _, _, cpu in self_time_table(serving_logs, run.ops, work)
    )
    return out


def self_time_table(logs, ops: int, names) -> list[tuple[str, float, float]]:
    """``(span name, self wall µs per op, self CPU µs per op)`` of the
    spans called ``names``, largest CPU first."""
    spans = _Spans(logs)
    rows = [
        (name, _ratio(float(part["self"].sum()), ops),
         _ratio(float(part["self_cpu"].sum()), ops))
        for name, part in spans.by_name.items()
        if name in names
    ]
    return sorted(rows, key=lambda row: -row[2])
