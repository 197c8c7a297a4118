"""The telemetry bundle a serving process threads through its layers.

One :class:`Telemetry` holds the metrics registry and the tracer for a
process, plus the instrument handles the hot paths cache once at
construction (so a request increments pre-resolved children instead of
re-resolving label values). The server builds one and hands it to the
batcher, the durable ledger, and the clients; the solver layer writes
to :func:`repro.obs.metrics.default_registry` instead, which
:meth:`Telemetry.default` adopts so one ``GET /metrics`` scrape covers
the whole stack.

``MechanismServer(..., telemetry=False)`` is the telemetry-off
configuration the overhead benchmark compares against: the server holds
``None`` and skips instrumentation entirely, so "off" really is zero
added work.
"""

from __future__ import annotations

from .metrics import MetricsRegistry, default_registry
from .tracing import Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """Metrics registry + tracer, with the serving instruments prebuilt.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` to instrument. Defaults to the
        process-wide registry so solver-layer counters appear in the
        same scrape.
    trace_rate / trace_dir / trace_ring / trace_seed:
        Forwarded to :class:`Tracer` (a pre-built ``tracer`` wins).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        tracer: Tracer | None = None,
        trace_rate: float = 0.0,
        trace_dir=None,
        trace_ring: int = 1024,
        trace_seed: int | None = None,
    ) -> None:
        self.registry = default_registry() if registry is None else registry
        self.tracer = (
            Tracer(
                trace_rate,
                trace_dir,
                ring=trace_ring,
                seed=trace_seed,
            )
            if tracer is None
            else tracer
        )
        reg = self.registry
        # Serving-layer instruments. Created here (idempotently) so every
        # family appears in the exposition from the first scrape, and so
        # hot paths can cache children without None checks.
        self.requests = reg.counter(
            "repro_requests_total",
            "Requests handled, by route and response status.",
            labels=("route", "status"),
        )
        self.publish_latency = reg.histogram(
            "repro_publish_latency_seconds",
            "End-to-end publish latency, by deployment spec key.",
            labels=("key",),
        )
        self.ledger_outcomes = reg.counter(
            "repro_ledger_charges_total",
            "Ledger charge decisions, by outcome.",
            labels=("outcome",),
        )
        self.batch_flushes = reg.counter(
            "repro_batch_flushes_total",
            "Micro-batch flushes, by reason "
            "(max_size, idle, deadline, manual or close).",
            labels=("reason",),
        )
        self.batch_size = reg.histogram(
            "repro_batch_size",
            "Rows fused per micro-batch flush.",
            buckets=tuple(float(1 << i) for i in range(15)),
        )
        self.batch_flush_latency = reg.histogram(
            "repro_batch_flush_seconds",
            "Wall time of one micro-batch execute (gather + fsync).",
        )
        self.gather_latency = reg.histogram(
            "repro_sampler_gather_seconds",
            "Fused alias-table gather time per batch.",
        )
        self.wal_append_latency = reg.histogram(
            "repro_wal_append_seconds",
            "WAL record append time (excluding fsync).",
        )
        self.wal_fsync_latency = reg.histogram(
            "repro_wal_fsync_seconds",
            "WAL fsync time, by fsync mode.",
            labels=("mode",),
        )
        self.wal_journal_bytes = reg.gauge(
            "repro_wal_journal_bytes",
            "Current size of the write-ahead journal in bytes.",
        )
        self.ledger_compactions = reg.counter(
            "repro_ledger_compactions_total",
            "Snapshot-and-truncate compactions of the WAL.",
        )
        self.audit_findings = reg.counter(
            "repro_audit_findings_total",
            "Online audit sweep findings, by flagged verdict.",
            labels=("flagged",),
        )
        self.client_retries = reg.counter(
            "repro_client_retries_total",
            "HTTP client retry attempts, by error kind.",
            labels=("error",),
        )
        self.client_latency = reg.histogram(
            "repro_client_request_seconds",
            "HTTP client logical round-trip time (incl. retries).",
        )
        self.users_near_floor = reg.gauge(
            "repro_budget_users_near_floor",
            "Users within k further charges of their privacy floor.",
            labels=("within",),
        )
        self.user_spent_fraction = reg.gauge(
            "repro_user_spent_fraction",
            "Epsilon-fraction of budget spent, top burners by user.",
            labels=("user",),
        )
        self.deployment_epsilon = reg.gauge(
            "repro_deployment_epsilon_spent",
            "Total epsilon charged through a deployment "
            "(charges * -ln(alpha)), by spec key.",
            labels=("key",),
        )
        # Fleet / overload protection (PR 10). Sheds happen before any
        # ledger charge; the breaker gauges make a durability outage
        # impossible to miss; the degraded pair exposes how much traffic
        # rides the certified geometric fallback.
        self.sheds = reg.counter(
            "repro_serving_shed_total",
            "Requests shed before any ledger charge, by reason.",
            labels=("reason",),
        )
        self.admission_inflight = reg.gauge(
            "repro_serving_admission_inflight",
            "Admitted publishes currently in flight.",
        )
        self.admission_brownout = reg.gauge(
            "repro_serving_brownout_active",
            "1 while sustained overload is shedding optional work.",
        )
        self.brownout_skips = reg.counter(
            "repro_serving_brownout_skips_total",
            "Optional work skipped under brownout, by kind.",
            labels=("kind",),
        )
        self.breaker_state = reg.gauge(
            "repro_wal_breaker_open",
            "1 while the WAL circuit breaker is open (charges follow "
            "the configured failure policy).",
        )
        self.breaker_trips = reg.counter(
            "repro_wal_breaker_trips_total",
            "WAL circuit breaker transitions, by kind (open/recover).",
            labels=("kind",),
        )
        self.degraded_deployments = reg.gauge(
            "repro_serving_degraded_deployments",
            "Quarantined deployments currently served by the geometric "
            "fallback.",
        )
        self.degraded_responses = reg.counter(
            "repro_serving_degraded_responses_total",
            "Responses served by a geometric fallback for a "
            "quarantined bespoke deployment.",
        )
        self.worker_ready = reg.gauge(
            "repro_serving_worker_ready",
            "1 while this worker passes its own readiness checks.",
        )

    @classmethod
    def default(cls, **kwargs) -> "Telemetry":
        """Telemetry over the process-wide default registry."""
        return cls(default_registry(), **kwargs)

    def close(self) -> None:
        self.tracer.close()
