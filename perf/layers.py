"""Per-layer metrics: spans from the traced pass plus the program's own
counters, turned into the names in :data:`perf.metrics.PER_LAYER`.

Times are self time per call (so layers add up to a statement, see
``trace.py``); counts are deltas over the measured phase, read from the
counters the program already keeps.  A layer the workload bypasses reads 0.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from perf.harness import Outcome
from perf import trace
from perf.trace import SpanTotals

_NONE = SpanTotals()


def _database_counters(db: Any) -> dict[str, float]:
    counters: dict[str, float] = {
        "parse_hits": db.parse_cache_stats["hits"],
        "parse_misses": db.parse_cache_stats["misses"],
        "plan_hits": db.executor.plan_cache.stats["hits"],
        "plan_misses": db.executor.plan_cache.stats["misses"],
        "kernel_fallbacks": db.metrics.counter("kernel_fallbacks_total").value,
    }
    if db.storage is not None:
        wal = db.storage.wal.stats
        counters["wal_bytes"] = wal.bytes_written
        counters["wal_fsyncs"] = wal.fsyncs
    if db.task_manager is not None:
        crowd = db.crowd_stats
        for key in (
            "hits_posted", "marketplace_rounds", "cache_hits",
            "assignments_received",
        ):
            counters[key] = crowd.get(key, 0)
    return counters


def read_counters(state: Any) -> dict[str, float]:
    """The program's counters that per-layer ratios and counts come from,
    summed over the state's databases (``crowd_mix`` has one per round)."""
    counters: dict[str, float] = {}
    for db in getattr(state, "dbs", None) or [state.db]:
        for key, value in _database_counters(db).items():
            counters[key] = counters.get(key, 0) + value
    probe = getattr(state, "probe", None)
    if probe is not None:
        counters["checkpoints"] = probe.checkpoints
        counters["checkpoint_bytes"] = probe.checkpoint_bytes
    server = getattr(state, "server", None)
    if server is not None:
        counters["admission_waits"] = server.admission.stats.waitlisted
    return counters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_budget(spans: Iterable[list]) -> dict[str, float]:
    """Share of statement wall each layer was busy, from self times.

    The denominator is the wall of the ``stmt`` spans — what the clients
    observed.  Wall inside a statement that no layer span covers is
    ``(untraced)``.  When the client waits on other threads (TCP), the work
    those threads do is counted under its own layer and the rest of the
    wait — no thread inside any span — is ``(idle)``: hand-offs between
    threads, socket and event-loop wake-ups, the interpreter lock.
    """
    shares: dict[str, float] = {}
    statement_ns = waited_ns = busy_elsewhere_ns = 0
    for span, self_ns in trace.self_times(spans):
        name = span[trace.NAME]
        in_statement = trace.root_of(span)[trace.NAME] == "stmt"
        if name == "stmt":
            statement_ns += span[trace.END] - span[trace.START]
            layer = "(untraced)"
        elif name in trace.WAIT_SPANS:
            if in_statement:
                waited_ns += self_ns
            continue  # a parked thread is not a busy layer
        else:
            layer = name.split(".", 1)[0]
            if not in_statement:
                busy_elsewhere_ns += self_ns
        shares[layer] = shares.get(layer, 0.0) + self_ns
    if waited_ns:
        shares["(idle)"] = max(0, waited_ns - busy_elsewhere_ns)
    return {
        layer: _ratio(self_ns, statement_ns)
        for layer, self_ns in shares.items()
    }


def per_layer_metrics(
    measured: Mapping[str, SpanTotals],
    with_setup: Mapping[str, SpanTotals],
    after_phase: Mapping[str, SpanTotals],
    counters: Mapping[str, float],
    traced: Outcome,
    untraced: Outcome,
    notes: Mapping[str, Any],
) -> dict[str, float]:
    """``measured`` are the traced pass's spans inside the measured phase,
    ``with_setup`` adds set-up (bulk ``storage.insert``), ``after_phase``
    are the spans of ``finish`` (recovery).  ``counters`` are deltas over
    the traced measured phase."""

    def span(name: str, source: Mapping[str, SpanTotals] = measured) -> SpanTotals:
        return source.get(name, _NONE)

    statements = max(1, span("stmt").calls)
    drain = span("exec.drain")
    cold = span("storage.scan_columns_cold")
    warm = span("storage.scan_columns_warm")
    recover = span("storage.recover", after_phase)
    hits = counters.get("hits_posted", 0)
    crowd_ns = sum(
        measured[name].self_ns
        for name in measured
        if name.startswith(("crowd.", "ui."))
    )
    pages = span("net.result_pages")
    pack = span("net.pack_frame")
    payload = span("net.decode_payload")
    rows_sent = pages.count
    latencies = sorted(untraced.latencies_ns)
    tcp_p50_ms = latencies[len(latencies) // 2] / 1e6 if latencies else 0.0
    inproc_p50_ms = notes.get("inproc_stmt_p50_ms", 0.0)
    # share of statement wall that lies inside some layer's span
    covered = 1.0 - _ratio(span("stmt").self_ns, span("stmt").total_ns)
    return {
        "sql.parse_us": span("sql.parse").self_us_per_call(),
        "sql.parse_cache_hit_ratio": _ratio(
            counters["parse_hits"],
            counters["parse_hits"] + counters["parse_misses"],
        ),
        "plan.build_us": span("plan.build").self_us_per_call(),
        "plan.bind_us": span("plan.bind").self_us_per_call(),
        "optimizer.optimize_us": span("optimizer.optimize").self_us_per_call(),
        "optimizer.plan_cache_hit_ratio": _ratio(
            counters["plan_hits"],
            counters["plan_hits"] + counters["plan_misses"],
        ),
        "engine.physical_plan_us": span(
            "engine.physical_plan"
        ).self_us_per_call(),
        "engine.execute_self_ms": span("engine.execute").self_ms_per_call(),
        "engine.rows_scanned_per_row_returned": _ratio(
            traced.rows_scanned, traced.rows_returned
        ),
        "exec.drain_ms": drain.self_ms_per_call(),
        "exec.rows_per_s": _ratio(traced.rows_scanned, drain.self_ns / 1e9),
        "exec.kernel_fallbacks": counters["kernel_fallbacks"],
        "storage.insert_us": span(
            "storage.insert", with_setup
        ).self_us_per_call(),
        "storage.scan_columns_cold_ms": cold.self_ms_per_call(),
        "storage.scan_columns_warm_us": warm.self_us_per_call(),
        "storage.index_lookup_us": span(
            "storage.index_lookup"
        ).self_us_per_call(),
        "storage.wal_append_us": span("storage.wal_append").self_us_per_call(),
        "storage.wal_bytes": counters.get("wal_bytes", 0),
        "storage.wal_fsyncs": counters.get("wal_fsyncs", 0),
        "storage.checkpoints": counters.get("checkpoints", 0),
        "storage.checkpoint_ms": span("storage.checkpoint").self_ms_per_call(),
        "storage.checkpoint_bytes": counters.get("checkpoint_bytes", 0),
        "storage.checkpoint_load_ms": _ratio(
            span("storage.checkpoint_load", after_phase).self_ns / 1e6,
            recover.calls,
        ),
        "storage.wal_replay_ms": recover.self_ms_per_call(),
        "storage.records_replayed": _ratio(recover.count, recover.calls),
        "crowd.hits_posted": hits,
        "crowd.marketplace_rounds": counters.get("marketplace_rounds", 0),
        "crowd.cache_hits": counters.get("cache_hits", 0),
        "crowd.votes_per_decision": _ratio(
            counters.get("assignments_received", 0), hits
        ),
        "crowd.repurchased_assignments": notes.get(
            "repurchased_assignments", 0
        ),
        "crowd.engine_us_per_hit": _ratio(crowd_ns / 1e3, hits),
        "crowd.begin_us": span("crowd.begin").self_us_per_call(),
        "crowd.settle_us": span("crowd.settle").self_us_per_call(),
        "crowd.sim_step_us": span("crowd.sim_step").self_us_per_call(),
        "ui.render_us_per_hit": _ratio(span("ui.render").self_ns / 1e3, hits),
        "server.inproc_stmt_p50_ms": inproc_p50_ms,
        "server.scheduler_steps": span("server.scheduler_step").calls,
        "server.admission_waits": counters.get("admission_waits", 0),
        "net.overhead_ms": tcp_p50_ms - inproc_p50_ms if inproc_p50_ms else 0.0,
        "net.rtt_floor_ms": latencies[0] / 1e6 if inproc_p50_ms else 0.0,
        "net.encode_us_per_row": _ratio(
            (pages.self_ns + pack.self_ns) / 1e3, rows_sent
        ),
        "net.decode_us_per_row": _ratio(
            (payload.self_ns + span("net.decode_rows").self_ns) / 1e3,
            span("net.decode_rows").count,
        ),
        "net.bytes_per_row": _ratio(pack.count, rows_sent),
        "net.frames_per_stmt": _ratio(pack.calls, statements)
        if rows_sent else 0.0,
        "obs.trace_overhead_ratio": _ratio(
            _ratio(traced.measured_ns, len(traced.latencies_ns)),
            _ratio(untraced.measured_ns, len(untraced.latencies_ns)),
        ),
        "obs.traced_self_time_share": covered,
    }
