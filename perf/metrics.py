"""Names, units and bounds of every metric the benchmark prints.

``BENCHMARK.json`` at the repo root is the contract the driver reads; this
module is the same table for the code, and ``test_perf_smoke.py`` keeps the
two equal.

Three groups:

* :data:`END_TO_END` — what a user of the engine sees on *every* workload.
  These go into ``BENCHMARK.json`` ``end_to_end`` with a regression bound.
* :data:`SCOPED` — end-to-end metrics the driver cannot gate on: ones that
  exist on some workloads only (recovery time needs a WAL, cents need a
  crowd; the driver's schema has one metric list for all workloads and
  wants no metric that reads 0) and tail latencies too unsteady on the
  sandbox.  They ride in ``per_layer`` there (no driver bound);
  ``compare.py`` still applies the bound given here, and ``EXACT`` ones
  must repeat exactly.
* :data:`PER_LAYER` — diagnostics from the traced run, one layer each.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

EXACT = 0.0  # bound of a metric that must repeat exactly for a seed


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float] = None  # share of the parent's median; None = diagnostic
    workloads: Optional[tuple[str, ...]] = None  # None = every workload


# The issue asked for 10% on the timings.  On the 2-core sandbox the same
# CPU-bound statement varies by a tenth to a fifth from run to run (README,
# "Steadiness"), and the driver refuses a bound narrower than the spread it
# sees, so the timings carry the widest bound the contract allows.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_ops_s", "1/s", "higher", 0.25),
    Metric("stmt_p50_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
)

_DURABLE = ("oltp_durable",)
_CROWD = ("crowd_mix",)

SCOPED: tuple[Metric, ...] = (
    # defined everywhere, but its run-to-run spread here (15-34%) is wider
    # than any bound the contract allows: demoted, as the issue asks for a
    # timing that does not repeat, rather than kept with a wider bound
    Metric("stmt_p95_ms", "ms", "lower", 0.25),
    # p99 needs >= 1000 samples to have ten beyond it
    Metric("stmt_p99_ms", "ms", "lower", 0.25,
           ("plan_cold", "oltp_durable")),
    Metric("failed_ops_ratio", "ratio", "lower", EXACT),
    Metric("recovery_ms", "ms", "lower", 0.25, _DURABLE),
    Metric("bytes_written_per_user_byte", "ratio", "lower", EXACT, _DURABLE),
    Metric("crowd_cents", "cents", "lower", EXACT, _CROWD),
    Metric("crowd_assignments", "count", "lower", EXACT, _CROWD),
    Metric("crowd_sim_latency_s", "s", "lower", EXACT, _CROWD),
    Metric("crowd_accuracy", "ratio", "higher", EXACT, _CROWD),
)

PER_LAYER: tuple[Metric, ...] = tuple(
    Metric(name, unit, better)
    for name, unit, better in (
        ("sql.parse_us", "us", "lower"),
        ("sql.parse_cache_hit_ratio", "ratio", "higher"),
        ("plan.build_us", "us", "lower"),
        ("plan.bind_us", "us", "lower"),
        ("optimizer.optimize_us", "us", "lower"),
        ("optimizer.plan_cache_hit_ratio", "ratio", "higher"),
        ("engine.physical_plan_us", "us", "lower"),
        ("engine.execute_self_ms", "ms", "lower"),
        ("engine.rows_scanned_per_row_returned", "ratio", "lower"),
        ("exec.drain_ms", "ms", "lower"),
        ("exec.rows_per_s", "rows/s", "higher"),
        ("exec.kernel_fallbacks", "count", "lower"),
        ("storage.insert_us", "us", "lower"),
        ("storage.scan_columns_cold_ms", "ms", "lower"),
        ("storage.scan_columns_warm_us", "us", "lower"),
        ("storage.index_lookup_us", "us", "lower"),
        ("storage.wal_append_us", "us", "lower"),
        ("storage.wal_bytes", "B", "lower"),
        ("storage.wal_fsyncs", "count", "lower"),
        ("storage.checkpoints", "count", "lower"),
        ("storage.checkpoint_ms", "ms", "lower"),
        ("storage.checkpoint_bytes", "B", "lower"),
        ("storage.checkpoint_load_ms", "ms", "lower"),
        ("storage.wal_replay_ms", "ms", "lower"),
        ("storage.records_replayed", "count", "lower"),
        ("crowd.hits_posted", "count", "lower"),
        ("crowd.marketplace_rounds", "count", "lower"),
        ("crowd.cache_hits", "count", "higher"),
        ("crowd.votes_per_decision", "ratio", "lower"),
        ("crowd.repurchased_assignments", "count", "lower"),
        ("crowd.engine_us_per_hit", "us", "lower"),
        ("crowd.begin_us", "us", "lower"),
        ("crowd.settle_us", "us", "lower"),
        ("crowd.sim_step_us", "us", "lower"),
        ("ui.render_us_per_hit", "us", "lower"),
        ("server.inproc_stmt_p50_ms", "ms", "lower"),
        ("server.scheduler_steps", "count", "lower"),
        ("server.admission_waits", "count", "lower"),
        ("net.overhead_ms", "ms", "lower"),
        ("net.rtt_floor_ms", "ms", "lower"),
        ("net.encode_us_per_row", "us", "lower"),
        ("net.decode_us_per_row", "us", "lower"),
        ("net.bytes_per_row", "B", "lower"),
        ("net.frames_per_stmt", "ratio", "lower"),
        ("obs.trace_overhead_ratio", "ratio", "lower"),
        ("obs.traced_self_time_share", "ratio", "higher"),
    )
)

UNITS = {m.name: m.unit for m in END_TO_END + SCOPED + PER_LAYER}

WORKLOADS: tuple[str, ...] = (
    "olap_scan", "plan_cold", "oltp_durable", "tcp_serving", "crowd_mix",
)

#: ``--seconds`` the statement counts in ``workloads/`` were sized for
REFERENCE_SECONDS = 12


def applies(metric: Metric, workload: str) -> bool:
    return metric.workloads is None or workload in metric.workloads


def percentile(sorted_values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]
