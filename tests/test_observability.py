"""Tests for the observability stack (repro.obs + its wiring).

Covers the metrics registry (instruments, views, collectors, Prometheus
text), the HIT trace ring, the slow-query log, ``EXPLAIN ANALYZE``
(estimate-vs-actual per plan node, misestimate flagging on stale
statistics), per-statement crowd-stats isolation across concurrent
server sessions, and the shell's ``.metrics``/``.trace``/``.slow``
commands.
"""

import io
import json
import statistics
import time

import pytest

from repro import connect, serve
from repro.cli import Shell
from repro.crowd.model import reset_id_counters
from repro.crowd.sim.traces import GroundTruthOracle
from repro.crowd.task_manager import TaskManagerStats
from repro.obs import (
    MetricsRegistry,
    SlowQueryLog,
    TraceSink,
    misestimate_ratio,
)


def make_oracle(cities: int = 12) -> GroundTruthOracle:
    oracle = GroundTruthOracle()
    for i in range(cities):
        oracle.load_fill(
            "City",
            (f"city{i}",),
            {"population": 1000 + i, "elevation": 10 * i},
        )
    return oracle


def make_db(cities: int = 12, rows: int = 8, **kwargs):
    reset_id_counters()
    db = connect(oracle=make_oracle(cities), seed=11, **kwargs)
    db.execute(
        "CREATE TABLE City (name STRING PRIMARY KEY, "
        "population CROWD INTEGER, elevation CROWD INTEGER)"
    )
    for i in range(rows):
        db.execute("INSERT INTO City (name) VALUES (?)", (f"city{i}",))
    return db


# -- metrics registry ---------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc()
        registry.counter("requests_total").inc(4)
        registry.gauge("depth").set(3.5)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("latency").observe(value)
        snap = registry.snapshot()
        assert snap["requests_total"] == 5
        assert snap["depth"] == 3.5
        assert snap["latency"]["count"] == 4
        assert snap["latency"]["sum"] == 10.0
        assert snap["latency"]["min"] == 1.0
        assert snap["latency"]["max"] == 4.0

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(0.5) == pytest.approx(50.0, abs=2.0)
        assert hist.percentile(0.99) == pytest.approx(99.0, abs=2.0)
        assert hist.mean == pytest.approx(50.5)

    def test_histogram_reservoir_is_bounded(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", reservoir=16)
        for value in range(1000):
            hist.observe(float(value))
        assert hist.count == 1000            # exact count survives eviction
        assert len(hist._reservoir) == 16    # bounded memory
        assert hist.percentile(0.5) > 900    # recent observations retained

    def test_views_and_labeled_gauges(self):
        registry = MetricsRegistry()
        registry.register_view("live", lambda: 7)
        registry.register_labeled(
            "busy", "session", lambda: {"1": 0.5, "2": 1.5}
        )
        snap = registry.snapshot()
        assert snap["live"] == 7
        assert snap['busy{session="1"}'] == 0.5
        assert snap['busy{session="2"}'] == 1.5

    def test_collectors_and_collect(self):
        registry = MetricsRegistry()
        backing = {"hits": 3, "misses": 1}
        registry.register_collector("cache", lambda: dict(backing))
        assert registry.collect("cache") == {"hits": 3, "misses": 1}
        assert registry.collect("nope") == {}
        backing["hits"] = 9  # pull-based: reads see the live object
        assert registry.collect("cache")["hits"] == 9
        assert registry.snapshot()["cache.hits"] == 9

    def test_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("statements_total", help="statements run").inc(2)
        registry.gauge("queue_depth").set(4)
        registry.histogram("latency_seconds").observe(0.25)
        registry.register_collector("pool", lambda: {"pending": 3})
        text = registry.text()
        assert "# TYPE crowddb_statements_total counter" in text
        assert "crowddb_statements_total 2" in text
        assert "# HELP crowddb_statements_total statements run" in text
        assert "# TYPE crowddb_queue_depth gauge" in text
        assert "# TYPE crowddb_latency_seconds summary" in text
        assert 'crowddb_latency_seconds{quantile="0.5"} 0.25' in text
        assert "crowddb_latency_seconds_count 1" in text
        assert "crowddb_pool_pending 3" in text


# -- trace sink ---------------------------------------------------------------------


class TestTraceSink:
    def test_ring_drops_oldest(self):
        sink = TraceSink(capacity=4)
        for i in range(10):
            sink.emit("hit.issue", hit=f"h{i}")
        assert len(sink) == 4
        assert sink.emitted == 10
        assert [e.data["hit"] for e in sink.events()] == [
            "h6", "h7", "h8", "h9",
        ]

    def test_kind_prefix_filter_and_counts(self):
        sink = TraceSink()
        sink.emit("hit.issue")
        sink.emit("hit.extend")
        sink.emit("future.settle")
        assert len(sink.events(kind="hit")) == 2
        assert len(sink.events(kind="hit.issue")) == 1
        assert len(sink.events(kind="future")) == 1
        assert sink.counts() == {
            "future.settle": 1, "hit.extend": 1, "hit.issue": 1,
        }

    def test_jsonl_round_trips(self, tmp_path):
        sink = TraceSink()
        sink.emit("hit.issue", sim=12.5, hit="hit-1", reward_cents=3)
        sink.emit("future.settle", task_kind="fill", cost_cents=6)
        lines = [json.loads(line) for line in sink.to_jsonl().splitlines()]
        assert lines[0]["kind"] == "hit.issue"
        assert lines[0]["hit"] == "hit-1"
        assert lines[1]["cost_cents"] == 6
        path = tmp_path / "trace.jsonl"
        assert sink.export(str(path)) == 2
        assert len(path.read_text().splitlines()) == 2

    def test_clear_keeps_lifetime_count(self):
        sink = TraceSink()
        sink.emit("vote")
        sink.clear()
        assert len(sink) == 0
        assert sink.emitted == 1


# -- slow query log -----------------------------------------------------------------


class TestSlowQueryLog:
    def test_disabled_without_threshold(self):
        log = SlowQueryLog()
        assert not log.enabled
        assert not log.should_record(100.0)

    def test_threshold_and_capacity(self):
        log = SlowQueryLog(threshold_seconds=0.5, capacity=2)
        assert log.enabled
        assert not log.should_record(0.4)
        assert log.should_record(0.5)
        for i in range(5):
            log.record(f"SELECT {i}", 1.0 + i)
        assert log.recorded == 5
        entries = log.entries()
        assert len(entries) == 2
        assert entries[-1].sql == "SELECT 4"


# -- EXPLAIN ANALYZE ----------------------------------------------------------------


class TestExplainAnalyze:
    def test_every_node_reports_estimates_and_actuals(self):
        db = make_db()
        result = db.execute(
            "EXPLAIN ANALYZE SELECT name, population FROM City "
            "WHERE population > 0"
        )
        assert result.statement == "EXPLAIN ANALYZE"
        lines = [row[0] for row in result.rows]
        node_lines = [l for l in lines if not l.startswith("--")]
        assert len(node_lines) >= 3  # Project / Filter / CrowdProbe / Scan
        for line in node_lines:
            assert "rows ~" in line      # estimate/actual pair per node
            assert "cents ~" in line
            assert "rounds ~" in line
            assert "ms" in line
        probe = next(l for l in node_lines if "CrowdProbe" in l)
        # the probe actually paid the crowd: actual cents are non-zero
        assert "/0 /" not in probe.split("cents")[1].split("/ rounds")[0]
        footer = "\n".join(lines)
        assert "-- actual:" in footer
        assert "assignment(s)" in footer
        assert "-- misestimates:" in footer
        # the run really went to the crowd and was accounted
        assert result.crowd_stats["cost_cents"] > 0
        assert result.crowd_stats["assignments"] > 0

    def test_star_join_reports_every_node(self):
        """E16-style star join: every node of a multi-join crowd plan
        carries estimated AND actual rows/cents/rounds."""
        reset_id_counters()
        oracle = make_oracle()
        db = connect(oracle=oracle, seed=11)
        db.execute(
            "CREATE TABLE City (name STRING PRIMARY KEY, "
            "population CROWD INTEGER, elevation CROWD INTEGER)"
        )
        db.execute(
            "CREATE TABLE Country (name STRING PRIMARY KEY, "
            "capital STRING)"
        )
        db.execute(
            "CREATE TABLE Visit (city STRING, country STRING)"
        )
        for i in range(6):
            db.execute(
                "INSERT INTO City (name) VALUES (?)", (f"city{i}",)
            )
            db.execute(
                "INSERT INTO Country (name, capital) VALUES (?, ?)",
                (f"country{i}", f"city{i}"),
            )
            db.execute(
                "INSERT INTO Visit (city, country) VALUES (?, ?)",
                (f"city{i}", f"country{i}"),
            )
        db.analyze()
        report = db.explain_analyze(
            "SELECT City.name, Country.capital FROM Visit "
            "JOIN City ON Visit.city = City.name "
            "JOIN Country ON Visit.country = Country.name "
            "WHERE City.population > 0"
        )
        lines = report.splitlines()
        node_lines = [l for l in lines if not l.startswith("--")]
        joins = [l for l in node_lines if "Join" in l]
        assert joins, report
        for line in node_lines:
            assert "rows ~" in line
            assert "cents ~" in line
            assert "rounds ~" in line
        assert "-- actual:" in report

    def test_stale_statistics_flag_misestimate(self):
        """ANALYZE on 2 rows, then grow the table 20x behind the
        optimizer's back: the stale histogram puts every id at <= 1, so
        a range predicate over the new rows is badly misestimated and
        EXPLAIN ANALYZE must flag it."""
        db = make_db(rows=0, auto_analyze_floor=-1)
        db.execute("CREATE TABLE Log (id INTEGER PRIMARY KEY, level STRING)")
        db.execute("INSERT INTO Log VALUES (0, 'info'), (1, 'warn')")
        db.analyze("Log")
        for i in range(2, 42):
            db.execute(
                "INSERT INTO Log VALUES (?, ?)", (i, "info")
            )
        report = db.explain_analyze("SELECT id FROM Log WHERE id > 1")
        assert "!! rows misestimate" in report
        assert "-- actual:" in report
        assert "-- misestimates: " in report
        assert "none above" not in report

    def test_accurate_statistics_not_flagged(self):
        db = make_db(rows=0, auto_analyze_floor=-1)
        db.execute("CREATE TABLE Log (id INTEGER PRIMARY KEY, level STRING)")
        for i in range(40):
            db.execute("INSERT INTO Log VALUES (?, ?)", (i, "info"))
        db.analyze("Log")
        report = db.explain_analyze("SELECT id FROM Log")
        assert "!!" not in report
        assert "none above" in report

    def test_plain_explain_unchanged(self):
        db = make_db()
        result = db.execute("SELECT name FROM City WHERE name = 'city1'")
        assert result.rows == [("city1",)]
        explain = db.execute("EXPLAIN SELECT name FROM City")
        assert explain.statement == "EXPLAIN"
        assert all("rows ~" not in row[0] for row in explain.rows)

    def test_pretty_round_trip(self):
        from repro.sql.parser import parse
        from repro.sql.pretty import format_statement

        sql = "EXPLAIN ANALYZE SELECT name FROM City WHERE name = 'x'"
        stmt = parse(sql)
        assert stmt.analyze
        rendered = format_statement(stmt)
        assert rendered.startswith("EXPLAIN ANALYZE SELECT")
        assert parse(rendered) == stmt

    def test_misestimate_ratio_smoothing(self):
        assert misestimate_ratio(0.0, 0.0) == 1.0
        assert misestimate_ratio(0.0, 1.0) == 2.0
        assert misestimate_ratio(1.0, 7.0) == 4.0
        assert misestimate_ratio(7.0, 1.0) == 4.0  # symmetric


# -- statement metrics, slow log, tracing wired through connect() -------------------


class TestConnectionObservability:
    def test_statement_metrics_accumulate(self):
        db = make_db(rows=2)
        before = db.metrics.snapshot()["statements_total"]
        db.execute("SELECT name FROM City")
        snap = db.metrics.snapshot()
        assert snap["statements_total"] == before + 1
        assert snap["statement_seconds"]["count"] == before + 1
        assert snap.get("statement_crowd_cents_total", 0) >= 0

    def test_crowd_cents_counter_tracks_spend(self):
        db = make_db(rows=4)
        result = db.execute("SELECT population FROM City")
        spent = int(result.crowd_stats["cost_cents"])
        assert spent > 0
        assert db.metrics.snapshot()["statement_crowd_cents_total"] == spent

    def test_slow_query_log_records_sql(self):
        db = make_db(rows=2, slow_query_seconds=0.0)
        db.execute("SELECT name FROM City WHERE name = 'city0'")
        entries = db.slow_queries()
        assert entries
        assert entries[-1].statement == "SELECT"
        assert "SELECT name FROM City" in entries[-1].sql
        assert db.metrics.snapshot()["slow_queries_total"] == len(entries) or (
            db.metrics.snapshot()["slow_queries_total"] >= len(entries)
        )

    def test_trace_captures_hit_lifecycle(self):
        db = make_db(rows=4)
        db.execute("SELECT population FROM City")
        counts = db.trace.counts()
        assert counts.get("hit.issue", 0) >= 4
        assert counts.get("future.settle", 0) >= 4
        assert counts.get("vote", 0) >= 4
        issue = db.trace.events(kind="hit.issue")[0]
        assert issue.data["task_kind"] == "fill"
        assert issue.data["reward_cents"] > 0
        assert issue.data["replication"] >= 1
        settle = db.trace.events(kind="future.settle")[0]
        assert settle.data["workers"]
        assert settle.data["cost_cents"] > 0
        confidences = [
            e.data["confidence"]
            for e in db.trace.events(kind="future.settle")
            if e.data["confidence"] is not None
        ]
        assert confidences
        assert all(0.0 <= c <= 1.0 for c in confidences)

    def test_observability_off_disables_instrumentation(self):
        db = make_db(rows=2, observability=False)
        db.execute("SELECT name FROM City")
        db.execute("SELECT population FROM City WHERE name = 'city0'")
        assert "statements_total" not in db.metrics.snapshot()
        assert len(db.trace) == 0
        # compat views still work through the registry
        assert db.crowd_stats["hits_posted"] >= 1
        assert db.plan_cache_stats["plan"]["misses"] >= 1

    def test_always_on_overhead_stays_under_five_percent(self, order_book):
        """The always-on share of the instrumentation is per *statement*
        (two clock reads, a histogram insert, a counter bump); per-node
        profiling runs only under EXPLAIN ANALYZE.

        Each pair times the statement once per mode back to back,
        alternating which goes first, and the verdict is the median of
        the per-pair ratios: drift and a cold cache hit both halves of a
        pair alike.  (Best-of-N per mode wobbles by +-5% on a 2.5 ms
        statement; this reads within +-3% run to run.)"""
        load, query = order_book
        pairs = 100
        dbs = {}
        for mode in (False, True):
            dbs[mode] = connect(with_crowd=False, observability=mode)
            load(dbs[mode])
        rows, ratios = {}, []
        for pair in range(pairs):
            seconds = {}
            for mode in (False, True) if pair % 2 else (True, False):
                start = time.perf_counter()
                rows[mode] = dbs[mode].execute(query).rows
                seconds[mode] = time.perf_counter() - start
            ratios.append(seconds[True] / seconds[False])
        assert rows[True] == rows[False]  # observing never changes answers
        overhead = statistics.median(ratios) - 1.0
        assert overhead < 0.05, f"observability costs {overhead:+.1%}"
        snap = dbs[True].metrics.snapshot()
        assert snap["statements_total"] >= pairs
        assert snap["statement_seconds"]["count"] >= pairs
        assert "crowddb_statements_total" in dbs[True].metrics_text()

    def test_metrics_text_exposes_crowd_collector(self):
        db = make_db(rows=2)
        db.execute("SELECT population FROM City WHERE name = 'city0'")
        text = db.metrics_text()
        assert "crowddb_crowd_hits_posted" in text
        assert "crowddb_plan_cache_misses" in text
        assert "crowddb_parse_cache_hits" in text


# -- satellite: dynamic counters appearing mid-stream -------------------------------


class TestDynamicCounters:
    def test_snapshot_includes_extras(self):
        stats = TaskManagerStats()
        before = stats.snapshot()
        assert "hits_fill" not in before
        stats.bump("hits_fill", 3)
        after = stats.snapshot()
        assert after["hits_fill"] == 3
        # once present, later snapshots always carry the key, so deltas
        # computed between any two of them stay deltas
        stats.bump("hits_fill", 2)
        assert stats.snapshot()["hits_fill"] == 5

    # the default noisy crowd ties a vote under this seed; the tie is
    # the engine's to report and not what this test is about
    @pytest.mark.filterwarnings("ignore:vote tied:repro.errors.LowQualityWarning")
    def test_per_query_stats_unpolluted_by_new_counters(self):
        """A counter first appearing during query 1 must not leak its
        total into query 2's per-statement delta."""
        db = make_db(rows=8)
        r1 = db.execute(
            "SELECT population FROM City WHERE name IN ('city0', 'city1')"
        )
        r2 = db.execute(
            "SELECT population FROM City WHERE name IN ('city2', 'city3')"
        )
        assert r1.crowd_stats["hits_posted"] == 2
        assert r2.crowd_stats["hits_posted"] == 2  # not cumulative
        assert r2.crowd_stats["cost_cents"] == r1.crowd_stats["cost_cents"]


# -- satellite: concurrent-session crowd-stats isolation ----------------------------


class TestConcurrentSessionIsolation:
    def _server(self):
        reset_id_counters()
        server = serve(oracle=make_oracle(), seed=5)
        server.connection.execute(
            "CREATE TABLE City (name STRING PRIMARY KEY, "
            "population CROWD INTEGER, elevation CROWD INTEGER)"
        )
        for i in range(8):
            server.connection.execute(
                "INSERT INTO City (name) VALUES (?)", (f"city{i}",)
            )
        return server

    def test_sessions_see_only_their_own_spend(self):
        server = self._server()
        a = server.open_session().submit(
            "SELECT population FROM City WHERE name = 'city1'"
        )
        b = server.open_session().submit(
            "SELECT elevation FROM City "
            "WHERE name IN ('city2', 'city3', 'city4')"
        )
        server.run()
        sa = a.last_result().crowd_stats
        sb = b.last_result().crowd_stats
        assert sa["hits_posted"] == 1
        assert sb["hits_posted"] == 3
        assert sa["cost_cents"] > 0 and sb["cost_cents"] > 0
        assert sb["cost_cents"] == 3 * sa["cost_cents"]
        global_stats = server.connection.crowd_stats
        assert global_stats["hits_posted"] == 4
        assert (
            sa["cost_cents"] + sb["cost_cents"] == global_stats["cost_cents"]
        )
        server.shutdown()

    def test_deduplicated_future_reports_spend_to_both(self):
        """Two sessions sharing one pooled HIT both observe its spend
        (each query genuinely waited on that work)."""
        server = self._server()
        sql = "SELECT population FROM City WHERE name = 'city5'"
        a = server.open_session().submit(sql)
        b = server.open_session().submit(sql)
        server.run()
        sa = a.last_result().crowd_stats
        sb = b.last_result().crowd_stats
        assert sa == sb
        assert sa["hits_posted"] == 1
        # globally only one HIT was paid for
        assert server.connection.crowd_stats["hits_posted"] == 1
        assert server.stats()["task_pool"]["hits_saved"] == 1
        server.shutdown()

    def test_serial_connection_matches_ledger_accounting(self):
        """Single-connection path: ledger-based stats equal what the
        old global-delta accounting reported."""
        db = make_db(rows=4)
        result = db.execute("SELECT population FROM City")
        stats = result.crowd_stats
        assert stats["hits_posted"] == 4
        assert stats["assignments"] == db.crowd_stats["assignments_received"]
        assert stats["cost_cents"] == db.crowd_stats["cost_cents"]
        assert 0.0 < stats["mean_confidence"] <= 1.0


# -- server metrics -----------------------------------------------------------------


class TestServerMetrics:
    def test_stats_shape_preserved_and_extended(self):
        reset_id_counters()
        server = serve(oracle=make_oracle(), seed=5)
        stats = server.stats()
        assert set(stats) == {
            "sessions_open", "simulated_seconds", "task_manager",
            "task_pool", "scheduler", "admission",
        }
        assert stats["admission"]["active"] == 0
        assert stats["admission"]["waiting"] == 0
        assert stats["task_pool"]["pending"] == 0
        server.shutdown()

    def test_metrics_text_includes_server_subsystems(self):
        reset_id_counters()
        server = serve(oracle=make_oracle(), seed=5)
        server.connection.execute(
            "CREATE TABLE City (name STRING PRIMARY KEY, "
            "population CROWD INTEGER, elevation CROWD INTEGER)"
        )
        server.connection.execute(
            "INSERT INTO City (name) VALUES ('city0')"
        )
        session = server.open_session()
        session.submit("SELECT population FROM City")
        server.run()
        text = server.metrics_text()
        assert "crowddb_sessions_open 1" in text
        assert "crowddb_task_pool_lookups" in text
        assert "crowddb_scheduler_slices" in text
        assert "crowddb_admission_admitted" in text
        assert 'crowddb_session_statements{session="1"} 1' in text
        assert 'crowddb_session_busy_seconds{session="1"}' in text
        assert "crowddb_task_pool_dedup_rate" in text
        assert "crowddb_simulated_seconds" in text
        server.shutdown()

    def test_scheduler_counts_marketplace_rounds(self):
        reset_id_counters()
        server = serve(oracle=make_oracle(), seed=5)
        server.connection.execute(
            "CREATE TABLE City (name STRING PRIMARY KEY, "
            "population CROWD INTEGER, elevation CROWD INTEGER)"
        )
        server.connection.execute("INSERT INTO City (name) VALUES ('city0')")
        server.open_session().submit("SELECT population FROM City")
        server.run()
        stats = server.stats()
        assert stats["scheduler"]["clock_advances"] >= 1
        assert (
            stats["task_manager"]["marketplace_rounds"]
            >= stats["scheduler"]["clock_advances"]
        )
        server.shutdown()


# -- shell commands -----------------------------------------------------------------


class TestShellCommands:
    def _shell(self, **kwargs):
        db = make_db(rows=2, **kwargs)
        out = io.StringIO()
        return Shell(connection=db, stdout=out), out

    def test_metrics_command(self):
        shell, out = self._shell()
        shell.handle_line("SELECT population FROM City WHERE name = 'city0';")
        shell.handle_line(".metrics")
        text = out.getvalue()
        assert "crowddb_statements_total" in text
        assert "crowddb_crowd_hits_posted" in text

    def test_trace_command_variants(self, tmp_path):
        shell, out = self._shell()
        shell.handle_line("SELECT population FROM City WHERE name = 'city0';")
        shell.handle_line(".trace")
        assert '"kind": "hit.issue"' in out.getvalue()
        shell.handle_line(".trace vote 1")
        assert '"kind": "vote"' in out.getvalue()
        path = tmp_path / "t.jsonl"
        shell.handle_line(f".trace export {path}")
        assert path.exists()
        shell.handle_line(".trace clear")
        shell.handle_line(".trace")
        assert "no trace events" in out.getvalue()

    def test_slow_command(self):
        shell, out = self._shell(slow_query_seconds=0.0)
        shell.handle_line("SELECT name FROM City;")
        shell.handle_line(".slow")
        assert "SELECT name FROM City" in out.getvalue()

    def test_slow_command_disabled(self):
        shell, out = self._shell()
        shell.handle_line(".slow")
        assert "slow-query log disabled" in out.getvalue()

    def test_help_mentions_new_commands(self):
        shell, out = self._shell()
        shell.handle_line(".help")
        text = out.getvalue()
        assert ".metrics" in text
        assert ".trace" in text
