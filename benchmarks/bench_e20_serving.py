"""E20 — network serving: TCP sessions at scale + multi-core electronic
execution.

E12 proved the cooperative scheduler overlaps crowd waits for in-process
sessions; E20 pushes the same engine behind a real socket.  Four
measurements:

* ``tcp``      — hundreds of concurrent TCP clients (mixed crowd +
  electronic statements) against one ``serve_tcp`` listener, with
  admission control active; per-statement latency lands in the
  ``net_statement_seconds`` histogram (p50/p99 reported).  Answers must
  be identical to the same scripts run through the in-process
  ``Server.run_scripts`` path — the wire adds transport, not semantics.
* ``round_trip`` — what one *client* sees: 50 sequential trivial
  statements on one connection, directly and through an unarmed
  ``ChaosProxy``, median wall time per ``execute``.  The server-side
  histogram above starts its clock when the statement frame has already
  arrived, so it cannot see a send stall: a socket left on Nagle's
  algorithm cost every statement but the first a ~40 ms wait for the
  peer's delayed ACK and every ``tcp`` number stayed green.  Stalled is
  ~45 ms, healthy ~1 ms; the gate is 15 ms.
* ``fairness`` — a small active-session cap with a deep waitlist: every
  client still completes, and the latency spread (slowest/fastest
  client) stays bounded because admission promotes FIFO instead of
  starving the tail.
* ``multicore`` — the electronic-heavy portion: concurrent server
  sessions whose binder-marked plan regions dispatch to a
  ``concurrent.futures`` process pool.  Three configurations: inline
  (``electronic_workers=0``, measures dispatch overhead against),
  serial pool (``electronic_workers=1``, same dispatch machinery but no
  parallelism — the scaling baseline), and ``electronic_workers=4``.
  Results must be byte-identical across all three; the >=2x scaling
  floor (4 workers vs 1 worker) is asserted only on machines with >=4
  cores on the full workload — a single-core container can only measure
  dispatch overhead, and the honest numbers are recorded either way,
  with the core count.

Fast-mode numbers never clobber the committed BENCH_e20.json artifact.
"""

import contextlib
import json
import os
import random
import statistics
import threading
import time

import pytest

from crowdbench import (
    FAST,
    fresh,
    quiet,
    report,
    server_connection,
    server_oracle,
)

from repro.api import serve
from repro.net import connect_tcp, serve_tcp
from repro.net.chaos import ChaosProxy
from repro.server import Server

SESSIONS = 24 if FAST else 200
CITY_COUNT = 24
ITEM_ROWS = 400
ORDER_ROWS = 20_000 if FAST else 100_000
MULTICORE_SESSIONS = 4
MULTICORE_REPEATS = 3
SPEEDUP_FLOOR = 2.0
ROUND_TRIPS = 50
ROUND_TRIP_CEILING_MS = 15.0
SEED = 11

BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_e20.json",
)

SETUP_SQL = (
    [
        "CREATE TABLE City (name STRING PRIMARY KEY, "
        "population CROWD INTEGER, elevation CROWD INTEGER)",
        "CREATE TABLE items (n INTEGER, k STRING)",
    ]
    + [
        f"INSERT INTO City (name) VALUES ('city{i:02d}')"
        for i in range(CITY_COUNT)
    ]
    + [
        f"INSERT INTO items VALUES ({i}, 'k{i % 5}')"
        for i in range(ITEM_ROWS)
    ]
)


def _client_statements(index: int) -> list[str]:
    """One client's mixed workload: an electronic aggregate plus a keyed
    crowd probe (windows overlap across clients, so the shared task pool
    can deduplicate in-flight HITs)."""
    return [
        f"SELECT k, COUNT(*) AS c FROM items WHERE n < {100 + (index % 50)} "
        "GROUP BY k ORDER BY k",
        "SELECT population FROM City "
        f"WHERE name = 'city{index % CITY_COUNT:02d}'",
    ]


def _rows(result):
    if isinstance(result, Exception):  # pragma: no cover - fail loudly
        raise result
    return sorted(result.rows)


# -- tcp at scale -------------------------------------------------------------


def _run_tcp(sessions: int, max_active: int, max_waiting: int):
    fresh()
    db = server_connection(server_oracle(), seed=SEED)
    server = Server(connection=db)
    server.admission.config.max_active_sessions = max_active
    server.admission.config.max_waiting_sessions = max_waiting
    net = serve_tcp(server=server)
    try:
        admin = connect_tcp(net.host, net.port)
        admin.execute(";".join(SETUP_SQL) + ";")
        admin.close()

        answers: dict[int, list] = {}
        latencies: dict[int, float] = {}
        errors: list = []
        lock = threading.Lock()

        def client(index: int) -> None:
            try:
                conn = connect_tcp(net.host, net.port, timeout=300)
                started = time.perf_counter()
                results = [
                    _rows(conn.execute(sql + ";"))
                    for sql in _client_statements(index)
                ]
                elapsed = time.perf_counter() - started
                conn.close()
                with lock:
                    answers[index] = results
                    latencies[index] = elapsed
            except Exception as error:  # pragma: no cover - fail loudly
                with lock:
                    errors.append((index, error))

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(sessions)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=280)
        wall = time.perf_counter() - wall_start
        assert not errors, errors[:3]
        assert len(answers) == sessions

        histogram = db.metrics.histogram("net_statement_seconds")
        return {
            "sessions": sessions,
            "wall_seconds": wall,
            "statements": histogram.count,
            "p50": histogram.percentile(0.50),
            "p99": histogram.percentile(0.99),
            "answers": answers,
            "client_latencies": latencies,
            "hits": db.crowd_stats["hits_posted"],
        }
    finally:
        net.close()
        server.close()


def _client_round_trip_ms(through_proxy: bool) -> float:
    """Median client-observed milliseconds per trivial statement."""
    net = serve_tcp(with_crowd=False)
    try:
        with contextlib.ExitStack() as stack:
            host, port = net.host, net.port
            if through_proxy:
                proxy = stack.enter_context(ChaosProxy(host, port))
                host, port = proxy.host, proxy.port
            client = stack.enter_context(connect_tcp(host, port))
            samples = []
            for index in range(ROUND_TRIPS):
                started = time.perf_counter()
                client.execute(f"SELECT {index} + 1;")
                samples.append(time.perf_counter() - started)
        return statistics.median(samples) * 1e3
    finally:
        net.close()


def _run_in_process(sessions: int):
    """The same per-client scripts through Server.run_scripts — the
    equivalence baseline for the wire."""
    fresh()
    db = server_connection(server_oracle(), seed=SEED)
    server = Server(connection=db)
    server.admission.config.max_waiting_sessions = sessions
    for statement in SETUP_SQL:
        db.execute(statement)
    scripts = [
        "; ".join(_client_statements(i)) for i in range(sessions)
    ]
    per_session = server.run_scripts(scripts)
    server.shutdown()
    return {
        index: [_rows(result) for result in results]
        for index, results in enumerate(per_session)
    }


# -- multicore electronic execution -------------------------------------------

MULTICORE_QUERY = (
    "SELECT region, COUNT(*) AS c, SUM(amount) AS s, "
    "AVG(amount * (1 + priority * 0.05)) AS a "
    "FROM orders WHERE amount BETWEEN 20 AND 450 AND priority >= 1 "
    "GROUP BY region ORDER BY region"
)


def _multicore_server(workers: int):
    server = serve(
        with_crowd=False,
        electronic_workers=workers,
        electronic_pool_kind="process",
    )
    connection = server.connection
    connection.execute(
        "CREATE TABLE orders (id INTEGER PRIMARY KEY, amount FLOAT, "
        "region STRING, priority INTEGER)"
    )
    rng = random.Random(20)
    regions = ["west", "east", "north", "south"]
    engine = connection.engine
    for i in range(ORDER_ROWS):
        engine.insert(
            "orders",
            [i, round(rng.uniform(1, 500), 2), regions[i % 4],
             rng.randrange(5)],
        )
    return server


def _run_multicore(workers: int):
    server = _multicore_server(workers)
    try:
        sessions = [
            server.open_session() for _ in range(MULTICORE_SESSIONS)
        ]
        script = ";".join([MULTICORE_QUERY] * MULTICORE_REPEATS) + ";"
        # untimed warmup round: forks the workers and builds their
        # column-snapshot caches, so the timed round measures
        # steady-state execution rather than per-worker cold start
        for session in sessions:
            session.submit(script)
        server.run()
        for session in sessions:
            session.submit(script)
        started = time.perf_counter()
        server.run()
        wall = time.perf_counter() - started
        rows = [session.last_result().rows for session in sessions]
        pool = server.connection.electronic_pool
        return {
            "workers": workers,
            "wall_seconds": wall,
            "rows": rows,
            "pool": pool.snapshot() if pool is not None else {},
        }
    finally:
        server.close()


@pytest.fixture(scope="module")
def measurements():
    with quiet():
        return {
            "tcp": _run_tcp(
                SESSIONS, max_active=32, max_waiting=SESSIONS
            ),
            "in_process": _run_in_process(SESSIONS),
            "fairness": _run_tcp(24, max_active=6, max_waiting=24),
            "round_trip_ms": _client_round_trip_ms(through_proxy=False),
            "proxied_round_trip_ms": _client_round_trip_ms(
                through_proxy=True
            ),
            "inline": _run_multicore(0),
            "pool1": _run_multicore(1),
            "pooled": _run_multicore(4),
        }


def test_report(measurements):
    tcp = measurements["tcp"]
    fairness = measurements["fairness"]
    inline = measurements["inline"]
    pool1 = measurements["pool1"]
    pooled = measurements["pooled"]
    spread = (
        max(fairness["client_latencies"].values())
        / max(1e-9, min(fairness["client_latencies"].values()))
    )
    speedup = pool1["wall_seconds"] / pooled["wall_seconds"]
    cores = os.cpu_count() or 1
    report(
        "E20",
        f"{tcp['sessions']} TCP sessions + electronic pool "
        f"({cores} core(s))",
        ["measurement", "value", "detail", ""],
        [
            ("tcp sessions", tcp["sessions"],
             f"{tcp['statements']} statements", ""),
            ("tcp wall s", tcp["wall_seconds"],
             f"{tcp['hits']} HITs posted", ""),
            ("stmt p50 s", tcp["p50"], "net_statement_seconds", ""),
            ("stmt p99 s", tcp["p99"], "net_statement_seconds", ""),
            ("client round trip ms", measurements["round_trip_ms"],
             f"median of {ROUND_TRIPS} sequential statements", ""),
            ("proxied round trip ms", measurements["proxied_round_trip_ms"],
             "same, through an unarmed ChaosProxy", ""),
            ("fairness spread", spread,
             f"{len(fairness['client_latencies'])} clients, 6 active", ""),
            ("inline wall s", inline["wall_seconds"],
             "electronic_workers=0", ""),
            ("1-worker wall s", pool1["wall_seconds"],
             "electronic_workers=1 (process)", ""),
            ("4-worker wall s", pooled["wall_seconds"],
             "electronic_workers=4 (process)", ""),
            ("pool scaling", speedup,
             f"4w vs 1w; floor {SPEEDUP_FLOOR}x asserted on >=4 cores",
             ""),
        ],
    )
    if FAST:
        return
    payload = {
        "sessions": tcp["sessions"],
        "statements": int(tcp["statements"]),
        "seed": SEED,
        "fast_mode": FAST,
        "cpu_count": cores,
        "tcp_wall_seconds": round(tcp["wall_seconds"], 3),
        "statement_p50_seconds": round(tcp["p50"], 4),
        "statement_p99_seconds": round(tcp["p99"], 4),
        "hits_posted": tcp["hits"],
        "client_round_trip_ms": round(measurements["round_trip_ms"], 3),
        "client_round_trip_via_proxy_ms": round(
            measurements["proxied_round_trip_ms"], 3
        ),
        "fairness_clients": len(fairness["client_latencies"]),
        "fairness_active_cap": 6,
        "fairness_latency_spread": round(spread, 2),
        "multicore_rows": ORDER_ROWS,
        "multicore_sessions": MULTICORE_SESSIONS,
        "inline_wall_seconds": round(inline["wall_seconds"], 3),
        "serial_pool_wall_seconds": round(pool1["wall_seconds"], 3),
        "pooled_wall_seconds": round(pooled["wall_seconds"], 3),
        "pool_stats": pooled["pool"],
        "pool_scaling_4w_vs_1w": round(speedup, 2),
        "speedup_floor_asserted": cores >= 4,
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def test_tcp_results_identical_to_in_process_serving(measurements):
    """The wire adds transport, not semantics: every client's answers
    must match the in-process Server run exactly."""
    assert measurements["tcp"]["answers"] == measurements["in_process"]


def test_every_client_completes_under_admission_pressure(measurements):
    fairness = measurements["fairness"]
    assert len(fairness["answers"]) == 24
    assert fairness["statements"] >= 48  # 2 statements per client


def test_latency_histogram_is_populated(measurements):
    tcp = measurements["tcp"]
    assert tcp["statements"] >= 2 * tcp["sessions"]
    assert tcp["p99"] >= tcp["p50"] > 0.0


def test_client_observed_round_trip_has_no_send_stall(measurements):
    """The gate the server-side histogram cannot give: a write-write-
    read stall on either leg shows here and nowhere else."""
    assert measurements["round_trip_ms"] < ROUND_TRIP_CEILING_MS
    assert measurements["proxied_round_trip_ms"] < ROUND_TRIP_CEILING_MS


def test_pooled_results_identical_to_inline(measurements):
    inline = measurements["inline"]
    pooled = measurements["pooled"]
    assert pooled["rows"] == inline["rows"]
    assert repr(pooled["rows"]) == repr(inline["rows"])
    assert measurements["pool1"]["rows"] == inline["rows"]
    # work genuinely crossed the process boundary (no silent fallback)
    assert pooled["pool"]["process_dispatched"] >= (
        MULTICORE_SESSIONS * MULTICORE_REPEATS
    )
    assert pooled["pool"]["fallbacks"] == 0


@pytest.mark.skipif(
    FAST or (os.cpu_count() or 1) < 4,
    reason="scaling floor needs >=4 cores and the full workload "
    f"(this machine has {os.cpu_count()} core(s))",
)
def test_multicore_scaling_floor(measurements):
    speedup = (
        measurements["pool1"]["wall_seconds"]
        / measurements["pooled"]["wall_seconds"]
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"4 workers only {speedup:.2f}x faster than 1; floor is "
        f"{SPEEDUP_FLOOR}x"
    )
