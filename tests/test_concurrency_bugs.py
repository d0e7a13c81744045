"""Regression tests for the concurrency-bug sweep.

Everything here exercises real threads; the whole module is marked
``concurrency`` so a run can select or skip it with ``-m``.
"""

from __future__ import annotations

import threading
import warnings

import pytest

from repro.api import connect, serve
from repro.errors import KernelFallbackWarning, StatementCancelled
from repro.exec import kernels
from repro.obs.metrics import MetricsRegistry
from repro.server.session import SessionState

pytestmark = pytest.mark.concurrency


# -- metrics registry races (satellite: metrics locks) ------------------------


def test_counter_survives_a_multithreaded_hammer():
    registry = MetricsRegistry()
    counter = registry.counter("hammered_total")
    increments = 5_000

    def hammer():
        for _ in range(increments):
            counter.inc()

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert counter.value == 8 * increments


def test_histogram_observations_are_not_lost_across_threads():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency_seconds")

    def observe():
        for i in range(2_000):
            histogram.observe(i * 0.001)

    threads = [threading.Thread(target=observe) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert histogram.count == 6 * 2_000


def test_registry_get_or_create_is_race_free():
    registry = MetricsRegistry()
    barrier = threading.Barrier(16)
    instruments = []

    def create():
        barrier.wait()
        instruments.append(registry.counter("shared_total"))

    threads = [threading.Thread(target=create) for _ in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert len(instruments) == 16
    assert all(item is instruments[0] for item in instruments)


# -- kernel fallback accounting (satellite: bare excepts narrowed) ------------


def test_kernel_fallback_counts_and_warns_once():
    registry = MetricsRegistry()
    kernels.set_metrics_registry(registry)
    kernels._warned_fallbacks.clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kernels._note_fallback("test-site", TypeError("bad fold"))
            kernels._note_fallback("test-site", TypeError("bad fold again"))
        fallback_warnings = [
            w for w in caught if issubclass(w.category, KernelFallbackWarning)
        ]
        assert len(fallback_warnings) == 1  # one warning per (site, class)
        assert registry.counter("kernel_fallbacks_total").value == 2
    finally:
        kernels.set_metrics_registry(None)
        kernels._warned_fallbacks.clear()


def test_kernel_bugs_are_not_swallowed_as_fallbacks():
    # only TypeError/ValueError/OverflowError fold errors may fall back;
    # a NameError (typo'd lane) must propagate as a bug
    assert NameError not in kernels._EXPECTED_FOLD_ERRORS
    assert AttributeError not in kernels._EXPECTED_FOLD_ERRORS


# -- session lifecycle (satellite: threads joined, tracebacks kept) -----------


def test_session_threads_are_joined_on_close():
    server = serve()
    before = threading.active_count()
    sessions = [server.open_session() for _ in range(4)]
    for index, session in enumerate(sessions):
        session.submit(f"CREATE TABLE t{index} (a INTEGER);")
    server.run()
    for session in sessions:
        server.close_session(session)
    assert threading.active_count() <= before
    server.close()


def test_last_result_preserves_the_original_traceback():
    server = serve()
    session = server.open_session()
    session.submit("SELECT broken FROM nowhere;")
    server.run()
    with pytest.raises(Exception) as excinfo:
        session.last_result()
    traceback = excinfo.value.__traceback__
    frames = []
    while traceback is not None:
        frames.append(traceback.tb_frame.f_code.co_filename)
        traceback = traceback.tb_next
    # the re-raise carries the worker-side frames, not just session.py
    assert any("session.py" not in name for name in frames[1:])
    assert len(frames) > 1
    server.close()


# -- cancellation (satellite: cancel mid-statement) ---------------------------


def test_cancel_unwinds_a_parked_crowd_wait_cleanly():
    server = serve(seed=3)
    session = server.open_session()
    session.submit("CREATE TABLE c (name TEXT PRIMARY KEY, city CROWD TEXT);")
    session.submit("INSERT INTO c (name) VALUES ('x');")
    server.run()

    session.submit("SELECT name, city FROM c;")
    # run the session alone until it parks on its crowd future
    while session.state is not SessionState.WAITING:
        session.run_slice()
    assert session.waiting_futures()
    hits_before = server.connection.crowd_stats.get("hits_posted", 0)

    session.cancel()
    server.run()  # drain: the cancelled statement unwinds

    assert isinstance(session.results[-1], StatementCancelled)
    assert session.statements_cancelled == 1
    assert session.quiescent()
    # no HIT was double-settled: posting counters unchanged by the unwind
    assert server.connection.crowd_stats.get("hits_posted", 0) == hits_before

    # the session is not poisoned: the next statement runs normally
    session.submit("SELECT name FROM c;")
    server.run()
    assert session.last_result().rows == [("x",)]
    server.close()


def test_cancelled_statement_leaves_wal_consistent(tmp_path):
    path = str(tmp_path / "db")
    server = serve(path=path, seed=5)
    session = server.open_session()
    session.submit("CREATE TABLE w (name TEXT PRIMARY KEY, city CROWD TEXT);")
    session.submit("INSERT INTO w (name) VALUES ('k');")
    server.run()

    session.submit("SELECT name, city FROM w;")
    while session.state is not SessionState.WAITING:
        session.run_slice()
    session.cancel()
    server.run()
    assert isinstance(session.results[-1], StatementCancelled)
    server.close()

    # recovery replays a WAL with no dangling mid-statement state
    reopened = connect(path=path)
    assert reopened.execute("SELECT name FROM w;").rows == [("k",)]
    reopened.close()


# -- sessions sharing one engine ---------------------------------------------


def test_concurrent_sessions_each_count_their_own_table():
    server = serve()
    sessions = [server.open_session() for _ in range(4)]
    for index, session in enumerate(sessions):
        session.submit(
            f"CREATE TABLE s{index} (n INTEGER);"
            + "".join(
                f"INSERT INTO s{index} VALUES ({i});" for i in range(50)
            )
            + f"SELECT COUNT(*) AS c FROM s{index} WHERE n < 40;"
        )
    server.run()
    for session in sessions:
        assert session.last_result().rows == [(40,)]
    server.close()
