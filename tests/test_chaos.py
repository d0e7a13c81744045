"""Network chaos: detach/resume, exactly-once delivery, fault proxy.

Drives the wire protocol through :class:`~repro.net.chaos.ChaosProxy`
and asserts the containment invariants: a torn connection never loses or
duplicates a result row, a retried statement never executes (or buys)
twice, detached sessions are bounded by TTL and buffer caps, and slow
consumers throttle statement admission instead of ballooning memory.
"""

from __future__ import annotations

import re
import socket
import statistics
import threading
import time

import pytest

from repro.errors import ConnectionLostError, NetworkProtocolError, RemoteError
from repro.net import connect_tcp, serve_tcp
from repro.net import protocol
from repro.net.chaos import ChaosProxy

ROWS = protocol.PAGE_ROWS * 3  # several result pages per SELECT


def metric(net, name: str) -> float:
    """Read one counter/gauge from the server's text exposition."""
    text = net.server.metrics_text()
    match = re.search(rf"^crowddb_{name} (\S+)$", text, re.MULTILINE)
    return float(match.group(1)) if match else 0.0


def seed_big_table(client, rows: int = ROWS) -> None:
    client.execute("CREATE TABLE big (n INTEGER);")
    script = "".join(f"INSERT INTO big VALUES ({i});" for i in range(rows))
    client.execute(script)


def wait_for_metric(net, name: str, floor: float = 1.0,
                    timeout: float = 5.0) -> float:
    """Poll a server metric until it reaches ``floor`` (pump-thread
    counters lag the socket events that cause them)."""
    deadline = time.monotonic() + timeout
    value = metric(net, name)
    while value < floor and time.monotonic() < deadline:
        time.sleep(0.02)
        value = metric(net, name)
    return value


@pytest.fixture
def net():
    server = serve_tcp()
    yield server
    server.close()


@pytest.fixture
def proxy(net):
    with ChaosProxy(net.host, net.port) as chaos:
        yield chaos


class TestChaosProxy:
    def test_unarmed_proxy_is_transparent(self, net, proxy):
        with connect_tcp(proxy.host, proxy.port) as client:
            seed_big_table(client, rows=10)
            result = client.execute("SELECT n FROM big ORDER BY n;")
            assert [r[0] for r in result.rows] == list(range(10))
        assert proxy.stats["connections"] == 1
        assert proxy.stats["frames_down"] > 0
        assert proxy.stats["kills"] == 0

    @pytest.mark.parametrize("through_proxy", [False, True])
    def test_client_observed_round_trip_has_no_send_stall(
        self, net, proxy, through_proxy
    ):
        """What one client sees, which the server-side histogram cannot:
        its clock starts once the statement frame has arrived, so a
        socket left on Nagle's algorithm — the client's, the accepted
        one, or either leg of the proxy — reads healthy there while every
        statement but a connection's first waits ~40 ms for the peer's
        delayed ACK.  Stalled is ~45 ms, healthy under 1 ms; the line is
        drawn at 15."""
        target = proxy if through_proxy else net
        samples = []
        with connect_tcp(target.host, target.port) as client:
            for index in range(50):
                started = time.perf_counter()
                client.execute(f"SELECT {index} + 1;")
                samples.append(time.perf_counter() - started)
        assert statistics.median(samples) * 1e3 < 15.0

    def test_kill_mid_stream_resume_exactly_once(self, net, proxy):
        with connect_tcp(net.host, net.port) as seeder:
            seed_big_table(seeder)
        proxy.arm(kill_after_frames=2)  # welcome + one result page
        client = connect_tcp(proxy.host, proxy.port)
        with pytest.raises(ConnectionLostError) as info:
            client.execute("SELECT n FROM big ORDER BY n;")
        lost = info.value
        assert lost.token
        assert lost.rows  # the page before the kill was kept
        # the dead socket's handler detaches the session; wait for it so
        # the metric assertions below are deterministic
        assert wait_for_metric(net, "net_detaches_total") >= 1
        resumed = connect_tcp(net.host, net.port, resume=lost.token,
                              have=lost.have)
        result = resumed.resume_execute(lost)
        resumed.close()
        values = sorted(r[0] for r in result.rows)
        assert values == list(range(ROWS))  # every row exactly once
        assert result.status == "complete"
        assert proxy.stats["kills"] == 1
        assert metric(net, "net_detaches_total") >= 1
        assert metric(net, "net_resumes_total") >= 1
        assert metric(net, "net_replayed_frames_total") >= 1

    def test_torn_frame_resume_exactly_once(self, net, proxy):
        with connect_tcp(net.host, net.port) as seeder:
            seed_big_table(seeder)
        proxy.arm(kill_after_frames=2, tear=True)  # die mid-frame
        client = connect_tcp(proxy.host, proxy.port)
        with pytest.raises(ConnectionLostError) as info:
            client.execute("SELECT n FROM big ORDER BY n;")
        lost = info.value
        resumed = connect_tcp(net.host, net.port, resume=lost.token,
                              have=lost.have)
        result = resumed.resume_execute(lost)
        resumed.close()
        assert sorted(r[0] for r in result.rows) == list(range(ROWS))
        assert proxy.stats["torn"] == 1

    def test_duplicated_frames_are_deduplicated(self, net, proxy):
        with connect_tcp(net.host, net.port) as seeder:
            seed_big_table(seeder)
        proxy.arm(duplicate_frames=True)
        with connect_tcp(proxy.host, proxy.port) as client:
            result = client.execute("SELECT n FROM big ORDER BY n;")
        assert sorted(r[0] for r in result.rows) == list(range(ROWS))
        assert proxy.stats["duplicated_frames"] > 0

    def test_duplicated_statements_execute_once(self, net, proxy):
        proxy.arm(duplicate_statements=True)
        with connect_tcp(proxy.host, proxy.port) as client:
            client.execute("CREATE TABLE ledger (n INTEGER);")
            client.execute("INSERT INTO ledger VALUES (1);")
            result = client.execute("SELECT COUNT(*) FROM ledger;")
        # the duplicated INSERT frame was dropped by statement-id dedup:
        # a retried submission never executes (or spends) twice
        assert result.rows == [(1,)]
        assert proxy.stats["duplicated_statements"] >= 1
        assert metric(net, "net_duplicate_statements_total") >= 1


class TestDetachLifecycle:
    def test_detach_ttl_reaps_abandoned_sessions(self):
        net = serve_tcp(detach_ttl_seconds=0.05)
        try:
            client = connect_tcp(net.host, net.port)
            client.execute("SELECT 1;")
            token = client.token
            # unclean drop: no goodbye frame, the session detaches
            client._sock.shutdown(socket.SHUT_RDWR)
            client._sock.close()
            assert wait_for_metric(net, "net_detach_expired_total") >= 1
            with pytest.raises((RemoteError, NetworkProtocolError)):
                connect_tcp(net.host, net.port, resume=token)
            assert metric(net, "net_resume_failures_total") >= 1
        finally:
            net.close()

    def test_resume_with_bogus_token_is_refused(self, net):
        with pytest.raises((RemoteError, NetworkProtocolError)):
            connect_tcp(net.host, net.port, resume="not-a-real-token")
        assert metric(net, "net_resume_failures_total") >= 1

    def test_detached_buffer_overflow_kills_session(self):
        # tiny buffer: the unacked frames of one big SELECT exceed it
        net = serve_tcp(page_buffer_frames=8, detach_ttl_seconds=30.0)
        try:
            client = connect_tcp(net.host, net.port)
            seed_big_table(client, rows=protocol.PAGE_ROWS * 12)
            token = client.token
            # read nothing back: submit and immediately drop uncleanly
            client._send(protocol.statement_frame(99, "SELECT n FROM big;"))
            client._sock.shutdown(socket.SHUT_RDWR)
            client._sock.close()
            assert wait_for_metric(net, "net_detach_overflow_total") >= 1
            with pytest.raises((RemoteError, NetworkProtocolError)):
                connect_tcp(net.host, net.port, resume=token)
        finally:
            net.close()


class TestBackpressure:
    def test_slow_consumer_throttles_statement_admission(self):
        net = serve_tcp(page_buffer_frames=16)  # high watermark: 8 frames
        try:
            sock = socket.create_connection((net.host, net.port), timeout=30)
            sock.sendall(protocol.pack_frame(protocol.hello_frame()))
            welcome = protocol.read_frame_blocking(sock)
            assert welcome["type"] == "welcome"
            sock.sendall(protocol.pack_frame(
                protocol.statement_frame(
                    1,
                    "CREATE TABLE big (n INTEGER);"
                    + "".join(
                        f"INSERT INTO big VALUES ({i});"
                        for i in range(protocol.PAGE_ROWS * 4)
                    ),
                )
            ))
            # three multi-page SELECTs with every ack withheld: the
            # unacked buffer crosses the high watermark (8 frames) and
            # statement 4 is held back instead of queuing more output
            for statement_id in (2, 3, 4):
                sock.sendall(protocol.pack_frame(
                    protocol.statement_frame(
                        statement_id, "SELECT n FROM big;"
                    )
                ))
            done = set()
            have = -1
            while not done >= {1, 2, 3}:
                frame = protocol.read_frame_blocking(sock)
                assert frame is not None
                fseq = frame.get("fseq")
                if fseq is not None:
                    have = max(have, fseq)
                if frame.get("type") == "done":
                    done.add(frame["id"])
            assert wait_for_metric(
                net, "net_backpressure_throttles_total"
            ) >= 1
            # release the backpressure: ack everything seen so far and
            # the throttled statement runs to completion
            sock.sendall(protocol.pack_frame(protocol.ack_frame(have)))
            while 4 not in done:
                frame = protocol.read_frame_blocking(sock)
                assert frame is not None
                if frame.get("type") == "done":
                    done.add(frame["id"])
            assert done == {1, 2, 3, 4}
            sock.close()
        finally:
            net.close()


# -- races: cancel vs completion, close vs detach -----------------------------


@pytest.mark.concurrency
class TestShutdownRaces:
    def test_cancel_races_statement_completion(self, net):
        """cancel() from another thread, fired at random points around
        statement completion, must never wedge the connection: each
        round ends in either a clean result or a remote cancellation,
        and the session keeps serving afterwards."""
        with connect_tcp(net.host, net.port) as client:
            seed_big_table(client)
            for round_no in range(10):
                timer = threading.Timer(
                    0.0005 * (round_no % 4), client.cancel
                )
                timer.start()
                try:
                    result = client.execute("SELECT n FROM big;")
                    assert len(result.rows) == ROWS
                except RemoteError as error:
                    assert error.remote_type == "StatementCancelled"
                finally:
                    timer.cancel()
            # the connection survived all ten rounds
            assert client.execute("SELECT COUNT(*) FROM big;").rows == [
                (ROWS,)
            ]

    def test_server_close_with_detached_session_does_not_hang(self):
        net = serve_tcp(detach_ttl_seconds=300.0)  # reaper won't help
        client = connect_tcp(net.host, net.port)
        client.execute("SELECT 1;")
        client._sock.shutdown(socket.SHUT_RDWR)  # detach, never resume
        client._sock.close()
        assert wait_for_metric(net, "net_detaches_total") >= 1
        closer = threading.Thread(target=net.close)
        closer.start()
        closer.join(timeout=10.0)
        assert not closer.is_alive(), "close() hung on a detached session"
