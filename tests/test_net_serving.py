"""Network serving: wire protocol codec, TCP round trips, cancel,
admission over the wire, and graceful shutdown."""

from __future__ import annotations

import math
import socket
import struct
import threading
import time

import pytest

from repro.api import connect, serve
from repro.crowd.task_manager import CrowdConfig
from repro.errors import NetworkProtocolError, RemoteError
from repro.net import connect_tcp, serve_tcp
from repro.net import protocol
from repro.server import AdmissionConfig
from repro.sqltypes import CNULL, NULL


# -- value codec --------------------------------------------------------------


def test_codec_roundtrips_the_sql_value_domain():
    row = (1, "text", 2.5, True, NULL, CNULL, None)
    assert protocol.decode_row(protocol.encode_row(row)) == row
    # the singletons come back as the singletons, not lookalikes
    decoded = protocol.decode_row(protocol.encode_row((NULL, CNULL)))
    assert decoded[0] is NULL and decoded[1] is CNULL


def test_codec_handles_non_finite_floats_and_sequences():
    nan, = protocol.decode_row(protocol.encode_row((float("nan"),)))
    assert math.isnan(nan)
    inf, ninf = protocol.decode_row(
        protocol.encode_row((float("inf"), float("-inf")))
    )
    assert inf == math.inf and ninf == -math.inf
    seq, = protocol.decode_row(protocol.encode_row(((1, NULL, "x"),)))
    assert seq == (1, NULL, "x")


def test_codec_rejects_unknown_tags():
    with pytest.raises(NetworkProtocolError):
        protocol.decode_value({"$crowddb": "no-such-kind"})


def test_frame_roundtrip_and_length_validation():
    frame = {"type": "statement", "id": 7, "sql": "SELECT 1;"}
    data = protocol.pack_frame(frame)
    length = protocol.parse_length(data[:4])
    assert protocol.decode_payload(data[4 : 4 + length]) == frame


def test_oversized_frames_are_refused_not_allocated():
    huge = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
    with pytest.raises(NetworkProtocolError, match="exceeds"):
        protocol.parse_length(huge)


def test_undecodable_payload_is_a_protocol_error():
    with pytest.raises(NetworkProtocolError):
        protocol.decode_payload(b"\xff\xfe not json")
    with pytest.raises(NetworkProtocolError):
        protocol.decode_payload(b"[1, 2, 3]")  # not an object with a type


# -- end-to-end over TCP ------------------------------------------------------

SETUP = """
CREATE TABLE dept (name TEXT PRIMARY KEY, floor INTEGER);
INSERT INTO dept VALUES ('eng', 4);
INSERT INTO dept VALUES ('sales', 2);
INSERT INTO dept VALUES ('ops', 2);
"""

QUERY = "SELECT name, floor FROM dept WHERE floor = 2 ORDER BY name;"


PERSON = "CREATE TABLE person (name STRING PRIMARY KEY, city CROWD STRING);" + (
    "".join(f"INSERT INTO person (name) VALUES ('p{i}');" for i in range(4))
)
BULK = "CREATE TABLE bulk (n INTEGER);" + "".join(
    f"INSERT INTO bulk VALUES ({i});" for i in range(200)
)
CROWD_QUERY = "SELECT name, city FROM person WHERE name = 'p{}'"  # unfilled
FOREVER = 100_000_000


def _front_ends(root):
    """(name, run, storage, close) per front end, each over its own
    durable instance: ``run(sql, **caps)`` returns the last result of a
    ;-script, ``caps`` being the per-submission deadline/budget where the
    front end has such a thing (``Connection`` does not)."""
    from repro.crowd.sim.traces import GroundTruthOracle

    def instance(name):
        oracle = GroundTruthOracle()
        for i in range(4):
            oracle.load_fill("person", (f"p{i}",), {"city": f"city{i}"})
        return dict(
            path=str(root / name), checkpoint_interval=16, oracle=oracle,
            seed=11, crowd_config=CrowdConfig(statement_deadline_ms=1),
        )

    local = connect(**instance("local"))
    yield (
        "local", lambda sql: local.executescript(sql)[-1],
        local.storage, local.close,
    )

    server = serve(**instance("server"))
    session = server.open_session()

    def in_process(sql, **caps):
        before = len(session.results)
        session.submit(sql, **caps)
        server.run()
        assert before < len(session.results)  # in-process results accumulate
        return session.last_result()

    yield "server", in_process, server.connection.storage, server.close

    net = serve_tcp(**instance("tcp"))
    client = connect_tcp(net.host, net.port)

    def close_tcp():
        client.close()
        net.close()

    yield "tcp", client.execute, net.server.connection.storage, close_tcp


def test_tcp_results_match_in_process_execution(tmp_path):
    """Connection, in-process Server and TCP give the same answers, take
    durable checkpoints on the same schedule, and rank caps the same way:
    WITH clause in the text > the submission's caps > connect() defaults."""
    seen = {}
    for name, run, storage, close in _front_ends(tmp_path):
        try:
            run(SETUP + PERSON)
            answer = run(QUERY)
            # 200 one-record statements in one submission: the interval
            # is honoured between them, not once when the script ends
            run(BULK)
            checkpoints = storage.checkpoints_written
            count = run("SELECT COUNT(*) FROM bulk").rows
            caps = {
                "connect() default": run(CROWD_QUERY.format(0)),
                "text > default": run(
                    f"{CROWD_QUERY.format(1)} WITH DEADLINE {FOREVER}"
                ),
            }
            if name != "local":
                caps["submission > default"] = run(
                    CROWD_QUERY.format(2), deadline_ms=FOREVER
                )
                caps["text > submission"] = run(
                    f"{CROWD_QUERY.format(3)} WITH DEADLINE 1",
                    deadline_ms=FOREVER,
                )
            seen[name] = (
                answer.columns, answer.rows, count, checkpoints,
                {k: (r.status, r.partial_reason) for k, r in caps.items()},
            )
        finally:
            close()
    assert seen["server"] == seen["tcp"]
    *electronic, ranked = seen["local"]
    assert electronic == list(seen["tcp"][:4])
    assert ranked.items() <= seen["tcp"][4].items()
    assert electronic[:2] == [["name", "floor"], [("ops", 2), ("sales", 2)]]
    assert electronic[2] == [(200,)] and electronic[3] >= 200 // 16
    assert seen["tcp"][4] == {
        "connect() default": ("partial", "deadline"),
        "text > default": ("complete", None),
        "submission > default": ("complete", None),
        "text > submission": ("partial", "deadline"),
    }


def test_a_wire_session_keeps_no_result_after_its_reply():
    """The pump replies from the Statement it posted and the unacked
    frames are the only copy: the server-side session's ``results`` do
    not grow with the statements a connection has run."""
    net = serve_tcp(with_crowd=False)
    try:
        with connect_tcp(net.host, net.port) as client:
            client.execute(SETUP)
            for _ in range(25):
                assert len(client.execute(QUERY).rows) == 2
            (session,) = net.server.sessions.values()
            assert session.statements_run == 4 + 25
            assert session.results == []
    finally:
        net.close()


def test_large_results_page_and_reassemble():
    total = protocol.PAGE_ROWS * 2 + 17  # forces 3 result_page frames
    net = serve_tcp()
    try:
        with connect_tcp(net.host, net.port) as client:
            client.execute("CREATE TABLE big (n INTEGER);")
            script = "".join(
                f"INSERT INTO big VALUES ({i});" for i in range(total)
            )
            client.execute(script)
            result = client.execute("SELECT n FROM big ORDER BY n;")
            assert len(result.rows) == total
            assert result.rows[0] == (0,) and result.rows[-1] == (total - 1,)
    finally:
        net.close()


def test_statement_errors_carry_remote_type_and_traceback():
    net = serve_tcp()
    try:
        with connect_tcp(net.host, net.port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.execute("SELECT nope FROM missing_table;")
            assert excinfo.value.remote_type
            assert "Traceback" in excinfo.value.remote_traceback
            # text with no statement in it is answered too, not left hanging
            with pytest.raises(RemoteError, match="no result"):
                client.execute(";")
            # the session survives a failed statement
            client.execute("CREATE TABLE ok (a INTEGER);")
            result = client.execute("SELECT a FROM ok;")
            assert result.rows == []
    finally:
        net.close()


def test_crowd_statements_work_over_the_wire():
    from repro.crowd.sim.traces import GroundTruthOracle

    oracle = GroundTruthOracle()
    oracle.load_fill("person", ("alice",), {"city": "Berkeley"})
    oracle.load_fill("person", ("bob",), {"city": "Zurich"})
    net = serve_tcp(seed=7, oracle=oracle)
    try:
        with connect_tcp(net.host, net.port) as client:
            client.execute(
                "CREATE TABLE person "
                "(name TEXT PRIMARY KEY, city CROWD TEXT);"
            )
            client.execute(
                "INSERT INTO person (name) VALUES ('alice');"
                "INSERT INTO person (name) VALUES ('bob');"
            )
            result = client.execute(
                "SELECT name, city FROM person ORDER BY name;"
            )
            # crowd-filled values actually traveled the codec (simulated
            # workers add case noise, so compare case-insensitively)
            assert [
                (name, city.lower()) for name, city in result.rows
            ] == [("alice", "berkeley"), ("bob", "zurich")]
            assert result.crowd_stats.get("hits_posted", 0) >= 1
    finally:
        net.close()


def test_concurrent_clients_get_isolated_sessions():
    net = serve_tcp()
    clients = [connect_tcp(net.host, net.port) for _ in range(8)]
    try:
        assert len({c.session_id for c in clients}) == 8
        errors: list[Exception] = []

        def work(index: int, client) -> None:
            try:
                client.execute(f"CREATE TABLE t{index} (a INTEGER);")
                client.execute(f"INSERT INTO t{index} VALUES ({index});")
                result = client.execute(f"SELECT a FROM t{index};")
                assert result.rows == [(index,)]
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(i, c))
            for i, c in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
    finally:
        for client in clients:
            client.close()
        net.close()


# -- cancel -------------------------------------------------------------------


class _GatedAdvance:
    """Replace Scheduler._advance with a no-op until released, so a
    crowd wait stays pending for as long as the test needs."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.original = scheduler._advance
        self.gate = threading.Event()
        scheduler._advance = self

    def __call__(self, waiting):
        if not self.gate.is_set():
            time.sleep(0.002)
            return
        self.original(waiting)

    def release(self):
        self.gate.set()
        self.scheduler._advance = self.original


def test_cancel_frame_aborts_a_parked_crowd_statement():
    server = serve(seed=11)
    gate = _GatedAdvance(server.scheduler)
    net = serve_tcp(server=server)
    client = connect_tcp(net.host, net.port)
    try:
        client.execute(
            "CREATE TABLE slow (name TEXT PRIMARY KEY, city CROWD TEXT);"
        )
        client.execute("INSERT INTO slow (name) VALUES ('x');")
        outcome: dict = {}

        def run():
            try:
                outcome["result"] = client.execute(
                    "SELECT name, city FROM slow;"
                )
            except Exception as error:
                outcome["error"] = error

        worker = threading.Thread(target=run)
        worker.start()
        # wait until the session is genuinely parked on a crowd future
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if any(
                session.state.name == "WAITING"
                for session in server.sessions.values()
            ):
                break
            time.sleep(0.01)
        else:  # pragma: no cover - diagnostic
            pytest.fail("session never parked on a crowd wait")
        client.cancel()
        worker.join(timeout=30)
        assert not worker.is_alive()
        error = outcome.get("error")
        assert isinstance(error, RemoteError)
        assert error.remote_type == "StatementCancelled"

        # the session survives: release the crowd and query again
        gate.release()
        result = client.execute("SELECT name FROM slow;")
        assert result.rows == [("x",)]
    finally:
        gate.release()
        client.close()
        net.close()
        server.close()


# -- admission over the wire --------------------------------------------------


def test_admission_rejection_travels_as_an_error_frame():
    server = serve(
        admission=AdmissionConfig(
            max_active_sessions=1, max_waiting_sessions=0
        )
    )
    net = serve_tcp(server=server)
    first = connect_tcp(net.host, net.port)
    try:
        first.execute("CREATE TABLE t (a INTEGER);")
        with pytest.raises(RemoteError) as excinfo:
            connect_tcp(net.host, net.port)
        assert excinfo.value.remote_type == "AdmissionError"
    finally:
        first.close()
        net.close()
        server.close()


def test_clients_over_the_active_cap_all_finish_with_in_process_answers(
    near_perfect_crowd,
):
    """24 concurrent TCP clients, each an electronic aggregate plus a
    keyed crowd probe (windows overlap, so in-flight HITs are shared),
    against a listener that admits 6 at a time: every client completes,
    and its answers are those of the same scripts through
    ``Server.run_scripts`` — the wire adds transport, not semantics."""
    from repro.crowd.sim.traces import GroundTruthOracle
    from repro.server import Server

    clients, cities = 24, 24
    setup = (
        [
            "CREATE TABLE City (name STRING PRIMARY KEY, "
            "population CROWD INTEGER)",
            "CREATE TABLE items (n INTEGER, k STRING)",
        ]
        + [f"INSERT INTO City (name) VALUES ('city{i:02d}')"
           for i in range(cities)]
        + [f"INSERT INTO items VALUES ({i}, 'k{i % 5}')" for i in range(400)]
    )

    def statements(index):
        return [
            "SELECT k, COUNT(*) AS c FROM items "
            f"WHERE n < {100 + index % 50} GROUP BY k ORDER BY k",
            "SELECT population FROM City "
            f"WHERE name = 'city{index % cities:02d}'",
        ]

    def fresh_server():
        oracle = GroundTruthOracle()
        for i in range(cities):
            oracle.load_fill(
                "City", (f"city{i:02d}",), {"population": 10_000 + 137 * i}
            )
        server = Server(connection=near_perfect_crowd(oracle))
        server.admission.config.max_waiting_sessions = clients
        return server

    server = fresh_server()
    for statement in setup:
        server.connection.execute(statement)
    in_process = {
        index: [sorted(result.rows) for result in results]
        for index, results in enumerate(
            server.run_scripts(
                ["; ".join(statements(i)) for i in range(clients)]
            )
        )
    }
    server.shutdown()

    server = fresh_server()
    server.admission.config.max_active_sessions = 6
    net = serve_tcp(server=server)
    answers: dict[int, list] = {}
    errors: list = []
    lock = threading.Lock()

    def client(index: int) -> None:
        try:
            with connect_tcp(net.host, net.port, timeout=120) as conn:
                mine = [
                    sorted(conn.execute(sql + ";").rows)
                    for sql in statements(index)
                ]
            with lock:
                answers[index] = mine
        except Exception as error:  # pragma: no cover - failure path
            with lock:
                errors.append((index, error))

    try:
        with connect_tcp(net.host, net.port) as admin:
            admin.execute(";".join(setup) + ";")
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert answers == in_process
        admission = server.admission.stats
        assert admission.rejected == 0
        assert admission.promoted == admission.waitlisted > 0  # cap engaged
        latency = server.connection.metrics.histogram("net_statement_seconds")
        assert latency.count >= 2 * clients
        assert latency.percentile(0.99) >= latency.percentile(0.50) > 0.0
    finally:
        net.close()
        server.close()


# -- lifecycle ----------------------------------------------------------------


def test_server_close_drains_open_connections():
    net = serve_tcp()
    client = connect_tcp(net.host, net.port)
    client.execute("CREATE TABLE t (a INTEGER);")
    net.close()  # connection still open: must drain, not wedge
    with pytest.raises((NetworkProtocolError, OSError)):
        client.execute("SELECT a FROM t;")
    client.close()


def test_handshake_is_required_before_statements():
    net = serve_tcp()
    try:
        sock = socket.create_connection((net.host, net.port), timeout=10)
        try:
            sock.sendall(
                protocol.pack_frame(protocol.statement_frame(1, "SELECT 1;"))
            )
            frame = protocol.read_frame_blocking(sock)
            assert frame is not None and frame["type"] == "error"
        finally:
            sock.close()
    finally:
        net.close()


def test_ephemeral_port_is_reported():
    net = serve_tcp(port=0)
    try:
        assert net.port != 0
    finally:
        net.close()
