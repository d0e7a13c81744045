"""The wire as the peer sees it: socket options, exact bytes, write
coalescing, and the codec's fast path against its per-value fallback.

``tests/golden/wire_v1.bin`` was captured from the commit *before* the
codec learned its fast path (``python tests/test_net_wire.py`` rewrites
it — only ever do that on purpose, with a protocol version bump).
"""

from __future__ import annotations

import gc
import json
import logging
import os
import socket
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import ResultSet
from repro.errors import ConnectionLostError
from repro.net import connect_tcp, serve_tcp
from repro.net import protocol
from repro.net.chaos import ChaosProxy
from repro.net.server import NetworkServer
from repro.sqltypes import CNULL, NULL

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "wire_v1.bin")


# -- golden bytes -------------------------------------------------------------


def golden_frames() -> list[dict]:
    """Every frame shape the protocol has, with every value shape the
    codec has: a first page of plain scalars only, a second mixing in
    everything that needs a tag, a short third."""
    plain = [
        lambda i: (i, f"k{i % 5}", i * 0.25, i % 2 == 0, None),
        lambda i: (-i, "naïve — 日本語 ✓ 𝄞", -1.5e-7, NULL, CNULL),
        lambda i: (NULL, "", 1e300, None, 2**70 + i),
        lambda i: (True, 'quote" back\\slash\nnewline\ttab', 0.1 + 0.2,
                   CNULL, -0.0),
        lambda i: (0, "\x00\x7f ", 5e-324, False, 3.0),
    ]
    tagged = [
        lambda i: (i, "nan", float("nan"), NULL, (1, NULL, "x")),
        lambda i: (i, "inf", float("inf"), True, float("-inf")),
        lambda i: (i, "foreign", 2.5, complex(1, i), [1, [2.5, CNULL]]),
        lambda i: (i, "bytes", CNULL, b"raw\x00", ()),
        plain[0],
    ]
    page = protocol.PAGE_ROWS
    rows = (
        [plain[i % len(plain)](i) for i in range(page)]
        + [tagged[i % len(tagged)](i) for i in range(page)]
        + [(plain + tagged)[i % 10](i) for i in range(17)]
    )
    result = ResultSet(
        columns=["n", "label", "score", "flag", "extra"],
        rows=rows,
        rowcount=len(rows),
        statement="SELECT",
        crowd_stats={
            "hits_posted": 3, "mean_confidence": 0.875, "platform": "amt",
        },
        status="partial",
        partial_reason="deadline",
    )
    empty = ResultSet(columns=["a"], rows=[], rowcount=0, statement="SELECT")
    return [
        protocol.hello_frame(),
        protocol.hello_frame(resume="0123abcd", have=41),
        protocol.welcome_frame(3, token="0123abcd", replayed=2),
        protocol.statement_frame(1, "SELECT 'ü';", deadline_ms=10,
                                 budget_cents=20),
        protocol.cancel_frame(1),
        protocol.ack_frame(9),
        {"type": "goodbye"},
        *protocol.result_pages(7, result),
        *protocol.result_pages(8, empty),
    ]


def golden_bytes() -> bytes:
    frames = golden_frames()
    for fseq, frame in enumerate(frames):
        if frame["type"] in ("result_page", "done"):
            frame["fseq"] = fseq  # stamped after building, like the pump
    return b"".join(protocol.pack_frame(frame) for frame in frames)


def _split(data: bytes) -> list[bytes]:
    payloads = []
    while data:
        (length,) = struct.unpack(">I", data[:4])
        payloads.append(data[4 : 4 + length])
        data = data[4 + length :]
    return payloads


def test_wire_bytes_equal_the_parent_commits():
    with open(GOLDEN, "rb") as handle:
        golden = handle.read()
    ours = golden_bytes()
    # frame by frame first, so a failure names the frame that moved
    for index, (got, want) in enumerate(zip(_split(ours), _split(golden))):
        assert got == want, f"frame {index} changed on the wire"
    assert ours == golden
    assert protocol.PROTOCOL_VERSION == 1


def test_golden_fixture_exercises_both_codec_paths():
    pages = [f for f in golden_frames() if f["type"] == "result_page"]
    assert len(pages) == 3
    # fast path: the rows ride untouched; fallback: re-built lists
    assert isinstance(pages[0]["rows"][0], tuple)
    assert isinstance(pages[1]["rows"][0], list)


def test_golden_bytes_decode_to_the_rows_that_were_sent():
    with open(GOLDEN, "rb") as handle:
        frames = [protocol.decode_payload(p) for p in _split(handle.read())]
    rows = [
        tuple(row)
        for frame in frames
        if frame["type"] == "result_page"
        for row in frame["rows"]
    ]
    assert len(rows) == 2 * protocol.PAGE_ROWS + 17
    assert rows[1] == (-1, "naïve — 日本語 ✓ 𝄞", -1.5e-7, NULL, CNULL)
    assert rows[1][3] is NULL and rows[1][4] is CNULL
    tagged = rows[protocol.PAGE_ROWS :]
    assert repr(tagged[0]) == repr(
        (0, "nan", float("nan"), NULL, (1, NULL, "x"))
    )
    assert tagged[1][2:] == (float("inf"), True, float("-inf"))
    assert tagged[2][3:] == ("(1+2j)", (1, (2.5, CNULL)))
    assert tagged[3][2:] == (CNULL, repr(b"raw\x00"), ())


# -- fast path == per-value path ---------------------------------------------

_plain_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([NULL, CNULL]),
)
_tagged_values = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.tuples(_plain_values, _plain_values),
    st.lists(_plain_values, max_size=3),
    st.complex_numbers(allow_nan=False),
    st.binary(max_size=4),
)
_rows = st.one_of(
    st.tuples(_plain_values, _plain_values, _plain_values),
    st.tuples(_plain_values, _tagged_values, _plain_values),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_rows, max_size=14))
def test_fast_path_and_fallback_pages_agree(rows):
    result = ResultSet(columns=["a", "b", "c"], rows=rows, rowcount=len(rows))
    with mock.patch.object(protocol, "PAGE_ROWS", 4):
        pages = protocol.result_pages(1, result)[:-1]
    decoded = []
    for page, start in zip(pages, range(0, len(rows), 4)):
        chunk = rows[start : start + 4]
        # the per-value path, with no help from the JSON hooks
        by_value = [protocol.encode_row(row) for row in chunk]
        reference = json.dumps(
            {**page, "rows": by_value}, separators=(",", ":")
        ).encode("utf-8")
        packed = protocol.pack_frame(page)
        assert packed[4:] == reference
        decoded.extend(map(tuple, protocol.decode_payload(packed[4:])["rows"]))
        expected = [protocol.decode_row(json.loads(json.dumps(row)))
                    for row in by_value]
        assert repr(decoded[start:]) == repr(expected)
    assert len(decoded) == len(rows)


def test_a_tag_without_its_payload_is_a_protocol_error():
    with pytest.raises(protocol.NetworkProtocolError):
        protocol.decode_payload(b'{"type":"x","v":{"$crowddb":"float"}}')
    with pytest.raises(protocol.NetworkProtocolError):
        protocol.decode_payload(b'{"type":"x","v":{"$crowddb":"nope"}}')


# -- socket options -----------------------------------------------------------


def _nodelay(sock) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


@pytest.fixture
def spied_writers(monkeypatch):
    """StreamWriters of accepted connections, each counting its writes."""
    writers = []
    handle = NetworkServer._handle

    async def spy(self, reader, writer):
        write = writer.write

        def counting_write(data):
            writer.writes.append(len(data))
            write(data)

        writer.writes = []
        writer.write = counting_write
        writers.append(writer)
        await handle(self, reader, writer)

    monkeypatch.setattr(NetworkServer, "_handle", spy)
    return writers


def test_nagle_is_off_on_every_socket_of_a_proxied_session(spied_writers):
    net = serve_tcp()
    try:
        with ChaosProxy(net.host, net.port) as proxy:
            with connect_tcp(proxy.host, proxy.port) as client:
                client.execute("CREATE TABLE t (a INTEGER);")
                assert _nodelay(client._sock)
                (accepted,) = spied_writers
                assert _nodelay(accepted.get_extra_info("socket"))
                downstream, upstream = proxy._sockets
                assert _nodelay(downstream) and _nodelay(upstream)
    finally:
        net.close()


# -- one write per reply, in order, resumable --------------------------------

ROWS = protocol.PAGE_ROWS * 3 + 5  # four result pages


def _seed(client) -> None:
    client.execute(
        "CREATE TABLE big (n INTEGER);"
        + "".join(f"INSERT INTO big VALUES ({i});" for i in range(ROWS))
    )


def test_a_paged_reply_is_one_write_in_order_with_consecutive_fseq(
    spied_writers,
):
    net = serve_tcp()
    try:
        with connect_tcp(net.host, net.port) as client:
            _seed(client)
        sock = socket.create_connection((net.host, net.port), timeout=30)
        sock.sendall(protocol.pack_frame(protocol.hello_frame()))
        assert protocol.read_frame_blocking(sock)["type"] == "welcome"
        sock.sendall(protocol.pack_frame(
            protocol.statement_frame(1, "SELECT n FROM big ORDER BY n;")
        ))
        frames = []
        while not frames or frames[-1]["type"] != "done":
            frames.append(protocol.read_frame_blocking(sock))
        sock.close()
        assert [f["type"] for f in frames] == ["result_page"] * 4 + ["done"]
        assert [f["seq"] for f in frames[:-1]] == [0, 1, 2, 3]
        assert [f["last"] for f in frames[:-1]] == [False, False, False, True]
        assert [f["fseq"] for f in frames] == [0, 1, 2, 3, 4]
        assert frames[-1]["pages"] == 4
        assert [
            row[0] for f in frames[:-1] for row in f["rows"]
        ] == list(range(ROWS))
        # welcome, then the whole five-frame reply in a single write
        assert len(spied_writers[-1].writes) == 2
        assert spied_writers[-1].writes[1] > 4 * protocol.PAGE_ROWS
    finally:
        net.close()


def test_mid_reply_disconnect_resumes_without_duplicate_rows():
    net = serve_tcp()
    try:
        with connect_tcp(net.host, net.port) as client:
            _seed(client)
        with ChaosProxy(net.host, net.port) as proxy:
            proxy.arm(kill_after_frames=3)  # welcome + two of four pages
            doomed = connect_tcp(proxy.host, proxy.port)
            with pytest.raises(ConnectionLostError) as info:
                doomed.execute("SELECT n FROM big ORDER BY n;")
        lost = info.value
        assert 0 < len(lost.rows) < ROWS
        with connect_tcp(
            net.host, net.port, resume=lost.token, have=lost.have
        ) as resumed:
            result = resumed.resume_execute(lost)
        assert [row[0] for row in result.rows] == list(range(ROWS))
        assert result.status == "complete"
    finally:
        net.close()


# -- teardown -----------------------------------------------------------------


def test_closing_the_listener_right_after_goodbye_destroys_no_task(caplog):
    """The handler used to leave ``_conn_tasks`` before it had finished
    closing its socket, so ``close()`` stopped the loop under it."""
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        for _ in range(20):
            net = serve_tcp()
            client = connect_tcp(net.host, net.port)
            client.execute("CREATE TABLE t (a INTEGER);")
            client.close()  # goodbye
            net.close()
            del net, client
            gc.collect()
    assert [r.getMessage() for r in caplog.records] == []


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "wb") as out:
        out.write(golden_bytes())
    print(f"wrote {os.path.getsize(GOLDEN)} bytes to {GOLDEN}")
