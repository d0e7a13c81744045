"""Asyncio TCP front end over the concurrent query server.

Architecture: sockets and the engine never share a thread.

* The **asyncio loop** (its own daemon thread) accepts connections and
  runs one reader and one writer task per connection.  The reader stays
  responsive for the whole life of the connection — that is what makes
  ``cancel`` frames work mid-statement.
* The **engine pump** (one dedicated thread) is the *single owner* of
  every Server interaction: open/close sessions, submit statements,
  step the cooperative scheduler.  Connection handlers talk to it
  through a command queue and get replies pushed back through
  ``loop.call_soon_threadsafe`` — so the engine's single-threaded
  discipline (exactly one session thread or the scheduler running at a
  time) is preserved no matter how many sockets are live.  A statement's
  whole reply (its ``result_page`` frames and ``done``) crosses in one
  hop and leaves in one socket write.

Server-wide counters (statements, cancels, detaches, resumes) and a
statement latency histogram land in the connection's metrics registry.
"""

from __future__ import annotations

import asyncio
import queue
import secrets
import socket
import threading
from collections import deque
from time import monotonic, perf_counter
from typing import Any, Optional

from repro.errors import AdmissionError, NetworkProtocolError
from repro.net import protocol
from repro.server.server import Server
from repro.statement import Statement


class _Connection:
    """Pump-side state for one wire session.

    Outlives its TCP socket: an unclean disconnect *detaches* the
    session (``detached=True``) instead of closing it — the in-flight
    statement keeps running, result frames accumulate in ``buffer``, and
    a later connection may reattach by token and replay the unseen
    suffix.  ``binding`` counts attachments so a hangup posted by a dead
    socket's handler cannot tear down a session a newer socket owns.
    """

    def __init__(self, conn_id: int, send: Any) -> None:
        self.conn_id = conn_id
        self.send = send  # thread-safe: (*frames) -> None, one write
        self.token = secrets.token_hex(16)
        self.session: Optional[Any] = None
        # the statement the session is running, and those behind it: the
        # objects the socket handler built, replied from when ``done``
        self.active: Optional[Statement] = None
        self.pending: list[Statement] = []
        self.closing = False
        self.binding = 1
        self.detached = False
        self.detached_at = 0.0
        self.fseq = 0  # next result-stream sequence number to stamp
        self.buffer: deque = deque()  # stamped frames not yet acked
        self.acked = -1
        # highest statement id ever submitted: a reconnecting client
        # resubmits its in-flight statement, which must not run twice
        self.highest_statement = 0
        self.throttled = False

    def push(self, *frames: dict) -> None:
        """Send result-stream frames exactly-once: stamp each, buffer
        until acknowledged, deliver now — as one write — only if a
        socket is attached."""
        for frame in frames:
            frame["fseq"] = self.fseq
            self.fseq += 1
        self.buffer.extend(frames)
        if not self.detached:
            self.send(*frames)


class EnginePump:
    """The single thread that owns the Server.

    Commands arrive on a queue; between commands the pump steps the
    cooperative scheduler and flushes finished statements back to their
    connections.  Stopping the pump drains gracefully: in-flight
    statements finish (or unwind, if their connection died) before the
    thread exits.
    """

    _IDLE_POLL = 0.05

    def __init__(
        self,
        server: Server,
        page_buffer_frames: int = 256,
        detach_ttl_seconds: float = 30.0,
    ) -> None:
        self.server = server
        self.commands: "queue.Queue[tuple]" = queue.Queue()
        self.connections: dict[int, _Connection] = {}
        self.by_token: dict[str, _Connection] = {}
        # exactly-once delivery buffer bounds: a detached session may
        # accumulate at most this many unacked frames before it is
        # killed; an attached one throttles new statements at the high
        # watermark and resumes below the low one
        self._page_buffer_frames = max(8, int(page_buffer_frames))
        self._buffer_high = max(2, self._page_buffer_frames // 2)
        self._buffer_low = max(1, self._page_buffer_frames // 4)
        self._detach_ttl = detach_ttl_seconds
        self._thread = threading.Thread(
            target=self._main, name="crowddb-engine-pump", daemon=True
        )
        self._stopped = threading.Event()
        metrics = server.connection.metrics
        self._latency = metrics.histogram(
            "net_statement_seconds",
            help="wall-clock statement latency over the wire protocol",
        )
        self._statements = metrics.counter(
            "net_statements_total",
            help="statements executed for network clients",
        )
        self._cancels = metrics.counter(
            "net_cancels_total",
            help="cancel frames honored for network clients",
        )
        self._detaches = metrics.counter(
            "net_detaches_total",
            help="unclean disconnects that detached a live session",
        )
        self._resumes = metrics.counter(
            "net_resumes_total",
            help="sessions reattached by resume token",
        )
        self._resume_failures = metrics.counter(
            "net_resume_failures_total",
            help="resume attempts with an unknown or expired token",
        )
        self._replayed = metrics.counter(
            "net_replayed_frames_total",
            help="buffered frames replayed to reattached clients",
        )
        self._detach_expired = metrics.counter(
            "net_detach_expired_total",
            help="detached sessions reaped after the reattach TTL",
        )
        self._detach_overflow = metrics.counter(
            "net_detach_overflow_total",
            help="detached sessions killed for exceeding the page buffer",
        )
        self._throttles = metrics.counter(
            "net_backpressure_throttles_total",
            help="connections paused at the outgoing-buffer high watermark",
        )
        self._duplicates = metrics.counter(
            "net_duplicate_statements_total",
            help="resubmitted statement ids dropped by idempotent dedup",
        )
        metrics.register_view(
            "net_connections_open",
            lambda: len(self.connections),
            help="TCP connections currently mapped to sessions",
        )
        metrics.register_view(
            "net_connections_detached",
            lambda: sum(
                1 for c in self.connections.values() if c.detached
            ),
            help="sessions running detached, awaiting reattach",
        )

    # -- lifecycle (any thread) ---------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Graceful drain: finish in-flight statements, close sessions."""
        self.commands.put(("stop",))
        self._thread.join(timeout=120.0)

    # -- command submission (called from the asyncio loop thread) -----------

    def post(self, command: tuple) -> None:
        self.commands.put(command)

    # -- pump thread ---------------------------------------------------------

    def _busy(self) -> bool:
        return any(
            c.active is not None or c.pending
            for c in self.connections.values()
        )

    def _main(self) -> None:
        stopping = False
        while True:
            # drain every command available right now; block briefly
            # only when there is no engine work either
            try:
                command = self.commands.get(
                    timeout=0.0 if self._busy() else self._IDLE_POLL
                )
                while True:
                    if command[0] == "stop":
                        stopping = True
                    else:
                        self._handle(command)
                    command = self.commands.get_nowait()
            except queue.Empty:
                pass
            self._reap_detached()
            if self._busy():
                sessions = [
                    c.session
                    for c in self.connections.values()
                    if c.session is not None
                ]
                try:
                    outcome = self.server.scheduler.step(
                        sessions, self.server.admission
                    )
                    if outcome == "deadlock":
                        raise AdmissionError(
                            "admission deadlock: waitlisted sessions but "
                            "no active session can drain"
                        )
                except Exception as error:
                    self._scheduler_failed(error)
                self._flush_finished()
            elif stopping and self.commands.empty():
                break
        for connection in list(self.connections.values()):
            self._close_connection(connection)
        self._stopped.set()

    def _handle(self, command: tuple) -> None:
        kind = command[0]
        if kind == "open":
            _, conn = command
            try:
                conn.session = self.server.open_session()
            except AdmissionError as error:
                conn.send(
                    protocol.error_frame(None, error), {"type": "goodbye"}
                )
                conn.closing = True
                return
            self.connections[conn.conn_id] = conn
            self.by_token[conn.token] = conn
            conn.send(
                protocol.welcome_frame(
                    conn.session.session_id, token=conn.token
                )
            )
        elif kind == "statement":
            _, conn, statement = command
            if conn.session is None or conn.closing:
                return
            if statement.statement_id <= conn.highest_statement:
                # a reconnecting client resubmitted its in-flight
                # statement: it is already running (or its frames are
                # buffered) — never spend crowd money on it twice
                self._duplicates.inc()
                return
            conn.highest_statement = statement.statement_id
            conn.pending.append(statement)
            self._pump_connection(conn)
        elif kind == "cancel":
            _, conn, statement_id = command
            active = conn.active
            if (
                active is not None
                and active.statement_id == statement_id
                and conn.session is not None
            ):
                conn.session.cancel()
                self._cancels.inc()
        elif kind == "ack":
            _, conn, fseq = command
            if fseq > conn.acked:
                conn.acked = fseq
                while conn.buffer and conn.buffer[0]["fseq"] <= fseq:
                    conn.buffer.popleft()
                self._maybe_unthrottle(conn)
        elif kind == "hangup":
            _, conn, binding = command
            self._hangup(conn, binding)
        elif kind == "resume":
            _, token, have, send, resolve = command
            self._resume(token, have, send, resolve)
        elif kind == "close":
            _, conn = command
            self._close_connection(conn)

    def _hangup(self, conn: _Connection, binding: int) -> None:
        """The socket died without a goodbye: detach, don't cancel."""
        if conn.closing or conn.binding != binding:
            return  # a newer attachment already took the session over
        if conn.session is None:
            self._close_connection(conn)
            return
        conn.detached = True
        conn.detached_at = monotonic()
        self._detaches.inc()
        if len(conn.buffer) > self._page_buffer_frames:
            # already holding more unacked frames than a detached session
            # may buffer: kill now instead of waiting for the next flush
            self._detach_overflow.inc()
            self._close_connection(conn)

    def _resume(
        self, token: str, have: int, send: Any, resolve: Any
    ) -> None:
        """Reattach a detached session: swap in the new socket's sender,
        drop frames the client already processed, replay the rest."""
        conn = self.by_token.get(token)
        if conn is None or conn.closing or conn.session is None:
            self._resume_failures.inc()
            resolve(None)
            return
        conn.binding += 1
        conn.send = send
        conn.detached = False
        conn.detached_at = 0.0
        if have > conn.acked:
            conn.acked = have
        while conn.buffer and conn.buffer[0]["fseq"] <= have:
            conn.buffer.popleft()
        self._resumes.inc()
        resolve(conn)
        conn.send(
            protocol.welcome_frame(
                conn.session.session_id,
                token=conn.token,
                replayed=len(conn.buffer),
            ),
            *conn.buffer,
        )
        self._replayed.inc(len(conn.buffer))
        self._maybe_unthrottle(conn)

    def _reap_detached(self) -> None:
        """Kill detached sessions nobody reattached within the TTL."""
        if not self.connections:
            return
        now = monotonic()
        for conn in list(self.connections.values()):
            if (
                conn.detached
                and now - conn.detached_at > self._detach_ttl
            ):
                self._detach_expired.inc()
                self._close_connection(conn)

    def _maybe_throttle(self, conn: _Connection) -> None:
        """Backpressure: past the high watermark, stop starting new
        statements and hand the admission slot back to the waitlist."""
        if conn.throttled or len(conn.buffer) < self._buffer_high:
            return
        conn.throttled = True
        self._throttles.inc()
        if conn.session is not None and conn.active is None:
            self.server.admission.release(conn.session)

    def _maybe_unthrottle(self, conn: _Connection) -> None:
        if conn.throttled and len(conn.buffer) <= self._buffer_low:
            conn.throttled = False
            self._pump_connection(conn)

    def _pump_connection(self, conn: _Connection) -> None:
        """Start the next pending statement if none is active."""
        if conn.active is not None or not conn.pending or conn.session is None:
            return
        if conn.throttled:
            return  # unacked output past the high watermark: wait
        statement = conn.active = conn.pending.pop(0)
        try:
            # an idle session may have yielded its admission slot to the
            # waitlist; take it back (or rejoin the waitlist) before the
            # scheduler is asked to run the statement
            self.server.admission.request(conn.session)
            conn.session.submit(statement)
        except Exception as error:  # session closed / server full
            conn.active = None
            conn.push(protocol.error_frame(statement.statement_id, error))

    def _flush_finished(self) -> None:
        """Reply to every connection whose active statement completed."""
        for conn in list(self.connections.values()):
            statement = conn.active
            if statement is None or not statement.done or conn.session is None:
                continue
            conn.active = None
            outcome = statement.results
            # the encoded frames pushed below, held in the exactly-once
            # buffer until acked, are the only copy a wire session needs:
            # drop the session's own, or every ResultSet it ever sent
            # stays resident
            conn.session.results.clear()
            self._latency.observe(perf_counter() - statement.started_at)
            # a script yields several results; like last_result(), the
            # reply carries the final one — an error anywhere in the
            # script fails the statement with that error
            error = next(
                (r for r in outcome if isinstance(r, Exception)), None
            )
            if error is not None or not outcome:
                conn.push(
                    protocol.error_frame(
                        statement.statement_id,
                        error
                        if error is not None
                        else NetworkProtocolError("statement produced no result"),
                    )
                )
            else:
                last = outcome[-1]
                frames = protocol.result_pages(statement.statement_id, last)
                frames[-1]["results"] = len(outcome)
                conn.push(*frames)
                self._statements.inc(len(outcome))
            self._maybe_throttle(conn)
            if (
                conn.detached
                and len(conn.buffer) > self._page_buffer_frames
            ):
                # nobody is reading and the exactly-once buffer is full:
                # the session is beyond saving — kill it
                self._detach_overflow.inc()
                self._close_connection(conn)
                continue
            self._pump_connection(conn)

    def _scheduler_failed(self, error: Exception) -> None:
        """A scheduler step blew up (stall, admission deadlock): fail
        every in-flight statement rather than wedging the pump."""
        for conn in self.connections.values():
            if conn.active is not None:
                conn.push(protocol.error_frame(conn.active.statement_id, error))
                conn.active = None
            for pending in conn.pending:
                conn.push(protocol.error_frame(pending.statement_id, error))
            conn.pending.clear()

    def _close_connection(self, conn: _Connection) -> None:
        conn.closing = True
        self.connections.pop(conn.conn_id, None)
        self.by_token.pop(conn.token, None)
        if conn.session is not None:
            try:
                self.server.close_session(conn.session)
            except Exception:
                pass
            conn.session = None


class NetworkServer:
    """TCP listener + engine pump over one :class:`Server`.

    ``host``/``port`` bind the asyncio listener (port 0 picks a free
    port; read :attr:`port` after :meth:`start`).  ``own_server`` makes
    :meth:`close` also close the underlying Server/connection.
    """

    def __init__(
        self,
        server: Server,
        host: str = "127.0.0.1",
        port: int = 0,
        own_server: bool = False,
        page_buffer_frames: int = 256,
        detach_ttl_seconds: float = 30.0,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self.own_server = own_server
        self.pump = EnginePump(
            server,
            page_buffer_frames=page_buffer_frames,
            detach_ttl_seconds=detach_ttl_seconds,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._listener: Optional[asyncio.AbstractServer] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._conn_ids = iter(range(1, 1 << 62))
        self._conn_tasks: set = set()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "NetworkServer":
        self.pump.start()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="crowddb-net-loop", daemon=True
        )
        self._loop_thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise NetworkProtocolError("network server failed to start")
        return self

    def close(self) -> None:
        """Stop accepting, drain in-flight statements, close sessions."""
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and loop.is_running():
            asyncio.run_coroutine_threadsafe(
                self._shutdown_loop(), loop
            ).result(timeout=30.0)
            loop.call_soon_threadsafe(loop.stop)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=30.0)
        self.pump.stop()
        if self.own_server:
            self.server.close()

    def __enter__(self) -> "NetworkServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- asyncio side --------------------------------------------------------

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._listener = loop.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port)
            )
            self.port = self._listener.sockets[0].getsockname()[1]
        except BaseException as error:  # bind failure
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    async def _shutdown_loop(self) -> None:
        if self._listener is not None:
            self._listener.close()  # accept nothing new
        # graceful drain: unblock every connection handler (each posts
        # its session close to the pump from its finally block) and wait
        # for the writers to flush.  This comes before ``wait_closed()``:
        # from Python 3.12.1 that waits for every open connection, which
        # would be these handlers, not yet cancelled
        tasks = [task for task in self._conn_tasks if not task.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._listener is not None:
            await self._listener.wait_closed()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        outbox: "asyncio.Queue[Optional[tuple]]" = asyncio.Queue()

        def send(*frames: dict) -> None:
            # called from the pump thread; one hop onto the loop for
            # however many frames the reply has
            loop.call_soon_threadsafe(outbox.put_nowait, frames)

        conn: Optional[_Connection] = None
        binding = 0
        clean = False
        writer_task = asyncio.ensure_future(self._writer(outbox, writer))
        try:
            # asyncio's selector transport turns Nagle off on accepted
            # sockets but does not document it; small writes depend on it
            writer.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            frame = await self._read_frame(reader)
            if frame is None or frame.get("type") != "hello":
                raise NetworkProtocolError("expected a hello frame first")
            token = frame.get("resume")
            if token:
                # reattach: the pump resolves the token to the detached
                # connection (or None) and replays unacked frames
                resumed = loop.create_future()

                def resolve(value: Optional[_Connection]) -> None:
                    loop.call_soon_threadsafe(
                        lambda: (
                            resumed.set_result(value)
                            if not resumed.done()
                            else None
                        )
                    )

                self.pump.post(
                    (
                        "resume",
                        str(token),
                        int(frame.get("have", -1)),
                        send,
                        resolve,
                    )
                )
                conn = await resumed
                if conn is None:
                    send(
                        protocol.error_frame(
                            None,
                            NetworkProtocolError(
                                "unknown or expired session token"
                            ),
                        ),
                        {"type": "goodbye"},
                    )
                    clean = True
                    return
                binding = conn.binding
            else:
                conn = _Connection(next(self._conn_ids), send)
                binding = conn.binding
                self.pump.post(("open", conn))
            while True:
                frame = await self._read_frame(reader)
                if frame is None:
                    break
                kind = frame.get("type")
                if kind == "statement":
                    caps = frame.get("deadline_ms"), frame.get("budget_cents")
                    statement = Statement(
                        str(frame["sql"]),
                        deadline_ms=(
                            int(caps[0]) if caps[0] is not None else None
                        ),
                        budget_cents=(
                            int(caps[1]) if caps[1] is not None else None
                        ),
                        statement_id=int(frame.get("id", 0)),
                    )
                    self.pump.post(("statement", conn, statement))
                elif kind == "cancel":
                    self.pump.post(("cancel", conn, int(frame.get("id", 0))))
                elif kind == "ack":
                    self.pump.post(("ack", conn, int(frame.get("fseq", -1))))
                elif kind == "goodbye":
                    send({"type": "goodbye"})
                    clean = True
                    break
                else:
                    raise NetworkProtocolError(f"unexpected frame: {kind!r}")
        except NetworkProtocolError as error:
            send(protocol.error_frame(None, error))
            clean = True  # protocol violation: no point keeping the session
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # unclean drop: detach below
        except asyncio.CancelledError:
            # server shutdown drained this connection; exit cleanly so
            # the stream protocol's done-callback sees no exception
            clean = True
        finally:
            if conn is not None:
                if clean:
                    self.pump.post(("close", conn))
                else:
                    # the socket died mid-conversation: keep the session
                    # (and its crowd spend) alive for a reattach
                    self.pump.post(("hangup", conn, binding))
            # writer sentinel: flush and exit.  Queued behind every send
            # above, which reached the loop the same way
            loop.call_soon(outbox.put_nowait, None)
            try:
                await asyncio.shield(writer_task)
            except asyncio.CancelledError:  # pragma: no cover
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            # last: close() drains the tasks still in this set, and a
            # handler that left it before wait_closed() was destroyed
            # pending when the loop stopped under it
            if task is not None:
                self._conn_tasks.discard(task)

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
        try:
            prefix = await reader.readexactly(4)
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean EOF at a frame boundary
            raise NetworkProtocolError("connection closed mid-frame")
        length = protocol.parse_length(prefix)
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise NetworkProtocolError("connection closed mid-frame")
        return protocol.decode_payload(payload)

    @staticmethod
    async def _writer(
        outbox: "asyncio.Queue[Optional[tuple]]", writer: asyncio.StreamWriter
    ) -> None:
        while True:
            frames = await outbox.get()
            if frames is None:
                break
            try:
                writer.write(b"".join(map(protocol.pack_frame, frames)))
                await writer.drain()
            except (ConnectionError, OSError):
                break


def serve_tcp(
    host: str = "127.0.0.1",
    port: int = 0,
    server: Optional[Server] = None,
    page_buffer_frames: int = 256,
    detach_ttl_seconds: float = 30.0,
    **connect_kwargs: Any,
) -> NetworkServer:
    """Start serving CrowdDB over TCP; returns the running listener.

    Pass an existing :class:`Server` to front it, or ``connect()``
    kwargs to build a fresh one (then owned: closing the listener closes
    it).  ``port=0`` binds an ephemeral port — read ``.port``.
    """
    own = server is None
    if server is None:
        server = Server(**connect_kwargs)
    return NetworkServer(
        server,
        host=host,
        port=port,
        own_server=own,
        page_buffer_frames=page_buffer_frames,
        detach_ttl_seconds=detach_ttl_seconds,
    ).start()
