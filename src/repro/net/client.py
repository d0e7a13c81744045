"""Blocking TCP client for the CrowdDB wire protocol.

Mirrors the in-process API closely enough for the CLI shell to swap a
:class:`NetClient` in for a local connection: ``execute(sql)`` returns a
:class:`~repro.engine.executor.ResultSet` with decoded rows (NULL/CNULL
intact), and server-side failures re-raise as
:class:`~repro.errors.RemoteError` carrying the server's exception type
and traceback.

``cancel()`` is safe from another thread while ``execute`` blocks — the
socket write is serialized by a lock, and the executing thread keeps
reading until the server acknowledges the statement with ``done`` or an
``error`` (a cancelled statement surfaces as ``RemoteError`` with
``remote_type == "StatementCancelled"``).

Failure containment: when the TCP connection dies mid-statement the
client raises :class:`~repro.errors.ConnectionLostError` instead of a
bare socket error.  The exception carries everything needed to finish
the statement on a fresh connection — the server-issued session token,
the statement id and SQL, the rows already received, and the highest
frame sequence processed::

    try:
        result = client.execute(sql)
    except ConnectionLostError as lost:
        client = connect_tcp(host, port, resume=lost.token, have=lost.have)
        result = client.resume_execute(lost)

The server detached the session on the drop (the crowd query kept
running), replays only unseen frames, and dedups the resubmitted
statement id — so the retry costs zero extra crowd assignments and
delivers every result row exactly once.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Optional

from repro.engine.executor import ResultSet
from repro.errors import (
    ConnectionLostError,
    NetworkProtocolError,
    RemoteError,
)
from repro.net import protocol

#: send an ack every this many result pages (and always on done), so the
#: server can trim its exactly-once replay buffer without per-frame chat
_ACK_EVERY_PAGES = 16


class _StatementState:
    """Receive-side progress of one statement, resumable across sockets."""

    __slots__ = (
        "statement_id", "sql", "deadline_ms", "budget_cents",
        "columns", "rows", "pages",
    )

    def __init__(
        self,
        statement_id: int,
        sql: str,
        deadline_ms: Optional[int] = None,
        budget_cents: Optional[int] = None,
    ) -> None:
        self.statement_id = statement_id
        self.sql = sql
        self.deadline_ms = deadline_ms
        self.budget_cents = budget_cents
        self.columns: list[str] = []
        self.rows: list[tuple] = []
        self.pages: set[int] = set()  # page seqs received (dedup)


class NetClient:
    """One TCP connection = one remote CrowdDB session."""

    def __init__(
        self,
        sock: socket.socket,
        session_id: int,
        token: str = "",
        deadline_ms: Optional[int] = None,
        budget_cents: Optional[int] = None,
    ) -> None:
        self._sock = sock
        self.session_id = session_id
        #: server-issued resume token; pass to ``connect_tcp(resume=...)``
        #: after a :class:`ConnectionLostError` to reattach the session
        self.token = token
        #: highest frame sequence fully processed (resume watermark)
        self.have = -1
        # session-level default caps, applied when execute() gets none
        self.default_deadline_ms = deadline_ms
        self.default_budget_cents = budget_cents
        self._send_lock = threading.Lock()
        self._next_statement_id = 1
        self._current_statement: Optional[int] = None
        self._closed = False

    # -- statements ----------------------------------------------------------

    def execute(
        self,
        sql: str,
        deadline_ms: Optional[int] = None,
        budget_cents: Optional[int] = None,
    ) -> ResultSet:
        """Run one statement (or ;-script); blocks until the reply.

        ``deadline_ms``/``budget_cents`` cap the statement server-side;
        a capped statement returns ``status="partial"`` with the rows
        settled so far rather than raising."""
        if self._closed:
            raise NetworkProtocolError("client connection is closed")
        statement_id = self._next_statement_id
        self._next_statement_id += 1
        state = _StatementState(
            statement_id,
            sql,
            deadline_ms if deadline_ms is not None else self.default_deadline_ms,
            budget_cents
            if budget_cents is not None
            else self.default_budget_cents,
        )
        return self._submit(state)

    def resume_execute(self, lost: ConnectionLostError) -> ResultSet:
        """Finish the statement a previous connection lost.

        Call on a client opened with ``connect_tcp(resume=lost.token,
        have=lost.have)``.  The statement frame is resent with its
        original id — the server's idempotent dedup makes that a no-op
        if the statement is still running or already finished — and the
        receive loop continues from the rows the old connection already
        delivered, skipping any page it has seen."""
        if self._closed:
            raise NetworkProtocolError("client connection is closed")
        state = _StatementState(
            lost.statement_id, lost.sql, lost.deadline_ms, lost.budget_cents
        )
        state.columns = list(lost.columns)
        state.rows = list(lost.rows)
        state.pages = set(lost.pages_seen)
        self._next_statement_id = max(
            self._next_statement_id, lost.statement_id + 1
        )
        return self._submit(state)

    def _submit(self, state: _StatementState) -> ResultSet:
        """Send ``state``'s statement frame and read its reply.  The id is
        published before the frame leaves, so a :meth:`cancel` from
        another thread that sees the statement running server-side
        always finds it."""
        self._current_statement = state.statement_id
        try:
            try:
                self._send(
                    protocol.statement_frame(
                        state.statement_id,
                        state.sql,
                        deadline_ms=state.deadline_ms,
                        budget_cents=state.budget_cents,
                    )
                )
            except socket.timeout:
                raise
            except (ConnectionError, OSError) as error:
                raise self._lost(state, error) from error
            return self._await_result(state)
        finally:
            self._current_statement = None

    def _await_result(self, state: _StatementState) -> ResultSet:
        while True:
            try:
                frame = protocol.read_frame_blocking(self._sock)
            except socket.timeout:
                raise  # a slow server is not a dead connection
            except (ConnectionError, OSError) as error:
                raise self._lost(state, error) from error
            except NetworkProtocolError as error:
                # torn frame / length desync: this byte stream is
                # unusable, but the session is resumable elsewhere
                raise self._lost(state, error) from error
            if frame is None:
                raise self._lost(state, None)
            outcome = self._consume(state, frame)
            if outcome is not None:
                return outcome

    def _consume(
        self, state: _StatementState, frame: dict
    ) -> Optional[ResultSet]:
        """Process one frame; a ResultSet ends the statement."""
        fseq = frame.get("fseq")
        if fseq is not None:
            if fseq <= self.have:
                return None  # replayed frame we already processed
            self.have = fseq
        kind = frame.get("type")
        if kind == "result_page":
            if frame.get("id") != state.statement_id:
                return None  # stale page from a cancelled statement
            seq = int(frame.get("seq", -1))
            if seq in state.pages:
                return None  # duplicate page (reconnect overlap)
            state.pages.add(seq)
            state.columns = list(frame.get("columns", state.columns))
            # values were untagged while the payload was parsed
            state.rows.extend(map(tuple, frame["rows"]))
            if len(state.pages) % _ACK_EVERY_PAGES == 0:
                self._ack()
            return None
        if kind == "done":
            if frame.get("id") != state.statement_id:
                return None
            self._ack()
            return ResultSet(
                columns=list(frame.get("columns", state.columns)),
                rows=state.rows,
                rowcount=int(frame.get("rowcount", len(state.rows))),
                statement=str(frame.get("statement", "")),
                crowd_stats=dict(frame.get("stats", {})),
                status=str(frame.get("status", "complete")),
                partial_reason=frame.get("reason"),
            )
        if kind == "error":
            if frame.get("id") not in (state.statement_id, None):
                return None
            self._ack()
            raise RemoteError(
                frame.get("message", "remote statement failed"),
                remote_type=frame.get("error_type", ""),
                remote_traceback=frame.get("traceback", ""),
            )
        if kind == "goodbye":
            raise NetworkProtocolError("server said goodbye mid-statement")
        raise NetworkProtocolError(
            f"unexpected frame from server: {kind!r}"
        )

    def cancel(self) -> None:
        """Ask the server to abort the statement currently executing.
        Callable from another thread while :meth:`execute` blocks."""
        statement_id = self._current_statement
        if statement_id is None or self._closed:
            return
        self._send(protocol.cancel_frame(statement_id))

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._send(
                {"type": "goodbye"}, ignore_errors=True
            )
        finally:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------

    def _lost(
        self, state: _StatementState, cause: Optional[BaseException]
    ) -> ConnectionLostError:
        """Build the typed, resumable connection-loss error.  The dead
        socket is closed; the session lives on server-side."""
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass
        detail = f": {cause}" if cause is not None else ""
        return ConnectionLostError(
            f"connection lost during statement {state.statement_id}"
            f"{detail}; resume with token {self.token!r}",
            token=self.token,
            statement_id=state.statement_id,
            sql=state.sql,
            have=self.have,
            columns=state.columns,
            rows=state.rows,
            pages_seen=state.pages,
            deadline_ms=state.deadline_ms,
            budget_cents=state.budget_cents,
        )

    def _ack(self) -> None:
        """Tell the server every frame ≤ ``have`` arrived, so it can
        trim the replay buffer.  Best-effort: a send failure will
        surface as a connection loss on the next read anyway."""
        if self.have < 0:
            return
        self._send(protocol.ack_frame(self.have), ignore_errors=True)

    def _send(self, frame: dict, ignore_errors: bool = False) -> None:
        data = protocol.pack_frame(frame)
        with self._send_lock:
            try:
                self._sock.sendall(data)
            except OSError:
                if not ignore_errors:
                    raise


def connect_tcp(
    host: str,
    port: int,
    timeout: Optional[float] = 30.0,
    resume: Optional[str] = None,
    have: int = -1,
    deadline_ms: Optional[int] = None,
    budget_cents: Optional[int] = None,
) -> NetClient:
    """Open a session on a CrowdDB network server.

    Performs the hello/welcome handshake; the returned client is ready
    for :meth:`NetClient.execute`.  ``timeout`` guards the handshake and
    every subsequent read (None = block forever).

    ``resume``/``have`` reattach a detached session after a
    :class:`~repro.errors.ConnectionLostError` (pass ``lost.token`` and
    ``lost.have``); the server replays only the frames after ``have``.
    ``deadline_ms``/``budget_cents`` become the session's default
    statement caps.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        # every reply is answered with an ``ack`` frame and then the next
        # ``statement``: two small writes before a read.  Under Nagle the
        # second waits for the server's delayed ACK (~40 ms a statement)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(
            protocol.pack_frame(
                protocol.hello_frame(resume=resume, have=have)
            )
        )
        frame = protocol.read_frame_blocking(sock)
        if frame is None:
            raise NetworkProtocolError("server closed during handshake")
        if frame.get("type") == "error":
            raise RemoteError(
                frame.get("message", "handshake rejected"),
                remote_type=frame.get("error_type", ""),
                remote_traceback=frame.get("traceback", ""),
            )
        if frame.get("type") != "welcome":
            raise NetworkProtocolError(
                f"expected welcome, got {frame.get('type')!r}"
            )
        client = NetClient(
            sock,
            int(frame.get("session", 0)),
            token=str(frame.get("token", "")),
            deadline_ms=deadline_ms,
            budget_cents=budget_cents,
        )
        client.have = have
        return client
    except BaseException:
        sock.close()
        raise
