"""Interactive CrowdSQL shell.

A small REPL over :class:`repro.api.Connection`, in the spirit of the
demo booth: type CrowdSQL, watch tasks go to the (simulated) crowd, and
inspect plans, templates, and worker relationships with dot-commands.

Usage::

    python -m repro.cli [script.sql ...]
    python -m repro.cli --db DIR [--wal-sync MODE] [script.sql ...]
    python -m repro.cli --serve [--sessions N]
    python -m repro.cli --listen HOST:PORT
    python -m repro.cli --connect HOST:PORT [script.sql ...]

``--db DIR`` opens a durable instance: state (including paid crowd
answers) is recovered from ``DIR`` on start and every mutation is
write-ahead logged; SIGINT/SIGTERM and normal exit flush the WAL and
write a final checkpoint.

``--listen HOST:PORT`` serves the engine over TCP (the wire protocol in
:mod:`repro.net.protocol`) until interrupted; ``--connect HOST:PORT``
opens a remote shell on such a server instead of an in-process engine.

Dot-commands:

    .tables              list tables
    .schema TABLE        show a table's schema
    .explain SQL         show the optimized plan + boundedness verdict
    .analyze [TABLE]     rebuild histogram/MCV statistics (all tables
                         when no name is given)
    .cache               plan-cache and parse-memo hit/miss counters
    .platform [NAME]     show or switch the default platform
    .stats               Task Manager counters
    .breaker             per-platform circuit breaker state + retry queue
    .metrics             Prometheus-style metrics exposition
    .trace [ARGS]        HIT lifecycle trace: .trace [N] tails the last N
                         events, .trace KIND [N] filters by event kind
                         (hit, vote, future, gold), .trace export FILE
                         writes JSONL, .trace clear empties the ring
    .slow [N]            last N slow-query log entries
    .workers [N]         top-N workers by approved assignments (WRM)
    .reputation [N]      top-N workers by estimated accuracy (+gold scores)
    .templates           generated UI template ids
    .form TEMPLATE_ID    print a template's HTML
    .load TABLE FILE     import a CSV file
    .save FILE           write a JSON snapshot
    .open FILE           load a JSON snapshot
    .checkpoint          write a durable checkpoint and truncate the WAL
    .quit                exit

Serve-mode (``--serve``) adds a REPL over concurrent sessions: SQL lines
are *queued* on the current session instead of executing immediately,
and ``.run`` drives all sessions together under the cooperative
scheduler (shared crowd-task pool, overlapping crowd waits):

    .newsession          open another session and switch to it
    .session [N]         show or switch the current session
    .sessions            list sessions, states, and queue depths
    .run                 run all queued statements concurrently
    .server              pool/scheduler/admission statistics
"""

from __future__ import annotations

import signal
import sys
import threading
from typing import Callable, Optional, TextIO

from repro.api import Connection, connect, serve
from repro.crowd.task_manager import CrowdConfig
from repro.errors import CrowdDBError
from repro.io_utils import dump_csv, load_csv, load_snapshot, save_snapshot


class Shell:
    """The REPL engine (I/O injected, so it is unit-testable)."""

    def __init__(
        self,
        connection: Optional[Connection] = None,
        stdout: TextIO = sys.stdout,
    ) -> None:
        self.connection = connection if connection is not None else connect()
        self.stdout = stdout
        self.running = True
        self._commands: dict[str, Callable[[str], None]] = {
            ".tables": self._cmd_tables,
            ".schema": self._cmd_schema,
            ".explain": self._cmd_explain,
            ".analyze": self._cmd_analyze,
            ".cache": self._cmd_cache,
            ".platform": self._cmd_platform,
            ".stats": self._cmd_stats,
            ".breaker": self._cmd_breaker,
            ".metrics": self._cmd_metrics,
            ".trace": self._cmd_trace,
            ".slow": self._cmd_slow,
            ".workers": self._cmd_workers,
            ".reputation": self._cmd_reputation,
            ".templates": self._cmd_templates,
            ".form": self._cmd_form,
            ".load": self._cmd_load,
            ".save": self._cmd_save,
            ".open": self._cmd_open,
            ".checkpoint": self._cmd_checkpoint,
            ".help": self._cmd_help,
            ".quit": self._cmd_quit,
            ".exit": self._cmd_quit,
        }

    # -- driving ------------------------------------------------------------

    def handle_line(self, line: str) -> None:
        """Process one input line (a dot-command or CrowdSQL)."""
        stripped = line.strip()
        if not stripped:
            return
        try:
            if stripped.startswith("."):
                self._dispatch_command(stripped)
            else:
                self._run_sql(stripped)
        except CrowdDBError as error:
            self._print(f"error: {error}")

    def run(self, stdin: TextIO = sys.stdin) -> None:
        """Interactive loop: statements may span lines until ``;``."""
        buffer: list[str] = []
        self._print(self._banner())
        for line in stdin:
            stripped = line.strip()
            if not buffer and stripped.startswith("."):
                self.handle_line(stripped)
            else:
                buffer.append(line)
                if stripped.endswith(";"):
                    self.handle_line(" ".join(buffer))
                    buffer = []
            if not self.running:
                return
        if buffer:
            self.handle_line(" ".join(buffer))

    def run_script(self, path: str) -> None:
        with open(path) as handle:
            source = handle.read()
        for result in self.connection.executescript(source):
            if result.columns:
                self._print(result.pretty())

    def _banner(self) -> str:
        return "CrowdDB shell — .help for commands, .quit to exit"

    # -- SQL ------------------------------------------------------------------

    def _run_sql(self, sql: str) -> None:
        result = self.connection.execute(sql)
        if result.columns:
            self._print(result.pretty())
        else:
            self._print(f"ok ({result.rowcount} row(s) affected)")

    # -- dot-commands ------------------------------------------------------------

    def _dispatch_command(self, line: str) -> None:
        name, _, argument = line.partition(" ")
        handler = self._commands.get(name.lower())
        if handler is None:
            self._print(f"unknown command {name!r} — try .help")
            return
        handler(argument.strip())

    def _cmd_tables(self, _argument: str) -> None:
        for name in self.connection.engine.table_names():
            schema = self.connection.catalog.table(name)
            kind = "CROWD TABLE" if schema.crowd else "TABLE"
            rows = self.connection.engine.table(name).statistics.row_count
            self._print(f"  {name}  ({kind}, {rows} row(s))")

    def _cmd_schema(self, argument: str) -> None:
        if not argument:
            self._print("usage: .schema TABLE")
            return
        self._print(str(self.connection.catalog.table(argument)))

    def _cmd_explain(self, argument: str) -> None:
        if not argument:
            self._print("usage: .explain SELECT ...")
            return
        self._print(self.connection.explain(argument.rstrip(";")))

    def _cmd_analyze(self, argument: str) -> None:
        result = self.connection.analyze(argument or None)
        self._print(result.pretty())

    def _cmd_cache(self, _argument: str) -> None:
        for layer, counters in self.connection.plan_cache_stats.items():
            self._print(
                f"  {layer:6s} hits={counters['hits']} "
                f"misses={counters['misses']}"
            )

    def _cmd_platform(self, argument: str) -> None:
        registry = self.connection.platforms
        if argument:
            self.connection.set_platform(argument)
            self._print(f"default platform: {registry.default}")
        else:
            current = registry.default if registry else "none"
            names = ", ".join(registry.names()) if registry else "none"
            self._print(f"default platform: {current}; available: {names}")

    def _cmd_stats(self, _argument: str) -> None:
        stats = self.connection.crowd_stats
        if not stats:
            self._print("no crowd attached")
            return
        for key, value in stats.items():
            self._print(f"  {key:22s} {value}")

    def _cmd_breaker(self, _argument: str) -> None:
        manager = self.connection.task_manager
        if manager is None:
            self._print("no crowd attached")
            return
        if not manager.breakers:
            self._print(
                "no circuit breakers yet (created on first platform call)"
            )
        for name in sorted(manager.breakers):
            breaker = manager.breakers[name]
            snapshot = breaker.snapshot()
            snapshot.pop("state", None)
            detail = " ".join(
                f"{key}={value}" for key, value in sorted(snapshot.items())
            )
            self._print(f"  {name:12s} {breaker.state:9s} {detail}")
        self._print(f"  retry queue depth: {len(manager.retry_queue)}")

    def _cmd_metrics(self, _argument: str) -> None:
        self._print(self.connection.metrics_text().rstrip("\n"))

    def _cmd_trace(self, argument: str) -> None:
        trace = self.connection.trace
        parts = argument.split()
        if parts and parts[0] == "clear":
            trace.clear()
            self._print("trace cleared")
            return
        if parts and parts[0] == "export":
            if len(parts) != 2:
                self._print("usage: .trace export FILE")
                return
            count = trace.export(parts[1])
            self._print(f"{count} event(s) written to {parts[1]}")
            return
        kind: Optional[str] = None
        limit = 10
        if parts:
            if parts[0].isdigit():
                limit = int(parts[0])
            else:
                kind = parts[0]
                if len(parts) > 1 and parts[1].isdigit():
                    limit = int(parts[1])
        events = trace.events(kind=kind, limit=limit)
        if not events:
            self._print("no trace events" + (f" of kind {kind!r}" if kind else ""))
            return
        summary = ", ".join(
            f"{name}={count}" for name, count in sorted(trace.counts().items())
        )
        self._print(f"-- {trace.emitted} emitted ({summary}); last {len(events)}:")
        for event in events:
            self._print("  " + event.to_json())

    def _cmd_slow(self, argument: str) -> None:
        log = self.connection.slow_log
        if not log.enabled:
            self._print(
                "slow-query log disabled — connect(slow_query_seconds=...)"
            )
            return
        limit = int(argument) if argument else 10
        entries = log.entries(limit)
        if not entries:
            self._print("no slow queries recorded")
            return
        for entry in entries:
            self._print(
                f"  {entry.seconds * 1000.0:9.2f} ms  {entry.rows:5d} row(s)  "
                f"{entry.cost_cents:4d}c  {entry.sql}"
            )

    def _cmd_workers(self, argument: str) -> None:
        count = int(argument) if argument else 5
        top = self.connection.wrm.top_workers(count)
        if not top:
            self._print("no workers yet")
        for account in top:
            self._print(
                f"  {account.worker_id:12s} approved={account.approved:4d} "
                f"earned={account.earned_cents}c"
            )

    def _cmd_reputation(self, argument: str) -> None:
        count = int(argument) if argument else 5
        store = self.connection.reputation
        if not store.known_workers():
            self._print("no reputation observations yet")
            return
        for snap in store.top_workers(count):
            gold = (
                f" gold={snap.gold_correct}/{snap.gold_seen}"
                if snap.gold_seen else ""
            )
            self._print(
                f"  {snap.worker_id:12s} accuracy={snap.accuracy:.3f} "
                f"observations={snap.observations:.1f}{gold}"
            )

    def _cmd_templates(self, _argument: str) -> None:
        templates = self.connection.ui_manager.all_templates()
        if not templates:
            self._print("no templates generated yet")
        for template in templates:
            flag = " (edited)" if template.edited else ""
            self._print(f"  {template.template_id}{flag}")

    def _cmd_form(self, argument: str) -> None:
        if not argument:
            self._print("usage: .form TEMPLATE_ID")
            return
        template = self.connection.ui_manager.get(argument)
        self._print(template.instantiate({}))

    def _cmd_load(self, argument: str) -> None:
        parts = argument.split()
        if len(parts) != 2:
            self._print("usage: .load TABLE FILE")
            return
        count = load_csv(self.connection, parts[0], parts[1])
        self._print(f"loaded {count} row(s) into {parts[0]}")

    def _cmd_save(self, argument: str) -> None:
        if not argument:
            self._print("usage: .save FILE")
            return
        save_snapshot(self.connection, argument)
        self._print(f"snapshot written to {argument}")

    def _cmd_open(self, argument: str) -> None:
        if not argument:
            self._print("usage: .open FILE")
            return
        created = load_snapshot(self.connection, argument)
        self._print(f"loaded tables: {', '.join(created)}")

    def _cmd_checkpoint(self, _argument: str) -> None:
        storage = self.connection.storage
        if storage is None:
            self._print("not a durable instance — start with --db DIR")
            return
        self.connection.checkpoint()
        stats = storage.stats_snapshot()
        self._print(
            f"checkpoint written to {storage.directory} "
            f"({stats['checkpoints_written']} total)"
        )

    def _cmd_help(self, _argument: str) -> None:
        self._print(__doc__.split("Dot-commands:")[1].strip())

    def _cmd_quit(self, _argument: str) -> None:
        self.running = False

    def close(self) -> None:
        """Flush durable state (WAL + final checkpoint) on exit."""
        self.connection.close()

    def _print(self, text: str) -> None:
        print(text, file=self.stdout)


class ServeShell(Shell):
    """REPL over a concurrent query server.

    SQL is queued on the *current* session; ``.run`` hands every session
    to the cooperative scheduler so their crowd waits overlap and
    identical pending tasks share HITs through the task pool.
    """

    def __init__(self, server=None, sessions: int = 1,
                 stdout: TextIO = sys.stdout) -> None:
        self.server = server if server is not None else serve()
        super().__init__(connection=self.server.connection, stdout=stdout)
        self._commands.update({
            ".newsession": self._cmd_newsession,
            ".session": self._cmd_session,
            ".sessions": self._cmd_sessions,
            ".run": self._cmd_run,
            ".server": self._cmd_server,
        })
        for _ in range(max(1, sessions)):
            self.server.open_session()
        self.current = min(self.server.sessions)
        self._printed: dict[int, int] = {}

    # SQL lines queue on the current session instead of running inline
    def _run_sql(self, sql: str) -> None:
        session = self.server.sessions[self.current]
        session.submit(sql)
        self._print(
            f"queued on session {self.current} "
            f"({session.queued} pending) — .run to execute"
        )

    def run_script(self, path: str) -> None:
        """Scripts queue on the current session and run under the
        scheduler, like typed SQL (one session per invocation)."""
        with open(path) as handle:
            self.server.sessions[self.current].submit(handle.read())
        self._cmd_run("")

    def _cmd_newsession(self, _argument: str) -> None:
        session = self.server.open_session()
        self.current = session.session_id
        self._print(f"session {session.session_id} opened (now current)")

    def _cmd_session(self, argument: str) -> None:
        if not argument:
            self._print(f"current session: {self.current}")
            return
        try:
            number = int(argument)
        except ValueError:
            self._print("usage: .session [N]")
            return
        if number not in self.server.sessions:
            self._print(f"no session {number} — .sessions to list")
            return
        self.current = number
        self._print(f"current session: {number}")

    def _cmd_sessions(self, _argument: str) -> None:
        for session_id, session in sorted(self.server.sessions.items()):
            marker = "*" if session_id == self.current else " "
            self._print(
                f" {marker} session {session_id}: {session.state.value.lower()}, "
                f"{session.queued} queued, {len(session.results)} result(s)"
            )

    def _cmd_run(self, _argument: str) -> None:
        self.server.run()
        for session_id, session in sorted(self.server.sessions.items()):
            start = self._printed.get(session_id, 0)
            fresh = session.results[start:]
            self._printed[session_id] = len(session.results)
            for result in fresh:
                self._print(f"-- session {session_id} --")
                if isinstance(result, Exception):
                    self._print(f"error: {result}")
                else:
                    self._print(result.pretty())

    def _cmd_server(self, _argument: str) -> None:
        for subsystem, counters in self.server.stats().items():
            if isinstance(counters, dict):
                self._print(f"  {subsystem}:")
                for key, value in counters.items():
                    self._print(f"    {key:22s} {value}")
            else:
                self._print(f"  {subsystem:22s} {counters}")

    def close(self) -> None:
        """Drain sessions, then flush durable state through the server."""
        self.server.close()


class RemoteShell(Shell):
    """REPL over a network server (``--connect HOST:PORT``).

    Statements travel the wire protocol and run in a server-side
    session; the engine-introspection dot-commands stay server-side,
    so only SQL, ``.help``, and ``.quit`` are available here.
    """

    def __init__(self, client, stdout: TextIO = sys.stdout) -> None:
        # the wire client stands in for the connection: the loop, SQL
        # and printing need only its .execute/.close
        super().__init__(connection=client, stdout=stdout)
        self.client = client
        self._commands = {
            ".help": self._cmd_help,
            ".quit": self._cmd_quit,
            ".exit": self._cmd_quit,
        }

    def _banner(self) -> str:
        return (
            f"CrowdDB remote shell (session {self.client.session_id}) — "
            ".quit to exit"
        )

    def _dispatch_command(self, line: str) -> None:
        name = line.split()[0]
        if name.lower() in self._commands:
            super()._dispatch_command(line)
        else:
            self._print(
                f"command {name!r} is not available over "
                "--connect — only SQL, .help, and .quit"
            )

    def _cmd_help(self, _argument: str) -> None:
        self._print(
            "remote shell: CrowdSQL statements end with ';' — "
            ".quit to exit (engine dot-commands run server-side)"
        )

    def run_script(self, path: str) -> None:
        """A script is one wire statement; its last result comes back."""
        with open(path) as handle:
            result = self.client.execute(handle.read())
        if result.columns:
            self._print(result.pretty())


#: ``FLAG VALUE`` pairs of the adaptive quality-control knobs: fields of
#: the one :class:`CrowdConfig` handed to :func:`repro.connect` /
#: :func:`repro.serve` / ``serve_tcp``.
_CROWD_FLAGS = {
    "--target-confidence": ("target_confidence", float),
    "--min-replication": ("min_replication", int),
    "--max-replication": ("max_replication", int),
    "--gold-rate": ("gold_rate", float),
}

#: ``FLAG VALUE`` pairs forwarded as :func:`repro.connect` keywords:
#: ``--db DIR`` (open or recover a durable instance rooted at DIR) with
#: its fsync policy.
_CONNECT_FLAGS = {
    "--db": ("path", str),
    "--wal-sync": ("wal_sync", str),
}


def _parse_hostport(argument: str, flag: str) -> tuple[str, int]:
    host, _, port = argument.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"usage: {flag} HOST:PORT")
    return host, int(port)


def _pop_flag(argv: list[str], flag: str, cast) -> Optional[object]:
    """Remove ``flag VALUE`` from argv; returns the cast value."""
    if flag not in argv:
        return None
    index = argv.index(flag)
    try:
        value = cast(argv[index + 1])
    except (IndexError, ValueError):
        raise SystemExit(f"usage: {flag} <{cast.__name__}>")
    del argv[index : index + 2]
    return value


def _pop_flags(argv: list[str], flags: dict) -> dict[str, object]:
    """Remove every given ``flag VALUE`` from argv; keyword -> value."""
    values = {}
    for flag, (keyword, cast) in flags.items():
        value = _pop_flag(argv, flag, cast)
        if value is not None:
            values[keyword] = value
    return values


def shutdown_handler(shell: Shell, signum: int, _frame: object = None) -> None:
    """SIGINT/SIGTERM handler: drain + flush durably, then exit.

    Split out from :func:`install_signal_handlers` so tests can invoke
    the shutdown path without delivering a real signal.
    """
    shell.close()
    raise SystemExit(128 + signum)


def install_signal_handlers(shell: Shell) -> None:
    """Route SIGINT and SIGTERM through the graceful-shutdown path."""
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(
            sig, lambda signum, frame: shutdown_handler(shell, signum, frame)
        )


def _run_listener(address: str, connect_kwargs: dict) -> int:
    """``--listen``: serve the engine over TCP until interrupted."""
    from repro.net import serve_tcp

    host, port = _parse_hostport(address, "--listen")
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    network = serve_tcp(host=host, port=port, **connect_kwargs)
    try:
        print(
            f"CrowdDB listening on {network.host}:{network.port} — "
            "Ctrl-C to stop",
            file=sys.stderr,
        )
        stop.wait()
    finally:
        network.close()
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    connect_kwargs = _pop_flags(argv, _CONNECT_FLAGS)
    connect_kwargs["crowd_config"] = CrowdConfig(
        **_pop_flags(argv, _CROWD_FLAGS)
    )
    listen = _pop_flag(argv, "--listen", str)
    connect_to = _pop_flag(argv, "--connect", str)
    if listen is not None:
        return _run_listener(listen, connect_kwargs)
    if connect_to is not None:
        from repro.net import connect_tcp

        host, port = _parse_hostport(connect_to, "--connect")
        shell: Shell = RemoteShell(connect_tcp(host, port, timeout=None))
    elif "--serve" in argv:
        argv.remove("--serve")
        sessions = _pop_flag(argv, "--sessions", int) or 1
        shell = ServeShell(server=serve(**connect_kwargs), sessions=sessions)
    else:
        shell = Shell(connection=connect(**connect_kwargs))
    install_signal_handlers(shell)
    try:
        for path in argv:
            shell.run_script(path)
        if not argv:
            shell.run()
    finally:
        shell.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
