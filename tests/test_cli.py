"""Tests for the interactive CrowdSQL shell."""

import io
import os

import pytest

from repro import CNULL, connect
from repro.cli import Shell
from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn


@pytest.fixture
def shell(scripted_db):
    scripted_db.execute(
        "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
    )
    scripted_db.execute("INSERT INTO Talk (title) VALUES ('CrowdDB')")
    return Shell(scripted_db, stdout=io.StringIO())


def output_of(shell):
    return shell.stdout.getvalue()


class TestSQL:
    def test_select_prints_table(self, shell):
        shell.handle_line("SELECT title FROM Talk;")
        assert "CrowdDB" in output_of(shell)

    def test_crowd_query_works(self, shell):
        shell.handle_line("SELECT abstract FROM Talk WHERE title = 'CrowdDB';")
        assert "crowdsourcing" in output_of(shell).lower()

    def test_dml_prints_rowcount(self, shell):
        shell.handle_line("INSERT INTO Talk (title) VALUES ('X');")
        assert "1 row(s) affected" in output_of(shell)

    def test_error_is_reported_not_raised(self, shell):
        shell.handle_line("SELECT * FROM missing;")
        assert "error:" in output_of(shell)

    def test_parse_error_reported(self, shell):
        shell.handle_line("SELEC title;")
        assert "error:" in output_of(shell)

    def test_empty_line_ignored(self, shell):
        shell.handle_line("   ")
        assert output_of(shell) == ""


class TestDotCommands:
    def test_tables(self, shell):
        shell.handle_line(".tables")
        assert "Talk" in output_of(shell)
        assert "1 row(s)" in output_of(shell)

    def test_schema(self, shell):
        shell.handle_line(".schema Talk")
        assert "abstract CROWD STRING" in output_of(shell)

    def test_explain(self, shell):
        shell.handle_line(".explain SELECT abstract FROM Talk WHERE title = 'x'")
        assert "CrowdProbe" in output_of(shell)

    def test_platform_show_and_switch(self, shell):
        shell.handle_line(".platform")
        assert "scripted" in output_of(shell)
        shell.handle_line(".platform scripted")
        assert "default platform: scripted" in output_of(shell)

    def test_platform_unknown(self, shell):
        shell.handle_line(".platform mars")
        assert "error:" in output_of(shell)

    def test_stats(self, shell):
        shell.handle_line("SELECT abstract FROM Talk WHERE title = 'CrowdDB';")
        shell.handle_line(".stats")
        assert "hits_posted" in output_of(shell)

    def test_templates_and_form(self, shell):
        shell.handle_line(".templates")
        out = output_of(shell)
        assert "fill:Talk" in out
        template_id = next(
            line.strip() for line in out.splitlines() if "fill:Talk" in line
        )
        shell.handle_line(f".form {template_id}")
        assert "<input" in output_of(shell)

    def test_workers_empty(self, shell):
        shell.handle_line(".workers")
        assert "no workers yet" in output_of(shell)

    def test_help(self, shell):
        shell.handle_line(".help")
        assert ".tables" in output_of(shell)

    def test_unknown_command(self, shell):
        shell.handle_line(".frobnicate")
        assert "unknown command" in output_of(shell)

    def test_quit(self, shell):
        shell.handle_line(".quit")
        assert not shell.running

    def test_load_and_save(self, shell, tmp_path):
        csv_path = tmp_path / "talks.csv"
        csv_path.write_text("title\nImported\n")
        shell.handle_line(f".load Talk {csv_path}")
        assert "loaded 1 row(s)" in output_of(shell)
        image = tmp_path / "image"
        shell.handle_line(f".save {image}")
        assert (image / "checkpoint.json").exists()

        fresh = Shell(connect(with_crowd=False), stdout=io.StringIO())
        fresh.handle_line(f".open {image}")
        fresh.handle_line("SELECT title FROM Talk;")
        assert "Imported" in output_of(fresh)
        fresh.close()

    def test_usage_messages(self, shell):
        for cmd in (".schema", ".explain", ".form", ".load", ".save", ".open"):
            shell.handle_line(cmd)
        assert output_of(shell).count("usage:") == 6


def scripted_shell(oracle, database=None):
    """A shell over the scripted crowd, in memory or on ``database``."""
    platform = ScriptedPlatform(oracle_answer_fn(oracle))
    return Shell(
        connect(
            oracle=oracle, platforms=(platform,), default_platform="scripted",
            path=database,
        ),
        stdout=io.StringIO(),
    )


class TestDatabaseImage:
    """``.save DIR`` writes the checkpoint ``--db DIR`` opens, and ``.open
    DIR`` opens it: a reopened database buys none of its crowd answers
    again, and keeps its indexes and rowids."""

    QUERIES = (
        "SELECT title, abstract FROM Talk",
        "SELECT name, region FROM Company WHERE CROWDEQUAL(name, 'IBM')",
        "SELECT title FROM Talk "
        "ORDER BY CROWDORDER(title, 'Which talk did you like better')",
    )

    def test_reopened_image_buys_no_crowd_answer_again(
        self, shell, demo_oracle, tmp_path
    ):
        db = shell.connection
        for sql in (
            "INSERT INTO Talk (title) VALUES ('Gone'), ('Qurk'), ('PIQL')",
            "DELETE FROM Talk WHERE title = 'Gone'",
            "CREATE TABLE Company (name STRING PRIMARY KEY, region STRING)",
            "INSERT INTO Company VALUES ('I.B.M.', 'us'), ('SAP', 'eu'), "
            "('IBM', 'us')",
            "CREATE INDEX c_name ON Company (region)",
        ):
            db.execute(sql)
        answers = [db.query(sql) for sql in self.QUERIES]
        assert db.crowd_stats["hits_posted"] > 0
        shell.handle_line(f".save {tmp_path / 'image'}")

        fresh = scripted_shell(demo_oracle)
        fresh.handle_line(f".open {tmp_path / 'image'}")
        reopened = fresh.connection
        assert reopened is not db
        assert [reopened.query(sql) for sql in self.QUERIES] == answers
        assert reopened.crowd_stats["hits_posted"] == 0
        assert "c_name" in reopened.engine.table("Company").indexes
        for table in ("Talk", "Company"):
            assert (
                reopened.engine.table(table)._rows
                == db.engine.table(table)._rows
            )
        fresh.close()

    def test_image_keeps_schemas_and_markers(self, tmp_path):
        shell = Shell(connect(with_crowd=False), stdout=io.StringIO())
        for sql in (
            "CREATE TABLE Talk (title STRING PRIMARY KEY, "
            "abstract CROWD STRING, nb_attendees CROWD INTEGER);",
            "CREATE CROWD TABLE n (name STRING PRIMARY KEY, title STRING, "
            "FOREIGN KEY (title) REF Talk(title));",
            "INSERT INTO Talk VALUES ('A', 'abs', CNULL);",
            "INSERT INTO n VALUES ('Mike', 'A');",
            f".save {tmp_path / 'image'}",
            f".open {tmp_path / 'image'}",
        ):
            shell.handle_line(sql)
        reopened = shell.connection
        assert reopened.storage is not None
        assert reopened.query("SELECT * FROM Talk") == [("A", "abs", CNULL)]
        talk = reopened.catalog.table("Talk")
        assert [c.crowd for c in talk.columns] == [False, True, True]
        assert talk.primary_key == ("title",)
        assert reopened.catalog.table("n").crowd
        assert reopened.catalog.table("n").foreign_keys[0].ref_table == "Talk"
        shell.close()

    def test_open_moves_the_platforms_to_the_new_connection(self, tmp_path):
        shell = Shell(connect(seed=3), stdout=io.StringIO())
        old = shell.connection
        shell.handle_line(".platform mobile")
        shell.handle_line(f".open {tmp_path}")
        new = shell.connection
        assert new.platforms.names() == old.platforms.names()
        assert new.platforms.default == "mobile"
        for name in new.platforms.names():
            platform = new.platforms.get(name)
            assert platform is old.platforms.get(name)
            assert platform.on_assignment == [new.wrm.on_assignment]
            assert platform.wrm is new.wrm
        shell.close()

    def test_save_refuses_a_directory_holding_a_database(self, shell, tmp_path):
        for name in ("wal.jsonl", "checkpoint.json"):
            directory = tmp_path / name.split(".")[0]
            directory.mkdir()
            (directory / name).write_text("kept")
            shell.handle_line(f".save {directory}")
            assert f"already holds a database ({name})" in output_of(shell)
            assert os.listdir(directory) == [name]
            assert (directory / name).read_text() == "kept"

    def test_open_of_a_foreign_directory_keeps_the_connection(
        self, shell, tmp_path
    ):
        (tmp_path / "checkpoint.json").write_text('{"format": 2}')
        db = shell.connection
        shell.handle_line(f".open {tmp_path}")
        assert "error:" in output_of(shell)
        assert "format 2" in output_of(shell)
        assert shell.connection is db
        shell.handle_line(f".open {tmp_path / 'db'}")
        shell.handle_line(f".open {tmp_path / 'db'}")
        assert f"{tmp_path / 'db'} is already open" in output_of(shell)
        shell.close()


class TestRunLoop:
    def test_multiline_statement(self, shell):
        stdin = io.StringIO("SELECT title\nFROM Talk;\n.quit\n")
        shell.run(stdin)
        assert "CrowdDB" in output_of(shell)

    def test_script_execution(self, shell, tmp_path):
        script = tmp_path / "script.sql"
        script.write_text(
            "INSERT INTO Talk (title) VALUES ('S1');\n"
            "SELECT COUNT(*) FROM Talk;\n"
        )
        shell.run_script(str(script))
        assert "2" in output_of(shell)


class TestServeShell:
    @pytest.fixture
    def serve_shell(self, demo_oracle):
        from repro.api import serve
        from repro.cli import ServeShell

        server = serve(oracle=demo_oracle, seed=17)
        shell = ServeShell(server=server, sessions=2, stdout=io.StringIO())
        shell.connection.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        shell.connection.execute("INSERT INTO Talk (title) VALUES ('CrowdDB')")
        return shell

    def test_sql_is_queued_not_executed(self, serve_shell):
        serve_shell.handle_line("SELECT title FROM Talk;")
        out = output_of(serve_shell)
        assert "queued on session 1" in out
        assert "CrowdDB" not in out

    def test_run_executes_all_sessions(self, serve_shell):
        serve_shell.handle_line("SELECT title FROM Talk;")
        serve_shell.handle_line(".session 2")
        serve_shell.handle_line("SELECT COUNT(*) FROM Talk;")
        serve_shell.handle_line(".run")
        out = output_of(serve_shell)
        assert "-- session 1 --" in out and "-- session 2 --" in out
        assert "CrowdDB" in out

    def test_session_commands(self, serve_shell):
        serve_shell.handle_line(".sessions")
        serve_shell.handle_line(".newsession")
        serve_shell.handle_line(".session 99")
        out = output_of(serve_shell)
        assert "session 1" in out and "session 2" in out
        assert "session 3 opened" in out
        assert "no session 99" in out

    def test_server_stats_command(self, serve_shell):
        serve_shell.handle_line(".server")
        out = output_of(serve_shell)
        assert "task_pool" in out and "scheduler" in out

    def test_errors_surface_per_session(self, serve_shell):
        serve_shell.handle_line("SELECT nope FROM Missing;")
        serve_shell.handle_line(".run")
        assert "error:" in output_of(serve_shell)

    def test_open_is_refused(self, serve_shell, tmp_path):
        serve_shell.handle_line(f".open {tmp_path}")
        assert "start with --serve --db DIR" in output_of(serve_shell)
        assert os.listdir(tmp_path) == []

    def test_run_script_goes_through_sessions(self, serve_shell, tmp_path):
        script = tmp_path / "script.sql"
        script.write_text("SELECT COUNT(*) FROM Talk;\n")
        serve_shell.run_script(str(script))
        out = output_of(serve_shell)
        assert "-- session 1 --" in out
        assert serve_shell.server.sessions[1].statements_run == 1


class TestRemoteShell:
    def test_sql_travels_and_engine_commands_are_refused(self, tmp_path):
        from repro.cli import RemoteShell
        from repro.net import connect_tcp, serve_tcp

        net = serve_tcp(with_crowd=False)
        shell = RemoteShell(
            connect_tcp(net.host, net.port), stdout=io.StringIO()
        )
        try:
            script = tmp_path / "script.sql"
            script.write_text(
                "CREATE TABLE t (a INTEGER);\n"
                "INSERT INTO t VALUES (41);\nSELECT a FROM t;\n"
            )
            shell.run_script(str(script))
            shell.run(io.StringIO(
                "INSERT INTO t\nVALUES (2);\nSELECT nope FROM t;\n"
                ".tables\n.help\n.quit\nSELECT a + 1 FROM t;\n"
            ))
        finally:
            shell.close()
            net.close()
        out = output_of(shell)
        assert f"remote shell (session {shell.client.session_id})" in out
        assert "41" in out  # the script's last result is printed
        assert "ok (1 row(s) affected)" in out
        assert "error:" in out and "nope" in out
        assert "'.tables' is not available over --connect" in out
        assert "engine dot-commands run server-side" in out
        assert not shell.running and "42" not in out  # .quit ended the loop


class TestFlags:
    def test_crowd_flags_build_one_crowd_config(self, monkeypatch, tmp_path):
        """The quality-control flags are fields of one ``CrowdConfig``;
        only ``--db`` and ``--wal-sync`` are plain ``connect()`` keywords."""
        import repro.cli as cli
        from repro import CrowdConfig

        captured = {}

        def recording_connect(**kwargs):
            captured.update(kwargs)
            return connect(with_crowd=False)

        monkeypatch.setattr(cli, "connect", recording_connect)
        monkeypatch.setattr(cli, "install_signal_handlers", lambda shell: None)
        script = tmp_path / "script.sql"
        script.write_text("SELECT 1;\n")
        assert cli.main([
            "--target-confidence", "0.85", "--min-replication", "3",
            "--max-replication", "5", "--gold-rate", "0.1",
            "--wal-sync", "off", str(script),
        ]) == 0
        assert captured == {
            "wal_sync": "off",
            "crowd_config": CrowdConfig(
                target_confidence=0.85,
                min_replication=3,
                max_replication=5,
                gold_rate=0.1,
            ),
        }
