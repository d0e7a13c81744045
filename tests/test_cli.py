"""Tests for the interactive CrowdSQL shell."""

import io

import pytest

from repro import connect
from repro.cli import Shell


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
        snap = tmp_path / "snap.json"
        shell.handle_line(f".save {snap}")
        assert snap.exists()

        fresh = Shell(connect(with_crowd=False), stdout=io.StringIO())
        fresh.handle_line(f".open {snap}")
        assert "Talk" in output_of(fresh)

    def test_usage_messages(self, shell):
        for cmd in (".schema", ".explain", ".form", ".load", ".save", ".open"):
            shell.handle_line(cmd)
        assert output_of(shell).count("usage:") == 6


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
