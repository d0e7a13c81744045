"""Tests for the public API surface (connect, Connection, scripts)."""

import pytest

from repro import CNULL, NULL, Connection, CrowdConfig, connect
from repro.crowd.scripted import ScriptedPlatform
from repro.errors import BudgetExceededError, ExecutionError, ParseError


class TestConnect:
    def test_crowdless_connection(self):
        db = connect(with_crowd=False)
        assert db.task_manager is None
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.query("SELECT a FROM t") == [(1,)]

    def test_default_platforms_registered(self, demo_oracle):
        db = connect(oracle=demo_oracle)
        assert set(db.platforms.names()) == {"amt", "mobile"}

    def test_custom_platform_list(self, demo_oracle):
        platform = ScriptedPlatform(lambda task, replica: None)
        db = connect(
            oracle=demo_oracle,
            platforms=(platform,),
            default_platform="scripted",
        )
        assert db.platforms.names() == ["scripted"]

    def test_crowd_config_applied(self, demo_oracle):
        config = CrowdConfig(replication=5, reward_cents=7, budget_cents=1)
        db = connect(oracle=demo_oracle, crowd_config=config)
        assert db.task_manager.config.replication == 5
        db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        db.execute("INSERT INTO Talk (title) VALUES ('CrowdDB')")
        with pytest.raises(BudgetExceededError):
            db.execute("SELECT abstract FROM Talk WHERE title = 'CrowdDB'")

    def test_context_manager(self):
        with connect(with_crowd=False) as db:
            assert isinstance(db, Connection)

    def test_crowdless_query_needing_crowd_fails_cleanly(self):
        db = connect(with_crowd=False)
        db.execute("CREATE TABLE c (name STRING PRIMARY KEY)")
        db.execute("INSERT INTO c VALUES ('IBM'), ('I.B.M.')")
        with pytest.raises(ExecutionError, match="CROWDEQUAL"):
            db.query("SELECT name FROM c WHERE CROWDEQUAL(name, 'Big Blue')")


class TestResultSetPretty:
    def test_dml_renders_affected_count(self, plain_db):
        plain_db.execute("CREATE TABLE t (a INT)")
        result = plain_db.execute("INSERT INTO t VALUES (1), (2)")
        assert result.pretty() == "(2 row(s) affected)"

    def test_zero_column_zero_row_result(self):
        from repro.engine.executor import ResultSet

        assert ResultSet().pretty() == "(0 row(s) affected)"

    def test_zero_column_result_with_rows_counts_rows(self):
        from repro.engine.executor import ResultSet

        result = ResultSet(columns=[], rows=[(), ()], rowcount=0)
        assert result.pretty() == "(2 row(s))"

    def test_empty_select_renders_header_and_zero_rows(self, plain_db):
        plain_db.execute("CREATE TABLE t (a INT, b STRING)")
        text = plain_db.execute("SELECT a, b FROM t").pretty()
        lines = text.splitlines()
        assert "| a | b |" in lines
        assert lines[-1] == "(0 row(s))"

    def test_populated_select_renders_all_rows(self, plain_db):
        plain_db.execute("CREATE TABLE t (a INT)")
        plain_db.execute("INSERT INTO t VALUES (7), (42)")
        text = plain_db.execute("SELECT a FROM t").pretty()
        assert "| 7" in text and "| 42 |" in text
        assert text.splitlines()[-1] == "(2 row(s))"


class TestExecuteHelpers:
    def test_executescript_returns_all_results(self, plain_db):
        script = (
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2); "
            "SELECT COUNT(*) FROM t"
        )
        results = plain_db.executescript(script)
        assert len(results) == 3
        assert results[-1].scalar() == 2
        # execute() stays "exactly one statement", whether or not the
        # shared parse memo has already seen the text as a script
        for text in (script, "SELECT 1; SELECT 2"):
            with pytest.raises(ParseError, match="unexpected input after"):
                plain_db.execute(text)
        assert plain_db.query("SELECT COUNT(*) FROM t") == [(2,)]

    def test_query_returns_rows(self, plain_db):
        plain_db.execute("CREATE TABLE t (a INT)")
        assert plain_db.query("SELECT 1 + 2") == [(3,)]

    def test_explain_text(self, demo_db):
        text = demo_db.explain("SELECT abstract FROM Talk WHERE title = 'x'")
        assert "CrowdProbe" in text
        assert "boundedness" in text

    def test_explain_rejects_dml(self, plain_db):
        with pytest.raises(ExecutionError):
            plain_db.explain("DROP TABLE t")

    def test_compile_exposes_plan(self, demo_db):
        compiled = demo_db.compile("SELECT name FROM NotableAttendee LIMIT 1")
        assert compiled.boundedness.bounded
        assert compiled.estimated_rows >= 0

    def test_explain_of_explain(self, demo_db):
        text = demo_db.explain("EXPLAIN SELECT title FROM Talk")
        assert "Scan" in text

    def test_crowd_stats_empty_without_crowd(self, plain_db):
        assert plain_db.crowd_stats == {}


class TestValuesExposed:
    def test_cnull_visible_in_results(self, plain_db):
        plain_db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        plain_db.execute("INSERT INTO Talk (title) VALUES ('X')")
        rows = plain_db.query("SELECT abstract FROM Talk")
        assert rows == [(CNULL,)]

    def test_is_cnull_queryable(self, plain_db):
        plain_db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        plain_db.execute("INSERT INTO Talk (title) VALUES ('X')")
        plain_db.execute("INSERT INTO Talk VALUES ('Y', 'done')")
        rows = plain_db.query("SELECT title FROM Talk WHERE abstract IS CNULL")
        assert rows == [("X",)]

    def test_insert_explicit_cnull(self, plain_db):
        plain_db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        plain_db.execute("INSERT INTO Talk VALUES ('X', CNULL)")
        assert plain_db.query("SELECT abstract FROM Talk") == [(CNULL,)]

    def test_update_to_cnull_reopens_sourcing(self, demo_db):
        demo_db.execute("SELECT abstract FROM Talk WHERE title = 'Qurk'")
        demo_db.execute(
            "UPDATE Talk SET abstract = CNULL WHERE title = 'Qurk'"
        )
        result = demo_db.execute(
            "SELECT abstract FROM Talk WHERE title = 'Qurk'"
        )
        assert result.rows[0][0] == "Qurk is a query processor for human operators."


class TestUICompileTime:
    def test_templates_created_on_ddl(self, demo_db):
        ids = {t.template_id for t in demo_db.ui_manager.all_templates()}
        assert any(i.startswith("fill:Talk") for i in ids)
        assert any(i.startswith("new:NotableAttendee") for i in ids)

    def test_form_editor_accessible(self, demo_db):
        templates = demo_db.ui_manager.all_templates()
        edited = demo_db.form_editor.append_instructions(
            templates[0].template_id, "Check the conference site first."
        )
        assert "conference site" in edited.instructions


class TestNoCyclicGarbage:
    """A connection and a statement's runtime state are freed by reference
    counting alone: nothing the engine builds per connection or per
    statement forms a reference cycle, so neither waits for a gen-2
    collection (which made a reopen's memory depend on when one ran)."""

    @staticmethod
    def _drop(open_db, tmp_path):
        import gc
        import weakref
        from unittest import mock

        from repro.engine.context import ExecutionContext

        contexts = []
        real_init = ExecutionContext.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            contexts.append(weakref.ref(self))

        gc.collect()
        gc.disable()
        try:
            with mock.patch.object(ExecutionContext, "__init__", init):
                db = open_db(tmp_path)
                db.execute(
                    "CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)"
                )
                db.execute("INSERT INTO t VALUES (1, 2), (3, 4)")
                db.query("SELECT x FROM t WHERE id = ?", (1,))
                db.query("SELECT COUNT(*), SUM(x) FROM t")
                db.execute("UPDATE t SET x = x + 1 WHERE id = 3")
                db.close()
            connection = weakref.ref(db)
            # the storage engine too, with no later connect() to displace
            # what the kernels' fallback counter holds
            engine = weakref.ref(db.engine)
            del db
            assert contexts
            assert [ref() for ref in contexts] == [None] * len(contexts)
            assert connection() is None
            assert engine() is None
        finally:
            gc.enable()

    def test_in_memory_connection_needs_no_collector(self, tmp_path):
        self._drop(lambda _path: connect(), tmp_path)

    def test_durable_connection_needs_no_collector(self, tmp_path):
        self._drop(lambda path: connect(path=str(path / "db")), tmp_path)
