"""Integration tests: crowd operators through full CrowdSQL execution.

Uses the scripted (perfect, instantaneous) crowd so assertions are exact;
the noisy simulated platforms are covered by test_simulated_end_to_end.
"""

import pytest

from repro.sqltypes import CNULL, NULL, is_cnull


class TestCrowdProbeColumns:
    def test_paper_motivating_query(self, demo_db):
        """SELECT abstract FROM Talk WHERE title = 'CrowdDB' must return
        the crowdsourced abstract instead of an empty/CNULL answer."""
        result = demo_db.execute(
            "SELECT abstract FROM Talk WHERE title = 'CrowdDB'"
        )
        assert result.rows == [
            ("CrowdDB answers queries with crowdsourcing.",)
        ]

    def test_answers_are_memorized(self, demo_db):
        demo_db.execute("SELECT abstract FROM Talk WHERE title = 'CrowdDB'")
        stored = demo_db.engine.table("Talk").lookup_primary_key(("CrowdDB",))
        assert stored.values[1] == "CrowdDB answers queries with crowdsourcing."
        # second run must not post new HITs (cached in storage)
        before = demo_db.crowd_stats["hits_posted"]
        demo_db.execute("SELECT abstract FROM Talk WHERE title = 'CrowdDB'")
        assert demo_db.crowd_stats["hits_posted"] == before

    def test_only_needed_columns_probed(self, demo_db):
        demo_db.execute("SELECT abstract FROM Talk WHERE title = 'Qurk'")
        stored = demo_db.engine.table("Talk").lookup_primary_key(("Qurk",))
        assert is_cnull(stored.values[2])  # nb_attendees untouched

    def test_predicate_on_crowd_column_triggers_probe(self, demo_db):
        rows = demo_db.query("SELECT title FROM Talk WHERE nb_attendees > 70")
        assert sorted(rows) == [("CrowdDB",), ("Qurk",)]

    def test_predicate_pushdown_limits_probes(self, demo_db):
        """With the title filter pushed below the probe, only one fill
        task is posted even though three talks are stored."""
        demo_db.execute("SELECT abstract FROM Talk WHERE title = 'PIQL'")
        assert demo_db.crowd_stats["fill_requests"] == 1

    def test_aggregate_over_crowd_column(self, demo_db):
        result = demo_db.execute("SELECT AVG(nb_attendees) FROM Talk")
        assert result.scalar() == pytest.approx((120 + 80 + 60) / 3)

    def test_worker_no_value_stores_null(self, demo_db):
        demo_db.execute("INSERT INTO Talk (title) VALUES ('Mystery')")
        result = demo_db.execute(
            "SELECT abstract FROM Talk WHERE title = 'Mystery'"
        )
        assert result.rows == [(NULL,)]
        stored = demo_db.engine.table("Talk").lookup_primary_key(("Mystery",))
        assert stored.values[1] is NULL  # memorized as known-absent


class TestCrowdTableSourcing:
    def test_anti_probe_sources_missing_tuple(self, demo_db):
        result = demo_db.execute(
            "SELECT name, title FROM NotableAttendee WHERE name = 'Sam Madden'"
        )
        assert result.rows == [("Sam Madden", "Qurk")]
        # memorized
        heap = demo_db.engine.table("NotableAttendee")
        assert heap.lookup_primary_key(("Sam Madden",)) is not None

    def test_anti_probe_skipped_when_stored(self, demo_db):
        demo_db.execute(
            "INSERT INTO NotableAttendee VALUES ('Sam Madden', 'Qurk')"
        )
        before = demo_db.crowd_stats["hits_posted"]
        demo_db.execute(
            "SELECT title FROM NotableAttendee WHERE name = 'Sam Madden'"
        )
        assert demo_db.crowd_stats["hits_posted"] == before

    def test_limit_bounded_open_world_scan(self, demo_db):
        result = demo_db.execute("SELECT name FROM NotableAttendee LIMIT 2")
        assert len(result.rows) == 2

    def test_unbounded_scan_runs_closed_world(self, demo_db):
        """An unbounded crowd-table query warns at compile time and only
        returns stored tuples."""
        demo_db.execute(
            "INSERT INTO NotableAttendee VALUES ('Stored Person', 'Qurk')"
        )
        before = demo_db.crowd_stats["hits_posted"]
        with pytest.warns(Warning):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("always")
                result = demo_db.execute("SELECT name FROM NotableAttendee")
        assert ("Stored Person",) in result.rows
        assert demo_db.crowd_stats["hits_posted"] == before


class TestCrowdJoin:
    def test_join_sources_matching_tuples(self, demo_db):
        rows = demo_db.query(
            "SELECT t.title, n.name FROM Talk t "
            "JOIN NotableAttendee n ON n.title = t.title"
        )
        assert ("Qurk", "Sam Madden") in rows
        crowd_db_names = {name for title, name in rows if title == "CrowdDB"}
        assert crowd_db_names & {"Mike Franklin", "Donald Kossmann"}

    def test_join_memorizes_inner_tuples(self, demo_db):
        demo_db.query(
            "SELECT n.name FROM Talk t JOIN NotableAttendee n "
            "ON n.title = t.title"
        )
        assert len(demo_db.engine.table("NotableAttendee")) >= 2

    def test_join_does_not_reprobe_stored_keys(self, demo_db):
        demo_db.query(
            "SELECT n.name FROM Talk t JOIN NotableAttendee n "
            "ON n.title = t.title"
        )
        before = demo_db.crowd_stats["new_tuple_requests"]
        demo_db.query(
            "SELECT n.name FROM Talk t JOIN NotableAttendee n "
            "ON n.title = t.title"
        )
        after = demo_db.crowd_stats["new_tuple_requests"]
        # keys already probed within the first query are looked up in
        # storage; only keys with no stored match are probed again
        assert after - before <= 1  # PIQL has no attendees: may re-probe


class TestCrowdEqual:
    def test_entity_resolution(self, demo_db):
        demo_db.execute("CREATE TABLE Company (name STRING PRIMARY KEY)")
        demo_db.execute(
            "INSERT INTO Company VALUES ('I.B.M.'), ('Microsoft'), "
            "('International Business Machines')"
        )
        rows = demo_db.query(
            "SELECT name FROM Company WHERE CROWDEQUAL(name, 'IBM')"
        )
        assert sorted(rows) == [
            ("I.B.M.",),
            ("International Business Machines",),
        ]

    def test_exact_match_never_asks_crowd(self, demo_db):
        demo_db.execute("CREATE TABLE c2 (name STRING PRIMARY KEY)")
        demo_db.execute("INSERT INTO c2 VALUES ('IBM')")
        before = demo_db.crowd_stats["compare_requests"]
        rows = demo_db.query("SELECT name FROM c2 WHERE CROWDEQUAL(name, 'IBM')")
        assert rows == [("IBM",)]
        assert demo_db.crowd_stats["compare_requests"] == before

    def test_answers_cached_across_queries(self, demo_db):
        demo_db.execute("CREATE TABLE c3 (name STRING PRIMARY KEY)")
        demo_db.execute("INSERT INTO c3 VALUES ('I.B.M.')")
        demo_db.query("SELECT name FROM c3 WHERE CROWDEQUAL(name, 'IBM')")
        before = demo_db.crowd_stats["compare_requests"]
        demo_db.query("SELECT name FROM c3 WHERE CROWDEQUAL(name, 'IBM')")
        assert demo_db.crowd_stats["compare_requests"] == before


class TestCrowdOrder:
    def test_example3_full_ranking(self, demo_db):
        rows = demo_db.query(
            "SELECT title FROM Talk ORDER BY "
            "CROWDORDER(title, 'Which talk did you like better')"
        )
        assert rows == [("CrowdDB",), ("Qurk",), ("PIQL",)]

    def test_top_k_with_limit(self, demo_db):
        rows = demo_db.query(
            "SELECT title FROM Talk ORDER BY "
            "CROWDORDER(title, 'Which talk did you like better') LIMIT 2"
        )
        assert rows == [("CrowdDB",), ("Qurk",)]

    def test_descending(self, demo_db):
        rows = demo_db.query(
            "SELECT title FROM Talk ORDER BY "
            "CROWDORDER(title, 'Which talk did you like better') DESC"
        )
        assert rows == [("PIQL",), ("Qurk",), ("CrowdDB",)]

    def test_top_k_uses_fewer_comparisons_than_full_sort(self, demo_oracle):
        from repro import connect
        from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn

        import random

        demo_oracle.load_ranking("rank?", {f"T{i:02d}": float(i) for i in range(20)})
        order = list(range(20))
        random.Random(4).shuffle(order)  # unsorted input: full sort pays

        def run(sql):
            db = connect(
                oracle=demo_oracle,
                platforms=(ScriptedPlatform(oracle_answer_fn(demo_oracle)),),
                default_platform="scripted",
            )
            db.execute("CREATE TABLE items (t STRING PRIMARY KEY)")
            for i in order:
                db.execute(f"INSERT INTO items VALUES ('T{i:02d}')")
            db.query(sql)
            return db.crowd_stats["compare_requests"]

        top2 = run("SELECT t FROM items ORDER BY CROWDORDER(t, 'rank?') LIMIT 2")
        full = run("SELECT t FROM items ORDER BY CROWDORDER(t, 'rank?')")
        assert top2 < full

    def test_comparisons_cached_within_sort(self, demo_db):
        demo_db.query(
            "SELECT title FROM Talk ORDER BY "
            "CROWDORDER(title, 'Which talk did you like better')"
        )
        requests = demo_db.crowd_stats["compare_requests"]
        # 3 items need at most C(3,2) = 3 distinct ballots
        assert requests <= 3

    def test_mixed_keys(self, demo_db):
        rows = demo_db.query(
            "SELECT title FROM Talk ORDER BY "
            "nb_attendees DESC, CROWDORDER(title, 'Which talk did you like better')"
        )
        assert rows == [("CrowdDB",), ("Qurk",), ("PIQL",)]


class TestPlatformChoice:
    def test_default_platform_selectable(self, demo_oracle):
        from repro import connect

        db = connect(oracle=demo_oracle, seed=5, default_platform="mobile")
        db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        db.execute("INSERT INTO Talk (title) VALUES ('CrowdDB')")
        result = db.execute("SELECT abstract FROM Talk WHERE title = 'CrowdDB'")
        assert result.rows[0][0] is not CNULL

    def test_switching_platform(self, demo_oracle):
        from repro import connect

        db = connect(oracle=demo_oracle, seed=5)
        db.set_platform("mobile")
        db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        db.execute("INSERT INTO Talk (title) VALUES ('Qurk')")
        result = db.execute("SELECT abstract FROM Talk WHERE title = 'Qurk'")
        assert result.rows[0][0]

    def test_single_platform_is_the_default_without_naming_it(
        self, demo_oracle
    ):
        from repro import connect
        from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn

        db = connect(
            oracle=demo_oracle,
            platforms=(ScriptedPlatform(oracle_answer_fn(demo_oracle)),),
        )
        db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        db.execute("INSERT INTO Talk (title) VALUES ('Qurk')")
        result = db.execute("SELECT abstract FROM Talk WHERE title = 'Qurk'")
        assert result.rows[0][0]
        assert db.crowd_stats["hits_posted"] >= 1
        assert db.platforms.default == "scripted"

    def test_unknown_platform_errors(self, demo_db, demo_oracle):
        """An unknown name is refused where it is given, not at the first
        crowd query, and leaves the default as it was."""
        from repro import connect
        from repro.errors import CrowdPlatformError

        with pytest.raises(CrowdPlatformError):
            connect(oracle=demo_oracle, default_platform="mars")
        with pytest.raises(CrowdPlatformError):
            demo_db.set_platform("nonexistent")
        assert demo_db.platforms.default == "scripted"
        assert demo_db.execute(
            "SELECT abstract FROM Talk WHERE title = 'Qurk'"
        ).rows[0][0]


class TestSimulatedEndToEnd:
    """The same scenarios over the noisy discrete-event simulation."""

    def test_fill_with_majority_vote(self, sim_db):
        sim_db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, "
            "abstract CROWD STRING, nb_attendees CROWD INTEGER)"
        )
        sim_db.execute("INSERT INTO Talk (title) VALUES ('CrowdDB')")
        result = sim_db.execute(
            "SELECT abstract FROM Talk WHERE title = 'CrowdDB'"
        )
        answer = result.rows[0][0]
        assert isinstance(answer, str) and "crowdsourcing" in answer.lower()

    def test_crowd_cost_accounted(self, sim_db):
        sim_db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        sim_db.execute("INSERT INTO Talk (title) VALUES ('Qurk')")
        sim_db.execute("SELECT abstract FROM Talk WHERE title = 'Qurk'")
        stats = sim_db.crowd_stats
        assert stats["cost_cents"] == stats["assignments_received"] * 2

    def test_wrm_sees_payments(self, sim_db):
        sim_db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        sim_db.execute("INSERT INTO Talk (title) VALUES ('PIQL')")
        sim_db.execute("SELECT abstract FROM Talk WHERE title = 'PIQL'")
        assert sim_db.wrm.total_paid_cents > 0
