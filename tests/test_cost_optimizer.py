"""Tests for the cost-based optimizer stack (PR5).

Covers the four tentpole layers — histogram statistics + ANALYZE, the
rows/cents/rounds cost model, DPsize join enumeration, and the plan
cache — plus the conjunct-ordering satellite and the staleness guard.
"""

import time
from collections import Counter

import pytest

from repro import connect
from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn
from repro.crowd.sim.traces import GroundTruthOracle
from repro.optimizer import join_ordering
from repro.optimizer.cost import PlanCost
from repro.optimizer.optimizer import Optimizer
from repro.plan import logical
from repro.storage.statistics import EquiDepthHistogram


# -- equi-depth histograms -------------------------------------------------------


class TestHistograms:
    def test_bucket_counts_cover_every_row(self):
        counts = Counter({value: 3 for value in range(100)})
        histogram = EquiDepthHistogram.build(counts, buckets=8)
        assert histogram is not None
        assert sum(b.count for b in histogram.buckets) == 300
        assert histogram.low == 0 and histogram.high == 99

    def test_buckets_are_roughly_equi_depth(self):
        counts = Counter({value: 1 for value in range(1000)})
        histogram = EquiDepthHistogram.build(counts, buckets=10)
        depths = [b.count for b in histogram.buckets]
        assert max(depths) <= 2 * min(depths)

    def test_range_selectivity_uniform(self):
        counts = Counter({value: 1 for value in range(1000)})
        histogram = EquiDepthHistogram.build(counts)
        estimate = histogram.range_selectivity(low=0, high=99)
        assert estimate == pytest.approx(0.1, abs=0.05)

    def test_out_of_range_probes(self):
        counts = Counter({value: 1 for value in range(10, 20)})
        histogram = EquiDepthHistogram.build(counts)
        assert histogram.fraction_below(5, inclusive=True) == 0.0
        assert histogram.fraction_below(100, inclusive=True) == 1.0

    def test_mixed_types_yield_no_histogram(self):
        counts = Counter({1: 1, "a": 1})
        assert EquiDepthHistogram.build(counts) is None

    def test_skewed_heavy_hitter(self):
        counts = Counter({1: 900, 2: 50, 3: 50})
        histogram = EquiDepthHistogram.build(counts, buckets=4)
        # the heavy value dominates: almost everything is <= 1
        assert histogram.fraction_below(1, inclusive=True) >= 0.85


# -- ANALYZE + staleness guard ---------------------------------------------------


class TestAnalyze:
    def test_analyze_statement_reports_tables(self, plain_db):
        plain_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(10):
            plain_db.execute("INSERT INTO t VALUES (?, ?)", (i, i % 3))
        result = plain_db.execute("ANALYZE t")
        assert result.columns[0] == "table_name"
        assert result.rows[0][0] == "t"
        assert result.rows[0][1] == 10

    def test_analyze_builds_histograms_and_mcvs(self, plain_db):
        plain_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(200):
            plain_db.engine.insert("t", [i, i % 7])
        plain_db.execute("ANALYZE t")
        stats = plain_db.engine.table("t").statistics
        assert stats.analyzed
        column = stats.column("v")
        assert column.histogram is not None
        assert set(column.mcv) == set(range(7))

    def test_analyze_bumps_epoch(self, plain_db):
        plain_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        before = plain_db.engine.table("t").statistics.epoch
        plain_db.execute("ANALYZE")
        assert plain_db.engine.table("t").statistics.epoch == before + 1

    def test_bulk_load_auto_analyzes(self):
        db = connect(with_crowd=False)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(500):
            db.engine.insert("t", [i, i % 10])
        stats = db.engine.table("t").statistics
        # the staleness guard rebuilt statistics without an explicit ANALYZE
        assert stats.analyzed
        assert stats.column("v").histogram is not None
        assert stats.mutations_since_analyze < 500

    def test_auto_analyze_can_be_disabled(self):
        db = connect(with_crowd=False, auto_analyze_floor=-1)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(500):
            db.engine.insert("t", [i, i % 10])
        stats = db.engine.table("t").statistics
        assert not stats.analyzed
        db.execute("ANALYZE t")  # explicit ANALYZE still works
        assert stats.analyzed

    def test_cli_analyze_command(self, plain_db, capsys=None):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(connection=plain_db, stdout=out)
        plain_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        shell.handle_line(".analyze t")
        assert "t" in out.getvalue()
        shell.handle_line(".cache")
        assert "hits" in out.getvalue()


# -- histogram-aware selectivity -------------------------------------------------


class TestSelectivity:
    @pytest.fixture
    def db(self, plain_db):
        plain_db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, s STRING)"
        )
        for i in range(1000):
            plain_db.engine.insert("t", [i, i % 100, f"name{i % 10:02d}"])
        plain_db.execute("ANALYZE t")
        return plain_db

    def estimated(self, db, sql):
        return db.compile(sql).estimated_rows

    def test_range_uses_histogram(self, db):
        estimate = self.estimated(db, "SELECT id FROM t WHERE v < 10")
        assert estimate == pytest.approx(100, rel=0.3)

    def test_equality_uses_exact_frequency(self, db):
        estimate = self.estimated(db, "SELECT id FROM t WHERE v = 5")
        assert estimate == pytest.approx(10, rel=0.01)

    def test_missing_value_estimates_zero(self, db):
        estimate = self.estimated(db, "SELECT id FROM t WHERE v = 12345")
        assert estimate == 0.0

    def test_between_uses_histogram(self, db):
        estimate = self.estimated(
            db, "SELECT id FROM t WHERE v BETWEEN 0 AND 49"
        )
        assert estimate == pytest.approx(500, rel=0.3)

    def test_like_prefix_uses_histogram(self, db):
        estimate = self.estimated(db, "SELECT id FROM t WHERE s LIKE 'name0%'")
        assert estimate == pytest.approx(1000, rel=0.35)
        estimate = self.estimated(db, "SELECT id FROM t WHERE s LIKE 'zzz%'")
        assert estimate <= 250  # nothing starts with zzz

    def test_leading_wildcard_like_uses_mcvs(self, db):
        # every value is an MCV here, so '%me05' resolves exactly to the
        # name05 heavy hitter instead of the 0.25 textbook guess
        estimate = self.estimated(db, "SELECT id FROM t WHERE s LIKE '%me05'")
        assert estimate == pytest.approx(100, rel=0.05)

    def test_in_list_sums_frequencies(self, db):
        estimate = self.estimated(db, "SELECT id FROM t WHERE v IN (1, 2, 3)")
        assert estimate == pytest.approx(30, rel=0.01)


# -- the cost model --------------------------------------------------------------


class TestCostModel:
    def test_lexicographic_ordering(self):
        assert PlanCost(cents=1, rounds=0, rows=0) > PlanCost(
            cents=0, rounds=99, rows=10**9
        )
        assert PlanCost(cents=1, rounds=1, rows=0) > PlanCost(
            cents=1, rounds=0, rows=10**9
        )
        assert PlanCost(cents=1, rounds=1, rows=1) < PlanCost(
            cents=1, rounds=1, rows=2
        )

    def test_crowd_plan_costs_cents(self):
        oracle = GroundTruthOracle()
        db = connect(
            oracle=oracle,
            platforms=(ScriptedPlatform(oracle_answer_fn(oracle)),),
            default_platform="scripted",
        )
        db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, "
            "abstract CROWD STRING)"
        )
        db.execute("INSERT INTO Talk (title) VALUES ('A'), ('B')")
        compiled = db.compile("SELECT abstract FROM Talk")
        cost = compiled.estimated_cost
        assert cost is not None
        assert cost.cents > 0  # two CNULL abstracts to source

    def test_electronic_plan_costs_no_cents(self, plain_db):
        plain_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        compiled = plain_db.compile("SELECT id FROM t")
        assert compiled.estimated_cost.cents == 0

    def test_explain_shows_per_node_annotations(self, plain_db):
        plain_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        plain_db.engine.insert("t", [1])
        text = plain_db.explain("SELECT id FROM t")
        assert "~1 rows / ~0c / ~0 rounds" in text
        # every plan node carries the annotation
        plan_lines = [l for l in text.splitlines() if not l.startswith("--")]
        assert all("rows" in line and "rounds" in line for line in plan_lines)


# -- DP join enumeration ---------------------------------------------------------


class TestDPJoinOrdering:
    @pytest.fixture
    def db(self, plain_db):
        plain_db.executescript(
            """
            CREATE TABLE fact (id INTEGER PRIMARY KEY, a_id INTEGER,
                               b_id INTEGER);
            CREATE TABLE dim_a (id INTEGER PRIMARY KEY, v INTEGER);
            CREATE TABLE dim_b (id INTEGER PRIMARY KEY, w INTEGER);
            """
        )
        for i in range(100):
            plain_db.engine.insert("dim_a", [i, i])
        for i in range(10):
            plain_db.engine.insert("dim_b", [i, i])
        for i in range(2000):
            plain_db.engine.insert("fact", [i, i % 100, i % 10])
        plain_db.execute("ANALYZE")
        return plain_db

    SQL = (
        "SELECT fact.id FROM fact, dim_a, dim_b "
        "WHERE fact.a_id = dim_a.id AND fact.b_id = dim_b.id "
        "AND dim_a.v < 2"
    )

    def test_fact_table_joined_exactly_once(self, db):
        """DP must not drag the 2000-row fact through multiple joins —
        either the filtered dim joins it first, or the dims pre-combine
        (the classic star cross-product) and the fact joins once."""
        plan = db.compile(self.SQL).plan
        joins = [n for n in plan.walk() if isinstance(n, logical.Join)]
        touching_fact = [
            join
            for join in joins
            if any(
                isinstance(n, logical.Scan) and n.table.name == "fact"
                for n in join.walk()
            )
        ]
        assert len(touching_fact) == 1

    def test_plans_are_deterministic(self, db):
        first = db.compile(self.SQL).plan.explain()
        db.executor.plan_cache.clear()
        second = db.compile(self.SQL).plan.explain()
        assert first == second

    def test_dp_result_matches_greedy_result(self, db, monkeypatch):
        dp_rows = sorted(db.query(self.SQL))
        monkeypatch.setattr(join_ordering, "DP_MAX_RELATIONS", 1)
        db.executor.plan_cache.clear()
        greedy_rows = sorted(db.query(self.SQL))
        assert dp_rows == greedy_rows

    def test_crowd_relation_never_leftmost(self, db):
        oracle = GroundTruthOracle()
        crowd_db = connect(
            oracle=oracle,
            platforms=(ScriptedPlatform(oracle_answer_fn(oracle)),),
            default_platform="scripted",
        )
        crowd_db.executescript(
            """
            CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING);
            CREATE CROWD TABLE Attendee (name STRING PRIMARY KEY,
                                         title STRING);
            CREATE TABLE Room (room STRING PRIMARY KEY, cap INTEGER);
            """
        )
        crowd_db.execute("INSERT INTO Room VALUES ('R1', 5)")
        crowd_db.execute("INSERT INTO Talk VALUES ('T1', 'R1')")
        compiled = crowd_db.compile(
            "SELECT * FROM Attendee a, Talk t, Room r "
            "WHERE a.title = t.title AND t.room = r.room"
        )
        node = compiled.plan
        while node.children():
            node = node.children()[0]
        assert isinstance(node, logical.Scan)
        assert not node.table.crowd

    def test_single_relation_on_conjunct_keeps_crowdjoin(self, monkeypatch):
        """A one-sided ON conjunct must not wrap the crowd inner in a
        Filter — that would defeat CrowdJoinRewrite and silently drop
        crowd sourcing (code-review regression)."""
        def build():
            oracle = GroundTruthOracle()
            oracle.load_new_tuples(
                "NotableAttendee",
                [{"name": "Ada", "title": "T1", "vip": 1}],
                fixed_columns=("title",),
            )
            db = connect(
                oracle=oracle,
                platforms=(ScriptedPlatform(oracle_answer_fn(oracle)),),
                default_platform="scripted",
            )
            db.executescript(
                """
                CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING);
                CREATE TABLE Room (room STRING PRIMARY KEY, cap INTEGER);
                CREATE CROWD TABLE NotableAttendee (
                    name STRING PRIMARY KEY, title STRING, vip INTEGER);
                """
            )
            db.execute("INSERT INTO Room VALUES ('R1', 5)")
            db.execute("INSERT INTO Talk VALUES ('T1', 'R1')")
            return db

        sql = (
            "SELECT t.title, n.name FROM Talk t "
            "JOIN Room r ON r.room = t.room "
            "JOIN NotableAttendee n ON n.title = t.title AND n.vip = 1 "
            "ORDER BY t.title, n.name"
        )
        dp_db = build()
        compiled = dp_db.compile(sql)
        crowd_joins = [
            n for n in compiled.plan.walk() if isinstance(n, logical.CrowdJoin)
        ]
        assert crowd_joins, compiled.plan.explain()
        dp_rows = dp_db.query(sql)
        monkeypatch.setattr(join_ordering, "DP_MAX_RELATIONS", 1)
        assert dp_rows == build().query(sql)  # the greedy plan

    def test_nine_relations_fall_back_to_greedy(self, plain_db):
        for i in range(9):
            plain_db.execute(
                f"CREATE TABLE s{i} (id INTEGER PRIMARY KEY, v INTEGER)"
            )
            plain_db.engine.insert(f"s{i}", [1, 1])
        tables = ", ".join(f"s{i}" for i in range(9))
        joins = " AND ".join(f"s{i}.id = s{i + 1}.v" for i in range(8))
        compiled = plain_db.compile(f"SELECT s0.id FROM {tables} WHERE {joins}")
        assert "join-ordering" in compiled.applied_rules
        rows = plain_db.query(f"SELECT s0.id FROM {tables} WHERE {joins}")
        assert rows == [(1,)]


# -- conjunct ordering -----------------------------------------------------------


def _crowdequal_db():
    oracle = GroundTruthOracle()
    oracle.declare_same_entity("IBM", "I.B.M.")
    db = connect(
        oracle=oracle,
        platforms=(ScriptedPlatform(oracle_answer_fn(oracle)),),
        default_platform="scripted",
    )
    db.executescript(
        """
        CREATE TABLE co (id INTEGER PRIMARY KEY, name STRING, size INTEGER);
        CREATE TABLE extra (co_id INTEGER PRIMARY KEY, tag STRING);
        """
    )
    names = ["I.B.M.", "Acme", "Globex", "Initech"]
    for i in range(40):
        db.engine.insert("co", [i, names[i % 4], i])
    for i in range(0, 40, 4):
        db.engine.insert("extra", [i, "keep" if i % 8 == 0 else "drop"])
    db.execute("ANALYZE")
    return db


CROWD_SQL = (
    "SELECT co.id FROM co LEFT JOIN extra ON extra.co_id = co.id "
    "WHERE extra.tag = 'keep' AND CROWDEQUAL(co.name, 'IBM') "
    "ORDER BY co.id"
)


def crowdequal_record() -> dict:
    """Rows and crowd counters of :data:`CROWD_SQL` on a fresh instance."""
    db = _crowdequal_db()
    rows = db.query(CROWD_SQL)
    keys = ("hits_posted", "assignments_received", "compare_requests")
    return {"rows": repr(rows), **{k: db.crowd_stats[k] for k in keys}}


def _star_join_db():
    """6,000 publications joined to four dimensions, plus a curation side
    table kept outside the reorderable core by a LEFT JOIN.  Two traps
    made a greedy rows-only planner over textbook selectivities, which
    evaluated filters whole, pay 360 assignments where the cost-based
    plan pays 18: ``h_index < 1`` keeps 2% of professors where the
    constant guess says
    30%, and ``status = 'approved'`` cannot sink below the LEFT JOIN, so
    it shares the top filter with the CROWDEQUAL — evaluated whole, that
    filter ballots every distinct venue instead of the approved rows'."""
    oracle = GroundTruthOracle()
    oracle.declare_same_entity("VLDB", "Proc. of the VLDB Endowment", "PVLDB")
    db = connect(
        oracle=oracle,
        platforms=(ScriptedPlatform(oracle_answer_fn(oracle)),),
        default_platform="scripted",
    )
    db.executescript(
        """
        CREATE TABLE topic (id INTEGER PRIMARY KEY, name STRING);
        CREATE TABLE inst (id INTEGER PRIMARY KEY, name STRING);
        CREATE TABLE venue (id INTEGER PRIMARY KEY, name STRING);
        CREATE TABLE prof (id INTEGER PRIMARY KEY, name STRING,
                           inst_id INTEGER, h_index INTEGER);
        CREATE TABLE pub (id INTEGER PRIMARY KEY, prof_id INTEGER,
                          venue_id INTEGER, topic_id INTEGER);
        CREATE TABLE curation (pub_id INTEGER PRIMARY KEY, status STRING);
        """
    )
    insert = db.engine.insert
    for i in range(40):
        insert("topic", [i, f"topic{i:02d}"])
    for i in range(50):
        insert("inst", [i, f"inst{i:02d}"])
    variants = {0: "Proc. of the VLDB Endowment", 1: "PVLDB"}
    for i in range(200):
        insert("venue", [i, variants.get(i, f"venue{i:03d}")])
    for i in range(400):
        insert("prof", [i, f"prof{i:04d}", i % 50, i % 50])
    for i in range(6_000):
        # the 199-cycle is coprime to the professor filter's 50-cycle, so
        # the filtered publications still spread over ~199 venues
        insert("pub", [i, i % 400, i % 199, i % 40])
    for i in range(0, 6_000, 200):
        insert("curation", [i, "approved" if i % 1000 == 0 else "pending"])
    db.execute("ANALYZE")
    return db


STAR_SQL = """
SELECT pr.name, v.name, pb.id
FROM pub pb
JOIN prof pr ON pb.prof_id = pr.id
JOIN venue v ON pb.venue_id = v.id
JOIN topic t ON pb.topic_id = t.id
JOIN inst i ON pr.inst_id = i.id
LEFT JOIN curation c ON c.pub_id = pb.id
WHERE pr.h_index < 1
  AND c.status = 'approved'
  AND CROWDEQUAL(v.name, 'VLDB', 'Is this the same venue?')
ORDER BY pr.name, v.name, pb.id
"""


class TestConjunctOrdering:
    def test_crowd_conjunct_ordered_last(self):
        db = _crowdequal_db()
        compiled = db.compile(CROWD_SQL)
        filters = [
            n for n in compiled.plan.walk() if isinstance(n, logical.Filter)
        ]
        top = filters[0].describe()
        assert top.index("tag") < top.index("CROWDEQUAL")

    def test_electronic_prefix_skips_ballots(self):
        """Only rows surviving the electronic ``tag`` test are balloted:
        3 assignments (one HIT), where evaluating the whole predicate per
        row paid 12 for the same rows."""
        db = _crowdequal_db()
        assert db.query(CROWD_SQL) == [(0,), (8,), (16,), (24,), (32,)]
        assert db.crowd_stats["hits_posted"] == 1
        assert db.crowd_stats["assignments_received"] == 3
        assert db.crowd_stats["cost_cents"] == 6

    def test_star_join_same_rows_for_fewer_assignments(self):
        """The cost-based plan on a star join with both traps set (see
        :func:`_star_join_db`): the right row for 18 assignments and 36
        cents (that baseline paid 360 and 720), and the repeat
        served from the plan cache without buying anything again."""
        db = _star_join_db()
        first = db.execute(STAR_SQL)
        hits_before = db.executor.plan_cache.stats["hits"]
        repeat = db.execute(STAR_SQL)
        assert db.executor.plan_cache.stats["hits"] > hits_before
        assert repeat.rows == first.rows
        assert first.rows == [("prof0000", "Proc. of the VLDB Endowment", 0)]
        assert db.crowd_stats["assignments_received"] == 18
        assert db.crowd_stats["cost_cents"] == 36

    def test_interpreted_path_matches_compiled(self, expr_golden):
        # the rows and crowd counters the AST interpreter produced
        assert crowdequal_record() == expr_golden["statement crowdequal"][
            "result"
        ]


# -- plan cache ------------------------------------------------------------------


class TestPlanCache:
    def test_repeat_query_skips_parse_and_optimize(self, plain_db):
        plain_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        plain_db.query("SELECT id FROM t")
        parse_before = dict(plain_db.parse_cache_stats)
        plan_before = dict(plain_db.executor.plan_cache.stats)

        def exploding_optimize(plan):  # pragma: no cover - must not run
            raise AssertionError("optimize() ran on a cached query")

        plain_db.executor.optimizer.optimize = exploding_optimize
        plain_db.query("SELECT id FROM t")
        assert plain_db.parse_cache_stats["hits"] == parse_before["hits"] + 1
        assert (
            plain_db.executor.plan_cache.stats["hits"]
            == plan_before["hits"] + 1
        )

    def test_parameters_share_one_plan(self, plain_db):
        plain_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        plain_db.engine.insert("t", [1])
        plain_db.engine.insert("t", [2])
        assert plain_db.query("SELECT id FROM t WHERE id = ?", (1,)) == [(1,)]
        before = plain_db.executor.plan_cache.stats["hits"]
        assert plain_db.query("SELECT id FROM t WHERE id = ?", (2,)) == [(2,)]
        assert plain_db.executor.plan_cache.stats["hits"] == before + 1

    def test_ddl_invalidates(self, plain_db):
        plain_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        plain_db.query("SELECT id FROM t")
        misses = plain_db.executor.plan_cache.stats["misses"]
        plain_db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY)")
        plain_db.query("SELECT id FROM t")  # epoch rolled: must recompile
        assert plain_db.executor.plan_cache.stats["misses"] == misses + 1

    def test_analyze_invalidates(self, plain_db):
        plain_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        plain_db.query("SELECT id FROM t")
        misses = plain_db.executor.plan_cache.stats["misses"]
        plain_db.execute("ANALYZE t")
        plain_db.query("SELECT id FROM t")
        assert plain_db.executor.plan_cache.stats["misses"] == misses + 1

    def test_cache_hit_still_warns_on_unbounded_queries(self):
        import warnings as warnings_module

        from repro.errors import UnboundedQueryWarning

        db = connect(with_crowd=False)
        db.execute("CREATE CROWD TABLE c (k STRING PRIMARY KEY, v STRING)")
        with pytest.warns(UnboundedQueryWarning):
            db.query("SELECT k FROM c")
        with pytest.warns(UnboundedQueryWarning):
            db.query("SELECT k FROM c")  # cache hit must re-warn
        assert db.executor.plan_cache.stats["hits"] >= 1

    def test_swapped_optimizer_misses(self, plain_db):
        plain_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        plain_db.query("SELECT id FROM t")
        misses = plain_db.executor.plan_cache.stats["misses"]
        plain_db.executor.optimizer = Optimizer(plain_db.engine)
        plain_db.query("SELECT id FROM t")
        assert plain_db.executor.plan_cache.stats["misses"] == misses + 1

    def test_cache_disabled_with_zero_size(self):
        db = connect(with_crowd=False, plan_cache_size=0)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.query("SELECT id FROM t")
        db.query("SELECT id FROM t")
        assert db.executor.plan_cache.stats["hits"] == 0

    def test_correlated_subquery_reuses_plan(self, plain_db):
        plain_db.executescript(
            """
            CREATE TABLE outerT (id INTEGER PRIMARY KEY);
            CREATE TABLE innerT (id INTEGER PRIMARY KEY, o_id INTEGER);
            """
        )
        for i in range(20):
            plain_db.engine.insert("outerT", [i])
            plain_db.engine.insert("innerT", [i, i])
        rows = plain_db.query(
            "SELECT id FROM outerT o WHERE EXISTS "
            "(SELECT 1 FROM innerT i WHERE i.o_id = o.id)"
        )
        assert len(rows) == 20
        # 20 outer rows compiled the same subquery: 19+ cache hits
        assert plain_db.executor.plan_cache.stats["hits"] >= 19

    def test_server_sessions_share_the_cache(self):
        from repro import serve

        server = serve(with_crowd=False)
        server.connection.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY)"
        )
        s1 = server.open_session()
        s2 = server.open_session()
        s1.submit("SELECT id FROM t")
        s2.submit("SELECT id FROM t")
        server.run()
        stats = server.connection.executor.plan_cache.stats
        assert stats["hits"] >= 1  # second session reused the first's plan


# -- planning-time budget --------------------------------------------------------


def test_eight_relation_planning_budget(plain_db):
    for index in range(8):
        plain_db.execute(
            f"CREATE TABLE p{index} (id INTEGER PRIMARY KEY, v INTEGER)"
        )
        for row in range(20):
            plain_db.engine.insert(f"p{index}", [row, row % 5])
    plain_db.execute("ANALYZE")
    tables = ", ".join(f"p{i}" for i in range(8))
    joins = " AND ".join(f"p{i}.id = p{i + 1}.v" for i in range(7))
    sql = f"SELECT p0.id FROM {tables} WHERE {joins}"
    plain_db.compile(sql)  # warm imports/caches
    start = time.perf_counter()
    plain_db.compile(f"{sql} AND p0.v = 1")
    assert time.perf_counter() - start < 0.050
