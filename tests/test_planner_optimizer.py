"""Tests for the logical plan builder and the rule-based optimizer.

``tests/golden/explain_v2.jsonl`` pins the EXPLAIN text of every
statement of the ``plan_cold`` benchmark workload at seed 1, scale 0.1
(330 statements, regenerated here from ``perf.workloads.plan_cold``).
``python tests/test_planner_optimizer.py`` rewrites it -- only at the
parent of a change meant to alter plans, never to make a test pass.
``explain_v1.jsonl`` is its predecessor, from before sorts, stop-after
bounds and projections over a vectorized child joined the vector
region; ``test_explain_v2_is_v1_with_sorts_vectorized`` derives the one
from the other.
"""

import json
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from repro import connect
from repro.errors import PlanError, UnboundedQueryError, UnboundedQueryWarning
from repro.optimizer.rules import predicate_applies_to
from repro.plan import logical
from repro.plan.builder import PlanBuilder, output_names
from repro.sql import ast
from repro.sql.parser import parse

EXPLAIN_GOLDEN = Path(__file__).parent / "golden" / "explain_v2.jsonl"
EXPLAIN_GOLDEN_V1 = Path(__file__).parent / "golden" / "explain_v1.jsonl"


@pytest.fixture
def db(plain_db):
    plain_db.executescript(
        """
        CREATE TABLE Talk (title STRING PRIMARY KEY,
                           abstract CROWD STRING,
                           nb_attendees CROWD INTEGER);
        CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY,
                                            title STRING,
                                            FOREIGN KEY (title) REF Talk(title));
        CREATE TABLE Room (room STRING PRIMARY KEY, capacity INTEGER);
        """
    )
    return plain_db


def compiled(db, sql):
    return db.compile(sql)


def find(plan, node_type):
    return [n for n in plan.walk() if isinstance(n, node_type)]


class TestBuilder:
    def test_simple_shape(self, db):
        plan = compiled(db, "SELECT title FROM Talk").plan
        assert isinstance(plan, logical.Project)
        assert isinstance(plan.child, logical.Scan)

    def test_star_expansion(self, db):
        plan = compiled(db, "SELECT * FROM Talk").plan
        assert [name for _e, name in plan.items] == [
            "title", "abstract", "nb_attendees",
        ]

    def test_crowd_probe_inserted_for_crowd_columns(self, db):
        result = compiled(db, "SELECT abstract FROM Talk")
        probes = find(result.plan, logical.CrowdProbe)
        assert len(probes) == 1
        assert probes[0].columns == ("abstract",)

    def test_no_probe_when_no_crowd_columns_used(self, db):
        result = compiled(db, "SELECT title FROM Talk")
        assert not find(result.plan, logical.CrowdProbe)

    def test_probe_covers_predicate_columns(self, db):
        result = compiled(db, "SELECT title FROM Talk WHERE nb_attendees > 50")
        probes = find(result.plan, logical.CrowdProbe)
        assert probes and probes[0].columns == ("nb_attendees",)

    def test_order_by_alias(self, db):
        plan = compiled(db, "SELECT title AS t FROM Talk ORDER BY t").plan
        sorts = find(plan, logical.Sort)
        assert sorts

    def test_order_by_ordinal(self, db):
        plan = compiled(db, "SELECT title FROM Talk ORDER BY 1").plan
        assert find(plan, logical.Sort)

    def test_order_by_bad_ordinal(self, db):
        with pytest.raises(PlanError, match="out of range"):
            compiled(db, "SELECT title FROM Talk ORDER BY 5")

    def test_having_without_group_by_rejected(self, db):
        with pytest.raises(PlanError, match="HAVING"):
            compiled(db, "SELECT title FROM Talk HAVING title = 'x'")

    def test_crowdorder_rejected_in_where(self, db):
        with pytest.raises(PlanError, match="not allowed"):
            compiled(db, "SELECT title FROM Talk WHERE CROWDORDER(title, 'q') = 1")

    def test_limit_must_be_integer(self, db):
        with pytest.raises(PlanError, match="LIMIT"):
            compiled(db, "SELECT title FROM Talk LIMIT 'x'")

    def test_duplicate_binding_rejected(self, db):
        with pytest.raises(PlanError, match="duplicate table binding"):
            compiled(db, "SELECT 1 FROM Talk, Talk")

    def test_alias_allows_self_join(self, db):
        result = compiled(db, "SELECT 1 FROM Talk a, Talk b")
        assert len(find(result.plan, logical.Scan)) == 2


class TestPredicatePushdown:
    def test_non_crowd_predicate_pushed_below_probe(self, db):
        result = compiled(
            db, "SELECT abstract FROM Talk WHERE title = 'CrowdDB'"
        )
        probe = find(result.plan, logical.CrowdProbe)[0]
        # the title predicate must be evaluated before crowdsourcing
        filters_below = find(probe.child, logical.Filter)
        assert filters_below, result.plan.explain()

    def test_crowd_predicate_stays_above_probe(self, db):
        result = compiled(
            db, "SELECT title FROM Talk WHERE nb_attendees > 100"
        )
        probe = find(result.plan, logical.CrowdProbe)[0]
        assert not find(probe.child, logical.Filter)
        # the filter sits above the probe
        assert isinstance(result.plan.child, logical.Filter) or find(
            result.plan, logical.Filter
        )

    def test_join_condition_extracted_from_where(self, db):
        result = compiled(
            db,
            "SELECT t.title FROM Talk t, Room r "
            "WHERE t.title = r.room AND r.capacity > 10",
        )
        joins = find(result.plan, logical.Join)
        assert joins and joins[0].join_type == "INNER"
        assert joins[0].condition is not None

    def test_single_table_predicates_pushed_into_join_sides(self, db):
        result = compiled(
            db,
            "SELECT t.title FROM Talk t, Room r "
            "WHERE t.title = 'X' AND r.capacity > 10 AND t.title = r.room",
        )
        join = find(result.plan, logical.Join)[0]
        assert find(join.left, logical.Filter) or find(join.right, logical.Filter)


class TestStopAfter:
    def test_limit_reaches_crowd_scan(self, db):
        result = compiled(db, "SELECT name FROM NotableAttendee LIMIT 5")
        scan = find(result.plan, logical.Scan)[0]
        assert scan.limit_hint == 5

    def test_offset_added_to_hint(self, db):
        result = compiled(db, "SELECT name FROM NotableAttendee LIMIT 5 OFFSET 2")
        scan = find(result.plan, logical.Scan)[0]
        assert scan.limit_hint == 7

    def test_sort_becomes_top_k(self, db):
        result = compiled(
            db,
            "SELECT title FROM Talk ORDER BY "
            "CROWDORDER(title, 'better?') LIMIT 10",
        )
        sort = find(result.plan, logical.Sort)[0]
        assert sort.top_k == 10
        assert sort.is_crowd_sort

    def test_no_hint_through_filter(self, db):
        result = compiled(
            db, "SELECT name FROM NotableAttendee WHERE title = 'X' LIMIT 5"
        )
        scan = find(result.plan, logical.Scan)[0]
        assert scan.limit_hint is None  # a filter may drop rows: unbounded


class TestJoinOrdering:
    def test_crowd_table_joined_last(self, db):
        db.execute("INSERT INTO Room VALUES ('R1', 10)")
        result = compiled(
            db,
            "SELECT * FROM NotableAttendee n, Room r, Talk t "
            "WHERE n.title = t.title AND t.title = r.room",
        )
        # the crowd relation must not be the leftmost leaf of the join tree
        def leftmost(plan):
            while True:
                children = plan.children()
                if not children:
                    return plan
                plan = children[0]

        leaf = leftmost(result.plan)
        assert isinstance(leaf, (logical.Scan,))
        assert not leaf.table.crowd


class TestCostBasedOrdering:
    """DP enumeration specifics (the bulk lives in test_cost_optimizer)."""

    def test_dp_and_greedy_agree_on_results(self, db, monkeypatch):
        from repro.optimizer import join_ordering

        db.executescript(
            "INSERT INTO Talk (title) VALUES ('A'), ('B'), ('C');"
            "INSERT INTO Room VALUES ('A', 5), ('B', 9)"
        )
        sql = (
            "SELECT t.title, r.capacity FROM Talk t, Room r "
            "WHERE t.title = r.room ORDER BY t.title"
        )
        dp_rows = db.query(sql)
        monkeypatch.setattr(join_ordering, "DP_MAX_RELATIONS", 1)
        db.executor.plan_cache.clear()
        assert db.query(sql) == dp_rows

    def test_cost_line_in_explain(self, db):
        text = db.explain("SELECT title FROM Talk")
        assert "-- cost:" in text

    def test_conjunct_ordering_puts_crowd_last(self, db):
        # nb_attendees is a crowd column, so its conjunct stays above the
        # probe in the same filter as the CROWDEQUAL — and must precede it
        result = compiled(
            db,
            "SELECT title FROM Talk "
            "WHERE CROWDEQUAL(abstract, 'x') AND nb_attendees > 5",
        )
        mixed = [
            n.describe()
            for n in result.plan.walk()
            if isinstance(n, logical.Filter)
            and "CROWDEQUAL" in n.describe()
            and "nb_attendees" in n.describe()
        ]
        assert mixed, result.plan.explain()
        assert mixed[0].index("nb_attendees") < mixed[0].index("CROWDEQUAL")
        assert "conjunct-ordering" in result.applied_rules


class TestCrowdJoinRewrite:
    def test_join_with_crowd_inner_becomes_crowdjoin(self, db):
        result = compiled(
            db,
            "SELECT t.title, n.name FROM Talk t "
            "JOIN NotableAttendee n ON n.title = t.title",
        )
        crowd_joins = find(result.plan, logical.CrowdJoin)
        assert len(crowd_joins) == 1
        cj = crowd_joins[0]
        assert cj.inner_key_columns == ("title",)
        assert cj.inner_table.name == "NotableAttendee"

    def test_regular_join_not_rewritten(self, db):
        result = compiled(
            db, "SELECT * FROM Talk t JOIN Room r ON t.title = r.room"
        )
        assert not find(result.plan, logical.CrowdJoin)
        assert find(result.plan, logical.Join)


class TestBoundedness:
    def test_pk_equality_is_bounded(self, db):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnboundedQueryWarning)
            result = compiled(
                db, "SELECT title FROM NotableAttendee WHERE name = 'Mike'"
            )
        assert result.boundedness.bounded
        probe = find(result.plan, logical.CrowdProbe)[0]
        assert probe.anti_probe_keys == (("Mike",),)

    def test_pk_in_list_is_bounded(self, db):
        result = compiled(
            db,
            "SELECT title FROM NotableAttendee WHERE name IN ('A', 'B')",
        )
        assert result.boundedness.bounded
        probe = find(result.plan, logical.CrowdProbe)[0]
        assert probe.anti_probe_keys == (("A",), ("B",))

    def test_limit_is_bounded(self, db):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnboundedQueryWarning)
            result = compiled(db, "SELECT name FROM NotableAttendee LIMIT 3")
        assert result.boundedness.bounded

    def test_crowdjoin_inner_is_bounded(self, db):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnboundedQueryWarning)
            result = compiled(
                db,
                "SELECT n.name FROM Talk t "
                "JOIN NotableAttendee n ON n.title = t.title",
            )
        assert result.boundedness.bounded

    def test_open_scan_warns(self, db):
        with pytest.warns(UnboundedQueryWarning):
            result = compiled(db, "SELECT name FROM NotableAttendee")
        assert not result.boundedness.bounded

    def test_non_key_predicate_warns(self, db):
        with pytest.warns(UnboundedQueryWarning):
            result = compiled(
                db, "SELECT name FROM NotableAttendee WHERE title = 'X'"
            )
        assert not result.boundedness.bounded

    def test_strict_mode_raises(self, demo_oracle):
        db = connect(with_crowd=False, strict_boundedness=True)
        db.execute(
            "CREATE CROWD TABLE c (k STRING PRIMARY KEY, v STRING)"
        )
        with pytest.raises(UnboundedQueryError):
            db.compile("SELECT k FROM c")

    def test_regular_tables_never_flagged(self, db):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnboundedQueryWarning)
            result = compiled(db, "SELECT abstract FROM Talk")
        assert result.boundedness.bounded
        assert result.boundedness.entries == []


class TestCardinality:
    def test_estimates_present(self, db):
        db.executescript(
            "INSERT INTO Talk (title) VALUES ('A'), ('B'), ('C')"
        )
        result = compiled(db, "SELECT abstract FROM Talk")
        assert result.estimated_rows == pytest.approx(3.0)
        # three CNULL abstracts to source
        assert result.estimated_crowd_calls == pytest.approx(3.0)

    def test_limit_caps_estimate(self, db):
        db.executescript(
            "INSERT INTO Talk (title) VALUES ('A'), ('B'), ('C')"
        )
        result = compiled(db, "SELECT title FROM Talk LIMIT 2")
        assert result.estimated_rows <= 2.0

    def test_crowd_sort_counts_comparisons(self, db):
        db.executescript(
            "INSERT INTO Talk (title) VALUES ('A'), ('B'), ('C'), ('D')"
        )
        result = compiled(
            db,
            "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'q') LIMIT 2",
        )
        assert result.estimated_crowd_calls > 0

    def test_explain_includes_verdict(self, db):
        text = db.explain("SELECT name FROM NotableAttendee LIMIT 2")
        assert "bounded" in text
        assert "StopAfter" in text or "stopafter" in text


class TestProvidedNames:
    """Each plan node caches the bindings, columns and scans it provides;
    they must equal what a walk of its subtree finds."""

    STATEMENTS = (
        # a SubqueryAlias over a derived table
        "SELECT d.t FROM (SELECT title AS t FROM Talk WHERE title > 'a') "
        "AS d JOIN Room r ON d.t = r.room",
        # a CrowdJoin's inner binding
        "SELECT t.title, n.name FROM Talk t "
        "JOIN NotableAttendee n ON n.title = t.title",
        # Talk and NotableAttendee share the column name "title"
        "SELECT n.name FROM NotableAttendee n, Talk t, Room r "
        "WHERE n.title = t.title AND r.room = t.title AND capacity > 10",
    )

    @staticmethod
    def walked(plan):
        bindings, columns = set(), set()
        for node in plan.walk():
            if isinstance(node, logical.Scan):
                bindings.add(node.binding.lower())
                columns.update(c.lower() for c in node.table.column_names)
            elif isinstance(node, logical.SubqueryAlias):
                bindings.add(node.alias.lower())
                columns.update(n.lower() for n in output_names(node.child))
            elif isinstance(node, logical.CrowdJoin):
                bindings.add(node.inner_binding.lower())
                columns.update(c.lower() for c in node.inner_table.column_names)
        scans = tuple(n for n in plan.walk() if isinstance(n, logical.Scan))
        return bindings, columns, scans

    def test_cached_sets_match_a_reference_walk(self, db):
        kinds = set()
        for sql in self.STATEMENTS:
            built = PlanBuilder(db.catalog).build_statement(parse(sql))
            for plan in (built, compiled(db, sql).plan):
                for node in plan.walk():
                    kinds.add(type(node))
                    assert (
                        node.provided_bindings,
                        node.provided_columns,
                        node.scans,
                    ) == self.walked(node), node.describe()
        assert {logical.SubqueryAlias, logical.CrowdJoin} <= kinds

    def test_a_shared_unqualified_column_resolves_on_either_side(self, db):
        plan = PlanBuilder(db.catalog).build_statement(parse(self.STATEMENTS[2]))
        (join,) = [
            n for n in plan.walk()
            if isinstance(n, logical.Join) and isinstance(n.left, logical.Join)
        ]
        attendees, talks = join.left.left, join.left.right
        title = ast.BinaryOp("=", ast.ColumnRef("title"), ast.Literal("x"))
        assert predicate_applies_to(title, attendees)
        assert predicate_applies_to(title, talks)
        assert not predicate_applies_to(title, join.right)  # Room
        assert "title" in join.provided_columns
        assert join.provided_bindings == {"n", "t", "r"}


def plan_cold_explains() -> list[dict]:
    """EXPLAIN of every plan_cold statement, seed 1, scale 0.1."""
    from perf.workloads import plan_cold

    inputs = plan_cold.generate(1, 0.1)
    with tempfile.TemporaryDirectory() as workdir:
        db = plan_cold.setup(inputs, workdir).db
        return [
            {"kind": statement.kind, "explain": db.explain(statement.sql)}
            for statement in inputs.statements
        ]


def test_plan_cold_explain_golden():
    with open(EXPLAIN_GOLDEN, encoding="utf-8") as handle:
        expected = [json.loads(line) for line in handle]
    actual = plan_cold_explains()
    assert len(actual) == len(expected) == 330
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"statement {index}"


def _vectorize_sorts(explain: str) -> str:
    """``explain`` (v1) with every Sort, StopAfter and Project line over a
    vectorized child marked vectorized, bottom-up; the ``-- cost:``
    footer is dropped, since the cost model discounts the row work of a
    vectorized node."""
    lines = [line for line in explain.splitlines()
             if not line.startswith("-- cost:")]
    depth = [len(line) - len(line.lstrip(" ")) for line in lines]
    for index in range(len(lines) - 1, -1, -1):
        line = lines[index]
        node = line.lstrip(" ")
        child = index + 1
        if (
            node.startswith(("Sort(", "StopAfter(", "Project("))
            and line.endswith("execution: row")
            and child < len(lines)
            and depth[child] == depth[index] + 2
            and lines[child].endswith("execution: vectorized")
        ):
            lines[index] = line[: -len("row")] + "vectorized"
    return "\n".join(lines)


def _cost_rows(explain: str) -> float:
    (footer,) = [line for line in explain.splitlines()
                 if line.startswith("-- cost:")]
    return float(footer.split("~")[1].split()[0])


def test_explain_v2_is_v1_with_sorts_vectorized():
    goldens = []
    for path in (EXPLAIN_GOLDEN_V1, EXPLAIN_GOLDEN):
        with open(path, encoding="utf-8") as handle:
            goldens.append([json.loads(line) for line in handle])
    v1, v2 = goldens
    assert len(v1) == len(v2) == 330
    moved = 0
    for old, new in zip(v1, v2):
        assert old["kind"] == new["kind"]
        assert _vectorize_sorts(old["explain"]) == _vectorize_sorts(
            new["explain"]
        )
        assert new["explain"].count("execution: row") == 0
        assert _cost_rows(new["explain"]) <= _cost_rows(old["explain"])
        moved += old["explain"] != new["explain"]
    assert moved == 330


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    with open(EXPLAIN_GOLDEN, "w", encoding="utf-8") as handle:
        for record in plan_cold_explains():
            handle.write(json.dumps(record) + "\n")
