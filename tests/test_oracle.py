"""Generated SELECTs checked against ``sqlite3``: an independent oracle.

The differential suites compare the engine's paths with each other (row,
compiled, vectorized); a bug they share would pass them.  Here hypothesis
writes SELECT statements over a small journal index -- journals, their
issues, the issues' articles, with 0/1 INTEGER flags, ISO-8601 text
dates, nullable REAL ranks and a secondary index on every table -- and
each runs on the engine and on an in-memory sqlite database loaded with
the same rows.  ``articles`` has more than ``LANE_ROWS`` rows, so its
numeric columns have array lanes and its few-valued strings (``status``,
``published``) dictionary lanes.

Statements mix filters (comparisons, BETWEEN, IN, LIKE, IS [NOT] NULL
under AND/OR/NOT, over clean, nullable and dictionary-lane columns),
inner and LEFT equi-joins, theta INNER and LEFT joins and a CROSS join,
GROUP BY/HAVING over the five aggregates (keys
are columns or arithmetic of one, like ``i.volume * 3``) and ORDER BY with one to three keys plus the primary keys as a tiebreaker,
with LIMIT/OFFSET.  Over a join, group keys often come from the joined
side (columns the join gathered, padded under LEFT) and aggregates
often fold arithmetic of columns from both sides.  A statement in
eight is a SELECT DISTINCT, one a UNION, UNION ALL, INTERSECT or EXCEPT
of two single-table SELECTs (an int column meeting a float one, NULLs
on both sides), and one a derived table in FROM (now and then itself a
set operation), filtered and joined to a table; each is unordered, or ordered by every output column under a
LIMIT.  Rows compare with ``perf.twin.same_rows`` (floats to a relative
1e-9).  :data:`DIALECT` lists where the sqlite text differs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perf.twin import open_twin, same_rows
from repro import connect
from repro.exec import vectorized as vectorized_ops
from repro.exec.vector import LANE_ROWS

#: The known differences between the engine's SQL and sqlite's, each
#: applied to the sqlite text (or connection) only.
DIALECT = {
    # missing values sort last under ASC, so first under DESC
    "nulls": "ASC keys take NULLS LAST, DESC keys NULLS FIRST",
    # LIKE compares case-sensitively
    "like": "PRAGMA case_sensitive_like = ON",
    # integer / is true division: 7 / 2 is 3.5
    "divide": "a divisor n is written n.0",
}

JOURNALS = 40
ISSUES = 400
ARTICLES = 4600
#: issues at or past this id have no articles: LEFT JOIN padding
ISSUES_WITH_ARTICLES = 380

AREAS = ["Accounting", "Finance", "Economics", "Management", "Marketing"]
STATUSES = ["published", "preprint", "retracted", "in press"]
WORDS = ["Audit", "audit", "Risk", "risk", "Market", "Pricing", "Tax",
         "Bank", "credit", "Firm", "Labor", "trade"]

DDL = (
    "CREATE TABLE journals (journal_id INTEGER PRIMARY KEY, title STRING, "
    "area STRING, scimago_rank FLOAT, available INTEGER, "
    "has_articles INTEGER)",
    "CREATE TABLE issues (issue_id INTEGER PRIMARY KEY, journal_id INTEGER, "
    "publication_year INTEGER, volume INTEGER, issue_date STRING)",
    "CREATE TABLE articles (article_id INTEGER PRIMARY KEY, "
    "issue_id INTEGER, title STRING, published STRING, open_access INTEGER, "
    "in_press INTEGER, rank FLOAT, pages INTEGER, status STRING)",
    "CREATE INDEX journals_area ON journals (area)",
    "CREATE INDEX issues_journal ON issues (journal_id)",
    "CREATE INDEX articles_issue ON articles (issue_id)",
)
TWIN_DDL = tuple(
    statement.replace("STRING", "TEXT").replace("FLOAT", "REAL")
    for statement in DDL
)


def generate_rows() -> dict[str, list[tuple]]:
    rng = random.Random(7)
    journals = [
        (
            j,
            f"{rng.choice(WORDS)} {rng.choice(WORDS)} Review",
            None if j % 9 == 4 else AREAS[j % len(AREAS)],
            None if j % 6 == 1 else round(rng.uniform(0.1, 9.5), 3),
            rng.randrange(2),
            int(j % 3 != 0),
        )
        for j in range(JOURNALS)
    ]
    issues = [
        (
            i,
            rng.randrange(JOURNALS),
            2015 + i % 10,
            1 + i % 12,
            f"{2015 + i % 10}-{1 + i % 12:02d}-{1 + i % 28:02d}",
        )
        for i in range(ISSUES)
    ]
    dates = [f"20{year}-{month:02d}-01" for year in range(15, 25)
             for month in (1, 4, 7, 10)]
    articles = [
        (
            a,
            None if a % 47 == 5 else rng.randrange(ISSUES_WITH_ARTICLES),
            f"{rng.choice(WORDS)} and {rng.choice(WORDS)} {a % 97}",
            rng.choice(dates),
            rng.randrange(2),
            int(a % 11 == 0),
            None if a % 5 == 2 else round(rng.uniform(0, 50), 2),
            rng.randrange(1, 40),
            STATUSES[rng.randrange(len(STATUSES))],
        )
        for a in range(ARTICLES)
    ]
    return {"journals": journals, "issues": issues, "articles": articles}


# -- the statement model ------------------------------------------------------

#: column -> kind, per table alias: "int", "flag" (0/1), "float"
#: (nullable), "str", "date" (ISO-8601 text), and the near-unique "id"
#: (ints) and "text" (strings), which are never group keys
COLUMNS = {
    "j": {"journal_id": "id", "title": "text", "area": "str",
          "scimago_rank": "float", "available": "flag",
          "has_articles": "flag"},
    "i": {"issue_id": "id", "journal_id": "int", "publication_year": "int",
          "volume": "int", "issue_date": "date"},
    "a": {"article_id": "id", "issue_id": "int", "title": "text",
          "published": "date", "open_access": "flag", "in_press": "flag",
          "rank": "float", "pages": "int", "status": "str"},
}
NUMBERS = ("id", "int", "flag", "float")
KEYS = {"j": "journal_id", "i": "issue_id", "a": "article_id"}

#: FROM clauses: (engine text, the aliases in scope)
FROMS = [
    ("articles a", ("a",)),
    ("issues i", ("i",)),
    ("articles a JOIN issues i ON a.issue_id = i.issue_id", ("a", "i")),
    ("articles a JOIN issues i ON a.issue_id = i.issue_id "
     "JOIN journals j ON i.journal_id = j.journal_id", ("a", "i", "j")),
    ("issues i LEFT JOIN articles a ON a.issue_id = i.issue_id", ("i", "a")),
    ("journals j LEFT JOIN issues i ON i.journal_id = j.journal_id",
     ("j", "i")),
    # clean integer build keys of 4,096+ rows: the probes search them
    ("journals j LEFT JOIN articles a ON a.pages = j.journal_id",
     ("j", "a")),
    ("issues i LEFT JOIN articles a ON a.article_id = i.issue_id * 12",
     ("i", "a")),
    # no equi key: theta INNER and LEFT joins (journals past 23 padded)
    # and a CROSS join
    ("journals j JOIN issues i ON i.volume > j.journal_id", ("j", "i")),
    ("journals j LEFT JOIN issues i ON i.volume * 2 > j.journal_id",
     ("j", "i")),
    ("journals j CROSS JOIN issues i", ("j", "i")),
]

LITERALS = {
    "id": list(range(-2, 12)) + [99, 274, 398, 419, 420, 4599],
    "int": list(range(-2, 12)) + [17, 39, 77, 128, 250, 379, 2019, 2024],
    "flag": [0, 1],
    "float": [0.5, 2.5, 7.25, 20.0, 33.3, 49.9],
    "str": AREAS + STATUSES + ["M", "p", "risk"],
    "text": ["Audit and Tax 3", "M", "Risk", "p", "risk"],
    "date": ["2016-01-01", "2018-04-01", "2019-07-15", "2021-10-01", "2024"],
}
PATTERNS = ["pub%", "%ed", "%re%", "Audit%", "%audit%", "_re%", "%s", "%",
            "in press", "%Tax _%"]
COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]


@dataclass
class Sql:
    """One statement in both dialects."""

    engine: str
    twin: str
    ordered: bool


class Choices:
    """The statement's shape, read from a byte string hypothesis draws:
    each choice takes the next byte (0 once they run out, so shrinking
    toward zero bytes shrinks toward the simplest statement)."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.at = 0

    def below(self, n: int) -> int:
        byte = self.data[self.at] if self.at < len(self.data) else 0
        self.at += 1
        return byte % n

    def pick(self, options):
        return options[self.below(len(options))]

    def chance(self, percent: int) -> bool:
        return self.below(100) < percent


def _sql(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _literal(value) -> str:
    return _sql(value) if isinstance(value, str) else repr(value)


def column(c: Choices, aliases, kinds=None) -> tuple[str, str]:
    options = [
        (alias, name, kind)
        for alias in aliases
        for name, kind in COLUMNS[alias].items()
        if kinds is None or kind in kinds
    ]
    alias, name, kind = c.pick(options)
    return f"{alias}.{name}", kind


def atom(c: Choices, aliases) -> str:
    name, kind = column(c, aliases)
    shape = c.pick(["cmp", "cmp", "between", "in", "null", "like"])
    if shape == "null":
        return f"{name} IS {'NOT ' if c.chance(50) else ''}NULL"
    if shape == "like" and kind in ("str", "text"):
        return f"{name} LIKE {_sql(c.pick(PATTERNS))}"
    literals = LITERALS[kind]
    if shape == "between":
        low, high = sorted([c.pick(literals), c.pick(literals)])
        return f"{name} BETWEEN {_literal(low)} AND {_literal(high)}"
    if shape == "in":
        values = [c.pick(literals) for _ in range(1 + c.below(4))]
        return f"{name} IN ({', '.join(map(_literal, values))})"
    return f"{name} {c.pick(COMPARISONS)} {_literal(c.pick(literals))}"


def predicate(c: Choices, aliases, depth: int = 0) -> str:
    shape = c.below(4) if depth < 2 else 0
    if shape == 0:
        return atom(c, aliases)
    if shape == 1:
        return f"NOT ({predicate(c, aliases, depth + 1)})"
    left = predicate(c, aliases, depth + 1)
    right = predicate(c, aliases, depth + 1)
    return f"({left} {'AND' if shape == 2 else 'OR'} {right})"


def item(c: Choices, aliases) -> tuple[str, str]:
    """A select-list item: (engine text, sqlite text)."""
    name, kind = column(c, aliases)
    if kind in ("id", "int", "float") and c.chance(40):
        op = c.pick(["+", "-", "*", "/"])
        operand = c.pick([2, 3, 1.5])
        twin_operand = f"{operand}.0" if op == "/" and operand != 1.5 else (
            repr(operand)
        )
        return f"{name} {op} {operand}", f"{name} {op} {twin_operand}"
    return name, name


def _order_by(keys) -> tuple[str, str]:
    engine = ", ".join(f"{key}{'' if up else ' DESC'}" for key, up in keys)
    twin = ", ".join(
        f"{key} {'ASC NULLS LAST' if up else 'DESC NULLS FIRST'}"
        for key, up in keys
    )
    return f" ORDER BY {engine}", f" ORDER BY {twin}"


def limit(c: Choices) -> str:
    if c.chance(50):
        return ""
    text = f" LIMIT {c.pick([0, 1, 5, 17, 200, 5000])}"
    if c.chance(50):
        text += f" OFFSET {c.pick([1, 3, 40])}"
    return text


def select(c: Choices) -> Sql:
    source, aliases = c.pick(FROMS)
    where = f" WHERE {predicate(c, aliases)}" if c.chance(80) else ""
    if c.chance(50):
        return grouped(c, source, aliases, where)
    listed = [item(c, aliases) for _ in range(1 + c.below(4))]
    engine = f"SELECT {', '.join(e for e, _ in listed)} FROM {source}{where}"
    twin = f"SELECT {', '.join(t for _, t in listed)} FROM {source}{where}"
    if c.chance(25):
        return Sql(engine, twin, ordered=False)
    keys = [(column(c, aliases)[0], c.chance(50))
            for _ in range(1 + c.below(3))]
    # the primary keys make the order total (a padded row's NULL key
    # follows its probe row's key, which is unique)
    keys += [(f"{alias}.{KEYS[alias]}", True) for alias in aliases]
    order_engine, order_twin = _order_by(keys)
    bound = limit(c)
    return Sql(engine + order_engine + bound, twin + order_twin + bound, True)


def distinct(c: Choices) -> Sql:
    """SELECT DISTINCT, unordered or ordered by every output column."""
    source, aliases = c.pick(FROMS)
    where = f" WHERE {predicate(c, aliases)}" if c.chance(70) else ""
    listed = [item(c, aliases) for _ in range(1 + c.below(3))]
    engine = (
        f"SELECT DISTINCT {', '.join(e for e, _ in listed)} FROM {source}"
        f"{where}"
    )
    twin = (
        f"SELECT DISTINCT {', '.join(t for _, t in listed)} FROM {source}"
        f"{where}"
    )
    return _ordered_by_position(c, engine, twin, len(listed))


#: Single-table sides of a set operation: each output column is one plain
#: column, so equal values compare equal in both engines.
SIDES = [("articles a", ("a",)), ("issues i", ("i",)),
         ("journals j", ("j",))]


def compound(c: Choices) -> Sql:
    """Two SELECTs under UNION, UNION ALL, INTERSECT or EXCEPT."""
    text, width, _kinds = _set_operation(c)
    return _ordered_by_position(c, text, text, width)


def _set_operation(c: Choices, named: bool = False) -> tuple[str, int, list]:
    """Two SELECTs under UNION, UNION ALL, INTERSECT or EXCEPT, their
    width, and the kind of each ``named`` output column.  A numeric
    column meets any numeric one (an int column a float one), a NULL
    literal stands in for a column now and then, and the nullable
    columns put NULLs on both sides.  A ``named`` left side (a derived
    table's) names its columns ``c0``, ``c1``, ... and holds no NULL
    literal, so each output column has a kind."""
    op = c.pick(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"])
    kinds = [
        c.pick([NUMBERS, ("str", "text", "date")])
        for _ in range(1 + c.below(2))
    ]
    sides = []
    named_kinds = []
    for side in range(2):
        source, aliases = c.pick(SIDES)
        items = []
        for n, kind in enumerate(kinds):
            if named and not side:
                name, picked = column(c, aliases, kind)
                items.append(f"{name} AS c{n}")
                named_kinds.append(picked)
            else:
                items.append(
                    "NULL" if c.chance(10) else column(c, aliases, kind)[0]
                )
        where = f" WHERE {predicate(c, aliases)}" if c.chance(70) else ""
        sides.append(f"SELECT {', '.join(items)} FROM {source}{where}")
    return f" {op} ".join(sides), len(kinds), named_kinds


def derived(c: Choices) -> Sql:
    """A derived table (DISTINCT or not, or now and then a set
    operation) in FROM, filtered on its columns and joined to a table on
    one of them."""
    if c.chance(25):
        inner, _width, kinds = _set_operation(c, named=True)
    else:
        source, aliases = c.pick(FROMS)
        columns = list(dict.fromkeys(
            column(c, aliases) for _ in range(1 + c.below(3))
        ))
        inner = (
            f"SELECT {'DISTINCT ' if c.chance(40) else ''}"
            + ", ".join(
                f"{name} AS c{n}" for n, (name, _) in enumerate(columns)
            )
            + f" FROM {source}"
            + (f" WHERE {predicate(c, aliases)}" if c.chance(60) else "")
        )
        kinds = [kind for _, kind in columns]
    outputs = [f"d.c{n}" for n in range(len(kinds))]
    tail = ""
    numeric = [n for n, kind in enumerate(kinds) if kind in NUMBERS]
    if numeric and c.chance(70):
        tail += f" JOIN issues x ON x.issue_id = d.c{c.pick(numeric)}"
        outputs.append("x.volume")
    n = c.below(len(kinds))
    if c.chance(70):
        tail += (
            f" WHERE d.c{n} {c.pick(COMPARISONS)} "
            f"{_literal(c.pick(LITERALS[kinds[n]]))}"
        )
    text = f"SELECT {', '.join(outputs)} FROM ({inner}) d{tail}"
    return _ordered_by_position(c, text, text, len(outputs))


def _ordered_by_position(c: Choices, engine: str, twin: str, width: int) -> Sql:
    """Unordered, or ordered by every output column (a total order up to
    identical rows) and bounded by a LIMIT."""
    if c.chance(50):
        return Sql(engine, twin, ordered=False)
    order_engine, order_twin = _order_by(
        [(str(position), c.chance(50)) for position in range(1, width + 1)]
    )
    bound = limit(c)
    return Sql(engine + order_engine + bound, twin + order_twin + bound, True)


def statement(c: Choices) -> Sql:
    shape = c.below(8)
    if shape == 0:
        return distinct(c)
    if shape == 1:
        return compound(c)
    if shape == 2:
        return derived(c)
    return select(c)


def joined_arithmetic(c: Choices, aliases) -> str:
    """Arithmetic of a numeric column of the first table and one of a
    table joined to it."""
    left = column(c, aliases[:1], ("int", "flag", "float"))[0]
    right = column(c, aliases[1:], ("int", "flag", "float"))[0]
    return c.pick([f"{left} * (1 + {right} * 0.05)", f"{left} - {right} * 2.5"])


def grouped(c: Choices, source, aliases, where) -> Sql:
    joined = len(aliases) > 1
    group_keys = []
    for _ in range(1 + c.below(2)):
        # over a join, a key from the joined side half the time
        scope = aliases[1:] if joined and c.chance(50) else aliases
        key, kind = column(c, scope, ("int", "flag", "str", "date"))
        if kind in ("int", "flag") and c.chance(25):
            # an expression key, read back by its rendering above the
            # Aggregate in the select list and ORDER BY
            key = f"{key} {c.pick(['+', '-', '*'])} {c.pick([1, 3])}"
        if key not in group_keys:
            group_keys.append(key)
    aggregates = ["COUNT(*)"]
    numeric = ["COUNT(*)"]  # HAVING compares these with a number
    for _ in range(1 + c.below(3)):
        name = c.pick(["COUNT", "SUM", "AVG", "MIN", "MAX"])
        if joined and c.chance(30):
            argument, kind = joined_arithmetic(c, aliases), "float"
        else:
            kinds = NUMBERS if name in ("SUM", "AVG") else None
            argument, kind = column(c, aliases, kinds)
        aggregates.append(f"{name}({argument})")
        if name == "COUNT" or kind in NUMBERS:
            numeric.append(aggregates[-1])
    text = (
        f"SELECT {', '.join(group_keys + aggregates)} FROM {source}{where} "
        f"GROUP BY {', '.join(group_keys)}"
    )
    if c.chance(40):
        text += (
            f" HAVING {c.pick(numeric)} {c.pick(['>', '<=', '<>'])} "
            f"{c.pick([1, 3, 25])}"
        )
    if c.chance(40):
        return Sql(text, text, ordered=False)
    # the group keys are unique per group: a total order
    order_engine, order_twin = _order_by(
        [(key, c.chance(50)) for key in group_keys]
    )
    bound = limit(c)
    return Sql(text + order_engine + bound, text + order_twin + bound, True)


# -- the check --------------------------------------------------------------------


@pytest.fixture(scope="module")
def databases():
    rows = generate_rows()
    assert len(rows["articles"]) >= LANE_ROWS  # the lanes exist
    db = connect(with_crowd=False)
    for statement in DDL:
        db.execute(statement)
    for table, table_rows in rows.items():
        for row in table_rows:
            db.engine.insert(table, list(row))
    twin = open_twin(TWIN_DDL, rows)
    twin.execute(DIALECT["like"])
    yield db, twin
    twin.close()
    db.close()


def _check(databases, examples: int) -> None:
    db, twin = databases

    @settings(
        max_examples=examples,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.binary(min_size=64, max_size=64))
    def agree(data: bytes) -> None:
        sql = statement(Choices(data))
        ours = db.execute(sql.engine).rows
        theirs = twin.execute(sql.twin).fetchall()
        assert same_rows(ours, theirs, sql.ordered), (
            f"{sql.engine}\n  ours:   {ours[:8]}\n  sqlite: {theirs[:8]}"
        )

    agree()


def test_generated_selects_match_sqlite(databases):
    _check(databases, 160)


def test_generated_selects_match_sqlite_in_small_batches(databases):
    # scans cut into 300-row batches: sorts and folds over several
    with mock.patch.object(vectorized_ops, "VECTOR_ROWS", 300):
        _check(databases, 60)
