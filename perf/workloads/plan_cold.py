"""``plan_cold`` — textually distinct 6-relation joins over a toy star schema.

*Why it exists.*  It is the counterpart of ``olap_scan``: tables are tiny
(600 publications), so ``exec`` is small, and every statement inlines its
literals, so the SQL-text parse memo and the 64-entry plan cache both miss
on each of the ~3300 statements.  ``sql.parse`` + ``plan.build`` +
``optimizer.optimize`` (DPsize over six relations, histogram estimates) are
most of each statement.  A parser, optimizer or plan-cache change must show
here; an ``exec`` optimisation must show *no change*.

*Loads:* ``sql`` (lexer, parser), ``plan`` (builder, binder, cardinality),
``optimizer`` (join ordering, pushdown, cost), ``engine`` (physical
planning).

*Bypasses:* the parse and plan caches (by construction), ``storage`` beyond
a few hundred rows, ``crowd``/``ui``, ``net``/``server``, WAL.

One closed-loop client, in-process, ``with_crowd=False``.  The E16 schema
(pub -> prof -> inst, venue, topic, LEFT JOIN curation) with ANALYZE-built
statistics.  Three statement shapes, each fully ordered so the sqlite twin
can be compared row by row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional

from repro import connect

from perf.harness import Outcome, Statement, exact_mix, run_single_client
from perf.trace import Tracer
from perf.twin import open_twin, same_rows

PUBS = 600
PROFS = 120
VENUES = 40
TOPICS = 20
INSTS = 12
STATEMENTS = 3_300  # at REFERENCE_SECONDS

DDL = (
    "CREATE TABLE topic (id INTEGER PRIMARY KEY, name STRING)",
    "CREATE TABLE inst (id INTEGER PRIMARY KEY, name STRING, region STRING)",
    "CREATE TABLE venue (id INTEGER PRIMARY KEY, name STRING)",
    "CREATE TABLE prof (id INTEGER PRIMARY KEY, name STRING, "
    "inst_id INTEGER, h_index INTEGER)",
    "CREATE TABLE pub (id INTEGER PRIMARY KEY, prof_id INTEGER, "
    "venue_id INTEGER, topic_id INTEGER, cites INTEGER)",
    "CREATE TABLE curation (pub_id INTEGER PRIMARY KEY, status STRING)",
)
TWIN_DDL = tuple(statement.replace("STRING", "TEXT") for statement in DDL)

_JOINS = (
    "FROM pub pb JOIN prof pr ON pb.prof_id = pr.id "
    "JOIN venue v ON pb.venue_id = v.id "
    "JOIN topic t ON pb.topic_id = t.id "
    "JOIN inst i ON pr.inst_id = i.id "
    "LEFT JOIN curation c ON c.pub_id = pb.id "
)
SHAPES = {
    "by_region": (
        "SELECT i.region, COUNT(*), SUM(pb.cites), MAX(pr.h_index) "
        + _JOINS
        + "WHERE pr.h_index < {h} AND pb.cites >= {c} AND t.id < {t} "
        "GROUP BY i.region ORDER BY i.region"
    ),
    "by_topic": (
        "SELECT t.name, COUNT(c.pub_id), AVG(pb.cites) "
        + _JOINS
        + "WHERE v.id < {v} AND pb.id >= {p} AND pr.h_index >= {h} "
        "GROUP BY t.name ORDER BY t.name"
    ),
    "listing": (
        "SELECT pr.name, v.name, pb.id, c.status "
        + _JOINS
        + "WHERE pr.h_index < {h} AND pb.cites > {c} AND i.id < {i} "
        "ORDER BY pb.id LIMIT {k}"
    ),
}


@dataclass
class Inputs:
    tables: dict[str, list[tuple]]
    statements: list[Statement]


@dataclass
class State:
    db: Any


def generate(seed: int, scale: float, smoke: bool = False) -> Inputs:
    rng = random.Random(seed)
    regions = ("NA", "EU", "ASIA")
    tables = {
        "topic": [(i, f"topic{i:02d}") for i in range(TOPICS)],
        "inst": [
            (i, f"inst{i:02d}", regions[i % len(regions)])
            for i in range(INSTS)
        ],
        "venue": [(i, f"venue{i:03d}") for i in range(VENUES)],
        "prof": [
            (i, f"prof{i:04d}", rng.randrange(INSTS), rng.randrange(50))
            for i in range(PROFS)
        ],
        "pub": [
            (i, rng.randrange(PROFS), rng.randrange(VENUES),
             rng.randrange(TOPICS), rng.randrange(400))
            for i in range(PUBS)
        ],
        "curation": [
            (i, "approved" if rng.random() < 0.3 else "pending")
            for i in range(0, PUBS, 7)
        ],
    }
    seen: set[str] = set()
    statements: list[Statement] = []
    shares = {kind: 1 / len(SHAPES) for kind in SHAPES}
    for kind in exact_mix(rng, max(12, round(STATEMENTS * scale)), shares):
        while True:
            sql = SHAPES[kind].format(
                h=rng.randrange(5, 50), c=rng.randrange(0, 300),
                t=rng.randrange(4, TOPICS + 1), v=rng.randrange(5, VENUES + 1),
                p=rng.randrange(0, PUBS // 2), i=rng.randrange(3, INSTS + 1),
                k=rng.randrange(5, 40),
            )
            if sql not in seen:  # textually distinct, so both caches miss
                break
        seen.add(sql)
        statements.append(Statement(sql, (), kind))
    return Inputs(tables, statements)


def setup(inputs: Inputs, workdir: str) -> State:
    db = connect(with_crowd=False)
    for statement in DDL:
        db.execute(statement)
    for name, rows in inputs.tables.items():
        for row in rows:
            db.engine.insert(name, row)
    db.execute("ANALYZE")
    return State(db)


def run(state: State, inputs: Inputs, tracer: Optional[Tracer]) -> Outcome:
    return run_single_client(state.db.execute, inputs.statements, tracer)


def finish(state: State, inputs: Inputs, outcome: Outcome) -> dict:
    return {}


def check(inputs: Inputs, outcome: Outcome) -> None:
    twin = open_twin(TWIN_DDL, inputs.tables)
    try:
        for index, (statement, result) in enumerate(
            zip(inputs.statements, outcome.results)
        ):
            if index in outcome.failed:
                continue
            expected = twin.execute(statement.sql).fetchall()
            if not same_rows(result.rows, expected):
                outcome.failed.add(index)
    finally:
        twin.close()


def close(state: State) -> None:
    state.db.close()
