"""``olap_scan`` — analytic statements over a 100k-row order book.

*Why it exists.*  It is the workload on which an execution-path change must
show: collapsing the three expression evaluators, making columns the
resident format, or FDB-style eager aggregation below the join.  Nearly all
of a statement's wall is ``exec`` kernels and ``storage.scan_columns``.

*Loads:* ``exec`` (vectorized scan/filter/hash-join/aggregate, sort,
batch-to-rows), ``storage`` (column pivot cache, warm after the first scan),
``engine`` (physical planning, result materialization).

*Bypasses:* ``sql`` and ``optimizer`` (four statement shapes, parameterised,
so the parse memo and the 64-entry plan cache hit every time after the
first), ``crowd``/``ui`` (``with_crowd=False``), ``net``/``server``
(in-process), WAL (not durable).  The prediction for a parser, optimizer,
crowd or wire change is *no move* here.

One closed-loop client.  The E19 schema: ``orders`` x ``customers`` loaded
with ``engine.insert`` during set-up.  Mix: 55% filter-join-group-order
aggregate, 15% wide projection (about 60% of ``orders`` returned), 15% top-k
``ORDER BY .. LIMIT``, 15% ``LEFT JOIN .. GROUP BY .. HAVING``.  Parameters
come from a small seed-drawn pool per shape, so the sqlite twin answers each
distinct statement once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional

from repro import connect

from perf.harness import Outcome, Statement, exact_mix, run_single_client
from perf.trace import Tracer
from perf.twin import open_twin, same_rows

ORDERS = 100_000
CUSTOMERS = 1_000
STATEMENTS = 405  # at REFERENCE_SECONDS
PARAMETER_SETS = 6  # distinct bindings per shape
MIX = {
    "aggregate": 0.55, "projection": 0.15, "top_k": 0.15,
    "left_join_having": 0.15,
}

REGIONS = ("west", "east", "north", "south", "central")
STATUSES = ("shipped", "shipping", "pending", "cancelled", "returned")

DDL = (
    "CREATE TABLE customers (id INTEGER PRIMARY KEY, name STRING, "
    "region STRING)",
    "CREATE TABLE orders (id INTEGER PRIMARY KEY, customer_id INTEGER, "
    "amount FLOAT, status STRING, priority INTEGER)",
)
TWIN_DDL = tuple(
    statement.replace("STRING", "TEXT").replace("FLOAT", "REAL")
    for statement in DDL
)

AGGREGATE = (
    "SELECT c.region, COUNT(*), SUM(o.amount), "
    "AVG(o.amount * (1 + o.priority * 0.05)), "
    "MAX(o.amount - o.priority * 2.5) "
    "FROM orders o JOIN customers c ON o.customer_id = c.id "
    "WHERE o.amount BETWEEN ? AND ? AND o.status LIKE 'ship%' "
    "AND o.priority >= ? AND o.amount * 1.08 < 470 "
    "GROUP BY c.region ORDER BY c.region"
)
PROJECTION = (
    "SELECT o.id, o.customer_id, o.amount, o.status, o.priority "
    "FROM orders o WHERE o.amount > ?"
)
TOP_K = (
    "SELECT o.id, o.amount FROM orders o WHERE o.priority = ? "
    "ORDER BY o.amount DESC, o.id LIMIT {k}"  # LIMIT takes a literal only
)
LEFT_JOIN_HAVING = (
    "SELECT c.id, COUNT(o.id), SUM(o.amount) "
    "FROM customers c LEFT JOIN orders o ON o.customer_id = c.id "
    "WHERE c.region = ? GROUP BY c.id HAVING COUNT(o.id) > ? ORDER BY c.id"
)


@dataclass
class Inputs:
    customers: list[tuple]
    orders: list[tuple]
    statements: list[Statement]


@dataclass
class State:
    db: Any


def generate(seed: int, scale: float, smoke: bool = False) -> Inputs:
    rng = random.Random(seed)
    orders = 2_000 if smoke else ORDERS
    customers = 100 if smoke else CUSTOMERS
    customer_rows = [
        (i, f"cust{i:04d}", REGIONS[i % len(REGIONS)])
        for i in range(customers)
    ]
    order_rows = [
        (
            i,
            rng.randrange(customers),
            round(rng.uniform(1, 500), 2),
            STATUSES[rng.randrange(len(STATUSES))],
            rng.randrange(5),
        )
        for i in range(orders)
    ]
    per_customer = orders // customers
    # bindings vary within a few percent of selectivity, so a statement's
    # cost depends on its shape, not on which seed drew its parameters
    pools = {
        "aggregate": [
            (AGGREGATE, (rng.randrange(18, 23), rng.randrange(446, 451),
                         rng.choice((1, 1, 2))))
            for _ in range(PARAMETER_SETS)
        ],
        "projection": [
            (PROJECTION, (float(rng.randrange(195, 206)),))
            for _ in range(PARAMETER_SETS)
        ],
        "top_k": [
            (TOP_K.format(k=rng.choice((10, 20, 50))), (rng.randrange(5),))
            for _ in range(PARAMETER_SETS)
        ],
        "left_join_having": [
            (LEFT_JOIN_HAVING, (rng.choice(REGIONS),
                                per_customer - rng.randrange(15)))
            for _ in range(PARAMETER_SETS)
        ],
    }
    statements = []
    for kind in exact_mix(rng, max(12, round(STATEMENTS * scale)), MIX):
        sql, params = rng.choice(pools[kind])
        statements.append(
            Statement(sql, params, kind, ordered=kind != "projection")
        )
    return Inputs(customer_rows, order_rows, statements)


def setup(inputs: Inputs, workdir: str) -> State:
    db = connect(with_crowd=False)
    for statement in DDL:
        db.execute(statement)
    insert = db.engine.insert
    for row in inputs.customers:
        insert("customers", row)
    for row in inputs.orders:
        insert("orders", row)
    return State(db)


def run(state: State, inputs: Inputs, tracer: Optional[Tracer]) -> Outcome:
    return run_single_client(
        state.db.execute, inputs.statements, tracer, share_repeats=True
    )


def finish(state: State, inputs: Inputs, outcome: Outcome) -> dict:
    return {}


def check(inputs: Inputs, outcome: Outcome) -> None:
    twin = open_twin(
        TWIN_DDL, {"customers": inputs.customers, "orders": inputs.orders}
    )
    try:
        for index, (statement, result) in enumerate(
            zip(inputs.statements, outcome.results)
        ):
            if result is None or index in outcome.failed:
                continue  # a repeat, already compared with its first run
            expected = twin.execute(statement.sql, statement.params).fetchall()
            if not same_rows(result.rows, expected, statement.ordered):
                outcome.failed.add(index)
    finally:
        twin.close()
    # a repeat equals its first run, so it is wrong when that one is
    first: dict[tuple, int] = {}
    for index, statement in enumerate(inputs.statements):
        origin = first.setdefault((statement.sql, statement.params), index)
        if origin in outcome.failed:
            outcome.failed.add(index)


def close(state: State) -> None:
    state.db.close()
