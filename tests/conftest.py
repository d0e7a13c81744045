"""Shared fixtures for the CrowdDB reproduction test suite."""

from __future__ import annotations

import contextlib
import json
import random
import warnings
from pathlib import Path
from unittest import mock

import pytest

from repro import connect
from repro.api import Connection
from repro.crowd.platform import PlatformRegistry
from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn
from repro.crowd.sim.traces import GroundTruthOracle
from repro.crowd.task_manager import CrowdConfig, TaskManager
from repro.errors import UnboundedQueryWarning
from repro.plan.binder import Binder
from repro.storage.engine import StorageEngine
from repro.ui.manager import UITemplateManager

def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "concurrency: race/cancellation tests exercising real threads "
        "(CI runs them in the tier-1 step, under -X dev and a timeout)",
    )


TALK_DDL = """CREATE TABLE Talk (
    title STRING PRIMARY KEY,
    abstract CROWD STRING,
    nb_attendees CROWD INTEGER
)"""

ATTENDEE_DDL = """CREATE CROWD TABLE NotableAttendee (
    name STRING PRIMARY KEY,
    title STRING,
    FOREIGN KEY (title) REF Talk(title)
)"""


#: Scan-filter-join-aggregate-order over the order book: BETWEEN, LIKE and
#: arithmetic conjuncts, computed aggregate arguments.  The statement the
#: execution-path differential tests and the observability overhead
#: ceiling run on; ``perf/workloads/olap_scan.py`` times the same shape at
#: 100k rows.
ORDER_BOOK_QUERY = """
SELECT c.region,
       COUNT(*),
       SUM(o.amount),
       AVG(o.amount * (1 + o.priority * 0.05)),
       MAX(o.amount - o.priority * 2.5)
FROM orders o JOIN customers c ON o.customer_id = c.id
WHERE o.amount BETWEEN 20 AND 450
  AND o.status LIKE 'ship%'
  AND o.priority >= 1
  AND o.amount * 1.08 < 470
GROUP BY c.region
ORDER BY SUM(o.amount) DESC
"""


def load_order_book(db: Connection, orders: int = 5_000,
                    customers: int = 100) -> None:
    """Create and fill ``customers`` and ``orders`` from a fixed seed.

    Rows go through ``engine.insert`` (typed, indexed, statistics
    maintained) rather than INSERT statements, which would spend the
    load parsing."""
    db.execute(
        "CREATE TABLE customers (id INTEGER PRIMARY KEY, "
        "name STRING, region STRING)"
    )
    db.execute(
        "CREATE TABLE orders (id INTEGER PRIMARY KEY, customer_id INTEGER, "
        "amount FLOAT, status STRING, priority INTEGER)"
    )
    rng = random.Random(14)
    regions = ["west", "east", "north", "south", "central"]
    statuses = ["shipped", "shipping", "pending", "cancelled", "returned"]
    for i in range(customers):
        db.engine.insert(
            "customers", [i, f"cust{i:04d}", regions[i % len(regions)]]
        )
    for i in range(orders):
        db.engine.insert(
            "orders",
            [
                i,
                rng.randrange(customers),
                round(rng.uniform(1, 500), 2),
                statuses[rng.randrange(len(statuses))],
                rng.randrange(5),
            ],
        )


@pytest.fixture
def order_book():
    """``(load, query)``: :func:`load_order_book` and the statement to
    run over what it loads."""
    return load_order_book, ORDER_BOOK_QUERY


# -- reference engine --------------------------------------------------------------
#
# The engine has one configuration; the differential tests compare it with
# the row operators reached through this seam.  The fixture returns a
# context manager: statements compiled *and* run inside it use the row
# operators, statements outside it the default path.  Build a fresh
# connection inside the block — a plan cached outside it keeps its
# bindings.  (The AST interpreter, the reference for compiled
# expressions, is gone; ``expr_golden`` below holds what it returned.
# So are the row joins, and the row DISTINCT, set operation and
# derived-table operators; ``row_joins`` and ``row_sets`` hold what they
# returned.)


@contextlib.contextmanager
def _row_engine():
    # the binder marks no node, so every scan, filter, projection and
    # limit runs on the row operators; a join, an Aggregate, an
    # electronic Sort, a DISTINCT, a set operation or a derived table
    # has none and runs on its batch operator over their rows
    with mock.patch.object(Binder, "bind", lambda self, plan: {}):
        yield


@pytest.fixture
def row_engine():
    """``with row_engine(): ...`` runs plans on the row operators with
    compiled closures — the reference for columnar execution."""
    return _row_engine


#: What the AST interpreter returned, captured before it left ``src/``:
#: the differential corpus of ``tests/test_compiled_expressions.py`` and
#: every whole-statement comparison that once ran under the interpreter.
#: ``python tests/test_compiled_expressions.py`` rewrites it -- only at
#: the parent of a change meant to alter expression results.
EXPR_GOLDEN = Path(__file__).parent / "golden" / "expr_v1.jsonl"


#: What the row join operators returned, captured before they left
#: ``src/``: the records of ``tests/golden/rowjoin_v1.jsonl`` with a
#: ``suite`` (see ``tests/test_rowagg.py``, which rewrites the file).
ROWJOIN_GOLDEN = Path(__file__).parent / "golden" / "rowjoin_v1.jsonl"

#: What the row DISTINCT, set operation and derived-table operators
#: returned: the records of ``tests/golden/rowset_v1.jsonl`` with a
#: ``suite`` (see ``tests/test_rowagg.py``).
ROWSET_GOLDEN = Path(__file__).parent / "golden" / "rowset_v1.jsonl"


def frozen_suites(path: Path) -> dict:
    """``{suite: {sql: repr}}`` from the records of ``path`` with a
    ``suite``."""
    suites: dict = {}
    with open(path, encoding="utf-8") as handle:
        for record in map(json.loads, handle):
            if "suite" in record:
                suites.setdefault(record["suite"], {})[record["sql"]] = (
                    record["repr"]
                )
    return suites


@pytest.fixture(scope="session")
def row_joins():
    """``{suite: {sql: repr of (columns, rows)}}`` from the row joins."""
    return frozen_suites(ROWJOIN_GOLDEN)


@pytest.fixture(scope="session")
def row_sets():
    """``{suite: {sql: repr}}`` from the row DISTINCT, set operation and
    derived-table operators."""
    return frozen_suites(ROWSET_GOLDEN)


@pytest.fixture(scope="session")
def expr_golden():
    """The records of ``tests/golden/expr_v1.jsonl`` by name."""
    with open(EXPR_GOLDEN, encoding="utf-8") as handle:
        return {
            record["name"]: record for record in map(json.loads, handle)
        }


@pytest.fixture
def near_perfect_crowd():
    """Factory ``(oracle, seed=11, **connect_keywords) -> Connection`` over
    a simulated AMT whose workers are pinned near-perfect.

    For tests that compare *schedules* (serial against concurrent, TCP
    against in-process): the runs interleave marketplace events
    differently under one seed, so only a crowd that does not err makes
    their answers identical.  Noisy crowds are the quality tests' job."""
    from repro.crowd.model import reset_id_counters
    from repro.crowd.sim.amt import SimulatedAMT
    from repro.crowd.sim.behavior import BehaviorConfig
    from repro.crowd.sim.population import generate_population

    def build(oracle: GroundTruthOracle, seed: int = 11, **kwargs) -> Connection:
        reset_id_counters()
        platform = SimulatedAMT(
            oracle,
            workers=generate_population(
                200, seed=seed, skill_range=(0.995, 1.0), id_prefix="amt-"
            ),
            seed=seed,
            config=BehaviorConfig(base_accuracy=0.999),
        )
        return connect(
            oracle=oracle,
            seed=seed,
            platforms=(platform,),
            default_platform="amt",
            **kwargs,
        )

    return build


@pytest.fixture(autouse=True)
def _silence_unbounded_warnings():
    """Unbounded-query warnings are expected in many tests."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnboundedQueryWarning)
        yield


@pytest.fixture
def plain_db() -> Connection:
    """A crowd-less CrowdDB connection (traditional database)."""
    return connect(with_crowd=False)


@pytest.fixture
def demo_oracle() -> GroundTruthOracle:
    """Ground truth for the paper's running example (VLDB talks)."""
    oracle = GroundTruthOracle()
    for title, abstract, attendees in [
        ("CrowdDB", "CrowdDB answers queries with crowdsourcing.", 120),
        ("Qurk", "Qurk is a query processor for human operators.", 80),
        ("PIQL", "PIQL provides scale-independent queries.", 60),
    ]:
        oracle.load_fill(
            "Talk", (title,), {"abstract": abstract, "nb_attendees": attendees}
        )
    oracle.load_new_tuples(
        "NotableAttendee",
        [
            {"name": "Mike Franklin", "title": "CrowdDB"},
            {"name": "Donald Kossmann", "title": "CrowdDB"},
            {"name": "Sam Madden", "title": "Qurk"},
        ],
        fixed_columns=("title",),
    )
    oracle.declare_same_entity(
        "I.B.M.", "IBM", "International Business Machines"
    )
    oracle.load_ranking(
        "Which talk did you like better",
        {"CrowdDB": 3.0, "Qurk": 2.0, "PIQL": 1.0},
    )
    return oracle


@pytest.fixture
def scripted_db(demo_oracle) -> Connection:
    """CrowdDB over a perfect, instantaneous scripted crowd."""
    platform = ScriptedPlatform(oracle_answer_fn(demo_oracle))
    return connect(
        oracle=demo_oracle,
        platforms=(platform,),
        default_platform="scripted",
    )


@pytest.fixture
def sim_db(demo_oracle) -> Connection:
    """CrowdDB over the simulated AMT + mobile platforms."""
    return connect(oracle=demo_oracle, seed=1234)


@pytest.fixture
def demo_db(scripted_db) -> Connection:
    """Scripted connection with the demo schema and talks loaded."""
    scripted_db.execute(TALK_DDL)
    scripted_db.execute(ATTENDEE_DDL)
    scripted_db.execute(
        "INSERT INTO Talk (title) VALUES ('CrowdDB'), ('Qurk'), ('PIQL')"
    )
    return scripted_db


def _crowd_answer(manager, future):
    manager.wait(future)
    return future.result()


@pytest.fixture
def crowd_answer():
    """``crowd_answer(manager, future)``: wait for one crowd future on the
    serial path and return its answer."""
    return _crowd_answer


@pytest.fixture
def scripted_task_manager(demo_oracle):
    """A TaskManager wired to a scripted platform (no SQL involved)."""
    registry = PlatformRegistry()
    registry.register(ScriptedPlatform(oracle_answer_fn(demo_oracle)))
    engine = StorageEngine()
    ui = UITemplateManager(engine.catalog)
    return TaskManager(registry, ui, config=CrowdConfig(replication=3))
