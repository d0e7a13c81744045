"""``crowd_mix`` — CrowdSQL against the default, noisy simulated AMT.

*Why it exists.*  What a CrowdDB user pays for here is not CPU: it is
cents, simulated hours and answer quality, and those repeat exactly for a
seed.  The wall that *is* spent goes to ``crowd`` (task manager, voting,
the simulated marketplace's event loop) and ``ui`` (one form instantiated
per HIT).  Breaking up the task manager, or any change to batching,
replication or caching, must show here — in cents and rounds if it changes
behaviour, in throughput if it only changes cost per HIT.

*Loads:* ``crowd`` (begin/wait/settle, majority voting, sim platform),
``ui`` (form instantiation), ``engine`` (CrowdProbe, crowd compare/order
operators), ``storage`` lightly (memorized answers).

*Bypasses:* ``exec`` kernels (crowd operators run row-at-a-time), ``net``/
``server``, WAL.  An ``exec`` or wire change is predicted flat.

One closed-loop client, in-process, ``replication=3``, platforms seeded from
``--seed`` over one worker population (see ``_database``).  The phase is a number of *rounds*, each on a database of its
own: 1000 professors with two CROWD columns, 10 company names, 40 pictures,
and 120 statements — 70% keyed CrowdProbe fills (a professor not asked
before), 15% 50-row window fill scans over disjoint blocks, 5%
``CROWDEQUAL`` / ``CROWDORDER`` (full and ``LIMIT 5``), 10% repeats of a
statement already answered, which must buy nothing (the paper's "never
repurchase answered work").  ``--seconds`` sets how many rounds, never how
long one is, and every round of every seed has its kinds in the same order:
what a statement costs here depends on how many HITs the database has
posted before it (the simulated marketplace walks all of them), so the
n-th statement of a round meets the same amount of earlier work whichever
seed drew its parameters.  The seed draws the parameters — which professor,
block, repeat — and the noisy crowd's answers.

Why rounds rather than one long script: a probe costs 2 ms on an empty
marketplace and 11 ms after 2000 HITs, and each wrong answer a worker makes
up costs another scan of the oracle, so over one database the probes'
latencies spread from 2 to 30 ms and the median of 170 of them moved by a
fifth from seed to seed.  Several rounds give several probes at each point
of that climb, and a longer run does not climb further.

Crowd answers are noisy by design, so a wrong value is not a failed
operation; it lowers ``crowd_accuracy``, scored against the
``GroundTruthOracle`` the workers draw from.  A failed operation is an
exception, a partial result, or a repeat that differs from its first answer
or pays for a single assignment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional

from repro import CrowdConfig, connect
from repro.crowd.model import reset_id_counters
from repro.crowd.sim.amt import SimulatedAMT
from repro.crowd.sim.population import generate_population
from repro.crowd.sim.traces import GroundTruthOracle

from perf.harness import Outcome, Statement, exact_mix, run_single_client
from perf.trace import Tracer

ROUNDS = 4  # at REFERENCE_SECONDS
ROUND_STATEMENTS = 120
PROFESSORS = 1_000  # per round: every window a fresh block, every probe a new name
PICTURES = 40
WINDOW = 50
WORKERS = 200  # SimulatedAMT's default population size
SHAPE_SEED = 0  # the order of kinds within a round, the same for every seed
ROUND_SEED_STRIDE = 1_000  # platform seed of round r: seed * stride + r
REPLICATION = 3
QUESTION = "Which picture is better?"
MIX = {"probe": 0.70, "window": 0.15, "compare": 0.05, "repeat": 0.10}
DEPARTMENTS = ("EECS", "Statistics", "Biology", "Chemistry", "History")
#: ten surface forms of four real companies
COMPANIES = {
    "IBM": ("I.B.M.", "International Business Machines", "ibm corp"),
    "Microsoft": ("MSFT", "Microsoft Corporation", "microsoft corp."),
    "Oracle": ("Oracle Corp", "ORCL"),
    "HP": ("Hewlett-Packard", "H.P."),
}

DDL = (
    "CREATE TABLE Professor (name STRING PRIMARY KEY, "
    "department CROWD STRING, email CROWD STRING)",
    "CREATE TABLE Company (name STRING PRIMARY KEY)",
    "CREATE TABLE Picture (name STRING PRIMARY KEY)",
)
PROBE = "SELECT department, email FROM Professor WHERE name = ?"
WINDOW_SCAN = (
    "SELECT name, department FROM Professor WHERE name >= ? AND name < ?"
)
EQUAL = "SELECT name FROM Company WHERE CROWDEQUAL(name, ?)"
ORDER_ALL = f"SELECT name FROM Picture ORDER BY CROWDORDER(name, '{QUESTION}')"
ORDER_TOP = ORDER_ALL + " LIMIT 5"


def _professor(i: int) -> str:
    return f"prof{i:04d}"


@dataclass
class Inputs:
    seed: int
    professors: int  # per round
    rounds: list[list[Statement]]
    repeat_of: dict[int, int]  # statement index -> the one it repeats

    @property
    def statements(self) -> list[Statement]:
        return [s for statements in self.rounds for s in statements]


@dataclass
class State:
    dbs: list[Any]  # one database per round


def _truth(i: int) -> tuple[str, str]:
    return DEPARTMENTS[i % len(DEPARTMENTS)], f"prof{i:04d}@univ.edu"


def _round(
    rng: random.Random, kinds: list[str], professors: int, base: int,
    repeat_of: dict[int, int],
) -> list[Statement]:
    """One round's statements; ``base`` is the index of its first one."""
    # probes ask for professors nobody asked for yet and windows are
    # disjoint blocks, so every round buys the same amount of crowd work
    unasked = list(range(professors))
    rng.shuffle(unasked)
    blocks = list(range(0, professors - WINDOW + 1, WINDOW))
    rng.shuffle(blocks)
    compare = [
        Statement(EQUAL, (target,), "equal") for target in COMPANIES
    ] + [Statement(ORDER_ALL, (), "order_all"), Statement(ORDER_TOP, (), "order_top")]
    statements: list[Statement] = []
    compared = 0
    for kind in kinds:
        if kind == "repeat" and statements:
            origin = base + rng.randrange(len(statements))
            origin = repeat_of.get(origin, origin)
            repeat_of[base + len(statements)] = origin
            first = statements[origin - base]
            statements.append(Statement(first.sql, first.params, "repeat"))
        elif kind == "compare":
            statements.append(compare[compared % len(compare)])
            compared += 1
        elif kind == "window" and blocks:
            low = blocks.pop()
            statements.append(Statement(
                WINDOW_SCAN, (_professor(low), _professor(low + WINDOW)),
                "window"))
        else:
            statements.append(
                Statement(PROBE, (_professor(unasked.pop()),), "probe"))
    return statements


def generate(seed: int, scale: float, smoke: bool = False) -> Inputs:
    rng = random.Random(seed)
    professors = 400 if smoke else PROFESSORS
    kinds = exact_mix(
        random.Random(SHAPE_SEED), 12 if smoke else ROUND_STATEMENTS, MIX
    )
    repeat_of: dict[int, int] = {}
    rounds: list[list[Statement]] = []
    for _ in range(1 if smoke else max(1, round(ROUNDS * scale))):
        rounds.append(
            _round(rng, kinds, professors, len(rounds) * len(kinds), repeat_of)
        )
    return Inputs(seed, professors, rounds, repeat_of)


def _oracle(professors: int) -> GroundTruthOracle:
    oracle = GroundTruthOracle()
    for i in range(professors):
        department, email = _truth(i)
        oracle.load_fill(
            "Professor", (_professor(i),),
            {"department": department, "email": email},
        )
    for canonical, variants in COMPANIES.items():
        oracle.declare_same_entity(canonical, *variants)
    oracle.load_ranking(
        QUESTION, {f"picture{i:02d}": float(i) for i in range(PICTURES)}
    )
    return oracle


def _database(professors: int, platform_seed: int) -> Any:
    oracle = _oracle(professors)
    # the marketplace's default behaviour and size, but one population for
    # every seed (``generate_population``'s own default seed): worker
    # activity is Pareto-distributed, and a seed that draws one worker with
    # 70% of all visits doubles a round's wall — that worker has done every
    # open HIT already and keeps dropping by — for the same HITs, cents and
    # assignments.  The seed drives arrivals, acceptances and answers.
    platform = SimulatedAMT(
        oracle, workers=generate_population(WORKERS, id_prefix="amt-"),
        seed=platform_seed,
    )
    db = connect(
        oracle=oracle, platforms=(platform,), default_platform="amt",
        crowd_config=CrowdConfig(replication=REPLICATION),
    )
    for statement in DDL:
        db.execute(statement)
    for i in range(professors):
        db.execute("INSERT INTO Professor (name) VALUES (?)", (_professor(i),))
    for variants in COMPANIES.values():
        for name in variants:
            db.execute("INSERT INTO Company (name) VALUES (?)", (name,))
    for i in range(PICTURES):
        db.execute(
            "INSERT INTO Picture (name) VALUES (?)", (f"picture{i:02d}",)
        )
    return db


def setup(inputs: Inputs, workdir: str) -> State:
    reset_id_counters()
    return State([
        _database(inputs.professors, inputs.seed * ROUND_SEED_STRIDE + r)
        for r in range(len(inputs.rounds))
    ])


def run(state: State, inputs: Inputs, tracer: Optional[Tracer]) -> Outcome:
    outcome = Outcome()
    for db, statements in zip(state.dbs, inputs.rounds):
        run_single_client(db.execute, statements, tracer, outcome=outcome)
    return outcome


def _score(statement: Statement, rows: list[tuple]) -> tuple[int, int]:
    """(crowd values asked, crowd values right) in one first-time answer."""
    if statement.kind == "probe":
        truth = _truth(int(statement.params[0][4:]))
        return 2, sum(1 for got, want in zip(rows[0], truth) if got == want)
    if statement.kind == "window":
        return len(rows), sum(
            1 for name, department in rows
            if department == _truth(int(name[4:]))[0]
        )
    if statement.kind == "equal":
        target = statement.params[0]
        said_equal = {row[0] for row in rows}
        names = [name for variants in COMPANIES.values() for name in variants]
        return len(names), sum(
            1 for name in names
            if (name in said_equal) == (name in COMPANIES[target])
        )
    best_first = [row[0] for row in rows]
    if statement.kind == "order_top":
        top = {f"picture{i:02d}" for i in range(PICTURES - len(rows), PICTURES)}
        return len(rows), sum(1 for name in best_first if name in top)
    pairs = list(zip(best_first, best_first[1:]))
    return len(pairs), sum(1 for better, worse in pairs if better > worse)


def finish(state: State, inputs: Inputs, outcome: Outcome) -> dict:
    asked = right = 0
    for index, (statement, result) in enumerate(
        zip(inputs.statements, outcome.results)
    ):
        if statement.kind == "repeat" or isinstance(result, Exception):
            continue
        values, correct = _score(statement, result.rows)
        asked += values
        right += correct
    # the rounds follow one another, so their simulated waits add up
    return {
        "crowd_cents": sum(db.crowd_stats["cost_cents"] for db in state.dbs),
        "crowd_assignments": sum(
            db.crowd_stats["assignments_received"] for db in state.dbs
        ),
        "crowd_sim_latency_s": sum(
            max(
                db.platforms.get(name).clock.now
                for name in db.platforms.names()
            )
            for db in state.dbs
        ),
        "crowd_accuracy": right / max(1, asked),
    }


def check(inputs: Inputs, outcome: Outcome) -> None:
    repurchased = 0
    for index, result in enumerate(outcome.results):
        if index in outcome.failed:
            continue
        if result.status != "complete":
            outcome.failed.add(index)
        origin = inputs.repeat_of.get(index)
        if origin is None:
            continue
        bought = result.assignments
        repurchased += bought
        first = outcome.results[origin]
        if bought or isinstance(first, Exception) or result.rows != first.rows:
            outcome.failed.add(index)
    outcome.notes["repurchased_assignments"] = repurchased


def close(state: State) -> None:
    for db in state.dbs:
        db.close()
