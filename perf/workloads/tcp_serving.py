"""``tcp_serving`` — two closed-loop clients over the wire protocol.

*Why it exists.*  A trivial statement costs under a millisecond in-process
and tens of milliseconds over TCP; almost all of that is ``net`` (framing,
the JSON value codec, socket behaviour) and ``server`` (engine pump,
cooperative scheduler, session hand-off between threads).  This is the
workload a codec, paging, pump or scheduler change must show on, and on
which an ``exec`` or ``storage`` change is predicted flat.

*Loads:* ``net`` (client, protocol, asyncio front end), ``server`` (pump,
scheduler, sessions, admission), ``sql`` lightly (sessions parse every
script; there is no parse memo on this path), ``crowd`` lightly.

*Bypasses:* ``exec``/``storage`` as a share of wall (a 5k-row table), WAL.

Two ``connect_tcp`` clients — the box has two cores — against one
``serve_tcp`` listener in the same process, each sending its next statement
only after the previous reply.  The engine sits on the near-perfect
simulated AMT so crowd answers do not depend on how the two sessions
interleave.  Mix: 55% short aggregate, 30% row-returning select (0-1000
rows), 5% full 5k-row result (ten ``result_page`` frames), 10% keyed crowd
probe over 24 cities.  The wire has no bind parameters, so literals are
inlined.

Answers must be byte-identical to the same two scripts run through
``Server.run_scripts`` on a second, identically seeded instance; that
instance also times each statement through ``open_session``/``submit``/
``run``, the in-process floor ``net.overhead_ms`` is measured against.
"""

from __future__ import annotations

import random
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Optional

from repro import connect
from repro.crowd.model import reset_id_counters
from repro.crowd.sim.amt import SimulatedAMT
from repro.crowd.sim.behavior import BehaviorConfig
from repro.crowd.sim.population import generate_population
from repro.crowd.sim.traces import GroundTruthOracle
from repro.net import connect_tcp, serve_tcp
from repro.server import Server

from perf.harness import ClosedLoopClient, Outcome, Statement, exact_mix
from perf.trace import Tracer

CLIENTS = 2
STATEMENTS_PER_CLIENT = 255  # at REFERENCE_SECONDS
ITEMS = 5_000
CITIES = 24
CLIENT_TIMEOUT_SECONDS = 120.0
MIX = {"aggregate": 0.55, "rows": 0.30, "full": 0.05, "crowd": 0.10}

DDL = (
    "CREATE TABLE City (name STRING PRIMARY KEY, "
    "population CROWD INTEGER, elevation CROWD INTEGER)",
    "CREATE TABLE items (n INTEGER PRIMARY KEY, k STRING, v FLOAT)",
)


@dataclass
class Inputs:
    seed: int
    items: list[tuple]
    scripts: list[list[Statement]]  # one per client

    @property
    def statements(self) -> list[Statement]:
        return [s for script in self.scripts for s in script]


@dataclass
class State:
    db: Any
    server: Any
    listener: Any = None
    clients: list = field(default_factory=list)


def generate(seed: int, scale: float, smoke: bool = False) -> Inputs:
    rng = random.Random(seed)
    items = 600 if smoke else ITEMS
    item_rows = [
        (n, f"k{n % 5}", round(rng.uniform(0, 100), 2)) for n in range(items)
    ]
    scripts = []
    for _ in range(CLIENTS):
        script = []
        count = max(12, round(STATEMENTS_PER_CLIENT * scale))
        for kind in exact_mix(rng, count, MIX):
            if kind == "aggregate":
                script.append(Statement(
                    "SELECT k, COUNT(*) AS c, SUM(v) AS s FROM items "
                    f"WHERE n < {rng.randrange(100, 400)} "
                    "GROUP BY k ORDER BY k;", (), "aggregate"))
            elif kind == "rows":
                low = rng.randrange(items)
                script.append(Statement(
                    "SELECT n, k, v FROM items "
                    f"WHERE n >= {low} AND n < {low + rng.randrange(1000)} "
                    "ORDER BY n;", (), "rows"))
            elif kind == "full":
                script.append(Statement(
                    "SELECT n, k, v FROM items ORDER BY n;", (), "full"))
            else:
                script.append(Statement(
                    "SELECT population FROM City "
                    f"WHERE name = 'city{rng.randrange(CITIES):02d}';",
                    (), "crowd"))
        scripts.append(script)
    return Inputs(seed, item_rows, scripts)


def _instance(inputs: Inputs) -> State:
    """One engine + Server with the data loaded; no listener yet."""
    reset_id_counters()
    oracle = GroundTruthOracle()
    for i in range(CITIES):
        oracle.load_fill(
            "City", (f"city{i:02d}",),
            {"population": 10_000 + 137 * i, "elevation": 5 * i},
        )
    workers = generate_population(
        200, seed=inputs.seed, skill_range=(0.995, 1.0), id_prefix="amt-"
    )
    platform = SimulatedAMT(
        oracle, workers=workers, seed=inputs.seed,
        config=BehaviorConfig(base_accuracy=0.999),
    )
    db = connect(
        oracle=oracle, seed=inputs.seed,
        platforms=(platform,), default_platform="amt",
    )
    for statement in DDL:
        db.execute(statement)
    for i in range(CITIES):
        db.engine.insert("City", [f"city{i:02d}"], ("name",))
    for row in inputs.items:
        db.engine.insert("items", row)
    return State(db, Server(connection=db))


def setup(inputs: Inputs, workdir: str) -> State:
    state = _instance(inputs)
    state.listener = serve_tcp(server=state.server)
    state.clients = [
        connect_tcp(
            state.listener.host, state.listener.port,
            timeout=CLIENT_TIMEOUT_SECONDS,
        )
        for _ in range(CLIENTS)
    ]
    return state


def run(state: State, inputs: Inputs, tracer: Optional[Tracer]) -> Outcome:
    loops = [
        ClosedLoopClient(lambda sql, _params, c=client: c.execute(sql), tracer)
        for client in state.clients
    ]
    start = threading.Barrier(CLIENTS + 1)

    def drive(loop: ClosedLoopClient, script: list[Statement]) -> None:
        start.wait()
        for statement in script:
            loop.results.append(loop.send(statement))

    threads = [
        threading.Thread(target=drive, args=(loop, script), name=f"client-{i}")
        for i, (loop, script) in enumerate(zip(loops, inputs.scripts))
    ]
    for thread in threads:
        thread.start()
    start.wait()
    started = perf_counter_ns()
    for thread in threads:
        thread.join()
    outcome = Outcome(measured_ns=perf_counter_ns() - started)
    for loop in loops:
        outcome.latencies_ns.extend(loop.latencies_ns)
        outcome.results.extend(loop.results)
    for index, result in enumerate(outcome.results):
        if isinstance(result, Exception):
            outcome.failed.add(index)
        else:
            outcome.rows_returned += len(result.rows)
            outcome.rows_scanned += result.rows_scanned
    return outcome


def finish(state: State, inputs: Inputs, outcome: Outcome) -> dict:
    return {}


def _same_answer(over_tcp: Any, in_process: Any) -> bool:
    return not isinstance(in_process, Exception) and repr(
        (over_tcp.columns, over_tcp.rows, over_tcp.rowcount, over_tcp.statement)
    ) == repr(
        (in_process.columns, in_process.rows, in_process.rowcount,
         in_process.statement)
    )


def check(inputs: Inputs, outcome: Outcome) -> None:
    reference = _instance(inputs)
    try:
        server = reference.server
        per_session = server.run_scripts(
            [" ".join(s.sql for s in script) for script in inputs.scripts]
        )
        expected = [result for results in per_session for result in results]
        for index, over_tcp in enumerate(outcome.results):
            if index in outcome.failed:
                continue
            if index >= len(expected) or not _same_answer(
                over_tcp, expected[index]
            ):
                outcome.failed.add(index)
        # the in-process floor: same statements, no wire, one at a time
        session = server.open_session()
        floor_ns = []
        for statement in inputs.statements:
            started = perf_counter_ns()
            session.submit(statement.sql)
            server.run()
            floor_ns.append(perf_counter_ns() - started)
        outcome.notes["inproc_stmt_p50_ms"] = statistics.median(floor_ns) / 1e6
    finally:
        reference.server.close()


def close(state: State) -> None:
    # listener first: it drains every connection handler it still tracks.
    # A handler that already saw its client's goodbye has left that set
    # but may not have finished, and closing the loop under it logs
    # "Task was destroyed but it is pending!" (see README, findings).
    if state.listener is not None:
        state.listener.close()
    for client in state.clients:
        client.close()
    state.server.close()
