"""Property-based tests (hypothesis) on core invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import connect
from repro.catalog.ddl import build_table_schema
from repro.crowd.quality import Ballot, MajorityVote, normalize_answer
from repro.crowd.reputation import ReputationStore
from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn
from repro.crowd.sim.traces import GroundTruthOracle
from repro.sql.parser import parse
from repro.sqltypes import CNULL, NULL, coerce
from repro.storage.heap import HeapTable

try:
    import numpy as np
except ImportError:  # the standard-library-only leg
    np = None

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- storage invariants ----------------------------------------------------------

_row_values = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.text(max_size=12),
    st.integers(min_value=-100, max_value=100),
)


def make_heap():
    schema = build_table_schema(
        parse("CREATE TABLE t (k INTEGER PRIMARY KEY, s STRING, n INTEGER)")
    )
    return HeapTable(schema)


@given(st.lists(_row_values, max_size=60))
@SETTINGS
def test_heap_insert_scan_consistency(rows):
    """Whatever is inserted (with unique keys) comes back from a scan,
    and the PK index agrees with the heap on every key."""
    heap = make_heap()
    inserted = {}
    for values in rows:
        if values[0] in inserted:
            continue
        heap.insert(values)
        inserted[values[0]] = values
    scanned = {row.values[0]: row.values for row in heap.scan()}
    assert scanned == inserted
    for key, values in inserted.items():
        found = heap.lookup_primary_key((key,))
        assert found is not None and found.values == values
    assert heap.statistics.row_count == len(inserted)


class _Text(str):
    """A ``str`` subclass: not exactly the storage type, so it takes the
    :func:`coerce` path."""


_LANE_VALUES = [
    st.integers(),
    st.floats(),  # NaN and both infinities included
    st.booleans(),
    st.text(max_size=6),
    st.text(max_size=6).map(_Text),
    st.sampled_from(["1", " -2 ", "2.5", "1e3", "yes", "F", "no", "0", "x"]),
    st.sampled_from([None, NULL, CNULL]),
]
if np is not None:
    _LANE_VALUES += [
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.floats().map(np.float64),
    ]

_LANE_HEAP = HeapTable(build_table_schema(parse(
    "CREATE TABLE lane (i INTEGER, f FLOAT, s STRING, b BOOLEAN)"
)))


def _outcome(call):
    """A stored value by type and repr (NaN never equals itself), or the
    exception a write raises, by type and message."""
    try:
        value = call()
    except Exception as error:
        return ("raises", type(error), str(error))
    if isinstance(value, tuple):
        return tuple((type(v), repr(v)) for v in value)
    return (type(value), repr(value))


@given(st.lists(st.one_of(*_LANE_VALUES), min_size=4, max_size=4))
@SETTINGS
def test_exact_type_lane_agrees_with_coerce(values):
    """The write plan's exact-type lane stores what :func:`coerce` stores,
    or raises what it raises, for every column type: through a full row
    and through an INSERT column list."""
    heap = _LANE_HEAP
    types = [column.sql_type for column in heap.schema.columns]
    row = tuple(values)
    assert _outcome(lambda: heap.prepare_values(row)) == _outcome(
        lambda: tuple(coerce(v, t) for v, t in zip(row, types))
    )
    for column, value in zip(heap.schema.columns, values):
        listed = (column.name,)
        assert _outcome(
            lambda: heap.prepare_values([value], listed)[column.ordinal]
        ) == _outcome(lambda: coerce(value, column.sql_type))


@given(
    st.lists(_row_values, min_size=1, max_size=40),
    st.data(),
)
@SETTINGS
def test_heap_delete_removes_everything(rows, data):
    """After deleting a random subset, scan/index/stats all agree."""
    heap = make_heap()
    stored = {}
    for values in rows:
        if values[0] in stored:
            continue
        row = heap.insert(values)
        stored[values[0]] = row.rowid
    keys = sorted(stored)
    to_delete = data.draw(st.sets(st.sampled_from(keys)) if keys else st.just(set()))
    for key in to_delete:
        heap.delete(stored[key])
    remaining = {row.values[0] for row in heap.scan()}
    assert remaining == set(keys) - set(to_delete)
    for key in to_delete:
        assert heap.lookup_primary_key((key,)) is None
    assert heap.statistics.row_count == len(remaining)


# -- majority vote invariants --------------------------------------------------------

_ballot = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=127),
    min_size=1,
    max_size=6,
)


@given(st.lists(_ballot, min_size=1, max_size=25))
@SETTINGS
def test_majority_vote_winner_is_plurality(ballots):
    """The winner's class has at least as many votes as any other class,
    and agreement = votes/total is in (0, 1]."""
    # quiet: generated ballots tie on purpose, here and in the next two
    result = MajorityVote(min_agreement=0.0).vote(ballots, quiet=True)
    counts = {}
    for ballot in ballots:
        counts[normalize_answer(ballot)] = counts.get(normalize_answer(ballot), 0) + 1
    assert result.votes == max(counts.values())
    assert result.total == len(ballots)
    assert 0 < result.agreement <= 1
    assert normalize_answer(result.value) in counts


@given(st.lists(_ballot, min_size=1, max_size=25))
@SETTINGS
def test_majority_vote_is_order_insensitive_on_strict_majority(ballots):
    """When one class holds a strict majority, any permutation of the
    ballots elects the same class."""
    result = MajorityVote(min_agreement=0.0).vote(ballots, quiet=True)
    if result.agreement <= 0.5:
        return
    reversed_result = MajorityVote(min_agreement=0.0).vote(
        list(reversed(ballots)), quiet=True
    )
    assert normalize_answer(reversed_result.value) == normalize_answer(result.value)


@given(st.lists(st.booleans(), min_size=1, max_size=15))
@SETTINGS
def test_boolean_vote_matches_counting(ballots):
    result = MajorityVote(min_agreement=0.0).vote_boolean(ballots, quiet=True)
    true_votes = sum(ballots)
    false_votes = len(ballots) - true_votes
    if true_votes > false_votes:
        assert result.value is True
    elif false_votes > true_votes:
        assert result.value is False


# -- weighted consensus invariants ----------------------------------------------------

_worker_ids = st.sampled_from(["w1", "w2", "w3", "w4", "w5"])
_weighted_ballots = st.lists(
    st.tuples(_ballot, _worker_ids), min_size=1, max_size=20
)


def _weighted_store() -> ReputationStore:
    """Distinct, pinned accuracies per worker id."""
    store = ReputationStore(prior_strength=0.001)
    for index, worker in enumerate(["w1", "w2", "w3", "w4", "w5"]):
        accuracy = 0.25 + 0.15 * index  # 0.25 .. 0.85
        store._observe(worker, True, weight=500.0 * accuracy)
        store._observe(worker, False, weight=500.0 * (1.0 - accuracy))
    return store


@given(_weighted_ballots)
@SETTINGS
def test_weighted_vote_is_permutation_invariant(pairs):
    """Any permutation of the ballots elects the same class, the same
    representative, and the same confidence (the deterministic
    lexicographic tie-break makes this hold even on exact ties)."""
    store = _weighted_store()
    voter = MajorityVote(min_agreement=0.0, reputation=store)
    ballots = [Ballot(value, worker) for value, worker in pairs]
    forward = voter.vote_ballots(ballots, quiet=True)
    backward = voter.vote_ballots(list(reversed(ballots)), quiet=True)
    assert forward.value == backward.value
    assert forward.confidence == pytest.approx(backward.confidence)
    assert forward.votes == backward.votes


@given(_ballot, st.integers(min_value=1, max_value=12))
@SETTINGS
def test_unanimous_ballots_always_reach_target_confidence(value, count):
    """A unanimous ballot set is a settled verdict at any replication:
    its confidence is 1.0, so it meets every target_confidence <= 1."""
    voter = MajorityVote(min_agreement=0.0, reputation=_weighted_store())
    workers = ["w1", "w2", "w3", "w4", "w5"]
    ballots = [Ballot(value, workers[i % 5]) for i in range(count)]
    assert voter.vote_ballots(ballots, quiet=True).confidence == 1.0


@given(st.lists(_ballot, min_size=2, max_size=6, unique=True))
@SETTINGS
def test_tie_handling_is_deterministic(values):
    """One ballot per distinct class is an all-way tie; every arrival
    order elects the lexicographically smallest class."""
    # keep one raw value per normalized class so the vote is a true tie
    by_class = {}
    for value in values:
        by_class.setdefault(normalize_answer(value), value)
    values = list(by_class.values())
    voter = MajorityVote(min_agreement=0.0)
    results = {
        voter.vote(list(ordering), quiet=True).value
        for ordering in (values, list(reversed(values)), sorted(values))
    }
    assert len(results) == 1
    # and the winner is minimal among the normalized classes
    winner = normalize_answer(results.pop())
    assert winner == min(
        by_class, key=lambda key: (type(key).__name__, repr(key))
    )


# -- crowd sort invariants --------------------------------------------------------------

@given(
    st.lists(
        st.integers(min_value=0, max_value=30), min_size=1, max_size=12, unique=True
    ),
    st.integers(min_value=1, max_value=12),
)
@SETTINGS
def test_crowd_sort_is_a_correct_permutation(scores, k):
    """With a perfect crowd, CROWDORDER ... LIMIT k returns exactly the
    top-k items by ground-truth score, in order."""
    oracle = GroundTruthOracle()
    items = {f"item{score:02d}": float(score) for score in scores}
    oracle.load_ranking("best?", items)
    db = connect(
        oracle=oracle,
        platforms=(ScriptedPlatform(oracle_answer_fn(oracle)),),
        default_platform="scripted",
    )
    db.execute("CREATE TABLE items (name STRING PRIMARY KEY)")
    for name in items:
        db.execute(f"INSERT INTO items VALUES ('{name}')")
    rows = db.query(
        f"SELECT name FROM items ORDER BY CROWDORDER(name, 'best?') LIMIT {k}"
    )
    expected = sorted(items, key=lambda n: -items[n])[:k]
    assert [row[0] for row in rows] == expected


# -- optimizer equivalence ---------------------------------------------------------------

_FILTERS = st.sampled_from(
    [
        "",
        "WHERE n > 50",
        "WHERE s = 'alpha'",
        "WHERE n BETWEEN 10 AND 90 AND s <> 'beta'",
        "WHERE s IN ('alpha', 'gamma') OR n < 25",
        "WHERE s LIKE 'a%'",
    ]
)
_ORDERS = st.sampled_from(["", "ORDER BY n DESC", "ORDER BY s, n"])
_LIMITS = st.sampled_from(["", "LIMIT 3", "LIMIT 2 OFFSET 1"])


@given(_FILTERS, _ORDERS, _LIMITS)
@SETTINGS
def test_optimizer_preserves_results(filter_sql, order_sql, limit_sql):
    """The optimized plan returns the same rows as a plan compiled with
    every rewrite rule disabled (modulo order when no ORDER BY)."""
    from repro.optimizer.optimizer import Optimizer

    db = connect(with_crowd=False)
    db.executescript(
        """
        CREATE TABLE t (k INTEGER PRIMARY KEY, s STRING, n INTEGER);
        INSERT INTO t VALUES
            (1, 'alpha', 10), (2, 'beta', 95), (3, 'gamma', 40),
            (4, 'alpha', 60), (5, 'delta', 25), (6, 'alpha', 80);
        """
    )
    sql = f"SELECT s, n FROM t {filter_sql} {order_sql} {limit_sql}"
    optimized_rows = db.query(sql)
    db.executor.optimizer = Optimizer(db.engine, enable_rules=set())
    naive_rows = db.query(sql)
    if order_sql:
        if limit_sql:
            # deterministic prefix only when the sort key is unique enough;
            # compare as multisets of the same length instead
            assert len(optimized_rows) == len(naive_rows)
            assert sorted(optimized_rows) == sorted(naive_rows)
        else:
            assert optimized_rows == naive_rows
    elif limit_sql:
        assert len(optimized_rows) == len(naive_rows)
    else:
        assert sorted(optimized_rows) == sorted(naive_rows)


# -- answer normalization ------------------------------------------------------------------

@given(_ballot)
@SETTINGS
def test_normalize_is_idempotent(text):
    once = normalize_answer(text)
    assert normalize_answer(once) == once


@given(_ballot)
@SETTINGS
def test_normalize_ignores_surrounding_noise(text):
    noisy = f"  {text.upper()}  "
    assert normalize_answer(noisy) == normalize_answer(text)


# -- DP join enumeration differential properties ---------------------------------
#
# For random join graphs, the DP-chosen plan must be a pure re-bracketing:
# byte-identical results (same rows, same order under a total ORDER BY)
# and identical crowd-call sequences vs the forced canonical (FROM-order)
# plan with join ordering disabled.

_CANONICAL_RULES = {"predicate-pushdown", "stopafter-pushdown",
                    "conjunct-ordering", "crowdjoin-rewrite"}


def _canonical(db):
    """Force the builder's FROM-order join tree (no join-ordering rule)."""
    from repro.optimizer.optimizer import Optimizer

    db.executor.optimizer = Optimizer(
        db.engine, enable_rules=set(_CANONICAL_RULES)
    )
    return db


@st.composite
def _join_graphs(draw):
    tables = draw(st.integers(min_value=3, max_value=5))
    sizes = [draw(st.integers(min_value=2, max_value=7)) for _ in range(tables)]
    keys = [
        [draw(st.integers(min_value=0, max_value=4)) for _ in range(size)]
        for size in sizes
    ]
    with_filter = draw(st.booleans())
    return tables, keys, with_filter


def _load_join_graph(db, tables, keys):
    for index in range(tables):
        db.execute(
            f"CREATE TABLE g{index} (id INTEGER PRIMARY KEY, k INTEGER)"
        )
        for row, key in enumerate(keys[index]):
            db.engine.insert(f"g{index}", [row, key])
    db.execute("ANALYZE")


def _join_graph_sql(tables, with_filter):
    froms = ", ".join(f"g{i}" for i in range(tables))
    conds = " AND ".join(
        f"g{i}.k = g{i + 1}.id" for i in range(tables - 1)
    )
    if with_filter:
        conds += " AND g0.k < 3"
    columns = ", ".join(f"g{i}.id" for i in range(tables))
    order = ", ".join(str(i + 1) for i in range(tables))
    return f"SELECT {columns} FROM {froms} WHERE {conds} ORDER BY {order}"


@SETTINGS
@given(_join_graphs())
def test_dp_plans_are_byte_identical_to_canonical_order(graph):
    tables, keys, with_filter = graph
    sql = _join_graph_sql(tables, with_filter)
    dp_db = connect(with_crowd=False)
    _load_join_graph(dp_db, tables, keys)
    canonical_db = _canonical(connect(with_crowd=False))
    _load_join_graph(canonical_db, tables, keys)
    dp_rows = dp_db.query(sql)
    canonical_rows = canonical_db.query(sql)
    assert repr(dp_rows) == repr(canonical_rows)


def _crowd_calls(db):
    """Every comparison ballot the scripted platform saw, normalized."""
    platform = db.platforms.get("scripted")
    calls = []
    for task in platform.posted_tasks:
        left = getattr(task, "left", None)
        right = getattr(task, "right", None)
        if left is None and right is None:
            continue
        calls.append(
            tuple(sorted([normalize_answer(left), normalize_answer(right)]))
        )
    return calls


def _crowd_graph_db(keys):
    oracle = GroundTruthOracle()
    oracle.declare_same_entity("IBM", "I.B.M.", "ibm corp")
    db = connect(
        oracle=oracle,
        platforms=(ScriptedPlatform(oracle_answer_fn(oracle)),),
        default_platform="scripted",
    )
    db.executescript(
        """
        CREATE TABLE co (id INTEGER PRIMARY KEY, name STRING, k INTEGER);
        CREATE TABLE dept (id INTEGER PRIMARY KEY, label STRING);
        """
    )
    names = ["I.B.M.", "ibm corp", "Acme", "Globex"]
    for row, key in enumerate(keys):
        db.engine.insert("co", [row, names[row % 4], key])
    for row in range(5):
        db.engine.insert("dept", [row, f"d{row}"])
    db.execute("ANALYZE")
    return db


@SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=12))
def test_dp_crowd_call_sequences_match_canonical_order(keys):
    sql = (
        "SELECT co.id FROM co, dept WHERE co.k = dept.id "
        "AND CROWDEQUAL(co.name, 'IBM') ORDER BY co.id"
    )
    dp_db = _crowd_graph_db(keys)
    canonical_db = _canonical(_crowd_graph_db(keys))
    dp_rows = dp_db.query(sql)
    canonical_rows = canonical_db.query(sql)
    assert repr(dp_rows) == repr(canonical_rows)
    # the set of ballots (and how often each was posted) must be
    # identical; the within-window order may differ with the bracketing
    assert sorted(_crowd_calls(dp_db)) == sorted(_crowd_calls(canonical_db))


@SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=12))
def test_single_table_crowd_sequence_is_exactly_identical(keys):
    """Without joins to re-bracket, the ballot *sequence* — not just the
    multiset — must survive cost-based optimization untouched."""
    sql = (
        "SELECT id FROM co WHERE k < 3 AND CROWDEQUAL(name, 'IBM') "
        "ORDER BY id"
    )
    dp_db = _crowd_graph_db(keys)
    canonical_db = _canonical(_crowd_graph_db(keys))
    assert repr(dp_db.query(sql)) == repr(canonical_db.query(sql))
    assert _crowd_calls(dp_db) == _crowd_calls(canonical_db)
