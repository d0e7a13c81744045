"""The crowd task kinds, each described once.

The Task Manager has one request path — look up, budget-check, post,
register, park/replay, extend, wait, settle — and reaches everything that
differs between fills, new tuples, CROWDEQUAL and CROWDORDER through the
kind table :data:`KINDS`.  A kind states:

* ``key`` — the task-pool key two requests must share to be one request
  (``group``/``group_key`` package fills of one table and column set into
  one HIT);
* ``lookup`` — answers already in hand (comparison caches, in-flight
  futures in the task pool) and the request counters;
* ``build`` — the task, its instantiated form, and how many HITs carry it;
* ``ballots`` — a HIT set's assignments as ballots, one list per verdict.
  The settle vote and the adaptive-replication confidence probe read the
  same lists;
* ``finish`` — verdicts to a typed value, plus what goes to the cache, the
  ledger and the gold bank;
* ``encode``/``decode`` — the retry-queue entry a refused request parks as
  (the on-disk ``crowd_retry.jsonl`` format).

Kinds are stateless; ``tm`` is the Task Manager whose caches, counters and
pool they read.  Also here: the typo-level key cleansing new-tuple
sourcing applies, and the grading of worker answers against gold.
"""

from __future__ import annotations

import difflib
import operator
from typing import Any, Optional

from repro.codec import decode_value, encode_value
from repro.crowd.future import CrowdFuture
from repro.crowd.model import (
    HIT,
    CompareEqualTask,
    CompareOrderTask,
    FillGroupTask,
    FillTask,
    NewTupleTask,
)
from repro.crowd.quality import Ballot, MajorityVote, normalize_answer
from repro.errors import ExecutionError, TypeError_
from repro.sqltypes import NULL, parse_literal

#: Verdicts at least this confident are safe to re-ask as gold probes.
GOLD_DEPOSIT_CONFIDENCE = 0.9


class RequestKind:
    """One shape of crowd request (the module docstring lists what each
    method states)."""

    name = ""
    # adaptive replication applies: the kind's verdicts have a confidence
    adaptive = True

    def group(self, request: tuple) -> Any:
        """Requests sharing a group may share one HIT (None: never)."""
        return None


class FillKind(RequestKind):
    """CrowdProbe: the missing CROWD-column values of one tuple.

    Requests are ``(schema, primary_key, columns, known_values)``; up to
    ``hit_group_size`` of one table and column set share a HIT whose
    answers are per-subtask lists."""

    name = "fill"

    def key(self, request: tuple, platform_key: str) -> tuple:
        schema, primary_key, columns, _known = request
        return ("fill", schema.name, tuple(primary_key), tuple(columns),
                platform_key)

    def group(self, request: tuple) -> tuple:
        schema, _primary_key, columns, _known = request
        return (schema.name, tuple(c.lower() for c in columns))

    def group_key(self, requests: list[tuple], platform_key: str) -> tuple:
        schema, _primary_key, columns, _known = requests[0]
        return ("fillgroup", schema.name, tuple(r[1] for r in requests),
                tuple(columns), platform_key)

    def lookup(self, tm: Any, key: tuple) -> Optional[CrowdFuture]:
        tm.stats.fill_requests += 1
        return tm.task_pool.lookup(key)

    def build(self, ui: Any, requests: list[tuple]) -> tuple:
        schema, _primary_key, columns, _known = requests[0]
        template = ui.fill_template(schema, columns)
        tasks, forms = [], []
        for table, primary_key, fields, known_values in requests:
            task = FillTask(
                table=table.name,
                primary_key=primary_key,
                columns=fields,
                known_values=dict(known_values),
                column_types={c: str(table.column(c).sql_type) for c in fields},
                instructions=(
                    f"Fill in the missing fields of this {table.name} record."
                ),
            )
            tasks.append(task)
            forms.append(ui.instantiate(template, task.known_values))
        if len(tasks) == 1:
            return tasks[0], forms[0], 1
        group = FillGroupTask(
            table=schema.name,
            columns=tuple(columns),
            subtasks=tuple(tasks),
            instructions=(
                f"Fill in the missing fields of these {len(tasks)} "
                f"{schema.name} records."
            ),
        )
        return group, "\n<hr/>\n".join(forms), 1

    def ballots(self, hits: list[HIT]) -> list[list[Ballot]]:
        """One list per (subtask, column), blank answers included: a
        crowd unanimously reporting "no value" is a confident verdict."""
        (hit,) = hits
        subtasks = getattr(hit.task, "subtasks", None)
        questions = []
        for index in (None,) if subtasks is None else range(len(subtasks)):
            answers = []
            for assignment in hit.assignments:
                answer = assignment.answer
                if index is not None:
                    fits = isinstance(answer, (list, tuple)) and index < len(answer)
                    answer = answer[index] if fits else None
                if isinstance(answer, dict):
                    answers.append((assignment.worker_id, answer))
            questions.extend(
                [Ballot(value=answer.get(column, ""), worker_id=worker_id)
                 for worker_id, answer in answers]
                for column in hit.task.columns
            )
        return questions

    def finish(self, tm: Any, key: tuple, requests: list[tuple],
               hits: list[HIT]) -> Any:
        """Per-column consensus over the non-blank ballots, per subtask;
        a subtask confident in every column becomes a gold probe."""
        schema = requests[0][0]
        task = hits[0].task
        questions = iter(self.ballots(hits))
        results = []
        for subtask in getattr(task, "subtasks", (task,)):
            values: dict[str, Any] = {}
            gold: Optional[dict[str, Any]] = {}
            for column in task.columns:
                vote = tm.vote(
                    [b for b in next(questions) if str(b.value).strip()]
                )
                if vote is None:
                    values[column] = NULL
                    gold = None
                    continue
                values[column] = _parse(schema, column, vote.value)
                if gold is not None and vote.confidence >= GOLD_DEPOSIT_CONFIDENCE:
                    gold[column] = vote.value
                else:
                    gold = None
            if gold:
                _deposit_gold(tm, subtask, gold)
            results.append(values)
        return results if isinstance(task, FillGroupTask) else results[0]

    def encode(self, request: tuple) -> dict:
        schema, primary_key, columns, known_values = request
        return {
            "table": schema.name,
            "primary_key": [encode_value(v) for v in primary_key],
            "columns": list(columns),
            "known_values": {
                column: encode_value(value)
                for column, value in known_values.items()
            },
        }

    def decode(self, catalog: Any, entry: dict) -> tuple:
        return (
            catalog.table(entry["table"]),
            _decode_row(entry["primary_key"]),
            tuple(entry["columns"]),
            {c: _decode(v) for c, v in entry["known_values"].items()},
        )


class NewTuplesKind(RequestKind):
    """CrowdProbe on CROWD tables and CrowdJoin inner probes: up to
    ``count`` new tuples.  Requests are ``(schema, count, fixed_values,
    known_keys)`` with lower-cased fixed columns."""

    name = "new"
    # distinct assignments contribute distinct tuples: there is no single
    # verdict whose confidence could gate an extension
    adaptive = False

    def key(self, request: tuple, platform_key: str) -> tuple:
        schema, count, fixed, known_keys = request
        return ("new", schema.name, count, tuple(sorted(fixed.items())),
                frozenset(known_keys), platform_key)

    def lookup(self, tm: Any, key: tuple) -> Optional[CrowdFuture]:
        tm.stats.new_tuple_requests += 1
        return tm.task_pool.lookup(key)

    def build(self, ui: Any, requests: list[tuple]) -> tuple:
        ((schema, count, fixed, _known),) = requests
        task = NewTupleTask(
            table=schema.name,
            columns=schema.column_names,
            fixed_values=fixed,
            column_types={c.name: str(c.sql_type) for c in schema.columns},
            instructions=f"Contribute a new {schema.name} record.",
        )
        template = ui.new_tuple_template(schema, tuple(fixed.keys()))
        return task, ui.instantiate(template, fixed), count

    def finish(self, tm: Any, key: tuple, requests: list[tuple],
               hits: list[HIT]) -> list[dict[str, Any]]:
        # Different assignments of one HIT legitimately contribute
        # *different* tuples, so voting happens within primary-key groups:
        # assignments agreeing on the key are replicas of one entity and
        # their non-key fields are majority-voted; distinct keys are
        # distinct new tuples (open-world de-duplication).
        ((schema, _count, fixed, known_keys),) = requests
        pk_columns = tuple(schema.primary_key)
        groups: dict[tuple, list[dict[str, Any]]] = {}
        for hit in hits:
            for assignment in hit.assignments:
                answer = assignment.answer
                if not isinstance(answer, dict):
                    continue
                if not any(str(v).strip() for v in answer.values()):
                    continue
                pk = tuple(
                    normalize_answer(str(answer.get(c, "")).strip())
                    for c in pk_columns
                )
                if pk_columns and any(part == "" for part in pk):
                    continue  # a tuple without its key cannot be stored
                groups.setdefault(pk, []).append(answer)
        order = list(groups)
        cleansing = pk_columns and tm.config.fuzzy_cleansing
        # Cleansing: merge near-duplicate keys (worker typos) into the
        # best-supported spelling, then drop keys that are merely typo
        # variants of tuples already stored.
        if cleansing and len(order) > 1:
            order = _merge_similar_keys(groups, order)
        seen: set = set(known_keys)
        if cleansing:
            order = [pk for pk in order if not _is_near_duplicate(pk, seen)]
        voter = MajorityVote(tm.config.min_agreement)
        tuples: list[dict[str, Any]] = []
        for pk in order:
            if pk_columns and pk in seen:
                continue
            votes = voter.vote_fields(groups[pk])
            row: dict[str, Any] = {}
            for column in schema.columns:
                if column.name.lower() in fixed:
                    row[column.name] = fixed[column.name.lower()]
                    continue
                vote = votes.get(column.name)
                if vote is None or not str(vote.value).strip():
                    row[column.name] = NULL
                else:
                    row[column.name] = _parse(schema, column.name, vote.value)
            if pk_columns:
                seen.add(pk)
            tuples.append(row)
        return tuples

    def encode(self, request: tuple) -> dict:
        schema, count, fixed, known_keys = request
        return {
            "table": schema.name,
            "count": count,
            "fixed_values": {c: encode_value(v) for c, v in fixed.items()},
            "known_keys": [[encode_value(v) for v in row] for row in known_keys],
        }

    def decode(self, catalog: Any, entry: dict) -> tuple:
        return (
            catalog.table(entry["table"]),
            int(entry["count"]),
            {c: _decode(v) for c, v in entry["fixed_values"].items()},
            {_decode_row(row) for row in entry["known_keys"]},
        )


class _CompareKind(RequestKind):
    """A ballot over two values; requests are ``(left, right, question)``
    and settled verdicts are cached (and written to the durable ledger)
    under their normalized values, so no pair is bought twice."""

    def encode(self, request: tuple) -> dict:
        left, right, question = request
        return {"left": encode_value(left), "right": encode_value(right),
                "question": question}

    def decode(self, catalog: Any, entry: dict) -> tuple:
        return (_decode(entry["left"]), _decode(entry["right"]),
                entry["question"])


class EqualKind(_CompareKind):
    """CROWDEQUAL: do the two values denote the same entity?"""

    name = "eq"

    def key(self, request: tuple, platform_key: str) -> tuple:
        left, right, _question = request
        return ("eq", normalize_answer(left), normalize_answer(right),
                platform_key)

    def lookup(self, tm: Any, key: tuple) -> Optional[CrowdFuture]:
        _, left, right, platform_key = key
        cached = tm._equal_cache.get((left, right))
        if cached is None:
            cached = tm._equal_cache.get((right, left))
        if cached is not None:
            tm.stats.cache_hits += 1
            return CrowdFuture.resolved("eq", key, cached)
        shared = tm.task_pool.lookup(key)
        if shared is None:
            # equality is symmetric: a pending ballot for (b, a) answers (a, b)
            shared = tm.task_pool.lookup(("eq", right, left, platform_key))
        if shared is None:
            tm.stats.compare_requests += 1
        return shared

    def build(self, ui: Any, requests: list[tuple]) -> tuple:
        ((left, right, question),) = requests
        task = CompareEqualTask(
            left=left,
            right=right,
            question=question or "Do these two values refer to the same thing?",
        )
        form = ui.instantiate(
            ui.compare_equal_template(), {"left": left, "right": right}
        )
        return task, form, 1

    def ballots(self, hits: list[HIT]) -> list[list[Ballot]]:
        (hit,) = hits
        return [[Ballot(value=bool(a.answer), worker_id=a.worker_id)
                 for a in hit.assignments]]

    def finish(self, tm: Any, key: tuple, requests: list[tuple],
               hits: list[HIT]) -> bool:
        vote = tm.vote(self.ballots(hits)[0])
        # no worker responded: conservatively not equal
        answer = False if vote is None else bool(vote.value)
        if vote is not None and vote.confidence >= GOLD_DEPOSIT_CONFIDENCE:
            _deposit_gold(tm, hits[0].task, answer)
        tm._equal_cache[key[1:3]] = answer
        if tm.ledger is not None:
            tm.ledger.record_equal(key[1], key[2], answer)
        return answer


class OrderKind(_CompareKind):
    """CROWDORDER: should ``left`` be ranked before ``right``?"""

    name = "ord"

    def key(self, request: tuple, platform_key: str) -> tuple:
        left, right, question = request
        return ("ord", question, normalize_answer(left),
                normalize_answer(right), platform_key)

    def lookup(self, tm: Any, key: tuple) -> Optional[CrowdFuture]:
        _, question, left, right, platform_key = key
        if left == right:
            return CrowdFuture.resolved("ord", key, True)
        cached = tm._order_cache.get((question, left, right))
        if cached is None:
            mirrored = tm._order_cache.get((question, right, left))
            if mirrored is not None:
                cached = "right" if mirrored == "left" else "left"
        if cached is not None:
            tm.stats.cache_hits += 1
            return CrowdFuture.resolved("ord", key, cached == "left")
        shared = tm.task_pool.lookup(key)
        if shared is not None:
            return shared
        # a pending ballot for the opposite direction is the same question
        # with the answer inverted — ride its HITs instead of reposting
        mirrored = tm.task_pool.lookup(
            ("ord", question, right, left, platform_key)
        )
        if mirrored is not None:
            return CrowdFuture.view(mirrored, key, operator.not_)
        tm.stats.compare_requests += 1
        return None

    def build(self, ui: Any, requests: list[tuple]) -> tuple:
        ((left, right, question),) = requests
        task = CompareOrderTask(left=left, right=right, question=question)
        form = ui.instantiate(
            ui.compare_order_template(question), {"left": left, "right": right}
        )
        return task, form, 1

    def ballots(self, hits: list[HIT]) -> list[list[Ballot]]:
        (hit,) = hits
        return [[Ballot(value=a.answer, worker_id=a.worker_id)
                 for a in hit.assignments if a.answer in ("left", "right")]]

    def finish(self, tm: Any, key: tuple, requests: list[tuple],
               hits: list[HIT]) -> bool:
        vote = tm.vote(self.ballots(hits)[0])
        # stable fallback without ballots: keep the current order
        winner = "left" if vote is None else str(vote.value)
        if vote is not None and vote.confidence >= GOLD_DEPOSIT_CONFIDENCE:
            _deposit_gold(tm, hits[0].task, winner)
        tm._order_cache[key[1:4]] = winner
        if tm.ledger is not None:
            tm.ledger.record_order(key[1], key[2], key[3], winner)
        return winner == "left"


FILL = FillKind()
NEW_TUPLES = NewTuplesKind()
EQUAL = EqualKind()
ORDER = OrderKind()

#: Kind name (the future's ``kind``, the parked entry's ``"kind"``) -> kind.
KINDS = {kind.name: kind for kind in (FILL, NEW_TUPLES, EQUAL, ORDER)}


def _parse(schema: Any, column: str, raw: Any) -> Any:
    try:
        return parse_literal(str(raw), schema.column(column).sql_type)
    except TypeError_:
        return NULL


def _decode(value: Any) -> Any:
    return decode_value(value, ExecutionError)


def _decode_row(values: Any) -> tuple:
    return tuple(_decode(v) for v in values)


# -- gold probes ----------------------------------------------------------------


def _deposit_gold(tm: Any, task: Any, expected: Any) -> None:
    """Bank a confident verdict as a known-answer probe."""
    if tm.config.gold_rate > 0:
        tm.reputation.add_gold(task, expected)


def grade_gold(task: Any, expected: Any, answer: Any) -> Optional[bool]:
    """Grade one worker answer against a gold task's known answer
    (``None`` when the answer has the wrong shape to grade)."""
    if isinstance(task, FillTask):
        if not isinstance(answer, dict) or not isinstance(expected, dict):
            return None
        return all(
            normalize_answer(str(answer.get(column, "")))
            == normalize_answer(str(value))
            for column, value in expected.items()
        )
    if isinstance(task, CompareEqualTask):
        return bool(answer) == bool(expected)
    if isinstance(task, CompareOrderTask):
        if answer not in ("left", "right"):
            return None
        return answer == expected
    return None


# -- new-tuple key cleansing ------------------------------------------------------

_SIMILARITY_THRESHOLD = 0.82


def _keys_similar(a: tuple, b: tuple) -> bool:
    """Typo-level similarity between two normalized key tuples."""
    if len(a) != len(b):
        return False
    for part_a, part_b in zip(a, b):
        text_a, text_b = str(part_a), str(part_b)
        if text_a == text_b:
            continue
        ratio = difflib.SequenceMatcher(None, text_a, text_b).ratio()
        if ratio < _SIMILARITY_THRESHOLD:
            return False
    return True


def _merge_similar_keys(
    groups: dict[tuple, list[dict[str, Any]]], order: list[tuple]
) -> list[tuple]:
    """Fold typo-variant key groups into the best-supported spelling.

    Keys are processed by descending support, so a singleton typo merges
    into the group the majority of workers agreed on.
    """
    by_support = sorted(order, key=lambda key: -len(groups[key]))
    canonical: list[tuple] = []
    for key in by_support:
        merged = False
        for existing in canonical:
            if _keys_similar(key, existing):
                groups[existing].extend(groups.pop(key))
                merged = True
                break
        if not merged:
            canonical.append(key)
    return [key for key in order if key in groups]


def _is_near_duplicate(key: tuple, known: set) -> bool:
    """Is ``key`` exactly or approximately one of the stored keys?"""
    if key in known:
        return True
    return any(_keys_similar(key, stored) for stored in known)
