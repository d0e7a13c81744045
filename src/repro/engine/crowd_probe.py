"""The CrowdProbe operator.

"This operator crowdsources missing data from CROWD columns and new
tuples" (paper §3.2.1).  Concretely:

* **anti-probes** first: for every primary-key value the predicate pinned
  (attached by the boundedness analysis) that has no stored tuple, ask
  the crowd to contribute the whole tuple and memorize it — this is what
  makes ``SELECT ... WHERE pk = 'X'`` return an answer a traditional
  DBMS cannot give;
* then, for every tuple flowing by whose *needed* crowd columns are
  CNULL, post a fill task, majority-vote the answers, memorize, and emit
  the completed tuple.

Execution is batch-at-a-time: the operator buffers a window of child
tuples (``batch_size``, planner-hinted), issues the fill tasks for every
CNULL row of the window — plus all anti-probes — up front, settles them
in one overlapped marketplace round, then emits.  Batch size 1 is a
window of one; without a crowd the rounds are skipped.
"""

from __future__ import annotations

from typing import Iterator

from repro.catalog.table import TableSchema
from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.sqltypes import is_cnull
from repro.storage.row import Scope


class CrowdProbeOp(PhysicalOperator):
    """Fill CNULL values (and anti-probe missing key-pinned tuples)."""

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        table: TableSchema,
        binding: str,
        columns: tuple[str, ...],
        batch_size: int,
        anti_probe_keys: tuple[tuple, ...] = (),
    ) -> None:
        super().__init__(context)
        self.child = child
        self.table = table
        self.binding = binding
        self.columns = columns
        self.batch_size = batch_size
        self.anti_probe_keys = anti_probe_keys

    @property
    def scope(self) -> Scope:
        return self.child.scope

    def sources_crowd_on_pull(self) -> bool:
        return True

    def __iter__(self) -> Iterator[tuple]:
        crowd = self.context.task_manager is not None
        if crowd and self.anti_probe_keys and self.table.crowd:
            self._run_anti_probes()
        scope = self.child.scope
        # the table's columns in the child tuples (the fill tasks' known
        # values), and the needed crowd columns among them (none without
        # a crowd: the fill round is skipped)
        known = [
            (column.name, position)
            for column in self.table.columns
            if (position := scope.try_resolve(column.name, self.binding))
            is not None
        ]
        needed = [
            (column, position)
            for column in (self.columns if crowd else ())
            if (position := scope.try_resolve(column, self.binding))
            is not None
        ]
        window: list[tuple] = []
        for values in self.child:
            window.append(values)
            if len(window) >= self.batch_size:
                yield from self._fill_window(window, known, needed)
                window = []
        yield from self._fill_window(window, known, needed)

    def _run_anti_probes(self) -> None:
        """Source every pinned key with no stored tuple; all anti-probes
        go to the marketplace together and settle in one round."""
        heap = self.context.engine.table(self.table.name)
        specs = [
            (self.table, 1, dict(zip(self.table.primary_key, key)), None)
            for key in self.anti_probe_keys
            if heap.lookup_primary_key(key) is None
        ]
        results = self.context.crowd_new_tuples_many(specs)
        self.context.crowd_probe_tasks += len(specs)
        for new_tuples in results:
            for values in new_tuples:
                self.context.memorize_tuple(self.table, values)

    def _fill_window(
        self,
        window: list[tuple],
        known: list[tuple[str, int]],
        needed: list[tuple[str, int]],
    ) -> list[tuple]:
        """Fill every CNULL row of the window in one round (memorized in
        storage); return the window in order, completed."""
        targets = []  # window index per fill request
        rows = []
        for i, values in enumerate(window):
            missing = tuple(c for c, at in needed if is_cnull(values[at]))
            if missing:
                targets.append(i)
                rows.append(({c: values[at] for c, at in known}, missing))
        answer_lists = self.context.crowd_fill_rows(self.table, rows)
        for i, answers in zip(targets, answer_lists):
            filled = list(window[i])
            for column, answer in answers.items():
                filled[self.scope.resolve(column, self.binding)] = answer
            window[i] = tuple(filled)
        return window
