"""Physical operator base class.

Operators follow the iterator model: construct, then iterate value
tuples; ``scope`` names the tuple positions.  ``correlation`` carries the
outer row of a correlated subquery — expression evaluation appends the
outer values and scope so outer column references resolve.
"""

from __future__ import annotations

import abc
from typing import Iterator, Optional

from repro.engine.context import ExecutionContext
from repro.sql import ast
from repro.storage.row import Scope

Correlation = Optional[tuple[tuple, Scope]]


class PhysicalOperator(abc.ABC):
    """One node of a physical plan."""

    def __init__(
        self, context: ExecutionContext, correlation: Correlation = None
    ) -> None:
        self.context = context
        self.correlation = correlation

    @property
    @abc.abstractmethod
    def scope(self) -> Scope:
        """Names for the value tuples this operator produces."""

    @abc.abstractmethod
    def __iter__(self) -> Iterator[tuple]:
        """Yield value tuples."""

    def children(self) -> tuple["PhysicalOperator", ...]:
        """The input operators (operators uniformly name them ``child`` or
        ``left``/``right``)."""
        found = []
        for name in ("child", "left", "right"):
            node = getattr(self, name, None)
            if isinstance(node, PhysicalOperator):
                found.append(node)
        return tuple(found)

    def sources_crowd_on_pull(self) -> bool:
        """True when pulling *more* rows from this operator than the
        consumer strictly needs could issue extra crowd tasks.

        Batch-at-a-time loops buffer a chunk of child rows before
        yielding, which is free for electronic plans but would break the
        stop-after crowd bound over an open-world scan; operators consult
        this before choosing the eager chunked loop.  Pipeline breakers
        (sort, aggregation) consume their input entirely either way and
        override accordingly.

        An operator :meth:`children` cannot see (a future leaf, or inputs
        under unconventional attribute names) answers True: unknown
        operators must degrade to slower-but-safe tuple-at-a-time
        execution, never to eager chunking.  Leaves that truly never
        source crowd work (index lookups, SELECT-without-FROM) override.
        """
        children = self.children()
        if not children:
            return True
        return any(child.sources_crowd_on_pull() for child in children)

    # -- compiled expression helpers ----------------------------------------------

    def compile_value(self, expr: ast.Expression, scope: Scope):
        """Plan-time compile of ``expr`` into a ``row values -> value``
        closure; the correlated outer row, fixed per operator instance,
        is appended inside the closure."""
        if self.correlation is None:
            return self.context.compile_value_fn(expr, scope)
        from repro.storage.row import LayeredScope

        outer_values, outer_scope = self.correlation
        fn = self.context.compile_value_fn(
            expr, LayeredScope(scope, outer_scope)
        )
        return lambda values: fn(values + outer_values)

    def compile_predicate(self, expr: ast.Expression, scope: Scope):
        """Plan-time compile of ``expr`` into a ``row values -> TriBool``
        closure (see :meth:`compile_value`)."""
        if self.correlation is None:
            return self.context.compile_predicate_fn(expr, scope)
        from repro.storage.row import LayeredScope

        outer_values, outer_scope = self.correlation
        fn = self.context.compile_predicate_fn(
            expr, LayeredScope(scope, outer_scope)
        )
        return lambda values: fn(values + outer_values)
