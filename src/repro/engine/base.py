"""Physical operator base class.

Operators follow the iterator model: prepare, bind, then iterate value
tuples; ``scope`` names the tuple positions.  A *prepared* operator tree
is what physical planning builds: it holds no execution context until
:meth:`PhysicalOperator.bind` attaches one execution's context and
``correlation`` -- the outer row of a correlated subquery, which
expression evaluation appends (with its scope) so outer column
references resolve.  A tree a plan-cache entry keeps is never run: each
execution binds a copy of it, so executions never share operator state.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterator, Optional

from repro.engine.context import ExecutionContext
from repro.plan.compiled import compile_predicate, compile_value
from repro.sql import ast
from repro.sqltypes import NULL
from repro.storage.row import Scope

Correlation = Optional[tuple[tuple, Scope]]


class PhysicalOperator(abc.ABC):
    """One node of a physical plan."""

    #: closures and kernels compiled at first use and shared by every
    #: copy bound from a kept tree; None in any other tree, whose one
    #: execution compiles its own (see PhysicalPlanner.plan)
    _closures: Optional[dict] = None

    def __init__(self, context: ExecutionContext) -> None:
        self.context = context
        self.correlation: Correlation = None  # set by bind

    def bind(self, planner: Any, copy: bool = True) -> "PhysicalOperator":
        """This prepared operator, and its inputs, bound to the one
        execution ``planner`` plans: the context and correlation row are
        the planner's.  A kept tree is bound as a copy sharing everything
        else with it; a tree prepared for this execution alone is bound
        in place (``copy=False``) and compiles its closures for this
        execution only.  Operators with per-execution state reset it."""
        if copy:
            bound = object.__new__(type(self))
            state = bound.__dict__
            state.update(self.__dict__)
        else:
            bound = self
            state = self.__dict__
        state["context"] = planner.context
        state["correlation"] = planner.correlation
        for name in ("child", "left", "right"):  # see children()
            node = state.get(name)
            if node is not None:
                state[name] = node.bind(planner, copy)
        return bound

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

    def _once(
        self,
        kind: str,
        expr: ast.Expression,
        scope: Scope,
        build: Callable[..., Any],
        parameters: Optional[tuple],
    ) -> Any:
        """``build(expr, scope, parameters)``, built on first use and kept
        with the prepared operator: every bound copy shares it."""
        key = (kind, id(expr))
        entry = self._closures.get(key)
        if entry is None or entry[1] is not scope:
            # the entry holds ``expr`` and ``scope``: their ids stay theirs
            entry = self._closures[key] = (
                expr, scope, build(expr, scope, parameters),
            )
        return entry[2]

    def compile_kernel(
        self,
        kind: str,
        expr: ast.Expression,
        scope: Scope,
        build: Callable[..., Any],
    ) -> Any:
        """``build(expr, scope, parameters)``: a kernel of ``expr`` over
        ``scope``.  In a kept tree, a static expression (no ``?``, no
        crowd, no subquery) outside a correlated subquery is built once,
        with no parameters; any other is built for each execution with
        its parameters."""
        if (
            self._closures is None
            or self.correlation is not None
            or not expr.facts.static
        ):
            return build(expr, scope, self.context.parameters)
        return self._once(kind, expr, scope, build, ())

    def _row_closure(
        self,
        kind: str,
        expr: ast.Expression,
        scope: Scope,
        compile: Callable[..., Any],
    ) -> Any:
        """The closure of an electronic ``expr`` in a kept tree, compiled
        once: a ``?`` in it reads the parameters this execution appends
        to the row.  With too few parameters it is compiled for this
        execution, so the error naming the missing one is raised per
        row, as from any closure."""
        fn = self._once(kind, expr, scope, compile, None)
        needed = expr.facts.parameters
        if not needed:
            return fn
        parameters = self.context.parameters
        if len(parameters) < needed:
            return compile(expr, scope, parameters)
        # a None parameter reads as NULL, as a folded one does
        parameters = tuple(NULL if v is None else v for v in parameters)
        return lambda values: fn(values + parameters)

    def compile_value(self, expr: ast.Expression, scope: Scope):
        """Compile ``expr`` into a ``row values -> value`` closure; the
        correlated outer row, fixed per bound operator, is appended
        inside the closure."""
        if self.correlation is None:
            if self._closures is not None and expr.facts.electronic:
                return self._row_closure("value", expr, scope, _compile_value)
            return self.context.compile_value_fn(expr, scope)
        from repro.storage.row import LayeredScope

        outer_values, outer_scope = self.correlation
        fn = self.context.compile_value_fn(
            expr, LayeredScope(scope, outer_scope)
        )
        return lambda values: fn(values + outer_values)

    def compile_predicate(self, expr: ast.Expression, scope: Scope):
        """Compile ``expr`` into a ``row values -> TriBool`` closure (see
        :meth:`compile_value`)."""
        if self.correlation is None:
            if self._closures is not None and expr.facts.electronic:
                return self._row_closure(
                    "predicate", expr, scope, _compile_predicate
                )
            return self.context.compile_predicate_fn(expr, scope)
        from repro.storage.row import LayeredScope

        outer_values, outer_scope = self.correlation
        fn = self.context.compile_predicate_fn(
            expr, LayeredScope(scope, outer_scope)
        )
        return lambda values: fn(values + outer_values)


def _compile_value(
    expr: ast.Expression, scope: Scope, parameters: Optional[tuple]
):
    return compile_value(expr, scope, parameters=parameters)


def _compile_predicate(
    expr: ast.Expression, scope: Scope, parameters: Optional[tuple]
):
    return compile_predicate(expr, scope, parameters=parameters)
