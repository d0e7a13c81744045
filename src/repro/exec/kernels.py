"""Column-at-a-time kernel compilation.

Compiles expression ASTs into *kernels* operating over whole
:class:`~repro.exec.vector.ColumnBatch` columns instead of one row tuple
at a time:

* a **column kernel** maps a batch to ``(column, tag)`` — a scalar
  expression evaluated for every row, as a list, an ndarray (a float
  result computed in numpy, or a typed input passed through) or a coded
  column (see :mod:`repro.exec.vector`);
* a **mask kernel** maps a batch to ``(mask_list, clean)`` — a predicate
  under 3VL, with mask elements ``True``/``False``/``None`` (``None`` =
  UNKNOWN) and ``clean=True`` guaranteeing no ``None`` entries.

Semantics contract (inherited from :mod:`repro.plan.compiled`): kernels
must be branch-for-branch equivalent to the row engine's compiled
closures.  Every fast path is gated on runtime column tags; the slow
paths mirror the row closures exactly, including error types/messages,
``compare_values`` argument orientation (so ``TypeError`` messages
match), and the NaN-consistent comparison phrasings (``=`` is
``not (v < c or v > c)``, never native ``==``, because ``compare_values``
derives orderings as ``(a > b) - (a < b)`` which is 0 for NaN against
anything).  AND/OR evaluate **both** side masks over the full batch —
the row engine's connectives are deliberately non-short-circuiting.

Anything outside the vectorizable subset raises :class:`CannotVectorize`
at compile time (never from inside a kernel); operators then fall back
to mapping the row-compiled closure over ``batch.rows()``, which is
exactly the row engine's chunked loop, and count it (:func:`note_fallback`).
"""

from __future__ import annotations

import threading
import warnings
import weakref
from itertools import repeat
from operator import and_, or_
from typing import Any, Callable, Optional

from repro.errors import ExecutionError, KernelFallbackWarning
from repro.exec.vector import (
    NUMERIC_TAGS,
    TAG_FLOAT,
    TAG_INT,
    TAG_NUM,
    TAG_STR,
    Coded,
    ColumnBatch,
    as_list,
    typed_array,
)
from repro.plan.compiled import (
    _ARITHMETIC,
    _COMPARISON_CHECKS,
    _NUMERIC_COMPARISONS,
    _PY_COMPARISONS,
    _Compiler,
    _as_string,
    _require_numbers,
    cached_like_regex,
    rendered_position,
)
from repro.sql import ast
from repro.sqltypes import CNULL, NULL, compare_values
from repro.storage.row import Scope

#: A column kernel: batch -> (column, cleanliness tag or None).
ColumnKernel = Callable[[ColumnBatch], tuple[Any, Optional[str]]]
#: A mask kernel: batch -> (list of True/False/None, clean flag).
MaskKernel = Callable[[ColumnBatch], tuple[list, bool]]


class CannotVectorize(Exception):
    """Expression (or operator input) outside the vectorizable subset."""


#: Errors the row compiler may legitimately raise while probing an
#: expression for constant folding: the value errors of folding genuinely
#: bad constants (``'a' + 1``), which must fall back so the error surfaces
#: lazily, per row.
#: Anything else — a ``NameError`` from a typo'd lane, an
#: ``AttributeError`` from a refactor — is a kernel bug and propagates.
_EXPECTED_FOLD_ERRORS = (TypeError, ValueError, OverflowError)

_fallback_registry: Callable[[], Optional[Any]] = lambda: None  # weakref
_fallback_lock = threading.Lock()
_warned_fallbacks: set[tuple[str, str]] = set()


def set_metrics_registry(registry: Optional[Any]) -> None:
    """Install the metrics registry kernel fallbacks report to.

    Process-global (kernels compile without any execution context); the
    most recently connected registry receives the counters.  ``None``
    detaches.  Held weakly: the registry's collectors reach its
    connection's storage engine, which must die with the connection."""
    global _fallback_registry
    _fallback_registry = (
        (lambda: None) if registry is None else weakref.ref(registry)
    )


def note_fallback(site: str) -> None:
    """Count one kernel compile that fell back, in total and by site:
    a constant fold that raised, or an expression outside the kernel
    subset left to the row closure by the operator ``site``."""
    registry = _fallback_registry()
    if registry is not None:
        registry.counter(
            "kernel_fallbacks_total",
            help="vectorized kernel compiles that fell back",
        ).inc()
        registry.counter(
            f"kernel_fallbacks.{site}",
            help="vectorized kernel compiles that fell back, by site",
        ).inc()


def _note_fallback(site: str, error: BaseException) -> None:
    """Count an expected-error fallback; warn once per (site, class)."""
    note_fallback(site)
    key = (site, type(error).__name__)
    with _fallback_lock:
        if key in _warned_fallbacks:
            return
        _warned_fallbacks.add(key)
    warnings.warn(
        f"vectorized kernel fallback at {site}: "
        f"{type(error).__name__}: {error}",
        KernelFallbackWarning,
        stacklevel=4,
    )


#: Comparison sources phrased over ``v`` (row value) and the captured
#: constant/partner ``c``, matching ``_NUMERIC_COMPARISONS`` exactly.
_NUM_CMP_SRC = {
    "=": "not (v < c or v > c)",
    "<>": "v < c or v > c",
    "<": "v < c",
    "<=": "not (v > c)",
    ">": "v > c",
    ">=": "not (v < c)",
}
_STR_CMP_SRC = {
    "=": "v == c",
    "<>": "v != c",
    "<": "v < c",
    "<=": "v <= c",
    ">": "v > c",
    ">=": "v >= c",
}
#: Operator flip for const-on-left comparisons: ``5 < col`` runs the
#: fast path as ``col > 5``.  The slow path keeps the original
#: ``compare_values(constant, row)`` orientation so error messages match
#: the row engine byte for byte.
_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

_VECTOR_ARITH = ("+", "-", "*", "%")

try:  # ndarray lanes are optional — everything below them is pure Python
    import numpy as _np
except ImportError:  # pragma: no cover - image without numpy
    _np = None

#: Ints with |v| at or below this convert to float64 exactly, so mixed
#: int/float comparisons decided in float64 agree with Python's exact
#: int-vs-float comparison.
_F64_EXACT = 1 << 53


def _ndcolumn(batch: ColumnBatch, col, tag: Optional[str]):
    """``col`` as an int64/float64 ndarray, or None when no exact lane.

    An ndarray column is its own lane (its dtype matches its tag).  A
    stored list takes its per-version lane (``batch.lanes``); any other
    list -- or a coded column's values -- converts through
    :func:`~repro.exec.vector.typed_array`, exact for the reasons it
    gives.
    """
    if _np is None or (tag != TAG_FLOAT and tag != TAG_INT):
        return None
    kind = type(col)
    if kind is list:
        lanes = batch.lanes
        arr = lanes.array(col) if lanes is not None else None
        return arr if arr is not None else typed_array(col, tag)
    if kind is Coded:
        arr = typed_array(col.values, tag)
        return None if arr is None else arr[col.codes]
    return col


def _by_code(batch: ColumnBatch, col, verdict: Callable[[list], list]):
    """A mask over a dictionary-lane column: ``verdict`` runs once over
    the distinct values and the bool mask is gathered by code.  None when
    ``col`` has no dictionary lane or a verdict is not a plain bool."""
    lanes = batch.lanes
    lane = lanes.dictionary(col) if lanes is not None else None
    if lane is None:
        return None
    codes, values = lane
    verdicts = verdict(values)
    if None in verdicts:
        return None
    return _np.array(verdicts, dtype=_np.bool_)[codes]


def _ndconst(arr, constant):
    """``constant`` as a scalar whose ndarray comparison against ``arr``
    is exactly Python's, or None when no such scalar exists."""
    if type(constant) is float:
        if arr.dtype == _np.int64 and len(arr):
            # int64 promotes to float64 for the comparison; exact only
            # when every element converts exactly
            if int(arr.min()) < -_F64_EXACT or int(arr.max()) > _F64_EXACT:
                return None
        return constant
    if arr.dtype == _np.int64:  # int-vs-int compares in int64: exact
        return constant if -(1 << 63) <= constant < (1 << 63) else None
    return float(constant) if -_F64_EXACT <= constant <= _F64_EXACT else None


def _ndmask(arr, op: str, c):
    """Comparison mask phrased exactly like ``_NUM_CMP_SRC`` (so the NaN
    verdicts match the row engine's compare_values quirks)."""
    if op == "<":
        return arr < c
    if op == "<=":
        return ~(arr > c)
    if op == ">":
        return arr > c
    if op == ">=":
        return ~(arr < c)
    if op == "=":
        return ~((arr < c) | (arr > c))
    return (arr < c) | (arr > c)  # "<>"


def _ndarith(arr, op: str, constant, constant_on_left: bool):
    """``arr op constant`` in float64, or None when not exactly Python.

    Licensed lanes: any int64/float64 array against a float constant
    (int64 casts to float64 round-half-even, exactly like CPython's
    int-operand conversion), or a float64 array against an int constant
    that converts exactly.  Pure-int arithmetic stays off ndarrays —
    int64 would wrap where Python ints grow.  Only ``+ - *`` qualify:
    ``%`` is fmod in float64, which disagrees with Python's floored
    modulo on negative operands.
    """
    if op != "+" and op != "-" and op != "*":
        return None
    if type(constant) is float:
        c = constant
    elif arr.dtype == _np.float64 and -_F64_EXACT <= constant <= _F64_EXACT:
        c = float(constant)
    else:
        return None
    with _np.errstate(over="ignore", invalid="ignore"):  # inf/nan, as Python
        if op == "+":
            return arr + c
        if op == "*":
            return arr * c
        return c - arr if constant_on_left else arr - c


def _ndpair(a_arr, b_arr, op: str):
    """``a op b`` elementwise, licensed only when the result dtype is
    float64 (at least one side float64): the int64→float64 cast and the
    IEEE op then match Python's per-element arithmetic bit for bit.
    Pure-int64 pairs are refused (wrap) — callers gate on the output tag
    being TAG_FLOAT, which already implies a float side."""
    if a_arr.dtype != _np.float64 and b_arr.dtype != _np.float64:
        return None
    with _np.errstate(over="ignore", invalid="ignore"):  # inf/nan, as Python
        if op == "+":
            return a_arr + b_arr
        if op == "-":
            return a_arr - b_arr
        if op == "*":
            return a_arr * b_arr
    return None


def _nddivide(arr, c: float):
    """``arr / c`` for a nonzero float ``c``: int64 operands convert
    round-half-even exactly like CPython's int→double, so the quotient is
    bit-identical; an overflow is inf, as in Python."""
    with _np.errstate(over="ignore"):
        return arr / c


def _mask_list(mask):
    """Masks travel as lists or bool ndarrays; consumers that need
    Python bools normalize here (``tolist`` is a single C pass)."""
    return mask if type(mask) is list else mask.tolist()


def _listcomp(src: str, **captured: Any) -> Callable[[list], list]:
    """A whole-column listcomp: no per-element closure calls."""
    return _on_first_call(f"lambda col: [{src} for v in col]", captured)


def _paircomp(src: str, **captured: Any) -> Callable[[list, list], list]:
    return _on_first_call(
        f"lambda a, b: [{src} for v, c in zip(a, b)]", captured
    )


def _on_first_call(source: str, captured: dict) -> Callable:
    """``source`` compiled on its first call, not before: a kernel whose
    ndarray lane runs never pays the codegen of its list lane."""
    compiled = None

    def run(*columns):
        nonlocal compiled
        if compiled is None:
            compiled = eval(source, dict(captured))
        return compiled(*columns)

    return run


def compile_column_kernel(
    expr: ast.Expression,
    scope: Scope,
    parameters: tuple = (),
) -> ColumnKernel:
    """Compile ``expr`` to a column kernel, or raise CannotVectorize."""
    return _VectorCompiler(scope, parameters).column(expr)


def compile_mask_kernel(
    expr: ast.Expression, scope: Scope, parameters: tuple = ()
) -> MaskKernel:
    """Compile ``expr`` to a 3VL mask kernel, or raise CannotVectorize."""
    return _VectorCompiler(scope, parameters).mask(expr)


def _is_missing_scalar(value: Any) -> bool:
    return value is NULL or value is None or value is CNULL


class _VectorCompiler:
    """Compiles one expression tree against one operator scope.

    Constant detection delegates to the row :class:`_Compiler` (context-
    free), so "constant" means exactly what the row engine folds."""

    def __init__(self, scope: Scope, parameters: tuple) -> None:
        self.scope = scope
        self.parameters = parameters
        self._row = _Compiler(scope, parameters=parameters)

    def _const(self, expr: ast.Expression) -> tuple[bool, Any]:
        try:
            fn, const = self._row.value(expr)
        except _EXPECTED_FOLD_ERRORS as error:
            _note_fallback("column-const", error)
            return False, None
        if not const:
            return False, None
        return True, fn(())

    # -- column kernels --------------------------------------------------------

    def column(self, expr: ast.Expression) -> ColumnKernel:
        const, value = self._const(expr)
        if const:
            value_type = type(value)
            tag = (
                TAG_INT
                if value_type is int
                else TAG_FLOAT
                if value_type is float
                else TAG_STR
                if value_type is str
                else None
            )
            return lambda batch: ([value] * batch.num_rows, tag)
        if isinstance(expr, ast.ColumnRef):
            try:
                position = self.scope.resolve(expr.name, expr.table)
            except ExecutionError as error:
                raise CannotVectorize(str(error))
        else:
            # an aggregate call or GROUP BY expression over an Aggregate
            position = rendered_position(expr, self.scope)
        if position is not None:
            return lambda batch: (
                batch.columns[position],
                batch.tags[position],
            )
        if isinstance(expr, ast.UnaryOp):
            return self._unary_column(expr)
        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            if op == "||":
                return self._concat(expr)
            if op == "/":
                return self._divide(expr)
            if op in _VECTOR_ARITH and op in _ARITHMETIC:
                return self._arith(expr)
            raise CannotVectorize(f"binary operator {op!r}")
        raise CannotVectorize(type(expr).__name__)

    def _unary_column(self, expr: ast.UnaryOp) -> ColumnKernel:
        op = expr.op
        if op == "NOT":
            mask_kernel = self.mask(expr.operand)

            def negate(batch: ColumnBatch) -> tuple[list, Optional[str]]:
                mask, clean = mask_kernel(batch)
                if clean:
                    if type(mask) is not list:
                        return (~mask).tolist(), None
                    return [not x for x in mask], None
                return [NULL if x is None else not x for x in mask], None

            return negate
        if op not in ("-", "+"):
            raise CannotVectorize(f"unary {op}")
        operand_kernel = self.column(expr.operand)
        negative = op == "-"

        def kernel(batch: ColumnBatch) -> tuple[list, Optional[str]]:
            col, tag = operand_kernel(batch)
            col = as_list(col)
            if tag in NUMERIC_TAGS:
                return ([-v for v in col] if negative else [+v for v in col]), tag
            out: list = []
            append = out.append
            for v in col:
                if v is NULL or v is None or v is CNULL:
                    append(NULL)
                elif not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise ExecutionError(f"unary {op} needs a numeric operand")
                else:
                    append(-v if negative else +v)
            return out, None

        return kernel

    def _concat(self, expr: ast.BinaryOp) -> ColumnKernel:
        left_kernel = self.column(expr.left)
        right_kernel = self.column(expr.right)

        def kernel(batch: ColumnBatch) -> tuple[list, Optional[str]]:
            left, ltag = left_kernel(batch)
            right, rtag = right_kernel(batch)
            left = as_list(left)
            right = as_list(right)
            if ltag is not None and rtag is not None:
                if ltag == TAG_STR and rtag == TAG_STR:
                    return [a + b for a, b in zip(left, right)], TAG_STR
                return (
                    [_as_string(a) + _as_string(b) for a, b in zip(left, right)],
                    TAG_STR,
                )
            out: list = []
            append = out.append
            for a, b in zip(left, right):
                if _is_missing_scalar(a) or _is_missing_scalar(b):
                    append(NULL)
                else:
                    append(_as_string(a) + _as_string(b))
            return out, None

        return kernel

    def _arith(self, expr: ast.BinaryOp) -> ColumnKernel:
        op = expr.op
        arithmetic = _ARITHMETIC[op]
        left_const, left_value = self._const(expr.left)
        right_const, right_value = self._const(expr.right)

        # one-sided numeric constant (``priority * 0.05``): bake it in
        if right_const != left_const:
            constant = left_value if left_const else right_value
            if type(constant) in (int, float):
                flipped = left_const
                operand_kernel = self.column(
                    expr.right if left_const else expr.left
                )
                src = f"c {op} v" if flipped else f"v {op} c"
                fast = _listcomp(src, c=constant)
                const_is_int = type(constant) is int

                def kernel(batch: ColumnBatch) -> tuple[list, Optional[str]]:
                    col, tag = operand_kernel(batch)
                    if tag in NUMERIC_TAGS:
                        out_tag = (
                            TAG_INT
                            if tag == TAG_INT and const_is_int
                            else TAG_NUM
                            if tag == TAG_NUM
                            # int column with a float constant, or float
                            # column with any numeric constant: every
                            # result is a float
                            else TAG_FLOAT
                        )
                        if out_tag is TAG_FLOAT:
                            arr = _ndcolumn(batch, col, tag)
                            if arr is not None:
                                res = _ndarith(arr, op, constant, flipped)
                                if res is not None:
                                    return res, TAG_FLOAT
                        return fast(as_list(col)), out_tag
                    out: list = []
                    append = out.append
                    for v in as_list(col):
                        value_type = type(v)
                        if value_type is int or value_type is float:
                            append(
                                arithmetic(constant, v)
                                if flipped
                                else arithmetic(v, constant)
                            )
                        elif v is NULL or v is None or v is CNULL:
                            append(NULL)
                        else:
                            left, right = (
                                (constant, v) if flipped else (v, constant)
                            )
                            _require_numbers(op, left, right)
                            append(arithmetic(left, right))
                    return out, None

                return kernel

        left_kernel = self.column(expr.left)
        right_kernel = self.column(expr.right)
        fast_pair = _paircomp(f"v {op} c")

        def kernel(batch: ColumnBatch) -> tuple[list, Optional[str]]:
            a, atag = left_kernel(batch)
            b, btag = right_kernel(batch)
            if atag in NUMERIC_TAGS and btag in NUMERIC_TAGS:
                if atag == TAG_INT and btag == TAG_INT:
                    out_tag = TAG_INT
                elif atag == TAG_NUM or btag == TAG_NUM:
                    out_tag = TAG_NUM
                else:  # at least one side all-float → results all float
                    out_tag = TAG_FLOAT
                    aa = _ndcolumn(batch, a, atag)
                    if aa is not None:
                        bb = _ndcolumn(batch, b, btag)
                        if bb is not None:
                            res = _ndpair(aa, bb, op)
                            if res is not None:
                                return res, TAG_FLOAT
                return fast_pair(as_list(a), as_list(b)), out_tag
            out: list = []
            append = out.append
            for v, w in zip(as_list(a), as_list(b)):
                v_type = type(v)
                w_type = type(w)
                if (v_type is int or v_type is float) and (
                    w_type is int or w_type is float
                ):
                    append(arithmetic(v, w))
                elif _is_missing_scalar(v) or _is_missing_scalar(w):
                    append(NULL)
                else:
                    _require_numbers(op, v, w)
                    append(arithmetic(v, w))
            return out, None

        return kernel

    def _divide(self, expr: ast.BinaryOp) -> ColumnKernel:
        left_const, left_value = self._const(expr.left)
        right_const, right_value = self._const(expr.right)

        def div_one(left: Any, right: Any) -> Any:
            # exact mirror of the row engine's compiled ``divide``
            if _is_missing_scalar(left) or _is_missing_scalar(right):
                return NULL
            _require_numbers("/", left, right)
            if right == 0:
                return NULL
            if isinstance(left, int) and isinstance(right, int) and left % right == 0:
                return left // right
            return left / right

        if right_const and not left_const:
            operand_kernel = self.column(expr.left)
            c = right_value
            if type(c) is float and c != 0:
                fast = _listcomp("v / c", c=c)

                def kernel(batch: ColumnBatch) -> tuple[list, Optional[str]]:
                    col, tag = operand_kernel(batch)
                    if tag in NUMERIC_TAGS:
                        # true division by a float is always a float
                        arr = _ndcolumn(batch, col, tag)
                        if arr is not None:
                            return _nddivide(arr, c), TAG_FLOAT
                        return fast(as_list(col)), TAG_FLOAT
                    return [div_one(v, c) for v in as_list(col)], None

                return kernel
            if type(c) is int and c != 0:
                fast = _listcomp("v // c if v % c == 0 else v / c", c=c)
                fast_float = _listcomp("v / c", c=c)

                def kernel(batch: ColumnBatch) -> tuple[list, Optional[str]]:
                    col, tag = operand_kernel(batch)
                    if tag == TAG_FLOAT:
                        # float numerators never take the int//int branch
                        if -_F64_EXACT <= c <= _F64_EXACT:
                            arr = _ndcolumn(batch, col, tag)
                            if arr is not None:
                                return _nddivide(arr, float(c)), TAG_FLOAT
                        return fast_float(as_list(col)), TAG_FLOAT
                    col = as_list(col)
                    if tag == TAG_INT:
                        return fast(col), TAG_NUM
                    if tag == TAG_NUM:
                        return [div_one(v, c) for v in col], TAG_NUM
                    return [div_one(v, c) for v in col], None

                return kernel

            def kernel(batch: ColumnBatch) -> tuple[list, Optional[str]]:
                col, _tag = operand_kernel(batch)
                return [div_one(v, c) for v in as_list(col)], None

            return kernel
        if left_const and not right_const:
            operand_kernel = self.column(expr.right)
            c = left_value

            def kernel(batch: ColumnBatch) -> tuple[list, Optional[str]]:
                col, _tag = operand_kernel(batch)
                return [div_one(c, v) for v in as_list(col)], None

            return kernel
        left_kernel = self.column(expr.left)
        right_kernel = self.column(expr.right)

        def kernel(batch: ColumnBatch) -> tuple[list, Optional[str]]:
            a, _atag = left_kernel(batch)
            b, _btag = right_kernel(batch)
            return [
                div_one(v, w) for v, w in zip(as_list(a), as_list(b))
            ], None

        return kernel

    # -- mask kernels ----------------------------------------------------------

    def mask(self, expr: ast.Expression) -> MaskKernel:
        # constant predicate: fold once, broadcast the verdict
        try:
            fn, const = self._row.tri(expr)
        except _EXPECTED_FOLD_ERRORS as error:
            _note_fallback("mask-const", error)
            const = False
        if const:
            verdict = fn(()).value
            clean = verdict is not None
            return lambda batch: ([verdict] * batch.num_rows, clean)
        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            if op == "AND":
                return self._connective(expr, conjunction=True)
            if op == "OR":
                return self._connective(expr, conjunction=False)
            if op in _COMPARISON_CHECKS:
                return self._comparison(expr)
            if op == "LIKE":
                return self._like(expr)
            raise CannotVectorize(f"binary operator {op!r} as a predicate")
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            return self._not(expr)
        if isinstance(expr, ast.IsNull):
            return self._is_null(expr)
        if isinstance(expr, ast.InList):
            return self._in_list(expr)
        if isinstance(expr, ast.Between):
            return self._between(expr)
        # a value read as a verdict (a BOOLEAN column, arithmetic, a
        # subquery, CROWDEQUAL): the row closure decides
        raise CannotVectorize(type(expr).__name__)

    def _connective(self, expr: ast.BinaryOp, conjunction: bool) -> MaskKernel:
        # Both sides always evaluate over the whole batch — the row
        # engine's conjoin/disjoin are NOT short-circuiting (window
        # prefetch and error surfacing rely on it), so no selection
        # compaction between conjuncts.
        left_kernel = self.mask(expr.left)
        right_kernel = self.mask(expr.right)

        def kernel(batch: ColumnBatch) -> tuple[list, bool]:
            a, a_clean = left_kernel(batch)
            b, b_clean = right_kernel(batch)
            if a_clean and b_clean:
                # clean masks hold real bools (or travel as bool
                # ndarrays), so the bitwise operator equals the logical
                # connective and the whole pass runs without bytecode.
                # When either side already is an ndarray, lift the other
                # (one C fromiter pass) and combine in numpy — cheaper
                # than normalizing both to lists, and the ndarray result
                # feeds parent connectives/filters without conversion.
                a_is_list = type(a) is list
                b_is_list = type(b) is list
                if not (a_is_list and b_is_list):
                    if a_is_list:
                        a = _np.fromiter(a, _np.bool_, len(a))
                    elif b_is_list:
                        b = _np.fromiter(b, _np.bool_, len(b))
                    return (a & b) if conjunction else (a | b), True
                if conjunction:
                    return list(map(and_, a, b)), True
                return list(map(or_, a, b)), True
            # the 3VL loop tests identity with True/False/None, which an
            # ndarray's np.bool_ elements never pass: a clean ndarray side
            # becomes Python bools first
            a = _mask_list(a)
            b = _mask_list(b)
            out: list = []
            append = out.append
            if conjunction:
                for x, y in zip(a, b):
                    if x is False or y is False:
                        append(False)
                    elif x is None or y is None:
                        append(None)
                    else:
                        append(True)
            else:
                for x, y in zip(a, b):
                    if x is True or y is True:
                        append(True)
                    elif x is None or y is None:
                        append(None)
                    else:
                        append(False)
            return out, False

        return kernel

    def _not(self, expr: ast.UnaryOp) -> MaskKernel:
        operand_kernel = self.mask(expr.operand)

        def kernel(batch: ColumnBatch) -> tuple[list, bool]:
            mask, clean = operand_kernel(batch)
            if clean:
                if type(mask) is not list:
                    return ~mask, True
                return [not x for x in mask], True
            return [None if x is None else not x for x in mask], False

        return kernel

    def _comparison(self, expr: ast.BinaryOp) -> MaskKernel:
        op = expr.op
        check = _COMPARISON_CHECKS[op]
        left_const, left_value = self._const(expr.left)
        right_const, right_value = self._const(expr.right)

        # one-sided int/float/str constant (``col >= 7``)
        if right_const != left_const:
            constant = left_value if left_const else right_value
            constant_type = type(constant)
            if constant_type in (int, float, str):
                flipped = left_const
                operand_expr = expr.right if left_const else expr.left
                operand_kernel = self.column(operand_expr)
                numeric = constant_type is not str
                py_compare = (
                    _NUMERIC_COMPARISONS if numeric else _PY_COMPARISONS
                )[op]
                effective = _FLIP[op] if flipped else op
                src = (_NUM_CMP_SRC if numeric else _STR_CMP_SRC)[effective]
                fast = _listcomp(src, c=constant)
                fuse = (
                    self._arith_fusion(operand_expr) if numeric else None
                )

                def kernel(batch: ColumnBatch) -> tuple[list, bool]:
                    if fuse is not None:
                        # ``(col ∘ k) cmp c`` fused: arithmetic and
                        # comparison in two ndarray passes, no
                        # intermediate Python list
                        inner_kernel, aop, aconst, aleft = fuse
                        inner_col, inner_tag = inner_kernel(batch)
                        arr = _ndcolumn(batch, inner_col, inner_tag)
                        if arr is not None:
                            arith = _ndarith(arr, aop, aconst, aleft)
                            if arith is not None:
                                c_nd = _ndconst(arith, constant)
                                if c_nd is not None:
                                    return _ndmask(arith, effective, c_nd), True
                        # lane unavailable: fall through (the inner
                        # kernel re-runs inside operand_kernel — extra
                        # evaluation is the licensed divergence)
                    col, tag = operand_kernel(batch)
                    if tag in NUMERIC_TAGS if numeric else tag == TAG_STR:
                        if numeric:
                            arr = _ndcolumn(batch, col, tag)
                            if arr is not None:
                                c_nd = _ndconst(arr, constant)
                                if c_nd is not None:
                                    return _ndmask(arr, effective, c_nd), True
                        else:
                            mask = _by_code(batch, col, fast)
                            if mask is not None:
                                return mask, True
                        return fast(as_list(col)), True
                    out: list = []
                    append = out.append
                    for v in as_list(col):
                        value_type = type(v)
                        if (
                            (value_type is int or value_type is float)
                            if numeric
                            else value_type is str
                        ):
                            append(
                                py_compare(constant, v)
                                if flipped
                                else py_compare(v, constant)
                            )
                        else:
                            ordering = (
                                compare_values(constant, v)
                                if flipped
                                else compare_values(v, constant)
                            )
                            append(None if ordering is None else check(ordering))
                    return out, False

                return kernel

        left_kernel = self.column(expr.left)
        right_kernel = self.column(expr.right)
        num_compare = _NUMERIC_COMPARISONS[op]
        str_compare = _PY_COMPARISONS[op]
        fast_num = _paircomp(_NUM_CMP_SRC[op])
        fast_str = _paircomp(_STR_CMP_SRC[op])

        def kernel(batch: ColumnBatch) -> tuple[list, bool]:
            a, atag = left_kernel(batch)
            b, btag = right_kernel(batch)
            a = as_list(a)
            b = as_list(b)
            if atag in NUMERIC_TAGS and btag in NUMERIC_TAGS:
                return fast_num(a, b), True
            if atag == TAG_STR and btag == TAG_STR:
                return fast_str(a, b), True
            out: list = []
            append = out.append
            for v, w in zip(a, b):
                v_type = type(v)
                w_type = type(w)
                if (v_type is int or v_type is float) and (
                    w_type is int or w_type is float
                ):
                    append(num_compare(v, w))
                elif v_type is str and w_type is str:
                    append(str_compare(v, w))
                else:
                    ordering = compare_values(v, w)
                    append(None if ordering is None else check(ordering))
            return out, False

        return kernel

    def _arith_fusion(self, operand: ast.Expression):
        """``(inner_kernel, op, const, const_on_left)`` when ``operand``
        is ``inner ∘ numeric-constant`` and the ndarray lane could fuse
        the arithmetic into a comparison; None otherwise."""
        if _np is None or not isinstance(operand, ast.BinaryOp):
            return None
        if operand.op not in ("+", "-", "*"):
            return None
        left_const, left_value = self._const(operand.left)
        right_const, right_value = self._const(operand.right)
        if left_const == right_const:
            return None
        constant = left_value if left_const else right_value
        if type(constant) not in (int, float):
            return None
        inner = operand.right if left_const else operand.left
        try:
            inner_kernel = self.column(inner)
        except CannotVectorize:
            return None
        return inner_kernel, operand.op, constant, left_const

    def _like(self, expr: ast.BinaryOp) -> MaskKernel:
        pattern_const, pattern = self._const(expr.right)
        if not pattern_const:
            raise CannotVectorize("dynamic LIKE pattern")
        operand_kernel = self.column(expr.left)
        if _is_missing_scalar(pattern):

            def kernel(batch: ColumnBatch) -> tuple[list, bool]:
                col, _tag = operand_kernel(batch)  # operand errors surface
                return [None] * len(col), False

            return kernel
        pattern_text = str(pattern)
        regex_match = cached_like_regex(pattern_text).match
        # Literal-only patterns with at most an edge or bracketing ``%``
        # reduce to str methods run in a single C map() pass — the
        # unbound method zipped against a repeated literal, which skips
        # the per-element bound-method creation a methodcaller pays.  The
        # regex is anchored with ``\Z``, so ``lit`` is exactly equality,
        # ``lit%`` startswith, ``%lit`` endswith and ``%lit%`` substring
        # containment.
        matcher = literal = None
        if "_" not in pattern_text:
            if "%" not in pattern_text:
                matcher, literal = str.__eq__, pattern_text
            elif pattern_text.endswith("%") and "%" not in pattern_text[:-1]:
                matcher, literal = str.startswith, pattern_text[:-1]
            elif (
                len(pattern_text) >= 2
                and pattern_text.startswith("%")
                and pattern_text.endswith("%")
                and "%" not in pattern_text[1:-1]
            ):
                matcher, literal = str.__contains__, pattern_text[1:-1]
            elif pattern_text.startswith("%") and "%" not in pattern_text[1:]:
                matcher, literal = str.endswith, pattern_text[1:]

        def like(col: list) -> list:
            if matcher is not None:
                return list(map(matcher, col, repeat(literal)))
            return [regex_match(v) is not None for v in col]

        def kernel(batch: ColumnBatch) -> tuple[list, bool]:
            col, tag = operand_kernel(batch)
            if tag == TAG_STR:
                mask = _by_code(batch, col, like)
                if mask is not None:
                    return mask, True
                return like(as_list(col)), True
            out: list = []
            append = out.append
            for v in as_list(col):
                if type(v) is str:
                    append(regex_match(v) is not None)
                elif v is NULL or v is None or v is CNULL:
                    append(None)
                else:
                    append(regex_match(str(v)) is not None)
            return out, False

        return kernel

    def _is_null(self, expr: ast.IsNull) -> MaskKernel:
        operand_kernel = self.column(expr.operand)
        negated, cnull = expr.negated, expr.cnull

        def kernel(batch: ColumnBatch) -> tuple[list, bool]:
            col, tag = operand_kernel(batch)
            if tag is not None:
                # clean columns contain no NULL/CNULL at all
                return [negated] * len(col), True
            col = as_list(col)
            if cnull:
                return [(v is CNULL) != negated for v in col], True
            return [
                (v is NULL or v is None or v is CNULL) != negated for v in col
            ], True

        return kernel

    def _in_list(self, expr: ast.InList) -> MaskKernel:
        operand_const, _value = self._const(expr.operand)
        if operand_const:
            raise CannotVectorize("constant IN operand")
        items = []
        for item in expr.items:
            item_const, item_value = self._const(item)
            if not item_const:
                raise CannotVectorize("non-constant IN item")
            items.append(item_value)
        operand_kernel = self.column(expr.operand)
        negated = expr.negated
        clean_items = [v for v in items if not _is_missing_scalar(v)]
        saw_missing_items = len(clean_items) != len(items)
        match_result = False if negated else True
        miss_result = None if saw_missing_items else (True if negated else False)
        # set membership is exact only for int operands against
        # int/finite-float items (bool items must go through
        # compare_values, which rejects them; NaN items compare equal to
        # everything there but to nothing in a set)
        int_set = (
            set(clean_items)
            if all(
                type(v) is int or (type(v) is float and v == v)
                for v in clean_items
            )
            else None
        )

        def each(col: list) -> list:
            out: list = []
            append = out.append
            for v in col:
                if v is NULL or v is None or v is CNULL:
                    append(None)
                    continue
                result = miss_result
                for item in items:
                    if _is_missing_scalar(item):
                        continue
                    if compare_values(v, item) == 0:
                        result = match_result
                        break
                append(result)
            return out

        def kernel(batch: ColumnBatch) -> tuple[list, bool]:
            col, tag = operand_kernel(batch)
            if tag == TAG_STR:
                mask = _by_code(batch, col, each)
                if mask is not None:
                    return mask, True
            col = as_list(col)
            if tag == TAG_INT and int_set is not None:
                return (
                    [match_result if v in int_set else miss_result for v in col],
                    not saw_missing_items,
                )
            return each(col), False

        return kernel

    def _between(self, expr: ast.Between) -> MaskKernel:
        operand_const, _value = self._const(expr.operand)
        low_const, low = self._const(expr.low)
        high_const, high = self._const(expr.high)
        if operand_const or not (low_const and high_const):
            raise CannotVectorize("non-constant BETWEEN bounds")
        operand_kernel = self.column(expr.operand)
        negated = expr.negated
        num_bounds = type(low) in (int, float) and type(high) in (int, float)
        str_bounds = type(low) is str and type(high) is str
        if num_bounds or str_bounds:
            base = "not (v < lo) and not (v > hi)"
            src = f"not ({base})" if negated else base
            fast = _listcomp(src, lo=low, hi=high)

            def kernel(batch: ColumnBatch) -> tuple[list, bool]:
                col, tag = operand_kernel(batch)
                if (
                    tag in NUMERIC_TAGS if num_bounds else tag == TAG_STR
                ):
                    if num_bounds:
                        arr = _ndcolumn(batch, col, tag)
                        if arr is not None:
                            lo_nd = _ndconst(arr, low)
                            hi_nd = _ndconst(arr, high)
                            if lo_nd is not None and hi_nd is not None:
                                # same phrasing as the listcomp source:
                                # not (v < lo) and not (v > hi)
                                inside = ~(arr < lo_nd) & ~(arr > hi_nd)
                                return (~inside if negated else inside), True
                    return fast(as_list(col)), True
                out: list = []
                append = out.append
                for v in as_list(col):
                    value_type = type(v)
                    if (
                        (value_type is int or value_type is float)
                        if num_bounds
                        else value_type is str
                    ):
                        inside = not (v < low) and not (v > high)
                    else:
                        low_cmp = compare_values(v, low)
                        high_cmp = compare_values(v, high)
                        if low_cmp is None or high_cmp is None:
                            append(None)
                            continue
                        inside = low_cmp >= 0 and high_cmp <= 0
                    append(not inside if negated else inside)
                return out, False

            return kernel

        # mixed-kind constant bounds: the row compiler's generic ``run``
        # never takes its native fast path here, so mirror the
        # compare_values branch only
        def kernel(batch: ColumnBatch) -> tuple[list, bool]:
            col, _tag = operand_kernel(batch)
            out: list = []
            append = out.append
            for v in as_list(col):
                low_cmp = compare_values(v, low)
                high_cmp = compare_values(v, high)
                if low_cmp is None or high_cmp is None:
                    append(None)
                    continue
                inside = low_cmp >= 0 and high_cmp <= 0
                append(not inside if negated else inside)
            return out, False

        return kernel
