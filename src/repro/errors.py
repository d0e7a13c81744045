"""Exception and warning hierarchy for the CrowdDB reproduction.

Every error raised by the library derives from :class:`CrowdDBError`, so
callers can catch one type at the API boundary.  The taxonomy mirrors the
stages of query processing described in the paper: parsing (CrowdSQL),
catalog/DDL, planning/optimization (including the boundedness analysis of
Section 3.2.2), execution, storage, and the crowdsourcing substrate.
"""

from __future__ import annotations


class CrowdDBError(Exception):
    """Base class for all errors raised by the CrowdDB reproduction."""


class ParseError(CrowdDBError):
    """A CrowdSQL statement could not be lexed or parsed.

    Carries the source position so tools can point at the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class CatalogError(CrowdDBError):
    """Schema-level failure: unknown table/column, duplicate definition,
    invalid foreign key, or a malformed CROWD annotation."""


class TypeError_(CrowdDBError):
    """A value does not conform to its declared SQL type, or an expression
    combines incompatible types.  Named with a trailing underscore to avoid
    shadowing the Python builtin."""


class PlanError(CrowdDBError):
    """The logical planner could not translate an AST into a plan
    (e.g. aggregate misuse, unresolvable column reference)."""


class OptimizerError(CrowdDBError):
    """An optimizer rule produced or detected an inconsistent plan."""


class UnboundedQueryError(CrowdDBError):
    """Raised in strict mode when the boundedness analysis determines that
    the amount of data requested from the crowd cannot be bounded
    (open-world scan of a CROWD table without a limiting predicate)."""


class ExecutionError(CrowdDBError):
    """Runtime failure while executing a physical plan."""


class StorageError(CrowdDBError):
    """Failure in the storage substrate (heap, index, or log)."""


class ConstraintError(StorageError):
    """A primary-key, uniqueness, or foreign-key constraint was violated."""


class WALError(StorageError):
    """The write-ahead log could not be written or parsed."""


class CrowdPlatformError(CrowdDBError):
    """The crowdsourcing platform rejected an operation (bad HIT, unknown
    assignment, expired task, insufficient funds, ...)."""


class TransientPlatformError(CrowdPlatformError):
    """A platform call failed for a reason expected to clear on retry
    (network blip, rate limit, marketplace hiccup).  The Task Manager
    wraps ``post_hit``/``extend_hit`` in bounded exponential backoff for
    exactly this class."""


class BudgetExceededError(CrowdPlatformError):
    """The query's monetary or task budget was exhausted before the crowd
    produced the required answers."""


class CircuitOpenError(TransientPlatformError):
    """The circuit breaker guarding a crowd platform is open: recent
    calls failed (or crawled) often enough that further attempts are
    refused immediately instead of burning retries against a sick
    marketplace.  Pending HIT issues are parked in the Task Manager's
    retry queue; statements degrade to partial results rather than
    failing.  Subclasses :class:`TransientPlatformError` because the
    condition clears on its own once the platform recovers."""


class TaskTimeoutError(CrowdPlatformError):
    """The crowd did not complete the required assignments before the
    configured deadline."""


class AdmissionError(CrowdDBError):
    """The query server refused a new session: the active-session limit is
    reached and the admission waitlist is full."""


class StatementCancelled(ExecutionError):
    """The statement was cancelled (client ``cancel`` frame or session
    close) while it was suspended on crowd work.  Raised at the
    session's next yield point so operators unwind through their normal
    error paths — no half-settled futures, no mid-transaction WAL state."""


class PartialResultStop(CrowdDBError):
    """Control-flow stop raised at a crowd yield point when a statement
    guard trips (deadline expired, budget cap reached, or the platform
    breaker opened).  The executor catches it, keeps the rows settled so
    far, and returns a :class:`~repro.engine.executor.ResultSet` tagged
    ``status="partial"`` with the structured ``reason`` — the statement
    degrades instead of failing.  Escapes to the caller only for DML,
    where partial application would be unsound."""

    def __init__(self, reason: str, message: str = "") -> None:
        self.reason = reason
        super().__init__(message or f"statement stopped early: {reason}")


class NetworkProtocolError(CrowdDBError):
    """A malformed, oversized, or out-of-sequence wire-protocol frame."""


class ConnectionLostError(NetworkProtocolError):
    """The TCP connection to the server was lost mid-``execute()``.

    The server detaches (does not cancel) the session, so the statement
    keeps running and its result pages are buffered.  This error carries
    everything needed to pick the statement back up with
    ``connect_tcp(resume=token, ...)`` followed by
    ``NetClient.resume_execute(error)``: the durable session ``token``,
    the in-flight ``statement_id`` and its SQL, the highest frame
    sequence acknowledged (``have``), and the partial pages already
    received (replayed pages are deduplicated by sequence number, so
    resuming never yields a duplicate row)."""

    def __init__(
        self,
        message: str,
        *,
        token: str = "",
        statement_id: int = 0,
        sql: str = "",
        have: int = 0,
        columns=None,
        rows=None,
        pages_seen=None,
        deadline_ms=None,
        budget_cents=None,
    ) -> None:
        super().__init__(message)
        self.token = token
        self.statement_id = statement_id
        self.sql = sql
        self.have = have
        self.columns = list(columns) if columns else []
        self.rows = list(rows) if rows else []
        self.pages_seen = set(pages_seen) if pages_seen else set()
        self.deadline_ms = deadline_ms
        self.budget_cents = budget_cents


class RemoteError(ExecutionError):
    """A statement failed on the remote server.

    ``remote_type`` is the server-side exception class name and
    ``remote_traceback`` the formatted server-side traceback, so the
    client sees which operator failed even though the exception object
    itself never crossed the socket."""

    def __init__(
        self, message: str, remote_type: str = "", remote_traceback: str = ""
    ) -> None:
        super().__init__(message)
        self.remote_type = remote_type
        self.remote_traceback = remote_traceback


class QualityControlError(CrowdDBError):
    """Answer cleansing/majority voting could not produce a usable value
    (e.g. zero valid assignments after normalization)."""


class UITemplateError(CrowdDBError):
    """User-interface template generation or instantiation failed."""


class CrowdDBWarning(UserWarning):
    """Base class for warnings issued by the CrowdDB reproduction."""


class UnboundedQueryWarning(CrowdDBWarning):
    """Issued at compile time when the rule-based optimizer cannot bound the
    number of crowd requests a plan may make (paper, Section 3.2.2).  In
    strict mode the same condition raises :class:`UnboundedQueryError`."""


class LowQualityWarning(CrowdDBWarning):
    """Issued when majority voting had to accept an answer with agreement
    below the configured confidence threshold."""


class RecoveryWarning(CrowdDBWarning):
    """Issued when crash recovery found a torn or corrupt WAL tail and
    recovered to the last valid record instead (committed records before
    the tear are never lost; the tear itself was never acknowledged)."""


class KernelFallbackWarning(CrowdDBWarning):
    """Issued (once per site and error class) when a vectorized kernel
    compile hit an *expected* error and fell back to the row path.  A
    fallback is semantics-preserving, but a persistent one means a kernel
    lane is broken and the speed it promised is silently gone."""
