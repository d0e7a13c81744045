"""Electronic worker pool: multi-core execution of vectorized regions.

The cooperative scheduler interleaves sessions on one thread, which is
exactly right for *crowd* waits (simulated marketplaces settle on a
discrete-event clock) but leaves electronic work single-core.  This
module fans binder-approved pure-electronic plan regions out to a
:mod:`concurrent.futures` process pool, so vectorized pipelines from
different sessions run on different cores while their sessions are
parked.  The pool ships the *logical region* (picklable plan subtree
plus parameters) to forked worker processes that inherit the engine by
copy-on-write — no table data ever crosses the pipe, only the plan out
and the result rows back.  Workers re-bind and re-plan the region
against their inherited snapshot, so results are identical to
in-process execution.  Any engine mutation invalidates the snapshot (a
version token covering every heap) and the pool re-forks lazily.

Integration: :class:`~repro.exec.vectorized.BatchToRowsOp` — the cap of
every vectorized region — calls :meth:`ElectronicPool.run_region`.  Under
the concurrent query server the resulting :class:`ElectronicFuture` is
handed to the session's ``crowd_waiter`` exactly like a crowd future, so
the session suspends and the scheduler overlaps other sessions with the
pool work.  Standalone connections block in place.

A region the pool cannot ship (pickling failure, no fork support, a
broken pool) is counted in ``fallbacks`` and run in place by the caller,
never changing results — the pool is purely a placement decision.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import pickle
import threading
from typing import Any, Optional

__all__ = ["ElectronicFuture", "ElectronicPool"]


class ElectronicFuture:
    """A pool dispatch a session can park on, duck-typed like a crowd
    future: the scheduler checks ``settled``/``electronic``, the session
    parks on it through ``crowd_waiter``, and ``result()`` re-raises any
    worker-side error in the session's own statement context."""

    __slots__ = ("raw", "label", "mirror_of", "extensions", "hits")

    electronic = True

    def __init__(self, future: concurrent.futures.Future, label: str) -> None:
        self.raw = future
        self.label = label
        self.mirror_of = None
        self.extensions = 0
        self.hits: tuple = ()

    @property
    def settled(self) -> bool:
        return self.raw.done()

    def result(self) -> Any:
        return self.raw.result()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "settled" if self.settled else "pending"
        return f"<ElectronicFuture {self.label} {state}>"


# -- worker-process side ------------------------------------------------------

_WORKER_ENGINE: Optional[Any] = None


def _init_worker(engine: Any) -> None:
    """Process-pool initializer (fork start method: ``engine`` arrives by
    copy-on-write inheritance, not pickling)."""
    global _WORKER_ENGINE
    _WORKER_ENGINE = engine
    # the parent's metrics registry (and its locks) must not be touched
    # from the child: detach the kernel fallback hook
    from repro.exec import kernels

    kernels.set_metrics_registry(None)


def _run_region_payload(payload: bytes) -> tuple[list, int]:
    """Execute one pickled logical region against the inherited engine.

    Returns ``(rows, rows_scanned)`` so the parent context's accounting
    matches in-process execution exactly.
    """
    from repro.engine.context import ExecutionContext
    from repro.engine.planner import PhysicalPlanner
    from repro.plan.binder import Binder

    node, parameters = pickle.loads(payload)
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - defensive
        raise RuntimeError("electronic pool worker has no engine snapshot")
    bindings = Binder(engine).bind(node)
    binding = bindings.get(id(node))
    if binding is None or not binding.vectorized:
        raise RuntimeError(
            "region no longer vector-eligible in the worker snapshot — "
            "the pool's freshness token should have prevented this"
        )
    context = ExecutionContext(engine=engine, parameters=parameters)
    operator = PhysicalPlanner(context, bindings=bindings).plan(node)
    return list(operator), context.rows_scanned


# -- parent side --------------------------------------------------------------


def _engine_token(engine: Any) -> tuple:
    """Freshness token over everything a region can read: catalog/stats
    epoch plus every heap's mutation counter."""
    return (
        engine.plan_epoch(),
        tuple(
            (name, engine.table(name).version)
            for name in engine.table_names()
        ),
    )


class ElectronicPool:
    """A bounded worker pool for binder-approved electronic regions."""

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._lock = threading.Lock()
        self._processes: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._fork_token: Optional[tuple] = None
        self._closed = False
        self.stats = {
            "dispatched": 0,
            "process_dispatched": 0,
            "reforks": 0,
            "fallbacks": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """Stop accepting work and release workers; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            processes, self._processes = self._processes, None
        if processes is not None:
            processes.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ElectronicPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- dispatch -----------------------------------------------------------

    def run_region(
        self, context: Any, op: Any
    ) -> Optional[tuple[list, int]]:
        """Execute ``op``'s region on the pool; returns (rows, scanned),
        or None when the region could not be shipped and the caller must
        run it in place.

        Under the concurrent query server the session parks on the
        dispatch (``crowd_waiter``) so other sessions run meanwhile; a
        cancel or close raises :class:`~repro.errors.StatementCancelled`
        out of the park and the abandoned future finishes in background.
        """
        if self._closed:
            raise RuntimeError("electronic pool is shut down")
        self.stats["dispatched"] += 1
        future = self._submit(context, op)
        if future is None:
            self.stats["fallbacks"] += 1
            return None
        self.stats["process_dispatched"] += 1
        electronic = ElectronicFuture(future, label=type(op.child).__name__)
        if context.crowd_waiter is not None:
            context.crowd_waiter(electronic)  # may raise StatementCancelled
        return electronic.result()

    def _submit(
        self, context: Any, op: Any
    ) -> Optional[concurrent.futures.Future]:
        """Ship the region to a fork-snapshot worker; None means the
        caller falls back to in-place execution."""
        try:
            payload = pickle.dumps((op.region, context.parameters))
        except Exception:
            return None  # unpicklable plan node or parameter
        with self._lock:
            executor = self._ensure_processes(context.engine)
            if executor is None:
                return None
            try:
                return executor.submit(_run_region_payload, payload)
            except Exception:  # pool broke (worker died mid-flight)
                self._teardown_processes()
                return None

    def _ensure_processes(
        self, engine: Any
    ) -> Optional[concurrent.futures.ProcessPoolExecutor]:
        """The live process pool, re-forked when the engine moved on.

        Caller holds ``self._lock``.  Returns None when fork is
        unavailable (non-POSIX) — regions then run in place.
        """
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            return None
        token = _engine_token(engine)
        if self._processes is not None and token == self._fork_token:
            return self._processes
        self._teardown_processes()
        try:
            self._processes = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=mp_context,
                initializer=_init_worker,
                initargs=(engine,),
            )
        except Exception:  # pragma: no cover - resource exhaustion
            self._processes = None
            return None
        self._fork_token = token
        self.stats["reforks"] += 1
        return self._processes

    def _teardown_processes(self) -> None:
        if self._processes is not None:
            self._processes.shutdown(wait=False, cancel_futures=True)
            self._processes = None
            self._fork_token = None

    def snapshot(self) -> dict[str, int]:
        """Dispatch counters (registered as a metrics collector)."""
        return dict(self.stats)
