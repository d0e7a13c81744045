"""Durability: WAL framing, checkpoints, crash recovery, fault injection.

The recovery contract under test: after a crash at *any* WAL injection
point, the recovered engine equals the state produced by replaying only
the committed (fully written, CRC-valid) prefix — torn or corrupt tail
records are unacknowledged writes, dropped with a warning, never a
crash and never silent loss.  Paid crowd answers live in the same log
(``origin="crowd"``), so a crash-and-recover re-run buys zero new HITs.
"""

from __future__ import annotations

import io
import os
import signal
import tempfile
import warnings

import pytest

from repro import cli, connect, serve
from repro.api import Connection
from repro.crowd.platform import PlatformRegistry
from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn
from repro.crowd.sim.amt import SimulatedAMT
from repro.crowd.task_manager import CrowdConfig
from repro.errors import (
    CrowdDBError,
    ExecutionError,
    RecoveryWarning,
    StorageError,
    TransientPlatformError,
    WALError,
)
from repro.storage.checkpoint import checkpoint_path, load_checkpoint
from repro.storage.engine import StorageEngine
from repro.storage.recovery import (
    DurableStorage,
    recover_storage,
    wal_path,
)
from repro.storage.wal import (
    FaultingWAL,
    WalCrash,
    WriteAheadLog,
    decode_value,
    encode_value,
    read_wal,
)
from repro.sqltypes import CNULL, NULL

#: One-record-per-statement workload: crash injection at record boundary
#: k leaves exactly the first k statements committed.
WORKLOAD = [
    "CREATE TABLE t (a INTEGER PRIMARY KEY, b STRING)",
    "INSERT INTO t VALUES (1, 'x')",
    "INSERT INTO t VALUES (2, 'y')",
    "CREATE INDEX t_b ON t (b)",
    "UPDATE t SET b = 'z' WHERE a = 1",
    "DELETE FROM t WHERE a = 2",
    "INSERT INTO t VALUES (3, 'I.B.M.')",
    "ANALYZE t",
]


GOLDEN_WAL = os.path.join(os.path.dirname(__file__), "golden", "wal_v1.jsonl")
GOLDEN_CHECKPOINT = os.path.join(
    os.path.dirname(__file__), "golden", "checkpoint_v1.json"
)


def _golden_history(directory) -> None:
    """Log a fixed history into ``directory``'s WAL: every value shape the
    storage codec has (NULL, CNULL, bools, ints, floats, non-ASCII
    strings), every record kind the engine logs, and the crowd ledger's
    three."""
    storage = DurableStorage(
        str(directory), wal_sync="off", checkpoint_interval=None
    )
    run_statements(
        Connection(engine=storage.engine),
        [
            "CREATE TABLE g (id INTEGER PRIMARY KEY, s STRING, f FLOAT, "
            "b BOOLEAN, c CROWD STRING, n CROWD INTEGER)",
            "INSERT INTO g (id, s, f, b) VALUES "
            "(1, 'naïve — 日本語 ✓ 𝄞', 0.25, TRUE), "
            "(2, NULL, -1.5e-7, FALSE), "
            "(-3, '', 1e300, NULL), "
            "(4, 'quote\" back\\slash', 0.30000000000000004, TRUE)",
            "INSERT INTO g VALUES (1180591620717411303424, 'big', 5e-324, "
            "FALSE, 'answered', 7)",
            "CREATE INDEX g_s ON g (s)",
            "UPDATE g SET f = -0.0, s = 'ü' WHERE id = 2",
            "DELETE FROM g WHERE id = -3",
            "ANALYZE g",
            "CREATE TABLE gone (a INTEGER)",
            "DROP TABLE gone",
        ],
    )
    row = next(iter(storage.engine.table("g").scan()))
    storage.engine.set_value("g", row.rowid, "c", "crowd said", origin="crowd")
    storage.ledger.record_equal("i.b.m.", "ibm", True)
    storage.ledger.record_order("best?", "a", "b", "left")
    storage.ledger.record_reputation("amt-7", 3.0, 2.5)
    storage.wal.close()


def golden_wal_bytes(directory) -> bytes:
    """The WAL :func:`_golden_history` writes."""
    _golden_history(directory)
    with open(wal_path(str(directory)), "rb") as handle:
        return handle.read()


def golden_checkpoint_bytes(directory) -> bytes:
    """The checkpoint a reopen of :func:`_golden_history` publishes after a
    few more edge values: rows holding both ``encode_row`` tags, non-ASCII
    text, integers beyond 64 bits and edge floats, plus the recovered
    crowd verdicts and reputation."""
    _golden_history(directory)
    storage = DurableStorage(
        str(directory), wal_sync="off", checkpoint_interval=None
    )
    Connection(engine=storage.engine).execute(
        "INSERT INTO g (id, s, f, b) VALUES "
        "(-9223372036854775809, 'ßé Ω \U0001f600', "
        "1.7976931348623157e308, TRUE), "
        "(18446744073709551616, 'tab\tnew\nline', 2.2250738585072014e-308, "
        "NULL), "
        "(8, '', 1e16, FALSE), (9, 'x', 123456789.12345679, TRUE)"
    )
    storage.checkpoint()
    storage.wal.close()
    with open(checkpoint_path(str(directory)), "rb") as handle:
        return handle.read()


def run_statements(connection, statements):
    for statement in statements:
        connection.execute(statement)


def engine_state(engine: StorageEngine) -> dict:
    """Canonical snapshot of everything recovery must reproduce: rows by
    exact rowid, rowid counter, secondary indexes, normalized-PK sets,
    and the statistics epoch."""
    state = {}
    for name in sorted(engine.table_names()):
        heap = engine.table(name)
        state[name] = {
            "rows": dict(sorted(heap._rows.items())),
            "next_rowid": heap._next_rowid,
            "indexes": sorted(heap.indexes),
            "pks": (
                sorted(heap._normalized_pks)
                if heap._normalized_pks is not None
                else None
            ),
            "epoch": heap.statistics.epoch,
            "analyzed": heap.statistics.analyzed,
        }
    return state


def reference_state(statements) -> dict:
    """What a never-crashed in-memory engine looks like after them."""
    connection = connect(with_crowd=False)
    run_statements(connection, statements)
    return engine_state(connection.engine)


class TestWalFraming:
    def test_value_codec_round_trips_sentinels(self):
        for value in (1, 2.5, "x", True):
            assert decode_value(encode_value(value)) == value
        assert decode_value(encode_value(NULL)) is NULL
        assert decode_value(encode_value(CNULL)) is CNULL
        # plain None collapses into the SQL NULL sentinel
        assert decode_value(encode_value(None)) is NULL

    def test_unencodable_value_raises(self):
        with pytest.raises(WALError):
            encode_value(object())

    def test_wal_bytes_equal_the_parent_commits(self, tmp_path):
        """``tests/golden/wal_v1.jsonl`` was captured from the commit
        before the three ``{"$": ...}`` codecs became ``repro.codec``
        (``python tests/test_durability.py`` rewrites it — only ever do
        that on purpose, with a WAL format change)."""
        with open(GOLDEN_WAL, "rb") as handle:
            golden = handle.read().splitlines()
        ours = golden_wal_bytes(tmp_path).splitlines()
        # record by record first, so a failure names the record that moved
        for index, (got, want) in enumerate(zip(ours, golden)):
            assert got == want, f"WAL record {index} changed on disk"
        assert ours == golden
        scan = read_wal(GOLDEN_WAL)
        assert not scan.corrupt_tail
        values = [
            decode_value(value)
            for _, record in scan.records
            for value in record.get("values", ())
        ]
        assert any(value is NULL for value in values)
        assert any(value is CNULL for value in values)

    def test_append_read_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path, sync="off")
        records = [{"op": "insert", "i": i} for i in range(5)]
        for record in records:
            wal.append(record)
        wal.close()
        scan = read_wal(path)
        assert not scan.corrupt_tail
        assert [record for _, record in scan.records] == records
        assert [lsn for lsn, _ in scan.records] == [0, 1, 2, 3, 4]

    def test_lsns_survive_truncation(self, tmp_path):
        """Checkpoint truncation never rewinds the LSN counter, so a
        record can never be replayed twice across checkpoints."""
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path, sync="off")
        wal.append({"op": "insert"})
        wal.truncate()
        wal.append({"op": "insert"})
        wal.close()
        assert [lsn for lsn, _ in read_wal(path).records] == [1]


class TestCheckpointRecover:
    def test_checkpoint_bytes_equal_the_parent_commits(self, tmp_path):
        """``tests/golden/checkpoint_v1.json`` was written by the
        checkpoint writer that streamed ``json.dump`` into the file
        (``python tests/test_durability.py`` rewrites it — only ever do
        that on purpose, with a checkpoint format change)."""
        with open(GOLDEN_CHECKPOINT, "rb") as handle:
            golden = handle.read()
        assert golden_checkpoint_bytes(tmp_path) == golden
        state = load_checkpoint(str(tmp_path))
        rows = [values for _, values in state["tables"]["g"]["rows"]]
        values = [decode_value(value) for row in rows for value in row]
        assert any(value is NULL for value in values)
        assert any(value is CNULL for value in values)
        assert 2**64 in values and 5e-324 in values
        assert state["crowd"]["equal"] and state["crowd"]["reputation"]

    def test_saved_image_is_the_checkpoint_without_its_wal(self, tmp_path):
        """``.save DIR`` writes the bytes a durable instance checkpoints,
        with ``last_lsn`` -1 and no WAL, under any string hash seed."""
        golden = golden_checkpoint_bytes(tmp_path / "db")
        shell = cli.Shell(
            connection=connect(path=str(tmp_path / "db"), with_crowd=False),
            stdout=io.StringIO(),
        )
        shell.handle_line(f".save {tmp_path / 'image'}")
        shell.close()
        assert os.listdir(tmp_path / "image") == ["checkpoint.json"]
        head = b'{"format":1,"last_lsn":19,'
        assert golden.startswith(head)
        with open(checkpoint_path(str(tmp_path / "image")), "rb") as handle:
            image = handle.read()
        assert image == b'{"format":1,"last_lsn":-1,' + golden[len(head):]

    @pytest.mark.parametrize(
        "text, found",
        [
            ('{"version": 1, "tables": []}', "format None"),
            ('{"format": 2, "last_lsn": -1, "catalog": [], "tables": {}}',
             "format 2"),
            ('{"format": 1, "last_lsn"', "is not a checkpoint"),
        ],
        ids=["snapshot", "format2", "torn"],
    )
    def test_foreign_checkpoint_is_refused_and_left_as_is(
        self, tmp_path, text, found
    ):
        path = checkpoint_path(str(tmp_path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with pytest.raises(StorageError, match=found) as excinfo:
            connect(path=str(tmp_path), with_crowd=False)
        assert path in str(excinfo.value)
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == text
        assert os.listdir(tmp_path) == ["checkpoint.json"]

    def test_recover_without_checkpoint(self, tmp_path):
        storage = DurableStorage(str(tmp_path), wal_sync="off")
        connection = Connection(engine=storage.engine)
        run_statements(connection, WORKLOAD)
        expected = engine_state(storage.engine)
        # a crash: the WAL file is released without a checkpoint, and
        # recovery reads the WAL alone
        storage.wal.close()
        recovered = recover_storage(str(tmp_path))
        assert engine_state(recovered.engine) == expected
        assert recovered.report.checkpoint_loaded is False
        assert recovered.report.records_replayed == len(WORKLOAD)

    def test_recover_from_checkpoint_plus_tail(self, tmp_path):
        storage = DurableStorage(str(tmp_path), wal_sync="off")
        connection = Connection(engine=storage.engine)
        run_statements(connection, WORKLOAD[:4])
        storage.checkpoint()
        run_statements(connection, WORKLOAD[4:])
        expected = engine_state(storage.engine)
        storage.wal.close()
        recovered = recover_storage(str(tmp_path))
        assert engine_state(recovered.engine) == expected
        assert recovered.report.checkpoint_loaded is True
        assert recovered.report.records_replayed == len(WORKLOAD) - 4

    def test_close_then_reopen_replays_nothing(self, tmp_path):
        storage = DurableStorage(str(tmp_path), wal_sync="off")
        connection = Connection(engine=storage.engine)
        run_statements(connection, WORKLOAD)
        expected = engine_state(storage.engine)
        storage.close()
        storage.close()  # idempotent
        reopened = DurableStorage(str(tmp_path))
        assert engine_state(reopened.engine) == expected
        assert reopened.report.records_replayed == 0
        reopened.close()

    def test_maybe_checkpoint_interval(self, tmp_path):
        storage = DurableStorage(
            str(tmp_path), wal_sync="off", checkpoint_interval=3
        )
        connection = Connection(engine=storage.engine)
        for statement in WORKLOAD:
            connection.execute(statement)
            storage.maybe_checkpoint()
        assert storage.checkpoints_written >= 2
        storage.wal.close()
        recovered = recover_storage(str(tmp_path))
        assert engine_state(recovered.engine) == engine_state(storage.engine)


class TestCorruptTail:
    def _written_wal(self, tmp_path):
        storage = DurableStorage(str(tmp_path), wal_sync="off")
        connection = Connection(engine=storage.engine)
        run_statements(connection, WORKLOAD)
        storage.wal.close()
        return wal_path(str(tmp_path))

    def test_torn_tail_recovers_committed_prefix(self, tmp_path):
        path = self._written_wal(tmp_path)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-7])  # tear the last record mid-line
        with pytest.warns(RecoveryWarning, match="torn"):
            recovered = recover_storage(str(tmp_path))
        assert recovered.report.corrupt_tail is True
        assert engine_state(recovered.engine) == reference_state(WORKLOAD[:-1])

    def test_crc_corruption_stops_replay_with_warning(self, tmp_path):
        path = self._written_wal(tmp_path)
        with open(path, "rb") as handle:
            lines = handle.readlines()
        # flip a payload byte in the second-to-last record
        bad = bytearray(lines[-2])
        bad[-10] = bad[-10] ^ 0xFF
        lines[-2] = bytes(bad)
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with pytest.warns(RecoveryWarning):
            recovered = recover_storage(str(tmp_path))
        assert recovered.report.corrupt_tail is True
        # everything before the corruption survives, nothing after
        assert engine_state(recovered.engine) == reference_state(WORKLOAD[:-2])

    def test_reopen_truncates_corrupt_tail(self, tmp_path):
        """DurableStorage trims the torn bytes so the next append starts
        at a clean record boundary."""
        path = self._written_wal(tmp_path)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data + b"garbage-without-newline")
        with pytest.warns(RecoveryWarning):
            storage = DurableStorage(str(tmp_path), wal_sync="off")
        connection = Connection(engine=storage.engine)
        connection.execute("INSERT INTO t VALUES (9, 'late')")
        storage.wal.close()
        scan = read_wal(path)
        assert not scan.corrupt_tail
        assert scan.records[-1][1]["op"] == "insert"


class TestFaultInjection:
    def _faulting_storage(self, directory, **fault):
        return DurableStorage(
            str(directory),
            wal_sync="off",
            checkpoint_interval=None,
            wal_factory=lambda path, **kw: FaultingWAL(path, **fault, **kw),
        )

    def test_every_record_boundary(self, tmp_path):
        """Crash after each k-th record: recovery must equal a clean run
        of exactly the first k statements."""
        for k in range(len(WORKLOAD) + 1):
            directory = tmp_path / f"boundary-{k}"
            storage = self._faulting_storage(directory, fail_after_records=k)
            connection = Connection(engine=storage.engine)
            crashed = False
            try:
                run_statements(connection, WORKLOAD)
            except WalCrash:
                crashed = True
            assert crashed == (k < len(WORKLOAD))
            # release the file: a crash already flushed it
            # (FaultingWAL._crash); the clean k == len(WORKLOAD) run
            # still holds its buffer
            storage.wal.close()
            recovered = recover_storage(str(directory))
            assert engine_state(recovered.engine) == reference_state(
                WORKLOAD[:k]
            ), f"mismatch at record boundary {k}"
            assert recovered.report.corrupt_tail is False

    def test_every_byte_offset_in_final_stretch(self, tmp_path):
        """Tear the write stream at individual byte offsets: recovery
        lands on the last complete record, warning when bytes were torn."""
        # reference run to learn the record boundaries
        clean_dir = tmp_path / "clean"
        storage = DurableStorage(str(clean_dir), wal_sync="off")
        run_statements(Connection(engine=storage.engine), WORKLOAD)
        storage.wal.close()
        with open(wal_path(str(clean_dir)), "rb") as handle:
            data = handle.read()
        boundaries = [0] + [
            i + 1 for i, byte in enumerate(data) if byte == ord("\n")
        ]
        # sweep a byte range spanning the last two records
        for cut in range(boundaries[-3], len(data), 7):
            directory = tmp_path / f"cut-{cut}"
            storage = self._faulting_storage(directory, fail_after_bytes=cut)
            connection = Connection(engine=storage.engine)
            with pytest.raises(WalCrash):
                run_statements(connection, WORKLOAD)
            storage.wal.close()
            committed = sum(1 for b in boundaries[1:] if b <= cut)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RecoveryWarning)
                recovered = recover_storage(str(directory))
            assert engine_state(recovered.engine) == reference_state(
                WORKLOAD[:committed]
            ), f"mismatch at byte cut {cut}"
            assert recovered.report.corrupt_tail == (cut not in boundaries)

    def test_derived_state_matches_never_crashed_engine(self, tmp_path):
        """Differential audit: secondary indexes answer lookups, the
        normalized-PK dedup set and rowid counter behave identically
        after recovery."""
        storage = self._faulting_storage(tmp_path, fail_after_records=7)
        connection = Connection(engine=storage.engine)
        with pytest.raises(WalCrash):
            run_statements(connection, WORKLOAD)
        storage.wal.close()
        recovered = recover_storage(str(tmp_path))
        reference = connect(with_crowd=False)
        run_statements(reference, WORKLOAD[:7])
        heap = recovered.engine.table("t")
        ref_heap = reference.engine.table("t")
        assert sorted(heap.indexes) == sorted(ref_heap.indexes)
        assert (
            heap.indexes["t_b"].lookup(("z",))
            == ref_heap.indexes["t_b"].lookup(("z",))
        )
        assert sorted(heap.normalized_primary_keys()) == sorted(
            ref_heap.normalized_primary_keys()
        )
        # inserts after recovery continue the rowid sequence, not reuse it
        recovered_conn = Connection(engine=recovered.engine)
        recovered_conn.execute("INSERT INTO t VALUES (4, 'post')")
        reference.execute("INSERT INTO t VALUES (4, 'post')")
        assert engine_state(recovered.engine) == engine_state(reference.engine)


class TestCrowdLedger:
    def _durable_crowd(self, directory, demo_oracle):
        platform = ScriptedPlatform(oracle_answer_fn(demo_oracle))
        return connect(
            oracle=demo_oracle,
            platforms=(platform,),
            default_platform="scripted",
            path=str(directory),
        )

    def test_crash_recover_buys_zero_new_hits(self, tmp_path, demo_oracle):
        db = self._durable_crowd(tmp_path, demo_oracle)
        db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, "
            "abstract CROWD STRING, nb_attendees CROWD INTEGER)"
        )
        db.execute(
            "INSERT INTO Talk (title) VALUES ('CrowdDB'), ('Qurk'), ('PIQL')"
        )
        db.execute(
            "CREATE TABLE Company (name STRING PRIMARY KEY)"
        )
        db.execute("INSERT INTO Company VALUES ('I.B.M.'), ('Microsoft')")
        first = db.execute(
            "SELECT abstract FROM Talk WHERE title = 'CrowdDB'"
        ).rows
        equal = db.execute(
            "SELECT name FROM Company WHERE CROWDEQUAL(name, 'IBM')"
        ).rows
        assert db.crowd_stats["hits_posted"] > 0
        expected = engine_state(db.engine)
        # crash: no checkpoint, the WAL file is released and everything
        # lives in it
        db.storage.wal.close()
        recovered = self._durable_crowd(tmp_path, demo_oracle)
        assert engine_state(recovered.engine) == expected
        assert (
            recovered.execute(
                "SELECT abstract FROM Talk WHERE title = 'CrowdDB'"
            ).rows
            == first
        )
        assert (
            recovered.execute(
                "SELECT name FROM Company WHERE CROWDEQUAL(name, 'IBM')"
            ).rows
            == equal
        )
        assert recovered.crowd_stats["hits_posted"] == 0
        assert recovered.crowd_stats["fill_requests"] == 0
        # the paid answers travelled through the WAL, as crowd records
        assert db.storage.ledger.records > 0
        assert recovered.recovery_report.crowd_records > 0
        recovered.close()

    CROWD_SETUP = [
        "CREATE TABLE Talk (title STRING PRIMARY KEY, "
        "abstract CROWD STRING, nb_attendees CROWD INTEGER)",
        "INSERT INTO Talk (title) VALUES ('CrowdDB')",
        "INSERT INTO Talk (title) VALUES ('Qurk')",
        "INSERT INTO Talk (title) VALUES ('PIQL')",
        "CREATE TABLE Company (name STRING PRIMARY KEY)",
        "INSERT INTO Company VALUES ('I.B.M.')",
        "INSERT INTO Company VALUES ('Microsoft')",
    ]
    CROWD_QUERIES = [
        "SELECT abstract FROM Talk WHERE title = 'CrowdDB'",
        "SELECT nb_attendees FROM Talk WHERE title = 'Qurk'",
        "SELECT abstract, nb_attendees FROM Talk WHERE title = 'PIQL'",
        "SELECT name FROM Company WHERE CROWDEQUAL(name, 'IBM')",
    ]

    def test_crash_mid_workload_converges_without_overpaying(
        self, tmp_path, demo_oracle
    ):
        """Kill the write stream at every record boundary of a crowd
        workload: recovery plus a re-run reaches the reference answers,
        never pays more than the from-scratch price, and — crash and
        re-run together — pays twice only for the one HIT whose answer
        was in flight when the log died."""

        def answers(db):
            return [sorted(db.execute(q).rows) for q in self.CROWD_QUERIES]

        reference_db = self._durable_crowd(tmp_path / "reference", demo_oracle)
        run_statements(reference_db, self.CROWD_SETUP)
        reference = answers(reference_db)
        full_price = reference_db.crowd_stats["assignments_received"]
        records = reference_db.storage.wal.stats.records
        in_flight = reference_db.task_manager.config.replication
        reference_db.close()
        assert full_price > 0
        for cut in range(records):
            directory = tmp_path / f"cut-{cut}"
            storage = DurableStorage(
                str(directory),
                checkpoint_interval=None,
                wal_factory=lambda path, **kw: FaultingWAL(
                    path, fail_after_records=cut, **kw
                ),
            )
            registry = PlatformRegistry()
            registry.register(ScriptedPlatform(oracle_answer_fn(demo_oracle)))
            crashed = Connection(engine=storage.engine, platforms=registry)
            storage.bind_crowd(crashed.task_manager, crashed.reputation)
            with pytest.raises(WalCrash):
                run_statements(crashed, self.CROWD_SETUP)
                answers(crashed)
            storage.wal.close()
            retry = self._durable_crowd(directory, demo_oracle)
            # recovery may land mid-set-up: make schema and seed rows whole
            for statement in self.CROWD_SETUP:
                try:
                    retry.execute(statement)
                except CrowdDBError:
                    pass  # already recovered from the WAL
            assert answers(retry) == reference, f"diverged at cut {cut}"
            paid_before_crash = crashed.crowd_stats.get(
                "assignments_received", 0
            )
            repurchased = retry.crowd_stats["assignments_received"]
            retry.close()
            assert repurchased <= full_price, cut
            twice = paid_before_crash + repurchased - full_price
            assert 0 <= twice <= in_flight, cut

    def test_comparison_cache_recovers(self, tmp_path, demo_oracle):
        db = self._durable_crowd(tmp_path, demo_oracle)
        db.task_manager.ledger.record_equal("I.B.M.", "IBM", True)
        db.task_manager.ledger.record_order("best", "a", "b", "left")
        db.storage.wal.close()  # crash: no checkpoint
        recovered = self._durable_crowd(tmp_path, demo_oracle)
        assert recovered.task_manager._equal_cache[("I.B.M.", "IBM")] is True
        assert (
            recovered.task_manager._order_cache[("best", "a", "b")] == "left"
        )
        recovered.close()

    def test_reputation_recovers_last_write_wins(self, tmp_path, demo_oracle):
        db = self._durable_crowd(tmp_path, demo_oracle)
        db.reputation._observe("w1", True, 2.0)
        db.reputation._observe("w1", False, 1.0)
        accuracy = db.reputation.accuracy("w1")
        db.storage.wal.close()  # crash: no checkpoint
        recovered = self._durable_crowd(tmp_path, demo_oracle)
        assert recovered.reputation.observations("w1") == 3.0
        assert recovered.reputation.accuracy("w1") == accuracy
        recovered.close()


class TestPlatformRetries:
    def _manager(self, demo_oracle, rate, **config):
        platform = SimulatedAMT(
            demo_oracle, population=40, seed=3, transient_error_rate=rate
        )
        db = connect(
            oracle=demo_oracle,
            platforms=(platform,),
            default_platform="amt",
            crowd_config=CrowdConfig(**config),
        )
        return db, platform

    def test_transient_faults_are_retried(self, demo_oracle):
        db, platform = self._manager(
            demo_oracle, rate=0.9, platform_retries=20,
            platform_retry_backoff=0.0,
        )
        db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, "
            "abstract CROWD STRING, nb_attendees CROWD INTEGER)"
        )
        db.execute("INSERT INTO Talk (title) VALUES ('CrowdDB')")
        result = db.execute(
            "SELECT abstract FROM Talk WHERE title = 'CrowdDB'"
        )
        assert result.rows  # query survived the faults
        assert db.crowd_stats["platform_retries"] > 0
        retries = db.trace.events(kind="hit.retry")
        assert retries and retries[0].data["attempt"] == 1

    def test_retries_exhausted_raises(self, demo_oracle):
        db, platform = self._manager(
            demo_oracle, rate=1.0, platform_retries=2,
            platform_retry_backoff=0.0,
        )
        db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, "
            "abstract CROWD STRING, nb_attendees CROWD INTEGER)"
        )
        db.execute("INSERT INTO Talk (title) VALUES ('CrowdDB')")
        with pytest.raises(TransientPlatformError):
            db.execute("SELECT abstract FROM Talk WHERE title = 'CrowdDB'")

    def test_timeout_budget_caps_backoff(self, demo_oracle):
        db, platform = self._manager(
            demo_oracle, rate=1.0, platform_retries=50,
            platform_retry_backoff=0.01, platform_timeout=0.05,
        )
        db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, "
            "abstract CROWD STRING, nb_attendees CROWD INTEGER)"
        )
        db.execute("INSERT INTO Talk (title) VALUES ('CrowdDB')")
        with pytest.raises(TransientPlatformError, match="budget|timeout"):
            db.execute("SELECT abstract FROM Talk WHERE title = 'CrowdDB'")


class TestLifecycle:
    def test_connection_close_is_idempotent(self, tmp_path):
        db = connect(path=str(tmp_path), with_crowd=False, wal_sync="off")
        db.execute("CREATE TABLE t (a INTEGER)")
        db.close()
        db.close()
        assert db.storage.closed

    def test_in_memory_close_is_noop(self):
        db = connect(with_crowd=False)
        db.close()
        db.close()

    def test_server_close_is_idempotent(self, tmp_path):
        server = serve(path=str(tmp_path), wal_sync="off")
        server.open_session().submit("CREATE TABLE t (a INTEGER)")
        server.run()
        server.close()
        server.close()
        assert not server.sessions
        assert server.connection._closed

    def test_server_context_manager_closes(self, tmp_path):
        with serve(path=str(tmp_path), wal_sync="off") as server:
            server.open_session().submit("CREATE TABLE t (a INTEGER)")
            server.run()
        assert server.connection._closed
        reopened = connect(path=str(tmp_path), with_crowd=False)
        assert reopened.recovery_report.checkpoint_loaded is True
        assert "t" in reopened.engine.table_names()
        reopened.close()

    def test_checkpoint_requires_durable_storage(self):
        db = connect(with_crowd=False)
        with pytest.raises(ExecutionError, match="durable"):
            db.checkpoint()


class TestCliDurability:
    def test_checkpoint_command(self, tmp_path):
        out = io.StringIO()
        shell = cli.Shell(
            connection=connect(path=str(tmp_path), wal_sync="off"),
            stdout=out,
        )
        shell.handle_line("CREATE TABLE t (a INTEGER);")
        shell.handle_line(".checkpoint")
        assert "checkpoint written" in out.getvalue()
        shell.close()

    def test_checkpoint_command_without_db(self):
        out = io.StringIO()
        shell = cli.Shell(connection=connect(), stdout=out)
        shell.handle_line(".checkpoint")
        assert "not a durable instance" in out.getvalue()

    def test_shutdown_handler_flushes_and_exits(self, tmp_path):
        out = io.StringIO()
        connection = connect(path=str(tmp_path), wal_sync="off")
        shell = cli.Shell(connection=connection, stdout=out)
        shell.handle_line("CREATE TABLE t (a INTEGER);")
        with pytest.raises(SystemExit) as excinfo:
            cli.shutdown_handler(shell, signal.SIGTERM)
        assert excinfo.value.code == 128 + signal.SIGTERM
        assert connection._closed
        reopened = connect(path=str(tmp_path), with_crowd=False)
        assert "t" in reopened.engine.table_names()
        reopened.close()

    def test_main_db_flag_persists_scripts(self, tmp_path):
        script = tmp_path / "setup.sql"
        script.write_text("CREATE TABLE t (a INTEGER);\n"
                          "INSERT INTO t VALUES (1);\n")
        db_dir = tmp_path / "db"
        assert cli.main(["--db", str(db_dir), str(script)]) == 0
        reopened = connect(path=str(db_dir), with_crowd=False)
        assert reopened.execute("SELECT * FROM t").rows == [(1,)]
        reopened.close()


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_WAL), exist_ok=True)
    for golden, make in (
        (GOLDEN_WAL, golden_wal_bytes),
        (GOLDEN_CHECKPOINT, golden_checkpoint_bytes),
    ):
        with tempfile.TemporaryDirectory() as scratch:
            data = make(scratch)
        with open(golden, "wb") as out:
            out.write(data)
        print(f"wrote {len(data)} bytes to {golden}")
