"""Tests for CSV import and export, and for saving a database image."""

import io

import pytest

from repro import CNULL, NULL, connect
from repro.errors import CatalogError, StorageError
from repro.io_utils import dump_csv, load_csv
from repro.storage.ledger import CrowdState
from repro.storage.recovery import save_image

TALK_DDL = (
    "CREATE TABLE Talk (title STRING PRIMARY KEY, "
    "abstract CROWD STRING, nb_attendees CROWD INTEGER)"
)


@pytest.fixture
def db(plain_db):
    plain_db.execute(TALK_DDL)
    return plain_db


class TestLoadCSV:
    def test_load_with_header(self, db):
        csv_text = "title,nb_attendees\nCrowdDB,120\nQurk,80\n"
        count = load_csv(db, "Talk", io.StringIO(csv_text))
        assert count == 2
        rows = db.query("SELECT title, abstract, nb_attendees FROM Talk")
        assert ("CrowdDB", CNULL, 120) in rows  # unlisted crowd col -> CNULL

    def test_load_without_header(self, db):
        csv_text = "CrowdDB,An abstract,120\n"
        count = load_csv(db, "Talk", io.StringIO(csv_text), header=False)
        assert count == 1
        assert db.query("SELECT abstract FROM Talk") == [("An abstract",)]

    def test_empty_cell_is_null_and_cnull_spelled(self, db):
        csv_text = "title,abstract,nb_attendees\nX,,CNULL\n"
        load_csv(db, "Talk", io.StringIO(csv_text))
        assert db.query("SELECT abstract, nb_attendees FROM Talk") == [
            (NULL, CNULL)
        ]

    def test_blank_lines_skipped(self, db):
        csv_text = "title\nA\n\nB\n"
        assert load_csv(db, "Talk", io.StringIO(csv_text)) == 2

    def test_unknown_column_rejected(self, db):
        csv_text = "title,speaker\nX,Y\n"
        with pytest.raises(CatalogError):
            load_csv(db, "Talk", io.StringIO(csv_text))

    def test_too_many_cells_rejected(self, db):
        csv_text = "title\nX,Y\n"
        with pytest.raises(StorageError, match="cells"):
            load_csv(db, "Talk", io.StringIO(csv_text))

    def test_short_rows_padded(self, db):
        csv_text = "title,abstract\nX\n"
        load_csv(db, "Talk", io.StringIO(csv_text))
        assert db.query("SELECT abstract FROM Talk") == [(NULL,)]

    def test_file_path(self, db, tmp_path):
        path = tmp_path / "talks.csv"
        path.write_text("title\nFromFile\n")
        assert load_csv(db, "Talk", str(path)) == 1

    def test_custom_delimiter(self, db):
        csv_text = "title;nb_attendees\nX;5\n"
        load_csv(db, "Talk", io.StringIO(csv_text), delimiter=";")
        assert db.query("SELECT nb_attendees FROM Talk") == [(5,)]


class TestDumpCSV:
    def test_round_trip(self, db):
        db.execute("INSERT INTO Talk VALUES ('A', 'abs', 10)")
        db.execute("INSERT INTO Talk (title) VALUES ('B')")
        buffer = io.StringIO()
        count = dump_csv(db, "Talk", buffer)
        assert count == 2

        other = connect(with_crowd=False)
        other.execute(TALK_DDL)
        load_csv(other, "Talk", io.StringIO(buffer.getvalue()))
        assert sorted(other.query("SELECT * FROM Talk")) == sorted(
            db.query("SELECT * FROM Talk")
        )

    def test_markers_in_cells(self, db):
        db.execute("INSERT INTO Talk VALUES ('A', NULL, CNULL)")
        buffer = io.StringIO()
        dump_csv(db, "Talk", buffer)
        line = buffer.getvalue().splitlines()[1]
        assert line == "A,,CNULL"

    def test_to_file(self, db, tmp_path):
        db.execute("INSERT INTO Talk (title) VALUES ('A')")
        path = tmp_path / "out.csv"
        dump_csv(db, "Talk", str(path))
        assert path.read_text().startswith("title,abstract,nb_attendees")


def reopen_image(db, directory):
    """Save ``db`` as a checkpoint directory and open it anew."""
    save_image(str(directory), db.engine, CrowdState())
    return connect(with_crowd=False, path=str(directory))


class TestSnapshots:
    def test_snapshot_round_trip(self, db, tmp_path):
        db.execute(
            "CREATE CROWD TABLE n (name STRING PRIMARY KEY, title STRING, "
            "FOREIGN KEY (title) REF Talk(title))"
        )
        db.execute("INSERT INTO Talk VALUES ('A', 'abs', CNULL)")
        db.execute("INSERT INTO n VALUES ('Mike', 'A')")
        other = reopen_image(db, tmp_path / "image")
        assert sorted(other.catalog.table_names()) == ["Talk", "n"]
        assert other.query("SELECT * FROM Talk") == [("A", "abs", CNULL)]
        assert other.query("SELECT * FROM n") == [("Mike", "A")]
        assert other.catalog.table("n").crowd
        assert other.catalog.table("n").foreign_keys[0].ref_table == "Talk"
        other.close()

    def test_snapshot_preserves_crowd_annotations(self, db, tmp_path):
        other = reopen_image(db, tmp_path / "image")
        schema = other.catalog.table("Talk")
        assert [c.crowd for c in schema.columns] == [False, True, True]
        assert schema.primary_key == ("title",)
        other.close()
