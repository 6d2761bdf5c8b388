"""Durable deletes and updates: WAL replay, idempotency, and rollback.

Mutation records are logged before they apply (log-then-apply), carry the
victim rows by *value* (positions do not survive snapshot compaction), and
replay idempotently: a retried request id is acknowledged without touching
data, in-process and across restart.  An update is one WAL record, so
recovery can never observe the delete half without the insert half.
"""

import contextlib

import pytest

from repro.api import Database
from tests.conftest import make_mini_catalog


def golden(db):
    return db.connect().sql(
        "SELECT o.O_ORDERKEY AS k, o.O_CUSTKEY AS c, o.O_TOTAL AS t, "
        "o.O_PRIORITY AS p FROM ORDERS o"
    ).to_tuples()


class TestDeleteRecovery:
    def test_delete_survives_wal_replay(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.delete_rows("ORDERS", lambda row: row[0] in (100, 103))
        expected = golden(db)
        db._durability.wal.sync()
        # crash-sim: no close(); state must come back from the WAL alone
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert golden(recovered) == expected
        recovered.close()

    def test_delete_survives_snapshot_compaction(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.delete_rows("ORDERS", lambda row: row[3] == "LOW")
        expected = golden(db)
        db.close()  # snapshot covers the delete, WAL compacts empty
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert golden(recovered) == expected
        recovered.close()

    def test_interleaved_mutations_replay_in_order(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.load_rows("ORDERS", [[106, 11, 61.0, "HIGH"]])
        db.delete_rows("ORDERS", lambda row: row[0] in (100, 106))
        db.update_rows(
            "ORDERS", lambda row: row[0] == 101, lambda row: {"O_TOTAL": 1.5}
        )
        db.load_rows("ORDERS", [[107, 12, 62.0, "LOW"]])
        expected = golden(db)
        db._durability.wal.sync()
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert golden(recovered) == expected
        recovered.close()


class TestUpdateRecovery:
    def test_update_is_one_atomic_record(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        lsn_before = db._durability.wal.last_lsn
        db.update_rows(
            "ORDERS", lambda row: row[0] == 100, lambda row: {"O_TOTAL": 99.0}
        )
        # delete half + insert half share one WAL record
        assert db._durability.wal.last_lsn == lsn_before + 1
        expected = golden(db)
        db._durability.wal.sync()
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert golden(recovered) == expected
        recovered.close()

    def test_update_survives_snapshot(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.update_rows(
            "ORDERS", lambda row: row[0] == 102, lambda row: {"O_PRIORITY": "LOW"}
        )
        expected = golden(db)
        db.close()
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert golden(recovered) == expected
        recovered.close()


class TestMutationIdempotency:
    VICTIM = [[100, 10, 50.0, "HIGH"]]

    def test_delete_retry_is_deduplicated(self, tmp_path):
        db = Database(make_mini_catalog(), data_dir=str(tmp_path / "d"))
        first = db.apply_delete("ORDERS", self.VICTIM, request_id="del-1")
        assert first["deleted"] == 1 and first["deduplicated"] is False
        retry = db.apply_delete("ORDERS", self.VICTIM, request_id="del-1")
        assert retry["deduplicated"] is True
        assert retry["deleted"] == 0
        count = db.connect().sql("SELECT COUNT(*) AS n FROM ORDERS o").single_value()
        assert count == 5  # applied exactly once
        db.close()

    def test_update_retry_is_deduplicated(self, tmp_path):
        db = Database(make_mini_catalog(), data_dir=str(tmp_path / "d"))
        replacement = [[100, 10, 75.0, "HIGH"]]
        first = db.apply_update("ORDERS", self.VICTIM, replacement, request_id="up-1")
        assert first["deleted"] == 1 and first["inserted"] == 1
        retry = db.apply_update("ORDERS", self.VICTIM, replacement, request_id="up-1")
        assert retry["deduplicated"] is True
        total = db.connect().sql(
            "SELECT o.O_TOTAL AS t FROM ORDERS o WHERE o.O_ORDERKEY = :k",
            params={"k": 100},
        ).single_value()
        assert total == 75.0
        db.close()

    def test_delete_dedup_survives_restart(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.apply_delete("ORDERS", self.VICTIM, request_id="del-9")
        db._durability.wal.sync()
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        retry = recovered.apply_delete("ORDERS", self.VICTIM, request_id="del-9")
        assert retry["deduplicated"] is True
        count = recovered.connect().sql(
            "SELECT COUNT(*) AS n FROM ORDERS o"
        ).single_value()
        assert count == 5
        recovered.close()


@contextlib.contextmanager
def failing_counter(field):
    """Make every assignment to ``MaintenanceCounters.<field>`` raise: a
    failure late in the apply path, after the WAL record landed and the
    relation changed, which the rollback must undo."""
    from repro.incremental import maintenance as maintenance_module

    counters = maintenance_module.MaintenanceCounters
    original = counters.__dict__.get("__setattr__")

    def sabotage(self, name, value):
        if name == field:
            raise RuntimeError("injected delta failure")
        object.__setattr__(self, name, value)

    counters.__setattr__ = sabotage
    try:
        yield
    finally:
        if original is not None:
            counters.__setattr__ = original
        else:
            del counters.__setattr__


class TestDeleteRollback:
    def test_failed_delete_restores_rows_and_recovers(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        before = golden(db)

        # the rows are tombstoned before the failure: the rollback must
        # resurrect them
        with failing_counter("rows_deleted"), pytest.raises(RuntimeError):
            db.delete_rows("ORDERS", lambda row: row[0] == 100)

        # the rows came back and every engine still answers
        assert golden(db) == before
        assert db.maintenance.full_rebuilds >= 1
        db.close()

    def test_failed_update_rolls_back_both_halves(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        before = golden(db)

        def update():
            return db.apply_update(
                "ORDERS", lambda row: row[0] == 100, {"O_TOTAL": 999.0}, request_id="up-7"
            )

        # fail after the victim is tombstoned and the replacement appended
        with failing_counter("rows_applied"), pytest.raises(RuntimeError):
            update()
        # neither half survives in memory: order 100 is back, unchanged
        assert golden(db) == before

        retry = update()
        assert retry["deduplicated"] is False
        assert (retry["deleted"], retry["inserted"]) == (1, 1)
        after = golden(db)
        assert [row for row in after if row[0] == 100] == [(100, 10, 999.0, "HIGH")]
        assert len(after) == len(before)
        assert update()["deduplicated"] is True
        assert golden(db) == after

        # the WAL holds the failed attempt and the retry under one id:
        # recovery applies the update once, like the live database
        db._durability.wal.sync()
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert golden(recovered) == after
        recovered.close()
        db.close()
