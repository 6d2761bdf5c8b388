"""First-class deletes: tombstone deltas must be indistinguishable from rebuilds.

The deletion mirror of ``test_delta_ingest``: after ``Database.delete_rows``
/ ``update_rows`` the patched TAG graph must match a from-scratch re-encode
of the surviving rows, statistics must fold the removal exactly, engines
must keep answering correctly through their ``apply`` hooks, plans
must survive with zero recompilation, and maintained views must equal cold
re-execution — including under self-joins, where the telescoped delete
terms must not over-delete.
"""

import pytest

from repro.api.database import Database
from repro.engine.indexes import build_indexes
from repro.tag.encoder import encode_catalog
from repro.tag.statistics import CatalogStatistics

from conftest import make_mini_catalog

ENGINES = ("tag_dict", "tag", "tag_vectorized", "rdbms", "spark")


def assert_graphs_equal(patched, rebuilt):
    """Structural equality: same vertices, labels, and adjacency."""
    patched_ids = sorted(patched.vertex_ids())
    rebuilt_ids = sorted(rebuilt.vertex_ids())
    assert patched_ids == rebuilt_ids
    assert patched.edge_count == rebuilt.edge_count
    assert patched.count_by_label() == rebuilt.count_by_label()
    for vertex_id in patched_ids:
        assert sorted(patched.out_edge_labels(vertex_id)) == sorted(
            rebuilt.out_edge_labels(vertex_id)
        ), vertex_id
        for label in patched.out_edge_labels(vertex_id):
            assert sorted(patched.edge_targets(vertex_id, label)) == sorted(
                rebuilt.edge_targets(vertex_id, label)
            ), (vertex_id, label)


def query_rows(db, sql, engine=None):
    return db.connect(engine=engine).sql(sql).to_tuples()


class TestSharedAttributeRefcounts:
    """The satellite bugfix: deleting one tuple must not orphan or
    prematurely free attribute vertices shared with surviving tuples."""

    def test_survivor_still_joins_through_shared_attribute(self):
        db = Database(make_mini_catalog(), engine="tag")
        db.tag_graph()
        # orders 100 and 101 both belong to customer 10: they share the
        # O_CUSTKEY=10 attribute vertex with each other and with the
        # customer's C_CUSTKEY.  Deleting order 100 must leave the join
        # path of order 101 intact.
        deleted = db.delete_rows("ORDERS", lambda row: row[0] == 100)
        assert deleted == 1
        rows = query_rows(
            db,
            "SELECT o.O_ORDERKEY AS k FROM CUSTOMER c, ORDERS o "
            "WHERE c.C_CUSTKEY = o.O_CUSTKEY AND c.C_CUSTKEY = 10",
        )
        assert rows == [(101,)]

    def test_shared_attribute_vertex_survives_until_last_reference(self):
        db = Database(make_mini_catalog(), engine="tag")
        graph = db.tag_graph()
        # priority "HIGH" is carried by orders 100, 102 and 104
        attr_id = graph.attribute_vertex_for("HIGH")
        assert attr_id is not None
        db.delete_rows("ORDERS", lambda row: row[0] in (100, 102))
        # order 104 still references it
        assert graph.attribute_vertex_for("HIGH") == attr_id
        db.delete_rows("ORDERS", lambda row: row[0] == 104)
        # last reference died with order 104
        assert graph.attribute_vertex_for("HIGH") is None

    def test_value_shared_across_columns_counts_per_edge(self):
        # customer 10 and its orders share the single value-10 attribute
        # vertex across two different columns (C_CUSTKEY and O_CUSTKEY);
        # deleting every order must not free it while the customer lives
        db = Database(make_mini_catalog(), engine="tag")
        graph = db.tag_graph()
        attr_id = graph.attribute_vertex_for(10)
        assert attr_id is not None
        db.delete_rows("ORDERS", lambda row: row[1] == 10)
        assert graph.attribute_vertex_for(10) == attr_id
        db.delete_rows("CUSTOMER", lambda row: row[0] == 10)
        assert graph.attribute_vertex_for(10) is None


class TestGraphDeleteEquivalence:
    def test_patched_graph_matches_reencode_of_survivors(self):
        db = Database(make_mini_catalog(), engine="tag")
        graph = db.tag_graph()
        db.delete_rows("ORDERS", lambda row: row[3] == "LOW")
        db.delete_rows("CUSTOMER", lambda row: row[0] == 14)
        assert db.tag_graph() is graph  # patched, not replaced
        assert_graphs_equal(graph, encode_catalog(db.catalog))

    def test_interleaved_appends_and_deletes_match_reencode(self):
        db = Database(make_mini_catalog(), engine="tag")
        graph = db.tag_graph()
        db.load_rows("ORDERS", [[106, 11, 61.0, "HIGH"], [107, 12, 62.0, "LOW"]])
        db.delete_rows("ORDERS", lambda row: row[0] in (100, 106))
        db.load_rows("ORDERS", [[108, 13, 63.0, "LOW"]])
        db.delete_rows("ORDERS", lambda row: row[0] == 103)
        assert_graphs_equal(graph, encode_catalog(db.catalog))

    def test_load_report_accounting_matches_reencode(self):
        db = Database(make_mini_catalog(), engine="tag")
        graph = db.tag_graph()
        db.delete_rows("ORDERS", lambda row: row[0] in (101, 104, 105))
        rebuilt = encode_catalog(db.catalog)
        assert graph.load_report.tuple_vertices == rebuilt.load_report.tuple_vertices
        assert (
            graph.load_report.attribute_vertices
            == rebuilt.load_report.attribute_vertices
        )
        assert graph.load_report.edges == rebuilt.load_report.edges
        assert graph.load_report.tuple_bytes == rebuilt.load_report.tuple_bytes
        assert graph.load_report.attribute_bytes == rebuilt.load_report.attribute_bytes

    def test_appends_after_delete_never_reuse_vertex_indexes(self):
        db = Database(make_mini_catalog(), engine="tag")
        graph = db.tag_graph()
        db.delete_rows("ORDERS", lambda row: row[0] == 105)  # last physical row
        db.load_rows("ORDERS", [[106, 11, 61.0, "HIGH"]])
        # the new tuple must take index 7, not recycle the dead index 6
        assert graph.has_vertex("ORDERS_7")
        assert not graph.has_vertex("ORDERS_6")
        assert_graphs_equal(graph, encode_catalog(db.catalog))


class TestStatisticsRemoval:
    def test_folded_removal_matches_fresh_collection(self):
        db = Database(make_mini_catalog(), engine="tag")
        stats = db.statistics
        db.delete_rows("ORDERS", lambda row: row[3] == "HIGH")
        assert db.statistics is stats  # folded in place
        fresh = CatalogStatistics.collect(db.catalog)
        for relation in ("NATION", "CUSTOMER", "ORDERS"):
            assert stats.cardinality(relation) == fresh.cardinality(relation)
            assert (
                stats.relations[relation].bytes == fresh.relations[relation].bytes
            ), relation
            schema = db.catalog.relation(relation).schema
            for column in schema.columns:
                assert stats.distinct_count(relation, column.name) == pytest.approx(
                    fresh.distinct_count(relation, column.name), rel=0.1
                ), (relation, column.name)

    def test_append_after_delete_keeps_counts_exact(self):
        db = Database(make_mini_catalog(), engine="tag")
        stats = db.statistics
        db.delete_rows("ORDERS", lambda row: row[0] in (100, 101, 102))
        db.load_rows("ORDERS", [[200, 11, 5.0, "HIGH"]])
        fresh = CatalogStatistics.collect(db.catalog)
        assert stats.cardinality("ORDERS") == fresh.cardinality("ORDERS") == 4
        assert stats.distinct_count("ORDERS", "O_ORDERKEY") == pytest.approx(
            fresh.distinct_count("ORDERS", "O_ORDERKEY"), rel=0.1
        )

    def test_planners_see_shrunk_cardinalities_without_recollect(self):
        db = Database(make_mini_catalog(), engine="rdbms")
        engine = db.engine("rdbms")
        assert engine.planner.statistics.cardinality("ORDERS") == 6
        db.delete_rows("ORDERS", lambda row: row[3] == "LOW")
        assert db.engine("rdbms") is engine
        assert engine.planner.statistics.cardinality("ORDERS") == 3


class TestEnginesAfterDelete:
    def test_all_engines_agree_after_delete_and_update(self):
        db = Database(make_mini_catalog())
        db.delete_rows("ORDERS", lambda row: row[3] == "LOW")
        db.update_rows(
            "CUSTOMER", lambda row: row[0] == 12, lambda row: {"C_ACCTBAL": 500.0}
        )
        sql = (
            "SELECT c.C_CUSTKEY AS c, c.C_ACCTBAL AS bal, o.O_ORDERKEY AS o "
            "FROM CUSTOMER c, ORDERS o WHERE c.C_CUSTKEY = o.O_CUSTKEY"
        )
        expected = query_rows(db, sql, engine=ENGINES[0])
        assert expected  # the join still produces rows
        for engine in ENGINES[1:]:
            assert query_rows(db, sql, engine=engine) == expected, engine

    def test_patched_indexes_match_rebuild_after_delete(self):
        db = Database(make_mini_catalog(), engine="rdbms")
        engine = db.engine("rdbms")
        db.delete_rows("ORDERS", lambda row: row[0] in (100, 103))
        db.delete_rows("CUSTOMER", lambda row: row[0] == 14)
        rebuilt = build_indexes(db.catalog)
        patched = engine.indexes
        assert set(patched.hash_indexes) == set(rebuilt.hash_indexes)
        for key, rebuilt_index in rebuilt.hash_indexes.items():
            assert patched.hash_indexes[key]._buckets == rebuilt_index._buckets, key
        assert set(patched.sorted_indexes) == set(rebuilt.sorted_indexes)
        for key, rebuilt_index in rebuilt.sorted_indexes.items():
            mine = patched.sorted_indexes[key]
            assert mine._keys == rebuilt_index._keys, key
            assert mine._positions == rebuilt_index._positions, key

    def test_zero_recompilation_on_delete_and_update(self):
        db = Database(make_mini_catalog(), engine="tag")
        sql = "SELECT COUNT(*) AS n FROM ORDERS o WHERE o.O_TOTAL > :t"
        session = db.connect()
        assert session.sql(sql, {"t": 5.0}).single_value() == 5
        warm = db.plan_cache.stats
        misses, stores = warm.misses, warm.stores
        db.delete_rows("ORDERS", lambda row: row[0] == 100)
        db.update_rows("ORDERS", lambda row: row[0] == 101, lambda row: {"O_TOTAL": 1.0})
        assert session.sql(sql, {"t": 5.0}).single_value() == 3
        assert db.plan_cache.stats.misses == misses
        assert db.plan_cache.stats.stores == stores
        assert db.maintenance.full_rebuilds == 0
        assert db.maintenance.delete_deltas_applied >= 2


class TestUpdateSemantics:
    def test_update_with_mapping_merges_columns(self):
        db = Database(make_mini_catalog())
        changed = db.update_rows(
            "ORDERS", lambda row: row[0] == 100, lambda row: {"O_TOTAL": 77.0}
        )
        assert changed == 1
        rows = query_rows(
            db, "SELECT o.O_TOTAL AS t FROM ORDERS o WHERE o.O_ORDERKEY = 100"
        )
        assert rows == [(77.0,)]

    def test_update_with_bare_mapping_applies_to_every_victim(self):
        # the SQL UPDATE ... SET shape: one mapping, many victims
        db = Database(make_mini_catalog())
        changed = db.update_rows(
            "ORDERS", lambda row: row[3] == "HIGH", {"O_TOTAL": 9.0}
        )
        assert changed == 3
        rows = query_rows(
            db, "SELECT o.O_TOTAL AS t FROM ORDERS o WHERE o.O_PRIORITY = 'HIGH'"
        )
        assert rows == [(9.0,), (9.0,), (9.0,)]

    def test_update_with_explicit_replacement_rows(self):
        db = Database(make_mini_catalog())
        receipt = db.apply_update(
            "ORDERS", [[100, 10, 50.0, "HIGH"]], [[100, 11, 50.0, "HIGH"]]
        )
        assert receipt["deleted"] == 1 and receipt["inserted"] == 1
        rows = query_rows(
            db, "SELECT o.O_CUSTKEY AS c FROM ORDERS o WHERE o.O_ORDERKEY = 100"
        )
        assert rows == [(11,)]

    def test_update_callable_sees_old_row(self):
        db = Database(make_mini_catalog())
        db.update_rows(
            "ORDERS",
            lambda row: row[0] in (100, 101),
            lambda row: {"O_TOTAL": row[2] + 1.0},
        )
        rows = query_rows(
            db,
            "SELECT o.O_ORDERKEY AS k, o.O_TOTAL AS t FROM ORDERS o "
            "WHERE o.O_ORDERKEY = 100 OR o.O_ORDERKEY = 101",
        )
        assert rows == [(100, 51.0), (101, 21.0)]

    def test_delete_by_rows_uses_bag_semantics(self):
        db = Database(make_mini_catalog())
        db.load_rows("ORDERS", [[100, 10, 50.0, "HIGH"]])  # exact duplicate
        assert db.delete_rows("ORDERS", [[100, 10, 50.0, "HIGH"]]) == 1
        rows = query_rows(
            db, "SELECT COUNT(*) AS n FROM ORDERS o WHERE o.O_ORDERKEY = 100"
        )
        assert rows == [(1,)]  # one occurrence left

    def test_delete_missing_row_raises_and_mutates_nothing(self):
        db = Database(make_mini_catalog())
        version = db.catalog.version
        with pytest.raises(KeyError):
            db.delete_rows("ORDERS", [[999, 10, 1.0, "HIGH"]])
        assert db.catalog.version == version
        assert query_rows(db, "SELECT COUNT(*) AS n FROM ORDERS o") == [(6,)]

    def test_empty_delete_is_a_noop(self):
        db = Database(make_mini_catalog())
        version = db.catalog.version
        ignored = db.maintenance.empty_loads_ignored
        assert db.delete_rows("ORDERS", lambda row: False) == 0
        assert db.catalog.version == version
        assert db.maintenance.empty_loads_ignored == ignored + 1

    def test_update_is_one_delta(self):
        db = Database(make_mini_catalog())
        for name in ENGINES:
            db.engine(name)  # cache every engine, so each one is patched
        engines = len(db.cache_stats()["engines"])
        version = db.catalog.version
        patched = db.maintenance.engines_patched
        receipt = db.apply_update(
            "ORDERS", lambda row: row[0] == 100, {"O_TOTAL": 7.0}
        )
        assert (receipt["deleted"], receipt["inserted"]) == (1, 1)
        # one delta: one version bump and one patch per cached engine
        assert db.catalog.version == version + 1
        assert db.maintenance.engines_patched == patched + engines
        assert db.maintenance.engines_dropped == 0


class TestViewMaintenanceUnderDelete:
    VIEW_SQL = (
        "SELECT c.C_CUSTKEY AS cid, o.O_ORDERKEY AS oid, o.O_TOTAL AS total "
        "FROM CUSTOMER c, ORDERS o "
        "WHERE c.C_CUSTKEY = o.O_CUSTKEY AND o.O_TOTAL > 4"
    )

    def view_rows(self, db, name):
        return db.query_view(name).to_tuples()

    def test_view_after_deletes_equals_cold_reexecution(self):
        db = Database(make_mini_catalog(), engine="tag")
        db.materialize(self.VIEW_SQL, name="spend")
        recomputed = db.maintenance.views_recomputed
        db.delete_rows("ORDERS", lambda row: row[0] in (100, 104))
        db.delete_rows("CUSTOMER", lambda row: row[0] == 12)
        assert self.view_rows(db, "spend") == query_rows(db, self.VIEW_SQL)
        assert db.maintenance.views_delete_refreshed >= 2
        assert db.maintenance.views_recomputed == recomputed

    def test_view_after_interleaved_rounds_equals_cold_reexecution(self):
        db = Database(make_mini_catalog(), engine="tag")
        db.materialize(self.VIEW_SQL, name="spend")
        db.load_rows("ORDERS", [[106, 11, 61.0, "HIGH"], [107, 12, 62.0, "LOW"]])
        db.delete_rows("ORDERS", lambda row: row[0] in (101, 106))
        db.update_rows(
            "ORDERS", lambda row: row[0] == 102, lambda row: {"O_TOTAL": 1.0}
        )
        db.load_rows("ORDERS", [[108, 13, 63.0, "LOW"]])
        db.delete_rows("CUSTOMER", lambda row: row[0] == 14)
        assert self.view_rows(db, "spend") == query_rows(db, self.VIEW_SQL)

    def test_self_join_view_deletes_exactly(self):
        # both aliases range over ORDERS: the telescoped delete terms pin
        # each alias independently, which must not over-delete pairs where
        # only one side died
        sql = (
            "SELECT a.O_ORDERKEY AS left_key, b.O_ORDERKEY AS right_key "
            "FROM ORDERS a, ORDERS b "
            "WHERE a.O_CUSTKEY = b.O_CUSTKEY AND a.O_TOTAL > b.O_TOTAL"
        )
        db = Database(make_mini_catalog(), engine="tag")
        db.materialize(sql, name="pairs")
        db.delete_rows("ORDERS", lambda row: row[0] == 100)
        assert self.view_rows(db, "pairs") == query_rows(db, sql)
        db.delete_rows("ORDERS", lambda row: row[0] in (102, 104))
        assert self.view_rows(db, "pairs") == query_rows(db, sql)

    def test_aggregate_view_recomputed_correctly(self):
        sql = (
            "SELECT o.O_PRIORITY AS prio, COUNT(*) AS n FROM ORDERS o "
            "GROUP BY o.O_PRIORITY"
        )
        db = Database(make_mini_catalog(), engine="tag")
        db.materialize(sql, name="by_prio")
        db.delete_rows("ORDERS", lambda row: row[0] in (100, 101))
        assert self.view_rows(db, "by_prio") == query_rows(db, sql)
