"""Exact row accounting of every statement shape the executor specialises.

The cost model prices each statement from its ExecStats, and every
simulated result is built from those prices, so the counts below are
derived by hand on a tiny dataset and compared key for key.  For the
examined-row dicts the *order* of the keys is asserted too: the cost
model sums them in dict order, and float addition is not associative.

Dataset::

    t: id grp val name          u: id t_id qty
        1   1  10  a                 1    1   5
        2   1  20  b                 2    1   7
        3   1  30  c                 3    2   3
        4   2  10  d                 4    4   1
        5   2  40  e                 5    4   2
        6   3  50  f                 6    4   4
        7   3  60  g
        8   3  70  h

Indexes: ``pk_t`` (sorted, unique), ``h_name`` (hash on name),
``s_grp_val`` (sorted on grp, val); ``pk_u``, ``s_tid`` (sorted on t_id).
"""

import pytest

from repro.db import Column, ColumnType, Database, IndexDef, TableSchema

T_ROWS = [(1, 10, "a"), (1, 20, "b"), (1, 30, "c"), (2, 10, "d"),
          (2, 40, "e"), (3, 50, "f"), (3, 60, "g"), (3, 70, "h")]
U_ROWS = [(1, 5), (1, 7), (2, 3), (4, 1), (4, 2), (4, 4)]


@pytest.fixture
def db():
    database = Database()
    database.create_table(TableSchema(
        name="t",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("grp", ColumnType.INT),
                 Column("val", ColumnType.INT),
                 Column("name", ColumnType.VARCHAR)],
        primary_key="id", auto_increment=True,
        indexes=[IndexDef("h_name", ("name",), kind="hash"),
                 IndexDef("s_grp_val", ("grp", "val"))]))
    database.create_table(TableSchema(
        name="u",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("t_id", ColumnType.INT),
                 Column("qty", ColumnType.INT)],
        primary_key="id", auto_increment=True,
        indexes=[IndexDef("s_tid", ("t_id",))]))
    for row in T_ROWS:
        database.execute("INSERT INTO t (grp, val, name) VALUES (?, ?, ?)",
                         row)
    for row in U_ROWS:
        database.execute("INSERT INTO u (t_id, qty) VALUES (?, ?)", row)
    return database


def accounting(result) -> dict:
    stats = result.stats
    return {"scan": list(stats.rows_examined_scan.items()),
            "index": list(stats.rows_examined_index.items()),
            "sort_rows": stats.sort_rows,
            "rows_returned": stats.rows_returned,
            "rows_changed": stats.rows_changed}


def expect(scan=(), index=(), sort_rows=0, rows_returned=0,
           rows_changed=0) -> dict:
    return {"scan": list(scan), "index": list(index), "sort_rows": sort_rows,
            "rows_returned": rows_returned, "rows_changed": rows_changed}


def test_hash_point_lookup(db):
    hit = db.execute("SELECT id FROM t WHERE name = ?", ("d",))
    assert hit.rows == [(4,)]
    assert accounting(hit) == expect(index=[(("t", "name"), 1)],
                                     rows_returned=1)
    miss = db.execute("SELECT id FROM t WHERE name = ?", ("zz",))
    assert miss.rows == []
    assert accounting(miss) == expect()


def test_primary_key_point_lookup(db):
    result = db.execute("SELECT name, val FROM t WHERE id = ?", (6,))
    assert result.rows == [("f", 50)]
    assert accounting(result) == expect(index=[(("t", "id"), 1)],
                                        rows_returned=1)


def test_sorted_index_prefix_lookup(db):
    result = db.execute("SELECT val FROM t WHERE grp = ?", (1,))
    assert result.rows == [(10,), (20,), (30,)]
    assert accounting(result) == expect(index=[(("t", "grp"), 3)],
                                        rows_returned=3)


def test_sorted_index_full_two_column_key(db):
    result = db.execute("SELECT name FROM t WHERE grp = ? AND val = ?",
                        (2, 40))
    assert result.rows == [("e",)]
    assert accounting(result) == expect(index=[(("t", "grp"), 1)],
                                        rows_returned=1)


def test_sorted_prefix_ordered_desc_is_unscaled_and_unsorted(db):
    result = db.execute(
        "SELECT val FROM t WHERE grp = ? ORDER BY val DESC", (3,))
    assert result.rows == [(70,), (60,), (50,)]
    # Ordered paths are recorded with lead None and need no sort.
    assert accounting(result) == expect(index=[(("t", None), 3)],
                                        rows_returned=3)


def test_sorted_prefix_ordered_limit_stops_early(db):
    result = db.execute(
        "SELECT val FROM t WHERE grp = ? ORDER BY val DESC LIMIT 2", (3,))
    assert result.rows == [(70,), (60,)]
    assert accounting(result) == expect(index=[(("t", None), 2)],
                                        rows_returned=2)


def test_order_by_indexed_limit_stops_early(db):
    result = db.execute("SELECT id FROM t ORDER BY id DESC LIMIT 3")
    assert result.rows == [(8,), (7,), (6,)]
    assert accounting(result) == expect(index=[(("t", None), 3)],
                                        rows_returned=3)


def test_order_by_indexed_limit_offset_counts_skipped_rows(db):
    result = db.execute("SELECT id FROM t ORDER BY id LIMIT 2 OFFSET 1")
    assert result.rows == [(2,), (3,)]
    assert accounting(result) == expect(index=[(("t", None), 3)],
                                        rows_returned=2)


def test_order_by_indexed_limit_with_filter_counts_rejected_rows(db):
    result = db.execute(
        "SELECT id FROM t WHERE val > 35 ORDER BY id LIMIT 2")
    assert result.rows == [(5,), (6,)]
    # Ids 1..4 fail the filter but were examined on the way.
    assert accounting(result) == expect(index=[(("t", None), 6)],
                                        rows_returned=2)


def test_distinct_limit_does_not_stop_early(db):
    result = db.execute("SELECT DISTINCT grp FROM t ORDER BY id LIMIT 2")
    assert result.rows == [(1,), (2,)]
    # DISTINCT needs every row before it can cut at the LIMIT.
    assert accounting(result) == expect(index=[(("t", None), 8)],
                                        rows_returned=2)


def test_sort_counts_sorted_rows(db):
    result = db.execute("SELECT id FROM t ORDER BY val DESC LIMIT 2")
    assert result.rows == [(8,), (7,)]
    assert accounting(result) == expect(scan=[("t", 8)], sort_rows=8,
                                        rows_returned=2)


def test_left_join_unmatched_outer_rows(db):
    result = db.execute(
        "SELECT t.id, u.qty FROM t LEFT JOIN u ON u.t_id = t.id "
        "WHERE t.grp = ?", (1,))
    assert result.rows == [(1, 5), (1, 7), (2, 3), (3, None)]
    # t3 has no u rows: it examines none there and yields a NULL row.
    assert accounting(result) == expect(
        index=[(("t", "grp"), 3), (("u", "t_id"), 3)], rows_returned=4)


def test_inner_join_counts_each_level(db):
    result = db.execute(
        "SELECT t.name, u.qty FROM u JOIN t ON t.id = u.t_id "
        "WHERE u.qty > ? AND t.grp = ?", (2, 1))
    assert result.rows == [("a", 5), ("a", 7), ("b", 3)]
    # u: scanned (6 rows, 4 pass qty > 2); t: one pk probe per pass.
    assert accounting(result) == expect(
        scan=[("u", 6)], index=[(("t", "id"), 4)], rows_returned=3)


def test_group_by_having(db):
    result = db.execute(
        "SELECT grp, COUNT(*) AS n, SUM(val) AS total FROM t "
        "GROUP BY grp HAVING COUNT(*) > 2 ORDER BY total DESC")
    assert result.rows == [(3, 3, 180.0), (1, 3, 60.0)]
    # Sorting counts the groups that survived HAVING.
    assert accounting(result) == expect(scan=[("t", 8)], sort_rows=2,
                                        rows_returned=2)


def test_max_id_over_a_scan(db):
    result = db.execute("SELECT MAX(id) FROM t")
    assert result.rows == [(8,)]
    assert accounting(result) == expect(scan=[("t", 8)], rows_returned=1)


def test_aggregate_over_no_rows_returns_one_null_row(db):
    result = db.execute("SELECT MAX(id), COUNT(*) FROM t WHERE name = ?",
                        ("zz",))
    assert result.rows == [(None, 0)]
    assert accounting(result) == expect(rows_returned=1)


def test_update_counts_prefix_path_with_lead_column(db):
    result = db.execute("UPDATE t SET val = val + 100 WHERE grp = ?", (2,))
    assert accounting(result) == expect(index=[(("t", "grp"), 2)],
                                        rows_changed=2)
    assert db.execute("SELECT val FROM t WHERE grp = 2").rows == \
        [(110,), (140,)]


def test_update_through_hash_index(db):
    result = db.execute("UPDATE t SET val = 0 WHERE name = ?", ("h",))
    assert accounting(result) == expect(index=[(("t", "name"), 1)],
                                        rows_changed=1)


def test_delete_counts_range_and_scan_paths(db):
    by_range = db.execute("DELETE FROM t WHERE id > 6")
    assert accounting(by_range) == expect(index=[(("t", "id"), 2)],
                                          rows_changed=2)
    by_scan = db.execute("DELETE FROM u WHERE qty < 4")
    # u: six rows scanned, three (qty 3, 1, 2) deleted.
    assert accounting(by_scan) == expect(scan=[("u", 6)], rows_changed=3)
    assert len(db.table("u")) == 3


def test_delete_counts_filtered_index_rows(db):
    result = db.execute("DELETE FROM u WHERE t_id = ? AND qty > ?", (4, 1))
    assert accounting(result) == expect(index=[(("u", "t_id"), 3)],
                                        rows_changed=2)
