"""The legacy Planner baseline: static expansion, plan-size growth,
parameter-based dynamic elimination, quadratic DML plans."""


from repro.physical.ops import (
    Append,
    DynamicScan,
    GatherMotion,
    HashJoin,
    LeafScan,
    PartitionSelector,
)
from repro.workloads.synthetic import (
    JOIN_QUERY,
    UPDATE_QUERY,
    build_rs_database,
)
from repro.workloads.tpch import build_lineitem_database, shipdate_for_fraction


def _plan(db, sql, **options):
    return db.plan(sql, optimizer="planner", **options)


def test_partitioned_scan_expands_to_append(rs_db):
    plan = _plan(rs_db, "SELECT * FROM r")
    append = next(op for op in plan.walk() if isinstance(op, Append))
    assert len(append.children) == 10
    assert all(isinstance(c, LeafScan) for c in append.children)
    assert not any(isinstance(op, DynamicScan) for op in plan.walk())


def test_static_elimination_prunes_append(rs_db):
    plan = _plan(rs_db, "SELECT * FROM r WHERE b < 1000")
    append = next(op for op in plan.walk() if isinstance(op, Append))
    assert len(append.children) == 1  # only the first of 10 ranges


def test_static_elimination_can_be_disabled(rs_db):
    plan = _plan(
        rs_db,
        "SELECT * FROM r WHERE b < 1000",
        enable_static_elimination=False,
    )
    append = next(op for op in plan.walk() if isinstance(op, Append))
    assert len(append.children) == 10


def test_plan_size_grows_linearly_with_partitions():
    """Figure 18(a): Planner plan size is linear in listed partitions."""
    sizes = {}
    for parts in (10, 40):
        db = build_lineitem_database(parts, row_count=100, num_segments=2)
        plan = _plan(db, "SELECT * FROM lineitem")
        sizes[parts] = plan.size_bytes()
    ratio = sizes[40] / sizes[10]
    assert 3.0 < ratio < 5.0


def test_param_dpe_guards_leaf_scans(rs_db):
    """Section 4.4.2: the planner's run-time parameter mechanism — every
    leaf still listed, but guarded by an OID set from the other side."""
    plan = _plan(rs_db, JOIN_QUERY)
    guarded = [
        op
        for op in plan.walk()
        if isinstance(op, LeafScan) and op.guard_scan_id is not None
    ]
    assert guarded, "expected guarded leaf scans"
    producers = [
        op for op in plan.walk() if isinstance(op, PartitionSelector)
    ]
    assert len(producers) == 1
    plan.validate()


def test_param_dpe_can_be_disabled(rs_db):
    plan = _plan(rs_db, JOIN_QUERY, enable_param_dpe=False)
    assert not any(
        isinstance(op, PartitionSelector) for op in plan.walk()
    )


def test_param_dpe_execution_skips_partitions():
    """When the driving (build) side only holds values from a few
    partitions, the guarded probe-side leaves are skipped at run time."""
    db = build_rs_database(num_parts=10, rows_per_table=300)
    # Replace r with rows whose b values live in the first partition only.
    db.sql("DELETE FROM r")
    db.insert("r", [(i, i % 900) for i in range(300)])
    db.analyze("r")
    with_dpe = db.sql(JOIN_QUERY, optimizer="planner")
    without = db.sql(JOIN_QUERY, optimizer="planner", enable_param_dpe=False)
    assert sorted(with_dpe.rows) == sorted(without.rows)
    # r drives the guard on s: only s's first partition can match
    assert with_dpe.partitions_scanned("s") == 1
    assert without.partitions_scanned("s") == 10


def test_dml_plan_quadratic(rs_db):
    """Figure 18(c): partition-pair enumeration for UPDATE...FROM."""
    plan = _plan(rs_db, UPDATE_QUERY)
    joins = [op for op in plan.walk() if isinstance(op, HashJoin)]
    assert len(joins) == 100  # 10 x 10 partition pairs


def test_dml_plan_size_quadratic_growth():
    small = build_rs_database(num_parts=5, rows_per_table=50)
    large = build_rs_database(num_parts=15, rows_per_table=50)
    small_size = _plan(small, UPDATE_QUERY).size_bytes()
    large_size = _plan(large, UPDATE_QUERY).size_bytes()
    # 3x partitions -> ~9x plan size
    assert large_size / small_size > 6.0


def test_dml_execution_correct(rs_db):
    result = rs_db.sql(UPDATE_QUERY, optimizer="planner")
    assert result.rows[0][0] > 0
    r_rows = dict(rs_db.storage.store_by_name("r").scan_all())
    s_rows = dict(rs_db.storage.store_by_name("s").scan_all())
    for key, value in r_rows.items():
        if key in s_rows:
            assert value == s_rows[key]


def test_root_always_gathers(rs_db):
    plan = _plan(rs_db, "SELECT * FROM r")
    assert isinstance(plan.root, GatherMotion)


def test_static_pruning_with_or_predicate(rs_db):
    plan = _plan(rs_db, "SELECT * FROM r WHERE b < 500 OR b >= 9500")
    append = next(op for op in plan.walk() if isinstance(op, Append))
    assert len(append.children) == 2


def test_parameters_do_not_prune_statically(rs_db):
    """Prepared statements: values unknown at plan time keep all leaves."""
    plan = _plan(rs_db, "SELECT * FROM r WHERE b < $1")
    append = next(op for op in plan.walk() if isinstance(op, Append))
    assert len(append.children) == 10


def test_results_match_orca(rs_db):
    for sql in (
        "SELECT * FROM r WHERE b < 3000",
        JOIN_QUERY,
        "SELECT count(*) FROM r, s WHERE r.b = s.b",
    ):
        orca_rows = sorted(rs_db.sql(sql).rows)
        planner_rows = sorted(rs_db.sql(sql, optimizer="planner").rows)
        assert orca_rows == planner_rows


def test_fraction_helper_monotone():
    assert shipdate_for_fraction(0.1) < shipdate_for_fraction(0.9)
