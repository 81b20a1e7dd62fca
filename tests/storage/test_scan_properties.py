"""Property test for the batch scan contract of
:meth:`TableStore.scan_segment_batches`, over random leaf layouts: empty
leaves anywhere, leaf OID lists either implied (``oids=None``: every
stored bucket in OID order) or explicit (any order, leaves with no bucket
included), at the widths the executor is checked at."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import types as t
from repro.catalog import Catalog, TableSchema
from repro.storage import TableStore

FIRST_OID = 1_000
POOL = range(FIRST_OID, FIRST_OID + 12)

layouts = st.dictionaries(
    st.sampled_from(POOL),
    st.one_of(st.just(0), st.integers(0, 9), st.integers(0, 700)),
    max_size=len(POOL),
)


@settings(max_examples=150, deadline=None)
@given(
    layouts,
    st.sampled_from([1, 7, 1024]),
    st.none() | st.lists(st.sampled_from(POOL), unique=True),
)
def test_batches_concatenate_to_the_scan_and_report_each_leaf_once(
    sizes, width, oids
):
    """The batches concatenate to :meth:`scan_segment`'s order, every
    batch but the last is full, each row's leaf is reported by the time
    its batch is yielded, and the reported leaves concatenate to the OID
    list, in order."""
    table = Catalog().create_table("t", TableSchema.of(("leaf", t.INT), ("i", t.INT)))
    store = TableStore(table, num_segments=1)
    for oid, size in sizes.items():
        store.load_bucket(0, oid, [(oid, i) for i in range(size)])
    opened: list[int] = []
    batches = []
    for batch in store.scan_segment_batches(0, oids, width, opened):
        assert {leaf for leaf, _ in batch} <= set(opened)
        batches.append(batch)
    assert [row for batch in batches for row in batch] == list(
        store.scan_segment(0, oids)
    )
    assert all(len(batch) == width for batch in batches[:-1])
    assert all(0 < len(batch) <= width for batch in batches[-1:])
    assert opened == (sorted(sizes) if oids is None else oids)
