"""Property: the health lattice never loses a committed row.

A state machine drives DML (INSERT, DELETE, a partition- and
segment-moving UPDATE) through every combination of primary failover,
mirror outage and rejoin, plus checkpoints and restarts when the
database has a ``data_dir``.  A plain Python multiset is the reference.
After every step:

* a segment with no stale copy has equal copies, list for list (so
  every ``recover`` ends with ``primary == mirror``);
* the copy of each segment that is not stale holds exactly the
  reference rows — the survivor a resync and a checkpoint read from;
* ``SELECT count(*), sum(v)`` answers the reference, unless a double
  fault makes a segment unreadable.

A write that needs a segment whose copies are both down raises
``SegmentFailure`` and changes nothing; a reopened database equals the
live one bucket for bucket.
"""

import shutil
import tempfile
from collections import Counter

from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)
from repro.errors import SegmentFailure
from repro.resilience import MIRROR, PRIMARY

SEGMENTS = 2
KEYS = 40

segments = st.integers(min_value=0, max_value=SEGMENTS - 1)
rows = st.lists(
    st.tuples(st.integers(0, KEYS - 1), st.integers(0, 9)), min_size=1, max_size=8
)
#: one rule for all DML keeps faults, rejoins and restarts as likely as writes
statements = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("delete"), st.integers(0, KEYS)),
    st.tuples(st.just("move"), st.integers(1, KEYS - 1)),
)


def _moved(reference: Counter, shift: int) -> Counter:
    out: Counter = Counter()
    for (k, v), n in reference.items():
        out[((k + shift) % KEYS, v)] += n
    return out


class HealthLattice(RuleBasedStateMachine):
    durable = False

    def __init__(self):
        super().__init__()
        self.data_dir = tempfile.mkdtemp() if self.durable else None
        self.db = self._open()
        self.db.create_table(
            "t",
            TableSchema.of(("k", t.INT), ("v", t.INT)),
            distribution=DistributionPolicy.hashed("k"),
            partition_scheme=PartitionScheme([uniform_int_level("k", 0, KEYS, 4)]),
        )
        self.reference: Counter = Counter()

    def _open(self):
        return Database(num_segments=SEGMENTS, data_dir=self.data_dir, wal_sync="async")

    def _store(self, db=None):
        return (db or self.db).storage.store_by_name("t")

    def _double_fault(self) -> bool:
        health = self.db.health
        return any(
            not health.is_up(s) and not health.mirror_is_up(s) for s in range(SEGMENTS)
        )

    def _current(self, segment: int) -> dict:
        """The buckets of the copy of ``segment`` that is not stale."""
        store = self._store()
        if self.db.health.is_stale(segment, PRIMARY):
            return store.mirror_buckets(segment)
        return store.primary_buckets(segment)

    # -- DML ------------------------------------------------------------------

    @rule(statement=statements)
    def write(self, statement):
        kind, argument = statement
        try:
            if kind == "insert":
                self.db.insert("t", argument)
            elif kind == "delete":
                self.db.sql(f"DELETE FROM t WHERE k < {argument}")
            else:
                self.db.sql(f"UPDATE t SET k = (k + {argument}) % {KEYS}")
        except SegmentFailure:
            assert self._double_fault(), "only a double fault may refuse a write"
            return
        if kind == "insert":
            self.reference += Counter(argument)
        elif kind == "delete":
            self.reference = Counter(
                {row: n for row, n in self.reference.items() if row[0] >= argument}
            )
        else:
            self.reference = _moved(self.reference, argument)

    # -- health ---------------------------------------------------------------

    @rule(segment=segments)
    def failover(self, segment):
        self.db.health.failover(segment)

    @rule(segment=segments)
    def mirror_down(self, segment):
        self.db.health.mark_mirror_down(segment)

    @rule(segment=segments)
    def recover(self, segment):
        self.db.health.recover(segment)
        store = self._store()
        assert not self.db.health.is_stale(segment, PRIMARY)
        assert not self.db.health.is_stale(segment, MIRROR)
        assert store.primary_buckets(segment) == store.mirror_buckets(segment)

    # -- durability -----------------------------------------------------------

    @precondition(lambda self: self.durable)
    @rule(then_reopen=st.booleans())
    def checkpoint(self, then_reopen):
        self.db.checkpoint()
        if then_reopen:
            self.reopen()

    @precondition(lambda self: self.durable)
    @rule()
    def reopen(self):
        live = [self._current(s) for s in range(SEGMENTS)]
        self.db.durability.close()
        self.db = self._open()
        store = self._store()
        for segment in range(SEGMENTS):
            assert store.primary_buckets(segment) == live[segment]
            assert store.mirror_buckets(segment) == live[segment]

    # -- invariants -----------------------------------------------------------

    @invariant()
    def copies_agree_unless_stale(self):
        store, health = self._store(), self.db.health
        for s in range(SEGMENTS):
            assert not (health.is_stale(s, PRIMARY) and health.is_stale(s, MIRROR))
            if not health.is_stale(s, PRIMARY) and not health.is_stale(s, MIRROR):
                assert store.primary_buckets(s) == store.mirror_buckets(s)

    @invariant()
    def survivors_hold_the_reference(self):
        held = Counter(
            row
            for s in range(SEGMENTS)
            for bucket in self._current(s).values()
            for row in bucket
        )
        assert held == self.reference

    @invariant()
    def sql_answers_the_reference(self):
        if self._double_fault():
            return
        total = sum(self.reference.values())
        v_sum = sum(v * n for (_, v), n in self.reference.items()) if total else None
        assert self.db.sql("SELECT count(*), sum(v) FROM t").rows == [(total, v_sum)]

    def teardown(self):
        if self.durable:
            self.reopen()  # a lossy checkpoint shows even without a reopen step
            self.db.durability.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)


LATTICE_SETTINGS = settings(
    max_examples=20,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class VolatileLattice(HealthLattice):
    durable = False


class DurableLattice(HealthLattice):
    durable = True


TestVolatileLattice = VolatileLattice.TestCase
TestVolatileLattice.settings = LATTICE_SETTINGS
TestDurableLattice = DurableLattice.TestCase
#: no shrink phase: every shrink candidate writes and reopens a data_dir,
#: so shrinking a found failure ran for minutes; it is reported unshrunk
TestDurableLattice.settings = settings(
    LATTICE_SETTINGS,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
