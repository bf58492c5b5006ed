"""The paper's invariant under maintenance, checked rather than curated.

A correlation map may return false positives -- the sweep re-applies the
predicate and drops them -- but never a false negative, whatever history of
inserts, deletes, MVCC writes, aborts, checkpoints, index/CM creation and
re-clustering the table has been through.  Curated tests pin chosen
histories; this ``hypothesis`` state machine draws them.

The machine drives one flat clustered table and, next to it, a plain-dict
model of what is visible: the committed rows, and per open transaction its
snapshot plus its own writes.  After **every** step it asks, for an
``Equals``, a ``Between``, an ``InSet`` and a conjunction, every reader (a
fresh snapshot, each open transaction, and a pure reader pinned just before
each recent ``commit`` / ``abort`` -- the one a page-level visibility
decision can wrong when that commit lands on an otherwise clean page)
through every applicable ``force=`` access method at batch sizes 1 and 256
and through ``stream()``, and every applicable correlation map directly --
each must return exactly the model's visible rows.  A second invariant
holds the page version summaries to their contract: every ``_xmin`` /
``_xmax`` on a live slot is in its page's summary.

The drawn ``u`` values include NULL and NaN, so every path is held to the
value order's rule too (NULL matches no predicate, NaN only ``= NaN``,
``IN (..., NaN)`` and a range open above).

Two deliberate limits.  Non-transactional DML (``Database.insert`` /
``delete``) and open transactions never overlap: the engine documents no
semantics for that mix (a physical delete under a pinned snapshot).  And the
table is flat: partitioned tables and ``crash``/``restart`` rules belong to
the recovery work (ROADMAP direction 3), which extends this machine.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.bucketing import WidthBucketer
from repro.engine.access import CorrelationMapScan
from repro.engine.database import Database
from repro.engine.executor import ExecutionContext
from repro.engine.planner import FORCE_METHODS
from repro.engine.predicates import Between, Equals, InSet, PredicateSet
from repro.engine.query import Query
from repro.engine.transactions import XMAX_COLUMN, XMIN_COLUMN, SerializationError
from tests.engine.model import holds, user_columns

NUM_C = 10
#: Steps a reader pinned before a commit / abort stays among the readers.
PINNED_FOR_STEPS = 3
#: The one NaN the machine draws, so model and engine rows compare equal.
NAN = float("nan")
#: ``u`` values that are no number: NULL and NaN.
SPECIAL_U = st.sampled_from([None, NAN])


def make_row(row_id, c, jitter, w):
    """``u`` follows the clustered ``c`` (a soft FD), unless ``jitter`` is
    NULL or NaN -- then ``u`` is; ``w`` follows nothing."""
    u = c * 10 + jitter if isinstance(jitter, int) else jitter
    return {"id": row_id, "c": c, "u": u, "w": w}


#: What every step is checked with: point, range, set, conjunction, and
#: the two that NULL and NaN answer differently: a range open above and a
#: set naming both.
PROBES = (
    PredicateSet.of(Equals("u", 34)),
    PredicateSet.of(Between("u", 18, 47)),
    PredicateSet.of(InSet("c", (1, 4, 7))),
    PredicateSet.of(Between("c", 2, 6), Between("u", 25, 58), Equals("w", 1)),
    PredicateSet.of(Between("u", 60, None)),
    PredicateSet.of(InSet("u", (NAN, None, 34))),
)

#: Predicates DML rules pick victims with.
victims = st.one_of(
    st.builds(Equals, st.just("c"), st.integers(0, NUM_C - 1)),
    st.builds(
        lambda low, width: Between("u", low, low + width),
        st.integers(0, 95),
        st.integers(0, 12),
    ),
    st.builds(Equals, st.just("w"), st.integers(0, 3)),
    st.builds(Equals, st.just("u"), SPECIAL_U),
)
new_rows = st.lists(
    st.tuples(
        st.integers(0, NUM_C - 1),
        st.one_of(st.integers(0, 9), SPECIAL_U),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=5,
)
updates = st.one_of(
    st.builds(lambda w: {"w": w}, st.integers(0, 3)),
    st.builds(lambda u: {"u": u}, st.one_of(st.integers(0, 99), SPECIAL_U)),
    st.builds(lambda c: {"c": c}, st.integers(0, NUM_C - 1)),
)
CM_DESIGNS = {
    "cm_u": (["u"], {"u": WidthBucketer(4)}),
    "cm_w": (["w"], None),
    "cm_u_w": (["u", "w"], {"u": WidthBucketer(8)}),
}


class OpenTransaction:
    """One in-flight transaction and the model's idea of what it sees."""

    def __init__(self, handle, committed):
        self.handle = handle
        #: ``id -> (version, row)``: the snapshot, then this one's own writes.
        self.view = dict(committed)
        #: Versions this transaction created / deleted.
        self.created = set()
        self.deleted = {}


class AccessPathMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        rows = [make_row(i, i % NUM_C, (i * 7) % 10, i % 4) for i in range(40)]
        self.db = Database(buffer_pool_pages=64)
        self.db.create_table("t", sample_row=rows[0], tups_per_page=4)
        self.db.load("t", rows)
        self.db.cluster("t", "c", pages_per_bucket=2)
        self.next_id = len(rows)
        self.next_version = len(rows)
        #: ``id -> (version, row)`` as a fresh snapshot sees the table.
        self.committed = {row["id"]: (row["id"], row) for row in rows}
        self.open = []
        #: ``[snapshot, the committed rows at that instant, steps left]`` per
        #: pure reader pinned just before a commit or an abort.
        self.pinned = []

    # -- the model -----------------------------------------------------------

    def fresh_rows(self, drawn):
        rows = []
        for c, jitter, w in drawn:
            rows.append(make_row(self.next_id, c, jitter, w))
            self.next_id += 1
        return rows

    def pin_reader(self):
        snapshot = self.db.transactions.snapshot()
        self.pinned.append([snapshot, dict(self.committed), PINNED_FOR_STEPS])

    def stamp(self, row):
        self.next_version += 1
        return (self.next_version, row)

    def conflicts(self, writer, version, row_id):
        """First-updater-wins: someone else already replaced ``version``."""
        if version in writer.created:
            return False
        if any(version in other.deleted for other in self.open if other is not writer):
            return True
        current = self.committed.get(row_id)
        return current is None or current[0] != version

    def tx_write(self, index, predicate, change):
        """An update (``change`` a dict) or delete (``None``) by one writer."""
        writer = self.open[index % len(self.open)]
        targets = [
            (row_id, version, row)
            for row_id, (version, row) in writer.view.items()
            if holds(predicate, row)
        ]
        clash = any(
            self.conflicts(writer, version, row_id) for row_id, version, _r in targets
        )
        try:
            if change is None:
                count = self.db.tx_delete(writer.handle, "t", [predicate])
            else:
                count = self.db.tx_update(writer.handle, "t", [predicate], change)
        except SerializationError:
            assert clash, "the engine reported a conflict the model does not see"
            return  # a refused write changes nothing
        assert not clash, "the model sees a conflict the engine let through"
        assert count == len(targets)
        for row_id, version, row in targets:
            writer.deleted[version] = row_id
            del writer.view[row_id]
            if change is not None:
                fresh = self.stamp({**row, **change})
                writer.created.add(fresh[0])
                writer.view[row_id] = fresh

    # -- rules: non-transactional DML (never next to an open transaction) ----

    @precondition(lambda self: not self.open)
    @rule(drawn=new_rows)
    def insert(self, drawn):
        self.pinned.clear()  # unversioned rows are visible to every snapshot
        rows = self.fresh_rows(drawn)
        assert self.db.insert("t", rows).rows_affected == len(rows)
        for row in rows:
            self.committed[row["id"]] = self.stamp(row)

    @precondition(lambda self: not self.open)
    @rule(predicate=victims)
    def delete(self, predicate):
        self.pinned.clear()  # a physical delete is gone for every snapshot
        self.db.delete("t", [predicate])
        self.committed = {
            row_id: entry
            for row_id, entry in self.committed.items()
            if not holds(predicate, entry[1])
        }

    # -- rules: snapshot-isolated transactions --------------------------------

    @precondition(lambda self: len(self.open) < 2)
    @rule()
    def begin(self):
        self.open.append(OpenTransaction(self.db.begin_transaction(), self.committed))

    @precondition(lambda self: self.open)
    @rule(index=st.integers(0, 1), drawn=new_rows)
    def tx_insert(self, index, drawn):
        writer = self.open[index % len(self.open)]
        rows = self.fresh_rows(drawn)
        self.db.tx_insert(writer.handle, "t", rows)
        for row in rows:
            fresh = self.stamp(row)
            writer.created.add(fresh[0])
            writer.view[row["id"]] = fresh

    @precondition(lambda self: self.open)
    @rule(index=st.integers(0, 1), predicate=victims, change=updates)
    def tx_update(self, index, predicate, change):
        self.tx_write(index, predicate, change)

    @precondition(lambda self: self.open)
    @rule(index=st.integers(0, 1), predicate=victims)
    def tx_delete(self, index, predicate):
        self.tx_write(index, predicate, None)

    @precondition(lambda self: self.open)
    @rule(index=st.integers(0, 1))
    def commit(self, index):
        writer = self.open.pop(index % len(self.open))
        self.pin_reader()
        writer.handle.commit()
        for version, row_id in writer.deleted.items():
            if row_id in self.committed and self.committed[row_id][0] == version:
                del self.committed[row_id]
        for row_id, (version, row) in writer.view.items():
            if version in writer.created:
                self.committed[row_id] = (version, row)

    @precondition(lambda self: self.open)
    @rule(index=st.integers(0, 1))
    def abort(self, index):
        self.pin_reader()
        self.open.pop(index % len(self.open)).handle.abort()

    # -- rules: physical design and housekeeping ------------------------------

    @rule()
    def checkpoint(self):
        self.db.checkpoint()

    @rule(attribute=st.sampled_from(["u", "w"]))
    def create_secondary_index(self, attribute):
        if f"t__idx_{attribute}" not in self.db.table("t").secondary_indexes:
            self.db.create_secondary_index("t", attribute)

    @rule(name=st.sampled_from(sorted(CM_DESIGNS)))
    def create_correlation_map(self, name):
        if name not in self.db.table("t").correlation_maps:
            attributes, bucketers = CM_DESIGNS[name]
            self.db.create_correlation_map(
                "t", attributes, bucketers=bucketers, name=name
            )

    @rule()
    def cluster(self):
        self.db.cluster("t", "c", pages_per_bucket=2)

    # -- the check, after every step ------------------------------------------

    @invariant()
    def every_access_path_returns_the_visible_rows(self):
        db, table = self.db, self.db.table("t")
        #: ``(who, run_query options, the snapshot they read under, the model)``
        readers = [("latest committed", {}, db.transactions.snapshot(), self.committed)]
        readers += [
            (f"xid {w.handle.xid}", {"transaction": w.handle}, w.handle.snapshot, w.view)
            for w in self.open
        ]
        readers += [
            (f"pinned before xid {snapshot.horizon}", {"snapshot": snapshot}, snapshot, view)
            for snapshot, view, _steps in self.pinned
        ]
        self.pinned = [
            [snapshot, view, steps - 1] for snapshot, view, steps in self.pinned if steps > 1
        ]
        for predicates in PROBES:
            query = Query(table="t", predicates=predicates)
            for who, reader_options, snapshot, view in readers:
                expected = sorted(
                    (
                        row
                        for _version, row in view.values()
                        if all(holds(predicate, row) for predicate in predicates)
                    ),
                    key=lambda row: row["id"],
                )

                def check(rows, how):
                    got = sorted(map(user_columns, rows), key=lambda row: row["id"])
                    assert got == expected, (
                        f"{how} on {predicates.describe()} (reader: {who}): "
                        f"missing {[r for r in expected if r not in got]}, "
                        f"extra {[r for r in got if r not in expected]}"
                    )

                for force in FORCE_METHODS:
                    options = {"force": force, **reader_options}
                    try:
                        for batch_size in (1, 256):
                            db.batch_size = batch_size
                            check(
                                db.run_query(query, **options).rows,
                                f"{force} batch_size={batch_size}",
                            )
                    except ValueError as error:
                        assert "no " in str(error) and "applicable" in str(error) or (
                            "no secondary index" in str(error)
                        ), error
                        continue
                    check(db.stream(query, **options), f"{force} stream()")
                attributes = {predicate.attribute for predicate in predicates}
                for name, cm in table.correlation_maps.items():
                    if attributes & set(cm.attributes):
                        scan = CorrelationMapScan(table, cm, predicates)
                        batches = scan.iter_batches(ExecutionContext(snapshot=snapshot))
                        check([row for batch in batches for row in batch], name)

    @invariant()
    def every_page_summary_covers_the_stamps_on_its_live_slots(self):
        """Superset, always: a missing creator is a dirty read, a missing
        deleter resurrects a deleted row (or hides a live one)."""
        for page in self.db.table("t").heap.pages:
            for slot, row in page.live_rows():
                where = f"page {page.page_no} slot {slot}: {row}"
                assert row.get(XMIN_COLUMN) in {None, *page.creators}, where
                assert row.get(XMAX_COLUMN) in {None, *page.deleters}, where

    def teardown(self):
        for writer in self.open:
            writer.handle.abort()


TestAccessPathOracle = AccessPathMachine.TestCase
TestAccessPathOracle.settings = settings(
    max_examples=25, stateful_step_count=40, derandomize=True, deadline=None
)
