"""Isolation-anomaly suite: snapshot isolation under deterministic interleavings.

The classic anomalies -- dirty read, non-repeatable read, lost update -- are
each driven twice: once through the synchronous transaction API, and once
*mid-scan* through :meth:`QueryScheduler.step`, which interleaves a reader's
batch pulls with writer transactions committing between quanta.  The
scheduler is deterministic (no wall clock, no randomness), so every
interleaving here is a replayable script; the randomized scenario replays
bit-identically from its seed and is run under 50 seeds in tier-1.
"""

import random

import pytest

from repro.engine.access import SeqScan, visible_matches
from repro.engine.database import Database
from repro.engine.executor import ExecutionContext
from repro.engine.predicates import Between, PredicateSet
from repro.engine.query import Aggregate, Query
from repro.engine.scheduler import QueryScheduler
from repro.engine.transactions import SerializationError
from repro.storage.page import RID


def make_database(num_rows=120, *, tups_per_page=10):
    db = Database(buffer_pool_pages=200)
    db.create_table(
        "items",
        sample_row={"itemid": 0, "catid": 0, "price": 0.0},
        tups_per_page=tups_per_page,
    )
    db.load(
        "items",
        [
            {"itemid": i, "catid": i % 7, "price": float(i)}
            for i in range(num_rows)
        ],
    )
    return db


def count_rows(db, *, transaction=None, snapshot=None):
    query = Query.select("items", aggregate=Aggregate.count())
    return db.run_query(
        query, force="seq_scan", transaction=transaction, snapshot=snapshot
    ).value


ALL_ROWS = Query.select("items", name="reader")


# ---------------------------------------------------------------------------
# Dirty reads
# ---------------------------------------------------------------------------

def test_no_dirty_read_of_uncommitted_insert():
    db = make_database(50)
    writer = db.begin_transaction()
    db.tx_insert(writer, "items", [{"itemid": 1000, "catid": 0, "price": 1.0}])
    assert count_rows(db) == 50  # uncommitted version invisible outside
    assert count_rows(db, transaction=writer) == 51  # but visible to its writer
    writer.commit()
    assert count_rows(db) == 51


def test_no_dirty_read_of_uncommitted_delete():
    db = make_database(50)
    writer = db.begin_transaction()
    assert db.tx_delete(writer, "items", [Between("itemid", 0, 9)]) == 10
    assert count_rows(db) == 50  # delete stamps are invisible until commit
    assert count_rows(db, transaction=writer) == 40
    writer.abort()
    assert count_rows(db) == 50  # aborted delete never takes effect


def test_no_dirty_read_mid_scan():
    """A scheduled reader never sees a commit that lands between its quanta."""
    db = make_database(120)
    scheduler = QueryScheduler(db, batch_size=16)
    entry = scheduler.submit(ALL_ROWS, force="seq_scan")
    scheduler.step()  # reader is mid-scan now
    writer = db.begin_transaction()
    db.tx_insert(
        writer, "items", [{"itemid": 2000 + i, "catid": 0, "price": 0.5} for i in range(30)]
    )
    writer.commit()  # commits *ahead of* the scan position
    scheduler.run()
    assert entry.result.rows_matched == 120


# ---------------------------------------------------------------------------
# Non-repeatable reads
# ---------------------------------------------------------------------------

def test_repeatable_reads_within_a_transaction():
    db = make_database(60)
    reader = db.begin_transaction()
    first = count_rows(db, transaction=reader)
    deleter = db.begin_transaction()
    db.tx_delete(deleter, "items", [Between("itemid", 0, 19)])
    deleter.commit()
    assert count_rows(db, transaction=reader) == first  # same rows, twice
    reader.commit()
    assert count_rows(db) == 40  # a fresh snapshot does see the delete


def test_pinned_snapshot_is_stable_across_update():
    db = make_database(60)
    snapshot = db.transactions.snapshot()
    before = count_rows(db, snapshot=snapshot)
    updater = db.begin_transaction()
    assert db.tx_update(
        updater, "items", [Between("itemid", 0, 9)], {"price": 999.0}
    ) == 10
    updater.commit()
    # The update replaced 10 versions; the pinned snapshot still counts the
    # old ones and never sees the new ones -- no double counting either.
    assert count_rows(db, snapshot=snapshot) == before
    assert count_rows(db) == before


def test_no_phantom_rows_mid_scan_delete():
    """Deleting ahead of a scheduled reader's position changes nothing it sees."""
    db = make_database(120)
    scheduler = QueryScheduler(db, batch_size=16)
    entry = scheduler.submit(ALL_ROWS, force="seq_scan")
    scheduler.step()
    deleter = db.begin_transaction()
    db.tx_delete(deleter, "items", [Between("itemid", 100, 119)])
    deleter.commit()
    scheduler.run()
    assert entry.result.rows_matched == 120
    late = scheduler_count(db)
    assert late == 100


def scheduler_count(db):
    """Row count as a freshly admitted scheduled reader sees it."""
    scheduler = QueryScheduler(db, batch_size=16)
    entry = scheduler.submit(ALL_ROWS, force="seq_scan")
    scheduler.run()
    return entry.result.rows_matched


# ---------------------------------------------------------------------------
# Lost updates
# ---------------------------------------------------------------------------

def test_lost_update_raises_serialization_error():
    db = make_database(30)
    first = db.begin_transaction()
    second = db.begin_transaction()
    db.tx_update(first, "items", [Between("itemid", 5, 5)], {"price": 1.0})
    with pytest.raises(SerializationError):
        db.tx_update(second, "items", [Between("itemid", 5, 5)], {"price": 2.0})
    # First-updater-wins holds whether the first updater is live or committed.
    first.commit()
    third = db.begin_transaction()  # snapshot predates nothing -- sees v2
    db.tx_update(third, "items", [Between("itemid", 5, 5)], {"price": 3.0})
    third.commit()


def test_lost_delete_raises_and_abort_releases_the_row():
    db = make_database(30)
    first = db.begin_transaction()
    second = db.begin_transaction()
    db.tx_delete(first, "items", [Between("itemid", 7, 7)])
    with pytest.raises(SerializationError):
        db.tx_delete(second, "items", [Between("itemid", 7, 7)])
    first.abort()
    # The aborted stamp no longer conflicts; the retry goes through.
    assert db.tx_delete(second, "items", [Between("itemid", 7, 7)]) == 1
    second.commit()
    assert count_rows(db) == 29


def test_conflicting_update_leaves_no_partial_writes():
    db = make_database(30)
    first = db.begin_transaction()
    db.tx_update(first, "items", [Between("itemid", 10, 10)], {"price": 1.0})
    second = db.begin_transaction()
    # Target range overlaps one already-stamped row: the conflict is checked
    # for every target *before* any write, so nothing of this survives.
    with pytest.raises(SerializationError):
        db.tx_update(second, "items", [Between("itemid", 8, 12)], {"price": 2.0})
    second.abort()
    first.abort()
    assert count_rows(db) == 30
    prices = {
        row["itemid"]: row["price"]
        for row in db.run_query(
            Query.select("items", Between("itemid", 8, 12)), force="seq_scan"
        ).rows
    }
    assert prices == {i: float(i) for i in range(8, 13)}


# ---------------------------------------------------------------------------
# Randomized, replayable interleavings
# ---------------------------------------------------------------------------

def run_random_scenario(seed, *, num_rows=120, readers=5, writer_actions=8):
    """One seeded reader/writer interleaving; returns its full trace.

    Readers are scheduled streaming scans; writer transactions (insert,
    delete, update, with occasional aborts) run between scheduling quanta.
    A side model tracks the committed-live row count so every reader's
    result can be checked against the model state at its admission.
    """
    rng = random.Random(seed)
    db = make_database(num_rows)
    scheduler = QueryScheduler(db, batch_size=16, max_concurrent=readers + 1)
    live = set(range(num_rows))  # committed-live itemids (the model)
    next_itemid = 10_000
    expected = {}
    entries = []
    trace = []

    def submit_reader(label):
        expected[label] = len(live)  # snapshot is pinned inside submit()
        entries.append(
            scheduler.submit(ALL_ROWS, label=label, force="seq_scan")
        )

    def writer_action():
        nonlocal next_itemid
        action = rng.choice(["insert", "delete", "update"])
        tx = db.begin_transaction()
        touched = set()
        if action == "insert":
            count = rng.randrange(1, 20)
            db.tx_insert(
                tx,
                "items",
                [
                    {"itemid": next_itemid + i, "catid": 0, "price": 1.0}
                    for i in range(count)
                ],
            )
            touched = set(range(next_itemid, next_itemid + count))
            next_itemid += count
        else:
            low = rng.randrange(0, num_rows)
            high = low + rng.randrange(0, 30)
            targets = {i for i in live if low <= i <= high}
            if action == "delete":
                db.tx_delete(tx, "items", [Between("itemid", low, high)])
                touched = targets
            else:
                db.tx_update(
                    tx, "items", [Between("itemid", low, high)], {"price": -1.0}
                )
        if rng.random() < 0.25:
            tx.abort()
            trace.append((action, "abort"))
            return
        tx.commit()
        trace.append((action, "commit"))
        if action == "insert":
            live.update(touched)
        elif action == "delete":
            live.difference_update(touched)
        # an update keeps the live count: one version out, one version in

    submitted = 0
    actions_left = writer_actions
    while submitted < readers or actions_left or scheduler.active:
        move = rng.random()
        if submitted < readers and move < 0.35:
            submit_reader(f"reader_{submitted}")
            submitted += 1
        elif actions_left and move < 0.6:
            writer_action()
            actions_left -= 1
        else:
            report = scheduler.step()
            if report is not None:
                trace.append(
                    (report.label, report.rows, report.pages)
                )
    scheduler.run()
    results = {entry.label: entry.result.rows_matched for entry in entries}
    return results, expected, trace


@pytest.mark.parametrize("seed", range(50))
def test_randomized_interleavings_preserve_snapshot_counts(seed):
    results, expected, _trace = run_random_scenario(seed)
    assert results == expected, f"seed={seed}"


def test_scenarios_replay_bit_identically_from_their_seed():
    for seed in (3, 17):
        first = run_random_scenario(seed)
        second = run_random_scenario(seed)
        assert first == second  # results, expectations, and the full trace


# ---------------------------------------------------------------------------
# The page rule: visibility decided per page wherever no snapshot can disagree
# ---------------------------------------------------------------------------

def page_of(db, itemid):
    """The heap page holding the (first) version of ``itemid``."""
    heap = db.table("items").heap
    for rid, row in heap.scan(charge_io=False):
        if row["itemid"] == itemid:
            return heap.pages[rid.page_no]
    raise AssertionError(f"no version of item {itemid}")


def sees_whole(snapshot, page):
    return snapshot.sees_page(page.creators, page.deleters)


def assert_page_rule_matches_row_rule(db, snapshots):
    """Page rule, then per-row filter == the row rule alone, on every page."""
    heap = db.table("items").heap
    for label, snapshot in snapshots.items():
        page_filter = SeqScan(db.table("items"), PredicateSet())._page_filter(
            ExecutionContext(snapshot=snapshot)
        )
        for page in heap.pages:
            live = [row for row in page.slots if row is not None]
            by_row = [row for row in live if snapshot.visible(row)]
            assert page_filter(list(live), page) == by_row, (label, page.page_no)
            if sees_whole(snapshot, page):
                assert by_row == live, (label, page.page_no)
        # The writers' victim search is the same step plus the RID of each
        # survivor, found by identity among the page's slots (holes included).
        wanted = PredicateSet.of(Between("itemid", 2, 2500))
        assert list(visible_matches(db.table("items"), wanted, snapshot)) == [
            (rid, row)
            for rid, row in heap.scan(charge_io=False)
            if snapshot.visible(row) and wanted.matches(row)
        ], label


def test_page_rule_agrees_with_the_row_rule_for_every_snapshot():
    db = make_database(40, tups_per_page=5)
    snapshots = {"before any writer": db.transactions.snapshot()}

    def fresh(itemid):
        return {"itemid": itemid, "catid": 0, "price": 1.0}

    def check():
        assert_page_rule_matches_row_rule(db, snapshots)

    check()

    committer = db.begin_transaction()
    db.tx_insert(committer, "items", [fresh(1000), fresh(1001)])
    db.tx_delete(committer, "items", [Between("itemid", 3, 6)])
    db.tx_update(committer, "items", [Between("itemid", 12, 12)], {"price": -1.0})
    snapshots["committer in flight"] = db.transactions.snapshot()
    snapshots["committer's own"] = committer.snapshot
    check()
    committer.commit()
    snapshots["after the commit"] = db.transactions.snapshot()
    check()

    aborter = db.begin_transaction()
    db.tx_insert(aborter, "items", [fresh(2000)])
    db.tx_delete(aborter, "items", [Between("itemid", 20, 27)])
    snapshots["aborter's own"] = aborter.snapshot
    check()
    aborter.abort()
    snapshots["after the abort"] = db.transactions.snapshot()
    check()

    # An open writer over rows both earlier writers touched, a physical
    # delete (stale-large summary) and a re-cluster (summary re-derived).
    writer = db.begin_transaction()
    db.tx_insert(writer, "items", [fresh(3000)])
    db.tx_delete(writer, "items", [Between("itemid", 24, 31)])
    snapshots["open writer's own"] = writer.snapshot
    snapshots["open writer in flight"] = db.transactions.snapshot()
    check()
    db.table("items").delete_row(RID(0, 0))
    check()
    db.cluster("items", "catid")
    check()
    # What each reader counts, by the model: 40 rows, -4 +2 by the
    # committer, one physically deleted, the open writer's +1 -8.
    assert count_rows(db, snapshot=snapshots["before any writer"]) == 39
    assert count_rows(db, snapshot=snapshots["committer in flight"]) == 39
    assert count_rows(db, snapshot=snapshots["after the abort"]) == 37
    assert count_rows(db, transaction=writer) == 30


def test_own_inserts_keep_a_page_whole_and_own_deletes_do_not():
    db = make_database(40, tups_per_page=5)
    writer = db.begin_transaction()
    db.tx_insert(writer, "items", [{"itemid": 1000, "catid": 0, "price": 1.0}])
    inserted, clean = page_of(db, 1000), page_of(db, 0)
    # The writer reads its own insert without a per-row check; nobody else
    # may skip the check on that page.
    assert sees_whole(writer.snapshot, inserted)
    assert not sees_whole(db.transactions.snapshot(), inserted)
    assert sees_whole(db.transactions.snapshot(), clean)

    db.tx_delete(writer, "items", [Between("itemid", 0, 0)])
    # Its own delete must be filtered row by row; for everyone else the
    # delete has not happened, so the page is still whole.
    assert not sees_whole(writer.snapshot, clean)
    assert sees_whole(db.transactions.snapshot(), clean)
    pinned = db.transactions.snapshot()
    writer.commit()
    assert sees_whole(pinned, clean) and not sees_whole(pinned, inserted)
    assert sees_whole(db.transactions.snapshot(), inserted)
    assert not sees_whole(db.transactions.snapshot(), clean)  # a dead version
    assert count_rows(db, snapshot=pinned) == 40
    assert count_rows(db) == 40


def test_aborted_writer_leaves_its_page_on_the_per_row_path():
    db = make_database(40, tups_per_page=5)
    writer = db.begin_transaction()
    db.tx_insert(writer, "items", [{"itemid": 1000, "catid": 0, "price": 1.0}])
    db.tx_delete(writer, "items", [Between("itemid", 0, 0)])
    writer.abort()
    reader = db.transactions.snapshot()
    # The aborted creator is seen by no snapshot, ever: that page is checked
    # row by row (there is no vacuum to shrink its summary) and the row
    # stays invisible.  The aborted deleter is seen by no snapshot either,
    # which is exactly "no deleter": its page is whole again.
    assert not sees_whole(reader, page_of(db, 1000))
    assert sees_whole(reader, page_of(db, 0))
    assert count_rows(db) == 40
    rows = db.run_query(ALL_ROWS, force="seq_scan", snapshot=reader).rows
    assert sorted(row["itemid"] for row in rows) == list(range(40))
