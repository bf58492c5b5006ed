"""The CM's incremental size counters equal a from-scratch recomputation.

``CorrelationMap`` keeps ``total_entries`` and ``size_bytes()`` as counters
maintained by Algorithm 1's insert/delete instead of walking the mapping.
The oracle here is that walk, written against the public ``keys()`` /
``targets_of_key()`` surface only, and re-run after every single step of a
random maintenance history.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucketing import WidthBucketer
from repro.core.composite import CompositeKeySpec
from repro.core.correlation_map import CMStats, CorrelationMap

#: The size model of ``correlation_map.py``, restated: 8 bytes per key of
#: overhead, 8 + 4 per (target, count) entry, strings at their length (at
#: least 4), every other scalar 8, tuples the sum of their parts.
KEY_OVERHEAD = 8
ENTRY_BYTES = 12


def value_bytes(value):
    if isinstance(value, tuple):
        return sum(value_bytes(part) for part in value)
    if isinstance(value, str):
        return max(4, len(value))
    return 8


def recomputed(cm):
    """(entries, bytes, stats) from a walk of the public mapping surface."""
    fanouts = [len(cm.targets_of_key(key)) for key in cm.keys()]
    entries = sum(fanouts)
    size = sum(value_bytes(key) + KEY_OVERHEAD for key in cm.keys())
    size += entries * ENTRY_BYTES
    stats = CMStats(
        distinct_keys=len(fanouts),
        total_entries=entries,
        size_bytes=size,
        max_targets_per_key=max(fanouts, default=0),
        avg_targets_per_key=entries / len(fanouts) if fanouts else 0.0,
    )
    return entries, size, stats


def assert_counters_match(cm):
    entries, size, stats = recomputed(cm)
    assert cm.total_entries == entries
    assert cm.size_bytes() == size
    assert cm.size_pages() == max(1, -(-size // 8192))
    assert cm.distinct_keys == stats.distinct_keys
    assert cm.measured_c_per_u() == stats.avg_targets_per_key
    assert cm.stats() == stats


def observed(cm):
    return (
        cm.total_entries,
        cm.size_bytes(),
        cm.distinct_keys,
        cm.total_rows_represented,
        cm.measured_c_per_u(),
        cm.stats(),
        {key: cm.targets_of_key(key) for key in cm.keys()},
    )


#: Key shapes: an int key, a string key (lengths either side of the 4-byte
#: floor), a tuple-valued attribute, and a composite key with one bucketed
#: part.  Every CM buckets its clustered target, so several rows share one.
KEY_SPECS = {
    "int": lambda: CompositeKeySpec.build(["n"]),
    "string": lambda: CompositeKeySpec.build(["s"]),
    "tuple": lambda: CompositeKeySpec.build(["t"]),
    "composite": lambda: CompositeKeySpec.build(
        ["n", "s"], bucketers={"n": WidthBucketer(3)}
    ),
}

rows = st.builds(
    lambda n, s, t, c: {"n": n, "s": s, "t": t, "c": c},
    st.integers(0, 8),
    st.sampled_from(["", "ab", "abcd", "abcdefgh", "a much longer key"]),
    st.tuples(st.integers(0, 2), st.sampled_from(["x", "yyyyyy"])),
    st.integers(0, 40),
)

#: ("insert", row) | ("delete", index into the live multiset) |
#: ("update", index, row) | ("delete_absent", row)
steps = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(st.just("update"), st.integers(0, 10_000), rows),
    st.tuples(st.just("delete_absent"), rows),
)


@given(st.sampled_from(sorted(KEY_SPECS)), st.lists(steps, max_size=60))
@settings(max_examples=150, deadline=None)
def test_counters_equal_recomputation_after_every_step(shape, history):
    cm = CorrelationMap(
        "cm",
        KEY_SPECS[shape](),
        "c",
        target_of=lambda row, b=WidthBucketer(10): b.bucket(row["c"]),
    )
    live: list[dict] = []
    assert_counters_match(cm)
    for step in history:
        kind = step[0]
        if kind == "insert":
            cm.insert(step[1])
            live.append(step[1])
        elif kind == "delete" and live:
            assert cm.delete(live.pop(step[1] % len(live)))
        elif kind == "update" and live:
            index = step[1] % len(live)
            cm.update(live[index], step[2])
            live[index] = step[2]
        elif kind == "delete_absent":
            row = step[1]
            represented = any(
                cm.key_of(other) == cm.key_of(row)
                and cm.target_of(other) == cm.target_of(row)
                for other in live
            )
            if not represented:
                before = observed(cm)
                assert cm.delete(row) is False
                assert observed(cm) == before
        assert cm.total_rows_represented == len(live)
        assert_counters_match(cm)
    # Emptying the CM returns every counter to zero.
    for row in live:
        assert cm.delete(row)
        assert_counters_match(cm)
    assert cm.total_entries == 0
    assert cm.size_bytes() == 0
    assert cm.distinct_keys == 0
    assert cm.measured_c_per_u() == 0.0
    assert cm.stats() == CMStats(0, 0, 0, 0, 0.0)


def test_counters_track_the_figure4_example():
    cm = CorrelationMap("cm_city", CompositeKeySpec.build(["city"]), "state")
    cm.build(
        [
            {"city": "Boston", "state": "MA"},
            {"city": "Boston", "state": "MA"},
            {"city": "Boston", "state": "NH"},
            {"city": "Toledo", "state": "OH"},
        ]
    )
    # Two keys ("Boston" 6 B, "Toledo" 6 B) + 8 B overhead each, three entries.
    assert cm.total_entries == 3
    assert cm.size_bytes() == (6 + 8) * 2 + 3 * 12
    assert cm.delete({"city": "Boston", "state": "MA"})  # count 2 -> 1: no change
    assert cm.size_bytes() == (6 + 8) * 2 + 3 * 12
    assert cm.delete({"city": "Boston", "state": "MA"})  # entry gone
    assert cm.size_bytes() == (6 + 8) * 2 + 2 * 12
    assert cm.delete({"city": "Toledo", "state": "OH"})  # entry and key gone
    assert cm.size_bytes() == (6 + 8) + 12
    assert_counters_match(cm)
