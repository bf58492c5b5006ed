"""``CorrelationMap.matching_keys`` equals the linear pass; lookups lose no row.

``matching_keys`` is the one place stored CM keys meet bucket-level
constraints: the planner counts its result, ``lookup_constraints`` unions
its targets.  For a range on the leading key position it bisects a sorted
key directory that ``insert`` / ``delete`` keep in step with the mapping.
The oracle is the pass it replaced -- ``key_matches`` over ``keys()`` --
re-run after every step of a random maintenance history, over single,
composite, bucketed and NULL/NaN-holding keys, for range, set, mixed and
unconstrained positions.  On top of that sits the paper's invariant, as a
property: a CM lookup may return false positives, never false negatives.
"""

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import ebay_price_bucketer
from repro.core.bucketing import WidthBucketer
from repro.core.composite import CompositeKeySpec, ValueConstraint, key_matches
from repro.core.correlation_map import CorrelationMap

#: Column -> the values rows draw from.  ``p`` straddles the 4096-dollar
#: bucket edges of ``ebay_price_bucketer(12)``; ``m`` holds NULL and NaN.
POOLS = {
    "n": list(range(9)),
    "s": ["", "ab", "abcd", "b", "zz"],
    "p": [0.0, 10.0, 4095.99, 4096.0, 5000.0, 9000.5, 100_000.0],
    "m": [None, 1, 2.5, -3, math.nan, float("nan")],
}
#: Column -> range bounds: the pool's values, plus some off the pool.
BOUNDS = {
    "n": [-1, *range(9), 11],
    "s": ["", "a", "ab", "abcd", "b", "c", "zz", "zzz"],
    "p": [-5.0, *POOLS["p"], 4000.0, 8192.0, 1e7],
    "m": [0, 1, 2.5, 3],
}

KEY_SPECS = {
    "single": (["n"], {}),
    "composite": (["n", "s"], {}),
    "bucketed": (["p"], {"p": ebay_price_bucketer(12)}),
    "bucketed_composite": (["p", "n"], {"p": ebay_price_bucketer(12)}),
    "string_leading": (["s", "p"], {"p": WidthBucketer(5000)}),
    "nullable": (["m"], {}),
    "nullable_composite": (["m", "n"], {}),
    "nullable_bucketed": (["m"], {"m": WidthBucketer(2)}),
}

rows = st.fixed_dictionaries(
    {**{column: st.sampled_from(pool) for column, pool in POOLS.items()},
     "c": st.integers(0, 40)}
)

#: ("insert", row) | ("delete", live index) | ("update", live index, row)
steps = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(st.just("update"), st.integers(0, 10_000), rows),
)


def constraint_for(column):
    """Unconstrained | ``=`` | ``IN`` | a closed, one-sided or inverted range."""
    pool, bounds = POOLS[column], BOUNDS[column]
    bound = st.one_of(st.none(), st.sampled_from(bounds))
    return st.one_of(
        st.none(),
        st.builds(ValueConstraint.equals, st.sampled_from(pool)),
        st.builds(ValueConstraint.in_set, st.lists(st.sampled_from(pool), max_size=4)),
        st.builds(ValueConstraint.between, bound, bound).filter(
            lambda c: c.low is not None or c.high is not None
        ),
    )


def constraint_sets(attributes):
    return st.fixed_dictionaries(
        {attribute: constraint_for(attribute) for attribute in attributes}
    ).map(lambda chosen: {a: c for a, c in chosen.items() if c is not None})


def linear_pass(cm, bucket_constraints):
    """The keys the directory replaced the loop for."""
    return {key for key in cm.keys() if key_matches(key, bucket_constraints)}


def satisfies(row, constraints):
    return all(c.matches(row[attribute]) for attribute, c in constraints.items())


def check(cm, live, constraints):
    bucket_constraints = cm.key_spec.bucket_constraints(constraints)
    expected = linear_pass(cm, bucket_constraints)
    matched = list(cm.matching_keys(bucket_constraints))
    assert len(matched) == len(set(matched))
    assert set(matched) == expected
    # The same sorted targets as the parent's linear union.
    targets = cm.lookup_constraints(constraints)
    assert targets == sorted(
        {target for key in expected for target in cm.targets_of_key(key)}
    )
    # No false negatives: every live row the value-level predicate accepts
    # has its clustered target in the lookup result.
    for row in live:
        if satisfies(row, constraints):
            assert cm.target_of(row) in targets


def assert_directory_mirrors_the_mapping(cm):
    directory = cm._directory
    if directory is not None:
        assert Counter(directory.items) == Counter(cm.keys())
        leading = [key[0] for key in directory.items]
        assert leading == sorted(leading)


@st.composite
def scenarios(draw):
    shape = draw(st.sampled_from(sorted(KEY_SPECS)))
    attributes, _bucketers = KEY_SPECS[shape]
    probes = draw(st.lists(constraint_sets(attributes), min_size=2, max_size=5))
    # Always one range on the leading attribute, so the directory is built
    # at once and every later step exercises its maintenance.
    probes.append({attributes[0]: ValueConstraint.between(BOUNDS[attributes[0]][1], None)})
    return shape, probes, draw(st.lists(steps, max_size=40))


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_matching_keys_equal_the_linear_pass_after_every_step(scenario):
    shape, probes, history = scenario
    attributes, bucketers = KEY_SPECS[shape]
    cm = CorrelationMap(
        "cm",
        CompositeKeySpec.build(attributes, bucketers),
        "c",
        target_of=lambda row, b=WidthBucketer(10): b.bucket(row["c"]),
    )
    live: list[dict] = []
    for step in [("noop",), *history]:
        if step[0] == "insert":
            cm.insert(step[1])
            live.append(step[1])
        elif step[0] == "delete" and live:
            assert cm.delete(live.pop(step[1] % len(live)))
        elif step[0] == "update" and live:
            index = step[1] % len(live)
            cm.update(live[index], step[2])
            live[index] = step[2]
        for constraints in probes:
            check(cm, live, constraints)
        assert_directory_mirrors_the_mapping(cm)
    # Emptying the CM empties the directory with it.
    for row in live:
        assert cm.delete(row)
        assert_directory_mirrors_the_mapping(cm)
    assert cm.matching_keys(cm.key_spec.bucket_constraints(probes[-1])) == []


def test_a_key_whose_last_target_is_deleted_leaves_the_directory():
    spec = CompositeKeySpec.build(["p"], {"p": ebay_price_bucketer(12)})
    cm = CorrelationMap("cm_price", spec, "c")
    cheap = [{"p": 10.0, "c": 1}, {"p": 20.0, "c": 1}, {"p": 30.0, "c": 2}]
    dear = [{"p": 5000.0, "c": 7}]
    cm.build(cheap + dear)
    everything = spec.bucket_constraints({"p": ValueConstraint.between(0.0, None)})
    assert cm.matching_keys(everything) == [(0.0,), (4096.0,)]
    # Two rows share (key 0.0, target 1): the key outlives the first delete
    # of each target and leaves with the last.
    for row in cheap[:2]:
        cm.delete(row)
        assert cm.matching_keys(everything) == [(0.0,), (4096.0,)]
    cm.delete(cheap[2])
    assert cm.matching_keys(everything) == [(4096.0,)]
    assert cm._directory.items == [(4096.0,)]
    assert cm.lookup_constraints({"p": ValueConstraint.between(0.0, 4095.0)}) == []
    # ... and re-enters, in order, when a row brings the key back.
    cm.insert({"p": 1.0, "c": 3})
    assert cm.matching_keys(everything) == [(0.0,), (4096.0,)]


def test_insert_touches_no_directory_until_a_range_lookup_builds_it():
    spec = CompositeKeySpec.build(["n"])
    cm = CorrelationMap("cm", spec, "c").build({"n": i % 5, "c": i} for i in range(50))
    assert cm._directory is None
    cm.lookup_constraints({"n": ValueConstraint.equals(3)})  # dictionary probe
    cm.lookup_constraints({"n": ValueConstraint.in_set([1, 2])})
    assert cm._directory is None
    assert cm.lookup_constraints({"n": ValueConstraint.between(1, 2)}) == sorted(
        i for i in range(50) if i % 5 in (1, 2)
    )
    assert cm._directory is not None
    before = list(cm._directory.items)
    cm.insert({"n": 3, "c": 999})  # an existing key: nothing to file
    assert cm._directory.items == before
