"""Tests for reservoir sampling."""

import random
from collections import Counter

import pytest

from repro.sampling.reservoir import ReservoirSampler


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        ReservoirSampler(0)


def test_small_streams_are_kept_entirely():
    sampler = ReservoirSampler(10, seed=1)
    sampler.extend(range(5))
    assert sorted(sampler.sample) == [0, 1, 2, 3, 4]
    assert len(sampler) == 5
    assert sampler.items_seen == 5


def test_sample_never_exceeds_capacity():
    sampler = ReservoirSampler(16, seed=1)
    sampler.extend(range(1000))
    assert len(sampler) == 16
    assert sampler.items_seen == 1000


def test_sample_items_come_from_the_stream():
    sampler = ReservoirSampler(8, seed=3)
    sampler.extend(range(100, 200))
    assert all(100 <= item < 200 for item in sampler)


def test_from_iterable_equivalent_to_extend():
    a = ReservoirSampler.from_iterable(range(50), 5, seed=7)
    b = ReservoirSampler(5, seed=7)
    b.extend(range(50))
    assert a.sample == b.sample


def test_add_reports_what_the_reservoir_did():
    """``add`` returns (admitted, evicted): replaying the reports onto a
    plain multiset reproduces the contents, before and past capacity."""
    sampler = ReservoirSampler(6, seed=5)
    mirror = Counter()
    outcomes = Counter()
    for item in range(300):
        admitted, evicted = sampler.add(item)
        if evicted is not None:
            assert admitted
            mirror[evicted] -= 1
        if admitted:
            mirror[item] += 1
        outcomes[admitted, evicted is not None] += 1
        assert +mirror == Counter(sampler)
    # Filled (admitted, nothing evicted), replaced, and passed over.
    assert outcomes[True, False] == 6
    assert outcomes[True, True] > 0 and outcomes[False, False] > 0


def test_uniformity_over_many_runs():
    """Every element should be selected roughly equally often."""
    hits = Counter()
    runs = 400
    population = 20
    capacity = 5
    for seed in range(runs):
        sampler = ReservoirSampler(capacity, seed=seed)
        sampler.extend(range(population))
        hits.update(sampler.sample)
    expected = runs * capacity / population
    for element in range(population):
        assert expected * 0.6 < hits[element] < expected * 1.4


def test_deterministic_for_fixed_seed():
    a = ReservoirSampler.from_iterable(range(1000), 10, seed=42)
    b = ReservoirSampler.from_iterable(range(1000), 10, seed=42)
    assert a.sample == b.sample


class TestDiscard:
    def test_discard_by_identity(self):
        rows = [{"k": i} for i in range(5)]
        sampler = ReservoirSampler(10, seed=0)
        sampler.extend(rows)
        assert sampler.discard(rows[2])
        assert sampler.items_seen == 4
        assert len(sampler) == 4
        assert rows[2] not in sampler.sample

    def test_discard_equal_but_distinct_object(self):
        rows = [{"k": i} for i in range(5)]
        sampler = ReservoirSampler(10, seed=0)
        sampler.extend(rows)
        assert sampler.discard({"k": 3})
        assert len(sampler) == 4
        assert {"k": 3} not in sampler.sample

    def test_discard_missing_item_still_shrinks_stream(self):
        sampler = ReservoirSampler(4, seed=0)
        sampler.extend(range(100))
        seen_before = sampler.items_seen
        assert not sampler.discard(-1)
        assert sampler.items_seen == seen_before - 1
        assert len(sampler) == 4

    def test_discard_everything_empties_the_reservoir(self):
        rows = [{"k": i} for i in range(20)]
        sampler = ReservoirSampler(50, seed=0)
        sampler.extend(rows)
        for row in rows:
            assert sampler.discard(row)
        assert len(sampler) == 0
        assert sampler.items_seen == 0

    def test_discard_keeps_identity_index_consistent_under_replacement(self):
        """Adds past capacity replace slots; discards after that must still
        remove exactly the requested (identical) objects."""
        rows = [{"k": i} for i in range(200)]
        sampler = ReservoirSampler(16, seed=9)
        sampler.extend(rows)
        stored = sampler.sample
        for row in stored[:8]:
            assert sampler.discard(row)
        remaining = sampler.sample
        assert len(remaining) == 8
        for row in stored[:8]:
            assert all(r is not row for r in remaining)
