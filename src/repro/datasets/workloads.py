"""Workload generators: the queries the paper's experiments run.

Each helper builds :class:`repro.engine.query.Query` objects (and, where the
CM Advisor is involved, the matching
:class:`repro.core.advisor.TrainingQuery`) for one of the paper's
experiments:

* 1 %-selectivity single-attribute selections over SDSS attributes
  (Section 3.4, Figure 2);
* ``shipdate IN (...)`` aggregations over TPC-H lineitem (Figure 3);
* ``Price BETWEEN ...`` aggregations over the eBay catalog
  (Experiments 1 and 2, Figures 6 and 7);
* the ``AVG(Price) WHERE CATx = ...`` selections of the mixed workload
  (Experiment 3, Figure 9) and of the cost-model validation (Figure 10);
* the SDSS SX6 and Q2-variant queries (Tables 3-6, Experiment 5).
"""

from __future__ import annotations

import random
from typing import Any, Mapping, Sequence

from repro.core.advisor import TrainingQuery
from repro.core.composite import ValueConstraint
from repro.engine.predicates import Between, Equals, ExpressionPredicate, InSet
from repro.engine.query import Aggregate, Query


# ---------------------------------------------------------------------------
# SDSS: 1%-selectivity selections (Figure 2)
# ---------------------------------------------------------------------------

def one_percent_range(
    rows: Sequence[Mapping[str, Any]],
    attribute: str,
    *,
    selectivity: float = 0.01,
    seed: int = 0,
) -> tuple[Any, Any]:
    """An inclusive value range on ``attribute`` selecting ~``selectivity`` rows.

    The range is taken from the sorted values (a random window of the right
    width), so the actual selectivity matches the target regardless of skew.
    """
    if not rows:
        raise ValueError("need rows to derive a selectivity window")
    values = sorted(row[attribute] for row in rows)
    window = max(1, int(len(values) * selectivity))
    rng = random.Random(seed)
    start = rng.randrange(0, max(1, len(values) - window))
    return values[start], values[start + window - 1]


# ---------------------------------------------------------------------------
# TPC-H: shipdate IN (...) (Figure 3)
# ---------------------------------------------------------------------------

def tpch_shipdate_query(
    rows: Sequence[Mapping[str, Any]],
    num_dates: int,
    *,
    seed: int = 0,
) -> Query:
    """``SELECT AVG(extendedprice * discount) WHERE shipdate IN (...)``."""
    rng = random.Random(seed)
    distinct_dates = sorted({row["shipdate"] for row in rows})
    chosen = rng.sample(distinct_dates, min(num_dates, len(distinct_dates)))
    return Query.select(
        "lineitem",
        InSet("shipdate", sorted(chosen)),
        aggregate=Aggregate.avg(lambda row: row["extendedprice"] * row["discount"]),
        name=f"shipdates_{num_dates}",
    )


# ---------------------------------------------------------------------------
# eBay: price ranges and category selections (Experiments 1-4)
# ---------------------------------------------------------------------------

def ebay_price_range_query(
    low: float,
    price_range: float,
    *,
    count_distinct: str = "cat2",
) -> Query:
    """``SELECT COUNT(DISTINCT CATx) WHERE Price BETWEEN low AND low+range``."""
    return Query.select(
        "items",
        Between("price", low, low + price_range),
        aggregate=Aggregate.count_distinct(count_distinct),
        name=f"price_{low}_{price_range}",
    )


def ebay_category_query(attribute: str, value: Any) -> Query:
    """``SELECT AVG(Price) WHERE CATx = value`` (Experiments 3 and 4)."""
    return Query.select(
        "items",
        Equals(attribute, value),
        aggregate=Aggregate.avg("price"),
        name=f"{attribute}_{value}",
    )


def ebay_mixed_workload(
    rows: Sequence[Mapping[str, Any]],
    *,
    num_rounds: int = 50,
    inserts_per_round: int = 10_000,
    selects_per_round: int = 100,
    category_attributes: Sequence[str] = ("cat1", "cat2", "cat3", "cat4", "cat5", "cat6"),
    seed: int = 0,
) -> list[tuple[str, Any]]:
    """The Experiment 3 mixed workload: INSERT batches interleaved with SELECTs.

    Returns a list of ``("insert", rows)`` and ``("select", Query)`` steps.
    The inserted rows are fresh items drawn from the same distribution as the
    table (new ItemIDs, existing categories).
    """
    rng = random.Random(seed)
    categories: dict[int, Mapping[str, Any]] = {}
    for row in rows:
        categories.setdefault(row["catid"], row)
    category_rows = list(categories.values())
    next_itemid = max(row["itemid"] for row in rows) + 1 if rows else 0

    steps: list[tuple[str, Any]] = []
    for _round in range(num_rounds):
        batch = []
        for _ in range(inserts_per_round):
            template = rng.choice(category_rows)
            batch.append(
                {
                    "catid": template["catid"],
                    **{f"cat{i}": template[f"cat{i}"] for i in range(1, 7)},
                    "itemid": next_itemid,
                    "price": max(0.0, rng.gauss(template["price"], 100.0)),
                }
            )
            next_itemid += 1
        steps.append(("insert", batch))
        for _ in range(selects_per_round):
            attribute = rng.choice(list(category_attributes))
            template = rng.choice(category_rows)
            steps.append(("select", ebay_category_query(attribute, template[attribute])))
    return steps


def ebay_cat_values_by_c_per_u(
    rows: Sequence[Mapping[str, Any]],
    attribute: str = "cat5",
    *,
    targets: Sequence[int] = (4, 15, 24, 62, 145),
) -> list[tuple[Any, int]]:
    """Values of ``attribute`` whose c_per_u (over ``catid``) is closest to
    each target.

    Reproduces the Experiment 4 selection of CAT5 values with c_per_u ranging
    from 4 to 145 (Figure 10).  Returns ``(value, actual_c_per_u)`` pairs.
    """
    co_occurring: dict[Any, set[Any]] = {}
    for row in rows:
        co_occurring.setdefault(row[attribute], set()).add(row["catid"])
    available = sorted(co_occurring.items(), key=lambda item: len(item[1]))
    chosen: list[tuple[Any, int]] = []
    used: set[Any] = set()
    for target in targets:
        best = min(
            (item for item in available if item[0] not in used),
            key=lambda item: abs(len(item[1]) - target),
            default=None,
        )
        if best is None:
            break
        chosen.append((best[0], len(best[1])))
        used.add(best[0])
    return chosen


# ---------------------------------------------------------------------------
# SDSS: SX6 and the Q2 variant (Tables 3-6, Experiment 5)
# ---------------------------------------------------------------------------

def sdss_sx6_query(field_values: Sequence[int]) -> Query:
    """The SX6-style query: fieldID IN (...) AND mode=1 AND type=6 AND psfmag_g < 20."""
    return Query.select(
        "photoobj",
        InSet("fieldid", list(field_values)),
        Equals("mode", 1),
        Equals("type", 6),
        Between("psfmag_g", None, 20.0),
        aggregate=Aggregate.count(),
        name="sx6",
    )


def sdss_sx6_training_query(n_lookups: int = 2) -> TrainingQuery:
    """The SX6 predicate set as CM Advisor input (Tables 4 and 5)."""
    return TrainingQuery(
        constraints={
            "fieldid": ValueConstraint(),
            "mode": ValueConstraint.equals(1),
            "type": ValueConstraint.equals(6),
            "psfmag_g": ValueConstraint(high=20.0),
        },
        n_lookups=n_lookups,
        name="SX6",
    )


#: The sky region of the Experiment 5 query.
_Q2_RA_RANGE = (193.117, 194.517)
_Q2_DEC_RANGE = (1.411, 1.555)


def sdss_q2_query(
    ra_range: tuple[float, float] = _Q2_RA_RANGE,
    dec_range: tuple[float, float] = _Q2_DEC_RANGE,
    *,
    surface_range: tuple[float, float] = (23.0, 25.0),
) -> Query:
    """The Experiment 5 query: a sky region restricted to blue, bright surfaces.

    ``g + rho BETWEEN 23 AND 25`` cannot drive an index, so it is expressed as
    a residual expression predicate, exactly as in the paper's plan.
    """
    low, high = surface_range
    return Query.select(
        "photoobj",
        Between("ra", *ra_range),
        Between("dec", *dec_range),
        ExpressionPredicate("g + rho", lambda row: low <= row["g"] + row["rho"] <= high),
        aggregate=Aggregate.count(),
        name="q2_variant",
    )


def sdss_q2_training_query() -> TrainingQuery:
    """The Q2-variant predicate set as CM Advisor input (Experiment 5)."""
    return TrainingQuery(
        constraints={
            "ra": ValueConstraint.between(*_Q2_RA_RANGE),
            "dec": ValueConstraint.between(*_Q2_DEC_RANGE),
        },
        n_lookups=1,
        name="Q2-variant",
    )
