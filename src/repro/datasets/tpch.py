"""The TPC-H ``lineitem`` and ``orders`` tables (Section 7.1.1).

The paper uses ``lineitem`` at scale factor 3 (~18 M rows, 2.5 GB) and relies
on two of its built-in correlations (Figure 1):

* ``shipdate`` is close to ``receiptdate``: TPC-H generates
  ``shipdate = orderdate + U[1, 121]`` and
  ``receiptdate = shipdate + U[1, 30]``; the paper observes most goods are
  received 2, 4 or 5 days after shipping, so this generator skews the
  receipt lag towards those values.
* ``suppkey`` is moderately correlated with ``partkey``: each part is
  supplied by exactly four suppliers determined by the TPC-H formula
  ``suppkey = (partkey + i * (S/4 + (partkey - 1)/S)) mod S + 1``.

Dates are represented as integer day numbers (days since 1992-01-01) so that
they bucket and compare like the ``date`` columns they stand in for.

:func:`iter_orders` generates the matching ``orders`` table for the
lineitem-orders join workload; see its docstring for the (deliberate)
deviations from stock TPC-H that give the join a CM-exploitable
``orderkey``/``orderdate`` correlation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator

#: TPC-H order dates span 1992-01-01 (day 0) .. 1998-08-02.
ORDERDATE_SPAN_DAYS = 2406 - 151  # leave room for ship + receipt lags

#: Receipt lag distribution: the paper's "roughly 4 days for standard UPS,
#: 2 days for air shipping, etc." bumps, with a thin uniform tail.
_RECEIPT_LAG_CHOICES = (2, 2, 2, 4, 4, 4, 4, 5, 5, 5)

_SHIPMODES = ("AIR", "RAIL", "TRUCK", "SHIP", "MAIL", "FOB", "REG AIR")
_SHIPINSTRUCT = ("DELIVER IN PERSON", "COLLECT COD", "TAKE BACK RETURN", "NONE")


@dataclass(frozen=True)
class TPCHConfig:
    """Scaled-down knobs for the lineitem generator.

    ``num_orders`` orders with 1-7 lineitems each (TPC-H's distribution);
    the defaults produce ~100 k rows.  The paper's scale factor 3 corresponds
    to ``num_orders=4_500_000``.
    """

    num_orders: int = 25_000
    num_parts: int = 5_000
    num_suppliers: int = 250
    #: Number of days order dates span.  TPC-H uses ~2255; scaled-down runs
    #: shrink it so that the rows-per-date density (and with it the length of
    #: the sequential runs a correlated clustering produces) stays realistic.
    orderdate_span_days: int = ORDERDATE_SPAN_DAYS
    seed: int = 7

    def __post_init__(self) -> None:
        if min(self.num_orders, self.num_parts, self.num_suppliers) <= 0:
            raise ValueError("row counts must be positive")
        if self.num_suppliers < 4:
            raise ValueError("TPC-H needs at least 4 suppliers")
        if self.orderdate_span_days <= 0:
            raise ValueError("orderdate_span_days must be positive")


def supplier_for_part(partkey: int, replica: int, num_suppliers: int) -> int:
    """The TPC-H supplier assignment: each part has exactly 4 suppliers."""
    s = num_suppliers
    return ((partkey + replica * (s // 4 + (partkey - 1) // s)) % s) + 1


def generate_lineitem(config: TPCHConfig | None = None) -> list[dict[str, Any]]:
    """Generate lineitem rows (materialised in memory)."""
    return list(iter_lineitem(config))


def iter_lineitem(config: TPCHConfig | None = None) -> Iterator[dict[str, Any]]:
    """Stream lineitem rows order by order."""
    config = config or TPCHConfig()
    rng = random.Random(config.seed)
    for orderkey in range(1, config.num_orders + 1):
        orderdate = rng.randrange(config.orderdate_span_days)
        lines = rng.randint(1, 7)
        for linenumber in range(1, lines + 1):
            partkey = rng.randint(1, config.num_parts)
            replica = rng.randrange(4)
            suppkey = supplier_for_part(partkey, replica, config.num_suppliers)
            quantity = rng.randint(1, 50)
            extendedprice = round(quantity * rng.uniform(900.0, 101_000.0 / 50), 2)
            discount = round(rng.uniform(0.0, 0.10), 2)
            tax = round(rng.uniform(0.0, 0.08), 2)
            ship_lag_span = max(2, min(121, config.orderdate_span_days // 18))
            shipdate = orderdate + rng.randint(1, ship_lag_span)
            commitdate = orderdate + rng.randint(30, 90)
            if rng.random() < 0.9:
                receipt_lag = rng.choice(_RECEIPT_LAG_CHOICES)
            else:
                receipt_lag = rng.randint(1, 30)
            receiptdate = shipdate + receipt_lag
            yield {
                "orderkey": orderkey,
                "linenumber": linenumber,
                "partkey": partkey,
                "suppkey": suppkey,
                "quantity": quantity,
                "extendedprice": extendedprice,
                "discount": discount,
                "tax": tax,
                "returnflag": "R" if rng.random() < 0.25 else "N",
                "linestatus": "F" if shipdate < config.orderdate_span_days // 2 else "O",
                "shipdate": shipdate,
                "commitdate": commitdate,
                "receiptdate": receiptdate,
                "shipinstruct": rng.choice(_SHIPINSTRUCT),
                "shipmode": rng.choice(_SHIPMODES),
            }


def expected_schema_columns() -> list[str]:
    """The lineitem columns generated here, in order."""
    return [
        "orderkey", "linenumber", "partkey", "suppkey", "quantity",
        "extendedprice", "discount", "tax", "returnflag", "linestatus",
        "shipdate", "commitdate", "receiptdate", "shipinstruct", "shipmode",
    ]


# ---------------------------------------------------------------------------
# The ORDERS side of the lineitem-orders join workload
# ---------------------------------------------------------------------------

_ORDER_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")


def generate_orders(config: TPCHConfig | None = None) -> list[dict[str, Any]]:
    """Generate orders rows (materialised in memory)."""
    return list(iter_orders(config))


def iter_orders(config: TPCHConfig | None = None) -> Iterator[dict[str, Any]]:
    """Stream orders rows, one per ``orderkey`` that lineitem references.

    The generator models a time-ordered order log: order keys are assigned
    monotonically as orders arrive, so ``orderkey`` is strongly correlated
    with ``orderdate`` (a small jitter keeps the correlation soft rather
    than functional).  That cross-table correlation is what a correlation
    map on ``orders.orderkey`` exploits when the table is clustered by
    ``orderdate``: each join probe resolves to a couple of adjacent date
    buckets instead of a B+Tree descent.

    The only invariant shared with :func:`iter_lineitem` is the key space:
    both tables cover orderkeys ``1 .. num_orders``, so a lineitem-orders
    equi-join on ``orderkey`` is lossless.  The lineitem generator's internal
    date columns are drawn independently (its RNG stream predates this table
    and is kept bit-stable for the benchmarks), so ``shipdate`` is *not*
    guaranteed to trail this table's ``orderdate`` row by row.
    """
    config = config or TPCHConfig()
    rng = random.Random(config.seed + 0x0D0E)
    span = config.orderdate_span_days
    jitter = max(1, span // 40)
    customers = max(10, config.num_orders // 10)
    for orderkey in range(1, config.num_orders + 1):
        arrival = (orderkey - 1) * span // config.num_orders
        orderdate = min(span - 1, arrival + rng.randint(0, jitter))
        yield {
            "orderkey": orderkey,
            "custkey": rng.randint(1, customers),
            "orderstatus": rng.choice(("O", "F", "P")),
            "totalprice": round(rng.uniform(900.0, 550_000.0), 2),
            "orderdate": orderdate,
            "orderpriority": rng.choice(_ORDER_PRIORITIES),
            "clerk": f"Clerk#{rng.randint(1, max(2, config.num_orders // 1000)):09d}",
            "shippriority": 0,
        }
