"""Correlation Maps: a compressed access method for exploiting soft functional
dependencies -- a full reproduction of Kimura et al., VLDB 2009.

The package is organised in layers:

* :mod:`repro.storage`, :mod:`repro.index`, :mod:`repro.sampling` -- the
  substrates (simulated disk, heap files, buffer pool, WAL, B+Trees,
  cardinality estimators) standing in for PostgreSQL and the test machine.
* :mod:`repro.core` -- the paper's contribution: the correlation-aware cost
  model, the Correlation Map structure, bucketing, and the CM Advisor.
* :mod:`repro.engine` -- a query execution engine that plans and runs
  sequential, index, and CM-based scans and maintains every structure under
  updates.
* :mod:`repro.datasets` -- synthetic eBay / TPC-H / SDSS data generators and
  the experiment workloads.
* :mod:`repro.bench` -- shared builders and reporting for the benchmark
  suite under ``benchmarks/``.

Quickstart::

    from repro import Database, Query, Between, Aggregate, WidthBucketer

    db = Database(buffer_pool_pages=2_000)
    db.create_table("items", sample_row=rows[0])
    db.load("items", rows)
    db.cluster("items", "catid", pages_per_bucket=10)
    db.create_correlation_map("items", ["price"],
                              bucketers={"price": WidthBucketer(64.0)})
    result = db.run_query(Query.select("items", Between("price", 1000, 1100),
                                   aggregate=Aggregate.count()))
"""

from repro.core.advisor import CMAdvisor, CMDesign, Recommendation, TrainingQuery
from repro.core.bucketing import IdentityBucketer, QuantileBucketer, WidthBucketer
from repro.core.clustering_advisor import ClusteringAdvisor
from repro.core.composite import CompositeKeySpec, ValueConstraint
from repro.core.correlation_map import CorrelationMap
from repro.core.cost import (
    cm_lookup_cost,
    pipelined_lookup_cost,
    scan_cost,
    sorted_lookup_cost,
)
from repro.core.model import CorrelationProfile, HardwareParameters, TableProfile
from repro.engine.database import Database
from repro.engine.executor import DEFAULT_BATCH_SIZE, RowBatch
from repro.engine.partition import PartitionSpec
from repro.engine.predicates import Between, Equals, InSet, PredicateSet
from repro.engine.query import Aggregate, JoinSpec, Query, QueryResult

__version__ = "0.1.0"

__all__ = [
    "Database",
    "DEFAULT_BATCH_SIZE",
    "RowBatch",
    "Query",
    "QueryResult",
    "JoinSpec",
    "Aggregate",
    "PartitionSpec",
    "Equals",
    "InSet",
    "Between",
    "PredicateSet",
    "CorrelationMap",
    "CompositeKeySpec",
    "ValueConstraint",
    "WidthBucketer",
    "IdentityBucketer",
    "QuantileBucketer",
    "CMAdvisor",
    "CMDesign",
    "Recommendation",
    "TrainingQuery",
    "ClusteringAdvisor",
    "HardwareParameters",
    "TableProfile",
    "CorrelationProfile",
    "scan_cost",
    "sorted_lookup_cost",
    "pipelined_lookup_cost",
    "cm_lookup_cost",
    "__version__",
]
