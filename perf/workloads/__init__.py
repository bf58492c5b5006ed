"""The six named workloads, in the order ``run.py`` runs them."""

from __future__ import annotations

from harness import Workload
from workloads.analytic_scan import AnalyticScan
from workloads.cm_lookup import CmLookup
from workloads.concurrent_serving import ConcurrentServing
from workloads.mixed_ingest import MixedIngest
from workloads.partitioned_analytics import PartitionedAnalytics
from workloads.tpch_join import TpchJoin

WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        CmLookup,
        AnalyticScan,
        TpchJoin,
        MixedIngest,
        ConcurrentServing,
        PartitionedAnalytics,
    )
}
