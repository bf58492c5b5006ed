"""The top-level package exposes the documented public API."""

import ast
from collections import defaultdict
from pathlib import Path

import repro


def test_version():
    assert repro.__version__


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_surface():
    """The names used in the README quickstart are importable from the root."""
    from repro import (
        Aggregate,
        Between,
        CMAdvisor,
        CorrelationMap,
        Database,
        Query,
        WidthBucketer,
    )

    assert callable(Database)
    assert callable(Query.select)
    assert callable(Aggregate.count)
    assert callable(WidthBucketer)
    assert callable(CMAdvisor)
    assert callable(CorrelationMap)
    assert callable(Between)


def test_option_surfaces_are_pinned():
    """Every keyword option of the main entry points, by name.

    An option is a parameter a caller may leave out or must name (a
    ``**kwargs`` catch-all is listed as ``**name``); adding one means
    editing this list.
    """
    import inspect

    from repro.bench import harness
    from repro.core.advisor import CMAdvisor
    from repro.core.bucketing import candidate_bucketings
    from repro.core.clustering_advisor import ClusteringAdvisor
    from repro.core.correlation_map import CorrelationMap
    from repro.core.statistics import IncrementalTableStatistics
    from repro.engine.database import Database
    from repro.engine.scheduler import QueryScheduler
    from repro.engine.table import Table
    from repro.engine.transactions import Transaction
    from repro.index.clustered import ClusteredIndex
    from repro.index.secondary import SecondaryIndex
    from repro.storage.wal import WriteAheadLog

    def options(function):
        names = []
        for parameter in inspect.signature(function).parameters.values():
            if parameter.kind is inspect.Parameter.VAR_KEYWORD:
                names.append(f"**{parameter.name}")
            elif (
                parameter.kind is inspect.Parameter.KEYWORD_ONLY
                or parameter.default is not inspect.Parameter.empty
            ):
                names.append(parameter.name)
        return names

    surfaces = {
        "Database.__init__": Database.__init__,
        "Database.insert": Database.insert,
        "Database.delete": Database.delete,
        "QueryScheduler.__init__": QueryScheduler.__init__,
        "QueryScheduler.submit": QueryScheduler.submit,
        "IncrementalTableStatistics.__init__": IncrementalTableStatistics.__init__,
        "Transaction.commit": Transaction.commit,
        "CMAdvisor.__init__": CMAdvisor.__init__,
        "ClusteringAdvisor.__init__": ClusteringAdvisor.__init__,
        "candidate_bucketings": candidate_bucketings,
        "CorrelationMap.__init__": CorrelationMap.__init__,
        "SecondaryIndex.probe": SecondaryIndex.probe,
        "SecondaryIndex.probe_range": SecondaryIndex.probe_range,
        "SecondaryIndex.probe_prefix_range": SecondaryIndex.probe_prefix_range,
        "ClusteredIndex.pages_for_value": ClusteredIndex.pages_for_value,
        "ClusteredIndex.pages_for_range": ClusteredIndex.pages_for_range,
        "ClusteredIndex.pages_for_bucket": ClusteredIndex.pages_for_bucket,
        "Table.insert_version": Table.insert_version,
        "Table.mark_deleted": Table.mark_deleted,
        "WriteAheadLog.__init__": WriteAheadLog.__init__,
        "build_ebay_database": harness.build_ebay_database,
        "build_tpch_database": harness.build_tpch_database,
        "build_tpch_join_database": harness.build_tpch_join_database,
        "build_sdss_database": harness.build_sdss_database,
    }
    assert {name: options(function) for name, function in surfaces.items()} == {
        "Database.__init__": [
            "disk_params",
            "buffer_pool_pages",
            "stats_sample_size",
            "batch_size",
        ],
        "Database.insert": ["batch_size"],
        "Database.delete": [],
        "QueryScheduler.__init__": ["max_concurrent", "policy", "batch_size"],
        "QueryScheduler.submit": [
            "label",
            "snapshot",
            "transaction",
            "force",
            "force_join",
            "limit",
            "projection",
        ],
        "IncrementalTableStatistics.__init__": [
            "sample_capacity",
            "bounds_rebuild_deletes",
        ],
        "Transaction.commit": [],
        "CMAdvisor.__init__": [
            "table_profile",
            "hardware",
            "sample_size",
            "seed",
            "performance_target",
        ],
        "ClusteringAdvisor.__init__": ["table_profile", "hardware"],
        "candidate_bucketings": [],
        "CorrelationMap.__init__": ["target_of"],
        # The bounds of a range probe are data, not configuration.
        "SecondaryIndex.probe": [],
        "SecondaryIndex.probe_range": ["low", "high"],
        "SecondaryIndex.probe_prefix_range": ["low", "high"],
        "ClusteredIndex.pages_for_value": [],
        "ClusteredIndex.pages_for_range": [],
        "ClusteredIndex.pages_for_bucket": [],
        "Table.insert_version": [],
        "Table.mark_deleted": [],
        "WriteAheadLog.__init__": [],
        "build_ebay_database": [
            "scale",
            "num_categories",
            "items_per_category",
            "buffer_pool_pages",
            "seed",
        ],
        "build_tpch_database": ["scale", "num_orders", "cluster_on", "seek_scale"],
        "build_tpch_join_database": ["scale", "cluster_orders_on"],
        "build_sdss_database": ["scale", "pages_per_bucket", "**row_kwargs"],
    }


#: Public names that no file outside ``tests/`` names, each kept for one of
#: the census's reasons.  A name that loses its last caller either goes, with
#: its tests, or joins this list with its reason.
KEPT_WITHOUT_A_CALLER = {
    # The query surface: the lazy batch stream next to run_query / stream.
    "Database.stream_batches": "query surface: the batch-at-a-time stream",
    # Names tests use to check other code.
    "BPlusTree.check_invariants": "holds every B+Tree mutation to its invariants",
    "BPlusTree.num_keys": "checks inserts, deletes and bulk builds against a model",
    "BufferPool.contains": "checks residency after accesses and evictions",
    "BufferPool.is_dirty": "checks dirtying and write-back",
    "BufferPool.dirty_pages": "checks dirtying and write-back",
    "BufferPool.resident_pages": "checks eviction and the cold-cache clear",
    "BufferPoolStats.accesses": "checks the I/O that index descents charge",
    "CorrelationMap.co_occurrence_count": "checks Algorithm 1's counts under deletes",
    "CorrelationMap.targets_of_key": "checks CM contents and size counters",
    "DistinctSampler.is_exact": "checks the sampler's exact regime",
    "DistinctSampler.rows_seen": "checks what the sampler has read",
    "DistinctSampler.sample_values": "checks the sampler's capacity bound",
    "PredicateSet.of": "builds the predicate sets access-path tests run",
    "QuantileBucketer.from_sample": "builds the variable-width CM keys tests measure",
    "QueryScheduler.pending": "checks admission control",
    "ReservoirSampler.items_seen": "checks what the reservoir has read",
    "WriteAheadLog.pending_records": "checks what a flush leaves behind",
    "WriteAheadLog.records_for_xid": "checks each transaction's log records",
    "exact_c_per_u": "the exact statistic estimates are checked against",
    "expected_schema_columns": "checks each generator's schema",
}


def _public_definitions(package):
    """``(qualified name, path, first line, last line)`` of every public
    module-level function and class, and every public method, of the
    modules under ``package`` (the lint rules excepted)."""
    for path in sorted(package.rglob("*.py")):
        if "lint" in path.relative_to(package).parts:
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield node.name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield (
                            f"{node.name}.{member.name}",
                            path,
                            member.lineno,
                            member.end_lineno,
                        )


def _references(root, directories):
    """Identifier -> ``{(path, line)}`` of every place a file under
    ``directories`` names it: a name, an attribute, an import, or a string
    that is exactly the identifier (a quoted annotation, ``__all__``)."""
    found = defaultdict(set)
    for directory in directories:
        for path in sorted((root / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [alias.name.rpartition(".")[2] for alias in node.names]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = [node.value] if node.value.isidentifier() else []
                else:
                    continue
                for name in names:
                    found[name].add((path, node.lineno))
    return found


def test_every_public_name_has_a_caller_outside_tests():
    """A public function, class or method that only its own tests name is
    dead surface: every one needs a caller under ``src/``, ``perf/``,
    ``benchmarks/``, ``examples/`` or ``scripts/``, or a reason to stay in
    :data:`KEPT_WITHOUT_A_CALLER`."""
    root = Path(__file__).resolve().parents[1]
    references = _references(root, ["src", "perf", "benchmarks", "examples", "scripts"])
    uncalled = set()
    for qualified, path, first, last in _public_definitions(root / "src" / "repro"):
        name = qualified.rpartition(".")[2]
        # A definition does not call itself.
        if not any(
            not (where == path and first <= line <= last)
            for where, line in references.get(name, ())
        ):
            uncalled.add(qualified)
    assert sorted(uncalled - set(KEPT_WITHOUT_A_CALLER)) == []
    # An entry whose name found a caller, or is gone, leaves the list.
    assert sorted(set(KEPT_WITHOUT_A_CALLER) - uncalled) == []
