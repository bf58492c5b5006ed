"""The top-level package exposes the documented public API."""

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
    """Every keyword option of the engine's main entry points, by name.

    An option is a parameter a caller may leave out or must name; adding
    one means editing this list.
    """
    import inspect

    from repro.core.statistics import IncrementalTableStatistics
    from repro.engine.database import Database
    from repro.engine.scheduler import QueryScheduler
    from repro.engine.transactions import Transaction

    def options(function):
        return [
            parameter.name
            for parameter in inspect.signature(function).parameters.values()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
            or parameter.default is not inspect.Parameter.empty
        ]

    assert {
        "Database.__init__": options(Database.__init__),
        "Database.insert": options(Database.insert),
        "Database.delete": options(Database.delete),
        "QueryScheduler.__init__": options(QueryScheduler.__init__),
        "QueryScheduler.submit": options(QueryScheduler.submit),
        "IncrementalTableStatistics.__init__": options(
            IncrementalTableStatistics.__init__
        ),
        "Transaction.commit": options(Transaction.commit),
    } == {
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
            "seed",
            "bounds_rebuild_deletes",
        ],
        "Transaction.commit": [],
    }
