"""The closed-loop timing harness the six workloads share.

One client, one outstanding step: a workload yields :class:`Step` objects,
the harness times ``step.run()`` with ``time.perf_counter_ns`` and hands the
raw outcome to ``step.check()`` *outside* the timed region, where it is
compared with an oracle computed from the plain row lists.  A step that
raises, or whose answer differs from the oracle, counts as failed; it never
aborts the run.

The first ``det_steps`` steps of a workload are always executed and are the
same for a given seed, so the simulated metrics (``sim_ms_per_op``,
``pages_per_op``, the buffer-pool and disk counters) are taken over exactly
that prefix and repeat bit for bit.  Wall-clock metrics are taken over every
step the phase ran: the prefix, then more steps until ``seconds`` of busy
time have accumulated.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import time
import traceback
from dataclasses import dataclass, field
from operator import itemgetter
from statistics import median
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskModel, IOBreakdown
from repro.storage.wal import WriteAheadLog

#: Failure messages kept for the report (the count is always exact).
MAX_FAILURE_MESSAGES = 5


@dataclass(frozen=True)
class Scale:
    """How big a run is: ``full`` for measurements, ``smoke`` for the tests."""

    name: str
    #: Multiplier on every workload's row counts.
    rows: float
    #: Multiplier on every workload's deterministic-prefix length.
    steps: float


FULL = Scale("full", rows=1.0, steps=1.0)
SMOKE = Scale("smoke", rows=0.1, steps=0.1)


@dataclass
class StepResult:
    """What one executed step contributes to the metrics."""

    #: Wall latency samples, one per completed operation (may be empty for
    #: steps that are not reported as latencies, e.g. inserts).
    latencies_ns: list[int] = field(default_factory=list)
    ops: int = 1
    failed: int = 0
    sim_ms: float = 0.0
    pages_visited: int = 0
    rows_examined: int = 0
    rows_written: int = 0
    write_ns: int = 0
    #: ``(estimated_cost_ms, elapsed_ms)`` pairs for the cost-model error.
    cost_pairs: list[tuple[float, float]] = field(default_factory=list)
    #: ``(rows matched, rows examined)`` of operations answered by a CM scan.
    cm_scan_rows: list[tuple[int, int]] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)


@dataclass
class ProbeReport:
    """Per-layer micro measurements, plus whatever they checked on the way."""

    metrics: dict[str, float] = field(default_factory=dict)
    #: What a ratio is a ratio of, or how many samples a figure rests on.
    notes: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


class Step:
    """One unit of closed-loop work: ``run`` is timed, ``check`` is not."""

    #: Operation class, e.g. ``"price_range"``; part of the op-stream hash.
    kind = "step"

    def describe(self) -> str:
        """A stable one-line rendering (feeds the op-stream fingerprint)."""
        raise NotImplementedError

    def run(self) -> Any:
        raise NotImplementedError

    def check(self, raw: Any, wall_ns: int) -> StepResult:
        raise NotImplementedError


class Workload:
    """Base class: fixtures, an oracle and a deterministic step stream."""

    name = "workload"
    #: Steps in the deterministic prefix at full scale.
    det_steps = 100
    #: Untimed steps run before timing, from a separate stream.
    warmup_steps = 10
    #: Steps after which the mix of op classes repeats exactly, with at least
    #: twenty latency samples among them.  Wall-clock metrics are taken per
    #: position of the cycle, and the traced phase runs whole cycles so that
    #: its per-op time compares with the untraced phase's.
    cycle = 1

    #: The database under test; ``setup`` creates it.
    db: Any

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale

    # -- lifecycle -------------------------------------------------------------

    def setup(self) -> None:
        """Generate rows and build every table, index and CM (``setup_s``)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Build the oracle from the plain rows (untimed, after set-up)."""
        raise NotImplementedError

    def steps(self, stream: int) -> Iterator[Step]:
        """An endless step stream; ``stream`` separates warm-up from timing."""
        raise NotImplementedError

    def invariant_checks(self) -> tuple[int, list[str]]:
        """Extra untimed correctness checks: ``(attempted, failure messages)``."""
        return 0, []

    def probes(self, phase: "PhaseStats") -> ProbeReport:
        """This workload's per-layer metrics (traced run only).

        Micro measurements on the workload's own fixtures -- timing calls
        into public functions, or differencing two public calls -- plus
        whatever derives from ``phase``, the untraced timed phase.
        """
        return ProbeReport()

    # -- introspection ---------------------------------------------------------

    def row_sets(self) -> dict[str, Sequence[dict[str, Any]]]:
        """The generated row lists, by table name (fingerprinted)."""
        raise NotImplementedError

    # The devices the counters are read from: those of ``self.db``, which
    # every workload's set-up creates; partitioned storage adds its own.

    def pools(self) -> list[BufferPool]:
        return [self.db.buffer_pool]

    def disks(self) -> list[DiskModel]:
        return [self.db.disk]

    def wals(self) -> list[WriteAheadLog]:
        return [self.db.wal]

    def steps_in_prefix(self) -> int:
        return max(4, int(self.det_steps * self.scale.steps))

    def steps_traced(self) -> int:
        """A quarter of the prefix, rounded up to whole cycles."""
        return -(-self.steps_in_prefix() // (4 * self.cycle)) * self.cycle

    def scaled(self, base: int, floor: int) -> int:
        """``base`` rows (or categories, or pages) at this run's scale."""
        return max(floor, int(base * self.scale.rows))


# ---------------------------------------------------------------------------
# Counters read around the deterministic prefix
# ---------------------------------------------------------------------------


@dataclass
class Counters:
    hits: int
    misses: int
    evictions: int
    io: IOBreakdown
    wal_flushes: int

    @classmethod
    def read(cls, workload: Workload) -> "Counters":
        pools = workload.pools()
        io = IOBreakdown()
        for disk in workload.disks():
            io = io.add(disk.snapshot())
        return cls(
            hits=sum(pool.stats.hits for pool in pools),
            misses=sum(pool.stats.misses for pool in pools),
            evictions=sum(
                pool.stats.clean_evictions + pool.stats.dirty_evictions
                for pool in pools
            ),
            io=io,
            wal_flushes=sum(wal.flush_count for wal in workload.wals()),
        )

    def since(self, before: "Counters") -> "Counters":
        return Counters(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            evictions=self.evictions - before.evictions,
            io=self.io.subtract(before.io),
            wal_flushes=self.wal_flushes - before.wal_flushes,
        )


# ---------------------------------------------------------------------------
# The timed phase
# ---------------------------------------------------------------------------


@dataclass
class PhaseStats:
    """Everything one timed phase measured."""

    steps: int = 0
    ops: int = 0
    failed: int = 0
    busy_ns: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    #: ``(wall ns, ops, rows examined, latency samples)`` of every step, in
    #: execution order.
    step_log: list[tuple[int, int, int, list[int]]] = field(default_factory=list)
    #: Step kind -> ``[steps, wall ns]``.
    by_kind: dict[str, list[int]] = field(default_factory=dict)
    rows_written: int = 0
    write_ns: int = 0
    cost_pairs: list[tuple[float, float]] = field(default_factory=list)
    cm_scan_rows: list[tuple[int, int]] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)
    #: Totals over the deterministic prefix only.
    det_ops: int = 0
    det_sim_ms: float = 0.0
    det_pages: int = 0
    det_counters: Counters | None = None
    #: sha256 over ``describe()`` of the prefix steps (the op-stream print).
    stream_digest: Any = field(default_factory=hashlib.sha256)

    def absorb(
        self, kind: str, result: StepResult, wall_ns: int, in_prefix: bool
    ) -> None:
        self.steps += 1
        totals = self.by_kind.setdefault(kind, [0, 0])
        totals[0] += 1
        totals[1] += wall_ns
        self.ops += result.ops
        self.failed += result.failed
        self.busy_ns += wall_ns
        self.latencies_ns.extend(result.latencies_ns)
        self.step_log.append(
            (wall_ns, result.ops, result.rows_examined, result.latencies_ns)
        )
        self.rows_written += result.rows_written
        self.write_ns += result.write_ns
        for message in result.messages:
            if len(self.messages) < MAX_FAILURE_MESSAGES:
                self.messages.append(message)
        if in_prefix:
            self.det_ops += result.ops
            self.det_sim_ms += result.sim_ms
            self.det_pages += result.pages_visited
            self.cost_pairs.extend(result.cost_pairs)
            self.cm_scan_rows.extend(result.cm_scan_rows)


def run_phase(
    workload: Workload,
    stream: Iterator[Step],
    *,
    prefix_steps: int,
    seconds: float,
    on_step: Callable[[int], Any] | None = None,
    after_step: Callable[[], Any] | None = None,
) -> PhaseStats:
    """Run ``prefix_steps`` steps, then more until ``seconds`` of busy time.

    ``on_step``/``after_step`` bracket the timed call; the traced phase uses
    them to open and close the per-op root span.
    """
    stats = PhaseStats()
    budget_ns = int(seconds * 1e9)
    before = Counters.read(workload)
    clock = time.perf_counter_ns
    while stats.steps < prefix_steps or stats.busy_ns < budget_ns:
        step = next(stream)
        in_prefix = stats.steps < prefix_steps
        if in_prefix:
            stats.stream_digest.update(step.describe().encode() + b"\n")
        if on_step is not None:
            on_step(stats.steps)
        started = clock()
        try:
            raw = step.run()
            error = None
        except Exception:  # noqa: BLE001 - a failed op is data, not a crash
            raw = None
            error = traceback.format_exc(limit=3)
        wall_ns = clock() - started
        if after_step is not None:
            after_step()
        if error is None:
            try:
                result = step.check(raw, wall_ns)
            except Exception:  # noqa: BLE001 - an uncheckable answer is a failure
                error = traceback.format_exc(limit=3)
        if error is not None:
            result = StepResult(
                failed=1, messages=[f"{step.describe()}: raised\n{error}"]
            )
        stats.absorb(step.kind, result, wall_ns, in_prefix)
        # Free the answer here, not inside the next step's timed call.
        del raw, result
        if stats.steps == prefix_steps:
            stats.det_counters = Counters.read(workload).since(before)
    return stats


def warm_up(workload: Workload) -> PhaseStats:
    """One untimed pass over each op class; its failures still count."""
    return run_phase(
        workload,
        workload.steps(stream=1),
        prefix_steps=max(1, workload.warmup_steps),
        seconds=0.0,
    )


def settle_gc() -> None:
    """Collect, then move the set-up's long-lived objects out of the GC's way.

    The tables hold hundreds of thousands of row dicts; without freezing
    them, every full collection during the timed phase re-walks all of them
    and lands as a multi-millisecond outlier on whichever op triggered it.
    """
    gc.collect()
    gc.freeze()


# ---------------------------------------------------------------------------
# Small numeric helpers
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], point: float) -> float:
    """Nearest-rank percentile (``point`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, math.ceil(point * len(ordered) / 100.0) - 1)
    return ordered[rank]


def wall_clock_metrics(phase: PhaseStats, cycle: int) -> dict[str, float]:
    """The wall-clock metrics of a phase, from each step position's best time.

    The sandbox this runs in is shared: for minutes at a time the host gives
    the process a fifth less CPU or memory bandwidth, and single operations
    stall for milliseconds.  Interference only ever adds time.  The op stream
    repeats its mix of op classes every ``cycle`` steps, so position *k* of
    every cycle holds the same kind of work; its cost is taken to be its
    fastest observation over all the cycles the phase ran (a step that
    completes several operations, like a wave of readers, contributes its
    sorted latencies rank by rank).  The percentiles are taken over the
    positions of this least-disturbed cycle, and the rate is the cycle's
    operations over the sum of its positions' times.  A slower engine is
    slower at every observation, so the minima move with it; what they hide
    is a cost the engine pays only now and then -- the simulated metrics and
    the per-kind totals still show those.
    """
    log = phase.step_log
    positions = min(cycle, len(log))
    cycles = max(1, len(log) // cycle)
    whole = log[: cycles * positions]
    step_ns = 0
    latencies_ms = []
    for position in range(positions):
        observed = whole[position::positions]
        step_ns += min(wall for wall, _ops, _rows, _samples in observed)
        ranked = [sorted(samples) for _w, _o, _r, samples in observed]
        for rank in range(min(map(len, ranked))):
            latencies_ms.append(min(samples[rank] for samples in ranked) / 1e6)
    cycle_seconds = step_ns / 1e9
    return {
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_p95_ms": percentile(latencies_ms, 95),
        "ops_per_s": sum(ops for _w, ops, _r, _s in whole) / cycles / cycle_seconds,
        "rows_per_s": sum(rows for _w, _o, rows, _s in whole) / cycles / cycle_seconds,
        "cycles": cycles,
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_call(call: Callable[[], Any], *, repeats: int = 1) -> float:
    """Median wall seconds of ``call`` over ``repeats`` runs."""
    samples = []
    for _ in range(max(1, repeats)):
        started = time.perf_counter_ns()
        call()
        samples.append(time.perf_counter_ns() - started)
    return median(samples) / 1e9


def values_agree(expected: Any, actual: Any) -> bool:
    """Exact for everything but floats, which get a 1e-9 relative tolerance.

    The serial executor folds sums in heap order and the parallel one merges
    per-partition partials; either is within a few ulps of the oracle's left
    fold over the plain rows.
    """
    if isinstance(expected, float) or isinstance(actual, float):
        if expected is None or actual is None:
            return expected is actual
        return math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-9)
    return bool(expected == actual)


def cost_error_ratio(pairs: Iterable[tuple[float, float]]) -> float:
    """Median ``max(est/act, act/est)`` over ops with both sides positive."""
    errors = [
        max(est / act, act / est) for est, act in pairs if est > 0.0 and act > 0.0
    ]
    return median(errors) if errors else 0.0


# ---------------------------------------------------------------------------
# Input fingerprints
# ---------------------------------------------------------------------------


def fingerprint_rows(rows: Iterable[dict[str, Any]]) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(sorted(row.items())).encode())
        digest.update(b"\n")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The common step: one ``run_query`` checked against an oracle answer
# ---------------------------------------------------------------------------


@dataclass
class Expected:
    """An oracle answer; only the fields that are set are compared."""

    #: Scalar aggregate value.
    value: Any = None
    #: Rows satisfying the predicates (what a sequential scan would match).
    rows_matched: int | None = None
    #: ``{group key tuple: aggregate value}`` of a grouped query.
    groups: dict[tuple[Any, ...], Any] | None = None
    #: Output rows reduced to one key each, in output order.
    ordered_keys: list[Any] | None = None
    #: Output rows reduced to one key each, order not significant.
    key_set: list[Any] | None = None
    #: ``(k, keys)``: a LIMIT k answer is any k distinct members of ``keys``.
    limit_from: tuple[int, set[Any]] | None = None

    def problems(
        self,
        result: Any,
        *,
        key: Callable[[dict[str, Any]], Any],
        group_by: Sequence[str],
    ) -> list[str]:
        found = []
        if self.value is not None and not values_agree(self.value, result.value):
            found.append(f"value {result.value!r} != oracle {self.value!r}")
        if self.rows_matched is not None and result.rows_matched != self.rows_matched:
            found.append(
                f"rows_matched {result.rows_matched} != oracle {self.rows_matched}"
            )
        if self.groups is not None:
            output = result.query.aggregate.output_name
            actual = {
                tuple(row[column] for column in group_by): row[output]
                for row in result.rows
            }
            if actual.keys() != self.groups.keys() or not all(
                values_agree(self.groups[group], actual[group]) for group in actual
            ):
                found.append(
                    f"group map differs from the oracle ({len(actual)} vs "
                    f"{len(self.groups)} groups)"
                )
        if self.ordered_keys is not None:
            actual_keys = [key(row) for row in result.rows]
            if actual_keys != self.ordered_keys:
                found.append(
                    "ordered row keys differ from the oracle "
                    f"({len(actual_keys)} vs {len(self.ordered_keys)} rows)"
                )
        if self.key_set is not None:
            actual_keys = sorted(key(row) for row in result.rows)
            if actual_keys != self.key_set:
                found.append(
                    "row key set differs from the oracle "
                    f"({len(actual_keys)} vs {len(self.key_set)} rows)"
                )
        if self.limit_from is not None:
            wanted, allowed = self.limit_from
            actual_keys = [key(row) for row in result.rows]
            if (
                len(actual_keys) != min(wanted, len(allowed))
                or len(set(actual_keys)) != len(actual_keys)
                or not allowed.issuperset(actual_keys)
            ):
                found.append(
                    f"LIMIT {wanted} answer is not {min(wanted, len(allowed))} "
                    "distinct rows of the oracle's result"
                )
        return found


class QueryStep(Step):
    """``db.run_query(query, **run_kwargs)`` checked against :class:`Expected`.

    ``expected`` may be a callable: an oracle over a changing table is then
    evaluated at check time, after every earlier step has been applied to it.
    """

    def __init__(
        self,
        kind: str,
        db: Any,
        query: Any,
        expected: Expected | Callable[[], Expected],
        *,
        key: Callable[[dict[str, Any]], Any] = itemgetter("itemid"),
        **run_kwargs: Any,
    ) -> None:
        self.kind = kind
        self.db = db
        self.query = query
        self.expected = expected
        self.key = key
        self.run_kwargs = run_kwargs

    def describe(self) -> str:
        forced = "".join(
            f" {name}={value}" for name, value in sorted(self.run_kwargs.items())
        )
        return f"{self.kind}: {self.query.describe()}{forced}"

    def run(self) -> Any:
        return self.db.run_query(self.query, **self.run_kwargs)

    def check(self, result: Any, wall_ns: int) -> StepResult:
        expected = self.expected() if callable(self.expected) else self.expected
        problems = expected.problems(result, key=self.key, group_by=self.query.grouping)
        out = StepResult(
            latencies_ns=[wall_ns],
            failed=1 if problems else 0,
            sim_ms=result.elapsed_ms,
            pages_visited=result.pages_visited,
            rows_examined=result.rows_examined,
            messages=[f"{self.describe()}: {text}" for text in problems],
        )
        if result.estimated_cost_ms is not None:
            out.cost_pairs.append((result.estimated_cost_ms, result.elapsed_ms))
        if result.access_method == "cm_scan":
            out.cm_scan_rows.append((result.rows_matched, result.rows_examined))
        return out
