#!/usr/bin/env python3
"""The repo's one benchmark: six workloads, end to end and layer by layer.

Two ways to run it, from the repository root::

    python perf/run.py                       # every workload, one table
    python perf/run.py --trace               # ... plus the traced pass
    python perf/run.py --workload cm_lookup --seed 11 --seconds 10 --trace 0

With ``--workload`` the benchmark runs that workload in this process and
prints, as the last line of its output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without it, each workload runs in a fresh interpreter (so
``peak_rss_mb`` and the GC state are per workload) and the results are
collected into ``perf/out/results.json`` for ``perf/compare.py``.

``BENCHMARK.json`` is the single list of metric names, units and bounds;
this file emits exactly what it lists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"
DEFAULT_SEED = 11

# The benchmark measures ``src/repro``; without it there is no run.
if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
    raise SystemExit(f"perf/run.py: engine sources not found under {REPO_ROOT / 'src'}")
sys.path.insert(0, str(REPO_ROOT / "src"))

import harness  # noqa: E402
from trace import LAYERS, Tracer  # noqa: E402  (perf/trace.py, not the stdlib's)
from workloads import WORKLOADS  # noqa: E402


def _load_spec() -> dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


#: A measured set-up is repeated three to seven times: until it has taken
#: this long in total.  ``setup_s`` is the median.
SETUP_BUDGET_S = 2.5


def _timed_setups(
    cls: Any, seed: int, scale: harness.Scale, *, once: bool
) -> tuple[Any, list[float]]:
    """Set the workload up (several times unless ``once``); keep the last."""
    samples: list[float] = []
    workload = None
    least, most = (1, 1) if once else (3, 7)
    while len(samples) < least or (
        len(samples) < most and sum(samples) < SETUP_BUDGET_S
    ):
        workload = None
        gc.collect()
        workload = cls(seed, scale)
        samples.append(harness.time_call(workload.setup))
    return workload, samples


def _check_fingerprints(
    workload: Any, ops_digest: str, scale_name: str
) -> tuple[dict[str, Any], list[str]]:
    """This run's input fingerprints, and how they differ from the recorded."""
    found = {
        "rows": {
            table: harness.fingerprint_rows(rows)
            for table, rows in workload.row_sets().items()
        },
        "ops": ops_digest,
    }
    with open(PERF_DIR / "fingerprints.json", encoding="utf-8") as handle:
        recorded = json.load(handle)
    expected = (
        recorded.get(scale_name, {}).get(str(workload.seed), {}).get(workload.name)
    )
    problems = []
    if expected is not None and expected != found:
        problems.append(
            f"input drift: the generated rows or op stream of {workload.name} "
            f"(seed {workload.seed}, {scale_name}) no longer match "
            "perf/fingerprints.json -- a generator changed, so timings are "
            "not comparable with earlier runs"
        )
    return found, problems


def run_workload(
    name: str, *, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict[str, Any]:
    """Run one workload and return its full report."""
    scale = harness.SMOKE if smoke else harness.FULL
    # The traced run reports no set-up time, so it sets up once.
    workload, setup_samples = _timed_setups(
        WORKLOADS[name], seed, scale, once=trace or smoke
    )
    workload.prepare()
    attempted, messages = workload.invariant_checks()
    failed = len(messages)
    phases = [harness.warm_up(workload)]
    harness.settle_gc()
    stream = workload.steps(stream=0)
    # The traced run stops at the prefix: its steps, and so the table state
    # every later probe sees, are then the same on every run of a seed.
    phase = harness.run_phase(
        workload,
        stream,
        prefix_steps=workload.steps_in_prefix(),
        seconds=0.0 if trace else seconds,
    )
    phases.append(phase)
    fingerprints, drift = _check_fingerprints(
        workload, phase.stream_digest.hexdigest(), scale.name
    )
    messages += drift

    busy_s = phase.busy_ns / 1e9
    wall = harness.wall_clock_metrics(phase, workload.cycle)
    best = (
        f"each of {workload.cycle} step positions at its best of {wall['cycles']} "
        f"cycles; {len(phase.latencies_ns)} latency samples, {phase.ops} ops in "
        f"{busy_s:.2f} busy s in all"
    )
    report: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale.name,
        "seconds": seconds,
        "trace": trace,
        "fingerprints": fingerprints,
        "end_to_end": {
            "setup_s": statistics.median(setup_samples),
            "op_p50_ms": wall["op_p50_ms"],
            "op_p95_ms": wall["op_p95_ms"],
            "ops_per_s": wall["ops_per_s"],
            "sim_ms_per_op": phase.det_sim_ms / phase.det_ops,
            "pages_per_op": phase.det_pages / phase.det_ops,
            "peak_rss_mb": harness.peak_rss_mb(),
        },
        "notes": {
            "setup_s": f"median of {len(setup_samples)} set-ups",
            "op_p50_ms": best,
            "op_p95_ms": best,
            "ops_per_s": best,
            "sim_ms_per_op": f"first {phase.det_ops} ops",
            "pages_per_op": f"first {phase.det_ops} ops",
        },
    }
    if trace:
        traced, probed = _traced_pass(workload, stream, phase, wall, report)
        phases.append(traced)
        attempted += probed.attempted
        failed += len(probed.failures)
        messages += probed.failures
    for ran in phases:
        attempted += ran.ops
        failed += ran.failed
        messages += ran.messages
    if trace:
        report["per_layer"]["failed_ops_ratio"] = failed / attempted
    report["info"] = {
        "ops_attempted": attempted,
        "ops_failed": failed,
        "timed_ops": phase.ops,
        "latency_samples": len(phase.latencies_ns),
        "busy_s": busy_s,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
    report["attempted"] = attempted
    report["failed"] = failed
    report["correct"] = failed == 0 and not drift
    report["messages"] = messages
    return report


def _traced_pass(
    workload: Any, stream: Any, phase: Any, wall: dict[str, float], report: dict[str, Any]
) -> tuple[Any, Any]:
    """The per-layer half of a ``--trace 1`` run; fills ``report["per_layer"]``.

    Counter metrics come from ``phase`` (the untraced prefix), the self-time
    shares from a traced continuation of the same stream, the rest from the
    workload's own probes.
    """
    counters = phase.det_counters
    layer = {
        "rows_per_s": wall["rows_per_s"],
        "storage.pool_hit_rate": counters.hits / max(1, counters.hits + counters.misses),
        "storage.pool_evictions_per_op": counters.evictions / phase.det_ops,
        "storage.disk_pages_read_per_op": counters.io.pages_read / phase.det_ops,
        "storage.disk_seeks_per_op": counters.io.seeks / phase.det_ops,
        "storage.disk_pages_written_per_op": counters.io.pages_written / phase.det_ops,
        "storage.wal_flushes_per_op": counters.wal_flushes / phase.det_ops,
        "planner.cost_error_ratio": harness.cost_error_ratio(phase.cost_pairs),
    }
    if phase.rows_written:
        layer["write_rows_per_s"] = phase.rows_written / (phase.write_ns / 1e9)

    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_phase(
            workload,
            stream,
            prefix_steps=workload.steps_traced(),
            seconds=0.0,
            on_step=tracer.begin_op,
            after_step=tracer.end_op,
        )
    finally:
        tracer.uninstall()
    folded = tracer.fold()
    # The reference is the untraced phase's tail of the same length: the
    # nearest ops in the stream, on the same table and memo state.
    tail = phase.step_log[-traced.steps :]
    untraced_per_op = sum(step[0] for step in tail) / sum(step[1] for step in tail)
    traced_per_op = traced.busy_ns / traced.ops
    layer["trace.overhead_ratio"] = traced_per_op / untraced_per_op
    layer["trace.op_us"] = folded["op_ns"] / folded["ops"] / 1e3
    for layer_name in LAYERS:
        layer[f"trace.share.{layer_name}"] = (
            folded["layer_self_ns"][layer_name] / folded["op_ns"]
        )
    layer["planner.share_of_op"] = tracer.planner_inclusive_ns() / folded["op_ns"]
    report["notes"]["trace.overhead_ratio"] = (
        f"traced {traced_per_op / 1e3:.1f} us/op over untraced "
        f"{untraced_per_op / 1e3:.1f} us/op"
    )
    report["notes"]["planner.share_of_op"] = f"of {layer['trace.op_us']:.1f} us/op traced"
    tracer.write(
        OUT_DIR / f"trace-{workload.name}.json",
        {"workload": workload.name, "seed": workload.seed, "scale": workload.scale.name},
    )
    report["trace_table"] = folded["by_name"]

    probed = workload.probes(phase)
    layer.update(probed.metrics)
    report["notes"].update(probed.notes)
    report["per_layer"] = layer
    return traced, probed


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def contract_metrics(report: dict[str, Any], spec: dict[str, Any]) -> dict[str, Any]:
    """The metrics object of the result line, exactly as the spec lists them.

    A per-layer metric belongs to the workload whose fixtures can measure it;
    on the other workloads that layer call is never made and it reads 0.
    """
    if report["trace"]:
        measured = report["per_layer"]
        unknown = set(measured) - {metric["name"] for metric in spec["per_layer"]}
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        return {
            metric["name"]: {
                "value": float(measured.get(metric["name"], 0.0)),
                "unit": metric["unit"],
            }
            for metric in spec["per_layer"]
        }
    return {
        metric["name"]: {
            "value": float(report["end_to_end"][metric["name"]]),
            "unit": metric["unit"],
        }
        for metric in spec["end_to_end"]
    }


def print_report(report: dict[str, Any], metrics: dict[str, Any]) -> None:
    name = report["workload"]
    info = report["info"]
    print(
        f"== {name}  seed={report['seed']} scale={report['scale']} "
        f"trace={int(report['trace'])}  ops attempted={info['ops_attempted']} "
        f"failed={info['ops_failed']}  nproc={info['nproc']} "
        f"python={info['python']} {info['platform']}"
    )
    measured = report.get("per_layer", {}) if report["trace"] else report["end_to_end"]
    for metric, entry in metrics.items():
        if metric not in measured:
            continue
        note = report["notes"].get(metric, "")
        print(
            f"{name:<22} {metric:<36} {entry['value']:>16.6g} {entry['unit']:<8} {note}"
        )
    if report["trace"]:
        print(f"-- {name}: self time per wrapped entry point (traced phase)")
        op_ns = report["trace_table"]["op"]["inclusive_ns"]
        for span, row in report["trace_table"].items():
            print(
                f"   {span:<38} {row['layer']:<13} calls={row['calls']:>8} "
                f"self={row['self_ns'] / 1e6:>10.2f} ms "
                f"share={row['self_ns'] / op_ns:>7.2%}"
            )
        print(f"   trace spans: {OUT_DIR / f'trace-{name}.json'}")
    for message in report["messages"]:
        print(f"!! {name}: {message}")


def run_single(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    report = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
    )
    metrics = contract_metrics(report, spec)
    print_report(report, metrics)
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True, default=str)
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in a fresh interpreter
# ---------------------------------------------------------------------------


def run_all(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    names = [workload["name"] for workload in spec["workloads"]]
    passes = [0, 1] if args.trace else [0]
    runs = []
    ok = True
    for run_index in range(args.runs):
        for name in names:
            for trace in passes:
                report_path = OUT_DIR / f"report-{name}-trace{trace}.json"
                command = [
                    sys.executable,
                    str(PERF_DIR / "run.py"),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--report", str(report_path),
                ]
                if args.smoke:
                    command.append("--smoke")
                started = time.perf_counter()
                done = subprocess.run(
                    command, stdout=subprocess.PIPE, text=True, check=False
                )
                lines = done.stdout.splitlines()
                # Everything but the machine-readable result line.
                print("\n".join(lines if done.returncode else lines[:-1]))
                print(
                    f"   ({name} trace={trace} run {run_index + 1}/{args.runs}: "
                    f"{time.perf_counter() - started:.1f} s wall, "
                    f"exit {done.returncode})"
                )
                if done.returncode != 0:
                    ok = False
                    continue
                with open(report_path, encoding="utf-8") as handle:
                    report = json.load(handle)
                ok = ok and report["correct"]
                runs.append(report)
    out_path = Path(args.out) if args.out else OUT_DIR / "results.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"seed": args.seed, "seconds": args.seconds, "runs": runs},
            handle,
            indent=1,
            sort_keys=True,
        )
    print(f"wrote {out_path} ({len(runs)} workload runs)")
    if args.record_fingerprints:
        path = PERF_DIR / "fingerprints.json"
        recorded = json.loads(path.read_text(encoding="utf-8"))
        for report in runs:
            by_seed = recorded.setdefault(report["scale"], {})
            by_seed.setdefault(str(args.seed), {})[report["workload"]] = report[
                "fingerprints"
            ]
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"recorded the input fingerprints of seed {args.seed} in {path}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[workload["name"] for workload in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1 (or bare --trace): the traced pass with the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny tables and op counts (tests)"
    )
    parser.add_argument(
        "--runs", type=int, default=1, help="repeat every workload (all-workload mode)"
    )
    parser.add_argument("--out", help="results file of the all-workload mode")
    parser.add_argument(
        "--record-fingerprints", action="store_true",
        help="all-workload mode: store this seed's input fingerprints as the "
        "ones later runs are checked against (after a deliberate generator change)",
    )
    parser.add_argument("--report", help="also write this workload's full report here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(spec["run_seconds"])
    if args.workload:
        return run_single(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
