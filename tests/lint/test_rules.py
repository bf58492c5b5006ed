"""Each rule against its fixture corpus: exact ids, lines, and clean files.

Every rule has at least one *failing* fixture (asserting the exact rule id
and line number of each finding) and one *good* fixture shaped like the
code the engine actually contains, which must come back clean.
"""

from pathlib import Path

import pytest

from repro.lint import LintEngine, all_rules
from repro.lint.registry import _REGISTRY

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run_rule(rule_id: str, *relpaths: str) -> list:
    """Lint fixture files with a single rule; return its violations."""
    rules = [_REGISTRY[rule_id]()]
    engine = LintEngine(FIXTURES, rules=rules)
    report = engine.run([FIXTURES / relpath for relpath in relpaths])
    return [v for v in report.violations if v.rule_id == rule_id]


def findings(rule_id: str, *relpaths: str) -> list[tuple[str, int]]:
    return [(v.path, v.line) for v in run_rule(rule_id, *relpaths)]


class TestPlannerPurity:
    def test_bad_fixture_exact_findings(self):
        assert findings("REPRO101", "planner_purity/core/cost.py") == [
            ("planner_purity/core/cost.py", 3),
            ("planner_purity/core/cost.py", 4),
            ("planner_purity/core/cost.py", 8),
        ]

    def test_good_fixture_clean(self):
        assert findings("REPRO101", "planner_purity/core/statistics.py") == []

    def test_out_of_scope_module_ignored(self):
        # The same code outside core/cost|statistics / engine/planner is fine.
        assert findings("REPRO101", "parity/engine/bad_kernel.py") == []


class TestParityAccounting:
    def test_bad_fixture_exact_findings(self):
        assert findings("REPRO102", "parity/engine/bad_kernel.py") == [
            ("parity/engine/bad_kernel.py", 5),  # read_pages outside kernels
            ("parity/engine/bad_kernel.py", 7),  # filter before charge
        ]

    def test_charged_heap_walks_outside_the_sweep_flagged(self):
        assert findings("REPRO102", "parity/engine/bad_heap_walk.py") == [
            ("parity/engine/bad_heap_walk.py", 5),  # heap.scan()
            ("parity/engine/bad_heap_walk.py", 6),  # heap.iter_pages()
            ("parity/engine/bad_heap_walk.py", 8),  # scan(charge_io=True)
        ]

    def test_survivor_counted_charges_flagged(self):
        assert findings("REPRO102", "parity/engine/bad_survivor_count.py") == [
            ("parity/engine/bad_survivor_count.py", 6),  # += len(survivors)
            ("parity/engine/bad_survivor_count.py", 11),  # += 1 per survivor
            ("parity/engine/bad_survivor_count.py", 19),  # += 1 past the guard
        ]

    def test_second_protocol_on_a_plan_node_flagged(self):
        assert findings("REPRO102", "parity/engine/bad_second_protocol.py") == [
            ("parity/engine/bad_second_protocol.py", 5),  # _stream on a node
            ("parity/engine/bad_second_protocol.py", 13),  # iter_rows override
        ]

    def test_protocol_parameter_beyond_the_demand_flagged(self):
        assert findings("REPRO102", "parity/engine/bad_read_policy.py") == [
            ("parity/engine/bad_read_policy.py", 5),  # a fourth positional
            ("parity/engine/bad_read_policy.py", 16),  # a keyword-only one
            ("parity/engine/bad_read_policy.py", 20),  # **policy
        ]

    def test_stamps_outside_the_two_stamping_sites_flagged(self):
        assert findings("REPRO102", "parity/engine/bad_stamp.py") == [
            ("parity/engine/bad_stamp.py", 8),  # del row[XMAX_COLUMN]
            ("parity/engine/bad_stamp.py", 13),  # row[XMIN_COLUMN] = ...
            ("parity/engine/bad_stamp.py", 14),  # the literal "_xmax"
            ("parity/engine/bad_stamp.py", 15),  # module-qualified constant
            ("parity/engine/bad_stamp.py", 19),  # insert_version, wrong module
        ]

    def test_slot_writes_outside_the_page_flagged(self):
        assert findings("REPRO102", "parity/storage/bad_slots.py") == [
            ("parity/storage/bad_slots.py", 5),  # page.slots[slot] = None
            ("parity/storage/bad_slots.py", 6),  # del page.slots[slot]
            ("parity/storage/bad_slots.py", 7),  # page.slots[1:3] = []
            ("parity/storage/bad_slots.py", 12),  # page.slots.append(...)
            ("parity/storage/bad_slots.py", 13),  # page.slots += ...
            ("parity/storage/bad_slots.py", 14),  # .slots = list(rows)
        ]

    def test_the_page_writes_its_own_slots_clean(self):
        # storage/page.py: append / delete write the slots and drop the
        # cached live list together.
        assert findings("REPRO102", "parity/storage/page.py") == []

    def test_shared_kernel_shape_clean(self):
        # One sweep reading runs of pages, and its consumers: positional
        # charging, len(live) per page, the victim search; an uncharged
        # scan for a build, charge-then-test, an access path's _stream and
        # a node's named lazy generator.
        assert findings("REPRO102", "parity/engine/access.py") == []

    def test_stamping_sites_clean(self):
        # Table.insert_version / Table.mark_deleted store the stamps; the
        # re-placement after a cluster only reads them.
        assert findings("REPRO102", "parity/engine/table.py") == []


class TestDeterminism:
    def test_bad_fixture_exact_findings(self):
        assert findings(
            "REPRO103", "determinism/bad_clocks.py", "determinism/bench/timer.py"
        ) == [
            ("determinism/bad_clocks.py", 5),  # from random import shuffle
            ("determinism/bad_clocks.py", 9),  # time.time()
            ("determinism/bad_clocks.py", 13),  # shuffle() resolves to random.
            ("determinism/bad_clocks.py", 14),  # random.choice()
            # No bench/ exemption: a timer is flagged wherever it sits.
            ("determinism/bench/timer.py", 7),  # time.perf_counter()
        ]

    def test_seeded_random_clean(self):
        assert findings("REPRO103", "determinism/good_seeded.py") == []


class TestSchedulerSafety:
    def test_bad_fixture_exact_findings(self):
        assert findings("REPRO104", "scheduler/bad_scheduler.py") == [
            ("scheduler/bad_scheduler.py", 7),  # time.sleep
            ("scheduler/bad_scheduler.py", 8),  # list(iter_rows())
            ("scheduler/bad_scheduler.py", 12),  # sorted(entry._iterator)
            ("scheduler/bad_scheduler.py", 16),  # tuple(iter_batches())
        ]

    def test_one_batch_per_quantum_clean(self):
        assert findings("REPRO104", "scheduler/good_scheduler.py") == []

    def test_drains_only_flagged_in_scheduler_modules(self):
        # time.sleep is banned everywhere; eager drains only in scheduler
        # files -- good_seeded.py's list() over plain values must not fire.
        assert findings("REPRO104", "determinism/good_seeded.py") == []


class TestSlots:
    def test_bad_fixture_exact_findings(self):
        assert findings("REPRO105", "slots/storage/bad_container.py") == [
            ("slots/storage/bad_container.py", 6),
            ("slots/storage/bad_container.py", 12),
        ]

    def test_slotted_and_exempt_shapes_clean(self):
        assert findings("REPRO105", "slots/storage/good_container.py") == []

    def test_out_of_scope_directory_ignored(self):
        # The same slotless classes outside storage//plan//executor are fine.
        assert findings("REPRO105", "typed/bad_untyped.py") == []


class TestTypedDefs:
    def test_bad_fixture_exact_findings(self):
        assert findings("REPRO106", "typed/bad_untyped.py") == [
            ("typed/bad_untyped.py", 4),  # missing return
            ("typed/bad_untyped.py", 8),  # missing param
            ("typed/bad_untyped.py", 12),  # *args
            ("typed/bad_untyped.py", 12),  # **kwargs
            ("typed/bad_untyped.py", 17),  # method param (self exempt)
        ]

    def test_fully_annotated_clean(self):
        assert findings("REPRO106", "typed/good_typed.py") == []


class TestUnusedImports:
    def test_bad_fixture_exact_findings(self):
        assert findings("REPRO107", "imports/bad_imports.py") == [
            ("imports/bad_imports.py", 3),  # import json
            ("imports/bad_imports.py", 4),  # Mapping
        ]

    def test_quoted_annotations_keep_imports_alive(self):
        assert findings("REPRO107", "imports/good_imports.py") == []


class TestPartitionAccounting:
    def test_bad_fixture_exact_findings(self):
        assert findings("REPRO108", "partition/engine/partition.py") == [
            ("partition/engine/partition.py", 5),  # read_pages in fan-out
            ("partition/engine/partition.py", 7),  # fetch in fan-out
            ("partition/engine/partition.py", 8),  # buffer-pool access
        ]

    def test_exchange_bad_fixture_exact_findings(self):
        assert findings("REPRO108", "partition/engine/exchange.py") == [
            ("partition/engine/exchange.py", 5),  # scan while gathering parts
            ("partition/engine/exchange.py", 6),  # read_page for a merge head
            ("partition/engine/exchange.py", 7),  # buffer-pool access_run
        ]

    def test_orchestration_shape_clean(self):
        assert findings("REPRO108", "partition/engine/parallel.py") == []

    def test_out_of_scope_module_ignored(self):
        # The same page reads outside the fan-out modules are REPRO102's
        # business (scoped to its own kernel-module rules), not REPRO108's.
        assert findings("REPRO108", "parity/engine/bad_kernel.py") == []


def test_every_rule_has_a_failing_fixture():
    """The acceptance criterion: each custom rule trips on some fixture."""
    engine = LintEngine(FIXTURES, rules=all_rules())
    report = engine.run([FIXTURES])
    tripped = {violation.rule_id for violation in report.violations}
    expected = {f"REPRO10{n}" for n in range(1, 9)}
    assert expected <= tripped


@pytest.mark.parametrize("rule", all_rules(), ids=lambda rule: rule.rule_id)
def test_rule_metadata_complete(rule):
    assert rule.rule_id.startswith("REPRO")
    assert rule.name
    assert rule.description
