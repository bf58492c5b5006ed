"""Bad fixture: a scheduler that sleeps and drains whole pipelines."""

import time


def quantum(entry) -> list:
    time.sleep(0.01)  # line 7: REPRO104 (blocking sleep)
    return list(entry.plan.iter_rows())  # line 8: REPRO104 (unbounded drain)


def drain_iterator(entry) -> list:
    return sorted(entry._iterator)  # line 12: REPRO104 (iterator operand)


def drain_batches(entry, context) -> tuple:
    return tuple(entry.plan.iter_batches(context, 256))  # line 16: REPRO104
