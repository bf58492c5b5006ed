"""Bad fixture: a wall-clock timer under a bench/-named path (no exemption)."""

import time


def elapsed() -> float:
    return time.perf_counter()  # line 7: REPRO103 (timer)
