"""Repo-root pytest configuration.

``--fuzz-iterations N`` widens the differential fuzzer's seeded query corpus
(``tests/engine/test_fuzz_parity.py``) beyond the small tier-1 default; CI
smoke runs the default, nightly/soak runs pass a few hundred.

``--update-plan-goldens`` re-records ``tests/engine/plan_goldens.json``
instead of comparing against it (``tests/engine/test_plan_goldens.py``);
``--update-exec-goldens`` does the same for ``tests/engine/exec_goldens.json``
(``tests/engine/test_exec_goldens.py``).
"""

FUZZ_ITERATIONS_DEFAULT = 24


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-iterations",
        type=int,
        default=FUZZ_ITERATIONS_DEFAULT,
        metavar="N",
        help=(
            "seeded query corpus size for the differential batch-parity "
            f"fuzzer (default: {FUZZ_ITERATIONS_DEFAULT})"
        ),
    )
    parser.addoption(
        "--update-plan-goldens",
        action="store_true",
        help="re-record tests/engine/plan_goldens.json instead of comparing",
    )
    parser.addoption(
        "--update-exec-goldens",
        action="store_true",
        help="re-record tests/engine/exec_goldens.json before comparing",
    )
