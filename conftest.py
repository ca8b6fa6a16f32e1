"""Repo-root pytest configuration: the per-test hang watchdog.

Lives at the root (not in tests/ or benchmarks/) so it covers *both*
collected trees — the conformance/transport tests and the benchmarks that
launch real node-agent processes are exactly the places a wedged process
could otherwise stall a run to the CI job timeout.
"""

from __future__ import annotations

import faulthandler
import os

import pytest

#: REPRO_TEST_TIMEOUT=<seconds> arms a hard per-test watchdog: if any
#: single test (with real threads or agent processes) wedges for longer,
#: faulthandler dumps every thread's traceback and kills the run. CI sets
#: this so a hung agent process fails the workflow fast instead of
#: stalling it until the job-level timeout.
_WATCHDOG_SECONDS = float(os.environ.get("REPRO_TEST_TIMEOUT", "0") or 0)


@pytest.fixture(autouse=_WATCHDOG_SECONDS > 0)
def _hang_watchdog():
    faulthandler.dump_traceback_later(_WATCHDOG_SECONDS, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
