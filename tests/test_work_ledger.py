"""The exact work-counter gate in ``tools/work_ledger.py``.

The comparison runs on in-memory perfbench summaries, so no benchmark
is started here.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

_TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "work_ledger.py"
)
_spec = importlib.util.spec_from_file_location("work_ledger", _TOOL)
work_ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_ledger)

PINNED = {
    "core100-bbr.sim.engine.calls_per_pkt": 3.5833551255230125,
    "core100-bbr.sim.engine.events_per_pkt": 3.1998692468619248,
    "core100-bbr.sim.engine.peak_pending": 696,
}


def summary(values=PINNED, failed=0):
    metrics = {key: {"value": value, "unit": "count"} for key, value in values.items()}
    # Wall-clock and share metrics ride along in the same line; the gate
    # must not look at them.
    metrics["core100-bbr.sim.engine.self_us_per_pkt"] = {"value": 19.5, "unit": "us"}
    return {"correct": failed == 0, "attempted": 3, "failed": failed, "metrics": metrics}


LEDGER = {"python": "3.11", "counters": dict(PINNED)}


def test_equal_run_passes():
    assert work_ledger.compare(LEDGER, summary()) == []


def test_counters_keep_only_exact_keys():
    assert work_ledger.counters(summary()) == PINNED


def test_rise_is_a_regression_naming_the_key():
    key = "core100-bbr.sim.engine.calls_per_pkt"
    problems = work_ledger.compare(LEDGER, summary({**PINNED, key: 3.6}))
    assert len(problems) == 1
    assert key in problems[0] and "regression" in problems[0]
    assert repr(PINNED[key]) in problems[0] and "3.6" in problems[0]


def test_fall_fails_with_repin_message():
    key = "core100-bbr.sim.engine.peak_pending"
    problems = work_ledger.compare(LEDGER, summary({**PINNED, key: 695}))
    assert problems == [f"{key}: lower 696 -> 695: re-pin with `tools/work_ledger.py`"]


def test_any_float_difference_fails():
    key = "core100-bbr.sim.engine.events_per_pkt"
    nudged = PINNED[key] + 4e-16
    assert nudged != PINNED[key]
    assert work_ledger.compare(LEDGER, summary({**PINNED, key: nudged}))


def test_key_missing_from_run_fails():
    key = "core100-bbr.sim.engine.peak_pending"
    values = {k: v for k, v in PINNED.items() if k != key}
    (problem,) = work_ledger.compare(LEDGER, summary(values))
    assert key in problem and "missing from the run" in problem


def test_key_missing_from_ledger_fails():
    key = "edge50-observed.obs.calls_per_pkt"
    (problem,) = work_ledger.compare(LEDGER, summary({**PINNED, key: 3.99}))
    assert key in problem and "missing from the ledger" in problem


@pytest.mark.parametrize("failed", [1, None])
def test_failed_operation_fails(failed):
    problems = work_ledger.compare(LEDGER, summary(failed=failed))
    assert problems and problems[0].startswith("perfbench: failed=")


def test_incorrect_run_fails():
    run = summary()
    run["correct"] = False
    assert work_ledger.compare(LEDGER, run)
