#!/usr/bin/env python
"""Pin perfbench's exact work counters (benchmarks/work_ledger.json).

Runs ``python3 perfbench/run.py --workload all --seed 1 --trace 1`` and
keeps every counter of its traced ledger whose value repeats exactly
from run to run: the keys ending in ``.calls_per_pkt``,
``.events_per_pkt`` and ``.peak_pending``. They count work, not host
time, so they are the same on every host running the same Python
``major.minor``. The ledger records which one made it.

Usage::

    python3 tools/work_ledger.py [--check]

With no flag the ledger is rewritten (only from a run with no failed
operation) and every change against the previous ledger is printed. Do
that only when more or less work per packet is intended. ``--check``
writes nothing: it exits non-zero when perfbench reports a failed
operation, when a counter is missing on either side, or when any value
differs from the ledger. A rise is a regression; a fall fails too, so
the ledger only moves when it is re-pinned on purpose. Values are
compared exactly: both sides come from the same arithmetic and survive
a JSON round trip unchanged.

perfbench's standard output is passed through unchanged, so its last
line is perfbench's JSON summary; the verdict goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER_PATH = os.path.join(REPO_ROOT, "benchmarks", "work_ledger.json")
PERFBENCH_ARGS = ["perfbench/run.py", "--workload", "all", "--seed", "1", "--trace", "1"]
COUNTER_SUFFIXES = (".calls_per_pkt", ".events_per_pkt", ".peak_pending")
REPIN = "re-pin with `tools/work_ledger.py`"


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def counters(summary: Dict[str, Any]) -> Dict[str, Any]:
    """The exact work counters in one perfbench summary line."""
    return {
        key: entry["value"]
        for key, entry in summary.get("metrics", {}).items()
        if key.endswith(COUNTER_SUFFIXES)
    }


def run_failed(summary: Dict[str, Any]) -> bool:
    return summary.get("failed") != 0 or summary.get("correct") is not True


def compare(ledger: Dict[str, Any], summary: Dict[str, Any]) -> List[str]:
    """One message per way ``summary`` departs from the ledger's counters.

    An empty list means the run had no failed operation and every
    counter equals its pinned value.
    """
    problems = []
    if run_failed(summary):
        problems.append(
            f"perfbench: failed={summary.get('failed')} correct={summary.get('correct')}"
        )
    pinned = ledger.get("counters", {})
    run = counters(summary)
    for key in sorted(pinned.keys() | run.keys()):
        if key not in run:
            problems.append(f"{key}: pinned at {pinned[key]!r}, missing from the run")
        elif key not in pinned:
            problems.append(f"{key}: {run[key]!r} in the run, missing from the ledger: {REPIN}")
        elif run[key] > pinned[key]:
            problems.append(f"{key}: regression {pinned[key]!r} -> {run[key]!r}")
        elif run[key] != pinned[key]:
            problems.append(f"{key}: lower {pinned[key]!r} -> {run[key]!r}: {REPIN}")
    return problems


def run_perfbench() -> Dict[str, Any]:
    """Run the traced benchmark; echo its output; return its summary line."""
    child = subprocess.run(
        [sys.executable, *PERFBENCH_ARGS],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    sys.stdout.write(child.stdout)
    sys.stdout.flush()
    lines = child.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"failed": None, "correct": None, "metrics": {}}


def load_ledger() -> Dict[str, Any]:
    if not os.path.exists(LEDGER_PATH):
        return {}
    with open(LEDGER_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed ledger instead of rewriting it")
    args = parser.parse_args(argv)

    ledger = load_ledger()
    summary = run_perfbench()
    problems = compare(ledger, summary)
    pinned_with = ledger.get("python")
    if pinned_with and pinned_with != python_version():
        print(f"note: the ledger was made with Python {pinned_with}, "
              f"this is {python_version()}", file=sys.stderr)

    if args.check:
        for problem in problems:
            print(f"work ledger: {problem}", file=sys.stderr)
        if problems:
            print(f"work ledger: {len(problems)} problem(s)", file=sys.stderr)
            return 1
        print(f"work ledger: all {len(counters(summary))} counters match", file=sys.stderr)
        return 0

    if run_failed(summary):
        print(f"work ledger: not rewritten: {problems[0]}", file=sys.stderr)
        return 1
    for problem in problems if ledger else ():
        print(f"changed: {problem}", file=sys.stderr)
    document = {
        "python": python_version(),
        "command": " ".join(["python3", *PERFBENCH_ARGS]),
        "counters": counters(summary),
    }
    with open(LEDGER_PATH, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(LEDGER_PATH, REPO_ROOT)}: "
          f"{len(document['counters'])} counters", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
