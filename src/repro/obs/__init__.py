"""Observability: event bus, profiler, structured traces.

The optional observation layer over a run (DESIGN.md §10). The results
never depend on it: senders and queues count halvings, RTOs, arrivals
and drops themselves.

- :class:`EventBus` — multi-subscriber typed topics; the only hook into
  senders and queues, installed once per component and only when
  something subscribes;
- :class:`SimProfiler` — per-handler event counts and wall time,
  guaranteed not to perturb results;
- :class:`TraceRecorder` — bounded structured event capture with JSONL
  export, including run-health/fault timelines for degraded runs.
"""

from __future__ import annotations

from .bus import TOPICS, EventBus
from .profiler import HandlerProfile, SimProfiler, handler_name
from .tracing import (
    DEFAULT_TOPICS,
    TraceRecorder,
    health_rows,
    read_jsonl,
    write_jsonl,
    write_trace_jsonl,
)

__all__ = [
    "TOPICS",
    "EventBus",
    "SimProfiler",
    "HandlerProfile",
    "handler_name",
    "DEFAULT_TOPICS",
    "TraceRecorder",
    "health_rows",
    "write_jsonl",
    "write_trace_jsonl",
    "read_jsonl",
]
