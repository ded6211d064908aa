"""Measurement instrumentation: flow goodput.

Halvings, RTOs and queue drops are counted by the senders and the queue
themselves (``ConnectionStats``, ``Queue.start_flow_counts``); per-ACK
cwnd series come from :class:`repro.obs.tracing.TraceRecorder`.
"""

from __future__ import annotations

from .flowmon import FlowMonitor

__all__ = ["FlowMonitor"]
