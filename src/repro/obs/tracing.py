"""Structured event traces: JSONL export for post-hoc diagnosis.

When a 5000-flow run degrades — the watchdog truncates it, a fault
schedule bites harder than expected — the summary numbers say *that*
something went wrong but not *when* or *to whom*. The
:class:`TraceRecorder` subscribes to an :class:`~repro.obs.bus.EventBus`
and keeps a structured, bounded record of every published event, then
writes it as JSON Lines (one event object per line) so external tools
(``jq``, pandas) can reconstruct the run's timeline.

Event rows share a common shape::

    {"t": <sim time>, "topic": "cwnd", "flow": 3, "kind": "loss_event", "cwnd": 12.0}
    {"t": <sim time>, "topic": "drop", "flow": 7, "seq": 1412}
    {"t": <sim time>, "topic": "fault", "desc": "link down"}

The recorder stores each row as a flat tuple whose fields follow its
topic's key order (:data:`ROW_FIELDS`); :attr:`TraceRecorder.events`
gives the same rows as dicts. Writing renders each tuple through a
fixed per-topic line template, and every other row through the C
encoder — the bytes are exactly ``json.dumps(row, separators=(",",
":"))`` of the dict either way.

:func:`health_rows` renders a result's :class:`~repro.core.results.
RunHealth` record (and its fault timeline) in the same row format, so a
single JSONL file can carry the whole story of a degraded run — the
``repro run --trace FILE`` CLI path appends it automatically.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .bus import TOPICS, EventBus

PathOrFile = Union[str, IO[str]]

#: A recorded event: a flat tuple in its topic's :data:`ROW_FIELDS` order.
Row = Tuple[Any, ...]

#: Topics a recorder captures by default. ``loss``/``rto`` are
#: projections of ``cwnd`` events, so recording all three would store
#: every loss twice; the default set is complete without duplication.
DEFAULT_TOPICS: Tuple[str, ...] = ("cwnd", "enqueue", "drop", "fault")

#: Each topic's row fields, in tuple order and JSON key order.
ROW_FIELDS: Dict[str, Tuple[str, ...]] = {
    "cwnd": ("t", "topic", "flow", "kind", "cwnd"),
    "loss": ("t", "topic", "flow", "cwnd"),
    "rto": ("t", "topic", "flow", "cwnd"),
    "enqueue": ("t", "topic", "flow", "seq"),
    "drop": ("t", "topic", "flow", "seq"),
    "fault": ("t", "topic", "desc"),
}


def _row_dict(row: Row) -> Dict[str, Any]:
    """A stored row as the dict it stands for."""
    return dict(zip(ROW_FIELDS[row[1]], row))


class TraceRecorder:
    """Records bus events as structured rows, with a hard memory cap.

    Parameters
    ----------
    bus:
        The event bus to tap. Subscriptions are installed immediately.
    topics:
        Which topics to record (default: :data:`DEFAULT_TOPICS`), each
        at most once.
    max_events:
        Retain at most this many rows; further events are counted in
        ``dropped_events`` but not stored (the cap keeps full tracing
        safe on CoreScale runs). ``None`` means unbounded.
    start_time:
        Events before this simulated time are ignored (warm-up cut).
    """

    def __init__(
        self,
        bus: EventBus,
        topics: Sequence[str] = DEFAULT_TOPICS,
        max_events: Optional[int] = None,
        start_time: float = 0.0,
    ) -> None:
        unknown = [t for t in topics if t not in TOPICS]
        if unknown:
            raise ValueError(f"unknown topics: {unknown}; known: {list(TOPICS)}")
        if len(set(topics)) != len(topics):
            raise ValueError(f"duplicate topics: {list(topics)}")
        if max_events is not None and max_events <= 0:
            raise ValueError("max_events must be positive")
        self.topics = tuple(topics)
        self.max_events = max_events
        self.start_time = start_time
        #: The recorded rows, in arrival order (see :data:`ROW_FIELDS`).
        self.rows: List[Row] = []
        self.dropped_events = 0
        for topic in self.topics:
            if topic in ("cwnd",):
                bus.subscribe(topic, self._on_cwnd)
            elif topic in ("loss", "rto"):
                bus.subscribe(topic, self._make_flow_cwnd_handler(topic))
            elif topic in ("enqueue", "drop"):
                bus.subscribe(topic, self._make_packet_handler(topic))
            else:  # fault
                bus.subscribe(topic, self._on_fault)

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The recorded rows as dicts, built afresh on each access."""
        return [_row_dict(row) for row in self.rows]

    # ------------------------------------------------------------------
    # Handlers (one per payload shape)
    # ------------------------------------------------------------------

    def _record(self, row: Row) -> None:
        if self.max_events is not None and len(self.rows) >= self.max_events:
            self.dropped_events += 1
            return
        self.rows.append(row)

    def _on_cwnd(self, now: float, flow_id: int, kind: str, cwnd: float) -> None:
        if now < self.start_time:
            return
        self._record((now, "cwnd", flow_id, kind, cwnd))

    def _make_flow_cwnd_handler(self, topic: str) -> Any:
        def handler(now: float, flow_id: int, cwnd: float) -> None:
            if now < self.start_time:
                return
            self._record((now, topic, flow_id, cwnd))

        return handler

    def _make_packet_handler(self, topic: str) -> Any:
        def handler(now: float, packet: Any) -> None:
            if now < self.start_time:
                return
            self._record((now, topic, packet.flow_id, packet.seq))

        return handler

    def _on_fault(self, now: float, description: str) -> None:
        # Fault events are never warm-up-cut: the whole point of the
        # trace is explaining what the injector did to the run.
        self._record((now, "fault", description))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        counts: Dict[str, int] = {}
        for row in self.rows:
            counts[row[1]] = counts.get(row[1], 0) + 1
        return {
            "recorded": len(self.rows),
            "dropped": self.dropped_events,
            "by_topic": counts,
        }


def health_rows(result: Any) -> List[Dict[str, Any]]:
    """A result's health record and fault timeline as trace rows.

    Returns an empty list for results without a health record, so
    callers can append unconditionally.
    """
    health = getattr(result, "health", None)
    if health is None:
        return []
    rows: List[Dict[str, Any]] = [
        {
            "topic": "health",
            "ok": health.ok,
            "reason": health.reason,
            "truncated_at": health.truncated_at,
            "stalled_flows": list(health.stalled_flows),
        }
    ]
    for t, desc in health.fault_timeline:
        rows.append({"t": t, "topic": "fault", "desc": desc})
    return rows


# ----------------------------------------------------------------------
# JSON Lines rendering
# ----------------------------------------------------------------------

#: The encoder ``json.dumps(row, separators=(",", ":"))`` builds, made
#: once; ``encode`` takes the C path for every row shape.
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: Line templates for the numeric row shapes, filled with the stored
#: tuple (``cwnd`` rows with their ``kind`` JSON-quoted first).
_CWND_LINE = '{"t":%r,"topic":"%s","flow":%r,"kind":%s,"cwnd":%r}\n'
_FLOW_CWND_LINE = '{"t":%r,"topic":"%s","flow":%r,"cwnd":%r}\n'
_PACKET_LINE = '{"t":%r,"topic":"%s","flow":%r,"seq":%r}\n'

_INF = float("inf")

#: Lines joined per ``write``, which bounds the text held at once.
_CHUNK_ROWS = 4096


def _line(row: Union[Row, Dict[str, Any]]) -> str:
    """One row's JSONL line, byte-identical to ``json.dumps``.

    ``repr`` of an ``int`` or a finite ``float`` is exactly what the
    JSON encoder writes for it, so a tuple whose numbers are all of
    those exact types takes its topic's template. Anything else — a
    non-finite float (``Infinity``/``NaN`` in JSON), a bool or number
    subclass, a ``fault`` row, a dict — goes through the encoder.
    """
    if type(row) is tuple:
        topic = row[1]
        if topic == "cwnd":
            t, _, flow, kind, cwnd = row
            if (
                type(t) is float
                and type(cwnd) is float
                and type(flow) is int
                and type(kind) is str
                and -_INF < t < _INF
                and -_INF < cwnd < _INF
            ):
                return _CWND_LINE % (t, topic, flow, encode_basestring_ascii(kind), cwnd)
        elif topic == "enqueue" or topic == "drop":
            t, _, flow, seq = row
            if type(t) is float and type(flow) is int and type(seq) is int and -_INF < t < _INF:
                return _PACKET_LINE % row
        elif topic == "loss" or topic == "rto":
            t, _, flow, cwnd = row
            if (
                type(t) is float
                and type(flow) is int
                and type(cwnd) is float
                and -_INF < t < _INF
                and -_INF < cwnd < _INF
            ):
                return _FLOW_CWND_LINE % row
        row = _row_dict(row)
    return _encode(row) + "\n"


def _open(dest: PathOrFile) -> Tuple[IO[str], bool]:
    if isinstance(dest, str):
        return open(dest, "w", newline=""), True
    return dest, False


def write_jsonl(rows: Iterable[Union[Row, Dict[str, Any]]], dest: PathOrFile) -> int:
    """Write rows as JSON Lines; returns the number of rows written."""
    batch = list(rows)
    fh, owned = _open(dest)
    try:
        for start in range(0, len(batch), _CHUNK_ROWS):
            fh.write("".join(map(_line, batch[start : start + _CHUNK_ROWS])))
    finally:
        if owned:
            fh.close()
    return len(batch)


def write_trace_jsonl(
    recorder: TraceRecorder, dest: PathOrFile, result: Any = None
) -> int:
    """Write a recorder's events — plus, when ``result`` is given, its
    health/fault rows — as one JSONL document. Returns rows written."""
    rows: List[Union[Row, Dict[str, Any]]] = list(recorder.rows)
    if result is not None:
        rows.extend(health_rows(result))
    return write_jsonl(rows, dest)


def read_jsonl(source: PathOrFile) -> List[Dict[str, Any]]:
    """Read back a JSONL trace as a list of row dicts."""
    if isinstance(source, str):
        with open(source, newline="") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    return [json.loads(line) for line in source if line.strip()]
