"""Tests for structured JSONL trace export."""

import io

import pytest

from repro.core.results import RunHealth
from repro.obs.bus import TOPICS, EventBus
from repro.obs.tracing import (
    ROW_FIELDS,
    TraceRecorder,
    health_rows,
    read_jsonl,
    write_jsonl,
    write_trace_jsonl,
)
from repro.sim.packet import Packet
from repro.sim.queue import DropTailQueue
from repro.tcp.cca.newreno import NewReno
from tests.conftest import make_pipe


class _Result:
    def __init__(self, health):
        self.health = health


def test_rejects_unknown_topics_and_bad_cap():
    bus = EventBus()
    with pytest.raises(ValueError):
        TraceRecorder(bus, topics=("cwnd", "nope"))
    with pytest.raises(ValueError):
        TraceRecorder(bus, max_events=0)


def test_rejects_duplicate_topics():
    bus = EventBus()
    with pytest.raises(ValueError, match="duplicate topics"):
        TraceRecorder(bus, topics=("fault", "fault"))
    # The rejected recorder subscribed nothing: one publish, no rows.
    recorder = TraceRecorder(bus, topics=("fault",))
    bus.publish("fault", 1.0, "link down")
    assert recorder.summary()["recorded"] == 1


def test_rows_are_flat_tuples_in_topic_field_order():
    bus = EventBus()
    recorder = TraceRecorder(bus, topics=TOPICS, start_time=1.0)
    bus.publish("cwnd", 2.0, 3, "loss_event", 12.5)
    bus.publish("loss", 2.0, 3, 12.5)
    bus.publish("rto", 2.5, 4, 1.0)
    bus.publish("enqueue", 3.0, Packet(flow_id=5, seq=9, size=1000))
    bus.publish("drop", 3.0, Packet(flow_id=5, seq=10, size=1000))
    bus.publish("fault", 3.5, "link down")
    assert recorder.rows == [
        (2.0, "cwnd", 3, "loss_event", 12.5),
        (2.0, "loss", 3, 12.5),
        (2.5, "rto", 4, 1.0),
        (3.0, "enqueue", 5, 9),
        (3.0, "drop", 5, 10),
        (3.5, "fault", "link down"),
    ]
    assert all(len(row) == len(ROW_FIELDS[row[1]]) for row in recorder.rows)
    assert recorder.events[1] == {"t": 2.0, "topic": "loss", "flow": 3, "cwnd": 12.5}
    assert recorder.events[2] == {"t": 2.5, "topic": "rto", "flow": 4, "cwnd": 1.0}
    assert recorder.summary() == {
        "recorded": 6,
        "dropped": 0,
        "by_topic": {t: 1 for t in ("cwnd", "loss", "rto", "enqueue", "drop", "fault")},
    }


def test_events_is_a_fresh_dict_view_of_the_rows():
    bus = EventBus()
    recorder = TraceRecorder(bus)
    bus.publish("cwnd", 0.5, 1, "ack", 10.0)
    bus.publish("fault", 0.6, "link down")
    first = recorder.events
    assert first == [
        {"t": 0.5, "topic": "cwnd", "flow": 1, "kind": "ack", "cwnd": 10.0},
        {"t": 0.6, "topic": "fault", "desc": "link down"},
    ]
    first[0]["cwnd"] = -1.0
    first.clear()
    assert recorder.events is not first
    assert recorder.events[0]["cwnd"] == 10.0
    assert recorder.rows[0] == (0.5, "cwnd", 1, "ack", 10.0)


def test_warmup_cut_and_cap_apply_to_every_stored_shape():
    bus = EventBus()
    recorder = TraceRecorder(bus, topics=TOPICS, max_events=3, start_time=5.0)
    bus.publish("cwnd", 4.0, 0, "ack", 2.0)
    bus.publish("loss", 4.0, 0, 2.0)
    bus.publish("rto", 4.0, 0, 1.0)
    bus.publish("drop", 4.0, Packet(flow_id=0, seq=1, size=1000))
    bus.publish("fault", 4.0, "early fault")  # exempt from the cut
    assert recorder.rows == [(4.0, "fault", "early fault")]
    assert recorder.dropped_events == 0
    bus.publish("enqueue", 5.0, Packet(flow_id=0, seq=2, size=1000))
    bus.publish("rto", 6.0, 0, 1.0)
    bus.publish("cwnd", 7.0, 0, "rto", 1.0)  # over the cap
    bus.publish("fault", 8.0, "late fault")  # over the cap
    assert [row[1] for row in recorder.rows] == ["fault", "enqueue", "rto"]
    assert recorder.dropped_events == 2
    assert recorder.summary() == {
        "recorded": 3,
        "dropped": 2,
        "by_topic": {"fault": 1, "enqueue": 1, "rto": 1},
    }


def test_records_cwnd_rows_with_warmup_cut(sim):
    bus = EventBus()
    recorder = TraceRecorder(bus, topics=("cwnd",), start_time=0.05)
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=40)
    bus.bind_sender(sender)
    sender.start()
    sim.run(until=5.0)
    assert recorder.events
    assert all(row["t"] >= 0.05 for row in recorder.events)
    row = recorder.events[0]
    assert row["topic"] == "cwnd"
    assert row["flow"] == 0
    assert row["kind"] in ("ack", "loss_event", "rto")
    assert recorder.summary()["by_topic"]["cwnd"] == len(recorder.events)


def test_records_queue_and_fault_rows():
    bus = EventBus()
    recorder = TraceRecorder(bus)
    queue = DropTailQueue(2000)
    bus.bind_queue(queue)
    for seq in range(3):
        queue.offer(0.1, Packet(flow_id=4, seq=seq, size=1000))
    bus.publish("fault", 0.2, "link down")
    topics = [row["topic"] for row in recorder.events]
    assert topics == ["enqueue", "enqueue", "drop", "fault"]
    assert recorder.events[2]["flow"] == 4
    assert recorder.events[3]["desc"] == "link down"


def test_fault_rows_are_never_warmup_cut():
    bus = EventBus()
    recorder = TraceRecorder(bus, start_time=10.0)
    bus.publish("fault", 0.5, "early fault")
    assert recorder.events == [{"t": 0.5, "topic": "fault", "desc": "early fault"}]


def test_max_events_caps_memory():
    bus = EventBus()
    recorder = TraceRecorder(bus, topics=("fault",), max_events=2)
    for i in range(5):
        bus.publish("fault", float(i), f"f{i}")
    assert len(recorder.events) == 2
    assert recorder.dropped_events == 3
    assert recorder.summary()["dropped"] == 3


def test_jsonl_round_trip():
    rows = [{"t": 1.0, "topic": "fault", "desc": "x"}, {"t": 2.0, "topic": "cwnd"}]
    buf = io.StringIO()
    assert write_jsonl(rows, buf) == 2
    buf.seek(0)
    assert read_jsonl(buf) == rows


def test_write_trace_jsonl_appends_health(tmp_path):
    bus = EventBus()
    recorder = TraceRecorder(bus, topics=("fault",))
    bus.publish("fault", 1.0, "link down")
    health = RunHealth(
        ok=False,
        reason="stall",
        truncated_at=9.0,
        stalled_flows=[1, 2],
        fault_timeline=[(1.0, "link down")],
    )
    dest = str(tmp_path / "trace.jsonl")
    written = write_trace_jsonl(recorder, dest, result=_Result(health))
    rows = read_jsonl(dest)
    assert written == len(rows) == 3  # fault event + health row + timeline row
    health_row = rows[1]
    assert health_row["topic"] == "health"
    assert health_row["reason"] == "stall"
    assert health_row["stalled_flows"] == [1, 2]
    assert rows[2] == {"t": 1.0, "topic": "fault", "desc": "link down"}


def test_health_rows_empty_without_health():
    assert health_rows(_Result(None)) == []
