"""Property tests: the trace exporter against ``json.dumps``.

The exporter renders recorder rows through fixed per-topic templates
and sends every other row to the JSON encoder. Whatever a recorder can
store — any float (signed zero, subnormals, the shortest-repr switch
points, infinities, NaN), any int, a bool where a number belongs, any
unicode ``kind``/``desc`` — each line must be byte-identical to
``json.dumps(row_dict, separators=(",", ":")) + "\\n"``, the format the
committed golden trace digests were taken over.

Derandomized with ``database=None``, like the other property suites.
"""

from __future__ import annotations

import io
import json
import math
from types import SimpleNamespace
from typing import Any, Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import RunHealth
from repro.obs.bus import TOPICS, EventBus
from repro.obs.tracing import TraceRecorder, health_rows, write_jsonl, write_trace_jsonl

PROPERTY_SETTINGS = settings(
    max_examples=300, derandomize=True, database=None, deadline=None
)

EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-7,
    9999999999999998.0, 0.0001, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
)

floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
ints = st.integers(min_value=-(2**200), max_value=2**200)
numbers = st.one_of(floats, ints, st.booleans())
# Each slot mostly holds the type the simulator publishes there, so most
# rows take the template path; the rest go to the encoder.
times = floats | numbers
flows = ints | numbers
texts = st.text(alphabet=st.characters(), max_size=12) | st.sampled_from(
    ('"', "\\", "\n\t\x00\x1f\x7f", " ", "\U0001f600", "ack", "loss_event")
)

#: One bus publish: ``(topic, now, *payload)``.
events = st.one_of(
    st.tuples(st.just("cwnd"), times, flows, texts, times),
    st.tuples(st.sampled_from(("loss", "rto")), times, flows, times),
    st.tuples(st.sampled_from(("enqueue", "drop")), times, flows, flows),
    st.tuples(st.just("fault"), times, texts),
)

healths = st.builds(
    RunHealth,
    ok=st.booleans(),
    reason=texts,
    truncated_at=st.none() | floats,
    stalled_flows=st.lists(ints, max_size=3),
    fault_timeline=st.lists(st.tuples(floats, texts), max_size=3),
)


def _dumps(row: Dict[str, Any]) -> str:
    return json.dumps(row, separators=(",", ":")) + "\n"


def _record(published: List[Any]) -> TraceRecorder:
    bus = EventBus()
    recorder = TraceRecorder(bus, topics=TOPICS, start_time=-math.inf)
    for topic, now, *payload in published:
        if topic in ("enqueue", "drop"):
            flow, seq = payload
            payload = [SimpleNamespace(flow_id=flow, seq=seq)]
        bus.publish(topic, now, *payload)
    return recorder


#: A typical publish per topic; the edge-value test varies one slot.
TYPICAL = (
    ("cwnd", 1.5, 3, "ack", 10.0),
    ("loss", 1.5, 3, 10.0),
    ("rto", 1.5, 3, 1.0),
    ("enqueue", 1.5, 3, 7),
    ("drop", 1.5, 3, 7),
    ("fault", 1.5, "link down"),
)
EDGE_VALUES = EDGE_FLOATS + (True, False, 2**100, -(2**64), 1, -1.5)


def test_edge_values_in_every_number_slot():
    published = list(TYPICAL)
    for event in TYPICAL:
        for slot, value in enumerate(event):
            if slot > 0 and not isinstance(value, str):
                published += [event[:slot] + (edge,) + event[slot + 1 :] for edge in EDGE_VALUES]
    recorder = _record(published)
    assert len(recorder.rows) == len(published)
    buf = io.StringIO()
    write_jsonl(recorder.rows, buf)
    assert buf.getvalue().splitlines(keepends=True) == list(map(_dumps, recorder.events))


@PROPERTY_SETTINGS
@given(st.lists(events, min_size=1, max_size=20))
def test_each_rendered_line_equals_json_dumps(published):
    recorder = _record(published)
    # NaN < -inf is false too, so every publish is recorded.
    assert len(recorder.rows) == len(published)
    for row, as_dict in zip(recorder.rows, recorder.events):
        buf = io.StringIO()
        assert write_jsonl([row], buf) == 1
        assert buf.getvalue() == _dumps(as_dict), row


@PROPERTY_SETTINGS
@given(st.lists(events, max_size=20), st.none() | healths)
def test_trace_export_equals_json_dumps_of_the_dict_view(published, health):
    recorder = _record(published)
    result = SimpleNamespace(health=health)
    buf = io.StringIO()
    written = write_trace_jsonl(recorder, buf, result=result)
    expected = recorder.events + health_rows(result)
    assert written == len(expected)
    assert buf.getvalue() == "".join(map(_dumps, expected))
