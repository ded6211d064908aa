"""Tests for result/time-series export."""

import io
import json

from repro import trace
from repro.core.experiment import run_experiment
from repro.core.scenarios import FlowGroup, Scenario
from repro.units import mbps
import pytest


@pytest.fixture(scope="module")
def result():
    sc = Scenario(
        name="trace-test",
        bottleneck_bw_bps=mbps(10),
        buffer_bytes=50_000,
        groups=(FlowGroup("newreno", 2, 0.02),),
        duration=5.0,
        warmup=1.0,
        stagger_max=0.5,
        seed=3,
    )
    return run_experiment(sc)


def test_flow_csv_roundtrip(result):
    buf = io.StringIO()
    trace.write_flow_csv(result, buf)
    buf.seek(0)
    rows = list(trace.read_flow_csv(buf))
    assert len(rows) == 2
    assert rows[0]["cca"] == "newreno"
    assert float(rows[0]["goodput_bps"]) > 0


def test_flow_csv_roundtrip_is_typed(result):
    # Readback coerces every numeric column so a write/read round trip
    # reproduces the FlowResult values exactly, not their string forms.
    buf = io.StringIO()
    trace.write_flow_csv(result, buf)
    buf.seek(0)
    rows = list(trace.read_flow_csv(buf))
    for row, flow in zip(rows, result.flows):
        for field in trace.FLOW_FIELDS:
            assert row[field] == getattr(flow, field), field
    assert isinstance(rows[0]["flow_id"], int)
    assert isinstance(rows[0]["halvings"], int)
    assert isinstance(rows[0]["goodput_bps"], float)
    assert isinstance(rows[0]["cca"], str)


def test_flow_csv_empty_measured_rtt_reads_back_as_none(result):
    # A flow that never completed an RTT sample writes an empty cell.
    import dataclasses

    flows = [dataclasses.replace(result.flows[0], measured_rtt=None)]
    hollow = dataclasses.replace(result, flows=flows)
    buf = io.StringIO()
    trace.write_flow_csv(hollow, buf)
    buf.seek(0)
    (row,) = list(trace.read_flow_csv(buf))
    assert row["measured_rtt"] is None


def test_flow_csv_to_path(result, tmp_path):
    path = tmp_path / "flows.csv"
    trace.write_flow_csv(result, str(path))
    rows = list(trace.read_flow_csv(str(path)))
    assert len(rows) == 2


def test_drops_csv(result):
    buf = io.StringIO()
    trace.write_drops_csv(result, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "drop_time_s"
    assert len(lines) == 1 + len(result.drop_times)


def test_result_json(result):
    buf = io.StringIO()
    trace.write_result_json(result, buf)
    payload = json.loads(buf.getvalue())
    assert payload["scenario"]["name"] == "trace-test"
    assert len(payload["flows"]) == 2
    assert "jfi" in payload and 0 < payload["jfi"] <= 1
    assert "drop_times" not in payload


def test_result_json_with_drop_times(result):
    payload = trace.result_to_dict(result, include_drop_times=True)
    assert payload["drop_times"] == list(result.drop_times)


def test_json_flow_fields_consistent(result):
    payload = trace.result_to_dict(result)
    flow = payload["flows"][0]
    assert flow["loss_rate"] == result.flows[0].loss_rate
    assert flow["halving_rate"] == result.flows[0].halving_rate


def test_flow_fields_derive_from_dataclass():
    # FLOW_FIELDS is the FlowResult schema plus the two derived rates —
    # no hand-maintained list, no magic slice index.
    import dataclasses

    from repro.core.results import FlowResult

    stored = tuple(f.name for f in dataclasses.fields(FlowResult))
    assert trace.FLOW_FIELDS == stored + ("loss_rate", "halving_rate")


def test_result_json_flows_carry_every_field(result):
    payload = trace.result_to_dict(result)
    for flow_row, flow in zip(payload["flows"], result.flows):
        assert set(flow_row) == set(trace.FLOW_FIELDS)
        for field in trace.FLOW_FIELDS:
            assert flow_row[field] == getattr(flow, field)


def test_write_health_json(tmp_path):
    from repro.core.results import RunHealth
    from repro.obs.tracing import read_jsonl

    health = RunHealth(ok=False, reason="stall", truncated_at=3.0,
                       stalled_flows=[0], fault_timeline=[(1.0, "link down")])

    class _Holder:
        pass

    holder = _Holder()
    holder.health = health
    dest = str(tmp_path / "health.jsonl")
    trace.write_health_json(holder, dest)
    rows = read_jsonl(dest)
    assert rows[0]["topic"] == "health"
    assert rows[0]["reason"] == "stall"
    assert rows[1] == {"t": 1.0, "topic": "fault", "desc": "link down"}
