"""Tests for the CoDel AQM."""

import pytest

from repro.obs.bus import EventBus
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queue import CoDelQueue
from repro.sim.topology import FlowSpec, build_dumbbell
from repro.tcp.cca.newreno import NewReno
from repro.units import mbps


def pkt(seq=0):
    return Packet.data(0, seq)


def test_validation():
    with pytest.raises(ValueError):
        CoDelQueue(10_000, target=0.0)
    with pytest.raises(ValueError):
        CoDelQueue(10_000, interval=-1.0)


def test_no_drops_below_target_sojourn():
    q = CoDelQueue(100_000)
    for i in range(10):
        q.offer(float(i) * 0.001, pkt(i))
    # Dequeue quickly: sojourn < 5 ms target.
    out = [q.poll(0.011 + 0.0001 * i) for i in range(10)]
    assert all(p is not None for p in out)
    assert q.dropped_packets == 0


def test_hard_capacity_still_enforced():
    q = CoDelQueue(3000)
    assert q.offer(0.0, pkt()) and q.offer(0.0, pkt())
    assert not q.offer(0.0, pkt())
    assert q.dropped_packets == 1


def test_persistent_delay_triggers_dequeue_drops():
    q = CoDelQueue(1_000_000)
    for i in range(200):
        q.offer(0.0, pkt(i))
    # Dequeue slowly: every packet has a large sojourn. After target is
    # exceeded for more than one interval, CoDel starts dropping.
    drops_before = q.dropped_packets
    polled = 0
    t = 0.2
    while len(q) and polled < 150:
        if q.poll(t) is not None:
            polled += 1
        t += 0.02
    assert q.dropped_packets > drops_before


def test_drop_listener_invoked():
    q = CoDelQueue(1_000_000)
    bus = EventBus()
    bus.bind_queue(q)
    drops = []
    bus.subscribe("drop", lambda now, p: drops.append(now))
    for i in range(50):
        q.offer(0.0, pkt(i))
    q.start_flow_counts()
    t = 0.5
    for _ in range(30):
        q.poll(t)
        t += 0.05
    assert drops, "dequeue drops must notify the listener"
    # head drops are counted per flow and timestamped like arrival drops
    assert q.drops_by_flow == {0: len(drops)} == {0: q.dropped_packets}
    assert q.drop_times == drops
    assert q.arrivals_by_flow == {}


def test_codel_bounds_standing_queue_end_to_end():
    """Four NewReno flows on a CoDel bottleneck: utilisation stays high
    while the standing queue (and hence RTT) stays near the target."""
    sim = Simulator()
    queue = CoDelQueue(3_000_000)
    d = build_dumbbell(
        sim,
        [FlowSpec(NewReno(), rtt=0.02) for _ in range(4)],
        bottleneck_bw_bps=mbps(20),
        buffer_bytes=3_000_000,
        queue=queue,
    )
    d.start_all()
    sim.run(until=10.0)
    goodput = sum(f.sender.snd_una for f in d.flows) * 1448 * 8 / 10.0
    assert goodput > mbps(16)
    srtt = d.flows[0].sender.rtt.srtt
    # Drop-tail with a 3 MB buffer would push RTT past 1 s; CoDel keeps
    # it within a few times the 5 ms target above the 20 ms base.
    assert srtt < 0.08
    assert queue.dropped_packets > 0
