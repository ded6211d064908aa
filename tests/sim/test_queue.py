"""Unit tests for queue disciplines."""

import random

import pytest

from repro.obs.bus import EventBus
from repro.sim.packet import Packet
from repro.sim.queue import DropTailQueue, REDQueue


def pkt(flow=0, size=1500):
    return Packet.data(flow, 0, size)


class TestDropTail:
    def test_accepts_until_capacity(self):
        q = DropTailQueue(4500)
        assert q.offer(0.0, pkt()) and q.offer(0.0, pkt()) and q.offer(0.0, pkt())
        assert q.occupancy_bytes == 4500
        assert not q.offer(0.0, pkt())
        assert q.dropped_packets == 1
        assert q.enqueued_packets == 3

    def test_fifo_order(self):
        q = DropTailQueue(10_000)
        packets = [Packet.data(0, seq) for seq in range(3)]
        for p in packets:
            q.offer(0.0, p)
        assert [q.poll().seq for _ in range(3)] == [0, 1, 2]

    def test_poll_empty_returns_none(self):
        q = DropTailQueue(1000)
        assert q.poll() is None

    def test_occupancy_tracks_poll(self):
        q = DropTailQueue(10_000)
        q.offer(0.0, pkt(size=1000))
        q.offer(0.0, pkt(size=500))
        assert q.occupancy_bytes == 1500
        q.poll()
        assert q.occupancy_bytes == 500

    def test_partial_fit_dropped(self):
        # 1000 bytes free but a 1500-byte packet must be dropped whole.
        q = DropTailQueue(2500)
        assert q.offer(0.0, pkt(size=1500))
        assert not q.offer(0.0, pkt(size=1500))
        assert q.offer(0.0, pkt(size=1000))

    def test_drop_listener_invoked_with_time_and_packet(self):
        q = DropTailQueue(1500)
        bus = EventBus()
        bus.bind_queue(q)
        drops = []
        bus.subscribe("drop", lambda now, p: drops.append((now, p.flow_id)))
        q.offer(1.0, pkt(flow=1))
        q.offer(2.0, pkt(flow=2))
        assert drops == [(2.0, 2)]

    def test_enqueue_listener(self):
        q = DropTailQueue(10_000)
        bus = EventBus()
        bus.bind_queue(q)
        seen = []
        bus.subscribe("enqueue", lambda now, p: seen.append(p.flow_id))
        q.offer(0.0, pkt(flow=7))
        assert seen == [7]

    def test_no_observer_until_something_subscribes(self):
        q = DropTailQueue(10_000)
        bus = EventBus()
        bus.bind_queue(q)
        assert q.observer is None
        bus.subscribe("drop", lambda now, p: None)
        assert q.observer is not None
        with pytest.raises(RuntimeError):
            EventBus().bind_queue(q)  # one hook per component

    def test_flow_counts_start_at_the_cut(self):
        q = DropTailQueue(3000)
        q.offer(0.5, pkt(flow=1))
        q.offer(0.5, pkt(flow=1))
        q.offer(0.5, pkt(flow=1))  # dropped before counting starts
        assert q.drops_by_flow is None and q.drop_times is None
        q.start_flow_counts()
        q.poll()
        q.offer(1.0, pkt(flow=2))
        q.offer(2.0, pkt(flow=3))  # dropped
        assert q.arrivals_by_flow == {2: 1}
        assert q.drops_by_flow == {3: 1}
        assert q.drop_times == [2.0]
        # lifetime totals are unaffected by the cut
        assert q.enqueued_packets == 3 and q.dropped_packets == 2

    def test_drop_times_can_be_left_out(self):
        q = DropTailQueue(1500)
        q.start_flow_counts(record_drop_times=False)
        q.offer(0.0, pkt(flow=1))
        q.offer(1.0, pkt(flow=1))
        assert q.drops_by_flow == {1: 1}
        assert q.drop_times is None

    def test_len_counts_packets(self):
        q = DropTailQueue(10_000)
        for _ in range(4):
            q.offer(0.0, pkt())
        assert len(q) == 4

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


class TestRed:
    def test_below_min_threshold_never_drops(self):
        q = REDQueue(100_000, min_thresh_bytes=50_000, max_thresh_bytes=80_000)
        for _ in range(10):
            assert q.offer(0.0, pkt())
        assert q.dropped_packets == 0

    def test_hard_limit_always_drops(self):
        q = REDQueue(3000, min_thresh_bytes=1000, max_thresh_bytes=2000)
        q.offer(0.0, pkt())
        q.offer(0.0, pkt())
        assert not q.offer(0.0, pkt(size=1500))  # would exceed capacity

    def test_probabilistic_drops_between_thresholds(self):
        q = REDQueue(
            1_000_000,
            min_thresh_bytes=10_000,
            max_thresh_bytes=50_000,
            max_p=0.5,
            weight=1.0,  # avg tracks instantaneous occupancy
            rng=random.Random(1),
        )
        dropped = 0
        for _ in range(200):
            if not q.offer(0.0, pkt()):
                dropped += 1
            else:
                q.poll() if q.occupancy_bytes > 30_000 else None
        assert dropped > 0, "RED should drop probabilistically above min threshold"

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            REDQueue(1000, min_thresh_bytes=800, max_thresh_bytes=700)
        with pytest.raises(ValueError):
            REDQueue(1000, max_p=0.0)


class TestSetCapacity:
    def test_grow_keeps_backlog(self):
        q = DropTailQueue(3000)
        assert q.offer(0.0, pkt()) and q.offer(0.0, pkt())
        q.set_capacity(6000)
        assert q.capacity_bytes == 6000
        assert len(q) == 2 and q.dropped_packets == 0
        assert q.offer(0.0, pkt()) and q.offer(0.0, pkt())

    def test_shrink_evicts_newest_first_with_accounting(self):
        q = DropTailQueue(6000)
        bus = EventBus()
        bus.bind_queue(q)
        drops = []
        bus.subscribe("drop", lambda now, p: drops.append((now, p.seq)))
        for seq in range(4):
            q.offer(0.0, Packet.data(seq % 2, seq, 1500))
        q.start_flow_counts()
        q.set_capacity(3000, now=2.5)
        assert q.occupancy_bytes == 3000
        assert q.dropped_packets == 2
        assert drops == [(2.5, 3), (2.5, 2)]  # tail (newest) evicted first
        # evictions are drops in the per-flow counts too
        assert q.drops_by_flow == {1: 1, 0: 1}
        assert q.drop_times == [2.5, 2.5]
        # survivors keep FIFO order
        assert [q.poll().seq, q.poll().seq] == [0, 1]

    def test_shrink_validation(self):
        q = DropTailQueue(3000)
        with pytest.raises(ValueError):
            q.set_capacity(0)

    def test_red_rescales_thresholds(self):
        q = REDQueue(100_000, rng=random.Random(1))
        min0, max0 = q.min_thresh, q.max_thresh
        q.set_capacity(50_000)
        assert q.min_thresh == min0 // 2
        assert q.max_thresh == max0 // 2
        assert 0 < q.min_thresh < q.max_thresh <= q.capacity_bytes
        q.set_capacity(100_000)
        assert 0 < q.min_thresh < q.max_thresh <= q.capacity_bytes
