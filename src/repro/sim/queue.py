"""Bottleneck queue disciplines.

The paper's testbed uses a drop-tail queue at the BESS software switch
sized to ~1 BDP; :class:`DropTailQueue` is the faithful equivalent.
:class:`REDQueue` is provided as an ablation extension (the paper fixes
drop-tail; DESIGN.md lists queue discipline as an ablation axis).

Queues are passive containers: the owning :class:`repro.sim.link.Link`
drives enqueue/dequeue. A queue counts its own arrivals and drops, per
flow once :meth:`Queue.start_flow_counts` is called, and shows each one
to a single optional ``observer`` hook, which only
:meth:`repro.obs.bus.EventBus.bind_queue` installs.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..lint.sanitizer import SimSanitizer

#: Observer hook, called as ``observer(now, kind, packet)`` with kind
#: ``"enqueue"`` or ``"drop"``.
QueueObserver = Callable[[float, str, Packet], None]


class Queue:
    """Interface for bottleneck queue disciplines."""

    __slots__ = (
        "capacity_bytes",
        "occupancy_bytes",
        "enqueued_packets",
        "dropped_packets",
        "_items",
        "arrivals_by_flow",
        "drops_by_flow",
        "drop_times",
        "observer",
        "sanitizer",
    )

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.occupancy_bytes = 0
        self.enqueued_packets = 0
        self.dropped_packets = 0
        self._items: deque[Packet] = deque()
        # Per-flow counts and drop times: None until start_flow_counts().
        self.arrivals_by_flow: Optional[Dict[int, int]] = None
        self.drops_by_flow: Optional[Dict[int, int]] = None
        self.drop_times: Optional[List[float]] = None
        self.observer: Optional[QueueObserver] = None
        #: Byte-conservation auditor; set by SimSanitizer.watch_queue().
        self.sanitizer: Optional["SimSanitizer"] = None

    def __len__(self) -> int:
        return len(self._items)

    def start_flow_counts(self, record_drop_times: bool = True) -> None:
        """Start counting arrivals and drops per flow, and drop times.

        ``run_experiment`` calls this at the warm-up cut, so the counts
        cover exactly the measured window (the paper's drop log at the
        BESS switch). The lifetime totals ``enqueued_packets`` and
        ``dropped_packets`` are unaffected.
        """
        self.arrivals_by_flow = defaultdict(int)
        self.drops_by_flow = defaultdict(int)
        self.drop_times = [] if record_drop_times else None

    def _record_drop(self, now: float, packet: Packet) -> None:
        """Count a drop per flow and show it to the observer, if any.

        Every drop path (arrival rejected, resize eviction, AQM head
        drop) ends here, after updating ``dropped_packets``.
        """
        drops = self.drops_by_flow
        if drops is not None:
            drops[packet.flow_id] += 1
            if self.drop_times is not None:
                self.drop_times.append(now)
        if self.observer is not None:
            self.observer(now, "drop", packet)

    def offer(self, now: float, packet: Packet) -> bool:
        """Try to enqueue ``packet`` at time ``now``.

        Returns ``True`` if accepted, ``False`` if dropped. Subclasses
        implement the admission policy in :meth:`_admit`.
        """
        if self._admit(now, packet):
            self._items.append(packet)
            self.occupancy_bytes += packet.size
            self.enqueued_packets += 1
            if self.sanitizer is not None:
                self.sanitizer.on_enqueue(self, packet)
            if self.arrivals_by_flow is not None:
                self.arrivals_by_flow[packet.flow_id] += 1
            if self.observer is not None:
                self.observer(now, "enqueue", packet)
            return True
        self.dropped_packets += 1
        if self.sanitizer is not None:
            self.sanitizer.on_reject(self, packet)
        self._record_drop(now, packet)
        return False

    def poll(self, now: float = 0.0) -> Optional[Packet]:
        """Dequeue the head-of-line packet, or ``None`` if empty.

        ``now`` is the dequeue time; FIFO disciplines ignore it, but
        AQMs with dequeue-time drop decisions (CoDel) need it.
        """
        if not self._items:
            return None
        packet = self._items.popleft()
        self.occupancy_bytes -= packet.size
        if self.sanitizer is not None:
            self.sanitizer.on_dequeue(self, packet)
        return packet

    def set_capacity(self, capacity_bytes: int, now: float = 0.0) -> None:
        """Resize the buffer (fault-injection hook).

        Shrinking evicts from the *tail* (newest arrivals first) until the
        backlog fits, with full drop accounting — reconfiguring a real
        switch port buffer discards the overflow the same way. Eviction
        happens before the capacity is updated so the occupancy-within-
        capacity invariant holds at every step.
        """
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        while self._items and self.occupancy_bytes > capacity_bytes:
            packet = self._evict_tail()
            self.occupancy_bytes -= packet.size
            self.dropped_packets += 1
            if self.sanitizer is not None:
                self.sanitizer.on_queue_drop(self, packet)
            self._record_drop(now, packet)
        self.capacity_bytes = capacity_bytes

    def _evict_tail(self) -> Packet:
        """Remove and return the newest queued packet (resize eviction)."""
        return self._items.pop()

    def _admit(self, now: float, packet: Packet) -> bool:
        raise NotImplementedError


class DropTailQueue(Queue):
    """FIFO queue that drops arrivals once the byte capacity is exceeded.

    This is the discipline used for every experiment in the paper; tail
    drops under many competing flows are exactly what produces the bursty
    loss pattern behind Findings 1-3.

    ``offer`` is overridden to inline the admission test: drop-tail sits
    on the per-packet hot path of every bottleneck, and the virtual
    ``_admit`` dispatch is measurable at CoreScale. The flattened body is
    behaviourally identical to ``Queue.offer`` + ``_admit``; ``_admit``
    is kept for discipline-agnostic callers.
    """

    __slots__ = ()

    def _admit(self, now: float, packet: Packet) -> bool:
        return self.occupancy_bytes + packet.size <= self.capacity_bytes

    def offer(self, now: float, packet: Packet) -> bool:
        size = packet.size
        occupancy = self.occupancy_bytes
        if occupancy + size <= self.capacity_bytes:
            self._items.append(packet)
            self.occupancy_bytes = occupancy + size
            self.enqueued_packets += 1
            if self.sanitizer is not None:
                self.sanitizer.on_enqueue(self, packet)
            arrivals = self.arrivals_by_flow
            if arrivals is not None:
                arrivals[packet.flow_id] += 1
            observer = self.observer
            if observer is not None:
                observer(now, "enqueue", packet)
            return True
        self.dropped_packets += 1
        if self.sanitizer is not None:
            self.sanitizer.on_reject(self, packet)
        self._record_drop(now, packet)
        return False


class REDQueue(Queue):
    """Random Early Detection (Floyd & Jacobson 1993), gentle variant.

    Provided for the queue-discipline ablation: RED breaks up the
    synchronized burst drops of drop-tail, which is the hypothesised
    mechanism behind the loss-rate/halving-rate divergence at scale.
    """

    def __init__(
        self,
        capacity_bytes: int,
        min_thresh_bytes: Optional[int] = None,
        max_thresh_bytes: Optional[int] = None,
        max_p: float = 0.1,
        weight: float = 0.002,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(capacity_bytes)
        self.min_thresh = min_thresh_bytes if min_thresh_bytes is not None else capacity_bytes // 4
        self.max_thresh = max_thresh_bytes if max_thresh_bytes is not None else capacity_bytes // 2
        if not 0 < self.min_thresh < self.max_thresh <= capacity_bytes:
            raise ValueError("require 0 < min_thresh < max_thresh <= capacity")
        if not 0.0 < max_p <= 1.0:
            raise ValueError("max_p must be in (0, 1]")
        self.max_p = max_p
        self.weight = weight
        self.avg_bytes = 0.0
        self._count_since_drop = -1
        self._rng = rng or random.Random(0x52ED)

    def set_capacity(self, capacity_bytes: int, now: float = 0.0) -> None:
        """Resize, rescaling both RED thresholds proportionally."""
        ratio = capacity_bytes / self.capacity_bytes
        super().set_capacity(capacity_bytes, now)
        self.min_thresh = max(1, int(self.min_thresh * ratio))
        self.max_thresh = min(
            capacity_bytes, max(self.min_thresh + 1, int(self.max_thresh * ratio))
        )

    def _admit(self, now: float, packet: Packet) -> bool:
        if self.occupancy_bytes + packet.size > self.capacity_bytes:
            return False
        self.avg_bytes += self.weight * (self.occupancy_bytes - self.avg_bytes)
        if self.avg_bytes < self.min_thresh:
            self._count_since_drop = -1
            return True
        if self.avg_bytes >= 2 * self.max_thresh:
            self._count_since_drop = 0
            return False
        # Gentle RED: probability ramps from 0..max_p over [min, max), and
        # from max_p..1 over [max, 2*max).
        if self.avg_bytes < self.max_thresh:
            fraction = (self.avg_bytes - self.min_thresh) / (self.max_thresh - self.min_thresh)
            p_base = fraction * self.max_p
        else:
            fraction = (self.avg_bytes - self.max_thresh) / self.max_thresh
            p_base = self.max_p + fraction * (1.0 - self.max_p)
        self._count_since_drop += 1
        denominator = max(1e-9, 1.0 - self._count_since_drop * p_base)
        p_actual = min(1.0, p_base / denominator)
        if self._rng.random() < p_actual:
            self._count_since_drop = 0
            return False
        return True


class CoDelQueue(Queue):
    """CoDel AQM (Nichols & Jacobson 2012), simplified.

    Controlled-delay active queue management: drops at *dequeue* time
    once the head packet's sojourn time has exceeded ``target`` for at
    least ``interval``, with the drop rate accelerating by the inverse-
    sqrt control law. Provided as a second AQM ablation axis beside RED:
    CoDel bounds queueing delay, which changes the RTT regime the
    paper's CoreScale buffer creates.
    """

    TARGET = 0.005     # 5 ms target sojourn
    INTERVAL = 0.100   # 100 ms initial interval

    def __init__(
        self,
        capacity_bytes: int,
        target: float = TARGET,
        interval: float = INTERVAL,
    ) -> None:
        super().__init__(capacity_bytes)
        if target <= 0 or interval <= 0:
            raise ValueError("target and interval must be positive")
        self.target = target
        self.interval = interval
        self._enqueue_times: deque[float] = deque()
        # None while the head sojourn is acceptable — a sentinel rather
        # than 0.0 so no float-equality test is needed to read the state.
        self.first_above_time: Optional[float] = None
        self.dropping = False
        self.drop_next = 0.0
        self.drop_count = 0

    def _admit(self, now: float, packet: Packet) -> bool:
        if self.occupancy_bytes + packet.size > self.capacity_bytes:
            return False
        self._enqueue_times.append(now)
        return True

    def _evict_tail(self) -> Packet:
        self._enqueue_times.pop()
        return self._items.pop()

    def _pop(self) -> Optional[Packet]:
        if not self._items:
            self.first_above_time = None
            return None
        self._enqueue_times.popleft()
        packet = self._items.popleft()
        self.occupancy_bytes -= packet.size
        if self.sanitizer is not None:
            self.sanitizer.on_dequeue(self, packet)
        return packet

    def _sojourn_ok(self, now: float) -> bool:
        """True while the head packet's delay is acceptable."""
        if not self._items:
            self.first_above_time = None
            return True
        sojourn = now - self._enqueue_times[0]
        if sojourn < self.target:
            self.first_above_time = None
            return True
        if self.first_above_time is None:
            self.first_above_time = now + self.interval
            return True
        return now < self.first_above_time

    def _drop_head(self, now: float) -> None:
        self._enqueue_times.popleft()
        packet = self._items.popleft()
        self.occupancy_bytes -= packet.size
        self.dropped_packets += 1
        if self.sanitizer is not None:
            self.sanitizer.on_queue_drop(self, packet)
        self._record_drop(now, packet)

    def poll(self, now: float = 0.0) -> Optional[Packet]:
        if self.dropping:
            if self._sojourn_ok(now):
                self.dropping = False
                return self._pop()
            while self.dropping and now >= self.drop_next and self._items:
                self._drop_head(now)
                self.drop_count += 1
                if self._sojourn_ok(now):
                    self.dropping = False
                    break
                self.drop_next += self.interval / (self.drop_count ** 0.5)
            return self._pop()
        if not self._sojourn_ok(now):
            # Enter the dropping state: drop the head now, schedule the
            # next drop one control interval out.
            self._drop_head(now)
            self.dropping = True
            self.drop_count = 1
            self.drop_next = now + self.interval
        return self._pop()
