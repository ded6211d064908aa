"""Multi-subscriber event bus for simulation observability.

The bus is the one optional observation path into a run. Senders and
queues count what the results need themselves (``ConnectionStats``,
``Queue.dropped_packets`` and the per-flow queue counts); each also has
a single ``observer`` hook, and the bus is what installs it. Observers
subscribe to typed topics, and :meth:`EventBus.bind_sender` /
:meth:`EventBus.bind_queue` give each component at most one hook that
fans its events out to every subscriber.

Topics and payloads (every subscriber receives ``fn(now, *payload)``):

========  ==========================================  =================
topic     payload after ``now``                       source
========  ==========================================  =================
cwnd      ``flow_id, kind, cwnd``                     :meth:`bind_sender`
loss      ``flow_id, cwnd`` (fast-recovery entries)   :meth:`bind_sender`
rto       ``flow_id, cwnd`` (retransmission timeouts) :meth:`bind_sender`
enqueue   ``packet``                                  :meth:`bind_queue`
drop      ``packet``                                  :meth:`bind_queue`
fault     ``description`` (injector audit trail)      :meth:`publish`
========  ==========================================  =================

Design notes
------------
- **Nothing observed, nothing called.** A bound component gets its hook
  only once a subscription could reach it; until then its ``observer``
  stays ``None`` and the per-ACK and per-packet paths pay one ``is
  None`` test. A subscription made after binding installs the hook
  then, so late subscribers still see every later event.
- **Per-flow subscriptions.** ``subscribe(topic, fn, flow=fid)``
  delivers only that flow's sender events. At 5000-flow CoreScale this
  keeps per-flow observers O(1) per event instead of O(flows)
  filtering.
- **Ordering.** Subscribers fire in subscription order, wildcard
  (``flow=None``) subscribers before per-flow ones — deterministic, and
  part of the run's reproducibility contract.
- Observers must not mutate simulation state; the bus is a read-only
  tap and byte-identical results with and without subscribers attached
  is an invariant the CI obs-smoke job enforces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..sim.queue import Queue
    from ..tcp.connection import TcpSender

#: The closed set of event topics.
TOPICS: Tuple[str, ...] = ("cwnd", "loss", "rto", "enqueue", "drop", "fault")

#: The topics a bound sender / queue feeds.
_SENDER_TOPICS: Tuple[str, ...] = ("cwnd", "loss", "rto")
_QUEUE_TOPICS: Tuple[str, ...] = ("enqueue", "drop")

#: A bus subscriber: called as ``fn(now, *payload)`` (see module table).
Subscriber = Callable[..., None]

#: A component's hook, waiting for its first subscriber:
#: ``(component, hook, topics, flow)``.
_Binding = Tuple[Union["TcpSender", "Queue"], Callable[..., None], Tuple[str, ...], Optional[int]]


class EventBus:
    """Typed-topic publish/subscribe hub for one simulation run."""

    def __init__(self) -> None:
        # Keyed by (topic, flow): flow=None is the wildcard list. Lists
        # are created once and captured by identity in hooks, so a
        # subscription made after binding reaches an installed hook.
        self._subs: Dict[Tuple[str, Optional[int]], List[Subscriber]] = {}
        # Bound components whose hook is not installed yet.
        self._idle: List[_Binding] = []

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------

    def _list(self, topic: str, flow: Optional[int] = None) -> List[Subscriber]:
        if topic not in TOPICS:
            known = ", ".join(TOPICS)
            raise ValueError(f"unknown topic {topic!r}; known topics: {known}")
        return self._subs.setdefault((topic, flow), [])

    def subscribe(
        self, topic: str, fn: Subscriber, flow: Optional[int] = None
    ) -> Subscriber:
        """Append ``fn`` to a topic's ordered subscriber list.

        ``flow`` restricts delivery to one flow's events (topics that
        carry a flow id); ``None`` subscribes to every flow. Returns
        ``fn`` so the handle can be kept for :meth:`unsubscribe`.
        """
        self._list(topic, flow).append(fn)
        if self._idle:
            idle, self._idle = self._idle, []
            for binding in idle:
                self._install(*binding)
        return fn

    def unsubscribe(
        self, topic: str, fn: Subscriber, flow: Optional[int] = None
    ) -> None:
        """Remove a previously subscribed callback (ValueError if absent)."""
        self._list(topic, flow).remove(fn)

    def subscribers(self, topic: str, flow: Optional[int] = None) -> Tuple[Subscriber, ...]:
        """The current subscriber list (a snapshot), in dispatch order."""
        return tuple(self._subs.get((topic, flow), ()))

    def has_subscribers(self, topic: str) -> bool:
        """True if *any* subscription (wildcard or per-flow) targets ``topic``."""
        return any(
            key[0] == topic and subs for key, subs in self._subs.items()
        )

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def publish(self, topic: str, now: float, *payload: Any) -> None:
        """Deliver an event to a topic's wildcard subscribers.

        Sources without a flow identity (the fault injector) publish
        here directly; sender/queue events go through the hooks
        installed by :meth:`bind_sender` / :meth:`bind_queue`.
        """
        for fn in self._list(topic):
            fn(now, *payload)

    # ------------------------------------------------------------------
    # Component binding
    # ------------------------------------------------------------------

    def _install(
        self,
        component: Union["TcpSender", "Queue"],
        hook: Callable[..., None],
        topics: Tuple[str, ...],
        flow: Optional[int],
    ) -> None:
        """Install ``hook`` once a subscription could reach it, else park it."""
        subs = self._subs
        if any(subs.get((topic, None)) or subs.get((topic, flow)) for topic in topics):
            component.observer = hook
        else:
            self._idle.append((component, hook, topics, flow))

    @staticmethod
    def _check_unobserved(component: Union["TcpSender", "Queue"]) -> None:
        if component.observer is not None:
            raise RuntimeError(
                f"{type(component).__name__} already has an observer; "
                "a component can be bound to one bus only"
            )

    def bind_sender(self, sender: "TcpSender") -> Callable[[float, str, float], None]:
        """Forward one sender's cwnd events onto ``cwnd``/``loss``/``rto``.

        Returns the sender's hook. It is installed as ``sender.observer``
        as soon as a subscription for this flow's topics exists (now or
        later), and sees every cwnd event, including the per-ACK
        ``"ack"`` kind.
        """
        self._check_unobserved(sender)
        fid = sender.flow_id
        cwnd_all = self._list("cwnd")
        cwnd_one = self._list("cwnd", fid)
        loss_all = self._list("loss")
        loss_one = self._list("loss", fid)
        rto_all = self._list("rto")
        rto_one = self._list("rto", fid)

        def forward(now: float, kind: str, cwnd: float) -> None:
            for fn in cwnd_all:
                fn(now, fid, kind, cwnd)
            for fn in cwnd_one:
                fn(now, fid, kind, cwnd)
            if kind == "loss_event":
                for fn in loss_all:
                    fn(now, fid, cwnd)
                for fn in loss_one:
                    fn(now, fid, cwnd)
            elif kind == "rto":
                for fn in rto_all:
                    fn(now, fid, cwnd)
                for fn in rto_one:
                    fn(now, fid, cwnd)

        self._install(sender, forward, _SENDER_TOPICS, fid)
        return forward

    def bind_queue(self, queue: "Queue") -> Callable[[float, str, Any], None]:
        """Forward a queue's arrivals/drops onto ``enqueue``/``drop``.

        Returns the queue's hook, installed as ``queue.observer`` as soon
        as either topic has a subscriber.
        """
        self._check_unobserved(queue)
        enqueue_subs = self._list("enqueue")
        drop_subs = self._list("drop")

        def forward(now: float, kind: str, packet: Any) -> None:
            for fn in enqueue_subs if kind == "enqueue" else drop_subs:
                fn(now, packet)

        self._install(queue, forward, _QUEUE_TOPICS, None)
        return forward
