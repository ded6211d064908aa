"""The benchmark's three workloads and the property each one must show.

Each workload is one ``run_experiment`` call on a paper operating point.
Why each exists, and which layer metrics it is meant to move, is written
down in ``perfbench/README.md``; the one-line ``why`` below is the same
text ``BENCHMARK.json`` carries.

A workload's ``check`` runs after every run, traced or not, and returns
the reason the run does not show the property the workload was chosen
for (``None`` when it does). A shrunken span or a changed default that
hollows a workload out therefore fails loudly instead of quietly
measuring something else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.core.experiment import run_experiment
from repro.core.results import ExperimentResult
from repro.core.scenarios import Scenario, core_scale, edge_scale
from repro.obs import EventBus, SimProfiler, TraceRecorder, write_trace_jsonl
from repro.trace import write_result_json


class CollectingBus(EventBus):
    """An event bus that also keeps the senders and queues bound to it.

    ``run_experiment`` binds every sender and the bottleneck queue to
    the bus it is given, once, during set-up; keeping them here lets the
    benchmark read their counters after the run without touching the
    per-packet path.
    """

    def __init__(self) -> None:
        super().__init__()
        self.senders: List[Any] = []
        self.queues: List[Any] = []

    def bind_sender(self, sender: Any) -> Any:
        self.senders.append(sender)
        return super().bind_sender(sender)

    def bind_queue(self, queue: Any) -> Any:
        self.queues.append(queue)
        return super().bind_queue(queue)


class Run:
    """One experiment of a workload: its observers, result and export."""

    def __init__(self, scenario: Scenario, observed: bool) -> None:
        self.scenario = scenario
        self.bus = CollectingBus()
        self.profiler: Optional[SimProfiler] = None
        self.recorder: Optional[TraceRecorder] = None
        if observed:
            # As ``repro run --profile --trace FILE`` sets the run up.
            self.profiler = SimProfiler()
            self.recorder = TraceRecorder(self.bus, start_time=scenario.warmup)
        self.result: Optional[ExperimentResult] = None
        self.export_rows = 0
        self.export_bytes = 0

    def simulate(
        self, experiment: Callable[..., ExperimentResult] = run_experiment
    ) -> ExperimentResult:
        self.result = experiment(self.scenario, bus=self.bus, profiler=self.profiler)
        return self.result

    def export(self, path: str) -> None:
        """Write the run's artifact: the JSONL trace of an observed run,
        otherwise the result document (scenario and per-flow results)."""
        assert self.result is not None
        if self.recorder is not None:
            self.export_rows = write_trace_jsonl(self.recorder, path, result=self.result)
        else:
            write_result_json(self.result, path)
        self.export_bytes = os.path.getsize(path)

    @property
    def packets_sent(self) -> int:
        assert self.result is not None
        return sum(flow.packets_sent for flow in self.result.flows)


def _check_core5000(run: Run) -> Optional[str]:
    result = run.result
    assert result is not None
    halvings = sum(flow.halvings for flow in result.flows)
    if result.queue_drops == 0 or halvings == 0:
        return (
            f"no loss epoch after warm-up (drops={result.queue_drops}, "
            f"halvings={halvings}): the span ends before SACK recovery starts"
        )
    return None


def _check_core100(run: Run) -> Optional[str]:
    # ``_send_timer`` is only ever set when the send loop defers a
    # packet to its pacing time.
    paced = sum(1 for s in run.bus.senders if s._send_timer is not None)
    if paced == 0:
        return "no sender armed a pacing timer"
    return None


def _check_edge50(run: Run) -> Optional[str]:
    if run.export_rows <= 0 or run.export_bytes <= 0:
        return f"empty trace export ({run.export_rows} rows, {run.export_bytes} bytes)"
    assert run.profiler is not None
    if run.profiler.events == 0:
        return "the profiler saw no events"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: Callable[[int], Scenario]
    #: Run with a profiler and a trace recorder, and export the trace.
    observed: bool
    check: Callable[[Run], Optional[str]]

    def new_run(self, seed: int) -> Run:
        return Run(self.scenario(seed), self.observed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="core5000-reno",
            why="the paper's literal CoreScale: 5000 NewReno flows on 10 Gbps, "
            "where set-up, per-flow memory and SACK recovery dominate",
            # The 250 MB buffer takes 0.2 s to fill; the first halvings
            # come after 0.4 s, so a shorter span has drops but no
            # recovery to measure.
            scenario=lambda seed: core_scale(
                flows=5000, cca="newreno", scale=1, duration=0.5, warmup=0.2, seed=seed
            ),
            observed=False,
            check=_check_core5000,
        ),
        Workload(
            name="core100-bbr",
            why="the Fig 4 quick-profile point in steady state: 100 BBR flows "
            "whose pacing timers give the most engine events per packet",
            # Flows start within 0.6 s and leave BBR startup within a
            # few 20 ms RTTs, so most of the span is steady state.
            scenario=lambda seed: core_scale(
                flows=5000, cca="bbr", scale=50, duration=4.0, warmup=1.0, seed=seed
            ),
            observed=False,
            check=_check_core100,
        ),
        Workload(
            name="edge50-observed",
            why="50 CUBIC flows run as 'repro run --profile --trace' runs them: "
            "the profiled loop, per-packet trace rows and a JSONL export",
            scenario=lambda seed: edge_scale(
                flows=50, cca="cubic", duration=10.0, warmup=4.0, seed=seed
            ),
            observed=True,
            check=_check_edge50,
        ),
    )
}
