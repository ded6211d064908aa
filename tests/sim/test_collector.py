"""The cyclic-collector pause around set-up and event dispatch.

``Simulator.run`` and the set-up half of ``run_experiment`` run with
CPython's cyclic garbage collector paused (``collector_paused``). That
is only safe while the simulator makes no garbage reference cycles:
anything such a cycle holds stays allocated until the collector runs
again. These tests pin where the pause holds, that the caller's
collector state always comes back, and the zero-cycle invariant itself.
"""

from __future__ import annotations

import gc
import random
from typing import Iterator, List

import pytest

from repro.core.experiment import run_experiment
from repro.core.scenarios import edge_scale
from repro.faults import FaultEvent, FaultInjector, FaultSchedule, WatchdogConfig
from repro.faults.watchdog import SimWatchdog
from repro.instrumentation.flowmon import FlowMonitor
from repro.obs import EventBus, SimProfiler, TraceRecorder
from repro.sim.engine import SimulationError, Simulator, collector_paused
from repro.sim.topology import FlowSpec, build_dumbbell
from repro.tcp.cca import CCA_REGISTRY


@pytest.fixture(autouse=True)
def collector_enabled() -> Iterator[None]:
    """Each test starts with the collector on and leaves it on."""
    gc.enable()
    yield
    gc.enable()


class TestPausedWhereExpected:
    def test_handler_runs_with_collector_paused(self, sim):
        seen: List[bool] = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_instrumented_loop_pauses_too(self):
        sim = Simulator(sanitize=True)
        SimProfiler().install(sim)
        seen: List[bool] = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_experiment_setup_is_paused_and_runs_are_not_nested(self, monkeypatch):
        import repro.core.experiment as experiment

        during_setup: List[bool] = []
        between_runs: List[bool] = []
        build = experiment.build_dumbbell
        run = Simulator.run

        def recording_build(*args, **kwargs):
            during_setup.append(gc.isenabled())
            return build(*args, **kwargs)

        def recording_run(self, *args, **kwargs):
            # Caller code between runs must see the collector on, so
            # cycles it makes there are collected as usual.
            between_runs.append(gc.isenabled())
            run(self, *args, **kwargs)

        monkeypatch.setattr(experiment, "build_dumbbell", recording_build)
        monkeypatch.setattr(Simulator, "run", recording_run)
        run_experiment(edge_scale(flows=2, duration=2.0, warmup=1.0, seed=3))
        assert during_setup == [False]
        assert between_runs and all(between_runs)
        assert gc.isenabled()


class TestStateRestored:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_normal_return(self, sim, enabled):
        sim.schedule(1.0, lambda: None)
        _set_collector(enabled)
        sim.run()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_stop(self, sim, enabled):
        fired: List[int] = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, fired.append, 2)
        _set_collector(enabled)
        sim.run()
        assert sim.now == 1.0 and fired == []
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_event_budget_exhausted(self, sim, enabled):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        _set_collector(enabled)
        sim.run(max_events=2)
        assert sim.events_processed == 2
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_handler_raises(self, sim, enabled):
        def boom() -> None:
            raise RuntimeError("handler failed")

        sim.schedule(1.0, boom)
        _set_collector(enabled)
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run()
        assert gc.isenabled() is enabled

    def test_reentrant_run_rejected_without_touching_state(self, sim):
        errors: List[Exception] = []

        def reenter() -> None:
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)
            assert not gc.isenabled()  # still inside the outer pause

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_whole_experiment(self, enabled):
        _set_collector(enabled)
        run_experiment(edge_scale(flows=2, duration=2.0, warmup=1.0, seed=3))
        assert gc.isenabled() is enabled

    def test_pauses_nest(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _network(cca: str, observed: bool):
    """A started four-flow dumbbell, optionally with every optional
    attachment: sanitizer, profiler, trace recorder on a bus, fault
    injector and watchdog. Returns the simulator and the recorder (or
    ``None``); whatever the simulator does not reach is let go, so a
    cycle among such objects would show as garbage."""
    sim = Simulator(sanitize=observed)
    specs = [
        FlowSpec(
            cca=CCA_REGISTRY[cca](),
            rtt=0.020 + 0.005 * i,
            start_time=0.01 * i,
            jitter=0.001,
            jitter_seed=i,
        )
        for i in range(4)
    ]
    dumbbell = build_dumbbell(sim, specs, bottleneck_bw_bps=20e6, buffer_bytes=60_000)
    recorder = None
    if observed:
        bus = EventBus()
        for flow in dumbbell.flows:
            bus.bind_sender(flow.sender)
        bus.bind_queue(dumbbell.queue)
        recorder = TraceRecorder(bus)
        SimProfiler().install(sim)
        monitor = FlowMonitor(sim, [flow.sender for flow in dumbbell.flows])
        injector = FaultInjector(
            sim,
            FaultSchedule(
                [
                    FaultEvent("link_down", time=1.0, duration=0.3),
                    FaultEvent("burst_loss", time=1.5, duration=0.5, value=0.3),
                    FaultEvent("rtt", time=2.0, duration=0.5, value=3.0),
                ]
            ),
            dumbbell,
            rng=random.Random(3),
            bus=bus,
        )
        injector.arm()
        dog = SimWatchdog(
            sim, monitor, [spec.start_time for spec in specs],
            config=WatchdogConfig(stall_budget=5.0),
        )
        dog.arm()
    dumbbell.start_all()
    return sim, recorder


class TestNoGarbageCycles:
    """The invariant the pause rests on: set-up and dispatch leave no
    unreachable reference cycles, so the paused collector misses nothing."""

    @pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
    @pytest.mark.parametrize("cca", ["newreno", "cubic", "bbr"])
    def test_dumbbell_run(self, cca, observed):
        gc.collect()
        with collector_paused():
            sim, recorder = _network(cca, observed)
            sim.run(until=3.0)
            assert sim.events_processed > 5_000
            # The simulator and its network are still alive here.
            assert gc.collect() == 0
        if observed:
            assert recorder is not None and recorder.events

    def test_unreachable_count_does_not_grow_with_span(self, monkeypatch):
        run = Simulator.run
        found: List[int] = []

        def collecting_run(self, *args, **kwargs):
            # Before: garbage cycles from set-up or caller code; after:
            # garbage cycles the dispatch itself made.
            found.append(gc.collect())
            run(self, *args, **kwargs)
            found.append(gc.collect())

        monkeypatch.setattr(Simulator, "run", collecting_run)

        def unreachable(duration: float) -> List[int]:
            gc.collect()  # the previous experiment's network, now dead
            found.clear()
            bus = EventBus()
            TraceRecorder(bus)
            run_experiment(
                edge_scale(flows=3, cca="bbr", duration=duration, warmup=1.0, seed=7),
                fault_schedule=FaultSchedule([FaultEvent("link_down", time=1.5, duration=0.5)]),
                watchdog=WatchdogConfig(stall_budget=10.0),
                bus=bus,
                profiler=SimProfiler(),
            )
            return list(found)

        short = unreachable(3.0)
        long = unreachable(6.0)
        assert len(short) == len(long) == 6  # before and after three runs
        assert sum(long) <= sum(short) == 0
