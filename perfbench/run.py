#!/usr/bin/env python3
"""Simulator benchmark: three paper workloads, digest-checked runs, and a
traced per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload core100-bbr --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached to
the simulator: repeated set-ups (each stopped at its first
``Simulator.run``), then whole runs of the workload until ``--seconds``
is spent, each followed by its export. ``--trace 1`` makes one untraced
run, one set-up under ``tracemalloc``, then one run with every layer's
entry points wrapped (see ``layers.py``), and reports the per-layer
metrics. Every run's result digest is compared with the one recorded in
``digests.json`` for that workload and seed (or, for a seed not
recorded there, with the first run of this process), and every run must
show the property its workload was chosen for (``workloads.py``). Each
failure is counted against the operations attempted.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--workload
all`` each workload runs in its own child process, one after another,
so that ``peak_rss_mb`` stays the peak of a process that ran only that
workload, and the metric names are prefixed with the workload's name.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

clock = time.perf_counter

#: Set-up is repeated at least SETUP_MIN times per run, and for small
#: workloads until SETUP_SHARE of the run's seconds or SETUP_MAX repeats.
SETUP_MIN = 5
SETUP_MAX = 201
SETUP_SHARE = 0.1
#: Each run's export is repeated at least EXPORT_MIN times, and up to
#: EXPORT_MAX times until EXPORT_S host seconds are spent.
EXPORT_MIN = 3
EXPORT_MAX = 50
EXPORT_S = 0.5
#: Host seconds a slice of a measured ``Simulator.run`` aims to take.
SLICE_S = 0.1


class _Packet:
    __slots__ = ("seq", "acked", "flow")

    def __init__(self, seq: int, flow: "_Flow") -> None:
        self.seq = seq
        self.acked = False
        self.flow = flow


class _Flow:
    __slots__ = ("sent", "unacked", "una")

    def __init__(self) -> None:
        self.sent = 0
        self.unacked: Dict[int, _Packet] = {}
        self.una = 0

    def send(self, heap: List[Any], now: float, order: int) -> None:
        seq = self.sent
        self.sent = seq + 1
        packet = self.unacked[seq] = _Packet(seq, self)
        heapq.heappush(heap, [now + (seq * 7919 % 97) * 1e-4, order, packet])

    def ack(self, packet: _Packet) -> None:
        packet.acked = True
        unacked = self.unacked
        while self.una in unacked and unacked[self.una].acked:
            del unacked[self.una]
            self.una += 1


def calibration_kernel(n: int = 2_500) -> float:
    """Host seconds for a fixed piece of pure-Python work.

    The work is a toy event loop shaped like the simulator's: slotted
    objects and their methods, per-flow dicts and a binary heap of list
    events. It uses no code of the program, so it measures the host, not
    the commit. The cyclic collector is paused while it runs: its
    allocations would otherwise start collections over the simulator's
    objects, which can take longer than the kernel itself.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        flows = [_Flow() for _ in range(64)]
        heap: List[Any] = []
        now = 0.0
        for i in range(n):
            flows[i & 63].send(heap, now, i)
            if len(heap) > 512:
                event = heapq.heappop(heap)
                now = event[0]
                event[2].flow.ack(event[2])
        elapsed = clock() - start
        del flows, heap
    finally:
        if collecting:
            gc.enable()
    return elapsed


class HostClock:
    """Host time scaled to a reference host (see README.md).

    A shared host can change speed by 10-20% from one second to the
    next, and the simulator's speed moves with the calibration kernel's.
    So timed work is cut into short segments, each ended by one run of
    the kernel, and a segment's host time is scaled by REFERENCE_S over
    the mean kernel time on either side of it: it reads as it would on a
    host where the kernel takes REFERENCE_S.
    """

    REFERENCE_S = 0.005

    def __init__(self) -> None:
        self.kernel_s: List[float] = [calibration_kernel()]
        self._mark = clock()

    def cut(self) -> float:
        """Scaled seconds since the previous cut; then runs the kernel."""
        elapsed = clock() - self._mark
        self.kernel_s.append(calibration_kernel())
        self._mark = clock()
        return elapsed * 2 * self.REFERENCE_S / (self.kernel_s[-2] + self.kernel_s[-1])


def _require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no simulator source under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)


class SetupDone(Exception):
    """Raised at the first ``Simulator.run`` of a set-up-only run."""


class RunProbe:
    """Patches ``Simulator.run`` to time an experiment's two phases.

    The first ``Simulator.run`` call of an experiment ends its set-up.
    With a :class:`HostClock` attached, each call then runs in slices of
    simulated time sized to take about SLICE_S host seconds, with a clock
    cut after each. Slicing ``run(until=T)`` into ``run(until=t1)``,
    ``run(until=t2)``, ... ``run(until=T)`` executes the same events in
    the same order (the digest check holds every run to it), and
    ``run_experiment`` calls ``Simulator.run`` only twice per experiment.
    """

    def __init__(self) -> None:
        from repro.sim.engine import Simulator

        self._sim_cls = Simulator
        self._original = Simulator.__dict__["run"]
        self.host: Optional[HostClock] = None
        self.abort = False
        self.hook: Optional[Callable[[], None]] = None
        self.started = 0.0
        self.setup_s: Optional[float] = None
        self.run_s = 0.0
        self._slice = 1e-3

    def reset(
        self,
        host: Optional[HostClock] = None,
        abort: bool = False,
        hook: Optional[Callable[[], None]] = None,
    ) -> None:
        self.host = host
        self.abort = abort
        self.hook = hook
        self.setup_s = None
        self.run_s = 0.0
        self.started = clock()

    def install(self) -> None:
        original = self._original
        probe = self

        def run(sim: Any, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
            host = probe.host
            if probe.setup_s is None:
                probe.setup_s = host.cut() if host else clock() - probe.started
                if probe.hook is not None:
                    probe.hook()
                if probe.abort:
                    raise SetupDone
            if host is None or until is None:
                original(sim, until, max_events)
                return
            while True:
                target = min(sim.now + probe._slice, until)
                began = clock()
                original(sim, target, max_events)
                took = clock() - began
                probe.run_s += host.cut()
                if sim.now < target or target >= until:
                    return  # stopped early, or done
                probe._slice *= min(4.0, max(0.25, SLICE_S / max(took, 1e-6)))

        self._sim_cls.run = run  # type: ignore[method-assign]

    def uninstall(self) -> None:
        self._sim_cls.run = self._original  # type: ignore[method-assign]


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, op: Callable[[], Optional[str]]) -> bool:
        """Run one operation; it fails by raising or returning a reason."""
        self.attempted += 1
        try:
            problem = op()
        except Exception:  # a failed operation is reported, not fatal
            traceback.print_exc()
            problem = "raised"
        if problem:
            self.failed += 1
            print(f"FAILED {label}: {problem}", file=sys.stderr)
            return False
        return True


class DigestBook:
    """The result digest every run of one workload and seed must give."""

    def __init__(self, workload: str, seed: int) -> None:
        with open(DIGESTS) as fh:
            self.expected: Optional[str] = json.load(fh).get(workload, {}).get(str(seed))
        self.source = "digests.json" if self.expected else "first run"

    def check(self, digest: str) -> Optional[str]:
        if self.expected is None:
            self.expected = digest
        if digest != self.expected:
            return f"result digest {digest} differs from the {self.source}'s {self.expected}"
        return None


class Bench:
    """One workload and seed, measured in this process."""

    def __init__(self, workload_name: str, seed: int, tmp: str) -> None:
        from workloads import WORKLOADS

        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.export_path = os.path.join(tmp, "export")
        self.digests = DigestBook(workload_name, seed)
        self.tally = Tally()
        self.probe = RunProbe()
        self.probe.install()

    def close(self) -> None:
        self.probe.uninstall()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def setup_only(self, host: Optional[HostClock] = None, hook: Any = None) -> float:
        """Set-up seconds of one run stopped at its first ``Simulator.run``."""
        run = self.workload.new_run(self.seed)
        gc.collect()
        if host is not None:
            host.cut()
        self.probe.reset(host, abort=True, hook=hook)
        try:
            run.simulate()
        except SetupDone:
            assert self.probe.setup_s is not None
            return self.probe.setup_s
        raise RuntimeError("run_experiment returned without calling Simulator.run")

    def full_run(
        self,
        host: Optional[HostClock] = None,
        experiment: Optional[Callable[..., Any]] = None,
    ) -> Dict[str, Any]:
        """One whole run; returns its timings, digest and the run."""
        from repro.core.goldens import result_digest

        run = self.workload.new_run(self.seed)
        gc.collect()
        if host is not None:
            host.cut()
        self.probe.reset(host)
        start = clock()
        if experiment is None:
            run.simulate()
        else:
            run.simulate(experiment)
        end = clock()
        probe = self.probe
        assert probe.setup_s is not None and run.result is not None
        run_s = probe.run_s + host.cut() if host else end - start - probe.setup_s
        return {
            "run": run,
            "setup_s": probe.setup_s,
            "run_s": run_s,
            "wall_s": end - start,
            "digest": result_digest(run.result),
        }

    def check(self, outcome: Dict[str, Any]) -> Optional[str]:
        return self.digests.check(outcome["digest"]) or self.workload.check(outcome["run"])

    def export(self, run: Any, host: HostClock) -> List[float]:
        samples: List[float] = []
        while len(samples) < EXPORT_MIN or (
            len(samples) < EXPORT_MAX and sum(samples) < EXPORT_S
        ):
            host.cut()
            run.export(self.export_path)
            samples.append(host.cut())
        return samples

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------

    def end_to_end(self, seconds: float) -> Dict[str, Any]:
        setup: List[float] = []
        pkts_per_s: List[float] = []
        export: List[float] = []

        def warm_up() -> None:
            self.setup_only()

        def one_setup() -> None:
            setup.append(self.setup_only(host))

        def one_run() -> Optional[str]:
            outcome = self.full_run(host)
            run = outcome["run"]
            exports = self.export(run, host)
            problem = self.check(outcome)
            if problem is None:
                setup.append(outcome["setup_s"])
                pkts_per_s.append(run.packets_sent / outcome["run_s"])
                export.extend(exports)
            return problem

        # Untimed: the first set-up in a process pays one-off costs.
        self.tally.attempt("warm-up set-up", warm_up)
        host = HostClock()
        start = clock()
        while len(setup) < SETUP_MIN or (
            len(setup) < SETUP_MAX and clock() - start < SETUP_SHARE * seconds
        ):
            if not self.tally.attempt("set-up", one_setup):
                break
        last_cost = 0.0
        while not pkts_per_s or clock() - start + last_cost <= seconds:
            began = clock()
            ok = self.tally.attempt("run", one_run)
            last_cost = clock() - began
            if not ok and not pkts_per_s:
                break
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"digest {self.digests.expected} ({self.digests.source})")
        print(
            f"samples: {len(setup)} set-ups, {len(pkts_per_s)} runs, {len(export)} exports; "
            f"calibration kernel median {statistics.median(host.kernel_s):.4f} s over "
            f"{len(host.kernel_s)} cuts (times scaled to {HostClock.REFERENCE_S} s)"
        )
        metrics = {
            "setup_s": (setup, "s"),
            "pkts_per_s": (pkts_per_s, "1/s"),
            "export_s": (export, "s"),
        }
        out = {
            name: {"value": statistics.median(values), "unit": unit}
            for name, (values, unit) in metrics.items()
            if values
        }
        out["peak_rss_mb"] = {"value": peak_kib * 1024 / 1e6, "unit": "MB"}
        return out

    def traced(self) -> Dict[str, Any]:
        from layers import LAYERS, LayerTracer, layer_of_module

        from repro.core.experiment import run_experiment

        untraced: Dict[str, Any] = {}

        def untraced_run() -> Optional[str]:
            untraced.update(self.full_run())
            untraced["run"].export(self.export_path)
            return self.check(untraced)

        live_bytes: Dict[str, int] = {}

        def snapshot() -> None:
            for stat in tracemalloc.take_snapshot().statistics("filename"):
                path = os.path.relpath(stat.traceback[0].filename, SRC)
                layer = layer_of_module(os.path.splitext(path)[0].replace(os.sep, "."))
                if layer is not None:
                    live_bytes[layer] = live_bytes.get(layer, 0) + stat.size

        def setup_memory() -> None:
            tracemalloc.start()
            try:
                self.setup_only(hook=snapshot)
            finally:
                tracemalloc.stop()

        traced: Dict[str, Any] = {}
        export = {"s": 0.0}
        tracer = LayerTracer()

        def traced_run() -> Optional[str]:
            tracer.install()
            try:
                traced.update(
                    self.full_run(experiment=tracer.wrap(run_experiment, "core.experiment"))
                )
                run = traced["run"]
                if run.recorder is not None:
                    start = clock()
                    tracer.wrap(run.export, "obs")(self.export_path)
                    export["s"] = clock() - start
                else:
                    run.export(self.export_path)
            finally:
                tracer.uninstall()
            return self.check(traced)

        ok = self.tally.attempt("untraced run", untraced_run)
        ok = self.tally.attempt("set-up under tracemalloc", setup_memory) and ok
        ok = self.tally.attempt("traced run", traced_run) and ok
        print(f"digest {self.digests.expected} ({self.digests.source})")
        if not ok:
            return {}

        run = traced["run"]
        result = run.result
        packets = run.packets_sent
        flows = len(result.flows)
        metrics: Dict[str, Any] = {}

        def put(name: str, value: float, unit: str) -> None:
            metrics[name] = {"value": value, "unit": unit}

        for layer in LAYERS:
            put(f"{layer}.calls_per_pkt", tracer.layer_calls(layer) / packets, "count")
            put(f"{layer}.self_us_per_pkt", tracer.self_s.get(layer, 0.0) * 1e6 / packets, "us")
            put(f"{layer}.kb_per_flow", live_bytes.get(layer, 0) / 1024 / flows, "KiB")
        put("sim.engine.events_per_pkt", result.events_processed / packets, "count")
        put("sim.engine.cancel_share", tracer.cancels / tracer.schedules, "ratio")
        put("sim.engine.peak_pending", tracer.peak_pending, "count")
        dropped = sum(q.dropped_packets for q in run.bus.queues)
        arrived = dropped + sum(q.enqueued_packets for q in run.bus.queues)
        put("sim.queue.drop_share", dropped / arrived, "ratio")
        retransmits = sum(f.retransmits for f in result.flows)
        put("tcp.connection.retx_share", retransmits / packets, "ratio")
        acks = sum(s.stats.acks_received for s in run.bus.senders)
        put("tcp.connection.acks_per_pkt", acks / packets, "count")
        rows = run.export_rows
        put("obs.trace_rows", rows, "count")
        put("obs.export_us_per_row", export["s"] * 1e6 / rows if rows else 0.0, "us")
        put("obs.export_mb", run.export_bytes / 1e6 if rows else 0.0, "MB")
        put("trace.overhead_ratio", traced["wall_s"] / untraced["wall_s"], "ratio")

        print(f"{'layer':16s} {'from':16s} {'calls':>10s} {'span_s':>9s}")
        for layer, parent, calls, span_s in tracer.ledger():
            print(f"{layer:16s} {parent:16s} {calls:10d} {span_s:9.3f}")
        return metrics


def _print_metrics(workload: str, metrics: Dict[str, Any]) -> None:
    for name, entry in metrics.items():
        print(f"{workload:16s} {name:36s} {entry['value']:>14.6g} {entry['unit']}")


def run_one(args: argparse.Namespace) -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        bench = Bench(args.workload, args.seed, tmp)
        try:
            metrics = bench.traced() if args.trace else bench.end_to_end(args.seconds)
        finally:
            bench.close()
    _print_metrics(args.workload, metrics)
    tally = bench.tally
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if metrics else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child process, one after another."""
    from workloads import WORKLOADS

    attempted = failed = 0
    metrics: Dict[str, Any] = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            summary = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(
                f"perfbench: {name} printed no result (exit {child.returncode})",
                file=sys.stderr,
            )
            attempted += 1
            failed += 1
            continue
        attempted += summary["attempted"]
        failed += summary["failed"]
        for metric, entry in summary["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    _require_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
