"""One benchmark run: set up a workload, time its operations for a
fixed number of seconds, check every output, and report metrics.

With ``trace=False`` the run reports the end-to-end metrics. With
``trace=True`` it alternates untraced and traced operations and reports
the per-layer metrics, including the tracing overhead between the two.
The host-time end-to-end metrics (``rows_per_s``, ``setup_s``) are
scaled to a reference host speed by a calibration kernel timed around
every operation (see :class:`Calibration`); simulated metrics are not.
"""

from __future__ import annotations

import heapq
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.tracing import Span, Tracer, write_spans
from perfbench.workloads import (
    HOST_TIME_METRICS,
    LAYER_UNITS,
    TARGETS,
    LayerProbe,
    Workload,
    nearest_rank,
)
from repro.mem import NumpyManager

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 15

#: Timed operations per run, at least, however short ``seconds`` is.
MIN_OPS = 3

#: Nominal time of the calibration kernel. Host-time metrics are
#: reported for a host on which the kernel takes this long.
CALIB_REF_S = 0.1

END_TO_END_UNITS = {
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "sim_s": "s",
    "sim_p50_us": "us",
    "sim_p999_us": "us",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Operations attempted and failed, and the first simulated
    signature every later operation must repeat exactly."""

    attempted: int = 0
    failed: int = 0
    signature: Any = None
    layer_counts: dict | None = None
    notes: list[str] = field(default_factory=list)


class Calibration:
    """Tracks the shared host's speed, which drifts by tens of percent
    within a minute, so host-time metrics can cancel the drift.

    The kernel uses no library code: a heap-driven event loop in pure
    Python and a numpy distance pass, the two kinds of work the
    workloads do. It runs once on creation and again at each
    :meth:`speed` call; the mean of the two runs around an interval
    estimates the host's speed during it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.random((4_000, 32))
        self.c = rng.random((32, 32))
        self.last_s = self.run()

    def run(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            heap: list[tuple[int, int]] = []
            for i in range(20_000):
                heapq.heappush(heap, ((i * 7919) % 1000, i))
            totals: dict[int, int] = {}
            while heap:
                key, value = heapq.heappop(heap)
                totals[key] = totals.get(key, 0) + value
        x, c = self.x, self.c
        for _ in range(25):
            d = (x * x).sum(1)[:, None] - 2.0 * x @ c.T + (c * c).sum(1)
            d.argmin(1)
        return time.perf_counter() - t0

    def speed(self) -> float:
        """Host speed relative to the reference since the previous
        call: above 1 when the host ran faster than the reference."""
        before, self.last_s = self.last_s, self.run()
        return CALIB_REF_S / ((before + self.last_s) / 2)


def _timed(call) -> tuple[Any, float]:
    t0 = time.perf_counter()
    result = call()
    return result, time.perf_counter() - t0


class Runner:
    """Runs and checks operations of one workload on fixed inputs."""

    def __init__(self, wl: Workload, inputs: dict) -> None:
        self.wl = wl
        self.inputs = inputs
        self.ref = wl.reference(inputs)
        self.tally = Tally()

    def _account(self, outcome) -> None:
        t = self.tally
        ops = self.wl.operations(outcome)
        t.attempted += ops
        sig = self.wl.signature(outcome)
        if t.signature is None:
            t.signature = sig
        elif sig != t.signature:
            t.failed += ops
            t.notes.append("simulated results differ between operations")
            return
        bad = self.wl.failures(self.inputs, self.ref, outcome)
        if bad:
            t.notes.append(f"{bad} operations disagree with the reference")
        t.failed += bad

    def untraced(self):
        """One operation with tracing off; ``(outcome, host_s)``."""
        call = self.wl.prepare(self.inputs, (), NumpyManager())
        result, host_s = _timed(call)
        outcome = self.wl.outcome(self.inputs, result)
        self._account(outcome)
        return outcome, host_s

    def traced(self):
        """One operation with every layer wrapped; returns
        ``(outcome, host_s, layer metrics, spans)``."""
        probe = LayerProbe()
        manager = NumpyManager()
        call = self.wl.prepare(self.inputs, (probe,), manager)
        tracer = Tracer(TARGETS, probe.hooks())
        with tracer.installed():
            result, host_s = _timed(call)
        outcome = self.wl.outcome(self.inputs, result)
        self._account(outcome)
        layers = self.wl.layer_metrics(probe, tracer.spans, outcome, manager)
        counts = {k: v for k, v in layers.items()
                  if k not in HOST_TIME_METRICS}
        t = self.tally
        if t.layer_counts is None:
            t.layer_counts = counts
        elif counts != t.layer_counts:
            t.failed += self.wl.operations(outcome)
            t.notes.append("per-layer counts differ between operations")
        return outcome, host_s, layers, tracer.spans


def measure(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    spans_path: Path | None = None,
) -> dict:
    """One run; returns the result object the command prints."""
    calibration = Calibration()
    setup_s = []
    for _ in range(SETUP_REPS):
        inputs = None  # free the previous copy before building the next
        inputs, dt = _timed(lambda: wl.setup(seed, workdir))
        setup_s.append(dt)
    setup_speed = calibration.speed()
    runner = Runner(wl, inputs)
    try:
        runner.untraced()  # warm-up: checked, not timed
        if trace:
            metrics = _traced_run(runner, seconds, spans_path)
        else:
            metrics = _untraced_run(runner, seconds, calibration)
            metrics["setup_s"] = statistics.median(setup_s) * setup_speed
            metrics = {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()
            }
    except Exception:
        traceback.print_exc(file=sys.stderr)
        runner.tally.attempted += 1
        runner.tally.failed += 1
        runner.tally.notes.append("an operation raised")
        metrics = {}
    t = runner.tally
    for note in t.notes:
        print(f"# check failed: {note}", file=sys.stderr)
    return {
        "correct": t.failed == 0 and bool(metrics),
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": metrics,
    }


def _untraced_run(
    runner: Runner, seconds: float, calibration: Calibration
) -> dict:
    raw, scaled = [], []
    outcome = None
    calibration.speed()  # start the first bracket after the warm-up
    start = time.perf_counter()
    while len(raw) < MIN_OPS or time.perf_counter() - start < seconds:
        outcome, host_s = runner.untraced()
        raw.append(outcome.work / host_s)
        scaled.append(raw[-1] / calibration.speed())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"# unscaled host throughput: {statistics.median(raw)!r} rows/s "
          f"over {len(raw)} operations")
    lat = outcome.latencies_ns
    beyond = int((lat > nearest_rank(lat, 0.999)).sum())
    print(f"# sim latency samples: {lat.size} per operation, "
          f"{beyond} beyond p99.9")
    return {
        "rows_per_s": statistics.median(scaled),
        "sim_s": outcome.sim_s,
        "sim_p50_us": nearest_rank(lat, 0.50) / 1e3,
        "sim_p999_us": nearest_rank(lat, 0.999) / 1e3,
        "peak_rss_mb": peak_mb,
    }


def _traced_run(
    runner: Runner, seconds: float, spans_path: Path | None
) -> dict:
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    all_spans: list[list[Span]] = []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(runner.untraced()[1])
        _, host_s, metrics, spans = runner.traced()
        traced.append(host_s)
        layers.append(metrics)
        all_spans.append(spans)
    out = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        out[name] = (
            statistics.median(values) if name in HOST_TIME_METRICS
            else values[0]
        )
    out["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    if spans_path is not None:
        write_spans(spans_path, all_spans)
    return {name: {"value": out[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}
