"""The benchmark's workloads: generated inputs, one timed operation,
an independent output check, and the metrics each operation yields.

Every input comes from the workload seed; the library receives only
arrays, a matrix file or a materialized ``ArrivalTrace`` (initial
centroids are passed as arrays, so no library RNG is involved).
"""

from __future__ import annotations

import shutil
import statistics
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from perfbench.tracing import Target, call_counts, self_times
from repro import ConvergenceCriteria, knord, knors, lloyd
from repro.baselines.minibatch import minibatch_update
from repro.core.distance import nearest_centroid
from repro.core.init import init_centroids
from repro.data.matrixfile import write_matrix
from repro.data.synthetic import rand_multivariate, rand_univariate
from repro.mem import NumpyManager
from repro.runtime import RunObserver
from repro.serve import ServePlane
from repro.simhw.serving import ArrivalProcess, OpenLoopBatcher

#: Fit centroids must match serial Lloyd's within this much, relative
#: to the largest centroid coordinate (sharded and serial sums add in
#: different orders; assignments must match exactly).
CENTROID_RTOL = 1e-9

#: Relative error allowed when the serve check rebuilds completion
#: times (arrival + latency) and latencies (from batch boundaries).
LATENCY_RTOL = 1e-9

#: Every callable timed in a traced run, by layer span name.
TARGETS = (
    Target("runtime", "repro.runtime.loop:IterationLoop", "run"),
    Target("core", "repro.runtime.sources:KmeansSource", "step"),
    Target("core", "repro.runtime.backends:ShardedKmeans", "step"),
    Target("core", "repro.runtime.backends:ShardedKmeans", "payload"),
    Target("core", "repro.serve.query", "nearest_centroid"),
    Target("core.ingest", "repro.serve.query", "minibatch_update"),
    Target("sched.blocks", "repro.sched.blocks", "build_task_blocks",
           aliases=True),
    Target("sched.next_task", "repro.sched.numa_aware:NumaAwareScheduler",
           "next_task"),
    Target("sched.next_task", "repro.sched.fifo:FifoScheduler",
           "next_task"),
    Target("sched.next_task", "repro.sched.static:StaticScheduler",
           "next_task"),
    Target("simhw.replay", "repro.simhw.engine:IterationEngine", "run"),
    Target("sem.io", "repro.sem.flashgraph:RowEngine", "run_iteration"),
    Target("sem.checkpoint", "repro.sem.checkpoint", "save_checkpoint"),
    Target("dist.reduce", "repro.runtime.backends:ShardedProgram",
           "reduce_and_broadcast"),
    Target("serve", "repro.serve.query:ServePlane", "serve"),
)

#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "core": "core.self_s",
    "core.ingest": "core.ingest_self_s",
    "sched.blocks": "sched.blocks_self_s",
    "sched.next_task": "sched.next_task_self_s",
    "simhw.replay": "simhw.replay_self_s",
    "sem.io": "sem.io_self_s",
    "sem.checkpoint": "sem.checkpoint.self_s",
    "dist.reduce": "dist.reduce_self_s",
    "runtime": "runtime.self_s",
    "serve": "serve.self_s",
}

#: Every per-layer metric with its unit.
LAYER_UNITS = {
    "core.self_s": "s",
    "core.calls": "count",
    "core.dist_computations": "count",
    "core.prune_frac": "ratio",
    "core.ingest_self_s": "s",
    "sched.blocks_self_s": "s",
    "sched.tasks": "count",
    "sched.next_task_self_s": "s",
    "sched.next_task_calls": "count",
    "sched.steals": "count",
    "simhw.replay_self_s": "s",
    "simhw.replays": "count",
    "simhw.host_us_per_task": "us",
    "simhw.busy_fraction": "ratio",
    "simhw.sim_span_s": "s",
    "simhw.sim_barrier_s": "s",
    "simhw.sim_reduction_s": "s",
    "simhw.sim_other_s": "s",
    "sem.io_self_s": "s",
    "sem.rows_requested": "count",
    "sem.row_cache_hit_ratio": "ratio",
    "sem.pages_from_ssd": "count",
    "sem.bytes_read": "bytes",
    "sem.io_requests": "count",
    "sem.sim_io_blocked_s": "s",
    "sem.sim_io_hidden_s": "s",
    "sem.checkpoint.saves": "count",
    "sem.checkpoint.self_s": "s",
    "sem.checkpoint.bytes": "bytes",
    "dist.reduce_self_s": "s",
    "dist.collectives": "count",
    "dist.wire_bytes": "bytes",
    "dist.sim_allreduce_s": "s",
    "mem.n_allocs": "count",
    "mem.backing_allocs": "count",
    "mem.peak_bytes": "bytes",
    "runtime.self_s": "s",
    "runtime.observer_events": "count",
    "serve.self_s": "s",
    "serve.batches": "count",
    "trace.overhead_frac": "ratio",
}

#: Per-layer metrics measured in host time (medians over traced
#: operations); every other per-layer metric must repeat exactly.
HOST_TIME_METRICS = frozenset(
    SELF_TIME_METRICS.values()
) | {"simhw.host_us_per_task"}


def nearest_rank(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile: an observed value, no interpolation."""
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    return float(v[max(0, int(np.ceil(q * v.size)) - 1)])


def sub_seeds(seed: int, n: int) -> list[int]:
    """Independent integer seeds for the generators of one workload."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class LayerProbe(RunObserver):
    """Observer plus wrapper hooks for one traced operation."""

    def __init__(self) -> None:
        self.events = 0
        self.task_traces: list[tuple[int, int, Any]] = []
        self.io: list[Any] = []
        self.io_complete: dict[int, tuple[float, float]] = {}
        self.collectives: dict[int, tuple[int, float]] = {}
        self.engine_traces: list[Any] = []
        self.tasks = 0
        self.serve_dist = 0
        self.checkpoint_bytes = 0

    def on_task_trace(self, iteration, trace, machine_index=0):
        self.task_traces.append((iteration, machine_index, trace))

    def on_io(self, iteration, io):
        self.io.append(io)

    def on_io_complete(self, iteration, service_ns, hidden_ns, blocked_ns):
        self.io_complete[iteration] = (hidden_ns, blocked_ns)

    def on_collective(self, iteration, payload_bytes, wire_bytes, sim_ns):
        self.collectives[iteration] = (wire_bytes, sim_ns)

    def hooks(self) -> dict[str, Callable]:
        def tasks(result, args, kwargs):
            self.tasks += len(result)

        def replay(result, args, kwargs):
            self.engine_traces.append(result)

        def assign(result, args, kwargs):
            self.serve_dist += args[0].shape[0] * args[1].shape[0]

        def checkpoint(result, args, kwargs):
            self.checkpoint_bytes += sum(
                p.stat().st_size for p in Path(result).iterdir()
            )

        return {
            "repro.sched.blocks.build_task_blocks": tasks,
            "repro.simhw.engine:IterationEngine.run": replay,
            "repro.serve.query.nearest_centroid": assign,
            "repro.sem.checkpoint.save_checkpoint": checkpoint,
        }


def _counted(handler: Callable) -> Callable:
    def on_event(self, *args, **kwargs):
        self.events += 1
        return handler(self, *args, **kwargs)

    return on_event


# Every event the bus delivers counts toward runtime.observer_events.
for _name in [n for n in vars(RunObserver) if n.startswith("on_")]:
    setattr(LayerProbe, _name, _counted(getattr(LayerProbe, _name)))


@dataclass
class Outcome:
    """One operation's result, in the shape the metrics need."""

    result: Any
    rows: int  # rows per pass: n for a fit, arrivals for serve
    work: int  # row-iterations (fit) or arrivals (serve)
    sim_s: float
    latencies_ns: np.ndarray
    k: int
    iterations: int


class Workload:
    """Base: subclasses generate inputs, run one operation, check it."""

    name = ""

    def setup(self, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def reference(self, inputs: dict) -> Any:
        raise NotImplementedError

    def prepare(
        self, inputs: dict, observers: tuple, manager: NumpyManager
    ) -> Callable[[], Any]:
        """Everything an operation needs that is not timed; returns
        the zero-argument call that is."""
        raise NotImplementedError

    def outcome(self, inputs: dict, result: Any) -> Outcome:
        raise NotImplementedError

    def operations(self, outcome: Outcome) -> int:
        """Operations one call performs: a fit is one, serve counts
        each arrival."""
        return 1

    def failures(self, inputs: dict, ref: Any, outcome: Outcome) -> int:
        """Operations of this outcome whose output is wrong."""
        raise NotImplementedError

    def signature(self, outcome: Outcome) -> tuple:
        """Every simulated quantity the operation produced."""
        raise NotImplementedError

    def sim_parts(self, probe: LayerProbe, outcome: Outcome) -> dict:
        raise NotImplementedError

    def layer_metrics(
        self,
        probe: LayerProbe,
        spans: list,
        outcome: Outcome,
        manager: NumpyManager,
    ) -> dict[str, float]:
        """Every per-layer metric of one traced operation."""
        selft = self_times(spans)
        calls = call_counts(spans)
        m: dict[str, float] = {
            metric: selft.get(span, 0) / 1e9
            for span, metric in SELF_TIME_METRICS.items()
        }
        dist = self.dist_computations(probe, outcome)
        m["core.calls"] = calls.get("core", 0)
        m["core.dist_computations"] = dist
        m["core.prune_frac"] = 1.0 - dist / (
            outcome.rows * outcome.k * outcome.iterations
        )
        traces = probe.engine_traces
        m["sched.tasks"] = probe.tasks
        m["sched.next_task_calls"] = calls.get("sched.next_task", 0)
        m["sched.steals"] = sum(t.total_steals for t in traces)
        m["simhw.replays"] = len(traces)
        m["simhw.host_us_per_task"] = (
            selft.get("simhw.replay", 0) / 1e3 / probe.tasks
            if probe.tasks else 0.0
        )
        m["simhw.busy_fraction"] = (
            statistics.fmean(t.busy_fraction for t in traces)
            if traces else 0.0
        )
        parts = self.sim_parts(probe, outcome)
        m["simhw.sim_span_s"] = parts["span"] / 1e9
        m["simhw.sim_barrier_s"] = parts["barrier"] / 1e9
        m["simhw.sim_reduction_s"] = parts["reduction"] / 1e9
        m["simhw.sim_other_s"] = outcome.sim_s - parts["attributed"] / 1e9
        io = probe.io
        needed = sum(b.rows_needed for b in io)
        m["sem.rows_requested"] = sum(b.rows_requested for b in io)
        m["sem.row_cache_hit_ratio"] = (
            sum(b.row_cache_hits for b in io) / needed if needed else 0.0
        )
        m["sem.pages_from_ssd"] = sum(b.pages_from_ssd for b in io)
        m["sem.bytes_read"] = sum(b.bytes_read for b in io)
        m["sem.io_requests"] = sum(b.merged_requests for b in io)
        m["sem.sim_io_blocked_s"] = parts["io_blocked"] / 1e9
        m["sem.sim_io_hidden_s"] = parts["io_hidden"] / 1e9
        m["sem.checkpoint.saves"] = calls.get("sem.checkpoint", 0)
        m["sem.checkpoint.bytes"] = probe.checkpoint_bytes
        coll = probe.collectives.values()
        m["dist.collectives"] = len(coll)
        m["dist.wire_bytes"] = sum(w for w, _ in coll)
        m["dist.sim_allreduce_s"] = sum(ns for _, ns in coll) / 1e9
        counters = manager.counters()
        m["mem.n_allocs"] = counters.n_allocs
        m["mem.backing_allocs"] = counters.backing_allocs
        m["mem.peak_bytes"] = counters.peak_bytes
        m["runtime.observer_events"] = probe.events
        m["serve.batches"] = self.batches(outcome)
        return m

    def dist_computations(self, probe: LayerProbe, outcome: Outcome) -> int:
        raise NotImplementedError

    def batches(self, outcome: Outcome) -> int:
        return 0


@dataclass(frozen=True)
class FitSizes:
    n: int
    d: int
    k: int
    iters: int


class Fit(Workload):
    """A k-means fit checked against serial Lloyd's from the same
    initial centroids and iteration cap."""

    #: Data generator ``(n, d, seed) -> x``.
    generate: Callable[..., np.ndarray] = staticmethod(rand_multivariate)
    #: How the initial centroids are drawn from the generated rows.
    init_method = "random"

    def __init__(self, sizes: FitSizes) -> None:
        self.sizes = sizes
        self.criteria = ConvergenceCriteria(max_iters=sizes.iters)

    def _data(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        size_seed, data_seed, init_seed = sub_seeds(seed, 3)
        s = self.sizes
        # The seed also adds up to 5% more rows. Unpruned simulated
        # time depends only on the input's shape, so without this every
        # seed would report the same simulated figures.
        n = s.n + size_seed % max(1, s.n // 20)
        x = self.generate(n, s.d, seed=data_seed)
        c0 = init_centroids(x, s.k, self.init_method, seed=init_seed)
        return x, c0

    def reference(self, inputs: dict) -> Any:
        return lloyd(
            inputs["x"], self.sizes.k, init=inputs["c0"],
            criteria=self.criteria,
        )

    def outcome(self, inputs: dict, result: Any) -> Outcome:
        sim = np.array([r.sim_ns for r in result.records])
        n = inputs["x"].shape[0]
        return Outcome(
            result=result,
            rows=n,
            work=n * result.iterations,
            sim_s=float(sim.sum()) / 1e9,
            latencies_ns=sim,
            k=self.sizes.k,
            iterations=result.iterations,
        )

    def failures(self, inputs: dict, ref: Any, outcome: Outcome) -> int:
        got = outcome.result
        scale = max(1.0, float(np.abs(ref.centroids).max()))
        ok = (
            got.iterations == ref.iterations
            and np.array_equal(got.assignment, ref.assignment)
            and float(np.abs(got.centroids - ref.centroids).max())
            <= CENTROID_RTOL * scale
        )
        return 0 if ok else 1

    def signature(self, outcome: Outcome) -> tuple:
        return tuple(astuple(r) for r in outcome.result.records)

    def dist_computations(self, probe: LayerProbe, outcome: Outcome) -> int:
        return sum(r.dist_computations for r in outcome.result.records)

    def sim_parts(self, probe: LayerProbe, outcome: Outcome) -> dict:
        """Split each iteration's simulated time: the machine that set
        it (the slowest, for knord) contributes its span, barrier and
        reduction; blocked I/O counts only where it outlasts the span
        it overlaps; the allreduce adds on top."""
        per_iter: dict[int, dict[int, list[float]]] = {}
        for it, mi, tr in probe.task_traces:
            acc = per_iter.setdefault(it, {}).setdefault(mi, [0.0] * 4)
            acc[0] += tr.span_ns
            acc[1] += tr.barrier_ns
            acc[2] += tr.reduction_ns
            acc[3] += tr.total_ns
        parts = dict.fromkeys(
            ("span", "barrier", "reduction", "io_blocked", "io_hidden",
             "attributed"), 0.0,
        )
        for it in sorted(per_iter):
            machines = per_iter[it]
            span, barrier, red, _ = machines[
                max(machines, key=lambda mi: (machines[mi][3], -mi))
            ]
            hidden, blocked = probe.io_complete.get(it, (0.0, 0.0))
            allreduce = probe.collectives.get(it, (0, 0.0))[1]
            parts["span"] += span
            parts["barrier"] += barrier
            parts["reduction"] += red
            parts["io_blocked"] += blocked
            parts["io_hidden"] += hidden
            parts["attributed"] += (
                max(span, blocked) + barrier + red + allreduce
            )
        return parts


class KnordMti(Fit):
    """knord with MTI pruning and the tree allreduce on 8 machines.

    Initial centroids come from k-means++: from random rows, the share
    of distances MTI prunes varies between seeds by more than half,
    and the seed, not the code, would then set the throughput.
    """

    name = "knord-mti"
    machines = 8
    init_method = "kmeanspp"

    def setup(self, seed: int, workdir: Path) -> dict:
        x, c0 = self._data(seed)
        return {"x": x, "c0": c0}

    def prepare(self, inputs, observers, manager):
        def run():
            return knord(
                inputs["x"], self.sizes.k,
                n_machines=self.machines, pruning="mti",
                allreduce="tree", init=inputs["c0"],
                criteria=self.criteria, observers=observers, mem=manager,
            )

        return run


class KnorsLloyd(Fit):
    """knors without pruning over an on-disk matrix, both caches
    smaller than the data, async I/O, checkpoints every 5 iterations.

    The data are uniform (the paper's RU family), on which Lloyd's
    runs the whole iteration cap at every seed; mixture data converge
    after a seed-dependent number of iterations, which would make the
    simulated time vary with the seed by a factor of two.
    """

    name = "knors-lloyd"
    checkpoint_interval = 5
    generate = staticmethod(rand_univariate)

    def setup(self, seed: int, workdir: Path) -> dict:
        x, c0 = self._data(seed)
        path = write_matrix(workdir / "data.knor", x)
        return {"x": x, "c0": c0, "path": path,
                "checkpoints": workdir / "checkpoints"}

    def prepare(self, inputs, observers, manager):
        shutil.rmtree(inputs["checkpoints"], ignore_errors=True)
        data_bytes = inputs["x"].nbytes

        def run():
            return knors(
                inputs["path"], self.sizes.k, pruning=None,
                row_cache_bytes=data_bytes // 32,
                page_cache_bytes=data_bytes // 16,
                io_mode="async", init=inputs["c0"],
                criteria=self.criteria,
                checkpoint_dir=inputs["checkpoints"],
                checkpoint_interval=self.checkpoint_interval,
                observers=observers, mem=manager,
            )

        return run


@dataclass(frozen=True)
class ServeSizes:
    n: int
    d: int
    k: int
    fit_iters: int
    arrivals: int
    rate_qps: float
    skew: float
    ingest_fraction: float


class ServeMixed(Workload):
    """Open-loop queries plus ~10% ingest against a fitted model."""

    name = "serve-mixed"

    def __init__(self, sizes: ServeSizes) -> None:
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.sizes
        data_seed, init_seed, traffic_seed = sub_seeds(seed, 3)
        x = rand_multivariate(s.n, s.d, seed=data_seed)
        c0 = init_centroids(x, s.k, "random", seed=init_seed)
        model = lloyd(
            x, s.k, init=c0,
            criteria=ConvergenceCriteria(max_iters=s.fit_iters),
        )
        counts = model.cluster_sizes.astype(np.int64)
        trace = ArrivalProcess(
            s.arrivals, rate_qps=s.rate_qps, seed=traffic_seed,
            skew=s.skew, ingest_fraction=s.ingest_fraction,
        ).generate(s.n)
        inputs = {"x": x, "centroids": model.centroids,
                  "counts": counts, "trace": trace}
        inputs["plane"] = self._plane(inputs, (), NumpyManager())
        return inputs

    @staticmethod
    def _plane(inputs, observers, manager) -> ServePlane:
        return ServePlane(
            inputs["x"], inputs["centroids"], counts=inputs["counts"],
            observers=observers, mem=manager,
        )

    def prepare(self, inputs, observers, manager):
        # A plane folds ingest into its model, so every operation gets
        # a fresh one; building it is part of set-up, not the timing.
        plane = self._plane(inputs, observers, manager)
        trace = inputs["trace"]
        return lambda: plane.serve(trace)

    def reference(self, inputs: dict) -> Any:
        """None: :meth:`failures` replays each serve run on its own
        batch boundaries."""
        return None

    def outcome(self, inputs: dict, result: Any) -> Outcome:
        return Outcome(
            result=result,
            rows=result.n_arrivals,
            work=result.n_arrivals,
            sim_s=float(result.sim_seconds),
            latencies_ns=result.latency_ns,
            k=self.sizes.k,
            iterations=1,
        )

    def operations(self, outcome: Outcome) -> int:
        return outcome.result.n_arrivals

    def failures(self, inputs: dict, ref: Any, outcome: Outcome) -> int:
        """Replay the batches: the boundaries the plane's completion
        times imply drive an :class:`OpenLoopBatcher`, each batch is
        assigned by ``nearest_centroid`` and its ingest rows folded by
        ``minibatch_update``. Arrivals whose answer differs (or that
        fall outside [0, k)) fail; a batching, latency or final-model
        mismatch fails every arrival."""
        res = outcome.result
        trace = inputs["trace"]
        n = trace.n_arrivals
        if res.n_arrivals != n or res.assignments.shape != (n,):
            return n
        done = trace.time_ns + res.latency_ns
        plane = inputs["plane"]
        batcher = OpenLoopBatcher(
            trace.time_ns, max_batch=plane.max_batch,
            window_ns=plane.batch_window_ns,
        )
        centroids = np.array(inputs["centroids"], copy=True)
        counts = np.array(inputs["counts"], copy=True)
        answers = np.full(n, -1, dtype=np.int64)
        while (b := batcher.next_batch()) is not None:
            lo, hi, dispatch = b
            # One batch shares one completion time (up to the rounding
            # of arrival + latency); the next batch completes later.
            tol = LATENCY_RTOL * done[lo]
            if np.any(np.abs(done[lo:hi] - done[lo]) > tol) or (
                hi < n and done[hi] - done[lo] <= tol
            ):
                return n
            batcher.complete(done[lo] - dispatch)
            batch = inputs["x"][trace.row[lo:hi]]
            assign, _ = nearest_centroid(batch, centroids)
            answers[lo:hi] = assign
            ingest = trace.is_ingest[lo:hi]
            if ingest.any():
                centroids = centroids.copy()
                minibatch_update(
                    centroids, counts, batch[ingest], assign[ingest]
                )
        if (
            len(batcher.batches) != res.n_batches
            or not np.allclose(batcher.latency_ns, res.latency_ns,
                               rtol=LATENCY_RTOL, atol=0.0)
            or not np.array_equal(centroids, res.centroids)
        ):
            return n
        got = res.assignments
        wrong = (got != answers) | (got < 0) | (got >= self.sizes.k)
        return int(np.count_nonzero(wrong))

    def signature(self, outcome: Outcome) -> tuple:
        r = outcome.result
        return (
            r.latency_ns.tobytes(), r.sim_seconds, r.io_service_ns,
            r.compute_ns, r.row_cache_hits, r.rows_requested,
            r.pages_from_ssd, r.bytes_read, r.n_batches,
            r.centroids.tobytes(),
        )

    def dist_computations(self, probe: LayerProbe, outcome: Outcome) -> int:
        return probe.serve_dist

    def batches(self, outcome: Outcome) -> int:
        return outcome.result.n_batches

    def sim_parts(self, probe: LayerProbe, outcome: Outcome) -> dict:
        """A batch's service time is its I/O (the batch waits for all
        of it) plus its compute replay; the rest of the simulated
        clock is idle time and batching windows."""
        traces = probe.engine_traces
        span = sum(t.span_ns for t in traces)
        barrier = sum(t.barrier_ns for t in traces)
        red = sum(t.reduction_ns for t in traces)
        io = sum(b.service_ns for b in probe.io)
        return {
            "span": span, "barrier": barrier, "reduction": red,
            "io_blocked": io, "io_hidden": 0.0,
            "attributed": io + sum(t.total_ns for t in traces),
        }


def build(name: str, scale: str = "full") -> Workload:
    """The named workload at its benchmark size (``"full"``) or at a
    size small enough for unit tests (``"tiny"``)."""
    tiny = scale == "tiny"
    if name == "knord-mti":
        return KnordMti(FitSizes(
            n=2_000 if tiny else 40_000, d=32, k=32,
            iters=4 if tiny else 20,
        ))
    if name == "knors-lloyd":
        return KnorsLloyd(FitSizes(
            n=4_000 if tiny else 100_000, d=8, k=8,
            iters=6 if tiny else 20,
        ))
    if name == "serve-mixed":
        return ServeMixed(ServeSizes(
            n=2_000 if tiny else 20_000, d=32, k=32, fit_iters=5,
            arrivals=600 if tiny else 12_000, rate_qps=100_000.0,
            skew=3.0, ingest_fraction=0.1,
        ))
    raise KeyError(name)


WORKLOADS = ("knord-mti", "knors-lloyd", "serve-mixed")
