"""The assignment-query path: answering "which cluster is this point
in?" under simulated user traffic.

A :class:`ServePlane` owns a fitted model (centroids + Sculley counts)
and the same hardware stack the batch runners build -- a
:class:`~repro.simhw.machine.SimMachine`, the SAFS page cache, the
partitioned :class:`~repro.sem.rowcache.RowCache`, and one shared
:class:`~repro.core.workspace.DistanceWorkspace`. Traffic comes from a
seeded :class:`~repro.simhw.serving.ArrivalProcess`; the
:class:`~repro.simhw.serving.OpenLoopBatcher` coalesces concurrent
arrivals into dispatch batches.

Per batch, the plane:

1. fetches the touched rows through the SEM hierarchy (hot rows hit
   the row cache for free; cold rows charge page-cache / SSD simulated
   time, and the fault plane's SSD-error / corruption /
   cache-quarantine machinery applies verbatim, with the batch index
   standing in for the iteration number);
2. assigns the batch with ``nearest_centroid`` through the shared
   workspace and prices the distance work on the simhw engine
   (``reduction=False`` -- an assignment-only pass merges nothing);
3. folds any ingest arrivals into the centroids with the same
   vectorized mini-batch update the :class:`MiniBatchMM` driver uses,
   continuing the per-center learning-rate schedule;
4. completes the batch on the open-loop clock, accruing per-arrival
   latency, and emits ``on_query`` / ``on_ingest`` observer events.

The two-plane invariant holds throughout: caches and faults shape
*simulated time only* -- the returned assignments are bit-identical
with caches on or off, and (with no ingest) equal to a batch
``nearest_centroid`` over the same rows. ``tests/test_serve.py`` pins
both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.baselines.minibatch import minibatch_update
from repro.core.distance import nearest_centroid
from repro.core.workspace import DistanceWorkspace
from repro.errors import ConfigError, DatasetError
from repro.mem import use_manager
from repro.metrics.latency import latency_percentiles
from repro.runtime.observer import RunObserver, chain_observers
from repro.sched.blocks import auto_task_rows, build_task_blocks
from repro.simhw.serving import (
    ArrivalProcess,
    ArrivalTrace,
    OpenLoopBatcher,
)


@dataclass
class ServeResult:
    """One serve run's answers plus its simulated-time accounting."""

    algorithm: str
    n_arrivals: int
    n_queries: int
    n_ingested: int
    n_batches: int
    assignments: np.ndarray
    rows: np.ndarray
    is_ingest: np.ndarray
    latency_ns: np.ndarray
    percentiles: dict[str, float]
    sim_seconds: float
    io_service_ns: float
    compute_ns: float
    row_cache_hits: int
    rows_requested: int
    pages_from_ssd: int
    bytes_read: int
    centroids: np.ndarray
    counts: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def query_latency_ns(self) -> np.ndarray:
        """Latencies of the query (non-ingest) arrivals only."""
        return self.latency_ns[~self.is_ingest]

    def to_dict(self) -> dict:
        """JSON-safe rollup (scalars and percentiles, no arrays)."""
        return {
            "algorithm": self.algorithm,
            "n_arrivals": self.n_arrivals,
            "n_queries": self.n_queries,
            "n_ingested": self.n_ingested,
            "n_batches": self.n_batches,
            "latency": dict(self.percentiles),
            "sim_seconds": self.sim_seconds,
            "io_service_ns": self.io_service_ns,
            "compute_ns": self.compute_ns,
            "row_cache_hits": self.row_cache_hits,
            "rows_requested": self.rows_requested,
            "pages_from_ssd": self.pages_from_ssd,
            "bytes_read": self.bytes_read,
            "params": dict(self.params),
        }


class ServePlane:
    """A live serving endpoint over a fitted clustering model."""

    def __init__(
        self,
        x: np.ndarray,
        centroids: np.ndarray,
        *,
        counts: np.ndarray | None = None,
        ssd: Any = None,
        cost_model: Any = None,
        n_threads: int | None = None,
        bind_policy: Any = None,
        scheduler: str = "numa_aware",
        row_cache_bytes: int | None = None,
        page_cache_bytes: int | None = None,
        cache_update_interval: int = 5,
        io_queue_depth: int = 32,
        max_batch: int = 256,
        batch_window_ns: float = 50_000.0,
        observers: Sequence[RunObserver] = (),
        faults: Any = None,
        retry_policy: Any = None,
        kernel: str = "blocked",
        tenant: str | None = None,
        mem: Any = None,
        mem_budget_bytes: int | None = None,
    ) -> None:
        from repro.drivers.common import (
            make_scheduler,
            resolve_memory_manager,
        )
        from repro.runtime.memory import register_mm_memory
        from repro.sem import build_sem_stack
        from repro.simhw import BindPolicy, FOUR_SOCKET_XEON, SimMachine
        from repro.simhw.ssd import AsyncIoQueue, OCZ_INTREPID_ARRAY

        x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        if x.ndim != 2:
            raise DatasetError(f"x must be 2-D, got shape {x.shape}")
        centroids = np.array(centroids, dtype=np.float64, copy=True)
        if centroids.ndim != 2 or centroids.shape[1] != x.shape[1]:
            raise DatasetError(
                f"centroids shape {centroids.shape} incompatible with "
                f"data dimension {x.shape[1]}"
            )
        if max_batch < 1:
            raise ConfigError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        n, d = x.shape
        k = centroids.shape[0]
        self.x = x
        self.n_rows = n
        self.d = d
        self.k = k
        self.centroids = centroids
        self.counts = (
            np.array(counts, dtype=np.int64, copy=True)
            if counts is not None
            else np.zeros(k, dtype=np.int64)
        )
        if self.counts.shape != (k,):
            raise ConfigError(
                f"counts shape {self.counts.shape} != ({k},)"
            )
        self.max_batch = max_batch
        self.batch_window_ns = float(batch_window_ns)
        #: Owning tenant in a multi-tenant deployment; stamped into
        #: every ``on_query`` / ``on_ingest`` event detail so a shared
        #: observer can attribute load per tenant.
        self.tenant = tenant

        ssd = ssd or OCZ_INTREPID_ARRAY
        self.machine = SimMachine.build(
            cost_model or FOUR_SOCKET_XEON,
            n_threads=n_threads,
            bind_policy=bind_policy or BindPolicy.NUMA_BIND,
            ssd=ssd,
        )
        self._sched = make_scheduler(scheduler)
        # The serving plane's manager outlives __init__: serve() pushes
        # it again so streaming-path allocations stay pooled/capped.
        self.mem_manager = resolve_memory_manager(
            mem, mem_budget_bytes, observers
        )
        with use_manager(self.mem_manager):
            self.io, self.row_cache, row_cache_bytes, page_cache_bytes = (
                build_sem_stack(
                    ssd, n, d, self.machine.n_threads,
                    row_cache_bytes=row_cache_bytes,
                    page_cache_bytes=page_cache_bytes,
                    cache_update_interval=cache_update_interval,
                    io_queue=AsyncIoQueue(queue_depth=io_queue_depth),
                    faults=faults,
                    retry_policy=retry_policy,
                )
            )
            register_mm_memory(
                self.machine, n, d,
                state_bytes_per_row=4,
                model_slots=k,
                resident_rows=False,
                row_cache_bytes=row_cache_bytes,
                page_cache_bytes=page_cache_bytes,
            )
            self.workspace = DistanceWorkspace(k, d, kernel=kernel)
        self.kernel = self.workspace.kernel
        self.observer = chain_observers(tuple(observers))
        self.batch_index = 0

    def _price_compute(self, m: int) -> float:
        """Simulated nanoseconds to assign ``m`` rows on the machine
        (an assignment-only pass: no centroid reduction)."""
        tasks = build_task_blocks(
            m, self.d, self.machine,
            dist_per_row=np.full(m, self.k, dtype=np.int64),
            needs_data=np.ones(m, dtype=bool),
            task_rows=auto_task_rows(m, self.machine.n_threads),
            state_bytes_per_row=4,
        )
        trace = self.machine.engine.run(
            self._sched, tasks, self.machine.threads,
            d=self.d, k=self.k, reduction=False,
        )
        return float(trace.total_ns)

    def serve(
        self, arrivals: ArrivalProcess | ArrivalTrace
    ) -> ServeResult:
        """Drain an arrival stream and return answers + latency."""
        trace = (
            arrivals.generate(self.n_rows)
            if isinstance(arrivals, ArrivalProcess)
            else arrivals
        )
        if trace.row.size and (
            trace.row.min() < 0 or trace.row.max() >= self.n_rows
        ):
            raise DatasetError(
                "arrival rows out of range for the served dataset"
            )
        batcher = OpenLoopBatcher(
            trace.time_ns,
            max_batch=self.max_batch,
            window_ns=self.batch_window_ns,
        )
        n_arr = trace.n_arrivals
        assignments = np.full(n_arr, -1, dtype=np.int32)
        io_service_ns = 0.0
        compute_ns = 0.0
        row_cache_hits = 0
        rows_requested = 0
        pages_from_ssd = 0
        bytes_read = 0
        n_ingested = 0

        with use_manager(self.mem_manager):
            while (b := batcher.next_batch()) is not None:
                lo, hi, _dispatch = b
                rows = trace.row[lo:hi]
                ingest_mask = trace.is_ingest[lo:hi]
                needs = np.zeros(self.n_rows, dtype=bool)
                needs[rows] = True
                io = self.io.run_iteration(
                    self.batch_index, needs, self.observer
                )
                self.observer.on_io(self.batch_index, io)
                io_service_ns += io.service_ns
                row_cache_hits += io.row_cache_hits
                rows_requested += io.rows_requested
                pages_from_ssd += io.pages_from_ssd
                bytes_read += io.bytes_read

                assign, _ = nearest_centroid(
                    self.x[rows], self.centroids,
                    workspace=self.workspace,
                )
                assignments[lo:hi] = assign
                batch_compute_ns = self._price_compute(hi - lo)
                compute_ns += batch_compute_ns
                done = batcher.complete(
                    io.service_ns + batch_compute_ns
                )

                n_ing = int(np.count_nonzero(ingest_mask))
                if n_ing:
                    # Fresh array: the workspace caches ||c||^2 by
                    # identity.
                    folded = self.centroids.copy()
                    minibatch_update(
                        folded, self.counts,
                        self.x[rows[ingest_mask]], assign[ingest_mask],
                    )
                    self.centroids = folded
                    n_ingested += n_ing
                    detail = {"counts_total": int(self.counts.sum())}
                    if self.tenant is not None:
                        detail["tenant"] = self.tenant
                    self.observer.on_ingest(
                        self.batch_index, n_ing, detail,
                    )
                n_q = (hi - lo) - n_ing
                if n_q:
                    worst = float(done - trace.time_ns[lo])
                    detail = {"io_ns": io.service_ns,
                              "compute_ns": batch_compute_ns}
                    if self.tenant is not None:
                        detail["tenant"] = self.tenant
                    self.observer.on_query(
                        self.batch_index, n_q, worst, detail,
                    )
                self.batch_index += 1

        query_lat = batcher.latency_ns[~trace.is_ingest]
        sample = query_lat if query_lat.size else batcher.latency_ns
        return ServeResult(
            algorithm="serve-assign",
            n_arrivals=n_arr,
            n_queries=n_arr - n_ingested,
            n_ingested=n_ingested,
            n_batches=len(batcher.batches),
            assignments=assignments,
            rows=trace.row.copy(),
            is_ingest=trace.is_ingest.copy(),
            latency_ns=batcher.latency_ns,
            percentiles=latency_percentiles(sample),
            sim_seconds=batcher.sim_end_ns / 1e9,
            io_service_ns=io_service_ns,
            compute_ns=compute_ns,
            row_cache_hits=row_cache_hits,
            rows_requested=rows_requested,
            pages_from_ssd=pages_from_ssd,
            bytes_read=bytes_read,
            centroids=self.centroids,
            counts=self.counts,
            params={
                "n": self.n_rows, "d": self.d, "k": self.k,
                "max_batch": self.max_batch,
                "batch_window_ns": self.batch_window_ns,
                "T": self.machine.n_threads,
                "kernel": self.kernel,
            },
        )
