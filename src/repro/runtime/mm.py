"""The MM algorithm plane: clusterNOR's generalization of knor.

clusterNOR observes that knor's backbone is not k-means-specific: any
algorithm alternating a per-row **majorize** phase (each row votes
into per-thread additive accumulators) with a global **minimize**
phase (the reduced accumulators update the model) can ride the same
NUMA scheduling, SEM out-of-core execution and distributed sharding.
This module is that frame:

* :class:`MMAlgorithm` -- the protocol. ``majorize()`` advances the
  per-row phase and returns an :class:`MMStep` carrying the exact
  per-row work statistics plus a named accumulator payload
  (``dict[str, ndarray]``, additive across row subsets);
  ``minimize(payload)`` folds the (reduced) accumulators into the
  model. k-means itself is just the first implementation
  (:class:`KmeansMM`); GMM, spherical, semisupervised and Yinyang live
  in :mod:`repro.extensions`.
* :class:`MMSource` -- adapts an algorithm to the
  :class:`~repro.runtime.sources.NumericsSource` contract, so the
  in-memory and SEM backends drive it unchanged.
* :class:`MMShardedProgram` -- adapts it to the
  :class:`~repro.runtime.backends.ShardedProgram` contract for the
  distributed backend.
  Both adapters validate every step's per-row arrays through
  :func:`check_step` right after ``majorize()``.
* :class:`MMCheckpointHook` -- the SEM checkpoint hook over the
  generic v4 on-disk format (:mod:`repro.sem.checkpoint`).
* ``run_mm_inmemory`` / ``run_mm_sem`` / ``run_mm_distributed`` --
  the three generic drivers, mirroring knori/knors/knord assembly.

Bit-identity across backends, by construction
---------------------------------------------
An MM algorithm's numerics are computed **once globally** per
iteration, whatever the substrate. The in-memory and SEM backends
simply call ``majorize()`` then ``minimize(step.payload)``. The
distributed backend slices the same global step at shard bounds to
price per-machine compute, prices the collective from the true
payload shapes -- but ``minimize`` consumes the algorithm's own
bit-exact global accumulators rather than the tree-reduced arrays,
whose float reassociation would perturb the last bits. The model is
therefore bit-identical across InMemory/Sem/Distributed for the same
seed (the cross-backend equivalence suite pins this), while simulated
time, I/O and network traffic remain fully substrate-specific.
(knord's k-means path keeps its real per-shard loops + tree reduce,
agreeing to 1e-10; the MM plane trades that realism for exactness.)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import ConfigError, DatasetError, IoSubsystemError
from repro.metrics import RunResult
from repro.runtime.backends import (
    InMemoryBackend,
    SemBackend,
    ShardedProgram,
)
from repro.runtime.loop import IterationLoop, LoopResult
from repro.runtime.observer import RunObserver
from repro.runtime.sources import StepStats


@dataclass
class MMStep:
    """One majorize phase's exact outputs.

    ``payload`` maps accumulator names to additive ndarrays -- the
    quantities a distributed run would allreduce (centroid sums +
    counts for k-means, weighted sums/squared sums for GMM, ...).
    Everything else prices the hardware plane, exactly as
    :class:`~repro.runtime.sources.StepStats`.
    """

    dist_per_row: np.ndarray
    needs_data: np.ndarray
    n_changed: int
    payload: dict[str, np.ndarray]
    motion: np.ndarray | None = None
    clause1_rows: int = 0
    clause2_pruned: int = 0
    clause3_pruned: int = 0


def check_step(step: MMStep, n_rows: int) -> MMStep:
    """Reject a majorize step whose per-row arrays do not cover
    exactly the algorithm's ``n_rows`` rows, before any backend prices
    (or, distributed, slices) it."""
    for name in ("dist_per_row", "needs_data"):
        shape = np.shape(getattr(step, name))
        if shape != (n_rows,):
            raise ConfigError(
                f"MMStep.{name} shape {shape} != ({n_rows},)"
            )
    return step


@runtime_checkable
class MMAlgorithm(Protocol):
    """The Majorize-Minimization contract every MM algorithm fulfills.

    Attributes: ``name`` (registry/checkpoint identifier), ``n_rows``,
    ``d``, ``max_iters`` (iteration cap), ``reduction_slots`` (funnel
    reduction width in d-length-vector units; ``k`` for k-means) and
    ``state_bytes_per_row`` (per-row algorithm state the hardware
    plane charges memory traffic for).
    """

    name: str
    n_rows: int
    d: int
    max_iters: int
    reduction_slots: int
    state_bytes_per_row: int

    def majorize(self) -> MMStep:  # pragma: no cover - protocol
        """Advance the per-row phase one iteration (stateful)."""
        ...

    def minimize(
        self, payload: dict[str, np.ndarray]
    ) -> None:  # pragma: no cover - protocol
        """Fold reduced accumulators into the model."""
        ...

    def converged(self) -> bool:  # pragma: no cover - protocol
        """Did the last completed iteration reach the stopping rule?"""
        ...

    def reset(self) -> None:  # pragma: no cover - protocol
        """Rewind to iteration 0 (crash recovery's from-scratch path)."""
        ...

    def export_state(self) -> dict:  # pragma: no cover - protocol
        """Resumable snapshot: ``{"iteration": int, <name>: ndarray
        or scalar, ...}``."""
        ...

    def restore_state(
        self, snap: dict
    ) -> None:  # pragma: no cover - protocol
        ...

    def result(
        self,
        loop_result: LoopResult,
        *,
        memory_breakdown: dict[str, int] | None = None,
        extra_params: dict | None = None,
    ) -> RunResult:  # pragma: no cover - protocol
        """Assemble the uniform result envelope."""
        ...


class MMSource:
    """Adapts an :class:`MMAlgorithm` to the ``NumericsSource``
    contract: one step = majorize + immediate minimize of the global
    payload (a single-participant reduction)."""

    def __init__(self, algorithm: MMAlgorithm) -> None:
        self.algorithm = algorithm
        # The backends' crash recovery resets through ``source.loop``.
        self.loop = algorithm

    def step(self, iteration: int) -> StepStats:
        step = check_step(self.algorithm.majorize(), self.algorithm.n_rows)
        self.algorithm.minimize(step.payload)
        return StepStats(
            dist_per_row=step.dist_per_row,
            needs_data=step.needs_data,
            n_changed=step.n_changed,
            motion=step.motion,
            clause1_rows=step.clause1_rows,
            clause2_pruned=step.clause2_pruned,
            clause3_pruned=step.clause3_pruned,
            state_bytes=self.algorithm.state_bytes_per_row,
        )


class MMShardedProgram(ShardedProgram):
    """Adapts an :class:`MMAlgorithm` to the distributed backend.

    The global majorize runs once per iteration (at the first shard's
    step); each shard's :class:`StepStats` is the global step sliced
    at the contiguous shard bounds, so per-machine compute pricing
    sees exactly the work that shard's rows generate. Scalar progress
    counters (n_changed, clauses, motion) are attributed to shard 0 --
    records only ever report their totals.
    """

    def __init__(
        self,
        algorithm: MMAlgorithm,
        n_shards: int,
        *,
        allreduce: str = "tree",
    ) -> None:
        from repro.dist.mpi import check_allreduce

        n = algorithm.n_rows
        if n < n_shards:
            raise DatasetError(
                f"n={n} rows cannot shard over {n_shards} machines"
            )
        self.algorithm = algorithm
        self.n_rows = n
        self.allreduce = check_allreduce(allreduce)
        self.bounds = np.linspace(0, n, n_shards + 1, dtype=np.int64)
        self._step: MMStep | None = None

    @property
    def n_shards(self) -> int:
        return len(self.bounds) - 1

    def shard_rows(self) -> list[int]:
        return np.diff(self.bounds).astype(int).tolist()

    def step(self, si: int) -> StepStats:
        if si == 0:
            self._step = check_step(self.algorithm.majorize(), self.n_rows)
        assert self._step is not None
        s = self._step
        lo, hi = int(self.bounds[si]), int(self.bounds[si + 1])
        first = si == 0
        return StepStats(
            dist_per_row=s.dist_per_row[lo:hi],
            needs_data=s.needs_data[lo:hi],
            n_changed=s.n_changed if first else 0,
            motion=s.motion if first else None,
            clause1_rows=s.clause1_rows if first else 0,
            clause2_pruned=s.clause2_pruned if first else 0,
            clause3_pruned=s.clause3_pruned if first else 0,
            state_bytes=self.algorithm.state_bytes_per_row,
        )

    def payload(self, si: int) -> dict[str, np.ndarray]:
        """Shard contributions for the priced collective.

        Shard 0 carries the global accumulators, the rest zeros: the
        tree-summed total equals the global payload and every shard
        ships the true array shapes, so wire bytes and latency are
        exact. The *values* coming back out of the reduction are
        discarded (see :meth:`minimize`).
        """
        assert self._step is not None
        if si == 0:
            return dict(self._step.payload)
        return {
            key: np.zeros_like(arr)
            for key, arr in self._step.payload.items()
        }

    def minimize(self, reduced: dict[str, np.ndarray]) -> None:
        """Feed the algorithm its own bit-exact global payload.

        The tree-reduced arrays are mathematically the same values,
        but float reassociation (and ``-0.0 + 0.0``) can flip last
        bits; consuming the global accumulators keeps the model
        byte-identical to the single-machine path while the collective
        above still priced the real reduction.
        """
        assert self._step is not None
        self.algorithm.minimize(self._step.payload)

    def reset(self) -> None:
        self.algorithm.reset()
        self._step = None

    @property
    def model_array(self) -> np.ndarray:
        return self.algorithm.model_array


@dataclass
class MMCheckpointHook:
    """SEM checkpoint hook for MM algorithms (v4 on-disk format).

    Same cadence and crash/corruption injection surface as the kmeans
    :class:`~repro.runtime.backends.CheckpointHook`; the payload is
    whatever ``algorithm.export_state()`` returns -- ndarrays go into
    the arrays file (CRC32-checked), scalars into the manifest.
    """

    directory: str | Path
    interval: int
    algorithm: MMAlgorithm
    params: dict
    faults: Any = None

    # ``loop`` aliases the algorithm so shared backend code that
    # expects a hook with a resettable loop keeps working.
    @property
    def loop(self) -> MMAlgorithm:
        return self.algorithm

    def maybe_save(
        self, iteration: int, n_changed: int, observer: RunObserver
    ) -> None:
        if (iteration + 1) % self.interval != 0:
            return
        self._save(iteration, n_changed, observer)

    def force_save(
        self, iteration: int, n_changed: int, observer: RunObserver
    ) -> None:
        """Out-of-interval flush for a preemption-notice grace window
        (same protocol and fault sites as an interval save)."""
        self._save(iteration, n_changed, observer)

    def _save(
        self, iteration: int, n_changed: int, observer: RunObserver
    ) -> None:
        from repro.sem.checkpoint import (
            MMCheckpointState,
            save_mm_checkpoint,
        )

        crash_point = (
            self.faults.checkpoint_crash(iteration)
            if self.faults is not None
            else None
        )
        if crash_point is not None:
            observer.on_fault(iteration, "checkpoint", crash_point, {})
        snap = self.algorithm.export_state()
        arrays = {
            name: np.asarray(value)
            for name, value in snap.items()
            if name != "iteration" and isinstance(value, np.ndarray)
        }
        scalars = {
            name: value
            for name, value in snap.items()
            if name != "iteration" and not isinstance(value, np.ndarray)
        }
        save_mm_checkpoint(
            self.directory,
            MMCheckpointState(
                iteration=int(snap["iteration"]),
                algorithm=self.algorithm.name,
                arrays=arrays,
                scalars=scalars,
                n_changed=n_changed,
                params=self.params,
            ),
            crash_point=crash_point,
        )
        if self.faults is not None and self.faults.checkpoint_corruption(
            iteration
        ):
            from repro.sem.checkpoint import corrupt_checkpoint

            offset = corrupt_checkpoint(self.directory)
            observer.on_fault(
                iteration, "corruption", "checkpoint",
                {"offset": offset},
            )
        observer.on_checkpoint(iteration, self.directory)

    def try_restore(
        self, iteration: int, observer: RunObserver
    ) -> int | None:
        """Restore the newest v4 checkpoint, quarantining a corrupt
        one; returns the resume iteration or None."""
        from repro.errors import CorruptionError
        from repro.sem.checkpoint import (
            discard_checkpoint,
            has_checkpoint,
            load_mm_checkpoint,
        )

        if not has_checkpoint(self.directory):
            return None
        try:
            ckpt = load_mm_checkpoint(self.directory)
        except CorruptionError as exc:
            observer.on_corruption(
                iteration, "checkpoint", {"error": str(exc)}
            )
            discarded = discard_checkpoint(self.directory)
            observer.on_quarantine(
                iteration, "checkpoint", str(self.directory),
                {"files_removed": discarded},
            )
            return None
        if ckpt.algorithm != self.algorithm.name:
            raise IoSubsystemError(
                f"checkpoint in {self.directory} belongs to algorithm "
                f"{ckpt.algorithm!r}, not {self.algorithm.name!r}"
            )
        snap = {"iteration": ckpt.iteration}
        snap.update(ckpt.arrays)
        snap.update(ckpt.scalars)
        self.algorithm.restore_state(snap)
        return ckpt.iteration


class KmeansMM:
    """k-means as the first MM algorithm.

    ``majorize`` advances the library's own
    :class:`~repro.drivers.common.NumericsLoop` (Lloyd's or MTI) and
    exposes its per-cluster sums/counts as the accumulator payload;
    the centroid install is folded into the loop's step, so
    ``minimize`` is a no-op. One loop serves every backend
    (``n_partitions=1``), which is what makes the MM kmeans model
    bit-identical across substrates -- and, for ``pruning="mti"``,
    bit-identical to the classic ``knori`` driver as well (pinned by
    the MM plane test suite).
    """

    name = "kmeans"

    def __init__(
        self,
        x: np.ndarray,
        k: int,
        *,
        pruning: str | None = "mti",
        init: str | np.ndarray = "random",
        seed: int = 0,
        criteria: Any = None,
        empty_cluster: str = "drop",
        kernel: str = "blocked",
    ) -> None:
        from repro.drivers.common import (
            NumericsLoop,
            default_criteria,
            resolve_init,
        )
        from repro.runtime.memory import state_bytes_per_row

        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise DatasetError(f"x must be 2-D, got shape {x.shape}")
        n, d = x.shape
        if k > n:
            raise DatasetError(
                f"k={k} clusters cannot exceed the n={n} data rows"
            )
        self.x = x
        self.k = k
        self.n_rows = n
        self.d = d
        self.criteria = default_criteria(criteria)
        self.max_iters = self.criteria.max_iters
        centroids0 = resolve_init(x, k, init, seed)
        self.loop = NumericsLoop(
            x, centroids0, pruning, n_partitions=1,
            empty_cluster=empty_cluster, kernel=kernel,
        )
        self.reduction_slots = k
        self.state_bytes_per_row = state_bytes_per_row(
            self.loop.pruning, k
        )
        self._last: Any = None

    def majorize(self) -> MMStep:
        num = self.loop.step()
        sums, counts = self.loop.partial_sums_counts()
        self._last = num
        return MMStep(
            dist_per_row=num.dist_per_row,
            needs_data=num.needs_data,
            n_changed=num.n_changed,
            payload={"sums": sums, "counts": counts.astype(np.float64)},
            motion=num.motion,
            clause1_rows=num.clause1_rows,
            clause2_pruned=num.clause2_pruned,
            clause3_pruned=num.clause3_pruned,
        )

    def minimize(self, payload: dict[str, np.ndarray]) -> None:
        """No-op: the loop's step already installed the centroids
        (its divide is bit-identical to sums/counts)."""

    def converged(self) -> bool:
        if self._last is None:
            return False
        return self.criteria.converged(
            self.n_rows, self._last.n_changed, self._last.motion
        )

    def reset(self) -> None:
        self.loop.reset()
        self._last = None

    def export_state(self) -> dict:
        return self.loop.export_state()

    def restore_state(self, snap: dict) -> None:
        self.loop.restore_state(snap)
        self._last = None

    @property
    def model_array(self) -> np.ndarray:
        return self.loop.centroids

    def result(
        self,
        loop_result: LoopResult,
        *,
        memory_breakdown: dict[str, int] | None = None,
        extra_params: dict | None = None,
    ) -> RunResult:
        return loop_result.as_run_result(
            algorithm="mm-kmeans",
            centroids=self.loop.centroids,
            assignment=self.loop.assignment.copy(),
            inertia=self.loop.inertia(),
            memory_breakdown=memory_breakdown,
            params={
                "n": self.n_rows, "d": self.d, "k": self.k,
                "pruning": self.loop.pruning, "algorithm": self.name,
                "kernel": self.loop.kernel,
                **(extra_params or {}),
            },
        )


# ---------------------------------------------------------------------
# Generic drivers: one per substrate, mirroring knori/knors/knord.
# ---------------------------------------------------------------------


def run_mm_inmemory(
    algorithm: MMAlgorithm,
    *,
    cost_model: Any = None,
    n_threads: int | None = None,
    bind_policy: Any = None,
    scheduler: str = "numa_aware",
    task_rows: int | None = None,
    machine: Any = None,
    observers: Sequence[RunObserver] = (),
    faults: Any = None,
    membership: Any = None,
    mem: Any = None,
    mem_budget_bytes: int | None = None,
) -> RunResult:
    """Run an MM algorithm on one simulated NUMA machine (knori's
    substrate: scheduler + engine replay, barrier + funnel
    reduction). ``mem``/``mem_budget_bytes`` select the interpreter-
    side memory manager (see :mod:`repro.mem`); results are
    bit-identical across managers."""
    from repro.drivers.common import make_scheduler, resolve_memory_manager
    from repro.mem import use_manager
    from repro.runtime.memory import register_mm_memory
    from repro.sched.blocks import auto_task_rows
    from repro.simhw import BindPolicy, FOUR_SOCKET_XEON, SimMachine

    if machine is None:
        machine = SimMachine.build(
            cost_model or FOUR_SOCKET_XEON,
            n_threads=n_threads,
            bind_policy=bind_policy or BindPolicy.NUMA_BIND,
        )
    sched = make_scheduler(scheduler)
    if task_rows is None:
        task_rows = auto_task_rows(algorithm.n_rows, machine.n_threads)
    register_mm_memory(
        machine, algorithm.n_rows, algorithm.d,
        state_bytes_per_row=algorithm.state_bytes_per_row,
        model_slots=algorithm.reduction_slots,
    )
    manager = resolve_memory_manager(mem, mem_budget_bytes, observers)
    with use_manager(manager):
        backend = InMemoryBackend(
            machine,
            sched,
            MMSource(algorithm),
            n_rows=algorithm.n_rows,
            d=algorithm.d,
            reduction_k=algorithm.reduction_slots,
            task_rows=task_rows,
            faults=faults,
        )
        result = IterationLoop(
            backend,
            should_stop=lambda out: algorithm.converged(),
            max_iters=algorithm.max_iters,
            observers=observers,
            faults=faults,
            membership=membership,
        ).run()
    return algorithm.result(
        result,
        memory_breakdown=machine.memory.component_breakdown(),
        extra_params={
            "backend": "inmemory",
            "T": machine.n_threads,
            "scheduler": scheduler,
        },
    )


def run_mm_sem(
    algorithm: MMAlgorithm,
    *,
    ssd: Any = None,
    cost_model: Any = None,
    n_threads: int | None = None,
    bind_policy: Any = None,
    scheduler: str = "numa_aware",
    row_cache_bytes: int | None = None,
    page_cache_bytes: int | None = None,
    cache_update_interval: int = 5,
    io_mode: str = "async",
    io_queue_depth: int = 32,
    io_channels: int | None = None,
    task_rows: int | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_interval: int = 10,
    resume: bool = False,
    observers: Sequence[RunObserver] = (),
    faults: Any = None,
    retry_policy: Any = None,
    membership: Any = None,
    mem: Any = None,
    mem_budget_bytes: int | None = None,
) -> RunResult:
    """Run an MM algorithm semi-external-memory (knors' substrate:
    SAFS + row cache + async I/O pipeline, v4 checkpoints).

    The algorithm's ``needs_data`` mask drives real I/O savings: rows
    a pruned iteration never touches issue no SSD requests.
    ``mem``/``mem_budget_bytes`` select the interpreter-side memory
    manager (see :mod:`repro.mem`).
    """
    from repro.drivers.common import make_scheduler, resolve_memory_manager
    from repro.mem import use_manager
    from repro.runtime.memory import register_mm_memory
    from repro.sched.blocks import auto_task_rows
    from repro.sem import build_sem_stack
    from repro.sem.checkpoint import has_checkpoint, load_mm_checkpoint
    from repro.simhw import BindPolicy, FOUR_SOCKET_XEON, SimMachine
    from repro.simhw.ssd import AsyncIoQueue, OCZ_INTREPID_ARRAY

    ssd = ssd or OCZ_INTREPID_ARRAY
    n, d = algorithm.n_rows, algorithm.d

    machine = SimMachine.build(
        cost_model or FOUR_SOCKET_XEON,
        n_threads=n_threads,
        bind_policy=bind_policy or BindPolicy.NUMA_BIND,
        ssd=ssd,
    )
    sched = make_scheduler(scheduler)
    t = machine.n_threads
    if task_rows is None:
        task_rows = auto_task_rows(n, t)

    manager = resolve_memory_manager(mem, mem_budget_bytes, observers)
    with use_manager(manager):
        io_queue = (
            AsyncIoQueue(queue_depth=io_queue_depth, channels=io_channels)
            if io_mode == "async"
            else None
        )
        io_engine, row_cache, row_cache_bytes, page_cache_bytes = (
            build_sem_stack(
                ssd, n, d, t,
                row_cache_bytes=row_cache_bytes,
                page_cache_bytes=page_cache_bytes,
                cache_update_interval=cache_update_interval,
                io_queue=io_queue,
                faults=faults,
                retry_policy=retry_policy,
            )
        )
        register_mm_memory(
            machine, n, d,
            state_bytes_per_row=algorithm.state_bytes_per_row,
            model_slots=algorithm.reduction_slots,
            resident_rows=False,
            row_cache_bytes=row_cache_bytes,
            page_cache_bytes=page_cache_bytes,
        )

        start_it = 0
        if resume and checkpoint_dir is not None and has_checkpoint(
            checkpoint_dir
        ):
            ckpt = load_mm_checkpoint(checkpoint_dir)
            if ckpt.algorithm != algorithm.name:
                raise IoSubsystemError(
                    f"checkpoint in {checkpoint_dir} belongs to "
                    f"algorithm {ckpt.algorithm!r}, not "
                    f"{algorithm.name!r}"
                )
            snap = {"iteration": ckpt.iteration}
            snap.update(ckpt.arrays)
            snap.update(ckpt.scalars)
            algorithm.restore_state(snap)
            start_it = ckpt.iteration
            if row_cache is not None:
                row_cache.fast_forward(start_it - 1)

        checkpoint = (
            MMCheckpointHook(
                directory=checkpoint_dir,
                interval=checkpoint_interval,
                algorithm=algorithm,
                params={"n": n, "d": d, "algorithm": algorithm.name},
                faults=faults,
            )
            if checkpoint_dir is not None
            else None
        )
        backend = SemBackend(
            machine,
            sched,
            MMSource(algorithm),
            io_engine,
            n_rows=n,
            d=d,
            reduction_k=algorithm.reduction_slots,
            task_rows=task_rows,
            checkpoint=checkpoint,
            io_mode=io_mode,
            faults=faults,
        )
        result = IterationLoop(
            backend,
            should_stop=lambda out: algorithm.converged(),
            max_iters=algorithm.max_iters,
            observers=observers,
            start_iteration=start_it,
            faults=faults,
            membership=membership,
        ).run()
    return algorithm.result(
        result,
        memory_breakdown=machine.memory.component_breakdown(),
        extra_params={
            "backend": "sem",
            "T": t,
            "io_mode": io_mode,
            "row_cache_bytes": row_cache_bytes,
            "page_cache_bytes": page_cache_bytes,
        },
    )


def run_mm_distributed(
    algorithm: MMAlgorithm,
    *,
    n_machines: int = 4,
    cost_model: Any = None,
    threads_per_machine: int | None = None,
    bind_policy: Any = None,
    scheduler: str = "numa_aware",
    network: Any = None,
    task_rows: int | None = None,
    cluster: Any = None,
    observers: Sequence[RunObserver] = (),
    faults: Any = None,
    retry_policy: Any = None,
    allreduce: str = "tree",
    membership: Any = None,
    autoscaler: Any = None,
    mem: Any = None,
    mem_budget_bytes: int | None = None,
) -> RunResult:
    """Run an MM algorithm on a simulated cluster (knord's substrate:
    per-shard machine replay + allreduce of the algorithm's
    accumulator payload; ``allreduce`` picks the charged schedule,
    ``"tree"`` or ``"rect"``, see :mod:`repro.dist.mpi`).
    ``mem``/``mem_budget_bytes`` select the interpreter-side memory
    manager (see :mod:`repro.mem`)."""
    from repro.dist import Cluster, TEN_GBE
    from repro.drivers.common import make_scheduler, resolve_memory_manager
    from repro.mem import use_manager
    from repro.runtime.backends import DistributedBackend
    from repro.simhw import BindPolicy, EC2_C4_8XLARGE

    if cluster is None:
        cluster = Cluster.build(
            n_machines,
            cost_model=cost_model or EC2_C4_8XLARGE,
            threads_per_machine=threads_per_machine,
            bind_policy=bind_policy or BindPolicy.NUMA_BIND,
            network=network or TEN_GBE,
        )
    p = cluster.n_machines
    manager = resolve_memory_manager(mem, mem_budget_bytes, observers)
    with use_manager(manager):
        program = MMShardedProgram(algorithm, p, allreduce=allreduce)
        from repro.runtime.memory import register_mm_memory

        for machine, shard_n in zip(cluster.machines,
                                    program.shard_rows()):
            register_mm_memory(
                machine, shard_n, algorithm.d,
                state_bytes_per_row=algorithm.state_bytes_per_row,
                model_slots=algorithm.reduction_slots,
            )
        schedulers = [make_scheduler(scheduler) for _ in range(p)]
        backend = DistributedBackend(
            cluster,
            schedulers,
            program,
            d=algorithm.d,
            k=algorithm.reduction_slots,
            task_rows=task_rows,
            state_bytes=algorithm.state_bytes_per_row,
            faults=faults,
            retry_policy=retry_policy,
            membership=membership,
            autoscaler=autoscaler,
        )
        result = IterationLoop(
            backend,
            should_stop=lambda out: algorithm.converged(),
            max_iters=algorithm.max_iters,
            observers=observers,
            faults=faults,
        ).run()
    return algorithm.result(
        result,
        memory_breakdown=cluster.machines[0].memory.component_breakdown(),
        extra_params={
            "backend": "distributed",
            "n_machines": p,
            "threads_per_machine": cluster.machines[0].n_threads,
            "scheduler": scheduler,
            "memory_scope": "per_machine",
            "allreduce": program.allreduce,
        },
    )


BACKEND_RUNNERS = {
    "inmemory": run_mm_inmemory,
    "sem": run_mm_sem,
    "distributed": run_mm_distributed,
}


def run_mm(
    algorithm: MMAlgorithm, backend: str = "inmemory", **kwargs: Any
) -> RunResult:
    """Dispatch an MM algorithm onto a backend by name."""
    if backend not in BACKEND_RUNNERS:
        raise ConfigError(
            f"unknown backend {backend!r}; choose from "
            f"{sorted(BACKEND_RUNNERS)}"
        )
    return BACKEND_RUNNERS[backend](algorithm, **kwargs)
