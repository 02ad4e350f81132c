"""Event-driven execution engine for one parallel super-phase.

The engine replays, in simulated time, exactly what the paper's worker
threads do inside one iteration of ||Lloyd's: repeatedly pull a task
from the scheduler, stream the task's rows from whichever bank holds
them, run the (possibly pruned) distance computations, and accumulate
into thread-local centroids. It then charges the single global barrier
and the funnel reduction that ends the iteration.

The *work content* of each task (rows touched, distance computations
after pruning, bytes needed) is computed by the real algorithm before
the engine runs; the engine decides only *when* and *where* the work
happens and what it costs. That split keeps numerics exact while timing
stays a deterministic model.

Event order: the thread with the smallest private clock acts next.
Ties break on thread id, so traces are fully reproducible.

Most of a super-phase has no steals: each thread drains its own
partition first (Section 5.2), so until the first thread finds its
partition empty every event is an own take. :meth:`IterationEngine.run`
replays that prefix in closed form, one pass over each thread's own
queue, from the description the scheduler gives
(:class:`OwnQueueTakes`). Only one event changes an own take's price
in the prefix: the take that empties the first partition raises the
lock share, and the takes ordered after it by ``(clock, tid)`` are
re-priced. The handover point ``P`` is the smallest ``(own-queue
finish clock, tid)``; the prefix is every take ordered before ``P``,
and the event loop runs from there, only if tasks remain. Under the
static scheduler nobody steals, so the prefix is the whole phase. The
per-task cost lives in one function that both paths call, and
:meth:`IterationEngine.run_reference` keeps the original loop verbatim
as the conformance oracle.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, NoReturn, Protocol, Sequence

from repro.errors import SchedulerError
from repro.simhw.costmodel import CostModel
from repro.simhw.thread import SimThread, ThreadCounters
from repro.simhw.topology import BindPolicy


@dataclass(frozen=True)
class TaskWork:
    """Exact work content of one task, produced by the algorithm.

    Attributes
    ----------
    task_id:
        Dense index of the task (block of contiguous rows).
    n_rows:
        Rows in the block.
    n_dist:
        Point-centroid distance computations actually performed for the
        block this iteration (after pruning).
    data_bytes:
        Row data that must be streamed from memory for the block.
    state_bytes:
        Per-row algorithm state touched (assignments, bounds).
    home_node:
        NUMA node whose bank holds the block's slice of the dataset.
    """

    task_id: int
    n_rows: int
    n_dist: int
    data_bytes: int
    state_bytes: int
    home_node: int


class TaskScheduler(Protocol):
    """What the engine needs from a scheduler (see :mod:`repro.sched`).

    A scheduler may also offer ``own_queue_takes() -> OwnQueueTakes |
    None`` and ``commit_own_takes(counts)``; the engine then replays
    the steal-free prefix in closed form. Without them, every task
    goes through ``next_task``.
    """

    def assign(
        self, tasks: list[TaskWork], threads: list[SimThread]
    ) -> None:  # pragma: no cover - protocol
        """Load a fresh iteration's tasks."""
        ...

    def next_task(
        self, thread: SimThread
    ) -> "ScheduleDecision | None":  # pragma: no cover - protocol
        """Hand ``thread`` its next task, or None when drained."""
        ...


@dataclass(frozen=True)
class OwnQueueTakes:
    """How a scheduler serves a thread from its own partition.

    ``queues[t]`` is thread ``t``'s partition in pop order; the engine
    only reads it. ``probes(n_empty)`` is the probe tuple an own take
    meets while ``n_empty`` partitions are empty; it may change only
    when the first partition empties, so it is the same for every
    ``n_empty`` in ``1..T``. ``steals`` says whether a thread whose
    partition is empty steals (True) or parks at the barrier (False).
    """

    queues: Sequence[Sequence[TaskWork]]
    probes: Callable[[int], tuple[int, ...]]
    steals: bool


@dataclass(frozen=True)
class ScheduleDecision:
    """One scheduler response: a task plus the locking it cost.

    ``probe_contenders`` lists, for each queue partition the thread
    probed while searching, how many threads contend on that
    partition's lock. ``stolen_from_node`` is the NUMA node of the
    queue the task was finally taken from (for steal accounting).
    """

    task: TaskWork
    probe_contenders: tuple[int, ...] = (1,)
    stolen_from_node: int | None = None
    was_steal: bool = False


@dataclass
class TaskExecution:
    """Trace record: one task run on one thread."""

    task_id: int
    thread_id: int
    start_ns: float
    end_ns: float
    compute_ns: float
    mem_ns: float
    lock_ns: float
    remote: bool


@dataclass
class IterationTrace:
    """Everything the engine learned about one super-phase."""

    thread_clocks_ns: list[float]
    span_ns: float
    barrier_ns: float
    reduction_ns: float
    total_ns: float
    executions: list[TaskExecution] = field(default_factory=list)
    #: Exact totals summed over threads.
    total_rows: int = 0
    total_dist: int = 0
    total_bytes_local: int = 0
    total_bytes_remote: int = 0
    total_steals: int = 0

    @property
    def busy_fraction(self) -> float:
        """Mean thread utilization before the barrier (1.0 = no skew)."""
        if self.span_ns <= 0 or not self.thread_clocks_ns:
            return 1.0
        return sum(self.thread_clocks_ns) / (
            self.span_ns * len(self.thread_clocks_ns)
        )


class IterationEngine:
    """Replays one super-phase of ||Lloyd's in simulated time."""

    def __init__(
        self,
        cost_model: CostModel,
        *,
        bind_policy: BindPolicy = BindPolicy.NUMA_BIND,
        record_executions: bool = False,
    ) -> None:
        self.cost = cost_model
        self.bind_policy = bind_policy
        self.record_executions = record_executions

    # -- bank concurrency estimate ---------------------------------

    def _bank_streams(
        self, tasks: list[TaskWork], threads: list[SimThread]
    ) -> dict[int, tuple[int, int]]:
        """Estimate (total, remote) concurrent streams per bank.

        Static approximation: every thread whose assigned data lives on
        a bank counts as one stream there; threads on other nodes count
        as remote streams. Under OBLIVIOUS everything sits on node 0 so
        all T threads pile onto one bank -- exactly the saturation
        Figure 4 attributes to NUMA-oblivious allocation.
        """
        banks = {task.home_node for task in tasks}
        streams: dict[int, tuple[int, int]] = {}
        if len(banks) <= 1:
            # All data in one bank (OBLIVIOUS / NUMA_BIND-to-one-node):
            # every thread must stream from it.
            for bank in banks:
                remote = sum(1 for th in threads if th.node != bank)
                streams[bank] = (max(1, len(threads)), remote)
            return streams
        # Partitioned data: each bank is served mostly by the threads
        # bound to its node (steals are the exception, not the steady
        # state, so they do not change the concurrency estimate).
        for bank in banks:
            local = sum(1 for th in threads if th.node == bank)
            streams[bank] = (max(1, local), 0)
        return streams

    # -- per-task cost ----------------------------------------------

    def _pricer(
        self, tasks: list[TaskWork], threads: list[SimThread], d: int
    ) -> Callable[[TaskWork, int], tuple[float, float, float, bool, int]]:
        """Build the one per-task cost function of a super-phase.

        ``price(task, node)`` returns ``(compute_ns, mem_ns, task_ns,
        remote, nbytes)`` for ``task`` run by a thread bound to
        ``node``. The cost-model calls are folded into per-iteration
        constants and per-bank bandwidth tables; every value is
        bit-identical to the per-task CostModel call chain of
        :meth:`run_reference`.
        """
        cost = self.cost
        n_threads = len(threads)
        overlap = self.bind_policy is not BindPolicy.OBLIVIOUS
        smt_mult = cost.smt_compute_mult(n_threads)
        migration_mult = (
            cost.migration_compute_mult(n_threads)
            if self.bind_policy is BindPolicy.OBLIVIOUS
            else 1.0
        )
        # One distance column (dist_comp_ns is linear in n_dist) and
        # one row of bookkeeping; the (a + b) * smt * mig evaluation
        # order below matches the CostModel call chain exactly.
        col_ns = cost.dist_comp_ns(d, 1)
        row_ns = cost.row_overhead_ns
        # Effective (local, remote) bandwidth per bank: the min() chain
        # of CostModel.mem_stream_ns evaluated once per bank instead of
        # once per task.
        line_bytes = cost.cache_line_bytes
        line_lat = cost.remote_line_latency_ns
        mem_table: dict[int, tuple[float, float]] = {}
        for bank, (streams_t, streams_r) in self._bank_streams(
            tasks, threads
        ).items():
            bw_local = min(
                cost.per_core_bw, cost.bank_bw / max(1, streams_t)
            )
            bw_remote = min(
                bw_local, cost.interconnect_bw / max(1, streams_r)
            )
            mem_table[bank] = (bw_local, bw_remote)
        default_bw_local = min(cost.per_core_bw, cost.bank_bw)
        default_mem = (
            default_bw_local,
            min(default_bw_local, cost.interconnect_bw),
        )

        def price(
            task: TaskWork, node: int
        ) -> tuple[float, float, float, bool, int]:
            compute_ns = (
                task.n_dist * col_ns + task.n_rows * row_ns
            ) * smt_mult * migration_mult
            remote = task.home_node != node
            nbytes = task.data_bytes + task.state_bytes
            if nbytes <= 0:
                mem_ns = 0.0
            else:
                bw_local, bw_remote = mem_table.get(
                    task.home_node, default_mem
                )
                if remote:
                    n_lines = math.ceil(nbytes / line_bytes)
                    mem_ns = (
                        nbytes / bw_remote * 1e9
                        + 0.3 * n_lines * line_lat
                    )
                else:
                    mem_ns = nbytes / bw_local * 1e9
            # A remote block cannot ride the local-bank prefetch
            # pipeline: remote accesses serialize against compute, so
            # stolen-remote tasks (and everything under the oblivious
            # policy) lose the overlap.
            if overlap and not remote:
                task_ns = compute_ns if compute_ns > mem_ns else mem_ns
            else:
                task_ns = compute_ns + mem_ns
            return compute_ns, mem_ns, task_ns, remote, nbytes

        return price

    # -- main loop ---------------------------------------------------

    def run(
        self,
        scheduler: TaskScheduler,
        tasks: list[TaskWork],
        threads: list[SimThread],
        *,
        d: int,
        k: int,
        reduction: bool = True,
    ) -> IterationTrace:
        """Execute one super-phase and return its trace.

        ``d``/``k`` size the centroid merge at the end; set
        ``reduction=False`` for phases that do not merge (e.g. an
        assignment-only pass).

        When the scheduler describes its own-partition takes
        (:meth:`repro.sched.BaseScheduler.own_queue_takes`), the
        steal-free prefix is replayed in closed form first (see
        :meth:`_replay_own_prefix`) and the event loop starts at the
        first moment a thread could steal -- and only if tasks remain.
        Any other scheduler runs the whole phase through the event
        loop. Either way the event order and every simulated charge
        are bit-identical to :meth:`run_reference`.
        """
        if not threads:
            raise SchedulerError("engine needs at least one thread")
        for th in threads:
            th.clock_ns = 0.0
            th.counters = ThreadCounters()
        scheduler.assign(tasks, threads)
        price = self._pricer(tasks, threads, d)
        cost = self.cost
        # Distinct probe patterns are few (schedulers emit a handful of
        # tuple shapes); price each once.
        lock_table: dict[tuple[int, ...], float] = {}

        def lock_of(probes: tuple[int, ...]) -> float:
            lock_ns = lock_table.get(probes)
            if lock_ns is None:
                lock_ns = lock_table[probes] = sum(
                    cost.lock_wait_ns(c) for c in probes
                )
            return lock_ns

        executions: list[TaskExecution] = []
        seen_tasks: set[int] = set()
        describe = getattr(scheduler, "own_queue_takes", None)
        own = describe() if describe is not None else None
        if own is not None:
            scheduler.commit_own_takes(
                self._replay_own_prefix(
                    own, threads, price, lock_of, seen_tasks, executions
                )
            )
        if own is None or len(seen_tasks) < len(tasks):
            self._event_loop(
                scheduler, threads, price, lock_of, seen_tasks, executions
            )

        if len(seen_tasks) != len(tasks):
            raise SchedulerError(
                f"scheduler drained with {len(seen_tasks)}/{len(tasks)} "
                "tasks dispatched"
            )

        n_threads = len(threads)
        span = max(th.clock_ns for th in threads)
        barrier = self.cost.barrier_ns(n_threads)
        red = (
            self.cost.reduction_ns(k, d, n_threads) if reduction else 0.0
        )
        totals = [th.counters for th in threads]
        return IterationTrace(
            thread_clocks_ns=[th.clock_ns for th in threads],
            span_ns=span,
            barrier_ns=barrier,
            reduction_ns=red,
            total_ns=span + barrier + red,
            executions=executions,
            total_rows=sum(c.rows_processed for c in totals),
            total_dist=sum(c.dist_computations for c in totals),
            total_bytes_local=sum(c.bytes_local for c in totals),
            total_bytes_remote=sum(c.bytes_remote for c in totals),
            total_steals=sum(
                c.steals_local_node + c.steals_remote_node for c in totals
            ),
        )

    def _replay_own_prefix(
        self,
        own: OwnQueueTakes,
        threads: list[SimThread],
        price: Callable[[TaskWork, int], tuple],
        lock_of: Callable[[tuple[int, ...]], float],
        seen_tasks: set[int],
        executions: list[TaskExecution],
    ) -> dict[int, int]:
        """Replay, in closed form, every take ordered before the first
        possible steal; returns how many tasks each thread took
        (threads that took none are left out).

        Until some thread finds its own partition empty, every event is
        an own take, and a thread's takes depend on no other thread
        except through the lock share. So each thread's clock is one
        chain over its own queue: ``start + (lock + task_ns)``, times
        ``slow_factor`` when one is set, exactly as ``execute`` adds.
        The share changes at one event only: the take that empties the
        first partition (``probes`` is constant once any partition is
        empty). That take still meets the opening share; the takes
        ordered after it by ``(clock, tid)`` are re-priced.

        The handover point ``P`` is the smallest ``(own-queue finish
        clock, tid)``, where a thread whose partition starts empty
        finishes at 0.0: there the first thread may steal. The prefix is
        every take ordered before ``P``; the thread that defines ``P``
        keeps all of its takes. A scheduler that never steals parks
        instead, so its prefix is the whole phase.
        """
        queues = own.queues
        busy = [tid for tid, queue in enumerate(queues) if queue]
        n_empty = len(queues) - len(busy)
        probes_first = own.probes(n_empty)
        probes_rest = own.probes(1) if n_empty == 0 else probes_first
        lock_first = lock_of(probes_first)
        lock_rest = lock_of(probes_rest)

        # Per busy thread: every own task's price, and the clock chain
        # at the opening share.
        costs = []
        clocks = []
        for tid in busy:
            th = threads[tid]
            row = [price(task, th.node) for task in queues[tid]]
            costs.append(row)
            clocks.append(_chain(0.0, lock_first, row, th.slow_factor))
        # Takes per busy thread that meet the opening share.
        n_first = [len(row) for row in costs]
        if probes_rest != probes_first:
            # No partition starts empty, so every thread is busy; the
            # earliest last take empties the first partition.
            e_clock, e_tid = min(
                (chain[-2], tid) for tid, chain in zip(busy, clocks)
            )
            for i, (tid, row, chain) in enumerate(zip(busy, costs, clocks)):
                if tid == e_tid:
                    continue
                after = bisect_right if tid < e_tid else bisect_left
                j = n_first[i] = after(chain, e_clock, 0, len(row))
                if j < len(row) and lock_rest != lock_first:
                    chain[j:] = _chain(
                        chain[j], lock_rest, row[j:],
                        threads[tid].slow_factor,
                    )

        if own.steals:
            finishes = [(chain[-1], tid) for tid, chain in zip(busy, clocks)]
            if n_empty:
                # A partition that starts empty finishes at 0.0.
                finishes.append(
                    (0.0, next(t for t, q in enumerate(queues) if not q))
                )
            p_clock, p_tid = min(finishes)
            taken = [
                len(row) if tid == p_tid
                else (bisect_right if tid < p_tid else bisect_left)(
                    chain, p_clock, 0, len(row)
                )
                for tid, row, chain in zip(busy, costs, clocks)
            ]
        else:
            taken = [len(row) for row in costs]

        record = self.record_executions
        records: list[TaskExecution] = []
        n_taken = 0
        for tid, row, chain, n, j in zip(
            busy, costs, clocks, taken, n_first
        ):
            if not n:
                continue
            n_taken += n
            th = threads[tid]
            th.clock_ns = chain[n]
            j = min(j, n)
            c = th.counters
            c.queue_probes += (
                j * len(probes_first) + (n - j) * len(probes_rest)
            )
            # Summed in take order, as execute accumulates it.
            wait = c.lock_wait_ns
            for _ in range(j):
                wait += lock_first
            for _ in range(n - j):
                wait += lock_rest
            c.lock_wait_ns = wait
            c.tasks_run += n
            n_rows = n_dist = bytes_local = bytes_remote = 0
            for i, task in enumerate(islice(queues[tid], n)):
                seen_tasks.add(task.task_id)
                n_rows += task.n_rows
                n_dist += task.n_dist
                compute_ns, mem_ns, _, remote, nbytes = row[i]
                if remote:
                    bytes_remote += nbytes
                else:
                    bytes_local += nbytes
                if record:
                    records.append(
                        TaskExecution(
                            task_id=task.task_id,
                            thread_id=tid,
                            start_ns=chain[i],
                            end_ns=chain[i + 1],
                            compute_ns=compute_ns,
                            mem_ns=mem_ns,
                            lock_ns=lock_first if i < j else lock_rest,
                            remote=remote,
                        )
                    )
            c.rows_processed += n_rows
            c.dist_computations += n_dist
            c.bytes_local += bytes_local
            c.bytes_remote += bytes_remote

        if len(seen_tasks) != n_taken:
            _raise_first_duplicate(queues, busy, clocks, taken)
        if record:
            # Event order: (start, tid); a stable sort keeps one
            # thread's equal-clock takes in sequence.
            records.sort(key=lambda e: (e.start_ns, e.thread_id))
            executions.extend(records)
        return {tid: n for tid, n in zip(busy, taken) if n}

    def _event_loop(
        self,
        scheduler: TaskScheduler,
        threads: list[SimThread],
        price: Callable[[TaskWork, int], tuple],
        lock_of: Callable[[tuple[int, ...]], float],
        seen_tasks: set[int],
        executions: list[TaskExecution],
    ) -> None:
        """Dispatch from the threads' current clocks until every thread
        parks: the smallest ``(clock, tid)`` acts next."""
        record_executions = self.record_executions
        next_task = scheduler.next_task

        def execute(thread: SimThread, decision: ScheduleDecision) -> None:
            task = decision.task
            if task.task_id in seen_tasks:
                raise SchedulerError(
                    f"task {task.task_id} dispatched twice"
                )
            seen_tasks.add(task.task_id)

            probes = decision.probe_contenders
            lock_ns = lock_of(probes)
            c = thread.counters
            c.queue_probes += len(probes)
            c.lock_wait_ns += lock_ns
            if decision.was_steal:
                if decision.stolen_from_node == thread.node:
                    c.steals_local_node += 1
                else:
                    c.steals_remote_node += 1

            compute_ns, mem_ns, task_ns, remote, nbytes = price(
                task, thread.node
            )
            start = thread.clock_ns
            # Straggler plane: an injected slowdown stretches this
            # thread's execution. Guarded so the fault-free arithmetic
            # is untouched (bit-identical clean runs).
            sf = thread.slow_factor
            if sf != 1.0:
                thread.clock_ns = start + (lock_ns + task_ns) * sf
            else:
                thread.clock_ns = start + (lock_ns + task_ns)

            c.tasks_run += 1
            c.rows_processed += task.n_rows
            c.dist_computations += task.n_dist
            if remote:
                c.bytes_remote += nbytes
            else:
                c.bytes_local += nbytes

            if record_executions:
                executions.append(
                    TaskExecution(
                        task_id=task.task_id,
                        thread_id=thread.thread_id,
                        start_ns=start,
                        end_ns=thread.clock_ns,
                        compute_ns=compute_ns,
                        mem_ns=mem_ns,
                        lock_ns=lock_ns,
                        remote=remote,
                    )
                )

        # Each runnable thread holds exactly one heap entry; parked
        # threads are simply not re-pushed, so no stale entries exist.
        heap: list[tuple[float, int]] = [
            (th.clock_ns, th.thread_id) for th in threads
        ]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            _, tid = heappop(heap)
            thread = threads[tid]
            decision = next_task(thread)
            if decision is None:
                continue
            execute(thread, decision)
            heappush(heap, (thread.clock_ns, tid))

    # -- reference loop ----------------------------------------------

    def run_reference(
        self,
        scheduler: TaskScheduler,
        tasks: list[TaskWork],
        threads: list[SimThread],
        *,
        d: int,
        k: int,
        reduction: bool = True,
    ) -> IterationTrace:
        """The original, straight-line event loop, kept verbatim.

        Calls the cost model per task and runs every event through the
        heap. :meth:`run` must produce bit-identical traces; the
        conformance tests and the wall-clock benchmark both replay
        through this method as the "before" baseline.
        """
        if not threads:
            raise SchedulerError("engine needs at least one thread")
        for th in threads:
            th.clock_ns = 0.0
            th.counters = ThreadCounters()
        scheduler.assign(tasks, threads)
        bank_streams = self._bank_streams(tasks, threads)
        n_threads = len(threads)
        overlap = self.bind_policy is not BindPolicy.OBLIVIOUS
        smt_mult = self.cost.smt_compute_mult(n_threads)
        migration_mult = (
            self.cost.migration_compute_mult(n_threads)
            if self.bind_policy is BindPolicy.OBLIVIOUS
            else 1.0
        )

        executions: list[TaskExecution] = []
        seen_tasks: set[int] = set()
        heap: list[tuple[float, int]] = [
            (th.clock_ns, th.thread_id) for th in threads
        ]
        heapq.heapify(heap)
        done: set[int] = set()

        while heap:
            clock, tid = heapq.heappop(heap)
            if tid in done:
                continue
            thread = threads[tid]
            decision = scheduler.next_task(thread)
            if decision is None:
                done.add(tid)
                continue
            task = decision.task
            if task.task_id in seen_tasks:
                raise SchedulerError(
                    f"task {task.task_id} dispatched twice"
                )
            seen_tasks.add(task.task_id)

            lock_ns = sum(
                self.cost.lock_wait_ns(c) for c in decision.probe_contenders
            )
            thread.counters.queue_probes += len(decision.probe_contenders)
            thread.counters.lock_wait_ns += lock_ns
            if decision.was_steal:
                if decision.stolen_from_node == thread.node:
                    thread.counters.steals_local_node += 1
                else:
                    thread.counters.steals_remote_node += 1

            compute_ns = (
                self.cost.dist_comp_ns(d, task.n_dist)
                + self.cost.rows_overhead_ns(task.n_rows)
            ) * smt_mult * migration_mult
            remote = task.home_node != thread.node
            total_streams, remote_streams = bank_streams.get(
                task.home_node, (1, 0)
            )
            nbytes = task.data_bytes + task.state_bytes
            mem_ns = self.cost.mem_stream_ns(
                nbytes,
                remote=remote,
                streams_on_bank=total_streams,
                remote_streams_on_bank=remote_streams,
            )
            # A remote block cannot ride the local-bank prefetch
            # pipeline: remote accesses serialize against compute, so
            # stolen-remote tasks (and everything under the oblivious
            # policy) lose the overlap.
            task_ns = self.cost.task_time_ns(
                compute_ns, mem_ns, overlap=overlap and not remote
            )
            start = thread.clock_ns
            # Same straggler stretch as the fast path (conformance).
            if thread.slow_factor != 1.0:
                thread.advance((lock_ns + task_ns) * thread.slow_factor)
            else:
                thread.advance(lock_ns + task_ns)

            c = thread.counters
            c.tasks_run += 1
            c.rows_processed += task.n_rows
            c.dist_computations += task.n_dist
            if remote:
                c.bytes_remote += nbytes
            else:
                c.bytes_local += nbytes

            if self.record_executions:
                executions.append(
                    TaskExecution(
                        task_id=task.task_id,
                        thread_id=tid,
                        start_ns=start,
                        end_ns=thread.clock_ns,
                        compute_ns=compute_ns,
                        mem_ns=mem_ns,
                        lock_ns=lock_ns,
                        remote=remote,
                    )
                )
            heapq.heappush(heap, (thread.clock_ns, tid))

        if len(seen_tasks) != len(tasks):
            raise SchedulerError(
                f"scheduler drained with {len(seen_tasks)}/{len(tasks)} "
                "tasks dispatched"
            )

        span = max(th.clock_ns for th in threads)
        barrier = self.cost.barrier_ns(n_threads)
        red = (
            self.cost.reduction_ns(k, d, n_threads) if reduction else 0.0
        )
        totals = [th.counters for th in threads]
        return IterationTrace(
            thread_clocks_ns=[th.clock_ns for th in threads],
            span_ns=span,
            barrier_ns=barrier,
            reduction_ns=red,
            total_ns=span + barrier + red,
            executions=executions,
            total_rows=sum(c.rows_processed for c in totals),
            total_dist=sum(c.dist_computations for c in totals),
            total_bytes_local=sum(c.bytes_local for c in totals),
            total_bytes_remote=sum(c.bytes_remote for c in totals),
            total_steals=sum(
                c.steals_local_node + c.steals_remote_node for c in totals
            ),
        )


def _chain(
    clock: float, lock_ns: float, costs: list[tuple], slow_factor: float
) -> list[float]:
    """A thread's clock at the start of each take, then at the end:
    the same sequential additions ``execute`` makes."""
    clocks = [clock]
    append = clocks.append
    if slow_factor != 1.0:
        for cost in costs:
            clock = clock + (lock_ns + cost[2]) * slow_factor
            append(clock)
    else:
        for cost in costs:
            clock = clock + (lock_ns + cost[2])
            append(clock)
    return clocks


def _raise_first_duplicate(
    queues: Sequence[Sequence[TaskWork]],
    busy: list[int],
    clocks: list[list[float]],
    taken: list[int],
) -> NoReturn:
    """Raise for the first task id the prefix dispatched twice, in
    event order, as the event loop would have."""
    events = sorted(
        (chain[i], tid, i, task.task_id)
        for tid, chain, n in zip(busy, clocks, taken)
        for i, task in enumerate(islice(queues[tid], n))
    )
    seen: set[int] = set()
    for *_, task_id in events:
        if task_id in seen:
            raise SchedulerError(f"task {task_id} dispatched twice")
        seen.add(task_id)
    raise SchedulerError("prefix dispatch count out of sync")


@dataclass(frozen=True)
class IoPlacement:
    """Where one iteration's I/O service time lands relative to compute.

    ``hidden_ns`` was absorbed by the prefetcher ahead of the compute
    front (issued early against banked overlap credit); ``blocked_ns``
    is what compute must still wait behind. ``hidden + blocked`` always
    equals the batch's async service time, so the I/O *work* charged is
    never altered -- only its overlap with compute.
    """

    service_ns: float
    hidden_ns: float
    blocked_ns: float
    prefetched: bool


class AsyncIoTimeline:
    """Cross-iteration overlap ledger for the async I/O pipeline.

    The row-cache refresh tells the prefetcher which rows are *active*;
    from then on the engine knows iteration ``i+1``'s fetch set before
    iteration ``i``'s compute finishes, so SAFS can issue those reads
    under the running compute. The ledger models that without moving
    any real state: each iteration banks *credit* equal to the compute
    time its I/O did not consume (``wall - blocked``), and the next
    prefetchable batch may hide up to that much service time.

    Iteration 0 (and every iteration until the row cache has been
    populated once) has no known-ahead active set, so nothing hides and
    the accounting degenerates to the sync formula
    ``max(span, service) + barrier + reduction``.

    The ledger is pure timing plane: it never touches cache contents or
    hit/miss counters, so numerics and I/O tallies stay bit-identical
    to ``--sync-io`` by construction.
    """

    def __init__(self) -> None:
        self.credit_ns = 0.0
        self.hidden_total_ns = 0.0
        self.blocked_total_ns = 0.0

    def reset(self) -> None:
        """Forget banked credit (crash recovery restarts the pipeline
        cold, matching the caches)."""
        self.credit_ns = 0.0

    def plan(self, service_ns: float, *, prefetchable: bool) -> IoPlacement:
        """Split a batch's service time into hidden and blocked parts."""
        if service_ns < 0:
            raise SchedulerError(f"negative service time {service_ns}")
        hidden = min(service_ns, self.credit_ns) if prefetchable else 0.0
        return IoPlacement(
            service_ns=service_ns,
            hidden_ns=hidden,
            blocked_ns=service_ns - hidden,
            prefetched=hidden > 0.0,
        )

    def commit(
        self,
        placement: IoPlacement,
        span_ns: float,
        barrier_ns: float,
        reduction_ns: float,
    ) -> float:
        """Account one iteration; returns its simulated wall time.

        Compute waits only behind the blocked remainder; the wall time
        the iteration still spends computing (``wall - blocked``) is
        banked as prefetch credit for the next iteration's reads.
        """
        wall = max(span_ns, placement.blocked_ns) + barrier_ns + reduction_ns
        self.credit_ns = wall - placement.blocked_ns
        self.hidden_total_ns += placement.hidden_ns
        self.blocked_total_ns += placement.blocked_ns
        return wall


@dataclass
class ProvisionRequest:
    """One outstanding capacity request on the provisioning timeline."""

    requested_at_ns: float
    ready_at_ns: float
    count: int


class ProvisionTimeline:
    """Request→grant latency ledger for elastic capacity.

    Cloud capacity is not instant: a machine requested at simulated
    time ``T`` boots, joins the placement group and becomes usable
    only at ``T + provision_ns``. This timeline models that honestly
    on the simulated clock the iteration records already carry --
    callers ``advance()`` it by each iteration's wall time, ``request``
    capacity against the current clock, and ``take_ready()`` machines
    whose provisioning latency has fully elapsed.

    Pure timing plane, fully deterministic: no randomness, no real
    clock, so an autoscaler's grant schedule is a pure function of the
    iteration times that drove it.
    """

    def __init__(self, provision_ns: float) -> None:
        if provision_ns < 0:
            raise SchedulerError(
                f"provision_ns must be >= 0, got {provision_ns}"
            )
        self.provision_ns = provision_ns
        self.now_ns = 0.0
        self.pending: list[ProvisionRequest] = []
        self.granted = 0

    def advance(self, delta_ns: float) -> None:
        """Move the simulated clock forward (one iteration's wall)."""
        if delta_ns < 0:
            raise SchedulerError(f"negative time advance {delta_ns}")
        self.now_ns += delta_ns

    def request(self, count: int = 1) -> ProvisionRequest:
        """Ask for ``count`` machines; they ready at now + latency."""
        if count < 1:
            raise SchedulerError(f"count must be >= 1, got {count}")
        req = ProvisionRequest(
            requested_at_ns=self.now_ns,
            ready_at_ns=self.now_ns + self.provision_ns,
            count=count,
        )
        self.pending.append(req)
        return req

    @property
    def outstanding(self) -> int:
        """Machines requested but not yet granted."""
        return sum(r.count for r in self.pending)

    def take_ready(self) -> int:
        """Grant every request whose latency has elapsed; returns the
        machine count granted now (requests are consumed in order)."""
        ready = [r for r in self.pending if r.ready_at_ns <= self.now_ns]
        if not ready:
            return 0
        self.pending = [
            r for r in self.pending if r.ready_at_ns > self.now_ns
        ]
        count = sum(r.count for r in ready)
        self.granted += count
        return count
