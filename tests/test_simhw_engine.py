"""Event-driven iteration engine: dispatch, accounting, and invariants."""

from dataclasses import asdict, replace

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.sched import (
    FifoScheduler,
    NumaAwareScheduler,
    StaticScheduler,
)
from repro.simhw import (
    BindPolicy,
    FOUR_SOCKET_XEON,
    IterationEngine,
    TaskWork,
)
from repro.simhw.thread import spawn_threads


def make_tasks(n_tasks, n_dist=100, home_nodes=None):
    return [
        TaskWork(
            task_id=i,
            n_rows=10,
            n_dist=n_dist,
            data_bytes=640,
            state_bytes=120,
            home_node=home_nodes[i] if home_nodes else i % 4,
        )
        for i in range(n_tasks)
    ]


def run(n_threads, tasks, policy=BindPolicy.NUMA_BIND, sched=None,
        record=False):
    engine = IterationEngine(
        FOUR_SOCKET_XEON, bind_policy=policy, record_executions=record
    )
    threads = spawn_threads(FOUR_SOCKET_XEON.topology, n_threads, policy)
    return engine.run(
        sched or StaticScheduler(), tasks, threads, d=8, k=10
    )


def test_all_tasks_executed_once():
    trace = run(4, make_tasks(16))
    assert trace.total_rows == 160
    assert trace.total_dist == 1600


def test_trace_totals_reset_between_runs():
    engine = IterationEngine(FOUR_SOCKET_XEON)
    threads = spawn_threads(FOUR_SOCKET_XEON.topology, 4,
                            BindPolicy.NUMA_BIND)
    sched = StaticScheduler()
    t1 = engine.run(sched, make_tasks(8), threads, d=8, k=10)
    t2 = engine.run(sched, make_tasks(8), threads, d=8, k=10)
    assert t1.total_rows == t2.total_rows == 80


def test_more_threads_faster_span():
    tasks = make_tasks(64)
    t1 = run(1, tasks)
    t8 = run(8, tasks)
    assert t8.span_ns < t1.span_ns
    # Near-linear at uniform work.
    assert t1.span_ns / t8.span_ns > 5.0


def test_skewed_work_creates_skewed_span():
    """Static scheduling of skewed tasks leaves threads idle."""
    tasks = make_tasks(16)
    # Make the first quarter of tasks 50x heavier.
    heavy = [
        TaskWork(t.task_id, t.n_rows, t.n_dist * (50 if i < 4 else 1),
                 t.data_bytes, t.state_bytes, t.home_node)
        for i, t in enumerate(tasks)
    ]
    static = run(4, heavy, sched=StaticScheduler())
    stealing = run(4, heavy, sched=NumaAwareScheduler())
    assert stealing.span_ns < static.span_ns
    assert static.busy_fraction < 0.8
    assert stealing.busy_fraction > static.busy_fraction


def test_oblivious_slower_than_bound():
    tasks = make_tasks(64)
    aware = run(16, tasks)
    oblivious_tasks = [
        TaskWork(t.task_id, t.n_rows, t.n_dist, t.data_bytes,
                 t.state_bytes, 0)
        for t in tasks
    ]
    oblivious = run(16, oblivious_tasks, policy=BindPolicy.OBLIVIOUS)
    assert oblivious.total_ns > aware.total_ns


def test_remote_bytes_accounted():
    # All tasks on node 0, threads on all nodes -> most bytes remote.
    tasks = make_tasks(16, home_nodes=[0] * 16)
    trace = run(8, tasks, sched=NumaAwareScheduler())
    assert trace.total_bytes_remote > 0


def test_local_bytes_when_partitioned():
    trace = run(8, make_tasks(16))
    assert trace.total_bytes_local > 0


def test_barrier_and_reduction_charged():
    trace = run(8, make_tasks(8))
    assert trace.barrier_ns > 0
    assert trace.reduction_ns > 0
    assert trace.total_ns == pytest.approx(
        trace.span_ns + trace.barrier_ns + trace.reduction_ns
    )


def test_no_reduction_when_disabled():
    engine = IterationEngine(FOUR_SOCKET_XEON)
    threads = spawn_threads(FOUR_SOCKET_XEON.topology, 4,
                            BindPolicy.NUMA_BIND)
    trace = engine.run(
        StaticScheduler(), make_tasks(8), threads, d=8, k=10,
        reduction=False,
    )
    assert trace.reduction_ns == 0.0


def test_execution_records():
    trace = run(2, make_tasks(6), record=True)
    assert len(trace.executions) == 6
    for ex in trace.executions:
        assert ex.end_ns >= ex.start_ns
        assert ex.compute_ns > 0


def test_empty_threads_rejected():
    engine = IterationEngine(FOUR_SOCKET_XEON)
    with pytest.raises(SchedulerError):
        engine.run(StaticScheduler(), make_tasks(4), [], d=8, k=10)


def test_deterministic_traces():
    t1 = run(8, make_tasks(32), sched=NumaAwareScheduler())
    t2 = run(8, make_tasks(32), sched=NumaAwareScheduler())
    assert t1.total_ns == t2.total_ns
    assert t1.thread_clocks_ns == t2.thread_clocks_ns


def test_single_thread_executes_serially():
    trace = run(1, make_tasks(10))
    assert trace.busy_fraction == pytest.approx(1.0)
    assert trace.barrier_ns == 0.0


def test_remote_task_loses_prefetch_overlap():
    """A stolen/remote block cannot overlap memory with compute: its
    task time is the sum, a local one's is the max."""
    cm = FOUR_SOCKET_XEON
    engine = IterationEngine(cm)
    threads = spawn_threads(cm.topology, 4, BindPolicy.NUMA_BIND)
    # One fat task; home node either local to thread 0 or remote.
    local = [TaskWork(0, 100, 5000, 1 << 16, 0, threads[0].node)]
    remote_node = (threads[0].node + 1) % cm.topology.n_nodes
    remote = [TaskWork(0, 100, 5000, 1 << 16, 0, remote_node)]
    sched = StaticScheduler()
    t_local = engine.run(sched, local, threads[:1], d=8, k=10)
    t_remote = engine.run(sched, remote, threads[:1], d=8, k=10)
    compute = cm.dist_comp_ns(8, 5000) + cm.rows_overhead_ns(100)
    mem_local = cm.mem_stream_ns(1 << 16, remote=False, streams_on_bank=1)
    # Local: overlapped -> span is max(compute, mem).
    assert t_local.span_ns == pytest.approx(max(compute, mem_local))
    # Remote: additive and with remote charges -> strictly larger.
    assert t_remote.span_ns > t_local.span_ns
    assert t_remote.span_ns > compute


# -- optimized loop vs reference loop conformance -------------------


def _trace_key(trace, threads, sched):
    """Everything observable about a replay, for exact comparison: the
    trace, every thread's clock and counters (straggler detection reads
    the probe, lock and steal tallies), and the scheduler's end state."""
    return (
        trace.thread_clocks_ns,
        trace.span_ns,
        trace.barrier_ns,
        trace.reduction_ns,
        trace.total_ns,
        trace.total_rows,
        trace.total_dist,
        trace.total_bytes_local,
        trace.total_bytes_remote,
        trace.total_steals,
        [asdict(e) for e in trace.executions],
        [(th.clock_ns, asdict(th.counters)) for th in threads],
        sched.queue_lengths(),
    )


def _replay_keys(sched_cls, tasks, n_threads, policy, *, record,
                 d=8, k=10, slow=None, cm=FOUR_SOCKET_XEON):
    """Replay one task stream through ``run`` and ``run_reference`` on
    fresh threads and schedulers; ``slow`` is an optional straggler
    ``(thread index, slow_factor)``."""
    engine = IterationEngine(
        cm, bind_policy=policy, record_executions=record
    )
    keys = []
    for replay in (engine.run, engine.run_reference):
        threads = spawn_threads(cm.topology, n_threads, policy)
        if slow is not None:
            threads[slow[0] % n_threads].slow_factor = slow[1]
        sched = sched_cls()
        trace = replay(sched, tasks, threads, d=d, k=k)
        keys.append(_trace_key(trace, threads, sched))
    return keys


def _mixed_tasks(n_tasks, n_nodes):
    """Non-uniform work so steals, remote streams and ties all occur."""
    return [
        TaskWork(
            task_id=i,
            n_rows=10 + (i % 7),
            n_dist=100 + 13 * i,
            data_bytes=640 + 64 * i,
            state_bytes=120,
            home_node=i % n_nodes,
        )
        for i in range(n_tasks)
    ]


# Each conformance test replays with and without recorded executions;
# the record flag is looped inside so the parametrized ids stay stable.
RECORD_MODES = (True, False)


@pytest.mark.parametrize("policy", [BindPolicy.NUMA_BIND,
                                    BindPolicy.OBLIVIOUS])
@pytest.mark.parametrize("sched_cls", [StaticScheduler, FifoScheduler,
                                       NumaAwareScheduler])
@pytest.mark.parametrize("n_threads", [1, 3, 8])
def test_run_matches_reference(policy, sched_cls, n_threads):
    """The optimized replay is bit-identical to the kept-verbatim
    reference loop: same event order, same simulated charges, same
    counters -- across bind policies, schedulers and thread counts."""
    tasks = _mixed_tasks(23, FOUR_SOCKET_XEON.topology.n_nodes)
    for record in RECORD_MODES:
        new, ref = _replay_keys(
            sched_cls, tasks, n_threads, policy, record=record
        )
        assert new == ref


def test_run_matches_reference_fifo_shared_queue():
    """FIFO's per-thread partitions with id-order stealing exercise the
    contended-lock pricing and the end-of-phase drain."""
    tasks = _mixed_tasks(40, FOUR_SOCKET_XEON.topology.n_nodes)
    for record in RECORD_MODES:
        new, ref = _replay_keys(
            FifoScheduler, tasks, 6, BindPolicy.NUMA_BIND,
            record=record, d=12, k=7,
        )
        assert new == ref


def test_run_matches_reference_single_bank():
    """All data on one bank (the Figure 4 oblivious regime): every
    thread streams remotely except the bank's own node."""
    tasks = _mixed_tasks(16, 1)  # everything homed on node 0
    for record in RECORD_MODES:
        new, ref = _replay_keys(
            StaticScheduler, tasks, 8, BindPolicy.OBLIVIOUS,
            record=record,
        )
        assert new == ref


class _Lopsided:
    """Queues every odd partition's tasks on the partition before it, so
    partitions that start empty sit beside ones with many tasks (the
    block layout alone never does that)."""

    def assign(self, tasks, threads):
        super().assign(tasks, threads)
        queues = self._queues
        for tid in range(1, len(queues), 2):
            queues[tid - 1].extend(queues[tid])
            queues[tid].clear()
        self._n_prowling = sum(1 for q in queues if not q)


class LopsidedStatic(_Lopsided, StaticScheduler):
    pass


class LopsidedFifo(_Lopsided, FifoScheduler):
    pass


class LopsidedNumaAware(_Lopsided, NumaAwareScheduler):
    pass


# Lock costs that are not exact in binary, so summing the per-take
# waits in any order but take order changes the bits.
INEXACT_LOCKS = replace(FOUR_SOCKET_XEON, lock_ns=0.1, lock_contention_ns=0.7)

# A small palette of task shapes, so exact clock ties (identical tasks
# on identical threads), zero-cost tasks and remote homes all recur.
_TASK_SHAPE = st.tuples(
    st.sampled_from([0, 1, 10, 64]),        # n_rows
    st.sampled_from([0, 5, 100, 1000]),     # n_dist
    st.sampled_from([0, 640, 1 << 16]),     # data_bytes
    st.sampled_from([0, 120]),              # state_bytes
    st.integers(0, 3),                      # home_node
)


@seed(14)
@settings(max_examples=250, deadline=None)
@given(
    sched_cls=st.sampled_from([StaticScheduler, FifoScheduler,
                               NumaAwareScheduler, LopsidedStatic,
                               LopsidedFifo, LopsidedNumaAware]),
    cm=st.sampled_from([FOUR_SOCKET_XEON, INEXACT_LOCKS]),
    policy=st.sampled_from([BindPolicy.NUMA_BIND, BindPolicy.OBLIVIOUS]),
    n_threads=st.sampled_from([1, 2, 3, 8, 48]),
    shapes=st.lists(_TASK_SHAPE, max_size=200),
    uniform=st.booleans(),
    slow=st.none() | st.tuples(st.integers(0, 47),
                               st.sampled_from([1.5, 4.0])),
    record=st.booleans(),
)
@example(sched_cls=NumaAwareScheduler, cm=INEXACT_LOCKS,
         policy=BindPolicy.NUMA_BIND, n_threads=48,
         shapes=[(64, 1000, 640, 120, 0)] * 200, uniform=True, slow=None,
         record=True)
@example(sched_cls=FifoScheduler, cm=FOUR_SOCKET_XEON,
         policy=BindPolicy.NUMA_BIND, n_threads=8,
         shapes=[(0, 0, 0, 0, 0)] * 30, uniform=True, slow=(3, 4.0),
         record=True)
@example(sched_cls=NumaAwareScheduler, cm=INEXACT_LOCKS,
         policy=BindPolicy.NUMA_BIND, n_threads=1,
         shapes=[(10, 100, 640, 120, 0)] * 40, uniform=True, slow=None,
         record=False)
@example(sched_cls=LopsidedNumaAware, cm=INEXACT_LOCKS,
         policy=BindPolicy.NUMA_BIND, n_threads=3,
         shapes=[(10, 100, 640, 120, 0)] * 9, uniform=True, slow=None,
         record=False)
def test_run_matches_reference_fuzz(
    sched_cls, cm, policy, n_threads, shapes, uniform, slow, record
):
    """Random task streams: 0-200 tasks (fewer tasks than threads, or
    lopsided queues, leave partitions empty from the start), zero-cost
    tasks, exact clock ties, inexact lock costs and one straggler
    thread."""
    if uniform and shapes:
        shapes = [shapes[0]] * len(shapes)
    tasks = [TaskWork(i, *shape) for i, shape in enumerate(shapes)]
    new, ref = _replay_keys(
        sched_cls, tasks, n_threads, policy, record=record, slow=slow,
        cm=cm,
    )
    assert new == ref


@pytest.mark.parametrize("sched_cls", [StaticScheduler,
                                       NumaAwareScheduler])
@pytest.mark.parametrize("n_threads", [1, 3])
def test_duplicate_task_ids_dispatched_twice(sched_cls, n_threads):
    """Two tasks with one id fail like the reference loop does, even
    when both fall in the steal-free prefix."""
    tasks = make_tasks(3)
    tasks[1] = TaskWork(0, *list(vars(tasks[1]).values())[1:])
    for replay in ("run", "run_reference"):
        engine = IterationEngine(FOUR_SOCKET_XEON)
        threads = spawn_threads(FOUR_SOCKET_XEON.topology, n_threads,
                                BindPolicy.NUMA_BIND)
        with pytest.raises(SchedulerError, match="task 0 dispatched twice"):
            getattr(engine, replay)(
                sched_cls(), tasks, threads, d=8, k=10
            )


def test_own_queue_takes_only_for_described_next_task():
    """The closed form is offered for the three policies (also behind
    a ``__wrapped__`` timing wrapper) and never for an override."""
    import functools

    class Override(NumaAwareScheduler):
        def next_task(self, thread):
            return super().next_task(thread)

    class Timed(NumaAwareScheduler):
        @functools.wraps(NumaAwareScheduler.next_task)
        def next_task(self, thread):
            return NumaAwareScheduler.next_task(self, thread)

    threads = spawn_threads(FOUR_SOCKET_XEON.topology, 4,
                            BindPolicy.NUMA_BIND)
    for cls, offered in [(StaticScheduler, True), (FifoScheduler, True),
                         (NumaAwareScheduler, True), (Timed, True),
                         (Override, False)]:
        sched = cls()
        sched.assign(make_tasks(8), threads)
        own = sched.own_queue_takes()
        assert (own is not None) == offered
        if own is not None:
            assert own.steals == (cls is not StaticScheduler)
            assert [len(q) for q in own.queues] == [2, 2, 2, 2]


def test_run_reference_rejects_double_dispatch():
    class DoubleScheduler(StaticScheduler):
        def next_task(self, thread):
            decision = super().next_task(thread)
            if decision is not None:
                self._replay = decision
            elif getattr(self, "_replay", None) is not None:
                decision, self._replay = self._replay, None
            return decision

    cm = FOUR_SOCKET_XEON
    engine = IterationEngine(cm)
    threads = spawn_threads(cm.topology, 1, BindPolicy.NUMA_BIND)
    with pytest.raises(SchedulerError, match="dispatched twice"):
        engine.run(DoubleScheduler(), make_tasks(3), threads, d=8, k=10)
    with pytest.raises(SchedulerError, match="dispatched twice"):
        engine.run_reference(
            DoubleScheduler(), make_tasks(3), threads, d=8, k=10
        )
