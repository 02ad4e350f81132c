"""Run observability: trace-event hooks threaded through the runtime.

Every execution backend reports the same event stream while an
:class:`~repro.runtime.loop.IterationLoop` drives it:

``on_run_start`` → (``on_iteration_start`` → [``on_io_issue`` →
``on_io``] → ``on_task_trace``\\* → [``on_io_complete``] →
[``on_collective``] → ``on_iteration_end`` → [``on_checkpoint``])\\* →
``on_run_end``

The bracketed I/O triple is the SEM backend's (reads queued, planned
accounting, then the prefetch overlap split after compute). Four more
families can appear anywhere in that stream:

* **faults** (:mod:`repro.faults`, :mod:`repro.resilience`):
  ``on_fault``, ``on_retry``, ``on_recovery``, ``on_corruption``,
  ``on_quarantine``, ``on_straggler``, ``on_rebalance``. Every
  ``on_fault`` from a recoverable fault is eventually followed by an
  ``on_recovery`` for the same site.
* **elastic** (:mod:`repro.elastic`): ``on_preempt_notice``,
  ``on_scale_up``, ``on_scale_down``.
* **serve** (:mod:`repro.serve`): ``on_query``, ``on_ingest``, keyed
  by serve batch instead of iteration.
* **memory** (:mod:`repro.mem`): ``on_alloc``, ``on_free``,
  ``on_spill``, with no iteration number.

:class:`RunObserver` is the schema: each event is declared once, as
one documented no-op method there. :class:`ObserverChain` and
:class:`RecordingObserver` are derived from its ``on_*`` methods, so
adding an event means adding one method to ``RunObserver`` and
nothing else.

Benchmarks, the CLI's ``--trace`` flag, and future profilers all ride
this one mechanism instead of scraping ``IterationRecord`` lists after
the fact. Observers are passive: nothing they return can alter the
numerics or the simulated costs, which preserves the two-plane
invariant (see ``docs/architecture.md``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TextIO


class RunObserver:
    """Base observer: every hook is a no-op; override what you need.

    Subclassing (rather than a Protocol) keeps observers forward
    compatible: new events default to no-ops for existing observers.
    """

    def on_run_start(self, n_rows: int, max_iters: int) -> None:
        """The loop is about to run ``max_iters`` iterations max."""

    def on_iteration_start(self, iteration: int) -> None:
        """An iteration's numerics are about to execute."""

    def on_io_issue(self, iteration: int, rows: int, pages: int,
                    prefetched: bool) -> None:
        """A SEM backend submitted an iteration's reads to the queue.

        ``prefetched`` is True when the prefetcher issued (part of) the
        batch ahead of the compute front against banked overlap credit;
        always False in ``--sync-io`` mode.
        """

    def on_io(self, iteration: int, io: Any) -> None:
        """A SEM backend planned its row fetches (``IoIterationStats``)."""

    def on_io_complete(self, iteration: int, service_ns: float,
                       hidden_ns: float, blocked_ns: float) -> None:
        """The iteration's reads were serviced. ``hidden_ns`` overlapped
        with compute; ``blocked_ns`` is what compute waited behind
        (``hidden + blocked == service``; sync mode hides nothing)."""

    def on_task_trace(self, iteration: int, trace: Any,
                      machine_index: int = 0) -> None:
        """One machine replayed its task blocks (``IterationTrace``).

        Distributed backends emit one call per machine, tagged with
        ``machine_index``; single-machine backends always pass 0.
        """

    def on_collective(self, iteration: int, payload_bytes: int,
                      wire_bytes: int, sim_ns: float) -> None:
        """A distributed backend completed its allreduce."""

    def on_iteration_end(self, iteration: int, record: Any) -> None:
        """The iteration's ``IterationRecord`` is final."""

    def on_checkpoint(self, iteration: int, path: Any) -> None:
        """A backend persisted resumable state after an iteration."""

    def on_fault(self, iteration: int, site: str, kind: str,
                 detail: dict | None = None) -> None:
        """An injected fault fired at ``site`` (see :mod:`repro.faults`)."""

    def on_retry(self, iteration: int, site: str, attempt: int,
                 delay_ns: float) -> None:
        """One recovery attempt (re-read, retransmit) was charged."""

    def on_recovery(self, iteration: int, site: str, action: str,
                    detail: dict | None = None) -> None:
        """A fault was answered (retried, resumed, re-sharded...)."""

    def on_corruption(self, iteration: int, where: str,
                      detail: dict | None = None) -> None:
        """A CRC32 check failed: corruption was detected at ``where``
        (``ssd-page``, ``cache-line``, ``checkpoint``,
        ``net-payload``) before any numerics consumed the bytes."""

    def on_quarantine(self, iteration: int, where: str, what: Any,
                      detail: dict | None = None) -> None:
        """A corrupt resource (page, cached row, checkpoint) was
        fenced off; a clean copy will be re-read or the run aborts."""

    def on_straggler(self, iteration: int, scope: str, worker: int,
                     detail: dict | None = None) -> None:
        """A worker's EWMA iteration time crossed the slowdown
        threshold (``scope`` is ``thread`` or ``machine``)."""

    def on_rebalance(self, iteration: int, scope: str,
                     detail: dict | None = None) -> None:
        """Work was re-partitioned away from degraded workers."""

    def on_preempt_notice(self, iteration: int, machine: int,
                          deadline: int,
                          detail: dict | None = None) -> None:
        """A spot preemption was announced: ``machine`` is lost after
        completing iteration ``deadline``; the grace window is spent
        draining shards / flushing a checkpoint so the planned loss
        commits nothing to replay (see :mod:`repro.elastic`)."""

    def on_scale_up(self, iteration: int, machine: int,
                    detail: dict | None = None) -> None:
        """A machine joined the fleet (planned scale-up or an
        autoscaler grant) and shards re-sharded onto it."""

    def on_scale_down(self, iteration: int, machine: int,
                      detail: dict | None = None) -> None:
        """A machine left the fleet after draining its shards
        (planned scale-in, or a preemption deadline elapsing)."""

    def on_query(self, batch: int, queries: int, latency_ns: float,
                 detail: dict | None = None) -> None:
        """The serving plane answered a batch of assignment queries;
        ``latency_ns`` is the batch's worst arrival-to-completion
        latency and ``batch`` the serve-plane batch index (the
        serving analog of an iteration number)."""

    def on_ingest(self, batch: int, rows: int,
                  detail: dict | None = None) -> None:
        """The serving plane folded ``rows`` streamed arrivals into
        the model via the mini-batch update."""

    def on_alloc(self, tag: str, nbytes: int, reused: bool) -> None:
        """The memory manager handed out a buffer (``reused`` when it
        came from an arena free list instead of fresh backing memory).
        Unlike the iteration events, memory events carry no iteration
        number -- allocations outlive and straddle iterations."""

    def on_free(self, tag: str, nbytes: int) -> None:
        """A manager-owned buffer was returned (pooled or released)."""

    def on_spill(self, tag: str, nbytes: int, ns: float,
                 direction: str) -> None:
        """The budgeted manager moved a cold buffer to (``"out"``) or
        back from (``"in"``) the simulated SSD, charging ``ns``
        simulated I/O time to its spill ledger."""

    def on_run_end(self, iterations: int, converged: bool) -> None:
        """The loop finished (converged or hit the iteration cap)."""


class ObserverChain(RunObserver):
    """Fans every event out to a sequence of observers, in order, with
    the caller's arguments unchanged (see :func:`_fan_out`)."""

    def __init__(self, observers: Sequence[RunObserver]) -> None:
        self.observers = list(observers)


def chain_observers(observers: Sequence[RunObserver]) -> RunObserver:
    """Collapse 0/1/N observers into one dispatch target."""
    if not observers:
        return RunObserver()
    if len(observers) == 1:
        return observers[0]
    return ObserverChain(observers)


@dataclass
class TraceEvent:
    """One recorded observer event (for tests and offline analysis)."""

    name: str
    iteration: int | None
    payload: dict = field(default_factory=dict)


class RecordingObserver(RunObserver):
    """Appends every event to ``self.events`` -- the test fixture for
    event-ordering guarantees, and a cheap in-memory profiler (see
    :func:`_recorder` for what each event records)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def names(self) -> list[str]:
        """Event names in arrival order (ordering assertions)."""
        return [e.name for e in self.events]

    def fault_events(self) -> list[TraceEvent]:
        """The fault-plane subset, in order -- a run's fault trace.

        Two runs with the same fault seed produce equal lists
        (byte-for-byte reproducibility; asserted in the fault tests).
        """
        return [
            e for e in self.events
            if e.name in ("fault", "retry", "recovery", "corruption",
                          "quarantine", "straggler", "rebalance")
        ]

    def elastic_events(self) -> list[TraceEvent]:
        """The membership subset, in order -- a run's elastic trace.

        Pure function of (plan seed, fault seed): two runs with the
        same seeds produce equal lists (pinned by the elastic suite).
        Empty for zero-event plans and plan-free runs.
        """
        return [
            e for e in self.events
            if e.name in ("preempt_notice", "scale_up", "scale_down")
        ]


def _fan_out(event: str) -> Callable[..., None]:
    def forward(self: ObserverChain, *args: Any, **kwargs: Any) -> None:
        for o in self.observers:
            getattr(o, event)(*args, **kwargs)

    return forward


# Events whose arguments are objects record a few scalar fields of
# them; each projection takes the event's remaining arguments.
_PROJECTIONS: dict[str, Callable[..., dict]] = {
    "io": lambda io: {
        "bytes_read": io.bytes_read, "service_ns": io.service_ns},
    "task_trace": lambda trace, machine_index: {
        "machine_index": machine_index, "total_ns": trace.total_ns,
        "steals": trace.total_steals},
    "iteration_end": lambda record: {"sim_ns": record.sim_ns},
    "checkpoint": lambda path: {"path": str(path)},
}


def _recorder(event: str) -> Callable[..., None]:
    """The :class:`RecordingObserver` method for ``event``.

    ``TraceEvent.iteration`` is the ``iteration`` (or serve ``batch``)
    argument, else ``None``; the payload is the remaining arguments by
    name, ``detail=None`` as ``{}``. The ``RunObserver`` signature is
    read once, here, not per call.
    """
    declared = getattr(RunObserver, event)
    params = list(inspect.signature(declared).parameters.values())[1:]
    names = [p.name for p in params]
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    key = next((n for n in ("iteration", "batch") if n in names), None)
    name = event[len("on_"):]
    project = _PROJECTIONS.get(name)

    def record(self: RecordingObserver, *args: Any, **kwargs: Any) -> None:
        declared(self, *args, **kwargs)  # rejects what the schema rejects
        payload = dict(zip(names, args), **kwargs)
        for n, v in defaults.items():
            payload.setdefault(n, v)
        iteration = payload.pop(key) if key is not None else None
        if "detail" in payload:
            payload["detail"] = payload["detail"] or {}
        if project is not None:
            payload = project(**payload)
        self.events.append(TraceEvent(name, iteration, payload))

    return record


for _event in [n for n in vars(RunObserver) if n.startswith("on_")]:
    setattr(ObserverChain, _event, _fan_out(_event))
    setattr(RecordingObserver, _event, _recorder(_event))


class PrintObserver(RunObserver):
    """Writes one line per event -- the CLI's ``--trace`` output."""

    def __init__(self, stream: TextIO | None = None) -> None:
        import sys

        self.stream = stream if stream is not None else sys.stderr

    def _emit(self, line: str) -> None:
        print(line, file=self.stream)

    def on_run_start(self, n_rows, max_iters):
        self._emit(f"[trace] run start: n={n_rows} max_iters={max_iters}")

    def on_io_issue(self, iteration, rows, pages, prefetched):
        mode = "prefetch" if prefetched else "demand"
        self._emit(
            f"[trace] it={iteration} io issue: rows={rows} "
            f"pages={pages} ({mode})"
        )

    def on_io(self, iteration, io):
        self._emit(
            f"[trace] it={iteration} io: rows={io.rows_needed} "
            f"rc_hits={io.row_cache_hits} read={io.bytes_read}B "
            f"service={io.service_ns / 1e6:.3f}ms"
        )

    def on_io_complete(self, iteration, service_ns, hidden_ns, blocked_ns):
        self._emit(
            f"[trace] it={iteration} io complete: "
            f"service={service_ns / 1e6:.3f}ms "
            f"hidden={hidden_ns / 1e6:.3f}ms "
            f"blocked={blocked_ns / 1e6:.3f}ms"
        )

    def on_task_trace(self, iteration, trace, machine_index=0):
        self._emit(
            f"[trace] it={iteration} m={machine_index} compute: "
            f"span={trace.span_ns / 1e6:.3f}ms "
            f"busy={trace.busy_fraction:.2f} steals={trace.total_steals}"
        )

    def on_collective(self, iteration, payload_bytes, wire_bytes, sim_ns):
        self._emit(
            f"[trace] it={iteration} allreduce: payload={payload_bytes}B "
            f"wire={wire_bytes}B time={sim_ns / 1e6:.3f}ms"
        )

    def on_iteration_end(self, iteration, record):
        self._emit(
            f"[trace] it={iteration} done: sim={record.sim_ns / 1e6:.3f}ms"
            f" changed={record.n_changed} dist={record.dist_computations}"
        )

    def on_checkpoint(self, iteration, path):
        self._emit(f"[trace] it={iteration} checkpoint -> {path}")

    def on_fault(self, iteration, site, kind, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(f"[fault] it={iteration} {site}: {kind}{extra}")

    def on_retry(self, iteration, site, attempt, delay_ns):
        self._emit(
            f"[fault] it={iteration} {site}: retry #{attempt} "
            f"(+{delay_ns / 1e6:.3f}ms)"
        )

    def on_recovery(self, iteration, site, action, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[fault] it={iteration} {site}: recovered via {action}{extra}"
        )

    def on_corruption(self, iteration, where, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[fault] it={iteration} corruption detected at "
            f"{where}{extra}"
        )

    def on_quarantine(self, iteration, where, what, detail=None):
        self._emit(
            f"[fault] it={iteration} quarantined {where} {what}"
        )

    def on_straggler(self, iteration, scope, worker, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[fault] it={iteration} straggling {scope} "
            f"{worker}{extra}"
        )

    def on_rebalance(self, iteration, scope, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[fault] it={iteration} rebalanced {scope} work{extra}"
        )

    def on_preempt_notice(self, iteration, machine, deadline, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[elastic] it={iteration} preempt notice: machine "
            f"{machine} lost after it={deadline}{extra}"
        )

    def on_scale_up(self, iteration, machine, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[elastic] it={iteration} scale up: machine {machine} "
            f"joined{extra}"
        )

    def on_scale_down(self, iteration, machine, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[elastic] it={iteration} scale down: machine {machine} "
            f"left{extra}"
        )

    def on_query(self, batch, queries, latency_ns, detail=None):
        self._emit(
            f"[serve] batch={batch} answered {queries} queries "
            f"(worst latency {latency_ns / 1e6:.3f}ms)"
        )

    def on_ingest(self, batch, rows, detail=None):
        self._emit(
            f"[serve] batch={batch} ingested {rows} rows"
        )

    # on_alloc/on_free stay silent under --trace: a run performs
    # thousands of allocations and the firehose would drown the
    # iteration trace. Spills are rare and load-bearing, so they print.
    def on_spill(self, tag, nbytes, ns, direction):
        self._emit(
            f"[mem] spill {direction}: {tag or '<untagged>'} "
            f"{nbytes}B (+{ns / 1e6:.3f}ms)"
        )

    def on_run_end(self, iterations, converged):
        state = "converged" if converged else "cap hit"
        self._emit(f"[trace] run end: {iterations} iterations ({state})")
