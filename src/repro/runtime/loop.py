"""The single iteration orchestrator every driver runs through.

``IterationLoop`` owns the skeleton the paper's three engines share:
step the numerics, replay them on the substrate, record the iteration,
fire the post-record hook (checkpointing), check convergence. The
backend supplies the substrate; the stopping rule is either a
:class:`~repro.core.ConvergenceCriteria` (the k-means drivers) or an
arbitrary ``should_stop`` callable (the MM algorithm plane, which
delegates to the algorithm's own ``converged()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core import ConvergenceCriteria
from repro.errors import ConfigError, WorkerCrashError
from repro.metrics import IterationRecord, RunResult
from repro.runtime.backends import ExecutionBackend, IterationOutcome
from repro.runtime.observer import RunObserver, chain_observers


@dataclass
class LoopResult:
    """What one orchestrated run produced, before result assembly."""

    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.records)

    def as_run_result(
        self,
        *,
        algorithm: str,
        centroids: np.ndarray,
        assignment: np.ndarray,
        inertia: float,
        memory_breakdown: dict[str, int] | None = None,
        params: dict | None = None,
    ) -> RunResult:
        """Assemble the uniform :class:`RunResult` envelope."""
        return RunResult(
            algorithm=algorithm,
            centroids=centroids,
            assignment=assignment,
            iterations=self.iterations,
            converged=self.converged,
            inertia=inertia,
            records=self.records,
            memory_breakdown=memory_breakdown or {},
            params=params or {},
        )


class IterationLoop:
    """Run a backend to convergence (or the iteration cap).

    Parameters
    ----------
    backend:
        Any :class:`~repro.runtime.backends.ExecutionBackend`.
    criteria:
        k-means stopping rules; mutually exclusive with
        ``should_stop``. Supplies ``max_iters`` when given.
    should_stop:
        Custom predicate over each :class:`IterationOutcome`
        (the MM drivers pass ``lambda out: algorithm.converged()``).
        Requires an explicit ``max_iters``.
    max_iters:
        Iteration cap; required with ``should_stop``, optional
        override alongside ``criteria``.
    observers:
        :class:`RunObserver` hooks; all events fan out to each, in
        order.
    start_iteration:
        First iteration index (non-zero when resuming a checkpointed
        run; the cap stays absolute, as in the paper's recovery).
    faults:
        Optional :class:`~repro.faults.FaultPlan`. The loop consults
        it at every iteration boundary (the paper's recovery unit):
        an injected worker crash -- or a
        :class:`~repro.errors.WorkerCrashError` escaping the backend,
        e.g. from a mid-checkpoint crash -- triggers
        ``backend.recover()``, which restores the newest checkpoint
        (or restarts from scratch) and reports the iteration to
        replay from. Replayed iterations overwrite their crashed
        records, so a recovered run's record stream is continuous.
    membership:
        Optional :class:`~repro.elastic.MembershipPlan` for
        single-machine substrates, where the only elastic event is a
        **spot preemption of the whole worker**. With notice, the loop
        finishes the grace window's iterations, asks the backend to
        flush a checkpoint (``flush_checkpoint``), and only then takes
        the planned loss -- so no committed iteration is ever lost;
        zero notice degrades to the plain worker-crash path. The plan
        must be wired to exactly one consumer: passing one here while
        the backend also holds one (``handles_membership``) is a
        configuration error, because both would draw the same RNG
        streams.
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        *,
        criteria: ConvergenceCriteria | None = None,
        should_stop: Callable[[IterationOutcome], bool] | None = None,
        max_iters: int | None = None,
        observers: Sequence[RunObserver] = (),
        start_iteration: int = 0,
        faults: Any = None,
        membership: Any = None,
    ) -> None:
        if (criteria is None) == (should_stop is None):
            raise ConfigError(
                "pass exactly one of criteria / should_stop"
            )
        if should_stop is not None and max_iters is None:
            raise ConfigError("should_stop requires max_iters")
        if membership is not None and getattr(
            backend, "handles_membership", False
        ):
            raise ConfigError(
                "the backend already consumes this run's membership "
                "plan; wire the plan to exactly one consumer or both "
                "would draw the same event streams"
            )
        self.backend = backend
        self.criteria = criteria
        self.should_stop = should_stop
        self.max_iters = (
            max_iters if max_iters is not None else criteria.max_iters
        )
        self.observer = chain_observers(observers)
        self.start_iteration = start_iteration
        self.faults = faults
        self.membership = membership
        self._preempt_deadline: int | None = None
        self._result: LoopResult | None = None
        self._it = start_iteration
        self._done = False

    def _stopped(self, outcome: IterationOutcome) -> bool:
        if self.criteria is not None:
            return self.criteria.converged(
                self.backend.n_rows, outcome.n_changed, outcome.motion
            )
        return self.should_stop(outcome)

    def _recover(
        self, it: int, exc: WorkerCrashError, result: LoopResult
    ) -> int:
        """Answer a worker crash: restore state, rewind the records."""
        obs = self.observer
        obs.on_fault(it, "worker", "crash", {"reason": str(exc)})
        resume_at = self.backend.recover(it, obs)
        obs.on_recovery(
            it, "worker", "resume", {"resume_at": resume_at}
        )
        # Replayed iterations re-emit their records; drop the ones the
        # crash invalidated so the stream stays one record per index.
        result.records = [
            r for r in result.records if r.iteration < resume_at
        ]
        return resume_at

    def _poll_membership(self, it: int, obs: RunObserver) -> None:
        """Draw this boundary's preemption event, if any.

        Zero notice means the worker is gone before the iteration
        runs -- the plain crash path answers it. Otherwise the
        deadline is armed and the loop keeps computing through the
        grace window.
        """
        if self.membership is None or self._preempt_deadline is not None:
            return
        ev = self.membership.worker_preemption(it)
        if ev is None:
            return
        if ev.notice <= 0:
            obs.on_fault(it, "worker", "preempt", {"notice": 0})
            raise WorkerCrashError(
                f"zero-notice preemption at iteration {it}"
            )
        deadline = it + ev.notice - 1
        self._preempt_deadline = deadline
        obs.on_preempt_notice(
            it, ev.machine if ev.machine is not None else 0,
            deadline, {"notice": ev.notice},
        )

    def _maybe_preempt(
        self, it: int, outcome: IterationOutcome, obs: RunObserver
    ) -> None:
        """Honor an armed preemption deadline after its last committed
        iteration: flush a checkpoint if the substrate keeps one, then
        take the loss. With a flushed checkpoint, recovery resumes at
        ``it + 1`` and no committed record is dropped."""
        if self._preempt_deadline is None or it < self._preempt_deadline:
            return
        self._preempt_deadline = None
        flush = getattr(self.backend, "flush_checkpoint", None)
        flushed = (
            flush(it, outcome.n_changed, obs) if flush is not None
            else False
        )
        obs.on_fault(it, "worker", "preempt", {"flushed": flushed})
        raise WorkerCrashError(
            f"preempted after iteration {it} (notice honored; "
            f"checkpoint {'flushed' if flushed else 'unavailable'})"
        )

    def start(self) -> None:
        """Open the run (multi-tenant schedulers interleave ``step``)."""
        self._result = LoopResult()
        self._it = self.start_iteration
        self._done = False
        self._preempt_deadline = None
        self.observer.on_run_start(self.backend.n_rows, self.max_iters)

    @property
    def finished(self) -> bool:
        return self._done or self._it >= self.max_iters

    @property
    def consumed_sim_ns(self) -> float:
        """Simulated time of the records committed so far (what a
        fair-share scheduler charges a tenant for)."""
        if self._result is None:
            return 0.0
        return sum(r.sim_ns for r in self._result.records)

    def step(self) -> bool:
        """Run ONE iteration boundary; ``False`` when nothing is left.

        A boundary that crashes and recovers still counts as work done
        (it consumed simulated time), so it returns ``True``.
        """
        if self._result is None:
            raise ConfigError("call start() before step()")
        if self.finished:
            self._done = True
            return False
        it = self._it
        obs = self.observer
        result = self._result
        obs.on_iteration_start(it)
        try:
            self._poll_membership(it, obs)
            outcome = self.backend.run_iteration(it, obs)
            result.records.append(outcome.record)
            obs.on_iteration_end(it, outcome.record)
            self.backend.after_record(it, outcome, obs)
            if self.faults is not None and self.faults.worker_crash(it):
                raise WorkerCrashError(
                    f"injected worker crash after iteration {it}"
                )
            self._maybe_preempt(it, outcome, obs)
        except WorkerCrashError as exc:
            self._it = self._recover(it, exc, result)
            return True
        if self._stopped(outcome):
            result.converged = True
            self._done = True
        else:
            self._it += 1
        return True

    def finish(self) -> LoopResult:
        """Close the run and hand back its records."""
        if self._result is None:
            raise ConfigError("call start() before finish()")
        result = self._result
        self.observer.on_run_end(result.iterations, result.converged)
        return result

    def run(self) -> LoopResult:
        """Execute iterations until convergence or the cap."""
        self.start()
        while self.step():
            pass
        return self.finish()
