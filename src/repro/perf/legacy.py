"""Frozen pre-optimization kernels: the "before" side of the perf pass.

These are verbatim copies of the interpreter-side hot paths as they
stood before the workspace/flat-accumulation rework (PR 3). They exist
for two reasons:

* **Golden-value conformance** -- the equivalence suite
  (``tests/test_perf_equivalence.py``) asserts the optimized kernels
  produce ``np.array_equal`` (bit-identical, not merely allclose)
  outputs against these references across seeds, dtypes and ragged
  block boundaries.
* **Before/after wall-clock** -- ``benchmarks/bench_wallclock.py``
  times each legacy kernel against its optimized replacement and
  records the trajectory in ``BENCH_kernels.json``.

Nothing in the library proper may import from this module; it is a
measurement fixture, not an implementation.
"""

from __future__ import annotations

import numpy as np

import abc
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core import centroids as core_centroids
from repro.core import distance as core_distance
from repro.core.mti import MtiIterationResult, MtiState
from repro.errors import (
    DatasetError,
    IoSubsystemError,
    RetryExhaustedError,
    SchedulerError,
)
from repro.simhw.engine import ScheduleDecision, TaskWork
from repro.simhw.machine import SimMachine
from repro.simhw.ssd import SsdArray, SsdReadResult
from repro.simhw.thread import SimThread

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.workspace import DistanceWorkspace

#: Block size of the pre-change ``nearest_centroid`` (unchanged since).
BLOCK_ROWS = 65536


def _as_matrix(a: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DatasetError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def euclidean(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Pre-change pairwise distances: norms re-derived on every call."""
    x = _as_matrix(x, "x")
    c = _as_matrix(c, "c")
    if x.shape[1] != c.shape[1]:
        raise DatasetError(
            f"dimension mismatch: x has d={x.shape[1]}, c has d={c.shape[1]}"
        )
    x_sq = np.einsum("ij,ij->i", x, x)
    c_sq = np.einsum("ij,ij->i", c, c)
    sq = x_sq[:, None] - 2.0 * (x @ c.T) + c_sq[None, :]
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def pairwise_centroid_distances(c: np.ndarray) -> np.ndarray:
    return euclidean(c, c)


def half_min_inter_centroid(cc: np.ndarray) -> np.ndarray:
    """Pre-change clause-1 threshold: fresh k x k eye/where per call."""
    k = cc.shape[0]
    if k == 1:
        return np.array([np.inf])
    masked = cc + np.where(np.eye(k, dtype=bool), np.inf, 0.0)
    return 0.5 * masked.min(axis=1)


def nearest_centroid(
    x: np.ndarray, c: np.ndarray, *, block_rows: int = BLOCK_ROWS
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-change Phase I: per-block temporaries reallocated every block."""
    x = _as_matrix(x, "x")
    c = _as_matrix(c, "c")
    n = x.shape[0]
    assign = np.empty(n, dtype=np.int32)
    mindist = np.empty(n, dtype=np.float64)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        dist = euclidean(x[start:stop], c)
        assign[start:stop] = np.argmin(dist, axis=1)
        mindist[start:stop] = dist[
            np.arange(stop - start), assign[start:stop]
        ]
    return assign, mindist


def rows_to_centroids(
    x: np.ndarray, c: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Pre-change own-centroid distances: centroid norms re-gathered."""
    x = _as_matrix(x, "x")
    sel = c[idx]
    sq = (
        np.einsum("ij,ij->i", x, x)
        - 2.0 * np.einsum("ij,ij->i", x, sel)
        + np.einsum("ij,ij->i", sel, sel)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def add_block(
    sums: np.ndarray,
    counts: np.ndarray,
    x: np.ndarray,
    assign: np.ndarray,
) -> None:
    """Pre-change accumulation: one strided ``bincount`` per dimension."""
    k, d = sums.shape
    if x.shape[0] != assign.shape[0]:
        raise DatasetError("x and assign length mismatch")
    counts += np.bincount(assign, minlength=k).astype(np.int64)
    for dim in range(d):
        sums[:, dim] += np.bincount(assign, weights=x[:, dim], minlength=k)


def move_rows(
    sums: np.ndarray,
    counts: np.ndarray,
    x: np.ndarray,
    frm: np.ndarray,
    to: np.ndarray,
) -> None:
    """Pre-change incremental update: the hand-rolled per-dim loop that
    was duplicated inside ``mti_iteration`` and ``elkan_iteration``."""
    k = sums.shape[0]
    for dim in range(x.shape[1]):
        sums[:, dim] -= np.bincount(frm, weights=x[:, dim], minlength=k)
        sums[:, dim] += np.bincount(to, weights=x[:, dim], minlength=k)
    counts -= np.bincount(frm, minlength=k)
    counts += np.bincount(to, minlength=k)


def minibatch_update(
    centroids: np.ndarray,
    counts: np.ndarray,
    batch: np.ndarray,
    assign: np.ndarray,
) -> None:
    """Pre-change Sculley mini-batch update: a Python loop over every
    batch row, grouped per center via ``np.unique`` boolean masks."""
    for c in np.unique(assign):
        members = batch[assign == c]
        for row in members:
            counts[c] += 1
            eta = 1.0 / counts[c]
            centroids[c] = (1.0 - eta) * centroids[c] + eta * row


def mti_init(
    x: np.ndarray, centroids: np.ndarray
) -> tuple[MtiState, MtiIterationResult]:
    """Pre-change MTI iteration 0 (per-dim bincount seeding)."""
    x = np.asarray(x, dtype=np.float64)
    k, d = centroids.shape
    n = x.shape[0]
    assign, mindist = nearest_centroid(x, centroids)
    sums = np.zeros((k, d))
    for dim in range(d):
        sums[:, dim] = np.bincount(assign, weights=x[:, dim], minlength=k)
    counts = np.bincount(assign, minlength=k).astype(np.int64)
    state = MtiState(
        assignment=assign, ub=mindist.copy(), sums=sums, counts=counts
    )
    new_centroids = centroids.copy()
    nonzero = counts > 0
    new_centroids[nonzero] = sums[nonzero] / counts[nonzero, None]
    result = MtiIterationResult(
        new_centroids=new_centroids,
        n_changed=n,
        dist_per_row=np.full(n, k, dtype=np.int32),
        needs_data=np.ones(n, dtype=bool),
        motion=np.zeros(k),
        tightened_rows=0,
        computed=n * k,
    )
    return state, result


def mti_iteration(
    x: np.ndarray,
    centroids: np.ndarray,
    prev_centroids: np.ndarray,
    state: MtiState,
) -> MtiIterationResult:
    """Pre-change MTI super-phase, byte-for-byte the old hot loop."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    k = centroids.shape[0]
    if state.n != n:
        raise DatasetError(
            f"state tracks {state.n} rows but data has {n}"
        )

    motion = rows_to_centroids(centroids, prev_centroids, np.arange(k))
    state.ub += motion[state.assignment]

    cc = pairwise_centroid_distances(centroids)
    s = half_min_inter_centroid(cc)

    assign = state.assignment
    old_assign = assign.copy()

    clause1 = state.ub <= s[assign]
    active_idx = np.nonzero(~clause1)[0]

    dist_per_row = np.zeros(n, dtype=np.int32)
    needs_data = np.zeros(n, dtype=bool)
    needs_data[active_idx] = True

    clause2_pruned = 0
    clause3_pruned = 0
    computed = 0
    n_tightened = 0

    if active_idx.size:
        xa = x[active_idx]
        ba = assign[active_idx]
        ua = state.ub[active_idx]
        half_cc = 0.5 * cc[ba]
        other = np.ones((active_idx.size, k), dtype=bool)
        other[np.arange(active_idx.size), ba] = False

        loose_candidate = other & (ua[:, None] > half_cc)
        clause2_pruned = int(other.sum() - loose_candidate.sum())

        tighten_mask = loose_candidate.any(axis=1)
        t_idx = np.nonzero(tighten_mask)[0]
        n_tightened = int(t_idx.size)
        if t_idx.size:
            xt = xa[t_idx]
            bt = ba[t_idx]
            ut = rows_to_centroids(xt, centroids, bt)
            computed += int(t_idx.size)

            tight_candidate = loose_candidate[t_idx] & (
                ut[:, None] > half_cc[t_idx]
            )
            clause3_pruned = int(
                loose_candidate[t_idx].sum() - tight_candidate.sum()
            )

            row_has_cand = tight_candidate.any(axis=1)
            c_idx = np.nonzero(row_has_cand)[0]
            new_ub_t = ut.copy()
            new_assign_t = bt.copy()
            if c_idx.size:
                dist = euclidean(xt[c_idx], centroids)
                cand = tight_candidate[c_idx]
                computed += int(cand.sum())
                masked = np.where(cand, dist, np.inf)
                masked[np.arange(c_idx.size), bt[c_idx]] = ut[c_idx]
                best = np.argmin(masked, axis=1).astype(np.int32)
                bestdist = masked[np.arange(c_idx.size), best]
                new_assign_t[c_idx] = best
                new_ub_t[c_idx] = bestdist

            ga = active_idx[t_idx]
            state.ub[ga] = new_ub_t
            assign[ga] = new_assign_t

            dist_per_row[ga] = 1 + tight_candidate.sum(axis=1).astype(
                np.int32
            )

    changed = np.nonzero(assign != old_assign)[0]
    n_changed = int(changed.size)
    if n_changed:
        xc = x[changed]
        frm = old_assign[changed]
        to = assign[changed]
        for dim in range(x.shape[1]):
            state.sums[:, dim] -= np.bincount(
                frm, weights=xc[:, dim], minlength=k
            )
            state.sums[:, dim] += np.bincount(
                to, weights=xc[:, dim], minlength=k
            )
        state.counts -= np.bincount(frm, minlength=k)
        state.counts += np.bincount(to, minlength=k)

    new_centroids = centroids.copy()
    nonzero = state.counts > 0
    new_centroids[nonzero] = (
        state.sums[nonzero] / state.counts[nonzero, None]
    )

    return MtiIterationResult(
        new_centroids=new_centroids,
        n_changed=n_changed,
        dist_per_row=dist_per_row,
        needs_data=needs_data,
        motion=motion,
        clause1_rows=int(clause1.sum()),
        clause2_pruned=clause2_pruned,
        clause3_pruned=clause3_pruned,
        tightened_rows=n_tightened,
        computed=computed,
    )


# ---------------------------------------------------------------------------
# MTI super-phase frozen before the single-pass clause rewrite: the
# workspace-aware body with one boolean mask per clause. The equivalence
# suite runs both kernels side by side and asserts every field and counter.
# ---------------------------------------------------------------------------


def mti_iteration_masked(
    x: np.ndarray,
    centroids: np.ndarray,
    prev_centroids: np.ndarray,
    state: MtiState,
    *,
    workspace: "DistanceWorkspace | None" = None,
) -> MtiIterationResult:
    """MTI super-phase with masked clause evaluation, as it stood before
    the single-pass rewrite: per clause, a full ``other``/loose/tight
    mask with its own reductions, ``np.where`` masking, and re-gathers
    of the survivors. Verbatim apart from the module-qualified kernel
    names (this module's own ``euclidean`` etc. are the pre-workspace
    copies); the workspace and gemm norm cache are supported as
    before."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    k = centroids.shape[0]
    if state.n != n:
        raise DatasetError(
            f"state tracks {state.n} rows but data has {n}"
        )

    # f(c): how far each centroid moved since last iteration.
    motion = core_distance.rows_to_centroids(centroids, prev_centroids, np.arange(k))
    # Loosen every upper bound by its centroid's motion.
    state.ub += motion[state.assignment]

    c_sq = None
    x_sq_full = None
    if workspace is not None:
        centroids = workspace.ensure(centroids)
        c_sq = workspace.c_sq
        cc = workspace.pairwise()
        s = workspace.half_min()
        if workspace.kernel == "gemm":
            # The gemm strategy's per-array norm cache feeds the
            # tighten and candidate passes; gathered norms are
            # bit-identical to inline per-row reductions.
            x_sq_full = workspace.x_sq(x)
    else:
        cc = core_distance.pairwise_centroid_distances(centroids)
        s = core_distance.half_min_inter_centroid(cc)

    assign = state.assignment
    old_assign = assign.copy()

    # Clause 1: the whole row is skipped (no compute, no I/O).
    clause1 = state.ub <= s[assign]
    active_idx = np.nonzero(~clause1)[0]

    dist_per_row = np.zeros(n, dtype=np.int32)
    needs_data = np.zeros(n, dtype=bool)
    # Per Section 6.2.1, only clause 1 elides the I/O request: the row
    # data for every non-clause-1 row is requested (the tighten step
    # may need it, and the request is issued before the per-centroid
    # clauses are evaluated).
    needs_data[active_idx] = True

    clause2_pruned = 0
    clause3_pruned = 0
    computed = 0
    n_tightened = 0

    if active_idx.size:
        xa = x[active_idx]
        ba = assign[active_idx]
        ua = state.ub[active_idx]
        half_cc = 0.5 * cc[ba]  # (m, k): 0.5 * d(b(x), c)
        other = np.ones((active_idx.size, k), dtype=bool)
        other[np.arange(active_idx.size), ba] = False

        # Clause 2 with the loose bound.
        loose_candidate = other & (ua[:, None] > half_cc)
        clause2_pruned = int(other.sum() - loose_candidate.sum())

        tighten_mask = loose_candidate.any(axis=1)
        t_idx = np.nonzero(tighten_mask)[0]  # positions within active
        n_tightened = int(t_idx.size)
        if t_idx.size:
            xt = xa[t_idx]
            bt = ba[t_idx]
            ga = active_idx[t_idx]  # global row indices
            # U(u): exact d(x, b).
            ut = core_distance.rows_to_centroids(
                xt, centroids, bt, c_sq=c_sq,
                x_sq=None if x_sq_full is None else x_sq_full[ga],
            )
            computed += int(t_idx.size)

            # Clause 3 with the tightened bound.
            tight_candidate = loose_candidate[t_idx] & (
                ut[:, None] > half_cc[t_idx]
            )
            clause3_pruned = int(
                loose_candidate[t_idx].sum() - tight_candidate.sum()
            )

            row_has_cand = tight_candidate.any(axis=1)
            c_idx = np.nonzero(row_has_cand)[0]  # positions within t_idx
            new_ub_t = ut.copy()
            new_assign_t = bt.copy()
            if c_idx.size:
                dist = core_distance.euclidean(
                    xt[c_idx], centroids, c_sq=c_sq,
                    out=(
                        None if workspace is None
                        else workspace.dist_buffer(c_idx.size)
                    ),
                    x_sq=(
                        None if x_sq_full is None
                        else x_sq_full[ga[c_idx]]
                    ),
                )
                cand = tight_candidate[c_idx]
                computed += int(cand.sum())
                # The algorithm only "sees" candidate distances plus
                # the tightened own distance; mask everything else so
                # a pruning bug would surface as a wrong assignment.
                masked = np.where(cand, dist, np.inf)
                masked[np.arange(c_idx.size), bt[c_idx]] = ut[c_idx]
                best = np.argmin(masked, axis=1).astype(np.int32)
                bestdist = masked[np.arange(c_idx.size), best]
                new_assign_t[c_idx] = best
                new_ub_t[c_idx] = bestdist

            # Write back tightened bounds and any reassignments.
            state.ub[ga] = new_ub_t
            assign[ga] = new_assign_t

            dist_per_row[ga] = 1 + tight_candidate.sum(axis=1).astype(
                np.int32
            )

    # Incremental centroid update: move only the rows that changed.
    changed = np.nonzero(assign != old_assign)[0]
    n_changed = int(changed.size)
    if n_changed:
        core_centroids.move_rows(
            state.sums, state.counts,
            x[changed], old_assign[changed], assign[changed],
            scratch=None if workspace is None else workspace.accum,
        )

    new_centroids = centroids.copy()
    nonzero = state.counts > 0
    new_centroids[nonzero] = (
        state.sums[nonzero] / state.counts[nonzero, None]
    )

    return MtiIterationResult(
        new_centroids=new_centroids,
        n_changed=n_changed,
        dist_per_row=dist_per_row,
        needs_data=needs_data,
        motion=motion,
        clause1_rows=int(clause1.sum()),
        clause2_pruned=clause2_pruned,
        clause3_pruned=clause3_pruned,
        tightened_rows=n_tightened,
        computed=computed,
    )


# ---------------------------------------------------------------------------
# SEM cache hierarchy, frozen before the batch-LRU / vectorized-SAFS rework
# (PR 4). Verbatim copies of repro.sem.{pagecache,safs,rowcache} as they
# stood; the equivalence suite (tests/test_sem_perf_equivalence.py) drives
# the same request streams through both and asserts identical hit/miss
# tallies, eviction order and IoBatch counters.
# ---------------------------------------------------------------------------


class LegacyPageCache:
    """Pre-change LRU page cache: one OrderedDict op per page probe."""

    def __init__(self, capacity_bytes: int, page_bytes: int) -> None:
        if page_bytes <= 0:
            raise IoSubsystemError(f"page_bytes must be > 0, got {page_bytes}")
        if capacity_bytes < 0:
            raise IoSubsystemError("capacity_bytes must be >= 0")
        self.page_bytes = page_bytes
        self.capacity_pages = capacity_bytes // page_bytes
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_pages * self.page_bytes

    def lookup(self, page: int) -> bool:
        if page in self._pages:
            self._pages.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def admit(self, page: int) -> None:
        if self.capacity_pages == 0:
            return
        if page in self._pages:
            self._pages.move_to_end(page)
            return
        while len(self._pages) >= self.capacity_pages:
            self._pages.popitem(last=False)
        self._pages[page] = None

    def clear(self) -> None:
        self._pages.clear()

    def contains(self, page: int) -> bool:
        return page in self._pages

    def pages_lru_order(self) -> list[int]:
        """Resident pages, least-recently-used first (for conformance)."""
        return list(self._pages.keys())


@dataclass
class LegacyIoBatch:
    """Pre-change IoBatch (field-for-field the old dataclass)."""

    rows_requested: int
    bytes_requested: int
    pages_needed: int
    page_cache_hits: int
    pages_from_ssd: int
    merged_requests: int
    bytes_read: int
    service_ns: float
    io_retries: int = 0
    fault_delay_ns: float = 0.0


class LegacySafs:
    """Pre-change SAFS front end: per-page list-comprehension fetch path,
    matrix-expansion ``pages_of_rows`` and re-sorting ``merge_requests``."""

    def __init__(
        self,
        ssd: SsdArray,
        *,
        page_cache_bytes: int,
        data_offset: int = 0,
        faults: Any = None,
        retry_policy: Any = None,
    ) -> None:
        self.ssd = ssd
        self.page_bytes = ssd.page_bytes
        self.page_cache = LegacyPageCache(page_cache_bytes, self.page_bytes)
        self.data_offset = data_offset
        self.faults = faults
        if retry_policy is None and faults is not None:
            from repro.faults import DEFAULT_RETRY_POLICY

            retry_policy = DEFAULT_RETRY_POLICY
        self.retry_policy = retry_policy

    def pages_of_rows(
        self, rows: np.ndarray, row_bytes: int
    ) -> np.ndarray:
        if row_bytes <= 0:
            raise IoSubsystemError(f"row_bytes must be > 0, got {row_bytes}")
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.data_offset + rows * row_bytes
        ends = starts + row_bytes - 1
        first = starts // self.page_bytes
        last = ends // self.page_bytes
        max_span = int((last - first).max()) + 1
        pages = first[:, None] + np.arange(max_span)[None, :]
        mask = pages <= last[:, None]
        return np.unique(pages[mask])

    @staticmethod
    def merge_requests(pages: np.ndarray) -> int:
        if pages.size == 0:
            return 0
        pages = np.sort(np.asarray(pages, dtype=np.int64))
        breaks = np.count_nonzero(np.diff(pages) > 1)
        return int(breaks) + 1

    def fetch_rows(
        self,
        rows: np.ndarray,
        row_bytes: int,
        *,
        iteration: int = 0,
        observer: Any = None,
    ) -> LegacyIoBatch:
        rows = np.asarray(rows, dtype=np.int64)
        bytes_requested = int(rows.size) * row_bytes
        pages = self.pages_of_rows(rows, row_bytes)
        miss_pages = [p for p in pages.tolist() if not self.page_cache.lookup(p)]
        hits = int(pages.size) - len(miss_pages)
        miss_arr = np.asarray(miss_pages, dtype=np.int64)
        n_requests = self.merge_requests(miss_arr)
        result = self.ssd.read(n_requests, len(miss_pages))
        if self.faults is not None and result.pages_read > 0:
            result = self._apply_faults(result, iteration, observer)
        for p in miss_pages:
            self.page_cache.admit(p)
        return LegacyIoBatch(
            rows_requested=int(rows.size),
            bytes_requested=bytes_requested,
            pages_needed=int(pages.size),
            page_cache_hits=hits,
            pages_from_ssd=len(miss_pages),
            merged_requests=n_requests,
            bytes_read=result.bytes_read,
            service_ns=result.service_ns,
            io_retries=result.retries,
            fault_delay_ns=result.fault_delay_ns,
        )

    def _apply_faults(
        self, result: SsdReadResult, iteration: int, observer: Any
    ) -> SsdReadResult:
        kind = self.faults.ssd_fault(iteration)
        if kind is None:
            return result
        if observer is None:
            from repro.runtime.observer import RunObserver

            observer = RunObserver()
        if kind == "slow":
            extra = result.service_ns * (
                self.faults.spec.ssd_slow_factor - 1.0
            )
            observer.on_fault(
                iteration, "ssd", "slow",
                {"factor": self.faults.spec.ssd_slow_factor},
            )
            observer.on_recovery(
                iteration, "ssd", "absorbed", {"extra_ns": extra}
            )
            return result.delayed(extra, 0)
        policy = self.retry_policy
        observer.on_fault(
            iteration, "ssd", "read_error",
            {"requests": result.n_requests, "pages": result.pages_read},
        )
        delay = 0.0
        attempt = 0
        while True:
            attempt += 1
            if attempt > policy.max_retries:
                raise RetryExhaustedError(
                    f"SSD batch failed {policy.max_retries} retries "
                    f"at iteration {iteration}"
                )
            backoff = policy.backoff(attempt)
            delay += backoff + result.service_ns
            observer.on_retry(iteration, "ssd", attempt, backoff)
            if not self.faults.ssd_retry_fails(iteration):
                break
            observer.on_fault(
                iteration, "ssd", "read_error", {"attempt": attempt}
            )
        observer.on_recovery(
            iteration, "ssd", "retried", {"attempts": attempt}
        )
        return result.delayed(delay, attempt)


class LegacyRowCache:
    """Pre-change row cache: Python loop over partitions in ``refresh``,
    floor-divided per-partition quota (capacity remainder dropped)."""

    def __init__(
        self,
        capacity_bytes: int,
        row_bytes: int,
        n_rows: int,
        *,
        n_partitions: int = 1,
        update_interval: int = 5,
    ) -> None:
        if row_bytes <= 0:
            raise IoSubsystemError(f"row_bytes must be > 0, got {row_bytes}")
        if n_rows <= 0:
            raise IoSubsystemError(f"n_rows must be > 0, got {n_rows}")
        if n_partitions <= 0:
            raise IoSubsystemError("n_partitions must be > 0")
        if update_interval <= 0:
            raise IoSubsystemError("update_interval must be > 0")
        self.capacity_rows = max(0, capacity_bytes) // row_bytes
        self.row_bytes = row_bytes
        self.n_rows = n_rows
        self.n_partitions = n_partitions
        self.update_interval = update_interval
        self._cached = np.zeros(n_rows, dtype=bool)
        self._next_refresh = update_interval
        self._gap = update_interval
        self.hits = 0
        self.misses = 0
        self.refreshes = 0
        self._bounds = np.linspace(
            0, n_rows, n_partitions + 1, dtype=np.int64
        )

    @property
    def cached_rows(self) -> int:
        return int(self._cached.sum())

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        mask = self._cached[rows]
        self.hits += int(mask.sum())
        self.misses += int(rows.size - mask.sum())
        return mask

    def should_refresh(self, iteration: int) -> bool:
        return iteration == self._next_refresh

    def refresh(self, iteration: int, active_rows: np.ndarray) -> int:
        if not self.should_refresh(iteration):
            raise IoSubsystemError(
                f"refresh called at iteration {iteration}, scheduled at "
                f"{self._next_refresh}"
            )
        self._cached[:] = False
        active_rows = np.asarray(active_rows, dtype=np.int64)
        per_part = self.capacity_rows // self.n_partitions
        admitted = 0
        for p in range(self.n_partitions):
            lo, hi = self._bounds[p], self._bounds[p + 1]
            mine = active_rows[(active_rows >= lo) & (active_rows < hi)]
            take = mine[:per_part]
            self._cached[take] = True
            admitted += int(take.size)
        self.refreshes += 1
        self._gap *= 2
        self._next_refresh = iteration + self._gap
        return admitted

    def fast_forward(self, iteration: int) -> None:
        while self._next_refresh <= iteration:
            self._next_refresh += self._gap * 2
            self._gap *= 2

    def clear(self) -> None:
        self._cached[:] = False
        self._gap = self.update_interval
        self._next_refresh = self.update_interval


# ---------------------------------------------------------------------------
# Task schedulers and block construction, frozen before the O(1) dispatch
# rework. Verbatim copies of repro.sched.{base,static,fifo,numa_aware,blocks}
# as they stood: every next_task call recomputes the prowler count over all
# T partitions, NUMA-aware re-derives its steal order per call, a drained
# phase still scans every victim before answering None, and blocks are
# summed one numpy .sum() per block. The decision-level conformance test
# (tests/test_sched.py) drives these and the live schedulers through the
# same random drain orders and asserts identical decisions and queues.
# ---------------------------------------------------------------------------


def owner_of_task(task_id: int, n_tasks: int, n_threads: int) -> int:
    """Thread that owns a task under the paper's block partitioning.

    Tasks are contiguous row blocks in dataset order; thread ``t`` owns
    the ``t``-th equal share of them, mirroring Figure 1's layout where
    thread ``t``'s data partition is rows ``[t*alpha, (t+1)*alpha)``.
    """
    if n_tasks <= 0:
        raise SchedulerError("no tasks to own")
    if not 0 <= task_id < n_tasks:
        raise SchedulerError(f"task_id {task_id} out of range")
    return min(task_id * n_threads // n_tasks, n_threads - 1)


class LegacyBaseScheduler(abc.ABC):
    """Common queue bookkeeping for all three scheduling policies."""

    def __init__(self) -> None:
        self._queues: list[deque[TaskWork]] = []
        self._thread_nodes: list[int] = []
        self._n_threads = 0

    def assign(self, tasks: list[TaskWork], threads: list[SimThread]) -> None:
        """Load a fresh iteration's tasks into per-thread queues."""
        if not threads:
            raise SchedulerError("assign() needs at least one thread")
        self._n_threads = len(threads)
        self._thread_nodes = [th.node for th in threads]
        self._queues = [deque() for _ in threads]
        n_tasks = len(tasks)
        for task in tasks:
            owner = owner_of_task(task.task_id, n_tasks, self._n_threads)
            self._queues[owner].append(task)

    def queue_lengths(self) -> list[int]:
        """Remaining tasks per partition (for tests and introspection)."""
        return [len(q) for q in self._queues]

    def _n_prowling(self) -> int:
        """Threads whose own queue is empty -- the potential stealers
        contending on everyone else's partition lock."""
        return sum(1 for q in self._queues if not q)

    @abc.abstractmethod
    def next_task(self, thread: SimThread) -> ScheduleDecision | None:
        """Hand ``thread`` its next task, or ``None`` when it should
        park at the barrier."""


class LegacyStaticScheduler(LegacyBaseScheduler):
    """No locks, no stealing: drain your own preassigned queue."""

    def next_task(self, thread: SimThread) -> ScheduleDecision | None:
        """Drain the caller's preassigned queue; never steal."""
        queue = self._queues[thread.thread_id]
        if not queue:
            return None
        # Static assignment has no shared state, hence no lock probes.
        return ScheduleDecision(task=queue.popleft(), probe_contenders=())


class LegacyFifoScheduler(LegacyBaseScheduler):
    """Partitioned queues, steal from anyone in thread-id order."""

    def next_task(self, thread: SimThread) -> ScheduleDecision | None:
        """Own queue first, then steal from any backlog in id order."""
        tid = thread.thread_id
        own = self._queues[tid]
        # Prowling stealers spread over T partition locks; the expected
        # contention on any one lock is their per-lock share.
        contenders = 1 + (
            self._n_prowling() + self._n_threads - 1
        ) // self._n_threads
        if own:
            return ScheduleDecision(
                task=own.popleft(),
                probe_contenders=(contenders,),
            )
        # Steal scan: walk partitions in id order starting after ours --
        # topology-oblivious, so the first victim found is usually on a
        # different NUMA node (the stolen task's data is remote).
        probes: list[int] = [contenders]  # the failed probe of our own
        for step in range(1, self._n_threads):
            victim = (tid + step) % self._n_threads
            queue = self._queues[victim]
            probes.append(contenders)
            if queue:
                task = queue.popleft()
                return ScheduleDecision(
                    task=task,
                    probe_contenders=tuple(probes),
                    stolen_from_node=self._thread_nodes[victim],
                    was_steal=True,
                )
        return None


class LegacyNumaAwareScheduler(LegacyBaseScheduler):
    """Partitioned priority queue with local-node-first stealing."""

    def _steal_order(self, thread: SimThread) -> list[int]:
        """Partitions to probe: same-node first, then remote, both in
        deterministic id order starting after the caller."""
        tid = thread.thread_id
        node = thread.node
        ring = [(tid + s) % self._n_threads for s in range(1, self._n_threads)]
        local = [v for v in ring if self._thread_nodes[v] == node]
        remote = [v for v in ring if self._thread_nodes[v] != node]
        return local + remote

    def next_task(self, thread: SimThread) -> ScheduleDecision | None:
        """Own partition, then same-node victims, then remote."""
        tid = thread.thread_id
        own = self._queues[tid]
        # Contention on a partition lock: its owner plus any prowling
        # stealers that reached it. Partitioning keeps this near 1.
        prowlers_share = 1 + (
            self._n_prowling() + self._n_threads - 1
        ) // self._n_threads
        if own:
            return ScheduleDecision(
                task=own.popleft(),
                probe_contenders=(prowlers_share,),
            )
        probes: list[int] = [prowlers_share]
        for victim in self._steal_order(thread):
            queue = self._queues[victim]
            probes.append(prowlers_share)
            if queue:
                # Steal from the *back* of the victim's queue: the
                # owner keeps working the front, minimizing interference.
                task: TaskWork = queue.pop()
                return ScheduleDecision(
                    task=task,
                    probe_contenders=tuple(probes),
                    stolen_from_node=self._thread_nodes[victim],
                    was_steal=True,
                )
        return None


def build_task_blocks(
    n_rows: int,
    d: int,
    machine: SimMachine,
    *,
    dist_per_row: np.ndarray | None = None,
    needs_data: np.ndarray | None = None,
    task_rows: int = 8192,
    itemsize: int = 8,
    state_bytes_per_row: int = 12,
) -> list[TaskWork]:
    """Pre-change block aggregation: two numpy ``.sum()`` per block."""
    if n_rows <= 0:
        raise SchedulerError(f"n_rows must be positive, got {n_rows}")
    if task_rows <= 0:
        raise SchedulerError(f"task_rows must be positive, got {task_rows}")
    if dist_per_row is None:
        raise SchedulerError(
            "dist_per_row is required: pass k per row for unpruned runs"
        )
    dist_per_row = np.asarray(dist_per_row)
    if dist_per_row.shape != (n_rows,):
        raise SchedulerError(
            f"dist_per_row shape {dist_per_row.shape} != ({n_rows},)"
        )
    if needs_data is None:
        needs_data_arr = np.ones(n_rows, dtype=bool)
    else:
        needs_data_arr = np.asarray(needs_data, dtype=bool)
        if needs_data_arr.shape != (n_rows,):
            raise SchedulerError(
                f"needs_data shape {needs_data_arr.shape} != ({n_rows},)"
            )

    row_bytes = d * itemsize
    tasks: list[TaskWork] = []
    n_tasks = -(-n_rows // task_rows)
    for block in range(n_tasks):
        start = block * task_rows
        stop = min(start + task_rows, n_rows)
        rows = stop - start
        n_dist = int(dist_per_row[start:stop].sum())
        data_rows = int(needs_data_arr[start:stop].sum())
        # Home node: where this block's slice of the dataset lives.
        frac = start / n_rows
        tasks.append(
            TaskWork(
                task_id=block,
                n_rows=rows,
                n_dist=n_dist,
                data_bytes=data_rows * row_bytes,
                state_bytes=rows * state_bytes_per_row,
                home_node=machine.node_of_row_block(frac),
            )
        )
    return tasks
