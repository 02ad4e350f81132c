"""Minimal Triangle Inequality (MTI) pruning -- Section 4 of the paper.

MTI is Elkan's triangle-inequality algorithm minus the O(nk)
lower-bound matrix. Retained state is O(n) + O(k^2):

* ``ub[i]`` -- an upper bound on the distance from point ``i`` to its
  assigned centroid, loosened every iteration by the assigned
  centroid's motion ``f(c) = d(c^t, c^{t-1})``;
* the centroid-to-centroid distance matrix (O(k^2)), from which the
  clause thresholds are derived.

The three clauses (for point ``v`` assigned to ``b``):

1. if ``u <= 0.5 * min_{c != b} d(b, c)`` -- the point cannot move at
   all this iteration: skip every distance computation *and*, in
   knors, the I/O request for its row (Section 6.2.1).
2. if ``u <= 0.5 * d(b, c)`` -- the computation against centroid ``c``
   is pruned (loose bound, no row data needed).
3. tighten ``u`` to the exact ``d(v, b)`` (one distance computation),
   then prune ``c`` if the tightened ``u <= 0.5 * d(b, c)``.

The paper's prose omits the 1/2 factors; Elkan's Lemma 1 requires them
(``d(b,c) >= 2 u(x)`` implies ``d(x,c) >= d(x,b)``) and the released
knor code uses them. We implement the correct form and property-test
that MTI's assignments match unpruned Lloyd's exactly.

Each clause makes one pass over the clause-1 survivors. Clause 2
gathers the halved rows ``0.5 * d(b, c)`` once, compares them with the
loose bounds once and clears the own column; one per-row count yields
both the clause-2 tally and the rows that tighten (those with a loose
candidate). Clause 3 narrows the same mask in place. On finite data
every survivor tightens, so the survivor arrays are reused rather than
re-gathered. Candidate distances come from one ``euclidean`` GEMM over
every gathered candidate row: BLAS rounds a GEMM of a few rows or one
column differently from the same rows inside a larger GEMM, so
per-row, per-block or per-centroid kernels could not stay
bit-identical.

Centroid updates are *incremental*: only points that changed membership
move between the persistent per-cluster sums, so clause-1-skipped rows
contribute no memory traffic -- this is what makes clause 1 an I/O
elision in the semi-external module. The changed rows are taken from
the candidate rows in ascending order, the order a full scan would
give, so the sums accumulate identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.centroids import flat_sums, move_rows
from repro.core.distance import (
    euclidean,
    half_min_inter_centroid,
    nearest_centroid,
    pairwise_centroid_distances,
    row_norms,
    rows_to_centroids,
)
from repro.errors import DatasetError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.workspace import DistanceWorkspace


@dataclass
class MtiState:
    """Persistent O(n) + O(kd) pruning state across iterations."""

    assignment: np.ndarray  # (n,) int32
    ub: np.ndarray  # (n,) float64 upper bounds
    sums: np.ndarray  # (k, d) persistent per-cluster sums
    counts: np.ndarray  # (k,) persistent membership counts

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def k(self) -> int:
        return self.sums.shape[0]


@dataclass
class MtiIterationResult:
    """Exact outcome and pruning statistics of one MTI super-phase."""

    new_centroids: np.ndarray
    n_changed: int
    dist_per_row: np.ndarray  # (n,) int32 distance computations per row
    needs_data: np.ndarray  # (n,) bool -- row-data required (I/O in SEM)
    motion: np.ndarray  # (k,) centroid displacement f(c)
    # Pruning breakdown (point-centroid pairs unless noted):
    clause1_rows: int = 0  # rows skipped entirely
    clause2_pruned: int = 0
    clause3_pruned: int = 0
    tightened_rows: int = 0
    computed: int = 0  # candidate distances actually evaluated
    extra: dict = field(default_factory=dict)


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """Per-row ``True`` counts of a 2-D mask as int32. On short rows
    einsum's reduction is several times faster than
    ``count_nonzero(axis=1)``; the counts are exact integers either
    way."""
    return np.einsum("ij->i", mask, dtype=np.int32)


def mti_init(
    x: np.ndarray,
    centroids: np.ndarray,
    *,
    workspace: "DistanceWorkspace | None" = None,
) -> tuple[MtiState, MtiIterationResult]:
    """Iteration 0: full assignment pass that seeds the MTI state.

    Every row costs k distance computations and a data read, exactly
    like an unpruned iteration.
    """
    x = np.asarray(x, dtype=np.float64)
    k, d = centroids.shape
    n = x.shape[0]
    assign, mindist = nearest_centroid(x, centroids, workspace=workspace)
    sums = flat_sums(
        x, assign, k,
        scratch=None if workspace is None else workspace.accum,
    )
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
    *,
    workspace: "DistanceWorkspace | None" = None,
) -> MtiIterationResult:
    """One MTI-pruned super-phase; mutates ``state`` in place.

    With a ``workspace``, the centroid norms, pairwise matrix and
    clause-1 thresholds are computed once and the candidate distance
    block reuses a preallocated buffer; outputs are bit-identical.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    k = centroids.shape[0]
    if state.n != n:
        raise DatasetError(
            f"state tracks {state.n} rows but data has {n}"
        )

    # f(c): how far each centroid moved since last iteration.
    motion = rows_to_centroids(centroids, prev_centroids, np.arange(k))
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
        cc = pairwise_centroid_distances(centroids)
        s = half_min_inter_centroid(cc)

    assign = state.assignment
    ub = state.ub

    # Clause 1: the whole row is skipped (no compute, no I/O).
    clause1 = ub <= s[assign]
    # Per Section 6.2.1, only clause 1 elides the I/O request: the row
    # data for every non-clause-1 row is requested (the tighten step
    # may need it, and the request is issued before the per-centroid
    # clauses are evaluated).
    needs_data = ~clause1
    active_idx = np.flatnonzero(needs_data)
    m = active_idx.size

    dist_per_row = np.zeros(n, dtype=np.int32)
    clause2_pruned = 0
    clause3_pruned = 0
    computed = 0
    n_tightened = 0
    # Rows that switch cluster and the clusters they leave (none yet).
    changed = frm = active_idx[:0]

    if m:
        ba = assign[active_idx]
        # Clause 2 with the loose bound in one pass: gather the halved
        # rows 0.5 * d(b(x), c), compare, clear the own column.
        half = np.take(0.5 * cc, ba, axis=0)
        loose = ub[active_idx][:, None] > half
        loose[np.arange(m), ba] = False
        n_loose = _row_counts(loose)
        n_loose_all = int(n_loose.sum())
        clause2_pruned = m * (k - 1) - n_loose_all

        # Rows with a loose candidate tighten. On finite data that is
        # every survivor (u > s(b) beats the nearest centroid's half
        # distance), so ``sel`` is usually a view, not a gather.
        t_pos = np.flatnonzero(n_loose)
        n_tightened = int(t_pos.size)
        if n_tightened:
            sel = t_pos if n_tightened < m else slice(None)
            ga = active_idx[sel]  # global row indices, ascending
            bt = ba[sel]
            loose = loose[sel]
            xt = np.take(x, ga, axis=0)
            xt_sq = row_norms(xt) if x_sq_full is None else x_sq_full[ga]
            # U(u): exact d(x, b).
            ut = rows_to_centroids(
                xt, centroids, bt, c_sq=c_sq, x_sq=xt_sq
            )

            # Clause 3 with the tightened bound, narrowing the mask.
            loose &= ut[:, None] > half[sel]
            n_cand = _row_counts(loose)
            n_cand_all = int(n_cand.sum())
            clause3_pruned = n_loose_all - n_cand_all
            computed = n_tightened + n_cand_all
            dist_per_row[ga] = 1 + n_cand

            c_pos = np.flatnonzero(n_cand)
            nc = c_pos.size
            if nc:
                sel = c_pos if nc < n_tightened else slice(None)
                bc = bt[sel]
                # One GEMM over every candidate row, never split: BLAS
                # bits depend on the GEMM's shape.
                dist = euclidean(
                    xt[sel], centroids, c_sq=c_sq, x_sq=xt_sq[sel],
                    out=(
                        None if workspace is None
                        else workspace.dist_buffer(nc)
                    ),
                )
                # The algorithm only "sees" candidate distances plus
                # the tightened own distance; mask everything else so
                # a pruning bug would surface as a wrong assignment.
                pruned = loose[sel]
                np.logical_not(pruned, out=pruned)
                np.putmask(dist, pruned, np.inf)
                rows = np.arange(nc)
                dist[rows, bc] = ut[sel]
                best = np.argmin(dist, axis=1).astype(np.int32)
                ut[sel] = dist[rows, best]
                moved = np.flatnonzero(best != bc)
                # Ascending, like a full ``assign != old`` scan, so
                # move_rows accumulates in the same order.
                changed = ga[sel][moved]
                frm = bc[moved]
                assign[changed] = best[moved]

            # Write back the tightened bounds.
            ub[ga] = ut

    # Incremental centroid update: move only the rows that changed.
    n_changed = int(changed.size)
    if n_changed:
        move_rows(
            state.sums, state.counts, x[changed], frm,
            assign[changed],
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
        clause1_rows=n - m,
        clause2_pruned=clause2_pruned,
        clause3_pruned=clause3_pruned,
        tightened_rows=n_tightened,
        computed=computed,
    )
