"""Euclidean distance kernels.

One definition of distance is used across the whole library so every
algorithm (serial Lloyd's, ||Lloyd's, MTI, Elkan) sees *identical*
floating-point values -- that is what makes the exact-equivalence tests
between pruned and unpruned runs meaningful.

The kernel is the textbook expanded form
``d(x, c)^2 = |x|^2 - 2 x.c + |c|^2`` evaluated blockwise with a GEMM,
clamped at zero before the square root (the expansion can go slightly
negative for near-identical vectors).

Every kernel accepts optional precomputed inputs and output buffers so
a per-iteration :class:`~repro.core.workspace.DistanceWorkspace` can
(a) compute the centroid norms ``|c|^2`` once per iteration instead of
once per call and (b) reuse one ``(BLOCK_ROWS, k)`` temporary across
blocks instead of reallocating it. Both paths produce bit-identical
values: ``-(2g)`` equals ``(-2)g`` exactly in IEEE-754, and float
addition is commutative, so the in-place evaluation order matches the
expression form to the last bit (asserted by the golden-value suite).

Kernel strategies
-----------------
:func:`nearest_centroid` offers two selectable strategies:

* ``"blocked"`` (default) -- the bit-identical reference: per block,
  the full distance expression ``sqrt(max(0, |x|^2 - 2g + |c|^2))`` is
  materialized over the whole ``(m, k)`` buffer before the argmin.
* ``"gemm"`` -- the communication-avoiding formulation: row norms
  ``|x|^2`` are computed once per data array (cached by the
  workspace across iterations), the GEMM consumes a pre-scaled
  ``(-2 C)^T`` so the ``*= -2`` pass disappears, and the argmin runs
  over ``q = -2 X C^T + |c|^2`` directly -- ``|x|^2`` is constant per
  row and ``sqrt`` is monotone, so neither changes the argmin. The
  clamp + sqrt then run only on the ``n`` winning entries instead of
  all ``n * k``, eliminating roughly half the full-matrix memory
  passes.

The two strategies are *ULP-equivalent*, not bit-identical: ``gemm``
adds ``|x|^2`` after ``|c|^2`` where ``blocked`` adds it before, and
one float reassociation perturbs the squared distance by a few ulps
of the ``|x|^2 + |c|^2`` magnitude (``GEMM_ULP_BOUND``). Assignments
therefore agree only on rows whose best-vs-second-best margin exceeds
``GEMM_ULP_BOUND * ulp(|x|^2 + |c|^2)``; inside that margin the two
strategies may pick different winners, and one flipped row can change
every later iteration. Benign data keeps every margin far outside the
bound, which is what the equivalence suite pins. Adversarial data
does not: ``np.random.default_rng(0).integers(0, 4, (3000, 3))`` with
every 7th row scaled by 1e8 (knori, k=8, 4 threads, seeds 0-11 x
{mti, unpruned, elkan}) gives different assignments or iteration
counts in 14 of 36 runs. Exact ties (duplicate centroids) produce
bitwise-equal candidates under both strategies, so argmin's
lowest-index rule picks the same centroid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError, DatasetError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.workspace import DistanceWorkspace

#: Rows per block for distance evaluation; bounds temporary memory at
#: roughly ``BLOCK_ROWS * k * 8`` bytes.
BLOCK_ROWS = 65536

#: Accepted values for the ``kernel`` strategy parameter.
KERNEL_STRATEGIES = ("blocked", "gemm")

#: Pinned bound on the squared-distance delta between the two kernel
#: strategies, in ulps of the ``|x|^2 + |c|^2`` magnitude the
#: reassociated addition rounds at (see the equivalence suite).
GEMM_ULP_BOUND = 4


def check_kernel(kernel: str) -> str:
    """Validate a ``kernel`` strategy argument and pass it through."""
    if kernel not in KERNEL_STRATEGIES:
        raise ConfigError(
            f"kernel must be one of {KERNEL_STRATEGIES}, got {kernel!r}"
        )
    return kernel


def row_norms(
    x: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Squared row norms ``|x_i|^2``, the shared norm helper.

    Each row's norm is an independent reduction over ``d``, so the
    values are bit-identical whether computed per block, on gathered
    rows, or over the whole array -- which is what lets the workspace
    cache them per data array and slice, and lets the serial GEMM
    baseline share this helper with the kernel strategy.
    """
    return np.einsum("ij,ij->i", x, x, out=out)


def _as_matrix(a: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DatasetError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def euclidean(
    x: np.ndarray,
    c: np.ndarray,
    *,
    c_sq: np.ndarray | None = None,
    out: np.ndarray | None = None,
    x_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise Euclidean distances between rows of ``x`` and ``c``.

    Returns an ``(len(x), len(c))`` float64 matrix.

    ``c_sq`` supplies precomputed centroid norms ``|c|^2`` (a
    workspace computes them once per iteration); ``x_sq`` supplies
    precomputed row norms ``|x|^2`` (per-row reductions, so gathered
    or cached norms are bit-identical to inline ones); ``out``
    supplies a preallocated ``(len(x), len(c))`` float64 result
    buffer. All three are pure optimizations -- the returned values
    are bit-identical either way.
    """
    x = _as_matrix(x, "x")
    c = _as_matrix(c, "c")
    if x.shape[1] != c.shape[1]:
        raise DatasetError(
            f"dimension mismatch: x has d={x.shape[1]}, c has d={c.shape[1]}"
        )
    if x_sq is None:
        x_sq = row_norms(x)
    if c_sq is None:
        c_sq = row_norms(c)
    if out is None:
        sq = x_sq[:, None] - 2.0 * (x @ c.T) + c_sq[None, :]
    else:
        # Same arithmetic in place: x_sq + (-2)*g + c_sq.
        sq = np.matmul(x, c.T, out=out)
        sq *= -2.0
        sq += x_sq[:, None]
        sq += c_sq[None, :]
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def pairwise_centroid_distances(
    c: np.ndarray,
    *,
    c_sq: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The O(k^2) centroid-to-centroid distance matrix MTI maintains.

    Symmetric with a zero diagonal; MTI stores only a triangle in the
    real system, which the memory accounting reflects, but the full
    matrix is returned here for vectorized indexing.
    """
    return euclidean(c, c, c_sq=c_sq, out=out)


def half_min_inter_centroid(
    cc: np.ndarray,
    *,
    scratch: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``s(c) = 0.5 * min_{c' != c} d(c, c')`` for every centroid.

    This is the clause-1 threshold (Elkan 2003, and Section 4 of the
    paper -- whose prose omits the 1/2 factor that correctness
    requires; the released knor code uses it).

    The diagonal is excluded by writing ``inf`` into a copy of ``cc``
    (``scratch`` reuses one preallocated k x k buffer) rather than
    materializing a fresh ``np.eye`` boolean mask every iteration; the
    off-diagonal values are untouched, so the minima are bit-identical
    to the historical masked-add form.
    """
    k = cc.shape[0]
    if k == 1:
        # A single centroid has no neighbour; clause 1 always holds.
        # Fill ``out`` rather than returning a fresh array: a caller
        # that owns ``out`` (the workspace) must keep its buffer.
        if out is None:
            return np.array([np.inf])
        out.fill(np.inf)
        return out
    masked = np.empty_like(cc) if scratch is None else scratch
    np.copyto(masked, cc)
    np.fill_diagonal(masked, np.inf)
    if out is None:
        return 0.5 * masked.min(axis=1)
    masked.min(axis=1, out=out)
    out *= 0.5
    return out


def _nearest_centroid_gemm(
    x: np.ndarray,
    c: np.ndarray,
    c_sq: np.ndarray,
    x_sq: np.ndarray,
    neg2ct: np.ndarray,
    block_rows: int,
    workspace: "DistanceWorkspace | None",
) -> tuple[np.ndarray, np.ndarray]:
    """The ``"gemm"`` assignment pass over ``q = -2 X C^T + |c|^2``.

    Per block: one GEMM against the pre-scaled ``(-2 C)^T``, one
    ``|c|^2`` broadcast-add, one argmin -- then clamp + sqrt only on
    the ``m`` winners (O(m) instead of O(m * k) post-processing).
    """
    n = x.shape[0]
    assign = np.empty(n, dtype=np.int32)
    mindist = np.empty(n, dtype=np.float64)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        m = stop - start
        out = None if workspace is None else workspace.dist_buffer(m)
        q = np.matmul(x[start:stop], neg2ct, out=out)
        q += c_sq[None, :]
        a = np.argmin(q, axis=1).astype(np.int32, copy=False)
        assign[start:stop] = a
        sq = q[np.arange(m), a] + x_sq[start:stop]
        np.maximum(sq, 0.0, out=sq)
        mindist[start:stop] = np.sqrt(sq, out=sq)
    return assign, mindist


def nearest_centroid(
    x: np.ndarray,
    c: np.ndarray,
    *,
    block_rows: int = BLOCK_ROWS,
    workspace: "DistanceWorkspace | None" = None,
    kernel: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest centroid for every row (Phase I of Lloyd's).

    Returns ``(assignment int32, distance float64)``. Ties break toward
    the lowest centroid index (argmin semantics), consistently across
    all algorithms.

    With a ``workspace``, centroid norms come from the per-iteration
    cache and every block writes into one preallocated distance buffer
    instead of reallocating ``(block_rows, k)`` temporaries.

    ``kernel`` selects the strategy (module docstring): ``"blocked"``
    is the bit-identical reference, ``"gemm"`` the ULP-equivalent fast
    path. ``None`` defers to the workspace's configured strategy (or
    ``"blocked"`` without one).
    """
    x = _as_matrix(x, "x")
    c = _as_matrix(c, "c")
    n = x.shape[0]
    if kernel is None:
        kernel = "blocked" if workspace is None else workspace.kernel
    check_kernel(kernel)
    c_sq = None
    if workspace is not None:
        c = workspace.ensure(c)
        c_sq = workspace.c_sq
    if kernel == "gemm":
        if c_sq is None:
            c_sq = row_norms(c)
        if workspace is not None:
            x_sq = workspace.x_sq(x)
            neg2ct = workspace.neg2ct
        else:
            x_sq = row_norms(x)
            # Scaling by -2 is exact in IEEE-754 and the .T view keeps
            # the BLAS layout identical to ``x @ c.T``, so the GEMM
            # output equals ``-2 * (x @ c.T)`` to the last bit.
            neg2ct = (c * -2.0).T
        return _nearest_centroid_gemm(
            x, c, c_sq, x_sq, neg2ct, block_rows, workspace
        )
    assign = np.empty(n, dtype=np.int32)
    mindist = np.empty(n, dtype=np.float64)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        m = stop - start
        out = None if workspace is None else workspace.dist_buffer(m)
        dist = euclidean(x[start:stop], c, c_sq=c_sq, out=out)
        assign[start:stop] = np.argmin(dist, axis=1)
        mindist[start:stop] = dist[
            np.arange(m), assign[start:stop]
        ]
    return assign, mindist


def rows_to_centroids(
    x: np.ndarray,
    c: np.ndarray,
    idx: np.ndarray,
    *,
    c_sq: np.ndarray | None = None,
    x_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Distance from each row ``x[i]`` to its *own* centroid ``c[idx[i]]``.

    The tightening step ``U(u)`` of MTI clause 3: one exact distance per
    row, not a full row-by-centroid matrix. Uses the same expanded form
    as :func:`euclidean` so the two paths agree to the last few ulps.

    ``c_sq`` supplies precomputed centroid norms; gathering
    ``c_sq[idx]`` is bit-identical to re-deriving the norms from the
    gathered rows (each row's norm is an independent reduction).
    ``x_sq`` does the same for the row norms (the gemm kernel strategy
    feeds the workspace's per-array cache through here).
    """
    x = _as_matrix(x, "x")
    sel = c[idx]
    sel_sq = row_norms(sel) if c_sq is None else c_sq[idx]
    if x_sq is None:
        x_sq = row_norms(x)
    sq = (
        x_sq
        - 2.0 * np.einsum("ij,ij->i", x, sel)
        + sel_sq
    )
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)
