"""Numerics sources: the algorithm side of an execution backend.

A source produces, per iteration, the exact per-row work statistics
(:class:`StepStats`) the hardware plane prices. Two families exist:

* :class:`KmeansSource` wraps the library's own
  :class:`~repro.drivers.common.NumericsLoop` (Lloyd's / MTI / Elkan);
* :class:`~repro.runtime.mm.MMSource` wraps any
  :class:`~repro.runtime.mm.MMAlgorithm` (the MM algorithm plane).

Both are consumed identically by the backends, which is what lets
knori/knors and the generic ``run_mm_inmemory``/``run_mm_sem`` share
one loop body.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.data.matrixfile import MatrixFile
from repro.errors import DatasetError
from repro.runtime.memory import state_bytes_per_row


@dataclass
class StepStats:
    """One iteration's exact outputs, uniform across source families."""

    #: Compute per row, in point-centroid distance-column equivalents.
    dist_per_row: np.ndarray
    #: Rows whose data was touched (False = skipped wholesale; in SEM
    #: mode a False row issues no I/O request).
    needs_data: np.ndarray
    #: Observable progress (points that changed membership, ...).
    n_changed: int
    #: Centroid displacement since last iteration (None when the
    #: source does not track it, e.g. iteration 0 or non-k-means).
    motion: np.ndarray | None = None
    #: Pruning breakdown; zero for unpruned/non-k-means sources.
    clause1_rows: int = 0
    clause2_pruned: int = 0
    clause3_pruned: int = 0
    #: Bytes of algorithm state touched per active row.
    state_bytes: int = 8


@runtime_checkable
class NumericsSource(Protocol):
    """What a backend pulls from each iteration."""

    def step(self, iteration: int) -> StepStats:  # pragma: no cover
        ...


class KmeansSource:
    """Adapts a :class:`NumericsLoop` to the source contract.

    Owns the pruning-mode-aware per-row state-byte rate (previously a
    hardcoded ``12 if pruning else 4`` in every driver, which charged
    Elkan the MTI rate despite its O(k) bound row per point).
    """

    def __init__(self, loop: Any, k: int) -> None:
        self.loop = loop
        self.state_bytes = state_bytes_per_row(loop.pruning, k)

    def step(self, iteration: int) -> StepStats:
        num = self.loop.step()
        return StepStats(
            dist_per_row=num.dist_per_row,
            needs_data=num.needs_data,
            n_changed=num.n_changed,
            motion=num.motion,
            clause1_rows=num.clause1_rows,
            clause2_pruned=num.clause2_pruned,
            clause3_pruned=num.clause3_pruned,
            state_bytes=self.state_bytes,
        )


def resolve_row_data(
    data: np.ndarray | str | Path | MatrixFile,
) -> tuple[np.ndarray, int, int]:
    """Resolve a data source to an indexable array plus ``(n, d)``.

    Paths resolve to a memmap-backed view, so row accesses during a
    SEM run read from the real file at page granularity.
    """
    if isinstance(data, MatrixFile):
        return data.row_view(), data.n, data.d
    if isinstance(data, (str, Path)):
        mf = MatrixFile(data)
        return mf.row_view(), mf.n, mf.d
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise DatasetError(f"data must be 2-D, got shape {x.shape}")
    return x, x.shape[0], x.shape[1]
