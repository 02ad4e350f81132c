"""Semi-external-memory substrate (Section 6).

knors keeps O(n) algorithm state in memory and streams the O(nd) row
data from an SSD array through a modified FlashGraph. The stack here
mirrors that architecture layer by layer:

* :mod:`repro.sem.pagecache` -- SAFS's page cache (pins hot filesystem
  pages in memory).
* :mod:`repro.sem.safs` -- the userspace filesystem model: maps row
  requests to 4 KB pages, merges adjacent requests, consults the page
  cache, and charges the SSD array for what remains.
* :mod:`repro.sem.rowcache` -- the paper's contribution on top: a
  partitioned, lazily-updated **row cache** that pins active rows at
  row (not page) granularity, with exponentially spaced refreshes
  (Section 6.2.2).
* :mod:`repro.sem.flashgraph` -- the ``page_row`` engine: one
  iteration's I/O plan (row cache -> page cache -> SSD) with
  asynchronous I/O overlapping compute; :func:`build_sem_stack` sizes
  and wires the whole stack for one dataset.

Data flowing through this stack is *real*: rows come back from an
actual on-disk file (:class:`repro.data.MatrixFile`); only service
times are modeled.
"""

from repro.sem.pagecache import PageCache
from repro.sem.safs import Safs, IoBatch
from repro.sem.rowcache import RowCache
from repro.sem.flashgraph import IoIterationStats, RowEngine, build_sem_stack

__all__ = [
    "PageCache",
    "Safs",
    "IoBatch",
    "RowCache",
    "RowEngine",
    "IoIterationStats",
    "build_sem_stack",
]
