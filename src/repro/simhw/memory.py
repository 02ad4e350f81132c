"""Simulated NUMA memory: placement map and per-component accounting.

Tracks *where* every logical allocation lives (which NUMA bank holds
which byte range) and *how much* simulated memory each component of the
algorithm consumes. The placement map is what makes a memory access
local or remote in the cost model; the accounting is what reproduces
Table 1 and the memory panels of Figures 8c and 9c.

``SimMemory`` does not hold real data -- algorithms keep their NumPy
arrays; this class records the allocation metadata the real
implementation would have passed to ``numa_alloc_onnode`` / ``malloc``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import AllocationError, ConfigError
from repro.simhw.topology import NumaTopology


class AllocPolicy(enum.Enum):
    """Placement policy for one allocation.

    ``PARTITIONED``
        The paper's scheme (Figure 1): the allocation is split into N
        equal contiguous slabs, one per NUMA node, so each bound
        thread's slice is node-local.

    ``NUMA_BIND``
        The whole allocation on one named node (used for per-thread
        private structures: local centroids, bound arrays).

    ``INTERLEAVE``
        Pages round-robin across nodes (``numactl --interleave``).

    ``OBLIVIOUS``
        What ``malloc`` + first-touch from a single initializing thread
        gives you: one contiguous chunk in a single bank (node 0). This
        is the Figure 4 baseline.
    """

    PARTITIONED = "partitioned"
    NUMA_BIND = "numa_bind"
    INTERLEAVE = "interleave"
    OBLIVIOUS = "oblivious"


@dataclass(frozen=True)
class Allocation:
    """Metadata for one simulated allocation.

    ``placement`` maps node id -> bytes resident on that node. For
    PARTITIONED/OBLIVIOUS allocations ``slab_of(offset)`` answers which
    node holds a given byte offset, which the engine uses to classify
    each task's accesses as local or remote.
    """

    alloc_id: int
    name: str
    component: str
    nbytes: int
    policy: AllocPolicy
    n_nodes: int
    home_node: int | None = None

    @property
    def placement(self) -> dict[int, int]:
        if self.policy is AllocPolicy.OBLIVIOUS:
            return {0: self.nbytes}
        if self.policy is AllocPolicy.NUMA_BIND:
            assert self.home_node is not None
            return {self.home_node: self.nbytes}
        # PARTITIONED and INTERLEAVE both spread evenly; they differ in
        # slab geometry, not in totals.
        base = self.nbytes // self.n_nodes
        rem = self.nbytes % self.n_nodes
        return {
            node: base + (1 if node < rem else 0)
            for node in range(self.n_nodes)
            if base + (1 if node < rem else 0) > 0
        }

    def node_of_offset(self, offset: int) -> int:
        """NUMA node holding byte ``offset`` of this allocation."""
        if not 0 <= offset < max(self.nbytes, 1):
            raise AllocationError(
                f"offset {offset} out of range for {self.name} "
                f"({self.nbytes} bytes)"
            )
        if self.policy is AllocPolicy.OBLIVIOUS:
            return 0
        if self.policy is AllocPolicy.NUMA_BIND:
            assert self.home_node is not None
            return self.home_node
        if self.policy is AllocPolicy.PARTITIONED:
            slab = -(-self.nbytes // self.n_nodes)  # ceil division
            return min(offset // slab, self.n_nodes - 1)
        # INTERLEAVE: 4 KiB pages round-robin.
        page = offset // 4096
        return page % self.n_nodes

    def node_of_fraction(self, frac: float) -> int:
        """Node holding the byte at relative position ``frac`` in [0,1)."""
        if not 0.0 <= frac < 1.0:
            raise AllocationError(f"fraction {frac} outside [0, 1)")
        return self.node_of_offset(int(frac * self.nbytes))


class SimMemory:
    """Allocation registry with per-component peak accounting.

    Components are free-form strings ("data", "centroids",
    "per_thread_centroids", "mti_bounds", "elkan_lower_bounds",
    "row_cache", "page_cache", ...) so benchmarks can break peak memory
    down the way Table 1 does.
    """

    def __init__(self, topology: NumaTopology) -> None:
        self.topology = topology
        self._allocs: dict[int, Allocation] = {}
        self._next_id = 0
        self._current_bytes = 0
        self._peak_bytes = 0
        self._component_current: dict[str, int] = {}
        self._component_peak: dict[str, int] = {}

    # -- allocation lifecycle -------------------------------------

    def alloc(
        self,
        name: str,
        nbytes: int,
        policy: AllocPolicy,
        *,
        component: str = "misc",
        home_node: int | None = None,
    ) -> Allocation:
        """Register a simulated allocation and return its metadata."""
        if nbytes < 0:
            raise AllocationError(f"negative allocation size {nbytes}")
        if policy is AllocPolicy.NUMA_BIND:
            if home_node is None:
                raise AllocationError("NUMA_BIND requires home_node")
            if not 0 <= home_node < self.topology.n_nodes:
                raise AllocationError(
                    f"home_node {home_node} out of range "
                    f"(N={self.topology.n_nodes})"
                )
        elif home_node is not None:
            raise ConfigError("home_node only valid with NUMA_BIND")
        alloc = Allocation(
            alloc_id=self._next_id,
            name=name,
            component=component,
            nbytes=nbytes,
            policy=policy,
            n_nodes=self.topology.n_nodes,
            home_node=home_node,
        )
        self._next_id += 1
        self._allocs[alloc.alloc_id] = alloc
        self._current_bytes += nbytes
        self._peak_bytes = max(self._peak_bytes, self._current_bytes)
        cur = self._component_current.get(component, 0) + nbytes
        self._component_current[component] = cur
        self._component_peak[component] = max(
            self._component_peak.get(component, 0), cur
        )
        return alloc

    def free(self, alloc: Allocation) -> None:
        """Release a simulated allocation."""
        if alloc.alloc_id not in self._allocs:
            raise AllocationError(f"double free of allocation {alloc.name!r}")
        del self._allocs[alloc.alloc_id]
        self._current_bytes -= alloc.nbytes
        self._component_current[alloc.component] -= alloc.nbytes

    # -- accounting ------------------------------------------------

    @property
    def current_bytes(self) -> int:
        """Bytes currently registered."""
        return self._current_bytes

    @property
    def peak_bytes(self) -> int:
        """High-water mark over this registry's lifetime."""
        return self._peak_bytes

    def component_peak(self, component: str) -> int:
        """Peak bytes ever simultaneously live for one component."""
        return self._component_peak.get(component, 0)

    def component_breakdown(self) -> dict[str, int]:
        """Peak bytes per component (copy)."""
        return dict(self._component_peak)

    def live_allocations(self) -> list[Allocation]:
        """Currently registered allocations, in id order."""
        return [self._allocs[a] for a in sorted(self._allocs)]

    def bank_residency(self) -> dict[int, int]:
        """Bytes currently resident per NUMA node."""
        residency: dict[int, int] = {n: 0 for n in range(self.topology.n_nodes)}
        for alloc in self._allocs.values():
            for node, nbytes in alloc.placement.items():
                residency[node] += nbytes
        return residency
