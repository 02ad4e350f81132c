"""Simulated NUMA hardware substrate.

The paper's optimizations (thread binding, NUMA-local allocation,
partitioned scheduling) manipulate *where* data lives and *who* touches
it. This package models exactly that: a machine is a set of NUMA nodes,
each with cores and a memory bank; a deterministic cost model charges
simulated nanoseconds for compute, local/remote DRAM traffic, queue
locks, barriers and SSD reads; an event-driven engine replays the task
trace a scheduler produces and reports per-thread simulated clocks.

Simulated time is always labelled ``sim`` in public APIs; nothing here
measures wall-clock time.
"""

from repro.simhw.topology import NumaTopology, BindPolicy
from repro.simhw.costmodel import (
    CostModel,
    FOUR_SOCKET_XEON,
    EC2_C4_8XLARGE,
    EC2_I3_16XLARGE,
    EC2_C4_8XLARGE_USD_HOUR,
    EC2_I3_16XLARGE_USD_HOUR,
    SPOT_DISCOUNT,
    run_cost_usd,
)
from repro.simhw.memory import (
    AllocPolicy,
    Allocation,
    SimMemory,
)
from repro.simhw.thread import SimThread
from repro.simhw.engine import (
    AsyncIoTimeline,
    IoPlacement,
    IterationEngine,
    IterationTrace,
    OwnQueueTakes,
    ProvisionRequest,
    ProvisionTimeline,
    ScheduleDecision,
    TaskExecution,
    TaskWork,
)
from repro.simhw.machine import SimMachine
from repro.simhw.serving import (
    ArrivalProcess,
    ArrivalTrace,
    OpenLoopBatcher,
)
from repro.simhw.ssd import AsyncIoQueue, SsdArray, SsdReadResult

__all__ = [
    "NumaTopology",
    "BindPolicy",
    "CostModel",
    "FOUR_SOCKET_XEON",
    "EC2_C4_8XLARGE",
    "EC2_I3_16XLARGE",
    "EC2_C4_8XLARGE_USD_HOUR",
    "EC2_I3_16XLARGE_USD_HOUR",
    "SPOT_DISCOUNT",
    "run_cost_usd",
    "AllocPolicy",
    "Allocation",
    "SimMemory",
    "SimThread",
    "SimMachine",
    "AsyncIoTimeline",
    "IoPlacement",
    "IterationEngine",
    "IterationTrace",
    "OwnQueueTakes",
    "ProvisionRequest",
    "ProvisionTimeline",
    "ScheduleDecision",
    "TaskExecution",
    "TaskWork",
    "AsyncIoQueue",
    "SsdArray",
    "SsdReadResult",
    "ArrivalProcess",
    "ArrivalTrace",
    "OpenLoopBatcher",
]
