"""Memory manager: placement maps and peak accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, ConfigError
from repro.simhw.memory import AllocPolicy, SimMemory
from repro.simhw.topology import NumaTopology

TOPO = NumaTopology(4, 12)


@pytest.fixture()
def mem():
    return SimMemory(TOPO)


def test_partitioned_placement_even(mem):
    a = mem.alloc("data", 4000, AllocPolicy.PARTITIONED)
    assert a.placement == {0: 1000, 1: 1000, 2: 1000, 3: 1000}
    assert a.node_of_offset(0) == 0
    assert a.node_of_offset(3999) == 3
    assert a.node_of_fraction(0.6) == 2


def test_oblivious_placement_single_bank(mem):
    a = mem.alloc("data", 4000, AllocPolicy.OBLIVIOUS)
    assert a.placement == {0: 4000}
    assert a.node_of_offset(3999) == 0


def test_numa_bind_placement(mem):
    a = mem.alloc("local", 100, AllocPolicy.NUMA_BIND, home_node=2)
    assert a.placement == {2: 100}
    assert a.node_of_offset(50) == 2


def test_numa_bind_requires_node(mem):
    with pytest.raises(AllocationError):
        mem.alloc("x", 10, AllocPolicy.NUMA_BIND)
    with pytest.raises(AllocationError):
        mem.alloc("x", 10, AllocPolicy.NUMA_BIND, home_node=9)


def test_home_node_rejected_otherwise(mem):
    with pytest.raises(ConfigError):
        mem.alloc("x", 10, AllocPolicy.PARTITIONED, home_node=0)


def test_interleave_round_robin(mem):
    a = mem.alloc("x", 4096 * 8, AllocPolicy.INTERLEAVE)
    assert a.node_of_offset(0) == 0
    assert a.node_of_offset(4096) == 1
    assert a.node_of_offset(4096 * 5) == 1  # page 5 mod 4


def test_offset_out_of_range(mem):
    a = mem.alloc("x", 10, AllocPolicy.OBLIVIOUS)
    with pytest.raises(AllocationError):
        a.node_of_offset(10)
    with pytest.raises(AllocationError):
        a.node_of_fraction(1.0)


def test_negative_alloc_rejected(mem):
    with pytest.raises(AllocationError):
        mem.alloc("x", -1, AllocPolicy.OBLIVIOUS)


def test_peak_and_component_accounting(mem):
    a = mem.alloc("a", 100, AllocPolicy.OBLIVIOUS, component="data")
    mem.alloc("b", 50, AllocPolicy.OBLIVIOUS, component="bounds")
    assert mem.current_bytes == 150
    assert mem.peak_bytes == 150
    mem.free(a)
    assert mem.current_bytes == 50
    assert mem.peak_bytes == 150  # high-water mark persists
    assert mem.component_peak("data") == 100
    assert mem.component_peak("bounds") == 50
    assert mem.component_peak("absent") == 0
    mem.alloc("c", 30, AllocPolicy.OBLIVIOUS, component="data")
    assert mem.component_peak("data") == 100  # not exceeded again


def test_double_free_raises(mem):
    a = mem.alloc("a", 10, AllocPolicy.OBLIVIOUS)
    mem.free(a)
    with pytest.raises(AllocationError):
        mem.free(a)


def test_bank_residency(mem):
    mem.alloc("a", 4000, AllocPolicy.PARTITIONED)
    mem.alloc("b", 100, AllocPolicy.NUMA_BIND, home_node=1)
    res = mem.bank_residency()
    assert res[0] == 1000
    assert res[1] == 1100
    assert sum(res.values()) == 4100


def test_live_allocations_ordered(mem):
    mem.alloc("a", 1, AllocPolicy.OBLIVIOUS)
    mem.alloc("b", 1, AllocPolicy.OBLIVIOUS)
    names = [a.name for a in mem.live_allocations()]
    assert names == ["a", "b"]


@settings(max_examples=50, deadline=None)
@given(
    nbytes=st.integers(1, 1 << 20),
    policy=st.sampled_from(
        [AllocPolicy.PARTITIONED, AllocPolicy.INTERLEAVE,
         AllocPolicy.OBLIVIOUS]
    ),
)
def test_placement_conserves_bytes(nbytes, policy):
    mem = SimMemory(TOPO)
    a = mem.alloc("x", nbytes, policy)
    assert sum(a.placement.values()) == nbytes


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 1000), min_size=1, max_size=20),
)
def test_peak_is_max_prefix_sum(sizes):
    mem = SimMemory(TOPO)
    for i, s in enumerate(sizes):
        mem.alloc(f"a{i}", s, AllocPolicy.OBLIVIOUS)
    assert mem.peak_bytes == sum(sizes)
    assert mem.current_bytes == sum(sizes)
