"""Unit tests for the seeded workload generators."""

import pytest

from repro.testing import WorkloadSpec, access_trace, object_sizes
from repro.testing.harness import RuntimeHarness
from repro.testing.workloads import (
    DeltaStormActor, StormActor, run_storm, storm_actors, storm_phases,
    storm_state,
)


# ------------------------------------------------------------- object sizes
def test_object_sizes_bounds_and_reproducibility():
    sizes = object_sizes(200, seed=5, min_bytes=100, max_bytes=10_000)
    assert len(sizes) == 200
    assert all(100 <= s <= 10_000 for s in sizes)
    assert sizes == object_sizes(200, seed=5, min_bytes=100, max_bytes=10_000)
    assert sizes != object_sizes(200, seed=6, min_bytes=100, max_bytes=10_000)


def test_object_sizes_validation():
    with pytest.raises(ValueError):
        object_sizes(-1)
    with pytest.raises(ValueError):
        object_sizes(3, min_bytes=0)
    with pytest.raises(ValueError):
        object_sizes(3, min_bytes=100, max_bytes=50)


# ------------------------------------------------------------- access traces
def test_access_trace_shape_and_range():
    trace = access_trace(50, 1000, seed=1)
    assert len(trace) == 1000
    assert all(0 <= oid < 50 for oid in trace)
    assert trace == access_trace(50, 1000, seed=1)


def test_access_trace_is_skewed():
    """With 20% hot ids taking 80% of accesses, the hot set dominates."""
    n_objects, n_ops = 100, 5000
    trace = access_trace(n_objects, n_ops, seed=2,
                         hot_fraction=0.2, hot_weight=0.8)
    n_hot = int(n_objects * 0.2)
    hot_share = sum(1 for oid in trace if oid < n_hot) / n_ops
    assert hot_share > 0.7  # well above the 0.2 a uniform trace would give


def test_access_trace_uniform_when_unskewed():
    trace = access_trace(10, 5000, seed=3, hot_fraction=1.0, hot_weight=1.0)
    counts = [trace.count(i) for i in range(10)]
    assert min(counts) > 300  # roughly uniform across all ids


def test_access_trace_validation():
    with pytest.raises(ValueError):
        access_trace(0, 10)
    with pytest.raises(ValueError):
        access_trace(10, 10, hot_fraction=0.0)
    with pytest.raises(ValueError):
        access_trace(10, 10, hot_weight=1.5)


# ------------------------------------------------------------- workload spec
def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(n_actors=0)
    with pytest.raises(ValueError):
        WorkloadSpec(hops=-1)
    with pytest.raises(ValueError):
        WorkloadSpec(grow_every=0)


# ------------------------------------------------------------- storm phases
@pytest.mark.parametrize("actor", [StormActor, DeltaStormActor])
def test_storm_phases_reach_the_run_storm_state(actor):
    """One ``run()`` per cascade (the chaos drive) and one for the whole
    storm (``run_storm``) end in the same witness, under spill pressure."""
    spec = WorkloadSpec(n_actors=8, payload_bytes=2048, initial_pulses=3,
                        hops=4, fanout=2, grow_every=2, grow_bytes=1024,
                        seed=3)
    whole = RuntimeHarness(n_nodes=2, memory_bytes=24 * 1024)
    want = storm_state(whole.runtime, run_storm(whole.runtime, spec, actor))

    phased = RuntimeHarness(n_nodes=2, memory_bytes=24 * 1024)
    actors = storm_actors(phased.runtime, spec, actor)
    labels = list(storm_phases(phased.runtime, actors, spec))
    assert labels == ["after meets", "after pulse 0", "after pulse 1",
                      "after pulse 2"]
    assert storm_state(phased.runtime, actors) == want
    assert sum(hits for hits, _, _ in want.values()) > spec.initial_pulses
    assert phased.runtime.stats.bytes_to_disk > 0
    assert whole.runtime.stats.bytes_to_disk > 0
