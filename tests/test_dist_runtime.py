"""End-to-end tests of the distributed coordinator with real workers.

Each test forks real worker processes, so sizes are kept small; the
heavyweight guarantees (cross-worker determinism, state equality with
the single-process reference, re-homing) each get exactly one focused
test and otherwise lean on the in-process units in test_dist_store.py.
"""

import pytest

from repro.core import MRTS, MRTSConfig
from repro.dist import DistRuntime, RecoveryFailed, ShardRecoveryPolicy
from repro.dist.wire import DistError
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing.workloads import (
    DeltaStormActor, StormActor, WorkloadSpec, run_storm,
)
from repro.util.errors import ObjectNotFound

SPEC = WorkloadSpec(
    n_actors=8, payload_bytes=1024, initial_pulses=2, hops=3, fanout=2,
    grow_every=3, grow_bytes=256, seed=13,
)


def final_state(runtime, actors):
    out = []
    for ptr in actors:
        obj = runtime.get_object(ptr)
        out.append((obj.hits, obj.forwarded, len(obj.payload)))
    return out


def reference_state(spec, actor=StormActor):
    rt = MRTS(ClusterSpec(
        n_nodes=2, node=NodeSpec(cores=1, memory_bytes=1 << 20)
    ))
    return final_state(rt, run_storm(rt, spec, actor))


def test_storm_matches_single_process_reference():
    with DistRuntime(2, l0_bytes=8 * 1024) as runtime:
        actors = run_storm(runtime, SPEC)
        assert final_state(runtime, actors) == reference_state(SPEC)
        stats = runtime.stats
    assert stats.delivered > 0
    assert stats.posts_routed > 0
    assert stats.bytes_replicated > 0
    assert stats.residency_violations() == []


@pytest.mark.parametrize("scheme", MRTSConfig.VALID_SCHEMES)
def test_storm_matches_reference_under_every_swap_scheme(scheme):
    """Worker residency is the OOC layer, so every scheme must converge."""
    config = MRTSConfig(swap_scheme=scheme)
    with DistRuntime(2, config, l0_bytes=4 * 1024) as runtime:
        actors = run_storm(runtime, SPEC)
        assert final_state(runtime, actors) == reference_state(SPEC)
    assert runtime.stats.aggregate("evictions") > 0
    assert runtime.stats.residency_violations() == []


def test_delta_storm_matches_reference_and_stores_delta_frames():
    """Workers spill through ``spill.store_spill``, so append-mostly
    payloads re-spill as delta frames on this backend too."""
    with DistRuntime(2, l0_bytes=4 * 1024) as runtime:
        actors = run_storm(runtime, SPEC, DeltaStormActor)
        assert final_state(runtime, actors) == reference_state(
            SPEC, DeltaStormActor)
    assert runtime.stats.aggregate("delta_spills") > 0
    assert runtime.stats.residency_violations() == []


def test_same_seed_same_state_across_worker_counts():
    """The cross-process determinism satellite: 1 == 2 == 4 workers."""
    states = []
    for workers in (1, 2, 4):
        with DistRuntime(workers, l0_bytes=8 * 1024) as runtime:
            actors = run_storm(runtime, SPEC)
            states.append(final_state(runtime, actors))
    assert states[0] == states[1] == states[2]


def test_worker_kill_rehomes_without_rewind():
    with DistRuntime(3, l0_bytes=8 * 1024) as runtime:
        runtime.schedule_kill(1, after_acks=15)
        actors = run_storm(runtime, SPEC)
        assert runtime.stats.rehomes == 1
        assert runtime.stats.moved_objects > 0
        assert 1 not in runtime.ring.members
        assert final_state(runtime, actors) == reference_state(SPEC)
    assert runtime.recovery.events  # the policy logged the re-home


def test_handler_error_surfaces_as_dist_error():
    with DistRuntime(1) as runtime:
        ptr = runtime.create_object(StormActor, 64, 0, 3, 16)
        runtime.post(ptr, "no_such_handler")
        with pytest.raises(DistError, match="no_such_handler"):
            runtime.run()


def test_post_to_unknown_object_rejected_eagerly():
    from repro.core.mobile import MobilePointer

    with DistRuntime(1) as runtime:
        with pytest.raises(ObjectNotFound):
            runtime.post(MobilePointer(999, 0), "pulse")
        with pytest.raises(ObjectNotFound):
            runtime.get_object(MobilePointer(999, 0))


def test_recovery_budget_exhaustion_raises():
    with DistRuntime(2, recovery=ShardRecoveryPolicy(max_rehomes=0)) as rt:
        ptr = rt.create_object(StormActor, 64, 0, 3, 16)
        rt.run()
        rt.kill_worker(rt.directory[ptr.oid].home)
        rt.post(ptr, "pulse", 1, 1)
        with pytest.raises(RecoveryFailed):
            rt.run()


def test_events_relay_across_the_process_boundary():
    from repro.obs.events import EventBus

    bus = EventBus()
    sub = bus.subscribe()
    with DistRuntime(2, l0_bytes=4 * 1024, bus=bus) as runtime:
        run_storm(runtime, SPEC)
    times = [e.time for e in sub.events]
    assert times, "no events crossed the boundary"
    assert times == sorted(times), "merged stream is not time-ordered"
    kinds = {e.kind for e in sub.events}
    assert "handler" in kinds
    assert runtime.stats.events_merged == len(times)


def test_close_is_idempotent_and_collects_worker_stats():
    runtime = DistRuntime(2)
    ptr = runtime.create_object(StormActor, 64, 0, 3, 16)
    runtime.post(ptr, "pulse", 1, 1)
    runtime.run()
    stats = runtime.close()
    assert runtime.close() is stats
    assert stats.aggregate("delivered") >= 1
    assert all(not h.alive for h in runtime.workers)


def test_worker_count_must_be_positive():
    with pytest.raises(ValueError):
        DistRuntime(0)
