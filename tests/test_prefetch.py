"""Tests for the learned prefetcher (PR 7).

Three layers of coverage:

* :class:`PrefetchPredictor` unit behaviour — Markov learning, confidence
  filtering, background-load exclusion, bounded memory.
* The runtime's prefetch accounting — issued/hit/wasted counters, the
  PrefetchEvent stream, the metrics counter.
* The advisory-only property: prefetch (and the pack-file layout) may
  move *when* bytes travel but must never change the final application
  state — pinned across seeds and swap schemes with Hypothesis.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import spill
from repro.core.config import MRTSConfig
from repro.core.prefetch import PrefetchPredictor
from repro.evalsim.apps import run_pcdm_model
from repro.testing.harness import RuntimeHarness
from repro.testing.workloads import WorkloadSpec, run_storm


# ---------------------------------------------------------------- predictor
def test_markov_table_learns_the_sweep_order():
    p = PrefetchPredictor()
    for _ in range(3):
        for oid in (1, 2, 3):
            p.observe(0, oid)
    assert p.predict(0, after=1) == [2]
    assert p.predict(0, after=2) == [3]
    # ``after`` defaults to the most recent demand load (3 -> 1).
    assert p.predict(0) == [1]


def test_low_confidence_successors_are_filtered():
    p = PrefetchPredictor()
    # After 1: mostly 2, occasionally each of 5..9 (noise).
    for successor in [2, 2, 2, 2, 5, 6, 7, 8]:
        p.observe(0, 1)
        p.observe(0, successor)
    assert p.predict(0, after=1, min_confidence=0.4) == [2]
    assert 5 not in p.predict(0, after=1, min_confidence=0.25)


def test_nodes_learn_independently():
    p = PrefetchPredictor()
    p.observe(0, 1)
    p.observe(0, 2)
    p.observe(1, 1)
    p.observe(1, 9)
    assert p.predict(0, after=1) == [2]
    assert p.predict(1, after=1) == [9]


def test_background_loads_never_train_the_table():
    """The load path observes demand loads only: learning from our own
    prefetches would self-reinforce."""
    from repro.perf import run_mesh_neighborhood_sweep

    subs = []
    result = run_mesh_neighborhood_sweep(
        on_runtime=lambda rt: subs.append(rt.bus.subscribe(kinds=("load",)))
    )
    loads = list(subs[0].events)
    demand = sum(1 for event in loads if not event.background)
    assert demand < len(loads)  # background loads happened
    assert result.runtime.predictor.observed == demand


def test_state_cap_bounds_the_table():
    p = PrefetchPredictor(max_states=2)
    for prior, nxt in [(1, 2), (1, 2), (3, 4), (5, 6)]:
        p.observe(0, prior)
        p.observe(0, nxt)
    assert len(p._succ[0]) <= 2  # a state was evicted to admit new ones


def test_successor_tail_is_trimmed():
    p = PrefetchPredictor(max_successors=2)
    for successor in (2, 2, 2, 3, 3, 4):
        p.observe(0, 1)
        p.observe(0, successor)
    assert len(p._succ[0][1]) <= 2


# ------------------------------------------------------ runtime accounting
def _run_sweep():
    from repro.perf import run_mesh_neighborhood_sweep

    return run_mesh_neighborhood_sweep()


def test_neighborhood_sweep_hit_rate_meets_target():
    """ISSUE 7 acceptance: >= 0.5 on the repetitive-sweep workload."""
    stats = _run_sweep().runtime.stats
    assert stats.prefetch_issued > 0
    assert stats.prefetch_hit_rate >= 0.5


def test_prefetch_accounting_balances():
    stats = _run_sweep().runtime.stats
    assert (
        stats.prefetch_hits + stats.prefetch_wasted <= stats.prefetch_issued
    )


def test_prefetch_events_match_counters():
    from repro.obs import MetricsCollector
    from repro.perf import run_mesh_neighborhood_sweep

    subs = []
    metrics = MetricsCollector()

    def observe(runtime):
        subs.append(runtime.bus.subscribe(kinds=("prefetch",)))
        metrics.attach(runtime.bus)

    result = run_mesh_neighborhood_sweep(on_runtime=observe)
    stats = result.runtime.stats
    phases = {"issue": 0, "hit": 0, "wasted": 0}
    for event in subs[0].events:
        phases[event.phase] += 1
    assert phases["issue"] == stats.prefetch_issued
    assert phases["hit"] == stats.prefetch_hits
    assert phases["wasted"] == stats.prefetch_wasted
    total = sum(
        metrics.prefetch.value(**labels)
        for labels in metrics.prefetch.labels()
    )
    assert total == sum(phases.values())


def test_prefetch_lane_in_chrome_trace():
    from repro.obs.export import LANES, to_chrome_trace
    from repro.perf import run_mesh_neighborhood_sweep

    subs = []
    result = run_mesh_neighborhood_sweep(
        on_runtime=lambda rt: subs.append(rt.bus.subscribe())
    )
    assert result.runtime.stats.prefetch_issued > 0
    doc = to_chrome_trace(list(subs[0].events))
    lane = LANES["prefetch"]
    prefetch_rows = [
        e for e in doc["traceEvents"]
        if e.get("tid") == lane and e.get("ph") == "i"
    ]
    assert prefetch_rows
    names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "M"}
    assert "thread_name" in names


def test_prefetch_depth_zero_alone_turns_prefetching_off(cluster_spec):
    """The neighborhood warm (``spill.NEIGHBORHOOD_WARM``, 1) is an
    allowance *on* a prefetch, not a prefetcher of its own: before PR 16 it
    was added to a zero depth and spent on ready-queue hints (166 issued on
    this run)."""
    mem = 8 * 1024 * 1024
    cluster = cluster_spec(n_nodes=2, cores=2, memory_bytes=mem)
    config = MRTSConfig(prefetch_depth=0)
    assert spill.NEIGHBORHOOD_WARM == 1
    stats = run_pcdm_model(300_000, cluster, config=config).stats
    assert stats.objects_loaded > 0  # starved: there was reason to warm
    assert [(n.prefetch_issued, n.prefetch_hits, n.prefetch_wasted)
            for n in stats.nodes] == [(0, 0, 0)] * 2


# ----------------------------------------------------- advisory-only property
def _storm_state(seed: int, scheme: str, prefetch: bool):
    config = MRTSConfig(
        swap_scheme=scheme, prefetch_depth=2 if prefetch else 0
    )
    harness = RuntimeHarness(
        n_nodes=2, memory_bytes=24 * 1024, config=config
    )
    spec = WorkloadSpec(
        n_actors=8, payload_bytes=2048, initial_pulses=3, hops=4,
        fanout=2, grow_every=2, grow_bytes=1024, seed=seed,
    )
    ptrs = run_storm(harness.runtime, spec)
    return {
        p.oid: (o.hits, o.forwarded, len(o.payload))
        for p in ptrs
        for o in [harness.runtime.get_object(p)]
    }


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    scheme=st.sampled_from(["lru", "mru", "lfu"]),
)
def test_prefetch_is_advisory_only(seed, scheme):
    """Prefetch may reorder I/O, never application state."""
    assert _storm_state(seed, scheme, True) == _storm_state(
        seed, scheme, False
    )
