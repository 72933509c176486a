"""Tests for the speculation layer (PR 9): repro.core.spec.

Covers the protocol directly (begin/commit/abort, eager conflict
detection, local-quiescence commit, the global resolve backstop), the
observability surface (SpecEvents, stats counters), the off-path
(speculation disabled means plain posts and zero speculation machinery),
and — via Hypothesis — the central safety property: commit-time
validation never admits a stale read, and the final application state is
identical to a non-speculative reference no matter how speculation,
forced rollback and real writes interleave.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MRTS, MobileObject, handler
from repro.core.config import MRTSConfig
from repro.core.control import post_message
from repro.core.messages import Message
from repro.core.spec import SpeculationManager
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec


class Counter(MobileObject):
    """Accumulates bumps; the speculation target in every scenario."""

    def __init__(self, pointer):
        super().__init__(pointer)
        self.value = 0

    @handler
    def bump(self, ctx, k: int) -> None:
        self.value += k

    @handler
    def relay(self, ctx, target, k: int) -> None:
        # Executed speculatively, this post lands in the record's outbox
        # and must only reach ``target`` if the record commits.
        ctx.post(target, "bump", k)


class Driver(MobileObject):
    """Fans a scripted mix of real and speculative bumps out to peers."""

    def __init__(self, pointer):
        super().__init__(pointer)

    @handler
    def fan(self, ctx, targets, script) -> None:
        for idx, k, speculative in script:
            if speculative:
                ctx.post_speculative(targets[idx], "bump", k)
            else:
                ctx.post(targets[idx], "bump", k)


def make_runtime(n_nodes=2, cores=1, speculation=True, force_abort=False,
                 memory_bytes=1 << 20):
    rt = MRTS(
        ClusterSpec(
            n_nodes=n_nodes,
            node=NodeSpec(cores=cores, memory_bytes=memory_bytes),
        ),
        config=MRTSConfig(speculation=speculation),
    )
    if force_abort:
        rt.speculation.force_abort = True
    return rt


def post_speculative(rt, ptr, handler_name, *args):
    """Inject a pre-run speculative message (the ctx path, minus a ctx)."""
    msg = Message(ptr, handler_name, args, {}, source_node=-1)
    msg.speculative = True
    post_message(rt, msg, rt.directory.location(ptr.oid))


# ----------------------------------------------------------------- protocol
def test_resolve_local_commits_at_queue_drain():
    rt = make_runtime()
    a = rt.create_object(Counter, node=0)
    post_speculative(rt, a, "bump", 7)
    rt.run()
    assert rt.get_object(a).value == 7
    assert rt.stats.spec_issued == 1
    assert rt.stats.spec_committed == 1
    assert rt.stats.spec_aborted == 0


def test_commit_releases_buffered_outbox():
    rt = make_runtime()
    a = rt.create_object(Counter, node=0)
    b = rt.create_object(Counter, node=1)
    post_speculative(rt, a, "relay", b, 5)
    rt.run()
    # The relay ran speculatively; its post to b was buffered and must
    # have dispatched at commit.
    assert rt.get_object(b).value == 5
    assert rt.stats.spec_committed == 1


def test_eager_conflict_abort_then_rerun():
    rt = make_runtime()
    a = rt.create_object(Counter, node=0)
    # Both messages queue before the run starts, so the drain executes
    # the speculative bump first and hits the real bump while the record
    # pends: the conflict must abort eagerly and re-run the work.
    post_speculative(rt, a, "bump", 2)
    rt.post(a, "bump", 3)
    rt.run()
    assert rt.get_object(a).value == 5
    assert rt.stats.spec_aborted == 1
    assert rt.stats.spec_committed == 0


def test_forced_abort_restores_snapshot_and_reruns():
    rt = make_runtime(force_abort=True)
    a = rt.create_object(Counter, node=0)
    b = rt.create_object(Counter, node=1)
    post_speculative(rt, a, "relay", b, 4)
    post_speculative(rt, a, "bump", 1)
    rt.run()
    # Every speculation rolled back and re-ran for real: same final
    # state, zero commits, and the buffered relay post still happened
    # exactly once (on the re-run, not from the discarded outbox).
    assert rt.get_object(a).value == 1
    assert rt.get_object(b).value == 4
    assert rt.stats.spec_committed == 0
    assert rt.stats.spec_aborted >= 2


def test_global_resolve_backstop(monkeypatch):
    # With the local-quiescence commit disabled, records survive to the
    # quiescent cut and the global resolve must commit them there.
    monkeypatch.setattr(
        SpeculationManager, "resolve_local", lambda self, oid: None
    )
    rt = make_runtime()
    a = rt.create_object(Counter, node=0)
    b = rt.create_object(Counter, node=1)
    post_speculative(rt, a, "relay", b, 9)
    rt.run()
    assert rt.get_object(b).value == 9
    assert rt.stats.spec_committed == 1
    assert rt.speculation.pending == {}


# ------------------------------------------------------------ observability
def test_spec_events_published_on_commit_and_abort():
    rt = make_runtime()
    sub = rt.bus.subscribe()
    a = rt.create_object(Counter, node=0)
    post_speculative(rt, a, "bump", 1)
    rt.run()
    phases = [e.phase for e in sub.events if e.kind == "spec"]
    assert phases == ["issued", "committed"]

    rt2 = make_runtime(force_abort=True)
    sub2 = rt2.bus.subscribe()
    c = rt2.create_object(Counter, node=0)
    post_speculative(rt2, c, "bump", 1)
    rt2.run()
    phases2 = [e.phase for e in sub2.events if e.kind == "spec"]
    assert phases2 == ["issued", "aborted"]


# ---------------------------------------------------------------- off path
def test_speculation_off_is_plain_post():
    rt = make_runtime(speculation=False)
    targets = [rt.create_object(Counter, node=i % 2) for i in range(3)]
    d = rt.create_object(Driver, node=0)
    rt.post(d, "fan", targets, [(0, 1, True), (1, 2, False), (2, 3, True)])
    rt.run()
    assert rt.speculation is None
    assert [rt.get_object(p).value for p in targets] == [1, 2, 3]
    assert rt.stats.spec_issued == 0
    assert rt.stats.spec_committed == 0
    assert rt.stats.spec_aborted == 0
    sub_events = [e for e in rt.bus.subscribe().events if e.kind == "spec"]
    assert sub_events == []


# ----------------------------------------------------------------- property
SCRIPTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),   # target index
        st.integers(min_value=1, max_value=5),   # bump amount
        st.booleans(),                           # speculative?
    ),
    min_size=1,
    max_size=24,
)


def _run_script(script, speculation, force_abort=False):
    rt = make_runtime(speculation=speculation, force_abort=force_abort)
    targets = [rt.create_object(Counter, node=i % 2) for i in range(4)]
    d = rt.create_object(Driver, node=0)
    rt.post(d, "fan", targets, script)

    stale_admissions = []
    if rt.speculation is not None:
        original = SpeculationManager.commit

        def checked(self, record):
            # THE property: a committing record's version stamp matches
            # the directory at the instant of commit — validation never
            # admits a read that a later write invalidated.
            if record.version != self.runtime.directory.version(record.oid):
                stale_admissions.append(record.oid)
            return original(self, record)

        rt.speculation.commit = checked.__get__(rt.speculation)
    rt.run()
    assert stale_admissions == []
    return [rt.get_object(p).value for p in targets]


@settings(max_examples=40, deadline=None)
@given(script=SCRIPTS)
def test_commit_validation_never_admits_stale_reads(script):
    """Any real/speculative interleaving lands on the reference state.

    The reference is the same script with speculation off; the
    speculative runs additionally assert (inside a wrapped ``commit``)
    that every admitted record's version stamp was still current.
    """
    want = _run_script(script, speculation=False)
    assert _run_script(script, speculation=True) == want
    assert _run_script(script, speculation=True, force_abort=True) == want


# -------------------------------------------------------------- application
def test_updr_speculative_witness_matches_reference():
    from repro.evalsim.apps import run_updr_model

    cluster = ClusterSpec(
        n_nodes=2, node=NodeSpec(cores=2, memory_bytes=8 * 1024 * 1024)
    )

    def witness(config):
        result = run_updr_model(60_000, cluster, mrts=True, config=config)
        rt = result.runtime
        out = {}
        for oid in sorted(rt.pointers):
            obj = rt.get_object(rt.pointers[oid])
            if hasattr(obj, "region_id") and hasattr(obj, "round"):
                out[obj.region_id] = (obj.elements, obj.round)
        return out, result

    want, _ = witness(MRTSConfig(prefetch_depth=3))
    got, on = witness(MRTSConfig(
        prefetch_depth=3, speculation=True, work_stealing=True,
    ))
    assert got == want
    assert on.stats.spec_committed > 0


def test_spec_chaos_cell_passes():
    from repro.testing.chaos import SpecChaosSpec, run_spec_chaos_case

    report = run_spec_chaos_case(SpecChaosSpec(name="unit-forced-rollback"))
    assert report.ok, report.problems
    assert report.state_matches
