"""Virtual-schedule goldens for the runtime (recorded at PR 17's parent).

The virtual schedule is a pure function of the seed, the configuration
and the order in which the runtime makes its engine calls.  Each cell
below runs one seeded storm under :class:`FixedCostModel` (never the
measured cost model: virtual time must not depend on the host) and pins

    (stats.total_time, engine.events_processed, sum bytes_stored,
     sum bytes_loaded, sum messages_sent, sum handlers_run,
     directory forwards, final state digest)

as literals.  The first fifteen cells are the ``mrts-bench selftest``
matrix (every swap scheme x directory policy), three more give the swap
schemes room to disagree, and the rest cross the paths
no BENCHMARK.json workload reaches: message aggregation, a collect-mode
multicast, an explicit ``rt.migrate``, remote-memory spill media,
degraded mode, speculation + work stealing, and a corrupt-load repair
through ``recovery_source``.  A refactor of the runtime is correct when
none of these move; a PR that changes the schedule on purpose re-records
them (``python tests/test_runtime_schedule_golden.py``) and says why.
"""

import hashlib
import random

import pytest

from repro.core.checkpoint import checkpoint
from repro.core.config import MRTSConfig
from repro.core.remote_memory import attach_remote_memory
from repro.core.runtime import handler
from repro.testing.harness import RuntimeHarness
from repro.testing.invariants import check_runtime
from repro.testing.workloads import StormActor, WorkloadSpec, run_storm

SEED = 17
SPEC = WorkloadSpec(n_actors=10, payload_bytes=4096, initial_pulses=3,
                    hops=5, fanout=2, seed=SEED)


class PathActor(StormActor):
    """Storm actor whose cascade can travel by multicast or speculation."""

    def _fan(self, hops, fanout, token):
        self.hits += 1
        if self.hits % self.grow_every == 0:
            self.payload += bytes(self.grow_bytes)
        if hops <= 0 or fanout <= 0 or not self.peers:
            return []
        rng = random.Random(f"{self.seed}:{self.oid}:{token}")
        self.forwarded += fanout
        return [self.peers[rng.randrange(len(self.peers))]
                for _ in range(fanout)]

    @handler
    def mpulse(self, ctx, hops: int, fanout: int, token: str = "m") -> None:
        targets = self._fan(hops, fanout, token)
        distinct = list({p.oid: p for p in targets}.values())
        if distinct:
            # Collect-mode: gather the distinct targets on the first
            # one's node, deliver to that first one only.
            ctx.post_multicast(distinct, "mpulse", 1, hops - 1, fanout,
                               f"{token}.0")

    @handler
    def spulse(self, ctx, hops: int, fanout: int, token: str = "s") -> None:
        for i, target in enumerate(self._fan(hops, fanout, token)):
            ctx.post_speculative(target, "spulse", hops - 1, fanout,
                                 f"{token}.{i}")


def _harness(config=None, n_nodes=3, memory_bytes=20 * 1024):
    return RuntimeHarness(n_nodes=n_nodes, memory_bytes=memory_bytes,
                          config=config)


def _actors(rt, cls=PathActor, place=lambda i, n: i % n):
    n = len(rt.nodes)
    actors = [
        rt.create_object(cls, SPEC.payload_bytes, SPEC.seed, SPEC.grow_every,
                         SPEC.grow_bytes, node=place(i, n))
        for i in range(SPEC.n_actors)
    ]
    for ptr in actors:
        rt.post(ptr, "meet", actors)
    return actors


def _launch(rt, actors, handler_name, tag):
    rng = random.Random(SPEC.seed)
    for k in range(SPEC.initial_pulses):
        rt.post(actors[rng.randrange(len(actors))], handler_name,
                SPEC.hops, SPEC.fanout, f"{tag}{k}")


def _raw_backend(nrt):
    layer = nrt.storage
    while getattr(layer, "inner", None) is not None:
        layer = layer.inner
    return layer


def _measure(rt, actors):
    assert rt.termination.quiescent
    assert check_runtime(rt) == []
    stats = rt.stats
    state = [
        (i, o.hits, o.forwarded, len(o.payload))
        for i, o in enumerate(rt.get_object(p) for p in actors)
    ]
    return (
        stats.total_time,
        rt.engine.events_processed,
        sum(n.bytes_stored for n in stats.nodes),
        sum(n.bytes_loaded for n in stats.nodes),
        sum(n.messages_sent for n in stats.nodes),
        sum(n.handlers_run for n in stats.nodes),
        rt.directory.stats.forwards,
        hashlib.sha256(repr(state).encode()).hexdigest()[:16],
    )


# ------------------------------------------------------------------ cells
def _selftest_cell(scheme, policy, **kw):
    rt = _harness(MRTSConfig(swap_scheme=scheme,
                             directory_policy=policy), **kw).runtime
    return _measure(rt, run_storm(rt, SPEC))


def _plain(config=None, before=None, **kw):
    rt = _harness(config, **kw).runtime
    if before is not None:
        before(rt)
    actors = _actors(rt)
    _launch(rt, actors, "pulse", "p")
    rt.run()
    return rt, actors


def _aggregation():
    return _measure(*_plain(MRTSConfig(message_aggregation=4)))


def _multicast_collect():
    rt = _harness(memory_bytes=40 * 1024).runtime
    actors = _actors(rt)
    _launch(rt, actors, "mpulse", "m")
    rt.run()
    return _measure(rt, actors)


def _migrate():
    rt = _harness().runtime
    actors = _actors(rt)
    _launch(rt, actors, "pulse", "p")
    for i, ptr in enumerate(actors[:6]):
        rt.migrate(ptr, (rt.object_location(ptr) + 1 + i % 2) % 3)
    rt.run()
    return _measure(rt, actors)


def _remote_memory():
    return _measure(*_plain(
        before=lambda rt: attach_remote_memory(rt, 1 << 20)))


def _degraded():
    return _measure(*_plain(MRTSConfig(degraded=True)))


def _spec_stealing():
    rt = _harness(MRTSConfig(speculation=True, work_stealing=True)).runtime
    # Everything starts on node 0 so the two idle thieves have a victim.
    actors = _actors(rt, place=lambda i, n: 0)
    _launch(rt, actors, "spulse", "s")
    _launch(rt, actors, "pulse", "p")
    rt.run()
    assert rt.stats.spec_issued > 0 and rt.stats.steals > 0
    return _measure(rt, actors)


def _corrupt_repair():
    rt, actors = _plain()
    snap = checkpoint(rt)
    rt.stored_since_snapshot.clear()
    rt.recovery_source = snap.payload_for
    rank, oid = min(
        (nrt.rank, oid) for nrt in rt.nodes
        for oid, rec in nrt.locals.items() if rec.obj is None
    )
    mem = _raw_backend(rt.nodes[rank])
    frame = mem._data[oid]
    mem._data[oid] = frame[:-1] + bytes([frame[-1] ^ 0xFF])
    victim = next(p for p in actors if p.oid == oid)
    rt.post(victim, "pulse", SPEC.hops, SPEC.fanout, "r")
    rt.run()
    assert rt.stats.corrupt_loads == 1
    return _measure(rt, actors)


CELLS = {
    f"storm[{scheme}/{policy}]":
        (lambda s=scheme, p=policy: _selftest_cell(s, p))
    for scheme in MRTSConfig.VALID_SCHEMES
    for policy in MRTSConfig.VALID_DIRECTORY
}
# At 20 KiB a node holds so few actors that every scheme picks the same
# victims; at 2 x 32 KiB the schemes have a choice and their schedules part.
CELLS.update({
    f"roomy[{scheme}]": (lambda s=scheme: _selftest_cell(
        s, "lazy", n_nodes=2, memory_bytes=32 * 1024))
    for scheme in ("lru", "lfu", "mru")
})
CELLS.update({
    "aggregation=4": _aggregation,
    "multicast-collect": _multicast_collect,
    "migrate": _migrate,
    "remote-memory": _remote_memory,
    "degraded": _degraded,
    "speculation+stealing": _spec_stealing,
    "corrupt-repair": _corrupt_repair,
})

GOLDEN = {
    'storm[lru/lazy]': (0.07373956666666667, 1558, 134493, 134493, 147, 199, 0, 'e3ba8e52661a66f5'),
    'storm[lru/eager]': (0.07373956666666667, 1458, 134493, 134493, 127, 199, 0, 'e3ba8e52661a66f5'),
    'storm[lru/home]': (0.07373956666666667, 1458, 134493, 134493, 127, 199, 0, 'e3ba8e52661a66f5'),
    'storm[lfu/lazy]': (0.07373956666666667, 1558, 134493, 134493, 147, 199, 0, 'e3ba8e52661a66f5'),
    'storm[lfu/eager]': (0.07373956666666667, 1458, 134493, 134493, 127, 199, 0, 'e3ba8e52661a66f5'),
    'storm[lfu/home]': (0.07373956666666667, 1458, 134493, 134493, 127, 199, 0, 'e3ba8e52661a66f5'),
    'storm[mru/lazy]': (0.07373956666666667, 1558, 134493, 134493, 147, 199, 0, 'e3ba8e52661a66f5'),
    'storm[mru/eager]': (0.07373956666666667, 1458, 134493, 134493, 127, 199, 0, 'e3ba8e52661a66f5'),
    'storm[mru/home]': (0.07373956666666667, 1458, 134493, 134493, 127, 199, 0, 'e3ba8e52661a66f5'),
    'storm[mu/lazy]': (0.07373956666666667, 1558, 134493, 134493, 147, 199, 0, 'e3ba8e52661a66f5'),
    'storm[mu/eager]': (0.07373956666666667, 1458, 134493, 134493, 127, 199, 0, 'e3ba8e52661a66f5'),
    'storm[mu/home]': (0.07373956666666667, 1458, 134493, 134493, 127, 199, 0, 'e3ba8e52661a66f5'),
    'storm[lu/lazy]': (0.07373956666666667, 1558, 134493, 134493, 147, 199, 0, 'e3ba8e52661a66f5'),
    'storm[lu/eager]': (0.07373956666666667, 1458, 134493, 134493, 127, 199, 0, 'e3ba8e52661a66f5'),
    'storm[lu/home]': (0.07373956666666667, 1458, 134493, 134493, 127, 199, 0, 'e3ba8e52661a66f5'),
    'roomy[lru]': (0.09186203333333336, 1304, 111561, 111561, 104, 199, 0, 'e3ba8e52661a66f5'),
    'roomy[lfu]': (0.08676861666666669, 1300, 105444, 105444, 104, 199, 0, 'e3ba8e52661a66f5'),
    'roomy[mru]': (0.08177520000000002, 1290, 99839, 99839, 104, 199, 0, 'e3ba8e52661a66f5'),
    'aggregation=4': (0.07293956666666668, 1433, 134493, 134493, 122, 199, 0, 'e3ba8e52661a66f5'),
    'multicast-collect': (0.011202599999999853, 1856, 9162, 9162, 9, 28, 0, 'a06dd012110962ba'),
    'migrate': (0.07659096666666668, 2402, 131933, 131933, 172, 199, 4, 'e3ba8e52661a66f5'),
    'remote-memory': (0.0078000000000000074, 1517, 82512, 82512, 147, 199, 0, 'e3ba8e52661a66f5'),
    'degraded': (0.02026318333333333, 1373, 16815, 16815, 147, 199, 0, 'e3ba8e52661a66f5'),
    'speculation+stealing': (0.13221376666666662, 2350, 135484, 129879, 130, 210, 6, '8170e7cd267f399b'),
    'corrupt-repair': (0.12545862666666668, 2121, 231853, 231853, 196, 262, 0, 'a255e3edfd2970ac'),
}


@pytest.mark.parametrize("name", list(CELLS))
def test_schedule_is_the_recorded_one(name):
    assert CELLS[name]() == GOLDEN[name]


if __name__ == "__main__":  # re-record: prints the GOLDEN literal
    print("GOLDEN = {")
    for cell_name, cell in CELLS.items():
        print(f"    {cell_name!r}: {cell()!r},")
    print("}")
