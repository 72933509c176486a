"""The inter-node thief (``repro.core.computing.node_thief``).

Two kinds of test.  Differential: the thief sleeps on ``Engine.poll``; the
coroutine that re-armed a ``Timeout`` per tick (in the same late slot)
survives as ``oracles.coroutine_thief`` and must produce the same run,
look for look, in fewer engine events, on a grid that includes the cells
where an event lands exactly on a tick.
Direct: who gets robbed, when, and where the cadence restarts.
"""

import ast
import itertools
from pathlib import Path
from types import SimpleNamespace

import pytest

from oracles import coroutine_thief
import repro
from repro import perf
from repro.core import MobileObject, MRTS, computing, handler
from repro.core import runtime as runtime_mod
from repro.core.computing import (
    STEAL_INTERVAL_S,
    STEAL_MIN_VICTIM_QUEUE,
    steal_victim,
)
from repro.core.config import MRTSConfig
from repro.evalsim.apps import run_updr_model
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec

MIB = 1024 * 1024


def spy_on_looks(mp):
    """Log every ``pick_steal_candidate`` call as (time, thief, victim, oid)."""
    log = []
    pick = computing.pick_steal_candidate

    def spy(rt, thief, victim):
        oid = pick(rt, thief, victim)
        log.append((rt.engine.now, thief.rank, victim.rank, oid))
        return oid

    mp.setattr(computing, "pick_steal_candidate", spy)
    return log


# ------------------------------------------------------------- differential
# (nodes, cores, MiB per node, elements, speculation)
FULL_GRID = list(itertools.product(
    (2, 3, 4, 5), (1, 2), (3, 5, 8), (60_000, 120_001, 200_003), (True, False)
))
# The cells a tick-skipping design changed (ninety additions of the interval
# land on a modeled handler completion), and a spread of the others.
TIE_CELLS = list(itertools.product(
    (4, 5), (1,), (5, 8), (60_000,), (True, False)
))
TIER1_CELLS = TIE_CELLS + [
    (2, 1, 3, 60_000, False),
    (2, 2, 8, 120_001, True),
    (2, 2, 8, 200_003, True),
    (3, 1, 5, 60_000, False),
    (3, 1, 5, 120_001, True),
    (3, 2, 3, 200_003, False),
    (4, 2, 3, 120_001, True),
    (5, 2, 5, 200_003, False),
]


def observe(cell, oracle):
    nodes, cores, mib, elements, speculation = cell
    with pytest.MonkeyPatch.context() as mp:
        looks = spy_on_looks(mp)
        if oracle:
            mp.setattr(runtime_mod, "node_thief", coroutine_thief)
        result = run_updr_model(
            elements,
            ClusterSpec(
                n_nodes=nodes,
                node=NodeSpec(cores=cores, memory_bytes=mib * MIB),
            ),
            mrts=True,
            config=MRTSConfig(
                prefetch_depth=3, speculation=speculation, work_stealing=True
            ),
        )
    rt = result.runtime
    stats = rt.stats
    wakes = rt.engine.poll_wakes  # the patch took: no poll in the oracle
    assert wakes == 0 if oracle else wakes >= len(looks)
    return {
        "looks": looks,
        "total_time": stats.total_time,
        "bytes_stored": stats.bytes_to_disk,
        "bytes_loaded": sum(n.bytes_loaded for n in stats.nodes),
        "steals": [n.steals for n in stats.nodes],
        "barrier_idle_s": [n.barrier_idle_s for n in stats.nodes],
        "messages_sent": stats.messages_sent,
        "events_processed": rt.engine.events_processed,
    }


def assert_same_run(cell):
    want = observe(cell, oracle=True)
    got = observe(cell, oracle=False)
    # Parked thieves are no events: the only count that may differ falls.
    assert got.pop("events_processed") < want.pop("events_processed")
    assert got == want
    return got


@pytest.mark.parametrize("cell", TIER1_CELLS, ids=str)
def test_poll_thief_is_the_coroutine_thief(cell):
    run = assert_same_run(cell)
    if cell in TIE_CELLS:
        assert sum(run["steals"]) > 0  # equal, and not vacuously


@pytest.mark.slow
def test_poll_thief_is_the_coroutine_thief_on_the_rest_of_the_grid():
    rest = [cell for cell in FULL_GRID if cell not in TIER1_CELLS]
    assert len(FULL_GRID) == 144 and len(rest) == 128
    runs = [assert_same_run(cell) for cell in rest]
    stealing = [run for run in runs if sum(run["steals"])]
    assert len(stealing) > 100
    assert sum(sum(run["steals"]) for run in stealing) > 500


# -------------------------------------------------------------- the predicate
def fake_runtime(backlogs, thief=0, active=0, queued=0):
    nodes = [
        SimpleNamespace(rank=r, ready=[None] * b, active_handlers=0,
                        queued_msgs=0)
        for r, b in enumerate(backlogs)
    ]
    nodes[thief].active_handlers = active
    nodes[thief].queued_msgs = queued
    return SimpleNamespace(nodes=nodes), nodes[thief]


def test_idle_node_looks_at_the_most_backlogged_peer():
    rt, me = fake_runtime([0, 2, 5, 5])
    assert steal_victim(rt, me) is rt.nodes[2]


def test_no_victim_below_the_minimum_backlog():
    rt, me = fake_runtime([0, STEAL_MIN_VICTIM_QUEUE - 1])
    assert steal_victim(rt, me) is None
    rt, me = fake_runtime([0, STEAL_MIN_VICTIM_QUEUE])
    assert steal_victim(rt, me) is rt.nodes[1]


def test_a_thief_never_names_itself():
    rt, me = fake_runtime([9, 0, 0])
    assert steal_victim(rt, me) is None


def test_no_look_while_the_thiefs_node_has_work():
    rt, me = fake_runtime([0, 7], queued=1)
    assert steal_victim(rt, me) is None
    rt, me = fake_runtime([0, 7], active=1)
    assert steal_victim(rt, me) is None


# ----------------------------------------------------------------- live runs
class Worker(MobileObject):
    def __init__(self, pointer):
        super().__init__(pointer)
        self.done = 0

    @handler
    def work(self, ctx, cost):
        self.done += 1
        ctx.charge(cost)


def skewed(n_objects, messages_each=1, cost=0.01, n_nodes=2):
    """Every object on node 0, one core a node, stealing on."""
    rt = MRTS(
        ClusterSpec(
            n_nodes=n_nodes, node=NodeSpec(cores=1, memory_bytes=16 * MIB)
        ),
        config=MRTSConfig(work_stealing=True),
    )
    ptrs = [rt.create_object(Worker, node=0) for _ in range(n_objects)]
    for p in ptrs:
        for _ in range(messages_each):
            rt.post(p, "work", cost)
    return rt, ptrs


def test_skewed_placement_is_robbed(monkeypatch):
    looks = spy_on_looks(monkeypatch)
    rt, ptrs = skewed(n_objects=8, messages_each=3)
    stats = rt.run()
    assert stats.node(1).steals >= 1 and stats.node(0).steals == 0
    assert {rt.directory.location(p.oid) for p in ptrs} == {0, 1}
    assert sum(rt.get_object(p).done for p in ptrs) == 24
    assert all(thief == 1 and victim == 0 for _, thief, victim, _ in looks)


def test_last_ready_object_is_left_alone(monkeypatch):
    """Node 0 runs one object and holds one more ready: a backlog of one is
    below the minimum, so the idle peer never even looks."""
    looks = spy_on_looks(monkeypatch)
    rt, ptrs = skewed(n_objects=2, messages_each=4)
    stats = rt.run()
    assert looks == []
    assert sum(n.steals for n in stats.nodes) == 0
    assert {rt.directory.location(p.oid) for p in ptrs} == {0}
    # The thieves were there and parked.  Node 1's woke once, on its first
    # tick: node 0's start-up backlog of two was one by then.
    assert (rt.engine.poll_wakes, len(rt.engine.parked)) == (1, 2)


@pytest.mark.parametrize("phantom", [0, 1])
def test_node_with_a_queued_message_does_not_look(monkeypatch, phantom):
    """Same skew, but node 1 counts a queued message it never gets to (a
    phantom: a real one would be dispatched at once on an idle core)."""
    looks = spy_on_looks(monkeypatch)
    rt, _ = skewed(n_objects=6, messages_each=2, cost=0.001)
    rt.nodes[1].queued_msgs += phantom
    rt.run()
    assert bool(looks) == (not phantom)


def test_cadence_restarts_at_the_end_of_a_migration(monkeypatch):
    looks = spy_on_looks(monkeypatch)
    rt, _ = skewed(n_objects=10, messages_each=3, cost=0.00123)
    moves = rt.bus.subscribe(kinds={"migrate"})
    stats = rt.run()
    landed = [e.time for e in moves.events]
    assert stats.node(1).steals == len(landed) >= 2

    def on_grid(t, origin):
        tick = origin
        while tick < t:
            tick += STEAL_INTERVAL_S
        return tick == t

    # Every look after a steal sits a whole number of intervals after the
    # instant that steal's migration landed ...
    stole_at = [t for t, _, _, oid in looks if oid is not None]
    for t, _, _, _ in looks:
        done = [m for s, m in zip(stole_at, landed) if s < t]
        assert on_grid(t, done[-1] if done else 0.0)
    # ... which is a new origin, not the old grid continued.
    assert not all(on_grid(t, 0.0) for t, _, _, _ in looks)


# ---------------------------------------------------------- the poke contract
def test_every_ready_push_goes_through_push_ready():
    """A parked thief wakes only when poked.  Its victim appears when a
    ready queue grows, so a bare ``ready.push`` anywhere else would leave
    it asleep.  The grid cannot see that at every site: a migration
    landing or a worker's hand-back is nearly always followed by another
    poke before the next tick."""
    root = Path(repro.__file__).parent
    pushers = set()
    for path in root.rglob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "push"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "ready"
                ):
                    pushers.add((path.relative_to(root).as_posix(), fn.name))
    assert pushers == {("core/control.py", "push_ready")}


# ---------------------------------------------------------------- stuck runs
@pytest.mark.parametrize("stealing", [False, True])
def test_lost_termination_credit_raises_instead_of_hanging(stealing):
    rt = MRTS(
        ClusterSpec(n_nodes=2, node=NodeSpec(cores=1, memory_bytes=MIB)),
        config=MRTSConfig(work_stealing=stealing),
    )
    rt.post(rt.create_object(Worker, node=0), "work", 0.01)
    rt.termination.add(1)  # a credit nobody will ever retire
    with pytest.raises(RuntimeError, match="simulation deadlock"):
        rt.run()
    assert rt.engine.now < 0.02


# ------------------------------------------------------------- the count gate
def test_idle_thieves_cost_no_engine_events():
    """Host-independent stand-in for a stopwatch: on the OUPDR guard
    configuration the thieves sleep through the run.  A thief that ticks
    again costs 115 070 events here."""
    result = perf.run_oupdr_model_bench(seed=0)
    assert result.runtime.engine.events_processed <= 35_000
    assert result.metrics()["steals"] == 1
