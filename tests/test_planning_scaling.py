"""Count gates on what the out-of-core plans look at (PR 16).

A stopwatch in tier-1 would be noise; what the plans *examine* is an
exact function of the input.  Counted from outside, the way
``bench/trace.py`` measures — the iterable handed to
``prefetch_candidates`` and the stream ``advise_swap`` pulls from are
wrapped, nothing in ``src/`` counts for us — on the modeled OPCDM run
(2 nodes x 2 cores x 8 MiB, default knobs) at two sizes.  The gates say
that a plan costs what it returns, and that the cost per call does not
grow with the number of mobile objects.
"""

from dataclasses import dataclass, field

import pytest

from repro.core.control import ReadyQueue
from repro.core.ooc import OOCLayer
from repro.evalsim.apps import run_pcdm_model
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec

MiB = 1024 * 1024
SLACK = 4  # duplicates, ids that left the node, hints too big to fit


@dataclass
class Counts:
    # prefetch_candidates: per call (hints past the in-flight filter,
    # how many of those were resident, picks)
    prefetch: list = field(default_factory=list)
    # advise_swap: per call (candidates pulled, victims, |pressure tier|)
    advise: list = field(default_factory=list)
    pops: int = 0
    restamps: int = 0

    def mean(self, calls, column=0):
        return sum(c[column] for c in calls) / max(len(calls), 1)


def _count(monkeypatch) -> Counts:
    counts = Counts()
    prefetch_candidates = OOCLayer.prefetch_candidates
    advise_swap = OOCLayer.advise_swap
    iter_eviction_candidates = OOCLayer.iter_eviction_candidates
    pop, restamp = ReadyQueue.pop, ReadyQueue._restamp
    pulled = [0]

    def counted_prefetch(self, upcoming, skip=(), limit=None):
        seen = [0, 0]

        def tally():
            for oid in upcoming:
                if oid not in skip:  # the rest never reaches Python code
                    seen[0] += 1
                    seen[1] += self.is_resident(oid)
                yield oid

        picks = prefetch_candidates(self, tally(), skip, limit)
        counts.prefetch.append((seen[0], seen[1], len(picks)))
        return picks

    def counted_stream(self, protect=()):
        for oid in iter_eviction_candidates(self, protect):
            pulled[0] += 1
            yield oid

    def counted_advise(self, protect=()):
        pulled[0] = 0
        victims = advise_swap(self, protect)
        counts.advise.append((pulled[0], len(victims), len(self._pressure)))
        return victims

    def counted_pop(self, *args, **kwargs):
        counts.pops += 1
        return pop(self, *args, **kwargs)

    def counted_restamp(self, *args, **kwargs):
        counts.restamps += 1
        return restamp(self, *args, **kwargs)

    monkeypatch.setattr(OOCLayer, "prefetch_candidates", counted_prefetch)
    monkeypatch.setattr(OOCLayer, "iter_eviction_candidates", counted_stream)
    monkeypatch.setattr(OOCLayer, "advise_swap", counted_advise)
    monkeypatch.setattr(ReadyQueue, "pop", counted_pop)
    monkeypatch.setattr(ReadyQueue, "_restamp", counted_restamp)
    return counts


def _run(elements: int) -> Counts:
    with pytest.MonkeyPatch.context() as patch:
        counts = _count(patch)
        cluster = ClusterSpec(
            n_nodes=2, node=NodeSpec(cores=2, memory_bytes=8 * MiB))
        result = run_pcdm_model(elements, cluster, mrts=True)
    assert sum(n.prefetch_issued for n in result.stats.nodes) > 0
    assert counts.prefetch and counts.advise and counts.pops
    return counts


@pytest.fixture(scope="module")
def runs():
    return {n: _run(n) for n in (500_000, 1_000_000)}


@pytest.mark.parametrize("elements", [500_000, 1_000_000])
def test_prefetch_picking_examines_what_it_picks(runs, elements):
    """Per-call means (135 hints a call before PR 16, doubling with size).

    Not a per-call bound: a hint can be too big for the room left while
    something smaller sits on disk, and the layer's floor only ever falls
    (objects that grew since keep it low) — 0.7 such hints a call at
    0.5 M elements, 2.9 at 1 M.
    """
    calls = runs[elements].prefetch
    examined, resident, picks = (
        runs[elements].mean(calls, column) for column in range(3))
    assert examined <= picks + resident + SLACK


@pytest.mark.parametrize("elements", [500_000, 1_000_000])
def test_advise_swap_pulls_what_it_returns(runs, elements):
    for pulled, victims, tier in runs[elements].advise:
        if not victims:
            assert pulled == 0
        else:
            assert pulled <= victims + tier + SLACK


@pytest.mark.parametrize("elements", [500_000, 1_000_000])
def test_ready_queue_restamps_per_pop(runs, elements):
    # 1.07 when written; ROADMAP item 3's tie-break half starts from here.
    counts = runs[elements]
    assert counts.restamps <= 2 * counts.pops


def test_cost_per_plan_does_not_grow_with_object_count(runs):
    small, large = runs[500_000], runs[1_000_000]
    for calls in ("prefetch", "advise"):
        base = small.mean(getattr(small, calls))
        assert large.mean(getattr(large, calls)) <= 1.25 * base
