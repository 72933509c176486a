"""Host cost of out-of-core planning against input size (ungated; read
the numbers).

The paper's claim is sustained speed from 10^7 to 10^9 elements, which
needs run-time bookkeeping whose cost per message does not grow with the
number of mobile objects.  ``bench/run.py --sweep`` gives three points per
workload; this file gives the four-point curve for the two modeled runs,
with the counts that explain it, and writes ``planning-scaling.json``:

    python -m pytest benchmarks/test_planning_scaling.py -q -s

The configurations are the ``opcdm_model`` / ``oupdr_model`` ones of
``bench/workloads.py``, re-declared here (no seed jitter).  Memory stays at
8 MiB a node at every size, so more elements mean more mobile objects of
the same size.  Per size: handlers run, Python-level prefetch hints
examined per pick, eviction candidates pulled per victim, and untraced
host seconds (best of three, timed before anything is wrapped); per
model the least-squares exponent of seconds against size.
"""

import json
import math
import time

import pytest

from repro.core.config import MRTSConfig
from repro.core.ooc import OOCLayer
from repro.evalsim.apps import run_pcdm_model, run_updr_model
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec

SCALES = (0.5, 1.0, 2.0, 4.0)
OUT = "planning-scaling.json"


def _cluster():
    return ClusterSpec(
        n_nodes=2, node=NodeSpec(cores=2, memory_bytes=8 * 1024 * 1024))


def _pcdm(elements):
    return run_pcdm_model(elements, _cluster(), mrts=True)


def _updr(elements):
    config = MRTSConfig(prefetch_depth=3, speculation=True, work_stealing=True)
    return run_updr_model(elements, _cluster(), mrts=True, config=config)


MODELS = {"run_pcdm_model": (_pcdm, 2_000_000),
          "run_updr_model": (_updr, 600_000)}


def _counted(run, elements):
    """One run with the plans' inputs wrapped from outside: hints that
    reach Python code (in-flight ones are filtered in C), picks,
    candidates pulled from the eviction stream."""
    tally = {"hints": 0, "picks": 0, "candidates": 0}
    prefetch_candidates = OOCLayer.prefetch_candidates
    iter_eviction_candidates = OOCLayer.iter_eviction_candidates

    def counted_prefetch(self, upcoming, skip=(), limit=None):
        def hints():
            for oid in upcoming:
                tally["hints"] += oid not in skip
                yield oid

        picks = prefetch_candidates(self, hints(), skip, limit)
        tally["picks"] += len(picks)
        return picks

    def counted_stream(self, protect=()):
        for oid in iter_eviction_candidates(self, protect):
            tally["candidates"] += 1
            yield oid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OOCLayer, "prefetch_candidates", counted_prefetch)
        patch.setattr(OOCLayer, "iter_eviction_candidates", counted_stream)
        result = run(elements)
    victims = sum(nrt.ooc.evictions for nrt in result.runtime.nodes)
    return {
        "handlers": sum(n.handlers_run for n in result.stats.nodes),
        "hints_per_pick": tally["hints"] / max(tally["picks"], 1),
        "candidates_per_victim": tally["candidates"] / max(victims, 1),
    }


def _exponent(sizes, seconds):
    """Least-squares slope of log(seconds) on log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _curve(name):
    run, base = MODELS[name]
    rows = []
    for scale in SCALES:
        elements = int(base * scale)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            run(elements)
            best = min(best, time.perf_counter() - t0)
        rows.append({"scale": scale, "elements": elements,
                     "host_s": round(best, 4), **_counted(run, elements)})
    return {"sizes": rows, "exponent": round(_exponent(
        [r["elements"] for r in rows], [r["host_s"] for r in rows]), 3)}


def test_planning_scaling_curve():
    report = {name: _curve(name) for name in MODELS}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print()
    for name, curve in report.items():
        print(f"{name}: host seconds ~ elements^{curve['exponent']}")
        for row in curve["sizes"]:
            print("  x{scale:<4} {handlers:>7} handlers  {host_s:>7.3f} s  "
                  "{hints_per_pick:>6.2f} hints/pick  "
                  "{candidates_per_victim:>6.2f} candidates/victim"
                  .format(**row))
        # More work at every step up, or the sizes are not what they say.
        handlers = [row["handlers"] for row in curve["sizes"]]
        assert handlers == sorted(set(handlers))
