"""Host memory against the memory budget (ungated; read the numbers).

An out-of-core runtime exists to bound memory, so the host bytes a run
holds at its peak should be a small multiple of ``nodes x budget`` — the
objects in core, plus spill transients, plus the runtime itself — and
must not depend on how many evictions the run made.  The medium is not
in that number: the default spill store keeps its bytes in a temporary
file, so spilled bytes leave the heap.  ``bench/run.py``
reports ``peak_rss_mb`` per child process; this file gives the number
that is about the run alone, for the write-side and read-side data-plane
workloads at the sizes ``bench/workloads.py`` uses (re-declared here, no
seed jitter), and writes ``host-memory.json``:

    python -m pytest benchmarks/test_host_memory.py -q -s

Per workload: the ``tracemalloc`` peak from the first ``run()`` on (the
timed region of ``perf.run_*``; object creation is outside it) divided by
the budget, and, on their own, the live bytes the medium holds in its
file when the run ends.  Each workload runs once untraced first, so
one-time lazy imports and caches stay out of the peak.  The cyclic
collector stays on, as in the bench.  The patch stream's peak is gated
at 2.0x the budget: it measures 1.88x with incompressible spills stored
raw (2.02x with every spill deflated whole, 8.5x with an in-heap medium).
"""

import json
import tracemalloc

from repro import perf

MiB = 1024 * 1024
OUT = "host-memory.json"

WORKLOADS = {
    "run_mesh_patch_stream": dict(
        n_actors=48, initial_points=4096, rounds=4, append_per_round=1024,
        n_nodes=2, memory_bytes=1 * MiB),
    "run_mesh_neighborhood_sweep": dict(
        side=16, payload_bytes=64 * 1024, laps=20, memory_bytes=2 * MiB),
}


def _measure(name: str) -> dict:
    inputs = WORKLOADS[name]
    budget = inputs.get("n_nodes", 1) * inputs["memory_bytes"]

    def from_first_run(rt) -> None:
        run = rt.run

        def first_run(*args, **kwargs):
            del rt.run  # back to the class's method
            tracemalloc.reset_peak()
            return run(*args, **kwargs)

        rt.run = first_run

    workload = getattr(perf, name)
    workload(seed=0, **inputs)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        result = workload(seed=0, on_runtime=from_first_run, **inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rt = result.runtime
    medium = sum(nrt.storage.total_bytes() for nrt in rt.nodes)
    return {
        "budget_mb": budget / MiB,
        "peak_mb": round(peak / MiB, 2),
        "medium_mb": round(medium / MiB, 2),
        "peak_over_budget": round(peak / budget, 2),
        "evictions": sum(nrt.ooc.evictions for nrt in rt.nodes),
        "in_core_mb": round(
            sum(nrt.ooc.memory_used for nrt in rt.nodes) / MiB, 2),
    }


def test_host_memory_against_budget():
    report = {name: _measure(name) for name in WORKLOADS}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print()
    for name, row in report.items():
        print(f"{name}: peak {row['peak_mb']} MiB traced = "
              f"{row['peak_over_budget']} x the {row['budget_mb']:g} MiB "
              f"budget; the medium holds {row['medium_mb']} MiB off the "
              f"heap; {row['evictions']} evictions")
        # The run spilled, and the accountant ended inside its budget.
        assert row["evictions"] > 0
        assert row["in_core_mb"] <= row["budget_mb"]
    assert report["run_mesh_patch_stream"]["peak_over_budget"] <= 2.0
