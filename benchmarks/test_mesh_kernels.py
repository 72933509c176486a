"""Per-operation cost of the patch mesher (ungated; read the numbers).

``bench/run.py`` reports what ``patch_refine`` and the triangulation cost
a whole UPDR run.  This file times them alone on a fixed patch set — the
arguments of every ``patch_refine`` call of one in-core UPDR run of the
unit square (h = 0.05, 4 x 4 blocks, the ``updr_mesh_incore`` input) — so
a kernel change has a number per operation without a suite run:

* ``rebuild`` — ``build_patch``, what every refinement round and every
  reload pays first: a fresh ``Triangulation`` per patch, its points
  inserted one by one and its boundary segments forced; reported as µs
  per inserted point;
* ``refine`` — the whole ``patch_refine`` call (rebuild, then the
  bad-triangle search and its insertions); reported as µs per call.

    python -m pytest benchmarks/test_mesh_kernels.py \
        --benchmark-json mesh-kernels.json
"""

import pytest

from repro.geometry import unit_square
from repro.pumg import objects, patch_refine, run_updr
from repro.pumg.patch import build_patch
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing.harness import FixedCostModel

MiB = 1024 * 1024


@pytest.fixture(scope="module")
def patches():
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return patch_refine(*args, **kwargs)

    # A modeled handler cost: with measured ones the schedule, and with it
    # the patch set, would follow the host clock.
    cluster = ClusterSpec(
        n_nodes=2, node=NodeSpec(cores=1, memory_bytes=64 * MiB))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(objects, "patch_refine", record)
        run_updr(unit_square(), h=0.05, nx=4, ny=4, cluster=cluster,
                 cost_model=FixedCostModel(1e-4), validate=False)
    assert len(calls) > 20
    return calls


def _report(benchmark, unit: str, per: int) -> None:
    us = benchmark.stats.stats.median / per * 1e6
    benchmark.extra_info.update({unit: round(us, 2), "per": per})
    print(f"\n{benchmark.name}: {us:.2f} {unit} ({per} per round)")


def test_patch_rebuild_per_insert(benchmark, patches):
    rows = [(list(args[0]), args[1]) for args, _ in patches]
    inserts = sum(len(points) for points, _ in rows)
    tris = benchmark(lambda: [build_patch(p, s) for p, s in rows])
    assert all(t.check_delaunay() == [] for t in tris[:3])
    _report(benchmark, "us_per_insert", inserts)


def test_patch_refine_per_call(benchmark, patches):
    results = benchmark(
        lambda: [patch_refine(*args, **kwargs) for args, kwargs in patches])
    assert sum(len(r.new_points) for r in results) > 0
    _report(benchmark, "us_per_call", len(patches))
