"""``repro.perf`` workloads above scale 1: budgets follow the payloads."""

import pytest

from repro import perf


@pytest.mark.parametrize(
    "workload, scale",
    [
        (perf.run_mesh_patch_stream, 4),
        (perf.run_ghost_exchange_storm, 4),
        (perf.run_mesh3d_storm, 4),
        # Off the power-of-4 steps: the 3D cell count jumps between scale
        # 1 and 2, ahead of any budget that grew linearly.
        (perf.run_mesh3d_storm, 2),
    ],
)
def test_starved_workloads_build_above_scale_one(workload, scale):
    """Object sizes grow with ``scale``; a fixed budget used to end these
    in OutOfMemory ("need 98824 B but only 98304 B reachable").  They must
    run — and still be starved, or they stop measuring the spill path."""
    result = workload(seed=0, scale=scale)
    assert result.runtime.stats.bytes_to_disk > 0
