"""Tests for the batch scheduler simulator (Figure 1 substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Job, SchedulerSim, synthetic_job_mix


def test_empty_cluster_starts_job_immediately():
    sched = SchedulerSim(n_nodes=16)
    jobs = [Job(0, arrival=5.0, nodes=8, runtime=100.0)]
    sched.run(jobs)
    assert jobs[0].start == 5.0
    assert jobs[0].wait == 0.0


def test_fcfs_waits_for_nodes():
    sched = SchedulerSim(n_nodes=4, discipline="fcfs")
    jobs = [
        Job(0, arrival=0.0, nodes=4, runtime=10.0),
        Job(1, arrival=1.0, nodes=4, runtime=10.0),
    ]
    sched.run(jobs)
    assert jobs[0].start == 0.0
    assert jobs[1].start == 10.0


def test_fcfs_blocks_small_job_behind_wide_head():
    """Under strict FCFS a 1-node job cannot jump a blocked 4-node job."""
    sched = SchedulerSim(n_nodes=4, discipline="fcfs")
    jobs = [
        Job(0, arrival=0.0, nodes=2, runtime=100.0),
        Job(1, arrival=1.0, nodes=4, runtime=10.0),   # blocked head
        Job(2, arrival=2.0, nodes=1, runtime=5.0),    # small, behind head
    ]
    sched.run(jobs)
    assert jobs[2].start >= jobs[1].start


def test_backfill_lets_small_job_jump():
    """EASY backfill starts the harmless small job immediately."""
    sched = SchedulerSim(n_nodes=4, discipline="backfill")
    jobs = [
        Job(0, arrival=0.0, nodes=2, runtime=100.0, walltime=100.0),
        Job(1, arrival=1.0, nodes=4, runtime=10.0, walltime=10.0),
        Job(2, arrival=2.0, nodes=1, runtime=5.0, walltime=5.0),
    ]
    sched.run(jobs)
    assert jobs[2].start == 2.0        # backfilled into the hole
    assert jobs[1].start == 100.0      # head job start unchanged


def test_backfill_never_delays_head_job():
    """A backfill candidate too long for the hole must wait."""
    sched = SchedulerSim(n_nodes=4, discipline="backfill")
    jobs = [
        Job(0, arrival=0.0, nodes=2, runtime=10.0, walltime=10.0),
        Job(1, arrival=1.0, nodes=4, runtime=10.0, walltime=10.0),
        # Needs 3 nodes (only 2 free) -> doesn't fit now at all.
        Job(2, arrival=2.0, nodes=3, runtime=50.0, walltime=50.0),
    ]
    sched.run(jobs)
    assert jobs[1].start == 10.0


def test_job_wider_than_cluster_rejected():
    sched = SchedulerSim(n_nodes=4)
    with pytest.raises(ValueError):
        sched.run([Job(0, arrival=0.0, nodes=8, runtime=1.0)])


def test_job_validation():
    with pytest.raises(ValueError):
        Job(0, arrival=0.0, nodes=0, runtime=1.0)
    with pytest.raises(ValueError):
        Job(0, arrival=0.0, nodes=1, runtime=0.0)


def test_walltime_defaults_to_runtime():
    job = Job(0, arrival=0.0, nodes=1, runtime=7.0)
    assert job.walltime == 7.0


def test_synthetic_mix_reproducible():
    a = synthetic_job_mix(n_jobs=50, seed=3)
    b = synthetic_job_mix(n_jobs=50, seed=3)
    assert [(j.nodes, j.runtime, j.arrival) for j in a] == [
        (j.nodes, j.runtime, j.arrival) for j in b
    ]


def test_synthetic_mix_respects_cluster_width():
    jobs = synthetic_job_mix(n_jobs=200, n_nodes=16, seed=1)
    assert max(j.nodes for j in jobs) <= 16


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_schedule_invariants(seed):
    """Property: no job starts before arrival; capacity never exceeded."""
    jobs = synthetic_job_mix(n_jobs=120, n_nodes=32, load=0.9, seed=seed)
    SchedulerSim(n_nodes=32, discipline="backfill").run(jobs)
    events = []
    for j in jobs:
        assert j.start >= j.arrival
        events.append((j.start, j.nodes))
        events.append((j.start + j.runtime, -j.nodes))
    in_use = 0
    # At identical times, process releases (negative deltas) before starts.
    for _, delta in sorted(events, key=lambda e: (e[0], 0 if e[1] < 0 else 1)):
        in_use += delta
        assert in_use <= 32


def test_wide_jobs_wait_longer_on_busy_cluster():
    """The Figure 1 phenomenon: mean wait grows with requested width."""
    jobs = synthetic_job_mix(n_jobs=1500, n_nodes=128, load=0.9, seed=7)
    SchedulerSim(n_nodes=128, discipline="backfill").run(jobs)
    by_width = {}
    for job in jobs:
        by_width.setdefault(job.nodes, []).append(job.wait)
    waits = {w: float(np.mean(v)) for w, v in by_width.items()}
    narrow = waits[1]
    wide = waits[max(waits)]
    assert wide > narrow
