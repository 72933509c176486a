"""Comparative and statistical tests for the batch scheduler policies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Job, SchedulerSim, synthetic_job_mix
from repro.sim.scheduler import median_wait_by_width


def test_median_wait_by_width_groups():
    jobs = [Job(k, 0.0, 1, 10.0) for k in range(3)]
    for k, j in enumerate(jobs):
        j.start = float(k)
    med = median_wait_by_width(jobs)
    assert med == {1: 1.0}


def test_backfill_helps_narrow_jobs():
    """EASY backfill must not hurt, and typically helps, narrow jobs."""
    def run(discipline):
        jobs = synthetic_job_mix(n_jobs=800, n_nodes=64, load=0.7, seed=3)
        SchedulerSim(64, discipline).run(jobs)
        return median_wait_by_width(jobs)

    fcfs = run("fcfs")
    easy = run("backfill")
    narrow_fcfs = np.mean([fcfs[w] for w in fcfs if w <= 4])
    narrow_easy = np.mean([easy[w] for w in easy if w <= 4])
    assert narrow_easy <= narrow_fcfs


def test_fig1_shape_is_robust_across_seeds():
    """The Figure 1 gradient is a property of the discipline, not a seed."""
    for seed in (1, 5, 9):
        jobs = synthetic_job_mix(n_jobs=1500, n_nodes=128, load=0.6, seed=seed)
        SchedulerSim(128, "backfill").run(jobs)
        waits = median_wait_by_width(jobs)
        widest = max(waits)
        assert waits[widest] > waits[1]
        assert waits[widest] > waits.get(32, 0.0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100))
def test_fcfs_starts_in_arrival_order_per_feasibility(seed):
    """FCFS invariant: a job never starts before an earlier-arrived job
    that requests no more nodes than it does."""
    jobs = synthetic_job_mix(n_jobs=60, n_nodes=32, load=0.8, seed=seed)
    SchedulerSim(32, "fcfs").run(jobs)
    ordered = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
    for earlier_idx in range(len(ordered)):
        for later_idx in range(earlier_idx + 1, len(ordered)):
            earlier, later = ordered[earlier_idx], ordered[later_idx]
            if later.nodes >= earlier.nodes:
                assert later.start >= earlier.start - 1e-9


def test_utilization_reasonable_at_moderate_load():
    jobs = synthetic_job_mix(n_jobs=1000, n_nodes=64, load=0.6, seed=2)
    SchedulerSim(64, "backfill").run(jobs)
    end = max(j.start + j.runtime for j in jobs)
    used = sum(j.nodes * j.runtime for j in jobs)
    utilization = used / (64 * end)
    assert 0.3 < utilization < 0.95
