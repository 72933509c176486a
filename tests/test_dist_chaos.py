"""The distributed chaos cells: crash and wire faults under invariants.

Each cell drives the same seeded storm twice — once on the fault-free
single-process reference, once on a :class:`~repro.dist.DistRuntime`
under injected faults — checks :func:`~repro.testing.invariants.check_dist`
at every phase boundary, and requires byte-equal final application state.
The worker-kill cell additionally proves the recovery *mechanism*: the
shard was re-homed (no full-world rewind) and survivors kept their state.
"""

import dataclasses

import pytest

from repro.testing.chaos import (
    DIST_CHAOS_MATRIX,
    DistChaosSpec,
    run_dist_chaos_case,
    run_dist_chaos_matrix,
)


@pytest.mark.parametrize("spec", DIST_CHAOS_MATRIX, ids=lambda s: s.name)
def test_dist_chaos_cell_converges(spec):
    report = run_dist_chaos_case(spec)
    assert report.ok, report.problems
    assert report.state_matches
    assert not report.violations


def test_worker_kill_cell_proves_rehoming():
    spec = next(s for s in DIST_CHAOS_MATRIX if s.expect_rehome)
    report = run_dist_chaos_case(spec)
    assert report.restarts == 1  # exactly one shard re-home, no rewind
    assert any("rehome" in e for e in report.events)


def test_wire_chaos_cell_actually_exercised_the_faults():
    spec = next(s for s in DIST_CHAOS_MATRIX if s.drop_rate > 0)
    report = run_dist_chaos_case(spec)
    assert report.retries > 0  # drops forced retransmissions
    assert report.restarts == 0  # nobody died


def test_chaos_cells_replay_deterministically():
    spec = next(s for s in DIST_CHAOS_MATRIX if s.drop_rate > 0)
    a, b = run_dist_chaos_case(spec), run_dist_chaos_case(spec)
    assert (a.ok, a.retries, a.restarts) == (b.ok, b.retries, b.restarts)


def test_combined_kill_and_wire_chaos_still_converges():
    """Stacked faults: a lossy wire *and* a mid-epoch crash."""
    spec = dataclasses.replace(
        DIST_CHAOS_MATRIX[0],
        name="dist-kill-plus-wire",
        drop_rate=0.1,
        dup_rate=0.1,
        chaos_seed=3,
    )
    report = run_dist_chaos_case(spec)
    assert report.ok, report.problems
    assert report.restarts == 1


def test_matrix_runner_covers_every_cell():
    reports = run_dist_chaos_matrix()
    names = {r.name for r in reports}
    assert names == {s.name for s in DIST_CHAOS_MATRIX}
    assert {"dist-worker-kill", "dist-wire-chaos", "dist-delta-kill"} <= names
    assert all(r.ok for r in reports), [
        (r.name, r.problems) for r in reports if not r.ok
    ]


def test_spec_validation():
    with pytest.raises(ValueError):
        DistChaosSpec(name="bad", workers=0)
