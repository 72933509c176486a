"""Job specs, the mesh-job runner, and the async job manager.

The load-bearing facts proven here:

* a :class:`~repro.serve.meshjob.JobSpec` is the *entire* input — two
  runs of the same spec produce identical state digests, which is what
  entitles the soak and chaos tests to exact equality oracles;
* checkpoint/resume round-trips through bytes and lands on the same
  final state as an uninterrupted run, under genuine spill pressure;
* a job and the one-shot driver of its method run the *same scenario*:
  same witness, same virtual clock, same transfers to and from disk —
  and the digests equal goldens captured before the two were merged;
* the manager's admission path (reject / queue / FIFO-promote), the
  tenant storage-quota ledger, the lifecycle event stream and the
  Prometheus rendering all behave as the server ops assume.
"""

import pickle

import pytest

from repro.mesh3d.driver import run_mesh3d
from repro.obs.events import EventBus, JobEvent
from repro.obs.metrics import render_prometheus
from repro.pumg.driver import run_nupdr, run_pcdm, run_updr
from repro.serve.admission import AdmissionPolicy
from repro.serve.jobs import JobManager
from repro.serve.meshjob import (
    GEOMETRIES,
    JobSpec,
    JobSpecError,
    MeshJobRunner,
    run_job_solo,
)
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing.harness import FixedCostModel

SMALL = dict(method="updr", geometry="unit_square", h=0.2,
             memory_bytes=256 * 1024)
# Tight enough that the runtime genuinely spills between phases.
SPILLY = dict(method="updr", geometry="unit_square", h=0.09, nx=3, ny=3,
              memory_bytes=48 * 1024)


# -------------------------------------------------------------- JobSpec
def test_jobspec_from_request_round_trips():
    spec = JobSpec.from_request(dict(SMALL, tenant="acme", seed=3))
    assert spec.method == "updr"
    assert spec.tenant == "acme"
    assert JobSpec.from_request(spec.to_dict()) == spec


def test_jobspec_estimated_bytes_is_the_envelope():
    spec = JobSpec(method="pcdm", n_nodes=3, memory_bytes=1 << 20)
    assert spec.estimated_bytes == 3 * (1 << 20)


@pytest.mark.parametrize(
    "body",
    [
        dict(SMALL, method="voodoo"),              # unknown method
        dict(SMALL, geometry="klein_bottle"),      # unknown geometry
        dict(SMALL, h=50.0),                       # out of bounds
        dict(SMALL, nx="three"),                   # wrong type
        dict(SMALL, warp_factor=9),                # unknown field
        dict(SMALL, memory_bytes=1),               # below the floor
    ],
)
def test_jobspec_rejects_bad_requests(body):
    with pytest.raises(JobSpecError) as exc:
        JobSpec.from_request(body)
    assert exc.value.code == "bad_job"


# --------------------------------------------------------------- runner
@pytest.mark.parametrize("method", ["updr", "nupdr", "pcdm", "mesh3d"])
def test_runner_is_deterministic_per_spec(method):
    spec = JobSpec.from_request(dict(SMALL, method=method))
    a, b = run_job_solo(spec), run_job_solo(spec)
    assert a.violations == [] and b.violations == []
    assert a.state_digest() == b.state_digest()
    assert a.result_summary()["n_points"] > 0


def test_checkpoint_resume_matches_uninterrupted_run():
    spec = JobSpec.from_request(SPILLY)
    reference = run_job_solo(spec)
    assert reference.stored_bytes() > 0, "spec must actually spill"

    runner = MeshJobRunner(spec)
    runner.start()
    runner.step()
    assert not runner.converged
    ckpt = pickle.loads(pickle.dumps(runner.snapshot()))
    resumed = MeshJobRunner.resume(ckpt)
    resumed.run_to_completion()
    assert resumed.violations == []
    assert resumed.state_digest() == reference.state_digest()


# state_digest() of a solo run, captured at the commit *before* drivers
# and jobs were derived from one scenario per method (CPython 3.11), so
# the oracle does not depend on the code it guards.
GOLDEN = {
    "updr-starved": (
        dict(SPILLY),
        "a9fe217f124bd8c67ec47275f97d39e025582a6b29d5ed5e7ff7bf08719d1458"),
    "updr-ghost": (
        dict(method="updr", geometry="pipe", h=0.15, ghost_sync=True,
             memory_bytes=64 * 1024),
        "cad22d58314d9727dfe4296eb9172fa59c86985cc2380758f4fe6566e9c1f590"),
    "nupdr": (
        dict(method="nupdr", geometry="plate_with_holes", h=0.2,
             memory_bytes=256 * 1024),
        "4d4736d18a3c492b6dcdfefe590f32ef793c037867244da823702dd8ee9fde99"),
    "nupdr-ghost-starved": (
        dict(method="nupdr", geometry="unit_square", h=0.1, ghost_sync=True,
             memory_bytes=32 * 1024),
        "a47049630edac81080cb070f2ba7040b4433057ac2558625d90e817db3417c1d"),
    "pcdm": (
        dict(method="pcdm", geometry="unit_square", h=0.12, n_parts=3,
             memory_bytes=64 * 1024),
        "8bb3ddb72357df74e4f332a199e2249e171274d793459e11967e6b18c0313ac0"),
    "pcdm-ghost-starved": (
        dict(method="pcdm", geometry="unit_square", h=0.04, n_parts=6,
             ghost_sync=True, memory_bytes=64 * 1024),
        "64347200a9244a3894ae33d571ca388ed5e625b1a7e906b8a0b1e649eba36c0c"),
    "mesh3d-starved": (
        dict(method="mesh3d", h=0.1, nx=2, ny=2, nz=2,
             memory_bytes=192 * 1024),
        "e04c335744a971d21e2b7dec156279387510ee85b6d0d8540500837b2485f562"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest_solo_and_killed_then_resumed(case):
    body, golden = GOLDEN[case]
    spec = JobSpec.from_request(body)
    solo = run_job_solo(spec)
    assert solo.violations == []
    assert solo.state_digest() == golden

    # Kill the first incarnation mid-phase; the second starts from the
    # last boundary's checkpoint (through bytes) and lands on the golden.
    first = MeshJobRunner(spec)
    first.start()
    if spec.method != "pcdm":  # PCDM's only phase is the one to kill
        first.step()
    ckpt = pickle.dumps(first.snapshot())
    first.begin_phase()  # the next phase starts and is abandoned
    first.runtime.run(until=first.runtime.engine.now + 0.01)
    resumed = MeshJobRunner.resume(pickle.loads(ckpt))
    resumed.run_to_completion()
    assert resumed.violations == []
    assert resumed.state_digest() == golden


def _drive(spec, on_runtime):
    """The one-shot driver call that describes the same run as ``spec``."""
    common = dict(
        cluster=ClusterSpec(
            n_nodes=spec.n_nodes,
            node=NodeSpec(cores=spec.cores, memory_bytes=spec.memory_bytes),
        ),
        cost_model=FixedCostModel(1e-4),
        on_runtime=on_runtime,
    )
    if spec.method == "mesh3d":
        return run_mesh3d(("layered", spec.h, min(1.0, 4.0 * spec.h)),
                          spec.nx, spec.ny, spec.nz, **common)
    pslg = GEOMETRIES[spec.geometry]()
    if spec.method == "updr":
        return run_updr(pslg, spec.h, spec.nx, spec.ny, validate=False,
                        coarse_factor=spec.coarse_factor, **common)
    if spec.method == "nupdr":
        return run_nupdr(pslg, ("uniform", spec.h), spec.granularity,
                         validate=False, coarse_factor=spec.coarse_factor,
                         **common)
    return run_pcdm(pslg, spec.h, spec.n_parts, validate=False, **common)


def _disk_timeline(sub, until):
    """Every transfer to or from the medium up to the last quiescence.
    What a harness loads afterwards (the driver gathering its result, the
    job checking invariants and hashing) is its own business."""
    return [(e.time, e.node, e.nbytes, e.is_store)
            for e in sub.events if e.time < until]


@pytest.mark.parametrize(
    "body",
    [
        dict(SPILLY),
        dict(method="nupdr", geometry="unit_square", h=0.1,
             memory_bytes=32 * 1024),
        dict(method="pcdm", geometry="unit_square", h=0.04, n_parts=6,
             memory_bytes=64 * 1024),
        dict(method="mesh3d", h=0.1, nx=2, ny=2, nz=2,
             memory_bytes=192 * 1024),
    ],
    ids=lambda body: body["method"],
)
def test_driver_and_solo_job_run_the_same_scenario(body):
    spec = JobSpec.from_request(body)
    bus = EventBus()
    job_sub = bus.subscribe(kinds={"disk"})
    job = MeshJobRunner(spec, bus=bus).run_to_completion()

    subs = []
    result = _drive(
        spec, lambda rt: subs.append(rt.bus.subscribe(kinds={"disk"})))

    end = result.stats.total_time
    assert end == job.runtime.stats.total_time
    driven = _disk_timeline(subs[0], end)
    assert driven == _disk_timeline(job_sub, end)
    assert any(store for *_, store in driven), "spec must actually spill"
    assert result.scenario.witness(result.runtime) == job.final_state()


def test_snapshot_is_illegal_mid_phase():
    runner = MeshJobRunner(JobSpec.from_request(SMALL))
    runner.start()
    runner.begin_phase()
    with pytest.raises(JobSpecError):
        runner.snapshot()


def test_result_summary_shape():
    summary = run_job_solo(JobSpec.from_request(SMALL)).result_summary()
    for key in ("n_points", "phases", "converged", "virtual_makespan_s",
                "bytes_stored", "bytes_loaded", "state_digest",
                "invariant_violations"):
        assert key in summary
    assert summary["converged"] is True


# -------------------------------------------------------------- manager
def _tight_policy(**overrides):
    base = dict(
        soft_residency_bytes=512 * 1024,
        hard_residency_bytes=1 << 20,
        tenant_quota_bytes=64 * (1 << 20),
    )
    base.update(overrides)
    return AdmissionPolicy(**base)


def test_manager_runs_one_job_to_completion():
    mgr = JobManager(workers=1, keep_runtimes=True)
    try:
        job = mgr.submit(JobSpec.from_request(SMALL))
        assert mgr.drain(timeout=60.0)
        assert job.state == "finished"
        assert job.violations == []
        assert job.result["state_digest"] == (
            run_job_solo(job.spec).state_digest())
        assert mgr.admission.reserved_bytes == 0
    finally:
        mgr.shutdown(drain=False)


def test_manager_rejects_envelope_over_hard_limit():
    mgr = JobManager(policy=_tight_policy(), workers=1)
    try:
        big = JobSpec.from_request(
            dict(method="pcdm", n_nodes=4, memory_bytes=1 << 20))
        job = mgr.submit(big)
        assert job.state == "rejected"
        assert "hard" in job.reason
        assert mgr.admission.reserved_bytes == 0
    finally:
        mgr.shutdown(drain=False)


def test_manager_queues_under_pressure_then_promotes_fifo():
    # Each envelope is 512 KiB == soft: one runs, the rest queue.
    mgr = JobManager(policy=_tight_policy(), workers=2)
    try:
        spec = JobSpec.from_request(
            dict(SMALL, n_nodes=2, memory_bytes=256 * 1024))
        jobs = [mgr.submit(spec) for _ in range(3)]
        assert jobs[0].state in ("pending", "running", "finished")
        assert mgr.drain(timeout=120.0)
        assert [j.state for j in jobs] == ["finished"] * 3
        assert mgr.admission.pressure()["queued_jobs"] == 0
        assert mgr.admission.reserved_bytes == 0
    finally:
        mgr.shutdown(drain=False)


def test_tenant_quota_blocks_future_admissions_not_running_jobs():
    # Quota below what one spilly job stores: the job itself finishes
    # (with a recorded quota-crossing note), the *next* one is rejected.
    mgr = JobManager(
        policy=_tight_policy(tenant_quota_bytes=48 * 1024), workers=1)
    try:
        spec = JobSpec.from_request(dict(SPILLY, tenant="greedy"))
        first = mgr.submit(spec)
        assert mgr.drain(timeout=120.0)
        assert first.state == "finished"
        assert mgr.admission.tenant_stored_bytes("greedy") >= 48 * 1024
        second = mgr.submit(spec)
        assert second.state == "rejected"
        assert "quota" in second.reason
        # Other tenants are unaffected.
        third = mgr.submit(JobSpec.from_request(dict(SMALL, tenant="ok")))
        assert third.state != "rejected"
        assert mgr.drain(timeout=60.0)
    finally:
        mgr.shutdown(drain=False)


def test_cancel_queued_job_never_runs():
    mgr = JobManager(policy=_tight_policy(), workers=1)
    try:
        spec = JobSpec.from_request(
            dict(SPILLY, n_nodes=2, memory_bytes=256 * 1024))
        first = mgr.submit(spec)
        queued = mgr.submit(spec)
        if queued.state == "queued":  # racing the first job's finish
            assert mgr.cancel(queued.job_id)
        assert mgr.drain(timeout=120.0)
        assert first.state == "finished"
        assert queued.state in ("cancelled", "finished")
        if queued.state == "cancelled":
            assert queued.attempts == 0
        assert mgr.admission.reserved_bytes == 0
    finally:
        mgr.shutdown(drain=False)


def test_lifecycle_events_and_prometheus_rendering():
    bus = EventBus()
    seen = []
    bus.subscribe(kinds=("job",), callback=seen.append)
    mgr = JobManager(workers=1, bus=bus)
    try:
        job = mgr.submit(JobSpec.from_request(dict(SMALL, tenant="acme")))
        assert mgr.drain(timeout=60.0)
        phases = [ev.phase for ev in seen if ev.job_id == job.job_id]
        assert phases[0] == "submitted"
        assert phases[1] == "admitted"
        assert phases[2] == "started"
        assert phases[-1] == "finished"
        assert "boundary" in phases
        assert all(ev.tenant == "acme" for ev in seen)

        text = render_prometheus(mgr.registry)
        assert "# HELP mrts_jobs_total" in text
        assert "# TYPE mrts_jobs_total counter" in text
        assert 'phase="finished"' in text and 'tenant="acme"' in text
        assert "mrts_service_reserved_bytes 0" in text
    finally:
        mgr.shutdown(drain=False)
