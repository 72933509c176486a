"""The concurrent multi-tenant soak: served state == solo state, exactly.

A quick smoke soak runs unconditionally; the full ISSUE-sized soak
(4 tenants x 16 jobs through real sockets) is marked ``slow`` but still
runs in the default suite.  Both use the exact oracle described in
:mod:`repro.testing.service`: every job's final-state digest must equal
a solo run of the identical spec, and every phase boundary of every job
must pass the runtime invariant checks.
"""

import pytest

from repro.serve.admission import AdmissionPolicy
from repro.testing.service import ServiceFixture, run_soak, soak_jobs


def test_soak_script_is_deterministic_and_covers_every_tenant():
    a = soak_jobs(4, 16, seed=7)
    b = soak_jobs(4, 16, seed=7)
    assert a == b
    assert {body["tenant"] for body in a} == {
        f"tenant-{i}" for i in range(4)}
    assert soak_jobs(4, 16, seed=8) != a


def test_smoke_soak_two_tenants():
    report = run_soak(n_tenants=2, n_jobs=6, seed=1, workers=2)
    assert report.ok, report.render()
    assert report.finished == 6
    assert all(v["digest_match"] for v in report.jobs)
    assert all(v["violations"] == 0 for v in report.jobs)


@pytest.mark.slow
def test_full_soak_four_tenants_sixteen_jobs():
    report = run_soak(n_tenants=4, n_jobs=16, seed=0, workers=4)
    assert report.ok, report.render()
    assert report.finished == 16
    assert report.jobs_per_sec > 0
    # Per-tenant coverage: every tenant saw its whole slice finish.
    per_tenant = {}
    for v in report.jobs:
        per_tenant[v["tenant"]] = per_tenant.get(v["tenant"], 0) + 1
    assert per_tenant == {f"tenant-{i}": 4 for i in range(4)}


@pytest.mark.slow
def test_soak_under_queueing_pressure_still_exact():
    """A soft limit of one envelope forces the queue path for nearly
    every job; admission order changes, final states must not."""
    policy = AdmissionPolicy(
        soft_residency_bytes=512 * 1024,
        hard_residency_bytes=1 << 20,
        tenant_quota_bytes=256 * (1 << 20),
    )
    report = run_soak(n_tenants=2, n_jobs=8, seed=3, workers=4,
                      policy=policy)
    assert report.ok, report.render()
    assert report.finished == 8


def test_service_metrics_scrape_after_work():
    with ServiceFixture() as svc:
        with svc.client() as client:
            job_id = client.submit(
                {"method": "pcdm", "geometry": "unit_square", "h": 0.2,
                 "tenant": "scrape", "memory_bytes": 256 * 1024})["job_id"]
            assert client.wait(job_id, timeout=60.0)["state"] == "finished"
            scrape = client.metrics()
            text = scrape["prometheus"]
            assert "# TYPE mrts_jobs_total counter" in text
            assert 'tenant="scrape"' in text
            # The fixture's bus has no subscriber: the job counters must
            # not depend on one, and no family may be scraped empty.
            lines = text.splitlines()
            finished = 'mrts_jobs_total{phase="finished",tenant="scrape"} 1'
            assert finished in lines
            families = {line.split()[2] for line in lines
                        if line.startswith("# TYPE ")}
            sampled = {line.split("{")[0].split()[0] for line in lines
                       if not line.startswith("#")}
            assert families == sampled
            pressure = scrape["pressure"]
            assert pressure["reserved_bytes"] == 0
            assert pressure["tenants"]["scrape"]["jobs_admitted"] == 1
