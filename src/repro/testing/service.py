"""Service-mode test harness: fixtures, job scripts, the concurrent soak.

The soak's oracle is exact, and it is worth spelling out why.  A mesh
job's final point set is a pure function of its
:class:`~repro.serve.meshjob.JobSpec`: every job runs on its own MRTS
with its own deterministic virtual schedule, so server concurrency,
thread interleaving and admission queueing decide *when* a job runs but
never *what* it computes.  The soak therefore compares each served
job's ``state_digest`` (sha256 over the canonical final-state witness)
against a solo run of the identical spec — equality means the
multi-tenant path changed nothing, byte for byte.  Invariant checks ride
along: every runner records :func:`~repro.testing.invariants.
check_runtime` violations at every phase boundary, and the soak requires
zero across all jobs.

Pieces:

* :class:`ServiceFixture` — an in-process :class:`~repro.serve.server.
  MeshServer` on an ephemeral port, context-managed, with a
  :meth:`client` factory; what the protocol/fuzz tests build on;
* :func:`soak_jobs` — the deterministic job script: a seeded mix of
  small UPDR/NUPDR/PCDM jobs across N tenants (same seed, same script);
* :func:`closed_loop` — submit a script from one thread per tenant
  through real sockets, wait for each job and fetch its result; the
  soak and ``perf``'s ``service_storm`` both drive the server with it;
* :func:`run_soak` — the soak script through :func:`closed_loop`,
  returning a :class:`SoakReport` with the per-job verdicts and
  throughput/latency numbers.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.serve.admission import AdmissionPolicy
from repro.serve.client import ServiceClient
from repro.serve.meshjob import JobSpec, MeshJobRunner
from repro.serve.server import MeshServer

__all__ = ["ServiceFixture", "SoakReport", "soak_jobs", "closed_loop",
           "percentile", "run_soak", "solo_digest"]


class ServiceFixture:
    """An in-process service on an ephemeral port.

    ``with ServiceFixture() as svc: svc.client().ping()`` — keyword
    arguments go to :class:`MeshServer` (and through it to the
    :class:`~repro.serve.jobs.JobManager`).
    """

    def __init__(self, **server_kwargs) -> None:
        self._kwargs = dict(server_kwargs)
        self.server: Optional[MeshServer] = None

    def __enter__(self) -> "ServiceFixture":
        self.server = MeshServer(**self._kwargs).start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    @property
    def manager(self):
        return self.server.manager

    def client(self, timeout: float = 30.0) -> ServiceClient:
        host, port = self.server.address
        return ServiceClient(host, port, timeout=timeout)


# Small-job templates the script draws from: each finishes in well under
# a second solo, and the UPDR cells at 48 KiB/node genuinely spill.
_TEMPLATES = (
    dict(method="updr", geometry="unit_square", h=0.18, nx=2, ny=2,
         memory_bytes=256 * 1024),
    dict(method="updr", geometry="circle", h=0.25, nx=2, ny=2,
         memory_bytes=64 * 1024),
    dict(method="nupdr", geometry="unit_square", h=0.22, granularity=4.0,
         memory_bytes=256 * 1024),
    dict(method="pcdm", geometry="unit_square", h=0.18, n_parts=2,
         memory_bytes=256 * 1024),
    dict(method="pcdm", geometry="circle", h=0.3, n_parts=2,
         memory_bytes=256 * 1024),
    dict(method="updr", geometry="unit_square", h=0.09, nx=3, ny=3,
         memory_bytes=48 * 1024),   # the spill-heavy cell
)


def soak_jobs(
    n_tenants: int, n_jobs: int, seed: int = 0, templates: tuple = _TEMPLATES
) -> list[dict]:
    """The deterministic job script: ``n_jobs`` specs across tenants.

    Tenants are assigned round-robin (every tenant gets work) and the
    draw from ``templates`` is seeded — the same arguments always yield
    the same script, so a failing soak replays bit-for-bit.
    """
    rng = random.Random(seed)
    jobs = []
    for i in range(n_jobs):
        body = dict(rng.choice(templates))
        body["tenant"] = f"tenant-{i % n_tenants}"
        body["seed"] = seed
        jobs.append(body)
    return jobs


_REFERENCE_CACHE: dict[tuple, str] = {}


def solo_digest(body: dict) -> str:
    """The solo-run reference digest for one job body (cached by spec)."""
    ref = dict(body, tenant="reference")
    key = tuple(sorted(ref.items()))
    if key not in _REFERENCE_CACHE:
        runner = MeshJobRunner(JobSpec(**ref))
        runner.run_to_completion()
        if runner.violations:
            raise AssertionError(
                f"solo reference violated invariants: {runner.violations}")
        _REFERENCE_CACHE[key] = runner.state_digest()
    return _REFERENCE_CACHE[key]


@dataclass
class SoakReport:
    """Verdict of one concurrent soak."""

    n_tenants: int
    n_jobs: int
    seed: int
    finished: int = 0
    queued_peak: int = 0
    jobs_per_sec: float = 0.0
    p50_latency_s: float = 0.0
    p99_latency_s: float = 0.0
    jobs: list = field(default_factory=list)     # per-job verdict dicts
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        status = "ok" if self.ok else f"FAIL ({len(self.problems)})"
        line = (
            f"soak {self.n_tenants}x{self.n_jobs} seed={self.seed} "
            f"{status}: {self.finished} finished, "
            f"{self.jobs_per_sec:.1f} jobs/s, "
            f"p99 {self.p99_latency_s * 1000:.0f} ms"
        )
        for problem in self.problems:
            line += f"\n    - {problem}"
        return line


def percentile(values: list, q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in [0, 1]); 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def closed_loop(
    svc: ServiceFixture, script: list[dict], timeout_s: float
) -> tuple[list[tuple], list[str]]:
    """Drive ``script`` through ``svc``, one client thread per tenant:
    submit that tenant's jobs in script order, wait for each, fetch each
    finished result.  Returns ``(records, failures)``: one ``(job_id,
    body, status, result-or-None)`` per job waited for, and one line per
    tenant whose client raised."""
    tenants = list(dict.fromkeys(body["tenant"] for body in script))
    records: list[tuple] = []
    failures: list[str] = []
    lock = threading.Lock()

    def tenant_thread(tenant: str) -> None:
        mine = [b for b in script if b["tenant"] == tenant]
        try:
            with svc.client(timeout=timeout_s) as client:
                submitted = [(client.submit(body)["job_id"], body)
                             for body in mine]
                for job_id, body in submitted:
                    status = client.wait(job_id, timeout=timeout_s)
                    result = (client.result(job_id)
                              if status["state"] == "finished" else None)
                    with lock:
                        records.append((job_id, body, status, result))
        except Exception as exc:  # noqa: BLE001 - surface, don't hang
            with lock:
                failures.append(f"{tenant}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=tenant_thread, args=(tenant,),
                                name=f"closed-loop-{tenant}")
               for tenant in tenants]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout_s)
    return records, failures


def run_soak(
    n_tenants: int = 4,
    n_jobs: int = 16,
    seed: int = 0,
    workers: int = 4,
    policy: Optional[AdmissionPolicy] = None,
    timeout_s: float = 240.0,
) -> SoakReport:
    """N tenants × M jobs through real sockets; exact per-job oracles.

    The script goes through :func:`closed_loop`; the policy defaults are
    sized so the script queues under pressure but rejects nothing (every
    job's verdict must be ``finished``).
    """
    script = soak_jobs(n_tenants, n_jobs, seed)
    policy = policy or AdmissionPolicy(
        soft_residency_bytes=4 * (1 << 20),
        hard_residency_bytes=8 * (1 << 20),
        tenant_quota_bytes=256 * (1 << 20),
    )
    report = SoakReport(n_tenants=n_tenants, n_jobs=n_jobs, seed=seed)

    with ServiceFixture(policy=policy, workers=workers) as svc:
        started = svc.manager.now()
        records, failures = closed_loop(svc, script, timeout_s)
        elapsed = max(svc.manager.now() - started, 1e-9)
        stats = svc.manager.stats()
    report.problems.extend(failures)

    for job_id, body, status, result in sorted(records, key=lambda r: r[0]):
        verdict = dict(
            job_id=job_id, tenant=body["tenant"], method=body["method"],
            state=status["state"], latency_s=status["latency_s"],
            violations=status["invariant_violations"], digest_match=None)
        if result is not None:
            try:
                verdict["digest_match"] = (
                    result["state_digest"] == solo_digest(body))
            except AssertionError as exc:  # the reference itself is broken
                report.problems.append(f"{job_id}: {exc}")
        report.jobs.append(verdict)
    report.finished = sum(
        1 for v in report.jobs if v["state"] == "finished")
    latencies = [v["latency_s"] for v in report.jobs
                 if v["latency_s"] is not None]
    report.jobs_per_sec = report.finished / elapsed
    report.p50_latency_s = percentile(latencies, 0.50)
    report.p99_latency_s = percentile(latencies, 0.99)
    report.queued_peak = stats["admission"]["queued_jobs"]

    if len(report.jobs) != n_jobs:
        report.problems.append(
            f"expected {n_jobs} job verdicts, saw {len(report.jobs)}")
    for v in report.jobs:
        if v["state"] != "finished":
            report.problems.append(
                f"{v['job_id']} ({v['tenant']}) ended {v['state']!r}")
        elif v["digest_match"] is not True:
            report.problems.append(
                f"{v['job_id']} ({v['tenant']}, {v['method']}) final state "
                "diverged from its solo reference")
        if v["violations"]:
            report.problems.append(
                f"{v['job_id']} recorded {v['violations']} invariant "
                "violations at phase boundaries")
    return report
