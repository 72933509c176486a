"""The asynchronous job manager multiplexing mesh jobs onto the MRTS.

Each admitted job runs on its **own** MRTS instance (its own virtual
clock, nodes and OOC layer) driven by a :class:`~repro.serve.meshjob.
MeshJobRunner`; the manager multiplexes those runners onto a small pool
of worker threads.  That per-job isolation is what makes the soak
test's oracle exact: a job's mesh depends only on its
:class:`~repro.serve.meshjob.JobSpec`, never on what the other tenants
are doing or on thread scheduling — concurrency decides *when* a job
runs, the virtual schedule decides *what* it computes.

What crosses job boundaries is accounting, and it all flows through the
:class:`~repro.serve.admission.AdmissionController`:

* a submission is admitted / queued / rejected against the service's
  aggregate residency envelope (decide-and-reserve is atomic);
* at every phase boundary the job's actual residency is observed and
  its newly spilled bytes are charged to the owning tenant's quota;
* when a job finishes (or fails terminally) its reservation is
  released and queued jobs are promoted FIFO.

Every lifecycle edge is counted in ``mrts_jobs_total`` (a boundary or
finish also sets ``mrts_job_residency_bytes``) in the manager's own
registry, then published as a :class:`~repro.obs.events.JobEvent` on
the manager's bus (wall-clock seconds since the manager's epoch) when
something subscribes — the per-job lanes of the Perfetto export.  A job
killed mid-phase (crash, preemption, chaos) is retried from its last
boundary checkpoint — attempt 2 resumes, it does not restart.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.events import EventBus, JobEvent
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.meshjob import (
    JobCheckpoint,
    JobKilled,
    JobSpec,
    MeshJobRunner,
)

__all__ = ["Job", "JobManager", "JobKilled"]


class _Cancelled(Exception):
    """Internal: a cancel request observed at a phase boundary."""


@dataclass
class Job:
    """One submission's full lifecycle record."""

    job_id: str
    spec: JobSpec
    state: str = "submitted"   # queued|pending|running|finished|failed|
    #                            rejected|cancelled
    reason: str = ""
    attempts: int = 0
    boundaries: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    result: Optional[dict] = None
    checkpoint: Optional[JobCheckpoint] = None
    runner: Optional[MeshJobRunner] = None
    violations: list = field(default_factory=list)
    cancel_requested: bool = False
    _stored_charged: int = 0   # spilled bytes already charged (incarnation)

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "tenant": self.spec.tenant,
            "method": self.spec.method,
            "geometry": self.spec.geometry,
            "state": self.state,
            "reason": self.reason,
            "attempts": self.attempts,
            "boundaries": self.boundaries,
            "submitted_at": round(self.submitted_at, 6),
            "started_at": (round(self.started_at, 6)
                           if self.started_at is not None else None),
            "finished_at": (round(self.finished_at, 6)
                            if self.finished_at is not None else None),
            "latency_s": (round(self.latency_s, 6)
                          if self.latency_s is not None else None),
            "error": self.error,
            "invariant_violations": len(self.violations),
        }


class JobManager:
    """Worker pool + admission + checkpointing behind the server ops.

    ``keep_runtimes=True`` keeps each finished job's runner (and its
    whole MRTS) alive so tests can compare final states against solo
    references; the server runs with it off.  ``kill_hook(job,
    attempt)`` may return a phase number to kill that attempt at — the
    chaos harness injects crashes through it; production passes none.
    """

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        workers: int = 2,
        bus: Optional[EventBus] = None,
        keep_runtimes: bool = False,
        kill_hook: Optional[Callable[[Job, int], Optional[int]]] = None,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.admission = AdmissionController(policy)
        self.bus = bus or EventBus()
        self.registry = MetricsRegistry()
        self._jobs_total = self.registry.counter(
            "mrts_jobs_total", "service job lifecycle edges")
        self._residency_gauge = self.registry.gauge(
            "mrts_job_residency_bytes",
            "per-job residency at the last phase boundary")
        self._reserved_gauge = self.registry.gauge(
            "mrts_service_reserved_bytes",
            "aggregate admission reservations")
        self.keep_runtimes = keep_runtimes
        self.kill_hook = kill_hook
        self.max_attempts = max_attempts
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._admission_queue: list[str] = []    # FIFO of queued job ids
        self._ready: "queue.Queue[Optional[str]]" = queue.Queue()
        self._inflight = 0
        self._next_id = 0
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker, name=f"mrts-job-w{i}",
                             daemon=True)
            for i in range(workers)
        ]
        for t in self._workers:
            t.start()

    # -------------------------------------------------------------- time
    def now(self) -> float:
        """Wall seconds since the service epoch (JobEvent timestamps)."""
        return self._clock() - self._epoch

    def _emit(self, job: Job, phase: str, boundary: int = 0,
              residency: int = 0) -> None:
        tenant = job.spec.tenant
        with self._lock:
            self._jobs_total.inc(phase=phase, tenant=tenant)
            if phase in ("boundary", "finished"):
                self._residency_gauge.set(
                    residency, job=job.job_id, tenant=tenant)
        if self.bus.active:
            self.bus.publish(JobEvent(
                time=self.now(), node=-1, job_id=job.job_id,
                tenant=tenant, phase=phase, boundary=boundary,
                residency_bytes=residency,
            ))

    # ------------------------------------------------------------ submit
    def submit(self, spec: JobSpec) -> Job:
        """Admit, queue or reject one job; never blocks on the work."""
        with self._lock:
            if self._closed:
                raise RuntimeError("job manager is shut down")
            self._next_id += 1
            job = Job(job_id=f"j{self._next_id:04d}", spec=spec,
                      submitted_at=self.now())
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
        self._emit(job, "submitted")
        decision = self.admission.decide(
            job.job_id, spec.tenant, spec.estimated_bytes)
        job.reason = decision.reason
        if decision.verdict == "reject":
            job.state = "rejected"
            job.finished_at = self.now()
            self._emit(job, "rejected")
            return job
        if decision.verdict == "queue":
            with self._lock:
                job.state = "queued"
                self._admission_queue.append(job.job_id)
            self._emit(job, "queued")
            return job
        self._dispatch(job)
        return job

    def _dispatch(self, job: Job) -> None:
        with self._lock:
            job.state = "pending"
            self._inflight += 1
            self._reserved_gauge.set(self.admission.reserved_bytes)
        self._emit(job, "admitted")
        self._ready.put(job.job_id)

    # ------------------------------------------------------------ workers
    def _worker(self) -> None:
        while True:
            job_id = self._ready.get()
            if job_id is None:
                return
            job = self._jobs[job_id]
            try:
                self._run_job(job)
            finally:
                with self._lock:
                    self._inflight -= 1
                    self._idle.notify_all()
                self._promote()

    def _run_job(self, job: Job) -> None:
        while True:
            if job.cancel_requested:
                self._finish(job, "cancelled", reason="cancelled by client")
                return
            job.attempts += 1
            try:
                runner = self._attempt(job)
            except JobKilled as exc:
                self._emit(job, "killed", boundary=job.boundaries)
                if job.attempts >= self.max_attempts:
                    job.error = f"killed and out of attempts: {exc}"
                    self._finish(job, "failed")
                    return
                continue  # retry: resumes from job.checkpoint
            except _Cancelled:
                self._finish(job, "cancelled", reason="cancelled by client")
                return
            except Exception as exc:  # noqa: BLE001 - job must not kill worker
                job.error = "".join(traceback.format_exception_only(
                    type(exc), exc)).strip()
                self._finish(job, "failed")
                return
            job.result = runner.result_summary()
            job.violations.extend(runner.violations)
            job.runner = runner if self.keep_runtimes else None
            self._finish(job, "finished",
                         residency=runner.residency_bytes())
            if not self.keep_runtimes:
                job.checkpoint = None
            return

    def _attempt(self, job: Job) -> MeshJobRunner:
        """One incarnation: fresh start or checkpoint resume."""
        spec = job.spec
        if job.checkpoint is not None:
            runner = MeshJobRunner.resume(job.checkpoint)
            job._stored_charged = 0  # fresh runtime, fresh spill counter
            if job.started_at is None:
                job.started_at = self.now()
            job.state = "running"
            self._emit(job, "resumed", boundary=runner.phase,
                       residency=runner.residency_bytes())
        else:
            runner = MeshJobRunner(spec)
            job._stored_charged = 0
            job.started_at = self.now()
            job.state = "running"
            self._emit(job, "started")
            runner.start()
            self._at_boundary(job, runner)
        kill_phase = (self.kill_hook(job, job.attempts)
                      if self.kill_hook else None)
        while not runner.converged:
            if kill_phase is not None and runner.phase >= kill_phase:
                runner.begin_phase()
                runner.runtime.run(until=runner.runtime.engine.now + 0.01)
                raise JobKilled(
                    f"{job.job_id} killed mid-phase after boundary "
                    f"{runner.phase} (attempt {job.attempts})"
                )
            runner.step()
            self._at_boundary(job, runner)
        return runner

    def _at_boundary(self, job: Job, runner: MeshJobRunner) -> None:
        """Everything multi-tenant happens at the quiescent cut."""
        job.boundaries = runner.phase
        residency = runner.residency_bytes()
        self.admission.observe(job.job_id, residency)
        stored = runner.stored_bytes()
        delta = stored - job._stored_charged
        if delta > 0:
            job._stored_charged = stored
            within = self.admission.charge_stored(job.spec.tenant, delta)
            if not within:
                job.violations.append(
                    f"phase {runner.phase}: tenant {job.spec.tenant!r} "
                    "crossed its storage quota (job allowed to finish; "
                    "further admissions blocked)"
                )
        every = job.spec.checkpoint_every
        if every and runner.phase % every == 0 and not runner.converged:
            job.checkpoint = runner.snapshot()
        self._emit(job, "boundary", boundary=runner.phase,
                   residency=residency)
        if job.cancel_requested:
            raise _Cancelled()

    def _finish(self, job: Job, state: str, reason: str = "",
                residency: int = 0) -> None:
        released = self.admission.release(job.job_id)
        with self._lock:
            job.state = state
            if reason:
                job.reason = reason
            job.finished_at = self.now()
            self._reserved_gauge.set(self.admission.reserved_bytes)
        self._emit(job, state, boundary=job.boundaries,
                   residency=residency)
        del released

    def _promote(self) -> None:
        """FIFO-promote queued jobs while pressure allows."""
        while True:
            with self._lock:
                if not self._admission_queue:
                    return
                job = self._jobs[self._admission_queue[0]]
                if job.cancel_requested:
                    self._admission_queue.pop(0)
                    self.admission.drop_queued()
                    promoted = None
                elif self.admission.try_promote(
                        job.job_id, job.spec.tenant,
                        job.spec.estimated_bytes):
                    self._admission_queue.pop(0)
                    promoted = job
                else:
                    return
            if promoted is None:
                self._finish(job, "cancelled", reason="cancelled by client")
            else:
                self._dispatch(promoted)

    # ------------------------------------------------------------- client
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> list[dict]:
        with self._lock:
            return [self._jobs[jid].to_dict()
                    for jid in reversed(self._order)]

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; running jobs stop at their next boundary."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state in (
                    "finished", "failed", "rejected", "cancelled"):
                return False
            job.cancel_requested = True
            return True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is pending/running; False on timeout."""
        deadline = (self._clock() + timeout) if timeout is not None else None
        with self._idle:
            while self._inflight > 0 or not self._ready.empty():
                remaining = None
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)
        return True

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            self.drain(timeout=timeout)
        for _ in self._workers:
            self._ready.put(None)
        for t in self._workers:
            t.join(timeout=5.0)

    def stats(self) -> dict:
        """Service-level snapshot for the ``metrics``/``status`` ops."""
        with self._lock:
            states: dict[str, int] = {}
            latencies = []
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
                if job.state == "finished" and job.latency_s is not None:
                    latencies.append(job.latency_s)
            return {
                "jobs": len(self._jobs),
                "states": states,
                "finished_latencies_s": sorted(latencies),
                "admission": self.admission.pressure(),
                "uptime_s": round(self.now(), 6),
            }
