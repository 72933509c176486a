"""Batch-queue scheduler simulation (paper Figure 1).

Figure 1 of the paper shows, for a small shared cluster, how long a job
waits in the batch queue as a function of how many nodes it requests:
requests for <16 nodes start within minutes, 32-node requests wait about
half an hour, and 100+-node requests wait hours.  That is a queueing
phenomenon of space-shared scheduling with a realistic job mix, so we
reproduce it with a scheduler simulator rather than a live cluster.

Two disciplines are provided:

* **FCFS** — jobs start strictly in arrival order as soon as enough nodes
  are free.
* **EASY backfill** — the de-facto standard (Lifka '95): the head job gets
  a reservation; later jobs may jump ahead if they fit in the holes without
  delaying the head job's reservation (this is what SciClone-era PBS/Maui
  setups ran, and it is what produces the "small jobs start almost
  immediately" behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal

__all__ = ["Job", "SchedulerSim", "synthetic_job_mix"]


@dataclass
class Job:
    """A batch job: arrival time, node request, and actual runtime (s)."""

    job_id: int
    arrival: float
    nodes: int
    runtime: float
    # walltime the user requested; backfill plans with this, not the
    # (unknown) actual runtime.  Users habitually over-request.
    walltime: float = 0.0
    start: float = field(default=-1.0, compare=False)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("job must request at least one node")
        if self.runtime <= 0:
            raise ValueError("job runtime must be positive")
        if self.walltime <= 0:
            self.walltime = self.runtime

    @property
    def wait(self) -> float:
        if self.start < 0:
            raise RuntimeError(f"job {self.job_id} never started")
        return self.start - self.arrival


class SchedulerSim:
    """Event-driven space-shared scheduler over ``n_nodes`` identical nodes.

    This is a self-contained simulation (it does not use the DES engine —
    batch scheduling needs only job start/end events, which a sorted sweep
    handles more directly and much faster for tens of thousands of jobs).
    """

    def __init__(
        self,
        n_nodes: int,
        discipline: Literal["fcfs", "backfill"] = "backfill",
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if discipline not in ("fcfs", "backfill"):
            raise ValueError(f"unknown discipline {discipline!r}")
        self.n_nodes = n_nodes
        self.discipline = discipline

    def run(self, jobs: Iterable[Job]) -> list[Job]:
        """Schedule all jobs; returns them with ``start`` filled in."""
        pending = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
        for job in pending:
            if job.nodes > self.n_nodes:
                raise ValueError(
                    f"job {job.job_id} requests {job.nodes} nodes; cluster has "
                    f"{self.n_nodes}"
                )
        queue: list[Job] = []
        running: list[tuple[float, int]] = []  # (end_time, nodes)
        now = 0.0
        i = 0
        n = len(pending)
        while i < n or queue or running:
            # Absorb arrivals due now, start whatever the discipline allows,
            # then jump to the next decision instant (arrival or completion).
            while i < n and pending[i].arrival <= now:
                queue.append(pending[i])
                i += 1
            self._start_jobs(queue, running, now)
            next_arrival = pending[i].arrival if i < n else float("inf")
            next_end = min((end for end, _ in running), default=float("inf"))
            upcoming = min(next_arrival, next_end)
            if upcoming == float("inf"):
                if queue:
                    raise RuntimeError(
                        "scheduler stuck: queued jobs but no future events"
                    )
                break
            now = upcoming
            running = [(end, nodes) for end, nodes in running if end > now]
        return pending

    def _start_jobs(
        self, queue: list[Job], running: list[tuple[float, int]], now: float
    ) -> None:
        free = self.n_nodes - sum(nodes for _, nodes in running)
        # FCFS phase: start from the head while it fits.
        while queue and queue[0].nodes <= free:
            job = queue.pop(0)
            job.start = now
            running.append((now + job.runtime, job.nodes))
            free -= job.nodes
        if self.discipline == "fcfs" or not queue:
            return
        # EASY backfill: compute the head job's reservation (shadow time),
        # then start any later job that fits now and ends before the shadow
        # time, or that uses fewer nodes than will remain even then.
        head = queue[0]
        ends = sorted(running, key=lambda r: r[0])
        avail = free
        shadow = now
        for end, nodes in ends:
            avail += nodes
            if avail >= head.nodes:
                shadow = end
                break
        extra = avail - head.nodes  # nodes spare even at the shadow time
        j = 1
        while j < len(queue):
            cand = queue[j]
            fits_now = cand.nodes <= free
            harmless = (now + cand.walltime <= shadow) or (cand.nodes <= extra)
            if fits_now and harmless:
                queue.pop(j)
                cand.start = now
                running.append((now + cand.runtime, cand.nodes))
                free -= cand.nodes
                if cand.nodes <= extra:
                    extra -= cand.nodes
            else:
                j += 1


def synthetic_job_mix(
    n_jobs: int = 2000,
    n_nodes: int = 128,
    load: float = 0.85,
    seed: int = 0,
) -> list[Job]:
    """Generate a workload resembling small-academic-cluster traces.

    Node requests follow the classic powers-of-two-biased distribution
    (most jobs are narrow; a heavy tail requests a large fraction of the
    machine).  Runtimes are log-uniform between 2 minutes and 12 hours.
    ``load`` sets mean utilization via the Poisson arrival rate.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    # Width distribution shaped like academic-cluster traces: mostly narrow
    # jobs, a thin tail of near-full-machine requests (full-machine jobs
    # are rare — each one forces a complete drain).
    widths_pool = np.array([1, 2, 4, 8, 16, 32, 64, 128])
    probs = np.array([0.30, 0.20, 0.15, 0.12, 0.10, 0.07, 0.04, 0.02])
    mask = widths_pool <= n_nodes
    widths_pool = widths_pool[mask]
    probs = probs[mask] / probs[mask].sum()
    widths = rng.choice(widths_pool, size=n_jobs, p=probs)
    runtimes = np.exp(rng.uniform(np.log(120.0), np.log(6 * 3600.0), size=n_jobs))
    # over-requested walltime: 1x–3x the true runtime
    walltimes = runtimes * rng.uniform(1.0, 3.0, size=n_jobs)
    mean_work = float(np.mean(widths * runtimes))  # node-seconds per job
    rate = load * n_nodes / mean_work  # jobs per second
    gaps = rng.exponential(1.0 / rate, size=n_jobs)
    arrivals = np.cumsum(gaps)
    return [
        Job(job_id=k, arrival=float(arrivals[k]), nodes=int(widths[k]),
            runtime=float(runtimes[k]), walltime=float(walltimes[k]))
        for k in range(n_jobs)
    ]


def median_wait_by_width(jobs: list[Job]) -> dict[int, float]:
    """Median (typical) queue wait (s) by requested node count.

    The paper's Figure 1 reports typical waits ("requests for less than 16
    nodes are scheduled within a couple of minutes"); the median captures
    that — means are dominated by rare full-machine drain episodes.
    """
    import numpy as np

    by_width: dict[int, list[float]] = {}
    for job in jobs:
        by_width.setdefault(job.nodes, []).append(job.wait)
    return {w: float(np.median(v)) for w, v in sorted(by_width.items())}
