"""The computing layer: task-parallel execution of message handlers.

Paper §II.D/E: the computing layer gives a uniform interface over
multi-threading technologies.  The authors support two industrial backends
— Intel TBB (work-stealing task scheduler) and Apple GCD (central-queue
thread pool) — and Table VII compares them on the ONUPDR.

We implement the two *scheduling disciplines* faithfully as deterministic
policies plus a real-thread executor:

* :class:`WorkStealingExecutor` — per-worker deques; a worker pushes/pops
  its own tasks LIFO (depth-first, cache-friendly, TBB-style) and steals
  FIFO from victims when idle.  Stealing has a cost (models TBB overhead).
* :class:`CentralQueueExecutor` — one global FIFO feeding all workers
  (GCD-style); enqueue/dequeue contention is modeled as a small per-task
  cost that grows with worker count.
* :class:`SerialExecutor` — everything inline; baseline and T1 runs.
* :class:`ThreadPoolExecutorBackend` — actual ``concurrent.futures``
  threads for the threaded driver (real parallelism for I/O-bound work;
  CPython's GIL limits compute overlap, see DESIGN.md).
* :class:`ProcessPoolExecutorBackend` — actual ``concurrent.futures``
  processes: the third sibling, where tasks burn real cores with no GIL
  in the way.  This is the computing-layer face of the distributed
  backend (:mod:`repro.dist` scales the same idea up to a sharded object
  store with its own control plane).

The deterministic policies expose :meth:`schedule_trace`: given a DAG of
task durations they compute per-worker timelines, which is how the
simulated driver turns handler task trees into virtual time (and what the
Table VII benchmark measures).
"""

from __future__ import annotations

import concurrent.futures
import functools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

__all__ = [
    "Task",
    "ScheduleResult",
    "TaskScheduler",
    "WorkStealingExecutor",
    "CentralQueueExecutor",
    "SerialExecutor",
    "ThreadPoolExecutorBackend",
    "ProcessPoolExecutorBackend",
    "make_executor",
    "select_victim",
    "node_thief",
]


def select_victim(
    backlogs: Sequence[int], min_queue: int = 1
) -> Optional[int]:
    """Pick the steal victim: the most backlogged worker (or node).

    The classic work-stealing discipline steals from whoever has the most
    queued work; ties break toward the lowest index so the choice is
    deterministic.  Workers whose backlog is below ``min_queue`` are not
    eligible (stealing their last task just moves the idleness around).
    Returns ``None`` when nobody is worth robbing.  Shared between the
    deterministic :class:`WorkStealingExecutor` policy and the runtime's
    inter-node thief (PR 9), so both sides of the stack steal by the same
    rule and the unit test for one pins the other.
    """
    best = None
    best_len = 0
    for i, backlog in enumerate(backlogs):
        if backlog >= min_queue and backlog > best_len:
            best, best_len = i, backlog
    return best


# Inter-node work stealing (config.work_stealing): virtual seconds between
# a thief's looks, and the ready backlog a victim must hold before it can
# be robbed (leaves it enough work to stay busy).
STEAL_INTERVAL_S = 2e-4
STEAL_MIN_VICTIM_QUEUE = 2


def steal_victim(rt, nrt):
    """The peer an idle ``nrt`` should rob right now, else ``None``.

    The thief's poll predicate, so free of side effects: the node runs no
    handler and queues no message, and :func:`select_victim` names a peer.
    """
    if nrt.active_handlers > 0 or nrt.queued_msgs > 0:
        return None
    backlogs = [0 if n is nrt else len(n.ready) for n in rt.nodes]
    rank = select_victim(backlogs, STEAL_MIN_VICTIM_QUEUE)
    return None if rank is None else rt.nodes[rank]


def node_thief(rt, nrt):
    """Per-node stealing loop (DES process body, PR 9).

    When this node is completely idle, rob the most backlogged peer
    of one ready, resident, unpinned object — through the ordinary
    migration machinery, so directory updates and wire charges are
    exactly those of any other move.  The same :func:`select_victim`
    rule drives the intra-node executor policy; this is its inter-node
    twin.  Looking is an engine :class:`~repro.sim.engine.Poll`, which
    ticks in the event heap and resumes this coroutine only on a tick
    that finds a victim.
    """
    look = functools.partial(steal_victim, rt, nrt)
    while True:
        victim = yield rt.engine.poll(STEAL_INTERVAL_S, look)
        oid = pick_steal_candidate(rt, nrt, victim)
        if oid is None:
            continue
        rt.stats.node(nrt.rank).steals += 1
        # Hold a credit across the move: the steal itself must keep
        # the run alive even if the victim's queues drain meanwhile.
        rt.termination.add(1)
        yield from rt._migrate_and_done(oid, victim.rank, nrt.rank)


def pick_steal_candidate(rt, thief, victim) -> Optional[int]:
    """Choose what to steal: locality first, then backlog.

    Eligible objects are ready on the victim (queued messages, no
    handler running, in core, unpinned, not mid-load, no pending
    speculation).  Among those, prefer the one whose pack-file
    locality key sits closest to the thief's resident working set —
    stolen work should land next to the data it will touch — and
    break ties toward the longest queue (steal the most work per
    migration), then the lowest oid (determinism).
    """
    pf = thief.packfile
    thief_keys = []
    if pf is not None:
        thief_keys = [
            pf.locality_key(t_oid)
            for t_oid in thief.locals
            if thief.ooc.is_resident(t_oid)
        ]
    best = None
    best_score = None
    for oid in victim.ready.snapshot():
        rec = victim.locals.get(oid)
        if rec is None or not rec.queue or rec.in_flight > 0:
            continue
        if rec.obj is None or not victim.ooc.is_resident(oid):
            continue
        if victim.ooc.is_locked(oid) or oid in victim.loading:
            continue
        if rt.speculation is not None and rt.speculation.has_pending(oid):
            continue
        distance = 0
        if thief_keys and pf is not None:
            key = pf.locality_key(oid)
            distance = min(abs(key - tk) for tk in thief_keys)
        score = (distance, -len(rec.queue), oid)
        if best_score is None or score < best_score:
            best, best_score = oid, score
    return best


@dataclass
class Task:
    """A unit of work: duration plus child tasks spawned when it runs.

    Mirrors the paper's model: "each message handler ... is a task and can
    be further broken into child tasks and some of those tasks can be
    executed in parallel".
    """

    duration: float
    children: list["Task"] = field(default_factory=list)

    def total_work(self) -> float:
        return self.duration + sum(c.total_work() for c in self.children)

    def critical_path(self) -> float:
        if not self.children:
            return self.duration
        return self.duration + max(c.critical_path() for c in self.children)


@dataclass
class ScheduleResult:
    """Outcome of scheduling a task tree on P workers."""

    makespan: float
    busy: list[float]          # per-worker busy time
    steals: int = 0            # work-stealing only
    queue_ops: int = 0         # central-queue only

    @property
    def utilization(self) -> float:
        if self.makespan <= 0:
            return 1.0
        return sum(self.busy) / (self.makespan * len(self.busy))


class TaskScheduler:
    """Deterministic scheduling policy over a task tree."""

    name = "base"

    def __init__(self, workers: int, overhead: float = 0.0) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if overhead < 0:
            raise ValueError("overhead must be >= 0")
        self.workers = workers
        self.overhead = overhead

    def schedule(self, roots: Sequence[Task]) -> ScheduleResult:
        raise NotImplementedError


class SerialExecutor(TaskScheduler):
    """Run every task inline on one PE."""

    name = "serial"

    def __init__(self, workers: int = 1, overhead: float = 0.0) -> None:
        super().__init__(1, overhead)

    def schedule(self, roots: Sequence[Task]) -> ScheduleResult:
        total = 0.0
        stack = list(roots)
        count = 0
        while stack:
            task = stack.pop()
            total += task.duration
            count += 1
            stack.extend(task.children)
        total += self.overhead * count
        return ScheduleResult(makespan=total, busy=[total])


class WorkStealingExecutor(TaskScheduler):
    """TBB-style: per-worker LIFO deques with FIFO stealing.

    Event-driven simulation of the classic Blumofe–Leiserson discipline:
    a worker finishing a task spawns its children onto its own deque (LIFO
    pop), and an idle worker steals the *oldest* task from the most loaded
    victim, paying ``steal_cost``.
    """

    name = "workstealing"

    def __init__(
        self, workers: int, overhead: float = 2e-6, steal_cost: float = 1e-5
    ) -> None:
        super().__init__(workers, overhead)
        self.steal_cost = steal_cost

    def schedule(self, roots: Sequence[Task]) -> ScheduleResult:
        # Deques hold (ready_time, task): a child becomes ready when its
        # parent completes, and no worker may start it earlier.
        deques: list[deque[tuple[float, Task]]] = [
            deque() for _ in range(self.workers)
        ]
        # Seed round-robin: callers usually pass one root per handler.
        for i, task in enumerate(roots):
            deques[i % self.workers].append((0.0, task))
        clock = [0.0] * self.workers
        busy = [0.0] * self.workers
        steals = 0
        # Run until all deques drain.  Process the worker with the smallest
        # local clock (event order), which is deterministic.
        while any(deques):
            w = min(range(self.workers), key=lambda i: (clock[i], i))
            if deques[w]:
                ready, task = deques[w].pop()  # LIFO: own work, depth first
            else:
                # Steal FIFO from the victim with the most queued work.
                victim = select_victim([len(d) for d in deques])
                ready, task = deques[victim].popleft()
                clock[w] += self.steal_cost
                steals += 1
            start = max(clock[w], ready)
            cost = task.duration + self.overhead
            clock[w] = start + cost
            busy[w] += cost
            for child in task.children:
                deques[w].append((clock[w], child))
        return ScheduleResult(makespan=max(clock), busy=busy, steals=steals)


class CentralQueueExecutor(TaskScheduler):
    """GCD-style: a single global FIFO queue feeding all workers.

    Each dequeue pays a contention cost proportional to the worker count
    (a lock-protected queue serializes access), which is the behavioural
    difference from work stealing that Table VII exposes: slightly worse
    scaling for fine-grained tasks.
    """

    name = "centralqueue"

    def __init__(
        self, workers: int, overhead: float = 2e-6, contention: float = 1.5e-4
    ) -> None:
        super().__init__(workers, overhead)
        self.contention = contention

    def schedule(self, roots: Sequence[Task]) -> ScheduleResult:
        # FIFO of (ready_time, task); dequeue contention grows with the
        # worker count (a lock-protected global queue plus GCD-style block
        # dispatch cost per task).
        queue: deque[tuple[float, Task]] = deque((0.0, t) for t in roots)
        clock = [0.0] * self.workers
        busy = [0.0] * self.workers
        ops = 0
        while queue:
            w = min(range(self.workers), key=lambda i: (clock[i], i))
            ready, task = queue.popleft()
            ops += 1
            start = max(clock[w], ready)
            cost = (
                task.duration
                + self.overhead
                + self.contention * self.workers
            )
            clock[w] = start + cost
            busy[w] += cost
            queue.extend((clock[w], c) for c in task.children)
        return ScheduleResult(makespan=max(clock), busy=busy, queue_ops=ops)


class ThreadPoolExecutorBackend:
    """Real threads for the threaded driver.

    Submits callables; ``map_tasks`` fans a list of thunks out over the
    pool and waits.  Used where real I/O overlap matters (spill/load while
    other handlers run); compute-bound Python code will serialize on the
    GIL, which DESIGN.md documents as the key substitution driver.
    """

    name = "threads"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)

    def submit(self, fn: Callable, *args, **kwargs) -> concurrent.futures.Future:
        return self._pool.submit(fn, *args, **kwargs)

    def map_tasks(self, thunks: Sequence[Callable[[], object]]) -> list:
        futures = [self._pool.submit(t) for t in thunks]
        return [f.result() for f in futures]

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


class ProcessPoolExecutorBackend:
    """Real processes: compute-parallel execution without the GIL.

    Same surface as :class:`ThreadPoolExecutorBackend`, but tasks must be
    picklable top-level callables (the ``multiprocessing`` contract).
    Workers are forked lazily on first submit, so constructing the
    backend is cheap and a never-used pool costs nothing.
    """

    name = "processes"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _ensure(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self._pool

    def submit(self, fn: Callable, *args, **kwargs) -> concurrent.futures.Future:
        return self._ensure().submit(fn, *args, **kwargs)

    def map_tasks(self, thunks: Sequence[Callable[[], object]]) -> list:
        if not thunks:
            return []
        pool = self._ensure()
        futures = [pool.submit(t) for t in thunks]
        return [f.result() for f in futures]

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(
    name: str, workers: int, overhead: Optional[float] = None
) -> TaskScheduler:
    """Instantiate a deterministic scheduling policy by config name."""
    classes = {
        "serial": SerialExecutor,
        "workstealing": WorkStealingExecutor,
        "centralqueue": CentralQueueExecutor,
    }
    try:
        cls = classes[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; choose from {sorted(classes)}"
        ) from None
    if overhead is None:
        return cls(workers)
    return cls(workers, overhead=overhead)
