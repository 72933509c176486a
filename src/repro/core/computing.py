"""The computing layer: task-parallel execution of message handlers.

Paper §II.D/E: the computing layer gives a uniform interface over
multi-threading technologies.  The authors support two industrial backends
— Intel TBB (work-stealing task scheduler) and Apple GCD (central-queue
thread pool) — and Table VII compares them on the ONUPDR.

We implement the two *scheduling disciplines* faithfully as deterministic
policies:

* :class:`WorkStealingExecutor` — per-worker deques; a worker pushes/pops
  its own tasks LIFO (depth-first, cache-friendly, TBB-style) and steals
  FIFO from victims when idle.  Stealing has a cost (models TBB overhead).
* :class:`CentralQueueExecutor` — one global FIFO feeding all workers
  (GCD-style); enqueue/dequeue contention is modeled as a small per-task
  cost that grows with worker count.
* :class:`SerialExecutor` — everything inline; baseline and T1 runs.

The policies expose :meth:`TaskScheduler.schedule`: given a tree of task
durations they compute per-worker timelines, which is how
``ctx.run_tasks`` turns a handler's task tree into virtual time (on
:class:`WorkStealingExecutor`, the TBB-style policy) and what the
Table VII benchmark measures for all three.

The layer's other half is what runs a message handler on the
discrete-event substrate: :func:`handler` marks one, :class:`HandlerContext`
is what it sees of the runtime, :func:`worker` is one in-flight handler
slot of a node, :func:`execute_handler` / :func:`call_direct` run the body
and charge its compute, and :func:`node_thief` rebalances ready work
between nodes.  These take the runtime ``rt`` (and per-node state
``nrt``) explicitly and reach down through :mod:`repro.core.control` and
:mod:`repro.core.spill`, never up into :mod:`repro.core.runtime`.
"""

from __future__ import annotations

import functools
import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.control import (
    dispatch_outbox,
    migrate_and_done,
    note_maybe_idle,
)
from repro.core.messages import Message, MulticastMessage
from repro.core.mobile import MobileObject, MobilePointer
from repro.core.spill import (
    account_growth,
    evict_all,
    issue_prefetch,
    load_blocking,
)
from repro.util.errors import MRTSError

__all__ = [
    "handler",
    "HandlerContext",
    "worker",
    "execute_handler",
    "call_direct",
    "Task",
    "ScheduleResult",
    "TaskScheduler",
    "WorkStealingExecutor",
    "CentralQueueExecutor",
    "SerialExecutor",
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
        rt.ledger.count(nrt.rank, "steals")
        # Hold a credit across the move: the steal itself must keep
        # the run alive even if the victim's queues drain meanwhile.
        rt.termination.add(1)
        yield from migrate_and_done(rt, oid, victim.rank, nrt.rank)


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


def handler(fn: Optional[Callable] = None, *, readonly: bool = False) -> Callable:
    """Decorator marking a :class:`MobileObject` method as a message handler.

    ``@handler(readonly=True)`` declares that the handler never mutates the
    object's serialized state.  The runtime then skips the conservative
    post-handler dirty marking (and re-sizing), so a spill of an object that
    only served read-only handlers since its last load needs no write-back —
    the storage copy is still current.  A readonly handler that *does*
    mutate state must call ``self.mark_dirty()`` itself or its changes can
    be lost on eviction.
    """

    def mark(f: Callable) -> Callable:
        f._mrts_handler = True
        f._mrts_readonly = readonly
        return f

    return mark(fn) if fn is not None else mark


def resolve_handler(obj: MobileObject, name: str) -> Callable:
    """The bound ``@handler`` method ``name`` of ``obj``, or an error."""
    fn = getattr(obj, name, None)
    if fn is None or not getattr(fn, "_mrts_handler", False):
        raise MRTSError(f"{type(obj).__name__} has no handler {name!r}")
    return fn


def after_write(
    rt, nrt, oid: int, obj: MobileObject, ctx: "HandlerContext",
    speculative: bool = False,
) -> None:
    """A non-readonly handler ran on ``obj``: it is dirty and may have
    changed size; a committed (non-speculative) write also bumps the
    version stamp, which proves any pending speculation elsewhere that
    read this object's state stale at commit validation."""
    obj.mark_dirty()
    account_growth(rt, nrt, oid, ctx.take_size_hint())
    if rt.speculation is not None and not speculative:
        rt.directory.bump_version(oid)


class HandlerContext:
    """What a message handler sees as its window into the runtime.

    Exposes the paper's API surface: posting messages (including multicast
    and self-messages), creating mobile objects, locking/priorities for the
    out-of-core layer, direct handler calls (the §III shared-memory
    optimization), explicit compute charging for modeled applications, and
    task-tree execution through the computing layer.
    """

    def __init__(self, runtime, node: int) -> None:
        self.runtime = runtime
        self.node = node
        self.outbox: list[Message | MulticastMessage] = []
        self.extra_charge = 0.0
        self._size_hint: Optional[tuple] = None  # ("abs"|"delta", nbytes)
        # True while a speculative handler runs (PR 9): its outbox is
        # buffered on the speculation record, direct calls and peeks are
        # refused (they would leak unvalidated effects across objects).
        self.speculative = False

    # -- messaging --------------------------------------------------------
    def post(
        self, target: MobilePointer, handler_name: str, *args: Any, **kwargs: Any
    ) -> None:
        """Send a one-sided message; delivered after this handler finishes."""
        self.outbox.append(
            Message(target, handler_name, args, kwargs, source_node=self.node)
        )

    def post_speculative(
        self, target: MobilePointer, handler_name: str, *args: Any, **kwargs: Any
    ) -> None:
        """Post a message that may execute past the current phase boundary.

        With ``config.speculation`` on, the message carries the
        speculative flag: the ready queue serves it only on
        otherwise-idle slots, its execution is provisional, and its
        effects buffer until commit-time validation against the
        directory's version stamps (docs/speculative_tasking.md).  With
        speculation off this degrades to a plain :meth:`post` — same
        delivery, no marker — so applications call it unconditionally.
        """
        msg = Message(target, handler_name, args, kwargs, source_node=self.node)
        if self.runtime.speculation is not None:
            msg.speculative = True
        self.outbox.append(msg)

    def post_multicast(
        self,
        targets: Sequence[MobilePointer],
        handler_name: str,
        deliver_count: int = 1,
        *args: Any,
        mode: str = "collect",
        **kwargs: Any,
    ) -> None:
        """Send the experimental multicast mobile message (§III Findings).

        ``mode="fanout"`` switches to the ghost-exchange push semantics:
        all targets receive the handler, grouped into one aggregated wire
        send per destination node carrying the payload once.
        """
        self.outbox.append(
            MulticastMessage(
                list(targets), handler_name, deliver_count, args, kwargs,
                source_node=self.node, mode=mode,
            )
        )

    def call_direct(
        self, target: MobilePointer, handler_name: str, *args: Any, **kwargs: Any
    ) -> bool:
        """§III optimization: run the handler inline if target is here, in-core.

        Returns True on success; False means the caller should fall back to
        :meth:`post`.  The inline handler's compute cost accrues to the
        current handler.
        """
        return call_direct(
            self.runtime, self, target, handler_name, args, kwargs)

    # -- object management --------------------------------------------------
    def create(
        self, cls: type, *args: Any, node: Optional[int] = None, **kwargs: Any
    ) -> MobilePointer:
        """Create a new mobile object (on this node unless ``node`` given)."""
        return self.runtime.create_object(
            cls, *args, node=node if node is not None else self.node, **kwargs
        )

    def destroy(self, target: MobilePointer) -> None:
        self.runtime.destroy_object(target)

    def _home(self, target: MobilePointer):
        """Per-node state of wherever ``target`` lives right now."""
        rt = self.runtime
        return rt.nodes[rt.directory.location(target.oid)]

    def lock(self, target: MobilePointer) -> None:
        """Pin an object in core on its current node."""
        self._home(target).ooc.lock(target.oid)

    def unlock(self, target: MobilePointer) -> None:
        self._home(target).ooc.unlock(target.oid)

    def set_priority(self, target: MobilePointer, priority: float) -> None:
        """Out-of-core priority hint: higher stays in core longer."""
        target.priority = priority
        self._home(target).ooc.set_priority(target.oid, priority)

    def boost_schedule(self, target: MobilePointer, amount: float = 1.0) -> None:
        """Raise the target's position in its node's ready queue (§III)."""
        self._home(target).ready.boost(target.oid, amount)

    def is_resident(self, target: MobilePointer) -> bool:
        """Is the object on this node and in core right now?"""
        rt = self.runtime
        return (
            rt.directory.truth.get(target.oid) == self.node
            and rt.nodes[self.node].ooc.is_resident(target.oid)
        )

    def peek(self, target: MobilePointer) -> Optional[MobileObject]:
        """Read access to a co-resident, in-core object; None otherwise.

        The shared-memory fast path of §III: after a multicast collected a
        leaf's buffer on one node, the leaf handler reads buffer data
        directly instead of round-tripping messages.
        """
        if self.speculative:
            # Commit validation only covers the handler's own target:
            # a cross-object read here would be unvalidated input.
            # Callers already handle None by falling back to messages,
            # which buffer until the speculation commits.
            return None
        if not self.is_resident(target):
            return None
        nrt = self.runtime.nodes[self.node]
        rec = nrt.locals.get(target.oid)
        if rec is None or rec.obj is None:
            return None
        nrt.ooc.touch(target.oid)
        return rec.obj

    # -- size accounting -----------------------------------------------------
    def grew(self, nbytes: int) -> None:
        """Report that this handler grew the object's state by ``nbytes``.

        Pack-free accounting: the runtime applies the reported growth to
        the out-of-core budget instead of re-serializing the object to
        measure it.  Multiple calls accumulate; the hint is consumed by
        the post-handler growth accounting of the handler's own object.
        """
        if nbytes < 0:
            raise ValueError("negative growth; use report_size instead")
        if self._size_hint is None:
            self._size_hint = ("delta", nbytes)
        else:
            kind, n = self._size_hint
            self._size_hint = (kind, n + nbytes)

    def report_size(self, nbytes: int) -> None:
        """Report the object's absolute serialized size after this handler."""
        if nbytes < 0:
            raise ValueError("object size cannot be negative")
        self._size_hint = ("abs", nbytes)

    def take_size_hint(self) -> Optional[tuple]:
        """Consume the pending growth report (runtime use)."""
        hint, self._size_hint = self._size_hint, None
        return hint

    # -- compute ------------------------------------------------------------
    def charge(self, seconds: float) -> None:
        """Add explicit compute cost (modeled applications)."""
        if seconds < 0:
            raise ValueError("negative compute charge")
        self.extra_charge += seconds

    def run_tasks(self, roots: Sequence[Task]) -> float:
        """Run a task tree through the computing layer; returns makespan.

        The makespan (under the work-stealing policy, using all the
        node's cores) is charged as this handler's parallel-region time.
        """
        cores = self.runtime.spec.node.cores
        result = WorkStealingExecutor(cores).schedule(roots)
        self.extra_charge += result.makespan
        return result.makespan

    @property
    def now(self) -> float:
        return self.runtime.engine.now


def worker(rt, nrt):
    """One in-flight handler slot on a node (DES process body).

    After loading an object the worker *drains* its message queue while
    it stays resident — the paper's control layer explicitly decides
    "whether to continue to process the message queue of the current
    object or switch", and staying is what amortizes each out-of-core
    load over all pending messages.  Messages of one object serialize
    (the paper parallelizes across objects and within handlers, never
    two handlers on one object).
    """
    speculation = rt.speculation
    spec_only = nrt.spec_only if speculation is not None else None
    while True:
        yield nrt.tokens.get()
        try:
            oid = nrt.ready.pop(
                nrt.queue_len, resident=nrt.ooc.is_resident,
                spec_only=spec_only,
            )
        except IndexError:
            continue
        rec = nrt.locals.get(oid)
        if rec is None or not rec.queue or rec.in_flight > 0:
            continue
        # Issue opportunistic prefetches: ready-queue hints, learned
        # successors of the object we are about to process, and its
        # pack-file curve neighbors (never the target itself).
        issue_prefetch(rt, nrt, current=oid)
        if oid in nrt.prefetched:
            # A background warm covered this pop — the object is
            # either already in core or its transfer is in flight (the
            # demand path below then waits on the load gate instead of
            # paying its own read).
            nrt.prefetched.discard(oid)
            rt.ledger.prefetch(nrt.rank, oid, "hit")
        # Bring the target in core (charges disk time, holds no core).
        if rec.obj is None:
            yield from load_blocking(rt, nrt, oid)
        while True:
            if nrt.locals.get(oid) is not rec or not rec.queue:
                break
            if rec.obj is None:
                # Evicted between messages: hand the rest back to the
                # scheduler rather than thrash.
                nrt.ready.push(oid)
                break
            msg = rec.queue.pop()
            nrt.queued_msgs -= 1
            nrt.ooc.set_queue_length(oid, len(rec.queue))
            yield from execute_handler(rt, nrt, oid, rec, msg)
            if speculation is not None and not rec.queue:
                # Local quiescent point: the drain consumed every
                # message delivered to this object, so a surviving
                # record validates now.  Committing here (before the
                # message's termination credit retires) may refill
                # the queue and keeps the wavefront flowing without
                # a global synchronization.
                speculation.resolve_local(oid)
            rt.termination.done(1)
            note_maybe_idle(rt, nrt)


def execute_handler(rt, nrt, oid: int, rec, msg):
    """Run one message handler: compute via cores, then dispatch output."""
    engine = rt.engine
    node = rt.cluster[nrt.rank]
    speculation = rt.speculation
    t0 = engine.now
    charged = 0.0
    nrt.ooc.touch(oid)
    spec = speculation is not None and getattr(msg, "speculative", False)
    if speculation is not None and not spec:
        # Eager conflict detection: a non-speculative access (even a
        # readonly one — it must not see unvalidated state) proves any
        # pending speculation on this object read stale input.  Abort
        # first so this handler executes against the restored state.
        speculation.abort_if_pending(oid)
    obj = rec.obj
    ctx = HandlerContext(rt, nrt.rank)
    fn = resolve_handler(obj, msg.handler)
    record = None
    if spec:
        ctx.speculative = True
        record = speculation.begin(nrt, oid, rec, msg)
    rec.in_flight += 1
    nrt.active_handlers += 1
    # Pin the object while its handler runs: a mid-handler eviction
    # (reachable through direct-call chains that trigger spills)
    # would snapshot partial state and lose later mutations.
    nrt.ooc.lock(oid)
    yield node.cores.acquire()
    try:
        wall0 = _time.perf_counter()
        fn(ctx, *msg.args, **msg.kwargs)
        measured = _time.perf_counter() - wall0
        modeled = rt.cost_model.handler_cost(obj, msg.handler, msg)
        cost = (modeled if modeled is not None else measured)
        cost += ctx.extra_charge
        cost = node.compute_time(cost)
        if cost > 0:
            start = engine.now
            yield engine.timeout(cost)
            charged = engine.now - start
    finally:
        node.cores.release()
        rec.in_flight -= 1
        nrt.active_handlers -= 1
        if oid in nrt.ooc.table:
            nrt.ooc.unlock(oid)
    # Object size may have changed during the handler (skip if the
    # object migrated away while we were charging compute time).
    # Readonly handlers promised not to mutate serialized state, so the
    # object stays clean and keeps its size — that is what lets the
    # eviction path skip the write-back for read-mostly objects.
    # A speculative record aborted mid-charge (a direct call from
    # another handler) already rolled the object back: its growth and
    # dirty state are the restore's business, not this execution's.
    orphaned = record is not None and (
        speculation.pending.get(oid) is not record
    )
    if (
        nrt.locals.get(oid) is rec
        and rec.obj is not None
        and not getattr(fn, "_mrts_readonly", False)
        and not orphaned
    ):
        after_write(rt, nrt, oid, rec.obj, ctx, speculative=spec)
    # Dispatch messages the handler produced.  A speculative
    # execution's output buffers on its record until commit; an
    # orphaned record's output is dropped — the abort already
    # re-posted the message, so the work re-runs and regenerates it.
    if record is not None:
        if not orphaned:
            record.outbox.extend(ctx.outbox)
    else:
        dispatch_outbox(rt, ctx.outbox, nrt.rank)
    # Soft-threshold advice: spill idle objects in the background.
    if oid in nrt.ooc.table:
        evict_all(rt, nrt, nrt.ooc.advise_swap(protect={oid}))
    rt.ledger.handler(
        nrt.rank, oid, msg.handler, t0, charged,
        len(rec.queue) if nrt.locals.get(oid) is rec else 0,
    )


def call_direct(
    rt,
    ctx: HandlerContext,
    target: MobilePointer,
    handler_name: str,
    args: tuple,
    kwargs: dict,
) -> bool:
    """Run ``target``'s handler inline for the handler that owns ``ctx``.

    Only when the target is on the caller's node and in core; returns
    False otherwise (the caller falls back to a message).
    """
    node = ctx.node
    oid = target.oid
    if ctx.speculative:
        # A speculative handler may not reach other objects directly:
        # those effects would bypass commit validation.  Refusing
        # falls back to a message, which buffers until commit.
        return False
    if rt.directory.truth.get(oid) != node:
        return False
    nrt = rt.nodes[node]
    if not nrt.ooc.is_resident(oid):
        return False
    rec = nrt.locals[oid]
    if rt.speculation is not None:
        # Eager conflict detection, same as the worker path: this
        # direct access must see validated (pre-speculation) state.
        rt.speculation.abort_if_pending(oid)
    obj = rec.obj
    if obj is None:
        return False
    fn = resolve_handler(obj, handler_name)
    nrt.ooc.touch(oid)
    nrt.ooc.lock(oid)  # pin across the inline handler
    try:
        wall0 = _time.perf_counter()
        fn(ctx, *args, **kwargs)
        measured = _time.perf_counter() - wall0
    finally:
        nrt.ooc.unlock(oid)
    probe = Message(target, handler_name, args, kwargs, source_node=node)
    modeled = rt.cost_model.handler_cost(obj, handler_name, probe)
    ctx.extra_charge += modeled if modeled is not None else measured
    if not getattr(fn, "_mrts_readonly", False):
        after_write(rt, nrt, oid, obj, ctx)
    return True


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
