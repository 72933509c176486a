"""Seeded synthetic workloads for stress-testing the runtime.

Real PUMG runs exercise the runtime with whatever access pattern the mesh
dictates; these generators produce *adjustable* patterns — skewed object
popularity, deep message cascades, mid-handler growth — so tests can aim
pressure at one mechanism at a time (eviction churn, directory chasing,
resize overruns) and still be bit-for-bit reproducible from a seed.

Nothing here uses global randomness: every choice derives from the seed
carried in the :class:`WorkloadSpec` (or inside each actor), so two runs
of the same spec on the same runtime configuration are identical — which
is itself one of the properties the test suite asserts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.codec import get_codec
from repro.core.mobile import MobileObject
from repro.core.runtime import handler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mobile import MobilePointer
    from repro.core.runtime import MRTS

__all__ = ["WorkloadSpec", "StormActor", "DeltaStormActor", "access_trace",
           "object_sizes", "run_storm", "storm_actors", "storm_phases",
           "storm_state"]


def object_sizes(
    n: int, seed: int = 0, min_bytes: int = 512, max_bytes: int = 8192
) -> list[int]:
    """``n`` seeded object sizes, log-uniform between the bounds."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 < min_bytes <= max_bytes:
        raise ValueError("need 0 < min_bytes <= max_bytes")
    rng = random.Random(seed)
    lo, hi = float(min_bytes), float(max_bytes)
    return [int(lo * (hi / lo) ** rng.random()) for _ in range(n)]


def access_trace(
    n_objects: int,
    n_ops: int,
    seed: int = 0,
    hot_fraction: float = 0.2,
    hot_weight: float = 0.8,
) -> list[int]:
    """Seeded object-id access sequence with a popularity hotspot.

    ``hot_fraction`` of the ids receive ``hot_weight`` of the accesses —
    the 80/20 shape out-of-core caching lives on.  With ``hot_weight``
    equal to ``hot_fraction`` the trace is uniform.
    """
    if n_objects < 1:
        raise ValueError("n_objects must be >= 1")
    if not 0.0 < hot_fraction <= 1.0 or not 0.0 <= hot_weight <= 1.0:
        raise ValueError("hot_fraction in (0,1], hot_weight in [0,1]")
    rng = random.Random(seed)
    n_hot = max(1, int(n_objects * hot_fraction))
    trace: list[int] = []
    for _ in range(n_ops):
        if rng.random() < hot_weight:
            trace.append(rng.randrange(n_hot))
        else:
            trace.append(rng.randrange(n_objects))
    return trace


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a message-storm workload (see :func:`run_storm`)."""

    n_actors: int = 12
    payload_bytes: int = 4096
    initial_pulses: int = 4
    hops: int = 6
    fanout: int = 2
    grow_every: int = 7  # every Nth hit an actor grows its payload
    grow_bytes: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_actors < 1:
            raise ValueError("n_actors must be >= 1")
        if self.initial_pulses < 0 or self.hops < 0 or self.fanout < 0:
            raise ValueError("initial_pulses/hops/fanout must be >= 0")
        if self.grow_every < 1:
            raise ValueError("grow_every must be >= 1")


class StormActor(MobileObject):
    """A mobile object that forwards pulses to seeded-random peers.

    Each delivered ``pulse`` bumps the hit counter, occasionally grows the
    payload (driving the resize/eviction paths), and re-posts the pulse to
    ``fanout`` peers chosen by a PRNG keyed on (seed, token) — where
    ``token`` names the pulse's position in the cascade tree.  Because the
    key never involves delivery order, the *final* application state (hits,
    forwarded counts, payload sizes) is a pure function of the spec, no
    matter how scheduling, eviction or even crash/restore reorder the
    deliveries.  Tests lean on exactly that: any two runs of the same spec
    must converge to the same state.
    """

    def __init__(self, ptr, payload_bytes: int, seed: int, grow_every: int,
                 grow_bytes: int) -> None:
        super().__init__(ptr)
        self.payload = bytes(payload_bytes)
        self.seed = seed
        self.grow_every = grow_every
        self.grow_bytes = grow_bytes
        self.hits = 0
        self.forwarded = 0
        self.peers: list = []

    @handler
    def meet(self, ctx, peers) -> None:
        self.peers = [p for p in peers if p.oid != self.oid]

    @handler
    def pulse(self, ctx, hops: int, fanout: int, token: str = "p") -> None:
        self.hits += 1
        if self.grow_every and self.hits % self.grow_every == 0:
            self.payload += bytes(self.grow_bytes)
        if hops <= 0 or fanout <= 0 or not self.peers:
            return
        rng = random.Random(f"{self.seed}:{self.oid}:{token}")
        for i in range(fanout):
            target = self.peers[rng.randrange(len(self.peers))]
            ctx.post(target, "pulse", hops - 1, fanout, f"{token}.{i}")
            self.forwarded += 1


class DeltaStormActor(StormActor):
    """A storm actor whose payload spills through the delta data plane.

    Identical cascade semantics, but the grow-only ``payload`` is declared
    append-mostly via the ``bytes-append`` codec, so re-spills after a
    growth hit emit delta segments (and, with compression on, compressed
    frames).  Chaos cases use it to drive the delta/compaction/repair
    machinery under injected faults while still asserting bit-exact
    convergence with a fault-free reference.
    """

    serializer = get_codec("bytes-append")


def storm_actors(
    runtime, spec: WorkloadSpec, actor: type = StormActor
) -> list["MobilePointer"]:
    """Create the actors round-robin over ``runtime.nodes``; post ``meet``."""
    n_nodes = len(runtime.nodes)
    actors = [
        runtime.create_object(
            actor, spec.payload_bytes, spec.seed, spec.grow_every,
            spec.grow_bytes, node=i % n_nodes,
        )
        for i in range(spec.n_actors)
    ]
    for ptr in actors:
        runtime.post(ptr, "meet", actors)
    return actors


def _pulses(actors: list, spec: WorkloadSpec):
    """The ``initial_pulses`` cascade launches: ``(k, target)`` pairs."""
    rng = random.Random(spec.seed)
    for k in range(spec.initial_pulses):
        yield k, actors[rng.randrange(len(actors))]


def storm_phases(runtime, actors: list, spec: WorkloadSpec):
    """Run the introductions, then one cascade per phase, yielding each
    boundary's label so the caller can check invariants there.  Any
    runtime with ``post`` and ``run`` will do, a ``RecoveryPolicy`` too."""
    runtime.run()
    yield "after meets"
    for k, target in _pulses(actors, spec):
        runtime.post(target, "pulse", spec.hops, spec.fanout, f"p{k}")
        runtime.run()
        yield f"after pulse {k}"


def storm_state(runtime, actors: list) -> dict[int, tuple]:
    """oid -> (hits, forwarded, payload length): the storm's final-state
    witness, a pure function of the spec however the run was scheduled."""
    out = {}
    for ptr in actors:
        obj = runtime.get_object(ptr)
        out[ptr.oid] = (obj.hits, obj.forwarded, len(obj.payload))
    return out


def run_storm(
    runtime: "MRTS", spec: WorkloadSpec, actor: type = StormActor
) -> list["MobilePointer"]:
    """Run one storm workload to quiescence; returns the actor pointers.

    Every cascade is posted before the single ``run()``, so the whole
    storm is one phase.  The caller inspects final state through
    :func:`storm_state`.
    """
    actors = storm_actors(runtime, spec, actor)
    for k, target in _pulses(actors, spec):
        runtime.post(target, "pulse", spec.hops, spec.fanout, f"p{k}")
    runtime.run()
    return actors
