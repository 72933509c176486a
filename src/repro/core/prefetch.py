"""Learned prefetch: mining the obs event stream for load-order patterns.

The paper's overlap analysis (§IV) shows disk latency is hidden only when
the runtime issues I/O *ahead* of compute.  The original
``prefetch_candidates()`` hint was purely reactive — it could only warm
objects already sitting in the ready queue.  Mesh workloads, however, are
highly repetitive: a refinement wave visits patches in the same
neighbor-to-neighbor order every round, so the demand-load sequence
itself is a strong predictor of the next load.

:class:`PrefetchPredictor` is fed one :meth:`~PrefetchPredictor.observe`
call per *demand* load by the runtime's load path
(:func:`repro.core.spill.install_loaded`) and maintains a per-node
first-order Markov successor table over them; background prefetch loads
are never observed — learning from our own predictions would
self-reinforce.  :meth:`predict` returns the
confidence-ranked successors of the object a worker is about to process,
which the runtime merges with ready-queue hints and pack-file
neighborhoods into one batched prefetch.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

__all__ = ["PrefetchPredictor"]


class PrefetchPredictor:
    """Per-node first-order Markov model of the demand-load sequence."""

    def __init__(self, max_states: int = 4096, max_successors: int = 16) -> None:
        self.max_states = max_states
        self.max_successors = max_successors
        # node -> prior oid -> Counter of successor oids
        self._succ: dict[int, dict[int, Counter]] = {}
        self._last: dict[int, Optional[int]] = {}
        self.observed = 0
        self.transitions = 0

    # ------------------------------------------------------------------
    # learning

    def observe(self, node: int, oid: int) -> None:
        self.observed += 1
        prior = self._last.get(node)
        self._last[node] = oid
        if prior is None or prior == oid:
            return
        table = self._succ.setdefault(node, {})
        counter = table.get(prior)
        if counter is None:
            if len(table) >= self.max_states:
                # bounded memory: drop the coldest state
                coldest = min(table, key=lambda k: sum(table[k].values()))
                del table[coldest]
            counter = table[prior] = Counter()
        counter[oid] += 1
        self.transitions += 1
        if len(counter) > self.max_successors:
            # keep the head of the distribution; the tail is noise
            for victim, _ in counter.most_common()[self.max_successors :]:
                del counter[victim]

    # ------------------------------------------------------------------
    # prediction

    def predict(
        self,
        node: int,
        after: Optional[int] = None,
        k: int = 4,
        min_confidence: float = 0.25,
    ) -> list[int]:
        """Confidence-ranked successors of ``after`` on ``node``.

        ``after`` defaults to the node's most recent demand load.  Only
        successors whose empirical probability meets ``min_confidence``
        are returned, so a noisy state predicts nothing rather than
        flooding the disk with wasted warms.
        """
        if after is None:
            after = self._last.get(node)
        if after is None:
            return []
        counter = self._succ.get(node, {}).get(after)
        if not counter:
            return []
        total = sum(counter.values())
        return [
            oid
            for oid, n in counter.most_common(k)
            if n / total >= min_confidence
        ]
