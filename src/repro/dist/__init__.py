"""repro.dist — the distributed execution backend.

A sharded multiprocess object store behind the MRTS application API:
real worker processes host consistent-hash shards of the mobile-object
directory on the simulator's out-of-core layer (spilling to peer memory
over self-healing disk), a replicated coordinator directory that turns
worker crashes into shard re-homes, and the obs event bus relayed
across the process boundary.  See docs/distributed.md.
"""

from repro.dist.events import EventMerger, decode_event, encode_event
from repro.dist.recovery import RecoveryFailed, ShardRecoveryPolicy
from repro.dist.runtime import DistRunStats, DistRuntime
from repro.dist.shard import HashRing, shard_hash
from repro.dist.store import PeerClient, PeerMemoryServer, PeerTier
from repro.dist.wire import DistError, WireChaos
from repro.dist.worker import ShardWorker

__all__ = [
    "DistRuntime",
    "DistRunStats",
    "HashRing",
    "shard_hash",
    "ShardRecoveryPolicy",
    "RecoveryFailed",
    "PeerTier",
    "PeerClient",
    "PeerMemoryServer",
    "ShardWorker",
    "WireChaos",
    "DistError",
    "EventMerger",
    "encode_event",
    "decode_event",
]
