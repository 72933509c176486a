"""The Multi-layered Run-Time System (MRTS) — the paper's contribution.

Public API:

* :class:`MRTS` — the runtime facade (create objects, post messages, run);
* :class:`MobileObject` / :class:`MobilePointer` — the data model;
* :func:`handler` — decorator marking message-handler methods;
* :class:`MRTSConfig` — tunables (swap scheme, thresholds, directory
  policy, prefetch depth, speculation, work stealing);
* :class:`CostModel` — pluggable compute-cost provider for paper-scale
  simulated runs;
* storage backends, swap schemes, and the stats container.
"""

from repro.core.config import MRTSConfig
from repro.core.mobile import MobileObject, MobilePointer, PickleSerializer, Serializer
from repro.core.messages import Message, MessageQueue, MulticastMessage
from repro.core.swapping import LFU, LRU, LU, MRU, MU, SwapScheme, make_scheme
from repro.core.storage import (
    FRAME_OVERHEAD,
    ChecksummedBackend,
    CountingBackend,
    FileBackend,
    MemoryBackend,
    RetryPolicy,
    RetryingBackend,
    StorageBackend,
    decode_frame,
    encode_frame,
)
from repro.core.directory import Directory, DirectoryStats, make_directory
from repro.core.ooc import OOCLayer, Residency
from repro.core.control import ReadyQueue, TerminationDetector
from repro.core.computing import (
    CentralQueueExecutor,
    ScheduleResult,
    SerialExecutor,
    Task,
    TaskScheduler,
    WorkStealingExecutor,
)
from repro.core.stats import NodeStats, RunStats
from repro.core.runtime import (
    CostModel,
    HandlerContext,
    MeasuredCostModel,
    MRTS,
    handler,
)
from repro.core.checkpoint import Checkpoint, CheckpointPolicy, checkpoint, restore
from repro.core.recovery import RecoveryFailed, RecoveryPolicy
from repro.core.remote_memory import (
    MemoryPool,
    RemoteMemoryBackend,
    attach_remote_memory,
)
from repro.core.balancer import GreedyBalancer, NodeLoad, measure_load

__all__ = [
    "MRTS",
    "MRTSConfig",
    "MobileObject",
    "MobilePointer",
    "Serializer",
    "PickleSerializer",
    "Message",
    "MulticastMessage",
    "MessageQueue",
    "handler",
    "HandlerContext",
    "CostModel",
    "MeasuredCostModel",
    "SwapScheme",
    "make_scheme",
    "LRU",
    "LFU",
    "MRU",
    "MU",
    "LU",
    "StorageBackend",
    "MemoryBackend",
    "FileBackend",
    "CountingBackend",
    "ChecksummedBackend",
    "RetryPolicy",
    "RetryingBackend",
    "FRAME_OVERHEAD",
    "encode_frame",
    "decode_frame",
    "Directory",
    "DirectoryStats",
    "make_directory",
    "OOCLayer",
    "Residency",
    "ReadyQueue",
    "TerminationDetector",
    "Task",
    "TaskScheduler",
    "ScheduleResult",
    "SerialExecutor",
    "WorkStealingExecutor",
    "CentralQueueExecutor",
    "NodeStats",
    "RunStats",
    "Checkpoint",
    "CheckpointPolicy",
    "checkpoint",
    "restore",
    "RecoveryPolicy",
    "RecoveryFailed",
    "MemoryPool",
    "RemoteMemoryBackend",
    "attach_remote_memory",
    "NodeLoad",
    "measure_load",
    "GreedyBalancer",
]
