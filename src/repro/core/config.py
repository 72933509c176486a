"""Runtime configuration for the MRTS."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import ConfigError

__all__ = ["MRTSConfig"]


@dataclass
class MRTSConfig:
    """Tunables of the Multi-layered Run-Time System.

    Defaults follow the paper:

    * ``hard_threshold_factor`` — the *hard swapping threshold* is this
      multiple of the size of the largest mobile object currently stored on
      disk; checked on every allocation; default **2** (§II.E).
    * ``soft_threshold_fraction`` — the *soft swapping threshold* is this
      fraction of total memory; dropping below it advises the storage layer
      to start swapping; default **1/2** (§II.E).
    * ``swap_scheme`` — replacement policy; LRU is the paper's default,
      with LFU/MRU/MU/LU available (LFU is up to 7% faster for PCDM).
    * ``directory_policy`` — mobile-object location management; the paper
      chose *lazy* forwarding updates as the accuracy/overhead compromise.
    * ``executor`` — computing-layer backend: ``"workstealing"`` (TBB-like),
      ``"centralqueue"`` (GCD-like), or ``"serial"``.

    Self-healing knobs (PR 3):

    * ``storage_retries`` — retries after the first attempt of a storage
      op on a transient fault (``RetryingBackend``); 0 disables retrying.
    * ``checksum_frames`` — wrap every packed object in a length+CRC32
      frame so torn writes are detected at load (``CorruptObject``).
    * ``degraded`` — start in degraded mode (normally entered at runtime
      when the medium reports full): hard-threshold headroom drops to its
      floor and proactive soft-threshold spills are suppressed.

    Data-plane knobs (PR 4):

    * ``compress_spills`` — size-adaptive compression tier above the
      frame layer; requires ``checksum_frames`` (the flags byte lives in
      the frame header).
    * ``delta_spills`` — serializers with ``supports_delta`` spill only
      the segments appended since the last stored copy, as an append-log
      of frames; also requires ``checksum_frames`` (segment boundaries
      are frames).

    Load-side knobs (PR 7):

    * ``packfile_spills`` — lay the default raw store out as
      locality-ordered pack segments (:class:`~repro.core.packfile.
      PackFileBackend`); only applies when the caller did not supply its
      own ``storage_factory``.
    * ``learned_prefetch`` — mine the demand-load event stream into a
      per-node Markov successor table and prefetch predicted successors
      ahead of the ready queue.
    * ``neighborhood_warm`` — on each prefetch, additionally warm up to
      this many pack-file curve neighbors of the hinted objects (0
      disables neighborhood expansion).  Deliberately conservative by
      default: on memory-starved runs every speculative warm displaces a
      resident, so wide warms cost more reload churn than they hide.

    Speculative + elastic tasking knobs (PR 9), all off by default so the
    default runtime stays byte-identical:

    * ``speculation`` — allow handlers posted with
      ``ctx.post_speculative`` to run past the current phase boundary;
      their effects buffer until commit-time validation against the
      directory's per-object version stamps, with rollback to the
      pre-speculation snapshot on conflict (docs/speculative_tasking.md).
    * ``work_stealing`` — start one thief process per node that migrates
      ready work from the most backlogged node onto an idle one,
      preferring victim-resident objects near the thief's own pack-file
      locality keys so a steal never triggers a load storm.
    * ``elastic_balance`` — attach an
      :class:`~repro.core.balancer.ElasticBalancer` that consumes queue
      depth and residency signals live off the obs bus and migrates
      mobile objects off hot nodes between phases.
    """

    hard_threshold_factor: float = 2.0
    soft_threshold_fraction: float = 0.5
    swap_scheme: str = "lru"
    directory_policy: str = "lazy"
    executor: str = "workstealing"
    prefetch_depth: int = 2
    message_aggregation: int = 1
    storage_retries: int = 3
    checksum_frames: bool = True
    degraded: bool = False
    compress_spills: bool = True
    delta_spills: bool = True
    packfile_spills: bool = True
    learned_prefetch: bool = True
    neighborhood_warm: int = 1
    speculation: bool = False
    work_stealing: bool = False
    elastic_balance: bool = False

    VALID_SCHEMES = ("lru", "lfu", "mru", "mu", "lu")
    VALID_DIRECTORY = ("lazy", "eager", "home")
    VALID_EXECUTORS = ("workstealing", "centralqueue", "serial")

    def __post_init__(self) -> None:
        if self.hard_threshold_factor < 1.0:
            raise ConfigError("hard_threshold_factor must be >= 1")
        if not 0.0 <= self.soft_threshold_fraction <= 1.0:
            raise ConfigError("soft_threshold_fraction must be in [0, 1]")
        if self.swap_scheme not in self.VALID_SCHEMES:
            raise ConfigError(
                f"unknown swap scheme {self.swap_scheme!r}; "
                f"choose from {self.VALID_SCHEMES}"
            )
        if self.directory_policy not in self.VALID_DIRECTORY:
            raise ConfigError(
                f"unknown directory policy {self.directory_policy!r}; "
                f"choose from {self.VALID_DIRECTORY}"
            )
        if self.executor not in self.VALID_EXECUTORS:
            raise ConfigError(
                f"unknown executor {self.executor!r}; "
                f"choose from {self.VALID_EXECUTORS}"
            )
        if self.prefetch_depth < 0:
            raise ConfigError("prefetch_depth must be >= 0")
        if self.message_aggregation < 1:
            raise ConfigError("message_aggregation must be >= 1")
        if self.storage_retries < 0:
            raise ConfigError("storage_retries must be >= 0")
        if self.neighborhood_warm < 0:
            raise ConfigError("neighborhood_warm must be >= 0")
