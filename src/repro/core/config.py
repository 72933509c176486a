"""Runtime configuration for the MRTS."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigError

__all__ = ["MRTSConfig"]


@dataclass
class MRTSConfig:
    """Tunables of the Multi-layered Run-Time System.

    The paper's §II.E parameters:

    * ``hard_threshold_factor`` — the *hard swapping threshold* is this
      multiple of the size of the largest mobile object currently stored on
      disk; checked on every allocation; default **2**.
    * ``soft_threshold_fraction`` — the *soft swapping threshold* is this
      fraction of total memory; dropping below it advises the storage layer
      to start swapping; default **1/2**.
    * ``swap_scheme`` — replacement policy; LRU is the paper's default,
      with LFU/MRU/MU/LU available (LFU is up to 7% faster for PCDM).
    * ``directory_policy`` — mobile-object location management; the paper
      chose *lazy* forwarding updates as the accuracy/overhead compromise.

    Extensions:

    * ``prefetch_depth`` — objects a prefetch may warm ahead of the ready
      queue (plus the pack-file neighborhood); 0 turns prefetching off.
    * ``message_aggregation`` — a handler's messages bound for one node
      travel as one wire transfer of up to this many; 1 sends each alone.
    * ``degraded`` — run in degraded mode: hard-threshold headroom drops
      to its floor and proactive soft-threshold spills are suppressed.
      Recovery rebuilds a runtime with it set after the medium reports
      full (:class:`~repro.core.recovery.RecoveryPolicy`); no running
      runtime switches into it.
    * ``speculation`` — allow handlers posted with
      ``ctx.post_speculative`` to run past the current phase boundary;
      their effects buffer until commit-time validation against the
      directory's per-object version stamps, with rollback to the
      pre-speculation snapshot on conflict (docs/speculative_tasking.md).
    * ``work_stealing`` — start one thief process per node that migrates
      ready work from the most backlogged node onto an idle one,
      preferring victim-resident objects near the thief's own pack-file
      locality keys so a steal never triggers a load storm.

    The storage stack (retries, CRC frames, compression), delta spills
    and the learned prefetcher are not switches: every runtime runs
    them, and the pack-file layout is the raw store whenever the caller
    passes no ``storage_factory``.
    """

    hard_threshold_factor: float = 2.0
    soft_threshold_fraction: float = 0.5
    swap_scheme: str = "lru"
    directory_policy: str = "lazy"
    prefetch_depth: int = 2
    message_aggregation: int = 1
    degraded: bool = False
    speculation: bool = False
    work_stealing: bool = False

    VALID_SCHEMES = ("lru", "lfu", "mru", "mu", "lu")
    VALID_DIRECTORY = ("lazy", "eager", "home")

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
        if self.prefetch_depth < 0:
            raise ConfigError("prefetch_depth must be >= 0")
        if self.message_aggregation < 1:
            raise ConfigError("message_aggregation must be >= 1")
