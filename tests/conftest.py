"""Shared fixtures for the MRTS test suite.

Factories rather than instances wherever a test may need several runtimes
(crash/restore pairs, determinism comparisons): call the fixture to get a
fresh, independently seeded object.
"""

import random
import types
import zlib

import pytest

from repro.core import MRTS, MRTSConfig
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing import RuntimeHarness


@pytest.fixture
def rng():
    """A deterministically seeded PRNG; reseed per-test via rng.seed(n)."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def cluster_spec():
    """Factory: small clusters with an explicit memory budget."""

    def make(n_nodes=2, cores=1, memory_bytes=1 << 20, **node_kwargs):
        return ClusterSpec(
            n_nodes=n_nodes,
            node=NodeSpec(cores=cores, memory_bytes=memory_bytes, **node_kwargs),
        )

    return make


@pytest.fixture
def mrts(cluster_spec):
    """Factory: a bare runtime on a small cluster."""

    def make(n_nodes=2, memory_bytes=1 << 20, config=None, **kwargs):
        return MRTS(
            cluster_spec(n_nodes=n_nodes, memory_bytes=memory_bytes),
            config=config or MRTSConfig(),
            **kwargs,
        )

    return make


@pytest.fixture
def harness():
    """Factory: an invariant-checked RuntimeHarness (repro.testing)."""

    def make(**kwargs):
        return RuntimeHarness(**kwargs)

    return make


@pytest.fixture
def spill_dir(tmp_path):
    """A per-test directory for FileBackend spill files."""
    d = tmp_path / "spill"
    d.mkdir()
    return d


@pytest.fixture
def zlib_calls(monkeypatch):
    """Count the bytes the storage layer sends through zlib.

    Replaces ``repro.core.storage.zlib`` (keeping ``crc32`` and
    ``error``) for the test; ``deflates`` gets one ``(input bytes,
    level)`` pair per ``compress`` call and ``inflates`` the output
    length of every ``decompress`` call.
    """
    calls = types.SimpleNamespace(deflates=[], inflates=[])

    def compress(data, level=-1):
        calls.deflates.append((len(data), level))
        return zlib.compress(data, level)

    def decompress(data):
        out = zlib.decompress(data)
        calls.inflates.append(len(out))
        return out

    monkeypatch.setattr(
        "repro.core.storage.zlib",
        types.SimpleNamespace(compress=compress, decompress=decompress,
                              crc32=zlib.crc32, error=zlib.error),
    )
    return calls
