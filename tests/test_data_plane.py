"""Integration tests for the PR 4 data plane.

Drives real runtimes (starved memory, FixedCostModel) through the new
machinery end to end: delta spills shrink backend traffic without
changing application state, the compression tier shrinks the stored
bytes, pack-free size accounting keeps ``stats.packs`` at the spill
count instead of the probe count, the delta log compacts at its bounds,
and the new RunStats counters are populated and consistent.
"""

import zlib

import pytest

from repro import perf
from repro.core import MRTS, MobileObject, MRTSConfig, handler, spill
from repro.core.codec import get_codec
from repro.core.storage import (
    FLAG_COMPRESSED,
    PROBE_HEAD_BYTES,
    CompressingBackend,
    CompressionPolicy,
    MemoryBackend,
)
from repro.geometry import unit_square
from repro.pumg import default_cluster, run_updr
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing.harness import FixedCostModel


class GrowActor(MobileObject):
    """Append-mostly payload through the bytes-append codec."""

    serializer = get_codec("bytes-append")

    def __init__(self, ptr, payload_bytes: int) -> None:
        super().__init__(ptr)
        self.payload = bytes(payload_bytes)
        self.hits = 0

    @handler
    def grow(self, ctx, nbytes: int) -> None:
        self.payload += bytes(nbytes)
        self.hits += 1
        ctx.grew(nbytes)

    @handler
    def touch(self, ctx) -> None:
        self.hits += 1


class FullGrowActor(GrowActor):
    """GrowActor through a codec without deltas: every spill is full."""

    serializer = get_codec("pickle")


class PickleGrow(MobileObject):
    """Same workload, default pickle codec, growth reported via ctx.grew."""

    def __init__(self, ptr, payload_bytes: int) -> None:
        super().__init__(ptr)
        self.payload = bytes(payload_bytes)

    @handler
    def grow(self, ctx, nbytes: int) -> None:
        self.payload += bytes(nbytes)
        ctx.grew(nbytes)


def make_runtime(memory_bytes=48 * 1024, n_nodes=2):
    return MRTS(
        ClusterSpec(
            n_nodes=n_nodes,
            node=NodeSpec(cores=1, memory_bytes=memory_bytes),
        ),
        config=MRTSConfig(swap_scheme="lru"),
        cost_model=FixedCostModel(1e-4),
    )


def run_grow_workload(rt, n_actors=6, payload=8 * 1024, rounds=5,
                      grow_bytes=512, cls=GrowActor):
    actors = [
        rt.create_object(cls, payload, node=i % len(rt.nodes))
        for i in range(n_actors)
    ]
    for _ in range(rounds):
        for p in actors:
            rt.post(p, "grow", grow_bytes)
        rt.run()
    return actors


# ----------------------------------------------------------- delta spills
def test_delta_spills_cut_backend_traffic_without_changing_state():
    rt_delta = make_runtime()
    rt_full = make_runtime()
    a_delta = run_grow_workload(rt_delta)
    a_full = run_grow_workload(rt_full, cls=FullGrowActor)

    def final(rt, actors):
        return [(rt.get_object(p).hits, len(rt.get_object(p).payload))
                for p in actors]

    assert final(rt_delta, a_delta) == final(rt_full, a_full)
    assert rt_delta.stats.delta_spills > 0
    assert rt_full.stats.delta_spills == 0
    written_delta = sum(n.storage.bytes_written for n in rt_delta.nodes)
    written_full = sum(n.storage.bytes_written for n in rt_full.nodes)
    # Re-spills ship ~512 appended bytes instead of the whole payload.
    assert written_delta < written_full / 2
    assert (rt_delta.stats.payload_bytes_raw
            > rt_delta.stats.payload_bytes_stored)


def test_delta_log_respects_frame_bound(monkeypatch):
    monkeypatch.setattr(spill, "DELTA_LOG_FRAMES_MAX", 3)
    rt = make_runtime()
    run_grow_workload(rt, rounds=10)
    for nrt in rt.nodes:
        for rec in nrt.locals.values():
            assert rec.log_frames <= 3
    # The bound forced periodic re-baselines: full spills beyond creation.
    assert rt.stats.full_spills > len(rt.nodes)


def test_delta_log_compacts_when_it_outgrows_the_base(monkeypatch):
    # A tiny base with large appends trips the bytes-factor compaction.
    monkeypatch.setattr(spill, "DELTA_COMPACT_FACTOR", 1.5)
    monkeypatch.setattr(spill, "DELTA_LOG_FRAMES_MAX", 64)
    rt = make_runtime()
    run_grow_workload(rt, n_actors=6, payload=512, rounds=8,
                      grow_bytes=2048)
    assert rt.stats.full_spills > len(rt.nodes)
    for nrt in rt.nodes:
        for rec in nrt.locals.values():
            if rec.base_payload_bytes:
                assert (rec.log_payload_bytes
                        <= 1.5 * rec.base_payload_bytes + 2048 + 1024)


# ------------------------------------------------------- compression tier
def test_compression_tier_shrinks_stored_bytes():
    rt = make_runtime()
    run_grow_workload(rt)  # zero-filled payloads: highly compressible
    comp = [nrt.compressor for nrt in rt.nodes]
    assert all(c is not None for c in comp)
    assert sum(c.compressed_frames for c in comp) > 0
    assert sum(c.bytes_out for c in comp) < sum(c.bytes_in for c in comp)


def test_compressed_spills_round_trip_through_eviction():
    rt = make_runtime()
    actors = run_grow_workload(rt, rounds=4)
    got = [(rt.get_object(p).hits, len(rt.get_object(p).payload))
           for p in actors]
    assert got == [(4, 8 * 1024 + 4 * 512)] * len(actors)


# --------------------------------------- what goes through zlib, counted
@pytest.fixture
def transforms(monkeypatch):
    """Every ``(payload, stored bytes, flags)`` the policy decides."""
    seen = []
    transform = CompressionPolicy.transform

    def recording(self, data):
        out, flags = transform(self, data)
        seen.append((bytes(data), out, flags))
        return out, flags

    monkeypatch.setattr(CompressionPolicy, "transform", recording)
    return seen


def test_patch_stream_spills_skip_deflate_and_inflate(zlib_calls):
    """Mesh patches are float64 coordinates, which fail the head probe:
    every spill is stored raw after deflating at most its first block,
    and no reload inflates.  (Deflating every spill whole, this run sent
    60 deflates of 763 776 B in and 62 inflates of 1 050 560 B out.)
    The inputs are those of the tier-1 host-memory gate."""
    result = perf.run_mesh_patch_stream(
        seed=0, n_actors=24, initial_points=1024, rounds=4,
        append_per_round=256, n_nodes=2, memory_bytes=256 * 1024)
    nodes = result.runtime.nodes
    stores = sum(n.storage.stores for n in nodes)
    assert stores > 0 and zlib_calls.deflates
    assert max(size for size, _ in zlib_calls.deflates) <= PROBE_HEAD_BYTES
    assert zlib_calls.inflates == []
    assert sum(n.compressor.compressed_frames for n in nodes) == 0
    assert sum(n.compressor.raw_frames for n in nodes) == stores


def _assert_deflated_whole(transforms, compressed_frames):
    compressed = [(raw, out) for raw, out, flags in transforms
                  if flags & FLAG_COMPRESSED]
    assert len(compressed) == compressed_frames
    for raw, out in compressed:
        assert out == zlib.compress(raw, 3)


def test_zero_filled_spills_compress_as_before(transforms):
    rt = make_runtime()
    run_grow_workload(rt)
    compressed = sum(n.compressor.compressed_frames for n in rt.nodes)
    assert compressed == 10
    _assert_deflated_whole(transforms, compressed)


def test_out_of_core_updr_spills_compress_as_before(transforms):
    res = run_updr(
        unit_square(), h=0.05, nx=4, ny=4,
        cluster=default_cluster(memory_bytes=20_000),
        cost_model=FixedCostModel(1e-4),
    )
    compressed = sum(n.compressor.compressed_frames
                     for n in res.runtime.nodes)
    assert compressed == 210
    _assert_deflated_whole(transforms, compressed)


# -------------------------------------------------- pack-free accounting
def test_codec_size_estimate_avoids_packing_when_nothing_spills():
    rt = make_runtime(memory_bytes=1 << 22)  # roomy: no spills at all
    actors = [rt.create_object(GrowActor, 4096, node=0) for _ in range(4)]
    for p in actors:
        rt.post(p, "grow", 256)
    rt.run()
    assert rt.stats.objects_stored == 0
    assert rt.stats.packs == 0  # size accounting never packed


def test_ctx_grew_avoids_reprobe_packs_for_pickle_objects():
    rt = make_runtime(memory_bytes=1 << 22)
    actors = [rt.create_object(PickleGrow, 4096, node=0) for _ in range(4)]
    for _ in range(6):
        for p in actors:
            rt.post(p, "grow", 256)
        rt.run()
    # Nothing spilled, and growth was reported by the handlers — so no
    # handler-attributed pack ever happened to re-measure an object.
    assert rt.stats.objects_stored == 0
    assert rt.stats.packs == 0
    nbytes = rt.nodes[0].ooc.table[actors[0].oid].nbytes
    assert nbytes >= 4096 + 6 * 256


# ------------------------------------------------------------ run stats
def test_run_stats_expose_data_plane_counters():
    rt = make_runtime()
    run_grow_workload(rt)
    stats = rt.stats
    assert stats.packs > 0 and stats.unpacks > 0
    assert stats.pack_time >= 0.0 and stats.unpack_time >= 0.0
    # Every spill is exactly one backend store or append (the virtual
    # charge stream may coalesce same-object spills, so compare against
    # the backend op count, not objects_stored).
    assert (stats.delta_spills + stats.full_spills
            == sum(n.storage.stores for n in rt.nodes))
    assert stats.delta_spills + stats.full_spills >= stats.objects_stored
    assert 0.0 < stats.stored_ratio <= 1.0
    # Per-node counters sum to the aggregates.
    assert sum(n.packs for n in stats.nodes) == stats.packs
    assert sum(n.delta_spills for n in stats.nodes) == stats.delta_spills


def test_compressing_backend_rejects_multi_segment_scalar_load():
    from repro.core.storage import ChecksummedBackend
    from repro.util.errors import MRTSError

    comp = CompressingBackend(ChecksummedBackend(MemoryBackend()))
    comp.store(1, b"base" * 300)
    comp.append(1, b"tail" * 300)
    assert len(comp.load_segments(1)) == 2
    with pytest.raises(MRTSError):
        comp.load(1)
