"""Tests for the interconnect model and simulated nodes/clusters."""

import pytest

from repro.sim import (
    ClusterSpec,
    Engine,
    NetworkSpec,
    NodeSpec,
    SimCluster,
    SimNetwork,
    SimNode,
    sciclone_spec,
    stems_spec,
    xeon_smp_spec,
)


# ----------------------------------------------------------------- SimNode
def test_node_compute_time_scales_with_core_speed():
    eng = Engine()
    fast = SimNode(eng, 0, NodeSpec(core_speed=2.0))
    slow = SimNode(eng, 1, NodeSpec(core_speed=0.5))
    assert fast.compute_time(10.0) == pytest.approx(5.0)
    assert slow.compute_time(10.0) == pytest.approx(20.0)


def test_node_spec_validation():
    with pytest.raises(ValueError):
        NodeSpec(cores=0)
    with pytest.raises(ValueError):
        NodeSpec(memory_bytes=0)
    with pytest.raises(ValueError):
        NodeSpec(core_speed=0)


# -------------------------------------------------------------- SimNetwork
def _collecting_sink(log, rank):
    def sink(src, payload):
        log.append((rank, src, payload))

    return sink


def test_network_delivers_to_sink():
    eng = Engine()
    net = SimNetwork(eng, 2, NetworkSpec(latency=0.001, bandwidth=1e6))
    log = []
    net.attach_sink(0, _collecting_sink(log, 0))
    net.attach_sink(1, _collecting_sink(log, 1))
    eng.process(net.send(0, 1, 1000, "hello"))
    eng.run()
    assert log == [(1, 0, "hello")]
    assert net.messages_sent == 1
    assert net.bytes_sent == 1000


def test_network_delivery_time_is_serialization_plus_latency():
    eng = Engine()
    net = SimNetwork(eng, 2, NetworkSpec(latency=0.5, bandwidth=100.0))
    times = []
    net.attach_sink(1, lambda src, payload: times.append(eng.now))
    eng.process(net.send(0, 1, 200, None))  # serialize 2 s + 0.5 s latency
    eng.run()
    assert times == [pytest.approx(2.5)]


def test_network_self_send_is_immediate():
    eng = Engine()
    net = SimNetwork(eng, 1, NetworkSpec(latency=0.5, bandwidth=100.0))
    times = []
    net.attach_sink(0, lambda src, payload: times.append(eng.now))
    eng.process(net.send(0, 0, 10_000, None))
    eng.run()
    assert times == [pytest.approx(0.0)]


def test_network_sender_blocks_only_for_serialization():
    """Sender's NIC is released before the message arrives (overlap!)."""
    eng = Engine()
    net = SimNetwork(eng, 2, NetworkSpec(latency=10.0, bandwidth=100.0))
    net.attach_sink(1, lambda src, payload: None)
    sender_done = []

    def sender():
        yield from net.send(0, 1, 100, None)  # 1 s serialization
        sender_done.append(eng.now)

    eng.process(sender())
    eng.run()
    assert sender_done == [pytest.approx(1.0)]
    assert eng.now == pytest.approx(11.0)  # arrival still happened


def test_network_bad_rank_rejected():
    eng = Engine()
    net = SimNetwork(eng, 2, NetworkSpec())
    with pytest.raises(ValueError):
        list(net.send(0, 5, 10, None))


def test_network_missing_sink_raises():
    eng = Engine()
    net = SimNetwork(eng, 2, NetworkSpec(latency=0.0, bandwidth=1e9))
    eng.process(net.send(0, 1, 10, None))
    with pytest.raises(RuntimeError):
        eng.run()


# -------------------------------------------------------------- SimCluster
def test_cluster_assembly():
    eng = Engine()
    spec = ClusterSpec(n_nodes=4, node=NodeSpec(cores=2, memory_bytes=1024))
    cluster = SimCluster(eng, spec)
    assert len(cluster) == 4
    assert cluster[3].rank == 3
    assert spec.total_pes == 8
    assert spec.total_memory == 4096


def test_cluster_presets_shapes():
    sci = sciclone_spec(32)
    assert sci.n_nodes == 32
    assert sci.node.cores == 2
    assert sci.node.memory_bytes == 2 * 1024**3

    stems = stems_spec()
    assert stems.n_nodes == 4
    assert stems.node.cores == 4
    assert stems.total_pes == 16

    xeon = xeon_smp_spec()
    assert xeon.n_nodes == 1
    assert xeon.node.cores == 4


def test_stems_cores_faster_than_sciclone():
    """The paper notes STEMS has faster per-PE speed than old SciClone."""
    assert stems_spec().node.core_speed > sciclone_spec().node.core_speed
