"""Tests for run statistics (overlap metric) and runtime configuration."""

import pytest

from repro.core import MRTSConfig, NodeStats, OOCLayer, RunStats
from repro.util.errors import ConfigError


# ------------------------------------------------------------------ config
def test_default_config_matches_paper():
    config = MRTSConfig()
    assert config.hard_threshold_factor == 2.0      # paper: default is two
    assert config.soft_threshold_fraction == 0.5    # paper: default one half
    assert config.swap_scheme == "lru"              # paper: LRU usually best
    assert config.directory_policy == "lazy"        # paper: lazy updates


def test_config_validation():
    with pytest.raises(ValueError):  # the budget is the node's, not a knob
        OOCLayer(MRTSConfig(), budget=0)
    with pytest.raises(ConfigError):
        MRTSConfig(hard_threshold_factor=0.5)
    with pytest.raises(ConfigError):
        MRTSConfig(soft_threshold_fraction=1.5)
    with pytest.raises(ConfigError):
        MRTSConfig(swap_scheme="fifo")
    with pytest.raises(ConfigError):
        MRTSConfig(directory_policy="magic")
    with pytest.raises(ConfigError):
        MRTSConfig(prefetch_depth=-1)
    with pytest.raises(ConfigError):
        MRTSConfig(message_aggregation=0)


# ------------------------------------------------------------------- stats
def test_node_stats_accumulate():
    ns = NodeStats()
    ns.add_comp(1.0)
    ns.add_comp(2.0)
    ns.add_comm(0.5, 100)
    ns.add_disk(0.25, 1000, is_store=True)
    ns.add_disk(0.25, 500, is_store=False)
    assert ns.comp_time == 3.0
    assert ns.handlers_run == 2
    assert ns.messages_sent == 1
    assert ns.bytes_sent == 100
    assert ns.objects_stored == 1
    assert ns.objects_loaded == 1
    assert ns.bytes_stored == 1000
    assert ns.bytes_loaded == 500


def test_run_stats_percentages():
    stats = RunStats(total_time=10.0)
    node = stats.node(0)
    node.add_comp(6.0)
    node.add_comm(2.0, 0)
    node.add_disk(4.0, 0, is_store=True)
    assert stats.comp_pct(1) == pytest.approx(60.0)
    assert stats.comm_pct(1) == pytest.approx(20.0)
    assert stats.disk_pct(1) == pytest.approx(40.0)
    # Busy sum 12 over 10 wall => 20% overlap.
    assert stats.overlap_pct(1) == pytest.approx(20.0)


def test_overlap_clamped_at_zero():
    stats = RunStats(total_time=10.0)
    stats.node(0).add_comp(1.0)
    assert stats.overlap_pct(1) == 0.0


def test_multi_node_aggregation():
    stats = RunStats(total_time=10.0)
    stats.node(0).add_comp(5.0)
    stats.node(1).add_comp(5.0)
    # 10 busy seconds over 2 PEs x 10 s = 50%.
    assert stats.comp_pct(2) == pytest.approx(50.0)
    assert stats.comp_time == 10.0


def test_speed_metric():
    stats = RunStats(total_time=100.0)
    # Paper Table I: Speed = S / (T x N).
    assert stats.speed(problem_size=24_000_000, n_pes=4) == pytest.approx(60_000)
    with pytest.raises(ValueError):
        RunStats(total_time=0.0).speed(10, 1)


def test_node_autovivification():
    stats = RunStats()
    stats.node(3).add_comp(1.0)
    assert len(stats.nodes) == 4
    assert stats.nodes[3].comp_time == 1.0
    assert stats.nodes[0].comp_time == 0.0


def test_zero_time_percentages_are_zero():
    stats = RunStats(total_time=0.0)
    assert stats.comp_pct(1) == 0.0
    assert stats.overlap_pct(1) == 0.0
