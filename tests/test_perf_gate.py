"""``perf.check_against_baseline``: the gate ``perf --check`` and
``serve --storm --check`` apply to a fresh report."""

from repro.perf import check_against_baseline


def _doc(**metrics) -> dict:
    return {"workloads": {"w": metrics}}


def test_a_gated_rise_past_ten_percent_fails_and_an_improvement_passes():
    base = _doc(bytes_stored=1000, virtual_makespan_s=2.0, wall_s=1.0)
    failures = check_against_baseline(
        _doc(bytes_stored=1101, virtual_makespan_s=2.0, wall_s=1.0), base)
    assert len(failures) == 1
    assert failures[0].startswith("w.bytes_stored regressed: 1101 vs")
    assert check_against_baseline(
        _doc(bytes_stored=1100, virtual_makespan_s=2.2, wall_s=9.0),
        base) == []
    assert check_against_baseline(
        _doc(bytes_stored=10, virtual_makespan_s=0.5, wall_s=0.1),
        base) == []


def test_throughput_floor_and_latency_ceiling():
    base = _doc(jobs_per_sec=100.0, p99_latency_s=0.5)
    collapsed = check_against_baseline(
        _doc(jobs_per_sec=24.0, p99_latency_s=0.5), base)
    assert [f.split(":")[0] for f in collapsed] == [
        "w.jobs_per_sec collapsed"]
    blew_up = check_against_baseline(
        _doc(jobs_per_sec=100.0, p99_latency_s=2.01), base)
    assert [f.split(":")[0] for f in blew_up] == ["w.p99_latency_s blew up"]
    assert check_against_baseline(
        _doc(jobs_per_sec=25.0, p99_latency_s=2.0), base) == []


def test_missing_workloads_and_nonpositive_baselines_are_skipped():
    report = {"workloads": {
        "new": {"bytes_stored": 10 ** 9},
        "w": {"bytes_stored": 5, "packs": 7, "p99_latency_s": 9.0},
    }}
    baseline = {"workloads": {
        "w": {"bytes_stored": 0, "packs": -1, "p99_latency_s": 0.0},
    }}
    assert check_against_baseline(report, baseline) == []
