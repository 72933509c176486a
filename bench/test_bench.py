"""Tests of the benchmark itself: ``python -m pytest bench/``.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only): the
quick run alone takes some twenty seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import compare  # noqa: E402
from bench.trace import Span, Tracer, layer_totals, self_times  # noqa: E402


def _manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ span arithmetic
def test_self_time_is_duration_minus_direct_children():
    #   root 0..100
    #     a 10..50         (child c 20..30 is a's, not root's)
    #     b 60..90
    spans = [
        Span("root", "bench", 0, 100, -1, 1),
        Span("a", "x", 10, 50, 0, 1),
        Span("c", "y", 20, 30, 1, 1),
        Span("b", "x", 60, 90, 0, 1),
    ]
    assert self_times(spans) == [30, 30, 10, 30]
    assert sum(self_times(spans)) == spans[0].duration
    totals = layer_totals(spans)
    assert totals["x"] == (pytest.approx(60e-9), 2)
    assert totals["y"] == (pytest.approx(10e-9), 1)


def test_tracer_nests_wrapped_calls_and_restores_them():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.trace_methods(Layer, ["outer", "inner", "absent"], "layer")
    with tracer.span("repeat", "bench"):
        assert Layer().outer() == 2
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    spans = tracer.spans()
    assert [s.name for s in spans] == ["repeat", "Layer.outer", "Layer.inner"]
    assert [s.parent for s in spans] == [-1, 0, 1]
    assert all(s.end >= s.start for s in spans)
    assert sum(self_times(spans)) == spans[0].duration
    Layer().outer()
    assert len(tracer.spans()) == 3  # unwrapped: nothing more recorded


def test_trace_function_rebinds_every_importer():
    from repro.geometry import predicates
    from repro.mesh import triangulation

    original = predicates.orient2d
    assert triangulation.orient2d is original
    tracer = Tracer()
    tracer.trace_function(original, "p")
    try:
        assert triangulation.orient2d is predicates.orient2d is not original
        assert triangulation.orient2d((0, 0), (1, 0), (0, 1)) > 0
    finally:
        tracer.uninstall()
    assert triangulation.orient2d is predicates.orient2d is original
    assert [s.name for s in tracer.spans()] == ["orient2d"]


# --------------------------------------------------------- percentile, bounds
def test_percentile_is_nearest_rank():
    from bench.layers import percentile

    values = list(range(1, 61))           # 60 latency samples
    assert percentile(values, 50) == 30
    assert percentile(values, 80) == 48   # twelve samples beyond it
    assert percentile([7.0], 80) == 7.0
    assert percentile([], 50) == 0.0


def test_spread_matches_statistics_quantiles():
    q1, med, q3, share = compare.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, med, q3) == (1.5, 3.0, 4.5)
    assert share == pytest.approx(1.0)
    assert compare.spread([2.0]) == (2.0, 2.0, 2.0, 0.0)


@pytest.mark.parametrize("a, b, better, want", [
    ([1.00, 1.01, 0.99], [1.05, 1.06, 1.04], "lower", "ok"),          # +5 %
    ([1.00, 1.01, 0.99], [1.12, 1.13, 1.11], "lower", "regression"),  # +12 %
    ([1.00, 1.01, 0.99], [0.80, 0.81, 0.79], "lower", "better"),
    ([1.00, 1.01, 0.99], [0.88, 0.89, 0.87], "higher", "regression"),
    # Spread wider than the bound and overlapping sets decide nothing...
    ([1.0, 1.3, 0.8, 1.1], [1.2, 0.9, 1.4, 1.1], "lower", "unresolved"),
    # ...unless every value of B is worse than every value of A.
    ([1.0, 1.3, 0.8, 1.1], [2.0, 2.6, 1.6, 2.2], "lower", "regression"),
    ([5.0], [5.2], "lower", "ok"),
    ([5.0], [5.6], "lower", "regression"),
])
def test_verdict_applies_the_bound(a, b, better, want):
    assert compare.verdict(a, b, 0.10, better) == want


def _record(workload: str, wall: float, failed: int = 0, events: int = 5,
            seed: int = 0) -> dict:
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in _manifest()["end_to_end"]}
    metrics["wall_s"]["value"] = wall
    return {"workload": workload, "seed": seed, "trace": 0, "attempted": 10,
            "failed": failed, "metrics": metrics, "exact": {"events": events},
            "wall_samples": [wall * f for f in (0.99, 1.0, 1.01)]}


def _write(path: Path, **kwargs) -> str:
    runs = [_record(w["name"], **kwargs) for w in _manifest()["workloads"]]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_exit_codes(tmp_path, capsys):
    base = _write(tmp_path / "a.json", wall=1.0)
    assert compare.main([base, _write(tmp_path / "b.json", wall=1.05)]) == 0
    assert compare.main([base, _write(tmp_path / "c.json", wall=1.25)]) == 1
    assert "wall_s: regression" in capsys.readouterr().out
    # A higher failed_ratio fails whatever the timings say.
    assert compare.main(
        [base, _write(tmp_path / "d.json", wall=0.5, failed=1)]) == 1
    # Same code, same seed, different exact counter: only --exact objects.
    drift = _write(tmp_path / "e.json", wall=1.0, events=6)
    assert compare.main([base, drift]) == 0
    assert compare.main([base, drift, "--exact"]) == 1


# ------------------------------------------------------------------ manifest
def test_manifest_lists_what_the_benchmark_reports():
    from bench.layers import PER_LAYER_UNITS
    from bench.workloads import WORKLOADS

    manifest = _manifest()
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in manifest["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert [m["name"] for m in manifest["end_to_end"]] == [
        "setup_s", "wall_s", "virtual_makespan_s", "bytes_stored",
        "bytes_loaded", "peak_rss_mb"]
    assert {m["name"]: (m["unit"], m["better"])
            for m in manifest["per_layer"]} == PER_LAYER_UNITS
    assert len(manifest["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert manifest["paths"] == ["bench"]


def test_inputs_are_a_function_of_the_seed():
    from bench.workloads import WORKLOADS

    for wl in WORKLOADS.values():
        assert wl.inputs(3) == wl.inputs(3)
        assert wl.inputs(3) != wl.inputs(4)


# ----------------------------------------------------------------- quick run
def test_quick_run_passes_every_check(tmp_path):
    """Every workload at a tenth of its size, untraced and traced."""
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:]
    manifest = _manifest()
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 2 * len(manifest["workloads"])
    for rec in runs:
        assert rec["correct"] and rec["failed"] == 0, rec["failures"]
        kind = "per_layer" if rec["trace"] else "end_to_end"
        assert list(rec["metrics"]) == [m["name"] for m in manifest[kind]]
    # The layers that must idle do: nothing spills in core, and the
    # modeled runs never reach the mesher.
    traced = {r["workload"]: r["metrics"] for r in runs if r["trace"]}
    assert traced["updr_mesh_incore"]["core.ooc.evictions"]["value"] == 0
    assert traced["oupdr_model"]["mesh.triangulation.insert_s"]["value"] == 0
    assert traced["updr_mesh_ooc"]["core.ooc.evictions"]["value"] > 0
    assert traced["clean_read_sweep"]["core.codec.packs"]["value"] == 0
    assert traced["service_closed_loop"]["serve.jobs"]["value"] > 0
