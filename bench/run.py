#!/usr/bin/env python3
"""Two-clock benchmark: host seconds and virtual seconds, end to end and
layer by layer.

    python3 bench/run.py --seed 0                 every workload, every metric
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                                  one run, result as JSON
    python3 bench/run.py --quick                  ~1/10 size, all checks, <60 s
    python3 bench/run.py --selfcheck              suite twice, then compare
    python3 bench/run.py --sweep                  x0.5/x1/x2 scaling exponents

One run of one workload is measured in child processes of this script,
one after the other, so that import, input build and warm-up happen
several times (``setup_s`` is their median), ``peak_rss_mb`` is the
child's own, and a timed repeat never shares its heap with the harness.
A child sets up, runs timed repeats with tracing off until its share of
``--seconds`` is spent, and checks every repeat outside the timed
region.  With ``--trace 1`` one child also runs traced repeats and
reports the per-layer metrics; end-to-end numbers never come from those.
"""

import time

_T0 = time.perf_counter()  # child start: before any other import

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Import the benchmark as the package ``bench`` and the program from
# ``src``; drop the script's own directory, whose ``trace.py`` would
# otherwise shadow the standard library's.
sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
    p for p in sys.path if Path(p or ".").resolve() != HERE
]

from bench import compare  # noqa: E402  (standard library only)

CHILDREN = 3          # children per untraced run: three set-ups, one median
MIN_REPEATS = 2       # timed repeats per child, whatever the budget
CHILD_TIMEOUT_S = 170


def manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ==================================================================== child
def _calibrate() -> float:
    """A fixed pure-Python loop: this host's speed, and whether it drifts."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i & 0xFF
        best = min(best, time.perf_counter() - t0)
    return best


def child_main(args) -> int:
    calib0 = _calibrate()
    from bench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, args.scale)
    warm = wl.run(wl.inputs(args.seed, args.scale * wl.warm_scale))
    setup_s = time.perf_counter() - _T0

    attempted = warm.attempted
    failures = [f"warm-up: {f}" for f in warm.failures]
    share = 0.4 if args.trace else 1.0
    deadline = time.perf_counter() + args.seconds * share
    min_repeats = args.min_repeats
    if args.trace and args.seconds > 0:
        min_repeats = max(min_repeats, wl.trace_min_repeats)
    outcomes = []
    while len(outcomes) < min_repeats or time.perf_counter() < deadline:
        gc.collect()
        out = wl.run(inputs)
        if outcomes:
            out.check(out.exact == outcomes[0].exact,
                      "exact counters differ from repeat 1: " + ", ".join(
                          k for k in out.exact
                          if out.exact[k] != outcomes[0].exact.get(k)))
        outcomes.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = outcomes[0]
    walls = [o.wall_s for o in outcomes]
    report = {
        "setup_s": setup_s,
        "wall_samples": walls,
        "peak_rss_mb": peak_rss_mb,
        "exact": first.exact,
        "inputs": {k: v for k, v in inputs.items() if k != "scripts"},
    }
    if args.trace:
        report["per_layer"] = _traced(wl, inputs, outcomes, args)
    for o in outcomes:
        attempted += o.attempted
        failures.extend(o.failures)
    calib1 = _calibrate()
    report.update(
        attempted=attempted, failures=failures, calib_s=calib0,
        calib_drift_pct=100.0 * (calib1 - calib0) / calib0,
    )
    if args.trace:
        report["per_layer"]["host.calib_s"] = calib0
        report["per_layer"]["host.calib_drift_pct"] = report["calib_drift_pct"]
    print(json.dumps(report))
    return 0


def _traced(wl, inputs: dict, outcomes: list, args) -> dict:
    """Traced repeats and the extra passes; returns every per-layer metric."""
    from bench import layers
    from bench.trace import Tracer

    first = outcomes[0]
    walls = [o.wall_s for o in outcomes]
    wall = statistics.median(walls)
    host = {
        key: statistics.median(o.host.get(key, 0.0) for o in outcomes)
        for key in first.host
    }
    metrics = dict.fromkeys(layers.PER_LAYER_UNITS, 0.0)
    metrics.update(layers.count_metrics(first.exact, host))
    metrics["run.repeats"] = len(outcomes)
    metrics["run.wall_s"] = wall
    latencies = [lat for o in outcomes for lat in o.latencies]
    metrics["serve.job_latency_p50_s"] = layers.percentile(latencies, 50)
    metrics["serve.job_latency_p80_s"] = layers.percentile(latencies, 80)

    tracer = Tracer()
    layers.install_spans(tracer)
    traced_walls, traced_metrics = [], []
    deadline = time.perf_counter() + args.seconds * 0.4
    try:
        while not traced_walls or time.perf_counter() < deadline:
            tracer.reset()
            gc.collect()
            out = wl.run(
                inputs, region=lambda: tracer.span("repeat", layers.BENCH))
            out.check(out.exact == first.exact,
                      "the traced repeat's exact counters differ")
            spans = layers.span_metrics(tracer.spans())
            # The runtime times its own packs; where those are heavy
            # enough to drown its glue around the codec call (a tenth of a
            # millisecond each, 50 ms in all: patch_spill_stream), the
            # spans around the codecs must tell the same story, or the
            # tracer is wrong.
            for side in ("pack", "unpack"):
                own = out.host.get(f"{side}_s", 0.0)
                seen = spans[f"core.codec.traced_{side}_s"]
                ops = out.exact.get(f"{side}s", 0)
                if own >= 0.05 and own >= 1e-4 * ops:
                    out.check(
                        abs(seen - own) <= 0.15 * max(seen, own),
                        f"traced {side} spans {seen:.4f}s vs RunStats "
                        f"{own:.4f}s")
            outcomes.append(out)
            traced_walls.append(out.wall_s)
            traced_metrics.append(spans)
        OUT.mkdir(exist_ok=True)
        tracer.write_chrome_trace(str(OUT / f"{wl.name}.trace.json"))
    finally:
        tracer.uninstall()
    metrics.update(layers.median_of(traced_metrics))
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_walls) - wall) / wall)

    wl.validate(inputs, first)
    metrics.update(wl.extras(inputs, wall, traced_metrics[-1]))
    return metrics


# =================================================================== parent
def spawn_child(workload: str, seed: int, seconds: float, trace: int,
                scale: float, min_repeats: int = MIN_REPEATS) -> dict:
    """Run one child to its end and return its report."""
    OUT.mkdir(exist_ok=True)
    tmp = OUT / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(tmp))
    cmd = [sys.executable, str(HERE / "run.py"), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--scale", repr(scale), "--min-repeats", str(min_repeats)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"bench: child for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            scale: float = 1.0, children: int = CHILDREN,
            min_repeats: int = MIN_REPEATS) -> dict:
    """One run of one workload: the driver's result plus our own detail."""
    if trace:
        reports = [spawn_child(workload, seed, seconds, 1, scale, min_repeats)]
    else:
        reports = [
            spawn_child(workload, seed, seconds / children, 0, scale,
                        min_repeats)
            for _ in range(children)
        ]
    attempted = sum(r["attempted"] for r in reports) + 1
    failures = [f for r in reports for f in r["failures"]]
    exact = reports[0]["exact"]
    if any(r["exact"] != exact for r in reports[1:]):
        failures.append("children disagree on the exact counters")
    walls = [w for r in reports for w in r["wall_samples"]]
    q1, med, q3, _ = compare.spread(walls)
    units = {m["name"]: m["unit"]
             for m in manifest()["per_layer" if trace else "end_to_end"]}
    if trace:
        values = reports[0]["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "wall_s": med,
            "virtual_makespan_s": exact["virtual_makespan_s"],
            # The driver's contract forbids a metric that reads 0, and an
            # in-core run moves no bytes: 1 stands for "no disk traffic".
            "bytes_stored": max(1, exact["bytes_stored"]),
            "bytes_loaded": max(1, exact["bytes_loaded"]),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in reports),
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        # Beyond the driver's four keys (stripped before its last line):
        "workload": workload, "seed": seed, "trace": trace, "scale": scale,
        "failures": failures, "exact": exact, "wall_samples": walls,
        "wall_quartiles": [q1, med, q3], "inputs": reports[0]["inputs"],
        "calib_s": statistics.median(r["calib_s"] for r in reports),
        "calib_drift_pct": max(r["calib_drift_pct"] for r in reports),
    }


def print_result(result: dict) -> None:
    q1, med, q3 = result["wall_quartiles"]
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} scale={result['scale']:g}: "
          f"{result['attempted'] - result['failed']}/{result['attempted']} "
          f"checks passed; wall_s median {med:.4f} "
          f"[q1 {q1:.4f}, q3 {q3:.4f}, n={len(result['wall_samples'])}]; "
          f"host calib {result['calib_s'] * 1e3:.2f} ms "
          f"(drift {result['calib_drift_pct']:+.1f} %)")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    for name, m in result["metrics"].items():
        print(f"   {name:<44} {m['value']:>16.6g} {m['unit']}")


def driver_line(result: dict) -> str:
    return json.dumps(
        {k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


# ==================================================================== modes
def run_suite(seed: int, seconds: float, out_path: Path, *,
              scale: float = 1.0, quick: bool = False, runs: int = 1) -> bool:
    """Every workload, untraced then traced; writes the result file."""
    records = []
    ok = True
    for run in range(runs):
        for spec in manifest()["workloads"]:
            for trace in (0, 1):
                if quick:
                    result = measure(spec["name"], seed + run, 0.0, trace,
                                     scale=0.1, children=1, min_repeats=1)
                else:
                    result = measure(spec["name"], seed + run, seconds,
                                     trace, scale=scale)
                print_result(result)
                records.append(result)
                ok = ok and result["correct"]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"runs": records}, fh, indent=1)
    print(f"results written to {out_path}; "
          + ("every check passed" if ok else "SOME CHECKS FAILED"))
    return ok


def run_selfcheck(seed: int, seconds: float) -> bool:
    """Two sets of runs of the same code must agree within the bounds."""
    a, b = OUT / "selfcheck-a.json", OUT / "selfcheck-b.json"
    ok = run_suite(seed, seconds, a)
    ok = run_suite(seed, seconds, b) and ok
    return compare.main([str(a), str(b), "--exact"]) == 0 and ok


SWEEP_WORKLOADS = ("oupdr_model", "opcdm_model", "patch_spill_stream")
SWEEP_SCALES = (0.5, 1.0, 2.0)
NOT_HOST_SECONDS = ("core.runtime.barrier_idle_s",)  # virtual seconds


def fit_exponent(xs: list, ys: list) -> float:
    """Least-squares slope of log y over log x (0 where y vanishes)."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    den = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / den


def run_sweep(seed: int, seconds: float) -> bool:
    """Host time over input size, per workload and per traced layer."""
    ok = True
    curves = {}
    for name in SWEEP_WORKLOADS:
        rows = {}
        for scale in SWEEP_SCALES:
            # Longer repeats get a longer budget, or too few fit in it.
            result = measure(name, seed, seconds * max(1.0, scale), 1,
                             scale=scale)
            ok = ok and result["correct"]
            rows[scale] = {
                k: m["value"] for k, m in result["metrics"].items()
                if k == "run.wall_s" or (
                    m["unit"] == "s" and k not in NOT_HOST_SECONDS
                    and not k.startswith(("host.", "run.")))
            }
        curves[name] = rows
        print(f"== {name}: host seconds at x{SWEEP_SCALES} and the fitted "
              "exponent (time ~ size^e)")
        for key in rows[1.0]:
            ys = [rows[s][key] for s in SWEEP_SCALES]
            if max(ys) < 0.005:
                continue  # a layer this workload does not use
            e = fit_exponent(list(SWEEP_SCALES), ys)
            print(f"   {key:<40} "
                  + " ".join(f"{y:>9.4f}" for y in ys) + f"   e={e:5.2f}")
    with open(OUT / "sweep.json", "w", encoding="utf-8") as fh:
        json.dump(curves, fh, indent=1)
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--sweep", action="store_true")
    ap.add_argument("--runs", type=int, default=1,
                    help="suite mode: repeat the suite on seeds seed..seed+N-1")
    ap.add_argument("--out", type=Path, help="suite mode: result file")
    # Internal: one measuring child.
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--scale", type=float, default=1.0,
                    help=argparse.SUPPRESS)
    ap.add_argument("--min-repeats", type=int, default=MIN_REPEATS,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.seconds is None:
        args.seconds = float(manifest()["run_seconds"])
    if args.workload:
        if args.workload not in {w["name"] for w in manifest()["workloads"]}:
            ap.error(f"unknown workload {args.workload!r}")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        print_result(result)
        print(driver_line(result))
        return 0
    if args.selfcheck:
        return 0 if run_selfcheck(args.seed, args.seconds) else 1
    if args.sweep:
        return 0 if run_sweep(args.seed, args.seconds) else 1
    out = args.out or OUT / ("quick.json" if args.quick else "results.json")
    ok = run_suite(args.seed, args.seconds, out.resolve(), quick=args.quick,
                   runs=args.runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
