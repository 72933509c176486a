"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.cli fig5 table4          # specific experiments
    python -m repro.cli all                  # everything (slow)
    python -m repro.cli --scale 0.5 table1   # thinned size grids
    python -m repro.cli --list               # available experiment ids
    python -m repro.cli selftest             # invariant-checked smoke run
    python -m repro.cli chaos                # recovery chaos matrix
    python -m repro.cli trace storm --out trace.json   # Perfetto trace
    python -m repro.cli report old.json new.json       # run-to-run diff

``selftest`` runs one seeded storm workload per swap-scheme/directory-
policy combination on a deliberately tiny memory budget and verifies the
cross-layer invariants afterwards (see :mod:`repro.testing`).  Exit code
is non-zero if any configuration violates an invariant — an operational
health check, not a benchmark.

``chaos`` runs the seeded fault-injection matrix (intermittent, fail-stop,
torn-write and disk-full plans) with automatic recovery enabled and
verifies each run converges to the fault-free final state with invariants
intact (see :mod:`repro.testing.chaos`).

``--backend dist`` switches ``perf`` and ``chaos`` onto the distributed
execution backend (:mod:`repro.dist`): real multiprocessing shard workers
behind the same API, verified state-equal against the single-process
reference; ``perf --backend dist --trace-out t.json`` also writes the
merged cross-process Perfetto trace (see docs/distributed.md).

``trace <workload>`` runs one observed workload (``storm`` or any perf
workload), writes a Chrome-trace/Perfetto JSON timeline (open it at
https://ui.perfetto.dev), and cross-checks the paper's overlap metric
recomputed from the event stream against the runtime's own accounting
(see :mod:`repro.obs`).

``report <old.json> <new.json>`` diffs two metric documents (e.g. two
``BENCH_ooc.json`` files) and prints the metrics that moved.

``serve`` starts the long-lived multi-tenant mesh-generation service
(:mod:`repro.serve`): a line-delimited JSON socket protocol accepting
concurrent UPDR/NUPDR/PCDM jobs, with residency-pressure admission
control, per-tenant storage quotas, checkpoint/resume of preempted jobs
and a Prometheus ``metrics`` op.  ``serve --storm`` runs the
``service_storm`` load generator instead (merging its metrics into
``BENCH_ooc.json``, or gating with ``--check``); ``serve --soak`` runs
the N-tenants concurrent soak with exact per-job state oracles (see
docs/service_mode.md).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.evalsim.experiments import ALL_EXPERIMENTS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mrts-bench",
        description="Reproduce the MRTS paper's evaluation tables/figures.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (see --list), 'all', 'selftest', 'perf', "
        "'chaos', 'trace <workload>', or 'report <old.json> <new.json>'",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink size grids (0 < scale <= 1) for quicker runs",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed for 'selftest' / 'perf'",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--check", action="store_true",
        help="perf: compare against the committed baseline instead of "
        "overwriting it; non-zero exit on >10%% regression",
    )
    parser.add_argument(
        "--output", default=None,
        help="perf: path of the benchmark report (default BENCH_ooc.json)",
    )
    parser.add_argument(
        "--backend", choices=("sim", "dist"), default="sim",
        help="perf/chaos: 'sim' is the single-process simulator, 'dist' "
        "runs real multiprocessing shard workers (repro.dist)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="dist backend: number of shard worker processes (>= 1)",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="perf --backend dist: write the merged cross-process "
        "Perfetto trace to this path",
    )
    parser.add_argument(
        "--out", default="trace.json",
        help="trace: path of the Perfetto/Chrome-trace JSON output",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="serve: bind address")
    parser.add_argument(
        "--port", type=int, default=7077,
        help="serve: TCP port (0 = ephemeral)")
    parser.add_argument(
        "--serve-workers", type=int, default=4,
        help="serve: job-manager worker threads")
    parser.add_argument(
        "--storm", action="store_true",
        help="serve: run the service_storm load generator instead of "
        "listening (honors --check / --trace-out / --seed / --scale)",
    )
    parser.add_argument(
        "--soak", action="store_true",
        help="serve: run the concurrent soak (N tenants x M jobs with "
        "exact state oracles) instead of listening",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:")
        for name in ALL_EXPERIMENTS:
            print(f"  {name}")
        print("  selftest (invariant-checked runtime smoke test)")
        print("  perf (out-of-core fast-path benchmark -> BENCH_ooc.json; "
              "--backend dist runs real shard workers)")
        print("  chaos (fault-injection + automatic-recovery matrix; "
              "--backend dist kills workers / corrupts the wire)")
        print("  trace <workload> (Perfetto timeline; workloads: "
              + ", ".join(_TRACE_WORKLOADS) + ")")
        print("  report <old.json> <new.json> (metric diff)")
        print("  serve (multi-tenant mesh-generation service; --storm "
              "runs the load generator, --soak the concurrent soak)")
        return 0

    if args.experiments == ["selftest"]:
        return _selftest(args.seed)
    if args.experiments == ["serve"]:
        if not 0.0 < args.scale <= 1.0:
            parser.error("--scale must be in (0, 1]")
        if args.storm:
            return _serve_storm(
                args.seed, args.scale, args.check, args.output,
                args.trace_out, args.serve_workers,
            )
        if args.soak:
            return _serve_soak(args.seed, args.serve_workers)
        return _serve(args.host, args.port, args.serve_workers)
    if args.experiments == ["chaos"]:
        if args.backend == "dist":
            return _chaos_dist(args.seed)
        return _chaos(args.seed)
    if args.experiments and args.experiments[0] == "trace":
        if len(args.experiments) != 2:
            parser.error("usage: trace <workload> [--out trace.json]")
        if args.experiments[1] not in _TRACE_WORKLOADS:
            parser.error(
                f"unknown trace workload {args.experiments[1]!r} "
                f"(choose from: {', '.join(_TRACE_WORKLOADS)})"
            )
        if not 0.0 < args.scale <= 1.0:
            parser.error("--scale must be in (0, 1]")
        return _trace(args.experiments[1], args.seed, args.scale, args.out)
    if args.experiments and args.experiments[0] == "report":
        if len(args.experiments) != 3:
            parser.error("usage: report <old.json> <new.json>")
        return _report(args.experiments[1], args.experiments[2])
    if args.experiments == ["perf"]:
        if not 0.0 < args.scale <= 1.0:
            parser.error("--scale must be in (0, 1]")
        if args.backend == "dist":
            if args.workers < 1:
                parser.error("--workers must be >= 1")
            return _perf_dist(
                args.seed, args.scale, args.workers, args.output,
                args.trace_out,
            )
        return _perf(args.seed, args.scale, args.check, args.output)
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")

    wanted = (
        list(ALL_EXPERIMENTS)
        if args.experiments == ["all"]
        else args.experiments
    )
    unknown = [name for name in wanted if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    for name in wanted:
        start = time.perf_counter()
        experiment = ALL_EXPERIMENTS[name](scale=args.scale)
        elapsed = time.perf_counter() - start
        print(experiment.render())
        print(f"[{name} regenerated in {elapsed:.1f}s]\n")
    return 0


# Workloads the trace verb can observe: the perf suite's deterministic
# runs plus a selftest-sized storm (quick, exercises every event kind).
_TRACE_WORKLOADS = (
    "storm", "clean_read_storm", "oupdr_model", "spec_overlap_storm",
    "mesh_patch_stream", "mesh_neighborhood_sweep",
    "ghost_exchange_storm", "mesh3d_storm",
)


def _trace(workload: str, seed: int, scale: float, out: str) -> int:
    from repro.obs import overlap_report, write_chrome_trace

    subs = []

    def observe(runtime) -> None:
        subs.append(runtime.bus.subscribe())

    start = time.perf_counter()
    if workload == "storm":
        from repro.core.config import MRTSConfig
        from repro.testing.harness import RuntimeHarness
        from repro.testing.workloads import WorkloadSpec

        harness = RuntimeHarness(
            n_nodes=3, memory_bytes=20 * 1024,
            config=MRTSConfig(swap_scheme="lru"),
        )
        observe(harness.runtime)
        harness.run_storm(WorkloadSpec(
            n_actors=10, payload_bytes=4096, initial_pulses=3,
            hops=5, fanout=2, seed=seed,
        ))
        stats = harness.runtime.stats
    else:
        from repro import perf

        runner = {
            "clean_read_storm": perf.run_clean_read_storm,
            "oupdr_model": perf.run_oupdr_model_bench,
            "spec_overlap_storm": perf.run_spec_overlap_storm,
            "mesh_patch_stream": perf.run_mesh_patch_stream,
            "mesh_neighborhood_sweep": perf.run_mesh_neighborhood_sweep,
            "ghost_exchange_storm": perf.run_ghost_exchange_storm,
            "mesh3d_storm": perf.run_mesh3d_storm,
        }[workload]
        result = runner(seed=seed, scale=scale, on_runtime=observe)
        stats = result.runtime.stats
    elapsed = time.perf_counter() - start

    events = list(subs[0].events)
    write_chrome_trace(events, out)

    counts: dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"trace[{workload}]: {len(events)} events ({summary})")

    n_pes = max(len(stats.nodes), 1)
    report = overlap_report(events, stats.total_time, n_pes=n_pes)
    drift = max(
        abs(report["comp_pct"] - stats.comp_pct(n_pes)),
        abs(report["comm_pct"] - stats.comm_pct(n_pes)),
        abs(report["disk_pct"] - stats.disk_pct(n_pes)),
        abs(report["overlap_pct"] - stats.overlap_pct(n_pes)),
    )
    print(
        f"overlap from events: comp={report['comp_pct']:.2f}% "
        f"comm={report['comm_pct']:.2f}% disk={report['disk_pct']:.2f}% "
        f"overlap={report['overlap_pct']:.2f}% "
        f"(RunStats drift {drift:.2e})"
    )
    verdict = "PASS" if drift <= 1e-6 else "FAIL"
    print(f"[trace {verdict}: {out} written in {elapsed:.1f}s — "
          f"open at https://ui.perfetto.dev]")
    return 0 if drift <= 1e-6 else 1


def _report(old_path: str, new_path: str) -> int:
    import json

    from repro.obs import diff_reports, render_diff

    docs = []
    for path in (old_path, new_path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                docs.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"report: cannot read {path}: {exc}")
            return 1
    rows = diff_reports(docs[0], docs[1])
    print(render_diff(rows))
    return 0


def _perf(seed: int, scale: float, check: bool, output: str | None) -> int:
    from repro import perf

    path = output or perf.BENCH_FILENAME
    start = time.perf_counter()
    report = perf.run_perf_suite(seed=seed, scale=scale)
    elapsed = time.perf_counter() - start
    print(perf.render_report(report))
    if check:
        baseline = perf.load_baseline(path)
        if baseline is None:
            print(f"[perf FAIL: no baseline at {path}]")
            return 1
        failures = perf.check_against_baseline(report, baseline)
        for failure in failures:
            print(f"  REGRESSION: {failure}")
        verdict = "PASS" if not failures else f"FAIL ({len(failures)})"
        print(f"[perf --check {verdict} vs {path} in {elapsed:.1f}s]")
        return 0 if not failures else 1
    perf.write_report(report, path)
    print(f"[perf report written to {path} in {elapsed:.1f}s]")
    return 0


def _perf_dist(
    seed: int, scale: float, workers: int, output: str | None,
    trace_out: str | None,
) -> int:
    """Benchmark the distributed backend; merge dist_storm into BENCH.

    The dist_storm entry is merged into (not overwriting) the committed
    report so the simulator baselines stay regression-gated; the hard
    verdict here is ``state_equal`` — the distributed run must land on
    exactly the single-process reference state — plus an empty list of
    worker residency violations.
    """
    from repro import perf

    path = output or perf.BENCH_FILENAME
    start = time.perf_counter()
    metrics = perf.run_dist_storm(
        seed=seed, workers=workers, scale=scale, trace_out=trace_out
    )
    elapsed = time.perf_counter() - start
    print(
        f"  dist_storm         workers={metrics['workers']} "
        f"delivered={metrics['delivered']} "
        f"posts={metrics['posts_routed']} "
        f"retransmits={metrics['retransmits']} "
        f"rehomes={metrics['rehomes']} "
        f"evictions={metrics['l0_evictions']} "
        f"peer_hits={metrics['peer_hits']} "
        f"wall={metrics['wall_s']:.2f}s"
    )
    report = perf.load_baseline(path) or {
        "version": perf.BENCH_VERSION, "workloads": {}}
    report.setdefault("workloads", {})["dist_storm"] = metrics
    perf.write_report(report, path)
    if trace_out:
        print(f"  merged cross-process trace written to {trace_out}")
    for violation in metrics["residency_violations"]:
        print(f"  VIOLATION: {violation}")
    ok = metrics["state_equal"] and not metrics["residency_violations"]
    verdict = "PASS" if ok else "FAIL (state diverged or residency violated)"
    print(f"[perf --backend dist {verdict}; {path} updated in {elapsed:.1f}s]")
    return 0 if ok else 1


def _verdict(label: str, reports: list, start: float) -> int:
    """Print each report and the PASS/FAIL line; the exit code."""
    elapsed = time.perf_counter() - start
    for report in reports:
        print(report.render())
    failed = sum(1 for r in reports if not r.ok)
    verdict = "PASS" if failed == 0 else f"FAIL ({failed}/{len(reports)})"
    print(f"[{label} {verdict} in {elapsed:.1f}s]")
    return 0 if failed == 0 else 1


def _reseeded(specs: list, seed: int) -> list:
    """The matrix with every storm's seed shifted by ``seed``."""
    from dataclasses import replace

    return [replace(s, storm=replace(s.storm, seed=s.storm.seed + seed))
            for s in specs]


def _chaos_dist(seed: int) -> int:
    from repro.testing.chaos import DIST_CHAOS_MATRIX, run_dist_chaos_matrix

    start = time.perf_counter()
    reports = run_dist_chaos_matrix(_reseeded(DIST_CHAOS_MATRIX, seed))
    return _verdict("chaos --backend dist", reports, start)


def _chaos(seed: int) -> int:
    from repro.testing.chaos import (
        CHAOS_MATRIX, run_chaos_matrix, run_serve_chaos_matrix,
        run_spec_chaos_matrix,
    )

    start = time.perf_counter()
    reports = run_chaos_matrix(_reseeded(CHAOS_MATRIX, seed))
    # The service cell (kill a mesh job mid-phase, resume from its last
    # boundary checkpoint) rides the same matrix and the same verdict,
    # as does the speculation cell (force every PR 9 speculation to roll
    # back and demand witness equality with the speculation-off run).
    reports.extend(run_serve_chaos_matrix())
    reports.extend(run_spec_chaos_matrix())
    return _verdict("chaos", reports, start)


def _serve(host: str, port: int, workers: int) -> int:
    """Run the mesh-generation service in the foreground."""
    from repro.serve import MeshServer

    server = MeshServer(host=host, port=port, workers=workers).start()
    bound_host, bound_port = server.address
    print(f"mrts-serve listening on {bound_host}:{bound_port} "
          f"({workers} job workers); ops: ping, submit, status, result, "
          f"list, metrics, cancel, shutdown")
    try:
        server.wait_stopped()
    except KeyboardInterrupt:
        print("\nmrts-serve: interrupt — draining")
        server.stop()
    return 0


def _serve_storm(
    seed: int, scale: float, check: bool, output: str | None,
    trace_out: str | None, workers: int,
) -> int:
    """Run the service_storm load generator; merge or gate like dist.

    Without ``--check`` the metrics are merged into the committed report
    (the simulator baselines are untouched); with ``--check`` they are
    gated against the baseline's ``service_storm`` entry — deterministic
    per-job virtual metrics at 10 %, wall jobs/sec and p99 behind loose
    floor/ceiling smoke gates.  ``all_finished`` and a zero invariant
    count are hard verdicts either way.
    """
    from repro import perf

    path = output or perf.BENCH_FILENAME
    start = time.perf_counter()
    metrics = perf.run_service_storm(
        seed=seed, scale=scale, workers=workers, trace_out=trace_out,
    )
    elapsed = time.perf_counter() - start
    print(
        f"  service_storm      jobs={metrics['jobs_completed']}"
        f"/{metrics['jobs_submitted']} "
        f"{metrics['jobs_per_sec']:.1f} jobs/s "
        f"p99={metrics['p99_latency_s'] * 1000:.0f}ms "
        f"(virtual p99={metrics['p99_latency_virtual_s']:.3f}s) "
        f"stored={metrics['bytes_stored']}B wall={metrics['wall_s']:.2f}s"
    )
    for failure in metrics["failures"]:
        print(f"  JOB FAILURE: {failure}")
    if trace_out:
        print(f"  per-job-lane trace written to {trace_out}")
    hard_ok = metrics["all_finished"] and not metrics["invariant_violations"]
    if check:
        baseline = perf.load_baseline(path)
        if baseline is None:
            print(f"[serve --storm FAIL: no baseline at {path}]")
            return 1
        failures = perf.check_against_baseline(
            {"workloads": {"service_storm": metrics}}, baseline
        )
        for failure in failures:
            print(f"  REGRESSION: {failure}")
        ok = hard_ok and not failures
        verdict = "PASS" if ok else "FAIL"
        print(f"[serve --storm --check {verdict} vs {path} "
              f"in {elapsed:.1f}s]")
        return 0 if ok else 1
    report = perf.load_baseline(path) or {
        "version": perf.BENCH_VERSION, "workloads": {}}
    report.setdefault("workloads", {})["service_storm"] = metrics
    perf.write_report(report, path)
    verdict = "PASS" if hard_ok else "FAIL (jobs failed)"
    print(f"[serve --storm {verdict}; {path} updated in {elapsed:.1f}s]")
    return 0 if hard_ok else 1


def _serve_soak(seed: int, workers: int) -> int:
    """Run the concurrent soak with exact per-job state oracles."""
    from repro.testing.service import run_soak

    start = time.perf_counter()
    report = run_soak(n_tenants=4, n_jobs=16, seed=seed, workers=workers)
    elapsed = time.perf_counter() - start
    print(report.render())
    verdict = "PASS" if report.ok else "FAIL"
    print(f"[serve --soak {verdict} in {elapsed:.1f}s]")
    return 0 if report.ok else 1


def _selftest(seed: int) -> int:
    from repro.testing import selftest

    start = time.perf_counter()
    return _verdict("selftest", selftest(seed=seed), start)


if __name__ == "__main__":
    sys.exit(main())
