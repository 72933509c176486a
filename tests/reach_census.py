"""Reach census: which ``src/repro`` functions does each entry point call?

Runs every non-test entry point of the repository as a subprocess under
the profiler hook in ``tests/reach_hook/`` and writes ``tests/reach.json``,
which maps ``module:qualname`` of every ``def`` that something called to
the sorted list of entry-point groups that called it.
``tests/test_reach.py`` then requires every ``def`` under ``src/repro``
to be in that file or in its ``KEEP`` table.

Usage::

    python tests/reach_census.py              # all groups, ~10 min on 2 cores
    python tests/reach_census.py --runs 2     # union of two runs, diff shown
    python tests/reach_census.py --only selftest examples --out r.json
    python tests/reach_census.py --list

Reach depends on thread timing in the service groups, so two runs of one
tree may differ by a function or two; ``--runs 2`` unions them and prints
the difference.  A group that exits non-zero fails the census: a broken
entry point reaches less than a working one.

The ``jobspec-sweep`` and ``serve-session`` groups run bodies defined in
this file (``--body NAME``): every serve ``JobSpec`` method x geometry x
ghost sync x memory budget through ``run_job_solo``, and one ``MeshServer``
session that calls every protocol op.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "repro"
HOOK = Path(__file__).resolve().parent / "reach_hook"
DEFAULT_OUT = Path(__file__).resolve().parent / "reach.json"


def groups(tmp: Path) -> dict[str, list[list[str]]]:
    """Entry-point group -> the commands it runs (argv lists)."""
    sys.path.insert(0, str(SRC))
    from repro.cli import _TRACE_WORKLOADS

    py = sys.executable
    cli = [py, "-m", "repro.cli"]
    me = [py, str(Path(__file__).resolve())]
    return {
        "selftest": [cli + ["selftest"]],
        "chaos": [cli + ["chaos"]],
        "chaos-dist": [cli + ["chaos", "--backend", "dist"]],
        "perf": [cli + ["perf", "--output", str(tmp / "perf.json")]],
        "perf-check": [cli + ["perf", "--check"]],
        "perf-dist": [cli + ["perf", "--backend", "dist",
                             "--output", str(tmp / "perf-dist.json")]],
        "serve-storm": [cli + ["serve", "--storm",
                               "--output", str(tmp / "storm.json")]],
        "serve-soak": [cli + ["serve", "--soak"]],
        "trace": [cli + ["trace", w, "--out", str(tmp / f"trace-{w}.json")]
                  for w in _TRACE_WORKLOADS],
        "report": [cli + ["report", "BENCH_ooc.json", "BENCH_ooc.json"]],
        "all": [cli + ["all", "--scale", "0.25"]],
        "bench-quick": [[py, "bench/run.py", "--quick",
                         "--out", str(tmp / "bench.json")]],
        "examples": [[py, str(p)] for p in sorted(ROOT.glob("examples/*.py"))],
        "benchmarks": [[py, "-m", "pytest", str(ROOT / "benchmarks"), "-q",
                        "--benchmark-disable", "-p", "no:cacheprovider",
                        "--rootdir", str(ROOT)]],
        "jobspec-sweep": [me + ["--body", "jobspec-sweep"]],
        "serve-session": [me + ["--body", "serve-session"]],
    }


# ----------------------------------------------------------------- bodies
def _jobspec_sweep() -> int:
    from repro.serve.meshjob import GEOMETRIES, METHODS, JobSpec, run_job_solo

    failed = 0
    for method in METHODS:
        # mesh3d meshes the canonical box whatever the geometry says.
        geometries = ["unit_square"] if method == "mesh3d" else GEOMETRIES
        for geometry in geometries:
            for ghost_sync in (False, True):
                for memory_bytes in (1 << 20, 48 * 1024):
                    spec = JobSpec(method=method, geometry=geometry,
                                   ghost_sync=ghost_sync,
                                   memory_bytes=memory_bytes)
                    try:
                        runner = run_job_solo(spec)
                        verdict = f"ok n_points={runner._last_count}"
                    except Exception as exc:  # a failing input still reaches
                        failed += 1
                        verdict = f"FAILED {type(exc).__name__}: {exc}"
                    print(f"{method:6s} {geometry:16s} ghost={ghost_sync!s:5s} "
                          f"mem={memory_bytes:>7d} {verdict}", flush=True)
    print(f"[jobspec-sweep: {failed} failed]")
    return 0


def _serve_session() -> int:
    from repro.serve import AdmissionPolicy, MeshServer, ServiceClient

    # A soft limit of one default job's envelope queues the second job
    # until the first finishes, so the promotion path runs every time.
    policy = AdmissionPolicy(soft_residency_bytes=2 << 20,
                             hard_residency_bytes=2 << 20)
    server = MeshServer(port=0, workers=1, policy=policy).start()
    host, port = server.address
    with ServiceClient(host, port) as client:
        client.ping()
        first = client.submit({"method": "updr", "h": 0.3})["job_id"]
        second = client.submit({"method": "nupdr", "h": 0.3})["job_id"]
        third = client.submit({"method": "pcdm", "h": 0.3})["job_id"]
        client.cancel(third)
        for job_id in (first, second):
            client.wait(job_id)
            client.status(job_id)
            client.result(job_id)
        client.list_jobs()
        client.metrics()
        client.shutdown()
    server.wait_stopped(timeout=60)
    return 0


BODIES = {"jobspec-sweep": _jobspec_sweep, "serve-session": _serve_session}


# ----------------------------------------------------------------- census
def defs_under(pkg: Path = PKG) -> dict[str, str]:
    """``module:qualname`` of every ``def`` under ``pkg`` -> ``path:line``.

    Qualnames follow ``code.co_qualname``: methods are ``Class.name``,
    functions nested in a function are ``outer.<locals>.name``.
    """
    found: dict[str, str] = {}
    for path in sorted(pkg.rglob("*.py")):
        rel = path.relative_to(pkg.parent).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts.pop()
        module = ".".join(parts)

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    found[f"{module}:{qual}"] = (
                        f"{path.relative_to(ROOT)}:{child.lineno}")
                    visit(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def is_dunder(key: str) -> bool:
    name = key.rsplit(".", 1)[-1].rsplit(":", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def _module_key(name: str) -> str:
    """``mesh/refine.py:refine`` -> ``repro.mesh.refine:refine``."""
    path, qual = name.split(":", 1)
    parts = ["repro", *Path(path).with_suffix("").parts]
    if parts[-1] == "__init__":
        parts.pop()
    return f"{'.'.join(parts)}:{qual}"


class GroupFailed(Exception):
    """An entry point exited non-zero."""


def run_group(name: str, commands: list[list[str]], dump: Path) -> set[str]:
    dump.mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(HOOK), str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]),
        REPRO_REACH_DIR=str(dump),
        REPRO_REACH_SRC=str(PKG),
    )
    cwd = ROOT
    if name == "benchmarks":  # it writes JSON reports to its working dir
        cwd = dump.parent / f"{name}-cwd"
        cwd.mkdir()
    for argv in commands:
        proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout[-4000:])
            raise GroupFailed(f"{name}: {argv} exited {proc.returncode}")
    names: set[str] = set()
    for path in dump.glob("reach-*.json"):
        names.update(json.loads(path.read_text())["names"])
    return {_module_key(n) for n in names}


def census(selected: list[str], tmp: Path) -> dict[str, set[str]]:
    """One pass over ``selected`` groups -> def key -> groups reaching it.

    Lambdas, comprehensions, class bodies and dunders are not counted.
    """
    known = {k for k in defs_under() if not is_dunder(k)}
    table = groups(tmp)
    reach: dict[str, set[str]] = {}
    failed = []
    for name in selected:
        start = time.perf_counter()
        try:
            names = run_group(name, table[name], tmp / "dump" / name)
        except GroupFailed as exc:
            failed.append(str(exc))
            continue
        print(f"  {name:14s} {len(names & known):5d} defs  "
              f"{time.perf_counter() - start:6.1f} s", flush=True)
        for key in names:
            reach.setdefault(key, set()).add(name)
    if failed:
        raise SystemExit("reach census: failing entry points:\n  "
                         + "\n  ".join(failed))
    # A def edited away while the groups ran is not reported.
    known &= {k for k in defs_under() if not is_dunder(k)}
    return {key: hit for key, hit in reach.items() if key in known}


def write_reach(reach: dict, path: Path) -> None:
    """One ``"module:qualname": [groups]`` line per def, sorted."""
    rows = [f"{json.dumps(key)}: {json.dumps(sorted(hit))}"
            for key, hit in sorted(reach.items())]
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    ap.add_argument("--only", nargs="+", metavar="GROUP",
                    help="run only these groups")
    ap.add_argument("--runs", type=int, default=1,
                    help="union of this many whole censuses")
    ap.add_argument("--list", action="store_true", help="list the groups")
    ap.add_argument("--body", choices=sorted(BODIES), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.body:
        return BODIES[args.body]()
    names = list(groups(Path(".")))
    if args.list:
        print("\n".join(names))
        return 0
    if sys.version_info < (3, 11):
        ap.error("the census hook records code.co_qualname: Python 3.11+")
    selected = args.only or names
    unknown = set(selected) - set(names)
    if unknown:
        ap.error(f"unknown groups: {sorted(unknown)}")

    runs = []
    for run in range(args.runs):
        print(f"reach census run {run + 1}/{args.runs}:", flush=True)
        with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
            runs.append(census(selected, Path(tmp)))
    merged: dict[str, set[str]] = {}
    for reach in runs:
        for key, hit in reach.items():
            merged.setdefault(key, set()).update(hit)
    for i, reach in enumerate(runs[1:], start=2):
        only_first = sorted(set(runs[0]) - set(reach))
        only_this = sorted(set(reach) - set(runs[0]))
        print(f"run 1 vs run {i}: only in 1: {only_first or '-'}; "
              f"only in {i}: {only_this or '-'}")
    write_reach(merged, args.out)
    known = [k for k in defs_under() if not is_dunder(k)]
    print(f"{len(merged)} of {len(known)} non-dunder defs reached; "
          f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
