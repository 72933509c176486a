"""Every ``def`` under ``src/repro`` is reached by an entry point or kept on purpose.

``tests/reach.json`` is the reach census: which functions the repository's
non-test entry points call (``mrts-bench`` verbs, ``bench/run.py
--quick``, the examples, ``pytest benchmarks``, every serve ``JobSpec``
and one service session).  Regenerate it with
``python tests/reach_census.py`` (see that script).  This test is AST
only and fails on

* a ``def`` neither in the census nor in :data:`KEEP` — a new function
  that nothing but its own tests calls, or code a change made dead;
* a census or ``KEEP`` key that names no ``def`` any more;
* a ``KEEP`` entry without one of :data:`CATEGORIES` and a reason.

Dunder methods are exempt.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reach_census import HOOK, PKG, ROOT, defs_under, is_dunder

REACH = Path(__file__).resolve().parent / "reach.json"
REGENERATE = ("python tests/reach_census.py --runs 2   "
              "(about 20 min on two cores; the union of two runs)")

CATEGORIES = {
    "interface": "a method of an abstract base, or an override that lets "
                 "the class stand in the stack or act as a test fake",
    "bench": "imported or bound by the frozen bench/",
    "rare": "the only path for a named fault or input class",
    "paper-api": "the paper's section II API on HandlerContext / MRTS",
    "testing": "repro.testing: harness, invariants, reference models",
    "probe": "a read-only accessor that tests of reached code observe",
    "roadmap": "the named consumer of an open ROADMAP item",
}

# key -> (category, reason).  A key is ``module:qualname``, a
# ``module:Class.*`` prefix, or a bare module/package prefix.
KEEP: dict[str, tuple[str, str]] = {
    # ---------------------------------------------------------- testing
    "repro.testing": ("testing", "harness, invariants and reference "
                      "models; reached by tests and by selftest/chaos"),
    # -------------------------------------------------------- interface
    "repro.core.codec:AppendStateCodec.decode_items": (
        "interface", "abstract item hook; MeshPatchCodec and "
        "BytesAppendCodec override it"),
    "repro.core.codec:AppendStateCodec.encode_items": (
        "interface", "abstract item hook, overridden by both append codecs"),
    "repro.core.codec:AppendStateCodec.item_nbytes": (
        "interface", "abstract item hook, overridden by both append codecs"),
    "repro.core.codec:AppendStateCodec.join_items": (
        "interface", "abstract item hook, overridden by both append codecs"),
    "repro.core.mobile:MobileObject.nbytes": (
        "interface", "default size hint; application objects override it"),
    "repro.core.messages:MulticastMessage.nbytes": (
        "interface", "Message.nbytes for the multicast record"),
    "repro.core.mobile:Serializer.*": (
        "interface", "the codec interface every registered codec implements"),
    "repro.core.storage:StorageBackend.*": (
        "interface", "the abstract storage-backend surface"),
    "repro.core.storage:FileBackend.append": (
        "interface", "StorageBackend override; examples spill to files"),
    "repro.core.storage:FileBackend.contains": (
        "interface", "StorageBackend override"),
    "repro.core.storage:FileBackend.size": (
        "interface", "StorageBackend override"),
    "repro.core.storage:MemoryBackend.delete": (
        "interface", "StorageBackend override of the default test medium"),
    "repro.core.storage:MemoryBackend.stored_ids": (
        "interface", "StorageBackend override of the default test medium"),
    "repro.core.storage:CompressingBackend.load": (
        "interface", "StorageBackend override; the runtime loads segments"),
    "repro.core.storage:CountingBackend.load": (
        "interface", "StorageBackend override; the runtime loads segments"),
    "repro.core.storage:RetryingBackend.load_segments": (
        "interface", "StorageBackend override under the checksummed layer"),
    "repro.core.packfile:PackFileBackend.largest_object": (
        "interface", "StorageBackend override"),
    "repro.core.remote_memory:RemoteMemoryBackend.*": (
        "interface", "StorageBackend overrides of the remote-memory tier"),
    "repro.core.remote_memory:MemoryPool.append": (
        "interface", "backs RemoteMemoryBackend.append"),
    "repro.core.remote_memory:MemoryPool.drop": (
        "interface", "backs RemoteMemoryBackend.delete and the peer tier"),
    "repro.dist.store:PeerTier.*": (
        "interface", "StorageBackend overrides of the dist peer tier"),
    "repro.core.swapping:SwapScheme.*": (
        "interface", "swap-scheme base hooks; the five schemes override them"),
    "repro.core.computing:TaskScheduler.schedule": (
        "interface", "abstract; the three Table VII policies override it"),
    "repro.pumg.scenario:MeshScenario.build": (
        "interface", "scenario hook; UPDR/NUPDR/PCDM scenarios override it"),
    "repro.pumg.scenario:MeshScenario.extras": (
        "interface", "scenario hook; the method scenarios override it"),
    "repro.pumg.scenario:MeshScenario.validation_summary": (
        "interface", "scenario hook behind JobSpec(validate=True)"),
    "repro.dist.worker:DistHandlerContext.grew": (
        "interface", "HandlerContext.grew on a dist worker (a no-op)"),
    # ------------------------------------------------------------ bench
    "repro.core.storage:ChecksummedBackend.*": (
        "bench", "bench/layers.py binds the checksummed layer's methods"),
    # ------------------------------------------------------------- rare
    "repro.cli:_serve": (
        "rare", "`mrts-bench serve` in the foreground; the census drives "
        "the same MeshServer in-process"),
    "repro.core.recovery:RecoveryPolicy._install_recovery_source."
    "<locals>.lookup": (
        "rare", "repairs a corrupt load from the last checkpoint"),
    "repro.core.checkpoint:Checkpoint.payload_for": (
        "rare", "the corrupt-load fallback's checkpoint lookup"),
    "repro.core.stats:Ledger.corrupt": (
        "rare", "accounts a CorruptObject load"),
    "repro.geometry.predicates:_circumcenter_exact": (
        "rare", "exact circumcenter when the float one is degenerate"),
    "repro.geometry.predicates:_clamp_float": (
        "rare", "rounding of an exact circumcenter back to float"),
    "repro.geometry.predicates:_on_segment": (
        "rare", "collinear touching case of segments_intersect"),
    "repro.mesh.triangulation:Triangulation._param_on_segment": (
        "rare", "a vertex exactly on a constrained segment being inserted"),
    "repro.pumg.scenario:_RegionScenario.validation_summary": (
        "rare", "JobSpec(validate=True): final mesh quality in the reply"),
    "repro.serve.protocol:error_reply": (
        "rare", "the reply to a malformed or failing request"),
    "repro.serve.client:ServiceClient.send_raw": (
        "rare", "the only client path for a frame the server must reject"),
    "repro.serve.client:ServiceClient.read_reply": (
        "rare", "reads the server's answer to a raw frame"),
    # -------------------------------------------------------- paper-api
    "repro.core.computing:HandlerContext.create": (
        "paper-api", "create a mobile object from a handler"),
    "repro.core.computing:HandlerContext.destroy": (
        "paper-api", "destroy a mobile object from a handler"),
    "repro.core.computing:HandlerContext.lock": (
        "paper-api", "pin an object in core"),
    "repro.core.computing:HandlerContext.unlock": (
        "paper-api", "release a pin"),
    "repro.core.computing:HandlerContext.report_size": (
        "paper-api", "tell the out-of-core layer an object's new size"),
    "repro.core.computing:HandlerContext.run_tasks": (
        "paper-api", "run a handler's child tasks on the node's cores"),
    "repro.core.runtime:MRTS.destroy_object": (
        "paper-api", "the destroy path behind HandlerContext.destroy"),
    "repro.core.directory:Directory.unregister": (
        "paper-api", "destroy path: the object leaves the directory"),
    "repro.core.spec:SpeculationManager.forget": (
        "paper-api", "destroy path: pending speculative effects evaporate"),
    # ------------------------------------------------------------ probe
    "repro.core.balancer:BalanceReport.n_migrations": (
        "probe", "migrations in a balancer report"),
    "repro.core.checkpoint:Checkpoint.n_objects": (
        "probe", "objects in a snapshot"),
    "repro.core.checkpoint:Checkpoint.pending_messages": (
        "probe", "messages in a snapshot"),
    "repro.core.computing:HandlerContext.now": (
        "probe", "virtual time inside a handler"),
    "repro.core.computing:ScheduleResult.utilization": (
        "probe", "busy share of a Table VII schedule"),
    "repro.core.computing:Task.critical_path": (
        "probe", "lower bound a Table VII schedule is checked against"),
    "repro.core.computing:Task.total_work": (
        "probe", "work a Table VII schedule is checked against"),
    "repro.core.messages:MessageQueue.peek": (
        "probe", "head of a node's message queue"),
    "repro.core.ooc:OOCLayer.hard_threshold": (
        "probe", "the hard swapping threshold"),
    "repro.core.ooc:OOCLayer.soft_threshold": (
        "probe", "the soft swapping threshold"),
    "repro.core.ooc:OOCLayer.is_dirty": (
        "probe", "whether an object's stored copy is stale"),
    "repro.core.packfile:PackFileBackend.total_bytes": (
        "probe", "bytes the pack file holds"),
    "repro.core.recovery:RecoveryPolicy.latest": (
        "probe", "the last checkpoint a supervisor took"),
    "repro.core.remote_memory:MemoryPool.evict_candidates": (
        "probe", "which entries the pool would demote"),
    "repro.core.runtime:MRTS.degraded": (
        "probe", "whether a node runs in degraded mode"),
    "repro.core.runtime:MRTS.object_location": (
        "probe", "the node an object lives on"),
    "repro.core.stats:RunStats.comm_time": (
        "probe", "communication seconds of a run"),
    "repro.core.stats:RunStats.disk_time": (
        "probe", "disk seconds of a run"),
    "repro.core.stats:RunStats.spec_commit_rate": (
        "probe", "speculation commit share of a run"),
    "repro.mesh.quadtree:QuadTree.node": (
        "probe", "a quadtree leaf by id"),
    "repro.obs.events:Subscription.attached": (
        "probe", "whether a subscription still listens"),
    "repro.obs.metrics:_Metric.*": (
        "probe", "metric values, labels and snapshots"),
    "repro.obs.metrics:MetricsRegistry.snapshot": (
        "probe", "every metric at once"),
    "repro.obs.metrics:MetricsRegistry.to_json": (
        "probe", "every metric as JSON"),
    "repro.pumg.ghost:GhostTable.version_of": (
        "probe", "the version stamp of a ghost copy"),
    "repro.pumg.nupdr:RefinementQueueObject.idle": (
        "probe", "whether the NUPDR queue has drained"),
    "repro.serve.admission:AdmissionController.observed_bytes": (
        "probe", "residency the controller last observed"),
    "repro.serve.admission:AdmissionController.queued": (
        "probe", "jobs waiting for admission"),
    "repro.serve.admission:AdmissionController.tenant_stored_bytes": (
        "probe", "a tenant's spilled bytes against its quota"),
    "repro.serve.admission:AdmissionDecision.admitted": (
        "probe", "whether a decision admits"),
    "repro.sim.engine:Engine.peek": (
        "probe", "time of the next scheduled event"),
    # ---------------------------------------------------------- roadmap
    "repro.obs.analysis:critical_path": (
        "roadmap", "item 12(a): critical_path attributes segments to layers"),
    "repro.obs.analysis:utilization_report": (
        "roadmap", "item 12: per-layer utilization from the event stream"),
    "repro.obs.analysis:_union_length": (
        "roadmap", "item 12: helper of utilization_report"),
}


def _matches(pattern: str, key: str) -> bool:
    if ":" not in pattern:  # module or package prefix
        module = key.split(":", 1)[0]
        return module == pattern or module.startswith(pattern + ".")
    if pattern.endswith(".*"):
        return key.startswith(pattern[:-1])
    # A kept function keeps the functions nested in it.
    return key == pattern or key.startswith(pattern + ".<locals>.")


@pytest.fixture(scope="module")
def defs() -> dict[str, str]:
    return {k: v for k, v in defs_under().items() if not is_dunder(k)}


@pytest.fixture(scope="module")
def reach() -> dict[str, list[str]]:
    if not REACH.exists():
        pytest.fail(f"no reach census at {REACH}; run: {REGENERATE}")
    return json.loads(REACH.read_text(encoding="utf-8"))


def test_every_def_is_reached_or_kept(defs, reach):
    missing = sorted(
        key for key in defs
        if key not in reach and not any(_matches(p, key) for p in KEEP)
    )
    assert not missing, (
        f"{len(missing)} def(s) under src/repro no entry point reaches and "
        "KEEP does not list — delete each with its tests, or add it to "
        f"KEEP with a category; regenerate the census with {REGENERATE}:\n"
        + "\n".join(f"  {key}  ({defs[key]})" for key in missing)
    )


def test_census_names_only_existing_defs(defs, reach):
    stale = sorted(key for key in reach if key not in defs)
    assert not stale, (
        f"reach.json names defs that are gone; regenerate it with "
        f"{REGENERATE}:\n" + "\n".join(f"  {key}" for key in stale)
    )


def test_keep_names_only_existing_defs(defs):
    stale = sorted(p for p in KEEP if not any(_matches(p, k) for k in defs))
    assert not stale, "KEEP entries that match no def:\n" + "\n".join(
        f"  {p}" for p in stale)


def test_keep_entries_have_a_category_and_a_reason():
    bad = {p: v for p, v in KEEP.items()
           if v[0] not in CATEGORIES or not v[1].strip()}
    assert not bad, bad


# The hook records ``code.co_qualname``, which Python 3.11 introduced.
needs_qualname = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="code.co_qualname is 3.11+")


def _hooked(code: str, tmp_path: Path) -> subprocess.CompletedProcess:
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(HOOK), str(ROOT / "src")]),
        REPRO_REACH_DIR=str(tmp_path),
        REPRO_REACH_SRC=str(PKG),
    )
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


@needs_qualname
def test_census_hook_records_calls_under_src(tmp_path):
    proc = _hooked("from repro.util.fmt import human_bytes; human_bytes(2048)",
                   tmp_path)
    assert proc.returncode == 0, proc.stderr
    (dump,) = tmp_path.glob("reach-*.json")
    assert "util/fmt.py:human_bytes" in json.loads(dump.read_text())["names"]


@needs_qualname
def test_census_hook_refuses_a_replaced_profiler(tmp_path):
    """A profiler that something else replaced records nothing from then
    on: the dump must fail loudly rather than write a short list."""
    proc = _hooked("import sys; sys.setprofile(None)", tmp_path)
    assert proc.returncode != 0
    assert "profiler was replaced" in proc.stderr
    assert not list(tmp_path.glob("reach-*.json"))


def test_nupdr_circle_job_reaches_cdt_corridor_recovery(monkeypatch):
    """Only the serve JobSpec sweep reaches the CDT corridor recovery
    (``_insert_subsegment`` -> ``_collect_corridor`` ->
    ``_triangulate_pseudopolygon``), and only through this input: pin it,
    so the census's reason to keep those 196 lines cannot go stale."""
    from repro.mesh.triangulation import Triangulation
    from repro.serve.meshjob import JobSpec, run_job_solo

    calls = []
    collect = Triangulation._collect_corridor

    def counting(self, *args, **kwargs):
        calls.append(args)
        return collect(self, *args, **kwargs)

    monkeypatch.setattr(Triangulation, "_collect_corridor", counting)
    run_job_solo(JobSpec(method="nupdr", geometry="circle"))
    assert calls
