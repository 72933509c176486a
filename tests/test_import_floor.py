"""No runtime import loads numpy.

numpy costs a process about 12 MiB of resident memory and a tenth of a
second of start-up, and no runtime path needs it: the two places that do
(the Figure 1 batch-queue model in ``repro.sim.scheduler`` and the mesh
refiner's vectorised scans) import it inside the functions that use it.
Each check runs in a fresh interpreter, so what another test imported
cannot hide or cause a load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

RUNTIME_MODULES = (
    "repro.core.runtime",
    "repro.sim",
    "repro.evalsim",
    "repro.pumg.driver",
    "repro.serve",
    "repro.testing",
    "repro.perf",
    "repro.cli",
)


def _fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return done.stdout


def test_runtime_imports_do_not_load_numpy():
    imports = "; ".join(f"import {m}" for m in RUNTIME_MODULES)
    out = _fresh(f"import sys; {imports}; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def test_job_mix_loads_numpy_on_demand():
    out = _fresh(
        "import json, sys\n"
        "from repro.sim.scheduler import synthetic_job_mix\n"
        "before = 'numpy' in sys.modules\n"
        "jobs = synthetic_job_mix(n_jobs=50, n_nodes=32, load=0.8, seed=3)\n"
        "print(json.dumps([before, 'numpy' in sys.modules,\n"
        "    [[j.arrival, j.nodes, j.runtime, j.walltime] for j in jobs]]))\n"
    )
    before, after, jobs = json.loads(out)
    assert (before, after) == (False, True)
    # The same mix as when numpy was imported at module top.
    assert len(jobs) == 50
    assert jobs[0] == [2326.865940126191, 1, 1448.7692177861409,
                       2841.7521336530544]
    assert jobs[-1] == [77839.37387462407, 2, 230.15148508414313,
                        333.77304513762937]
