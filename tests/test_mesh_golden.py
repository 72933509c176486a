"""Golden mesh digests: every driver, two fixed inputs each.

A geometry-kernel or patch-representation change that is *only* faster
changes no predicate sign, hence no cavity, no inserted point and no
triangle.  These digests — SHA-256 over the sorted final point set and
the sorted triangle set (as coordinates, so vertex numbering is free to
change) — were recorded before the three-stage predicate kernel landed
and are the oracle for it and for columnar patches later (ROADMAP item 6).
Regenerate with ``python tests/test_mesh_golden.py`` only when a change is
*meant* to produce another mesh.
"""

import hashlib

import pytest

from repro.geometry import pipe_cross_section, unit_square
from repro.mesh3d import run_mesh3d
from repro.pumg import (
    default_cluster,
    run_nupdr,
    run_pcdm,
    run_updr,
    sequential_mesh,
)
from repro.testing.harness import FixedCostModel

GRADED = ("point_source", [((0.0, 0.0), 0.03)], 0.25, 0.3)
STARVED = 64 * 1024  # bytes per node: the out-of-core UPDR of the paper


def _cost():
    # The default cost model charges measured wall time, so the virtual
    # schedule — and out of core the mesh with it — would differ per run.
    return FixedCostModel(1e-4)


def mesh_digest(*meshes) -> str:
    """SHA-256 of the sorted points and sorted triangles of ``meshes``."""
    h = hashlib.sha256()
    for tri in meshes:
        points = sorted(tri.points[3:])
        triangles = sorted(
            tuple(sorted(tri.coords(t))) for t in tri.triangles()
        )
        h.update(repr((points, triangles)).encode())
    return h.hexdigest()


def _updr(pslg, h, n, memory_bytes=1 << 26):
    res = run_updr(
        pslg, h=h, nx=n, ny=n,
        cluster=default_cluster(memory_bytes=memory_bytes),
        cost_model=_cost(),
    )
    return mesh_digest(res.final_mesh)


def _nupdr(pslg, spec, granularity):
    res = run_nupdr(pslg, spec, granularity=granularity, cost_model=_cost())
    return mesh_digest(res.final_mesh)


def _pcdm(pslg, h, n_parts):
    res = run_pcdm(pslg, h=h, n_parts=n_parts, cost_model=_cost())
    return mesh_digest(*(o.tri for o in res.extras["subdomain_objects"]))


def _sequential(pslg, spec):
    return mesh_digest(sequential_mesh(pslg, spec))


def _mesh3d(spec, n):
    res = run_mesh3d(spec, nx=n, ny=n, nz=n, cost_model=_cost())
    witness = res.scenario.witness(res.runtime)
    return hashlib.sha256(repr(witness).encode()).hexdigest()


CASES = {
    "updr-square": (_updr, unit_square(), 0.1, 3),
    "updr-pipe": (_updr, pipe_cross_section(24), 0.2, 2),
    "oupdr-square": (_updr, unit_square(), 0.1, 3, STARVED),
    "oupdr-square-fine": (_updr, unit_square(), 0.05, 4, STARVED),
    "nupdr-graded": (_nupdr, unit_square(), GRADED, 6.0),
    "nupdr-uniform": (_nupdr, unit_square(), ("uniform", 0.12), 8.0),
    "pcdm-square": (_pcdm, unit_square(), 0.08, 4),
    "pcdm-pipe": (_pcdm, pipe_cross_section(24), 0.15, 4),
    "sequential-square": (_sequential, unit_square(), ("uniform", 0.05)),
    "sequential-pipe": (_sequential, pipe_cross_section(24), GRADED),
    "mesh3d-uniform": (_mesh3d, ("layered", 0.3, 0.3), 2),
    "mesh3d-layered": (_mesh3d, ("layered", 0.08, 0.6), 2),
}

GOLDEN = {
    "updr-square":
        "dbd0ca0cc17ba5147d6edc7ae64fa9db19d7bb66a84ab862026c8889bc83ab56",
    "updr-pipe":
        "164baa22d26e9832e3b43783263557f46f9249077db95161f37fbaf5de6b21fa",
    "oupdr-square":
        "dbd0ca0cc17ba5147d6edc7ae64fa9db19d7bb66a84ab862026c8889bc83ab56",
    "oupdr-square-fine":
        "cc883de26b7a6da70bb21730336aa484e9ba060afe585a85c3d038dfb3f5ca56",
    "nupdr-graded":
        "093db6beb83d08f239d84531fe51794c185aded40de89b939e3f269fdbe58965",
    "nupdr-uniform":
        "095ccd5a8d686e62350fabc01d76833a5b72e986745de26778ad465980f41aa8",
    "pcdm-square":
        "fe2d4d0525652bbdc3db8dcd9c7099642b180c1b92bd6833c48e42ca9d53f97f",
    "pcdm-pipe":
        "2e6feeede6ec1c8bd4ac5bd14ffa73199e2bde339de5840bab729afd37bd2e5f",
    "sequential-square":
        "090feb9eba864577fe498d84862129e66cb705a41ae46c8a1688c056641d1385",
    "sequential-pipe":
        "003bde8e93cd53d9fd957e027083876cc4b35a8a0404fd3dd21acf6c4167cb1c",
    "mesh3d-uniform":
        "9a328176100c6c4ac0b749fdda8f34f1ea03f69bf938b76400319668808435bd",
    "mesh3d-layered":
        "5251c17de30a7172d1b2d09c17ef7deea61bf1f591a94983cd4394f9b8642a96",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_mesh_digest_is_golden(case):
    fn, *args = CASES[case]
    assert fn(*args) == GOLDEN[case]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in CASES:
        fn, *args = CASES[name]
        print(f'    "{name}":\n        "{fn(*args)}",')
    print("}")
