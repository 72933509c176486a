"""Per-stage cost of the predicate kernel (ungated; read the numbers).

``bench/run.py`` reports what the predicates cost a whole UPDR run.  This
file times ``orient2d`` and ``incircle`` alone on the input classes that
end in different stages of :mod:`repro.geometry.predicates`, so a kernel
change has a number per stage without a suite run:

* ``general`` — random points: the float filter (stage 1) decides;
* ``axis_collinear`` — a, b, c on one grid line, as along a block
  boundary: ``orient2d`` ends in stage 0 (exact zero factors);
* ``diagonal_collinear`` — a, b, c on a lattice diagonal: no zero factor,
  so ``orient2d`` needs the exact integers of stage 2;
* ``cocircular_lattice`` — a rotated lattice square: ``incircle`` needs
  stage 2, ``orient2d`` of three corners is in general position.

    python -m pytest benchmarks/test_geometry_kernels.py \
        --benchmark-json geometry-kernels.json
"""

import random

import pytest

from repro.geometry.predicates import incircle, orient2d

N = 2000


def _general(rng):
    return tuple((rng.random(), rng.random()) for _ in range(4))


def _axis_collinear(rng):
    fixed, along = rng.randrange(64) / 64, rng.sample(range(64), 3)
    line = [(fixed, t / 64) for t in along]
    if rng.random() < 0.5:
        line = [p[::-1] for p in line]
    return (*line, (rng.random(), rng.random()))


def _diagonal_collinear(rng):
    x, y = rng.randrange(64) / 64, rng.randrange(64) / 64
    return (*((x + t / 64, y + t / 64) for t in rng.sample(range(64), 3)),
            (rng.random(), rng.random()))


def _cocircular_lattice(rng):
    cx, cy = rng.randrange(64) / 64, rng.randrange(64) / 64
    p, q = rng.randrange(1, 32) / 64, rng.randrange(1, 32) / 64
    return tuple(
        (cx + u, cy + v) for u, v in ((p, q), (-q, p), (-p, -q), (q, -p))
    )


CLASSES = {
    "general": _general,
    "axis_collinear": _axis_collinear,
    "diagonal_collinear": _diagonal_collinear,
    "cocircular_lattice": _cocircular_lattice,
}


@pytest.fixture(params=sorted(CLASSES))
def rows(request):
    rng = random.Random(request.param)
    return request.param, [CLASSES[request.param](rng) for _ in range(N)]


def test_orient2d_kernel(benchmark, rows):
    name, quads = rows

    def run():
        return [orient2d(a, b, c) for a, b, c, _d in quads]

    signs = benchmark(run)
    benchmark.extra_info.update(input_class=name, calls=N)
    if name.endswith("collinear"):
        assert not any(signs)
    else:
        assert all(signs)


def test_incircle_kernel(benchmark, rows):
    name, quads = rows

    def run():
        return [incircle(a, b, c, d) for a, b, c, d in quads]

    signs = benchmark(run)
    benchmark.extra_info.update(input_class=name, calls=N)
    if name == "cocircular_lattice":
        assert not any(signs)
