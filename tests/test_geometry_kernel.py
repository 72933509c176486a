"""The three-stage predicate kernel against a rational-arithmetic oracle.

``test_geometry_predicates.py`` covers everyday inputs (|x| <= 1e6).
Here the stages are pushed where they can break: the whole finite float
range (subnormals, products that underflow near 1e-280, differences that
overflow near 1e308) and structured degenerate input (k/2**n lattice
points, axis-aligned and diagonal collinear triples, cocircular
quadruples) — exactly what block decompositions feed the mesher.
"""

import contextlib
import fractions

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import incircle_fraction, orient2d_fraction, sign
from repro.geometry import predicates, unit_square
from repro.geometry.batch import incircle_batch, orient2d_batch
from repro.geometry.predicates import (
    incircle,
    incircle_exact,
    orient2d,
    orient2d_exact,
)
from repro.pumg import run_updr

any_float = st.floats(allow_nan=False, allow_infinity=False)
any_point = st.tuples(any_float, any_float)

# k / 2**n: every coordinate, difference and (mostly) product is exact, so
# determinants that are zero come out as 0.0 rather than as noise.
lattice = st.builds(
    lambda k, n: k / 2.0 ** n, st.integers(-64, 64), st.integers(0, 6)
)
lattice_point = st.tuples(lattice, lattice)


@st.composite
def collinear_triples(draw):
    """Three lattice points on one axis-aligned or diagonal line."""
    (x, y), kind = draw(lattice_point), draw(st.sampled_from("hvd"))
    dx, dy = {"h": (1.0, 0.0), "v": (0.0, 1.0), "d": (1.0, 1.0)}[kind]
    ts = draw(st.lists(lattice, min_size=3, max_size=3))
    return tuple((x + t * dx, y + t * dy) for t in ts)


@st.composite
def cocircular_quadruples(draw):
    """Four lattice points on one circle: the corners of a rectangle, or
    points (+-p, +-q), (+-q, +-p) around a lattice center."""
    cx, cy = draw(lattice_point)
    p, q = draw(lattice), draw(lattice)
    if draw(st.booleans()):
        ring = [(p, q), (-p, q), (-p, -q), (p, -q)]
    else:
        ring = [(p, q), (-q, p), (-p, -q), (q, -p), (q, p), (-p, q)]
    picks = draw(st.permutations(ring))[:4]
    return tuple((cx + u, cy + v) for u, v in picks)


def _check_orient(a, b, c):
    expected = orient2d_fraction(a, b, c)
    assert sign(orient2d(a, b, c)) == expected
    assert orient2d_exact(a, b, c) == expected


def _check_incircle(a, b, c, d):
    expected = incircle_fraction(a, b, c, d)
    assert sign(incircle(a, b, c, d)) == expected
    assert incircle_exact(a, b, c, d) == expected


# ------------------------------------------------------- full float range
@settings(max_examples=300, deadline=None)
@given(a=any_point, b=any_point, c=any_point)
# a.x - c.x overflows to inf while the true left product is 2e-12.
@example(a=(1e308, 1.0), b=(0.0, 1e-320), c=(-1e308, 0.0))
# Both products underflow to 0.0 with no zero factor: not collinear.
@example(a=(1e-200, 0.0), b=(0.0, 1e-200), c=(-1e-200, -2e-200))
# One product is a true zero, the other underflows.
@example(a=(0.0, 1e-200), b=(1e-200, 5.0), c=(0.0, 0.0))
# 0 * inf: a true zero factor next to an overflowed difference.
@example(a=(3.0, 1e308), b=(3.0, -1e308), c=(3.0, 0.5))
def test_orient2d_matches_fraction_oracle_everywhere(a, b, c):
    _check_orient(a, b, c)


@settings(max_examples=300, deadline=None)
@given(a=any_point, b=any_point, c=any_point, d=any_point)
# A far vertex (lift 1e308) scales a subnormal cross product's error up.
@example(a=(1e154, 0.0), b=(1e-160, 0.0), c=(0.0, 3e-161), d=(0.0, 0.0))
@example(a=(1e-170, 0.0), b=(0.0, 1e-170), c=(-1e-170, 0.0), d=(0.0, -1e-170))
@example(a=(1e300, 0.0), b=(0.0, 1e300), c=(-1e300, 0.0), d=(0.0, 0.0))
def test_incircle_matches_fraction_oracle_everywhere(a, b, c, d):
    _check_incircle(a, b, c, d)


@settings(max_examples=200, deadline=None)
@given(
    p=any_point,
    scale=st.sampled_from([5e-324, 1e-300, 1e-160, 1e-3, 1.0, 1e150, 1e300]),
    offsets=st.lists(st.tuples(lattice, lattice), min_size=4, max_size=4),
)
def test_predicates_at_one_extreme_scale(p, scale, offsets):
    """Points close together at a scale where products under/overflow."""
    pts = [(u * scale, v * scale) for u, v in offsets]
    _check_orient(*pts[:3])
    _check_incircle(*pts)
    _check_orient(p, pts[0], pts[1])


# --------------------------------------------------- structured degenerate
@settings(max_examples=300, deadline=None)
@given(a=lattice_point, b=lattice_point, c=lattice_point, d=lattice_point)
def test_predicates_on_lattice_points(a, b, c, d):
    _check_orient(a, b, c)
    _check_incircle(a, b, c, d)


@settings(max_examples=200, deadline=None)
@given(collinear_triples())
def test_orient2d_on_collinear_lattice_triples(triple):
    assert orient2d(*triple) == 0.0
    _check_orient(*triple)


@settings(max_examples=200, deadline=None)
@given(cocircular_quadruples())
def test_incircle_on_cocircular_lattice_quadruples(quad):
    a, b, c, d = quad
    if orient2d_fraction(a, b, c) != 0:
        assert incircle(a, b, c, d) == 0.0
    _check_incircle(a, b, c, d)


# ------------------------------------------------------ which stage decides
@contextlib.contextmanager
def exact_stage_calls():
    """The names of what reaches stage 2 while the block runs (through the
    module-level names, which is also how the benchmark's tracer finds
    them)."""
    calls = []

    def counted(name, fn):
        return lambda *pts: calls.append(name) or fn(*pts)

    with pytest.MonkeyPatch.context() as mp:
        for name in ("orient2d_exact", "incircle_exact"):
            mp.setattr(predicates, name, counted(name, getattr(predicates, name)))
        yield calls


def test_zero_factors_and_general_position_never_reach_stage_two():
    with exact_stage_calls() as calls:
        # Stage 0: three points on a vertical and on a horizontal line.
        assert orient2d((0.5, 0.1), (0.5, 0.7), (0.5, 0.3)) == 0.0
        assert orient2d((0.1, 0.25), (0.9, 0.25), (0.3, 0.25)) == 0.0
        # One true-zero product: the other one is the determinant.
        assert orient2d((0.0, 0.0), (1.0, 0.0), (0.3, 0.7)) > 0
        assert orient2d((0.3, 0.5), (0.2, 0.9), (0.1, 0.5)) > 0
        # General position.
        assert orient2d((0.1, 0.2), (0.9, 0.3), (0.4, 0.8)) > 0
        assert incircle((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.1, 0.2)) > 0
    assert calls == []


def test_true_degeneracies_reach_stage_two():
    with exact_stage_calls() as calls:
        assert orient2d((0.1, 0.1), (0.3, 0.3), (0.2, 0.2)) == 0.0
        assert incircle((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)) == 0.0
    assert calls == ["orient2d_exact", "incircle_exact"]


# ------------------------------------------------- scalar filter == batch
@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(any_point, any_point, any_point, any_point),
            st.tuples(lattice_point, lattice_point, lattice_point, lattice_point),
            cocircular_quadruples(),
            collinear_triples().map(lambda t: t + (t[0],)),
        ),
        min_size=1, max_size=12,
    )
)
def test_batch_uncertain_mask_is_the_scalar_filters_verdict(rows):
    """One filter, two spellings: a row is ``uncertain`` in the batch
    kernels exactly when the scalar predicate goes to its exact stage."""
    cols = [np.array([row[k] for row in rows]) for k in range(4)]
    det_o, uncertain_o = orient2d_batch(*cols[:3])
    det_i, uncertain_i = incircle_batch(*cols)
    with exact_stage_calls() as calls:
        for k, (a, b, c, d) in enumerate(rows):
            calls.clear()
            scalar_o = orient2d(a, b, c)
            scalar_i = incircle(a, b, c, d)
            assert bool(uncertain_o[k]) == ("orient2d_exact" in calls)
            assert bool(uncertain_i[k]) == ("incircle_exact" in calls)
            if not uncertain_o[k]:
                assert sign(float(det_o[k])) == sign(scalar_o)
            if not uncertain_i[k]:
                assert sign(float(det_i[k])) == sign(scalar_i)


# ------------------------------------------------------------- no Fraction
def test_updr_run_constructs_no_fraction(monkeypatch):
    """Stage 2 is integer arithmetic: a whole UPDR run — block-boundary
    collinearities, cocircular lattice points and all — builds no
    ``Fraction`` anywhere."""
    built = []
    original = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    fractions.Fraction(1, 2)
    assert len(built) == 1  # the probe works
    res = run_updr(unit_square(), h=0.1, nx=3, ny=3)
    assert res.n_points > 50
    assert len(built) == 1
