"""Tests for robust geometric predicates."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    circumcenter,
    circumradius_sq,
    dist_sq,
    incircle,
    incircle_exact,
    orient2d,
    orient2d_exact,
    segments_intersect,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
pts = st.tuples(finite, finite)


def test_orient2d_basic_signs():
    assert orient2d((0, 0), (1, 0), (0, 1)) > 0      # ccw
    assert orient2d((0, 0), (0, 1), (1, 0)) < 0      # cw
    assert orient2d((0, 0), (1, 1), (2, 2)) == 0     # collinear


def test_orient2d_near_degenerate_matches_exact():
    """The float filter must agree with exact arithmetic near zero."""
    a = (0.1, 0.1)
    b = (0.3, 0.3)
    # Points a hair off the line y=x.
    for eps in (1e-18, 1e-16, 1e-14, 0.0, -1e-16):
        c = (0.2, 0.2 + eps)
        fast = orient2d(a, b, c)
        exact = orient2d_exact(a, b, c)
        assert (fast > 0) == (exact > 0)
        assert (fast < 0) == (exact < 0)
        assert (fast == 0) == (exact == 0)


@given(a=pts, b=pts, c=pts)
def test_orient2d_sign_matches_exact(a, b, c):
    fast = orient2d(a, b, c)
    exact = orient2d_exact(a, b, c)
    assert (fast > 0) == (exact > 0)
    assert (fast < 0) == (exact < 0)


@given(a=pts, b=pts, c=pts)
def test_orient2d_antisymmetry(a, b, c):
    """Swapping two arguments flips the sign."""
    s1 = orient2d(a, b, c)
    s2 = orient2d(b, a, c)
    assert (s1 > 0) == (s2 < 0)
    assert (s1 == 0) == (s2 == 0)


def test_incircle_basic():
    # Unit circle through these three ccw points.
    a, b, c = (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)
    assert incircle(a, b, c, (0.0, 0.0)) > 0      # center is inside
    assert incircle(a, b, c, (2.0, 0.0)) < 0      # outside
    assert incircle(a, b, c, (0.0, -1.0)) == 0    # on the circle


def test_incircle_cocircular_exact_fallback():
    a, b, c = (0.0, 0.0), (1.0, 0.0), (1.0, 1.0)
    d = (0.0, 1.0)  # exactly cocircular (unit square)
    assert incircle(a, b, c, d) == 0
    assert incircle_exact(a, b, c, d) == 0


@given(a=pts, b=pts, c=pts, d=pts)
def test_incircle_sign_matches_exact(a, b, c, d):
    fast = incircle(a, b, c, d)
    exact = incircle_exact(a, b, c, d)
    assert (fast > 0) == (exact > 0)
    assert (fast < 0) == (exact < 0)


def test_circumcenter_equidistant():
    a, b, c = (0.0, 0.0), (4.0, 0.0), (0.0, 3.0)
    cc = circumcenter(a, b, c)
    assert dist_sq(cc, a) == pytest.approx(dist_sq(cc, b))
    assert dist_sq(cc, a) == pytest.approx(dist_sq(cc, c))


@given(a=pts, b=pts, c=pts)
def test_circumcenter_equidistant_property(a, b, c):
    if orient2d(a, b, c) == 0:
        return  # degenerate: no circumcenter
    cc = circumcenter(a, b, c)
    r2 = dist_sq(cc, a)
    longest = max(dist_sq(a, b), dist_sq(b, c), dist_sq(c, a))
    shortest = min(dist_sq(a, b), dist_sq(b, c), dist_sq(c, a))
    if longest == 0 or r2 > 1e4 * longest or shortest < 1e-12 * longest:
        return  # (near-)needle triangle: float circumcenter loses accuracy
    scale = max(r2, 1.0)
    assert dist_sq(cc, b) == pytest.approx(r2, rel=1e-5, abs=1e-5 * scale)
    assert dist_sq(cc, c) == pytest.approx(r2, rel=1e-5, abs=1e-5 * scale)


def test_circumcenter_underflow_regression():
    """Cross product underflows to float 0 on this exactly-ccw triangle.

    Hypothesis found it crashing with ZeroDivisionError; the exact-
    arithmetic fallback must produce a finite, equidistant center here
    (the coordinates are tiny, so the center is representable).
    """
    a = (0.0, 0.0)
    b = (0.0, 1.8789180290781633e-177)
    c = (7.0838981334494475e-168, 0.0)
    assert orient2d(a, b, c) != 0
    cc = circumcenter(a, b, c)
    assert all(math.isfinite(x) for x in cc)
    # Equidistance holds exactly at this scale (coordinates are powers of
    # the inputs; compare with a wide relative tolerance).
    assert dist_sq(cc, a) == pytest.approx(dist_sq(cc, b), rel=1e-6)
    assert dist_sq(cc, a) == pytest.approx(dist_sq(cc, c), rel=1e-6)


def test_circumcenter_collinear_raises_even_when_tiny():
    """Truly collinear input still raises, including at underflow scale."""
    with pytest.raises(ZeroDivisionError):
        circumcenter((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))
    with pytest.raises(ZeroDivisionError):
        circumcenter((0.0, 0.0), (1e-200, 1e-200), (2e-200, 2e-200))


def test_circumcenter_far_center_saturates_to_inf():
    """A needle triangle whose exact center exceeds float range gives inf."""
    cc = circumcenter((0.0, 0.0), (1e-300, 5e-324), (2e-300, 0.0))
    assert any(math.isinf(x) for x in cc) or all(math.isfinite(x) for x in cc)
    # Whatever the magnitude, the call must not raise.


def test_circumradius_sq_equilateral():
    h = math.sqrt(3) / 2
    r2 = circumradius_sq((0, 0), (1, 0), (0.5, h))
    assert r2 == pytest.approx(1.0 / 3.0)


def test_segments_intersect_crossing():
    assert segments_intersect((0, 0), (1, 1), (0, 1), (1, 0))
    assert segments_intersect((0, 0), (1, 1), (0, 1), (1, 0), proper_only=True)


def test_segments_intersect_disjoint():
    assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))


def test_segments_intersect_shared_endpoint():
    assert segments_intersect((0, 0), (1, 0), (1, 0), (1, 1))
    assert not segments_intersect((0, 0), (1, 0), (1, 0), (1, 1), proper_only=True)


def test_segments_intersect_touching_midpoint():
    # q1 touches the middle of p1p2.
    assert segments_intersect((0, 0), (2, 0), (1, 0), (1, 1))
    assert not segments_intersect((0, 0), (2, 0), (1, 0), (1, 1), proper_only=True)


def test_segments_collinear_overlap():
    assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))
    assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))


@given(p1=pts, p2=pts, q1=pts, q2=pts)
def test_segments_intersect_symmetry(p1, p2, q1, q2):
    assert segments_intersect(p1, p2, q1, q2) == segments_intersect(q1, q2, p1, p2)
