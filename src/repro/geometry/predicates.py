"""Robust 2D geometric predicates.

Delaunay refinement lives and dies by the correctness of two predicates:

* ``orient2d(a, b, c)`` — sign of the signed area of triangle *abc*;
* ``incircle(a, b, c, d)`` — whether *d* lies inside the circumcircle of
  the (counterclockwise) triangle *abc*.

Each is decided by the first of three stages that can certify the sign:

0. **Exact zero factors** (``orient2d``).  ``x - y == 0.0`` holds in IEEE
   arithmetic iff ``x == y``, so a product with a zero coordinate
   difference is a true zero, never an underflow.  When both products of
   the determinant hold one it is exactly 0; when one does, the
   determinant is the other product, which stage 1 certifies at once.
   Axis-aligned block boundaries make these the common degenerate cases.
1. **Float filter.**  Shewchuk's A-stage: the float determinant with a
   forward error bound, plus an absolute term for products that
   underflowed.  Overflow turns the bound into inf or nan and fails it.
2. **Exact integers.**  Every float is a dyadic rational, so
   ``float.as_integer_ratio()`` scaled to one common power-of-two
   denominator gives Python ints and the determinant's sign with no gcd
   and no :class:`fractions.Fraction`.  Only truly near-degenerate input
   (cocircular lattice points, diagonal collinear triples) gets here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

__all__ = [
    "orient2d",
    "incircle",
    "orient2d_exact",
    "incircle_exact",
    "circumcenter",
    "circumradius_sq",
    "dist_sq",
    "segments_intersect",
]

Point = Tuple[float, float]

# Forward error coefficients of the A-stage filter (Shewchuk, "Adaptive
# Precision Floating-Point Arithmetic and Fast Robust Geometric
# Predicates", 1997), epsilon = 2**-53.
_EPS = 1.1102230246251565e-16
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS
# Those bounds assume no underflow.  A product that underflows is off by
# up to 2**-1075 absolutely instead; this slack (times the lifts, which
# scale such an error in ``incircle``) covers every one of them and
# vanishes next to any bound that was computed without underflow.
_UNDERFLOW = 1e-300


def orient2d(a: Point, b: Point, c: Point) -> float:
    """Return >0 if a,b,c are counterclockwise, <0 clockwise, 0 collinear.

    The magnitude (when the filter passes) equals twice the signed area.
    """
    acx = a[0] - c[0]
    bcy = b[1] - c[1]
    acy = a[1] - c[1]
    bcx = b[0] - c[0]
    detleft = acx * bcy
    detright = acy * bcx
    det = detleft - detright
    if detleft > 0.0:
        if detright < 0.0:
            return det
        detsum = detleft + detright
    elif detleft < 0.0:
        if detright > 0.0:
            return det
        detsum = -detleft - detright
    else:
        # Stage 0: detleft is a true zero or an underflow (or 0 * inf).
        if (acx == 0.0 or bcy == 0.0) and (acy == 0.0 or bcx == 0.0):
            return 0.0
        detsum = abs(detright)
    if abs(det) > _CCW_BOUND * detsum + _UNDERFLOW:
        return det
    return float(orient2d_exact(a, b, c))


def _common_ints(*coords: float) -> list[int]:
    """The coordinates as integers over one power-of-two denominator."""
    ratios = [x.as_integer_ratio() for x in coords]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios]


def orient2d_exact(a: Point, b: Point, c: Point) -> int:
    """Exact orientation sign via integer arithmetic: -1, 0, or +1."""
    ax, ay, bx, by, cx, cy = _common_ints(*a, *b, *c)
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)


def incircle(a: Point, b: Point, c: Point, d: Point) -> float:
    """Return >0 if d is strictly inside the circumcircle of ccw abc.

    <0 outside, 0 cocircular.  For a *clockwise* abc the sign flips, so
    callers must pass counterclockwise triangles (asserted throughout the
    mesh code).
    """
    adx = a[0] - d[0]
    ady = a[1] - d[1]
    bdx = b[0] - d[0]
    bdy = b[1] - d[1]
    cdx = c[0] - d[0]
    cdy = c[1] - d[1]

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady

    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy

    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )

    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    if abs(det) > _ICC_BOUND * permanent + _UNDERFLOW * (
        1.0 + alift + blift + clift
    ):
        return det
    return float(incircle_exact(a, b, c, d))


def incircle_exact(a: Point, b: Point, c: Point, d: Point) -> int:
    """Exact incircle sign via integer arithmetic: -1, 0, or +1."""
    ax, ay, bx, by, cx, cy, dx, dy = _common_ints(*a, *b, *c, *d)
    ax, ay, bx, by = ax - dx, ay - dy, bx - dx, by - dy
    cx, cy = cx - dx, cy - dy
    det = (
        (ax * ax + ay * ay) * (bx * cy - cx * by)
        + (bx * bx + by * by) * (cx * ay - ax * cy)
        + (cx * cx + cy * cy) * (ax * by - bx * ay)
    )
    return (det > 0) - (det < 0)


def circumcenter(a: Point, b: Point, c: Point) -> Point:
    """Circumcenter of a non-degenerate triangle.

    Raises :class:`ZeroDivisionError` for collinear input — callers check
    orientation first.  When the float cross product underflows to zero on
    a triangle that is *exactly* non-degenerate (tiny coordinates), the
    computation falls back to rational arithmetic; coordinates too large
    for a float come back as ±inf, which callers already guard with
    ``isfinite`` (see :func:`dist_sq`).
    """
    d = 2.0 * ((a[0] - c[0]) * (b[1] - c[1]) - (a[1] - c[1]) * (b[0] - c[0]))
    if d == 0.0:
        return _circumcenter_exact(a, b, c)
    a2 = (a[0] - c[0]) ** 2 + (a[1] - c[1]) ** 2
    b2 = (b[0] - c[0]) ** 2 + (b[1] - c[1]) ** 2
    ux = c[0] + (a2 * (b[1] - c[1]) - b2 * (a[1] - c[1])) / d
    uy = c[1] + (b2 * (a[0] - c[0]) - a2 * (b[0] - c[0])) / d
    return (ux, uy)


def _circumcenter_exact(a: Point, b: Point, c: Point) -> Point:
    """Rational-arithmetic circumcenter; ZeroDivisionError when collinear."""
    ax, ay = Fraction(a[0]) - Fraction(c[0]), Fraction(a[1]) - Fraction(c[1])
    bx, by = Fraction(b[0]) - Fraction(c[0]), Fraction(b[1]) - Fraction(c[1])
    d = 2 * (ax * by - ay * bx)  # exact: zero iff truly collinear
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    ux = Fraction(c[0]) + (a2 * by - b2 * ay) / d
    uy = Fraction(c[1]) + (b2 * ax - a2 * bx) / d
    return (_clamp_float(ux), _clamp_float(uy))


def _clamp_float(value: Fraction) -> float:
    """Fraction -> float, saturating to ±inf instead of OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def circumradius_sq(a: Point, b: Point, c: Point) -> float:
    """Squared circumradius of triangle abc."""
    cc = circumcenter(a, b, c)
    return dist_sq(cc, a)


def dist_sq(p: Point, q: Point) -> float:
    """Squared euclidean distance.

    Uses plain multiplication: CPython's float ``**`` raises OverflowError
    where IEEE semantics (and callers guarding with ``isfinite``) want inf —
    near-degenerate circumcenters can sit at 1e250.
    """
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    """Assuming p,q,r collinear: does q lie on segment pr?"""
    return (
        min(p[0], r[0]) <= q[0] <= max(p[0], r[0])
        and min(p[1], r[1]) <= q[1] <= max(p[1], r[1])
    )


def segments_intersect(
    p1: Point, p2: Point, q1: Point, q2: Point, proper_only: bool = False
) -> bool:
    """Do segments p1p2 and q1q2 intersect?

    With ``proper_only`` the segments must cross at an interior point of
    both (shared endpoints and touchings do not count) — this is the test
    used to decide whether a candidate edge violates a constraint segment.
    """
    d1 = orient2d(q1, q2, p1)
    d2 = orient2d(q1, q2, p2)
    d3 = orient2d(p1, p2, q1)
    d4 = orient2d(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if proper_only:
        return False
    if d1 == 0 and _on_segment(q1, p1, q2):
        return True
    if d2 == 0 and _on_segment(q1, p2, q2):
        return True
    if d3 == 0 and _on_segment(p1, q1, p2):
        return True
    if d4 == 0 and _on_segment(p1, q2, p2):
        return True
    return False
