"""Vectorized geometric kernels over numpy arrays.

The scalar predicates in :mod:`repro.geometry.predicates` are exact but
per-call; scanning a whole mesh for bad triangles is a bulk operation, and
the profiling-first rule of scientific Python says: vectorize the scan,
keep the exact path for the decisions that need it.

These kernels are *filters*, not oracles: they compute float values for
many triangles at once plus a boolean ``uncertain`` mask marking entries
whose floating-point result is within the error bound — callers re-check
those few with the exact scalar predicates.  (The refinement *size* test
never needs exactness; only orientation/incircle decisions do.)
"""

from __future__ import annotations

import numpy as np

from repro.geometry.predicates import (
    _CCW_BOUND,
    _ICC_BOUND,
    _UNDERFLOW,
)

__all__ = [
    "orient2d_batch",
    "incircle_batch",
    "circumcenter_batch",
    "circumradius_sq_batch",
    "shortest_edge_sq_batch",
    "bad_triangle_mask",
]


def _as_points(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {out.shape}")
    return out


def orient2d_batch(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Signed doubled areas for n triangles, plus an ``uncertain`` mask.

    Returns ``(det, uncertain)``: ``uncertain`` is True exactly where the
    scalar :func:`repro.geometry.predicates.orient2d` would go to its
    exact stage, and the caller must fall back to ``orient2d_exact``.
    """
    a, b, c = _as_points(a), _as_points(b), _as_points(c)
    with np.errstate(over="ignore", invalid="ignore"):
        acx, bcy = a[:, 0] - c[:, 0], b[:, 1] - c[:, 1]
        acy, bcx = a[:, 1] - c[:, 1], b[:, 0] - c[:, 0]
        detleft, detright = acx * bcy, acy * bcx
        det = detleft - detright
        detsum = np.abs(detleft) + np.abs(detright)
        certain = np.abs(det) > _CCW_BOUND * detsum + _UNDERFLOW
        # The scalar predicate's other two certificates: products of
        # opposite strict sign, and a true zero in each product (stage 0).
        certain |= np.sign(detleft) * np.sign(detright) < 0
    zero = ((acx == 0.0) | (bcy == 0.0)) & ((acy == 0.0) | (bcx == 0.0))
    det[zero] = 0.0
    return det, ~(certain | zero)


def incircle_batch(a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """Incircle determinants for n queries, plus an ``uncertain`` mask.

    ``det[i] > 0`` means ``d[i]`` is strictly inside the circumcircle of
    the counterclockwise triangle ``a[i] b[i] c[i]``.  Where ``uncertain``
    is True the float filter (same A-stage bound as the scalar
    :func:`repro.geometry.predicates.incircle`) cannot guarantee the sign
    and the caller must re-check with ``incircle_exact``.
    """
    a, b, c, d = _as_points(a), _as_points(b), _as_points(c), _as_points(d)
    with np.errstate(over="ignore", invalid="ignore"):
        adx, ady = a[:, 0] - d[:, 0], a[:, 1] - d[:, 1]
        bdx, bdy = b[:, 0] - d[:, 0], b[:, 1] - d[:, 1]
        cdx, cdy = c[:, 0] - d[:, 0], c[:, 1] - d[:, 1]

        bdxcdy, cdxbdy = bdx * cdy, cdx * bdy
        alift = adx * adx + ady * ady
        cdxady, adxcdy = cdx * ady, adx * cdy
        blift = bdx * bdx + bdy * bdy
        adxbdy, bdxady = adx * bdy, bdx * ady
        clift = cdx * cdx + cdy * cdy

        det = (
            alift * (bdxcdy - cdxbdy)
            + blift * (cdxady - adxcdy)
            + clift * (adxbdy - bdxady)
        )
        permanent = (
            (np.abs(bdxcdy) + np.abs(cdxbdy)) * alift
            + (np.abs(cdxady) + np.abs(adxcdy)) * blift
            + (np.abs(adxbdy) + np.abs(bdxady)) * clift
        )
        certain = np.abs(det) > _ICC_BOUND * permanent + _UNDERFLOW * (
            1.0 + alift + blift + clift
        )
    return det, ~certain


def circumcenter_batch(a, b, c) -> np.ndarray:
    """Circumcenters of n triangles; degenerate rows come back as NaN."""
    a, b, c = _as_points(a), _as_points(b), _as_points(c)
    d = 2.0 * (
        (a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
        - (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0])
    )
    a2 = (a[:, 0] - c[:, 0]) ** 2 + (a[:, 1] - c[:, 1]) ** 2
    b2 = (b[:, 0] - c[:, 0]) ** 2 + (b[:, 1] - c[:, 1]) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = c[:, 0] + (a2 * (b[:, 1] - c[:, 1]) - b2 * (a[:, 1] - c[:, 1])) / d
        uy = c[:, 1] + (b2 * (a[:, 0] - c[:, 0]) - a2 * (b[:, 0] - c[:, 0])) / d
    out = np.stack([ux, uy], axis=1)
    out[d == 0.0] = np.nan
    return out


def circumradius_sq_batch(a, b, c) -> np.ndarray:
    """Squared circumradii (NaN for degenerate triangles)."""
    cc = circumcenter_batch(a, b, c)
    a = _as_points(a)
    return (cc[:, 0] - a[:, 0]) ** 2 + (cc[:, 1] - a[:, 1]) ** 2


def shortest_edge_sq_batch(a, b, c) -> np.ndarray:
    """Squared shortest edge per triangle."""
    a, b, c = _as_points(a), _as_points(b), _as_points(c)

    def edge(p, q):
        return (p[:, 0] - q[:, 0]) ** 2 + (p[:, 1] - q[:, 1]) ** 2

    return np.minimum(np.minimum(edge(a, b), edge(b, c)), edge(c, a))


def bad_triangle_mask(
    a,
    b,
    c,
    h_at_center: np.ndarray | None = None,
    quality_bound: float = float(np.sqrt(2.0)),
    min_length: float = 0.0,
) -> np.ndarray:
    """Vectorized Ruppert badness test for n triangles.

    A triangle is bad when its circumradius/shortest-edge ratio exceeds
    ``quality_bound`` or its circumradius exceeds ``h_at_center`` (the
    sizing function evaluated at the circumcenters — evaluate it on
    :func:`circumcenter_batch` output).  Triangles whose shortest edge is
    at or below ``min_length`` are protected, and degenerate triangles are
    never reported (nothing sane to insert).
    """
    r_sq = circumradius_sq_batch(a, b, c)
    short_sq = shortest_edge_sq_batch(a, b, c)
    with np.errstate(invalid="ignore"):
        bad = r_sq > (quality_bound * quality_bound) * short_sq
        if h_at_center is not None:
            h = np.asarray(h_at_center, dtype=np.float64)
            bad |= r_sq > h * h
        bad &= short_sq > min_length * min_length
    bad &= np.isfinite(r_sq)
    return bad
