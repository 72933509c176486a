"""2D geometric foundation: robust predicates, PSLG inputs, test domains."""

from repro.geometry.predicates import (
    orient2d,
    incircle,
    orient2d_exact,
    incircle_exact,
    circumcenter,
    circumradius_sq,
    dist_sq,
    segments_intersect,
)
from repro.geometry.pslg import PSLG, BoundingBox
from repro.geometry.shapes import (
    unit_square,
    circle_domain,
    pipe_cross_section,
    plate_with_holes,
    key_domain,
    gear_domain,
)

__all__ = [
    "orient2d",
    "incircle",
    "orient2d_exact",
    "incircle_exact",
    "circumcenter",
    "circumradius_sq",
    "dist_sq",
    "segments_intersect",
    "PSLG",
    "BoundingBox",
    "unit_square",
    "circle_domain",
    "pipe_cross_section",
    "plate_with_holes",
    "key_domain",
    "gear_domain",
]
