"""3D parallel mesh generation on the MRTS: extruded-prism patches.

The paper's PUMG codes are 2D; this package is the 3D variant the
run-time system was built to eventually host (the paper's conclusion:
"the next step is the 3D mesh generation codes").  The domain is a box
decomposed into an ``nx x ny x nz`` grid of 3D patches; each patch owns
a set of **extruded-prism cells** (a triangle footprint swept along z)
refined by longest-extent bisection with 2:1 face balancing — and the
whole thing runs on the MRTS *unmodified*: the 3D patches are ordinary
mobile objects driven by the same color-phased
:class:`repro.pumg.updr.UPDRCoordinatorObject` (with eight colors for
the 2x2x2-tiled grid instead of four).

* :mod:`repro.mesh3d.prism`   — cell geometry: volume/size/quality
  predicates, the bisection rule and the layered 3D sizing;
* :mod:`repro.mesh3d.objects` — :class:`Prism3DPatchObject`, the mobile
  3D patch (morton3 locality keys, face-size exchange, balance refine);
* :mod:`repro.mesh3d.driver`  — :func:`run_mesh3d`, end-to-end driver.
"""

from repro.mesh3d.driver import Mesh3DResult, run_mesh3d
from repro.mesh3d.objects import Prism3DPatchObject
from repro.mesh3d.prism import (
    Prism,
    bisect_prism,
    initial_prisms,
    prism_quality,
    prism_size,
    prism_volume,
    sizing3_from_spec,
)

__all__ = [
    "Mesh3DResult",
    "Prism",
    "Prism3DPatchObject",
    "bisect_prism",
    "initial_prisms",
    "prism_quality",
    "prism_size",
    "prism_volume",
    "run_mesh3d",
    "sizing3_from_spec",
]
