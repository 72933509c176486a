"""The triangulation kernel against its parent, state for state.

``oracles.ParentTriangulation`` keeps point location, the cavity search,
point insertion, the neighbour update and segment insertion as they were
before the one-pass fan stitch and the existing-edge shortcut.  Both
kernels run the same random operations; after every one of them the
return value (or exception) and the whole state — points, vertex and
neighbour triples, liveness, the free list, the per-vertex hints, the walk
hint and the constrained edges — must be equal, dead slots included.
Equal tids mean the fan is allocated in the same order, which is what keeps
every mesh digest downstream.

Points are drawn four ways: uniform floats, an 8 x 8 lattice (cocircular
and collinear ties, so the exact predicate stages run), duplicates of
existing vertices, and midpoints of two existing vertices (a vertex exactly
on a later segment).  Segments are drawn as edges that already exist and as
arbitrary vertex pairs.  A point strictly inside a constrained edge is not
inserted: that edge must be split (``split_segment``), and inserting the
point instead leaves a zero-area triangle, which neither kernel supports.
"""

from hypothesis import given, settings, strategies as st

from oracles import ParentTriangulation
from repro.geometry import BoundingBox
from repro.geometry.predicates import orient2d
from repro.mesh import Triangulation

BOX = BoundingBox(0.0, 0.0, 1.0, 1.0)

_floats = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
_lattice = st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
    lambda t: (t[0] / 8, t[1] / 8))


def _state(tri):
    return (tri.points, tri._tri_v, tri._tri_n, tri._alive, tri._free,
            tri._vertex_tri, tri._last_tri, tri.constrained)


def _both(new, old, op) -> bool:
    """Run ``op`` on both kernels; False once either raised."""
    outcomes = []
    for tri in (new, old):
        try:
            outcomes.append(("ok", op(tri)))
        except Exception as exc:  # the same failure, the same way
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    assert _state(new) == _state(old)
    return outcomes[0][0] == "ok"


def _draw_point(data, tri):
    real = tri.points[3:]
    kinds = ["float", "lattice", "lattice"] + (
        ["duplicate", "midpoint"] if len(real) >= 2 else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "float":
        return data.draw(_floats)
    if kind == "lattice":
        return data.draw(_lattice)
    if kind == "duplicate":
        return data.draw(st.sampled_from(real))
    (ax, ay), (bx, by) = data.draw(
        st.lists(st.sampled_from(real), min_size=2, max_size=2, unique=True))
    return ((ax + bx) / 2.0, (ay + by) / 2.0)


def _inside_constrained_edge(tri, p) -> bool:
    for u, v in tri.constrained:
        pu, pv = tri.points[u], tri.points[v]
        # Collinear points are ordered along their line lexicographically.
        if orient2d(pu, pv, p) == 0 and min(pu, pv) < p < max(pu, pv):
            return True
    return False


def _draw_segment(data, tri):
    if data.draw(st.booleans()):
        edges = sorted(
            (u, v)
            for tid in tri.alive_triangles()
            for a, b, c in (tri.triangle_vertices(tid),)
            for u, v in ((b, c), (c, a), (a, b))
            if u >= 3 and v >= 3
        )
        if edges:
            return data.draw(st.sampled_from(edges))
    ids = range(3, len(tri.points))
    return tuple(data.draw(
        st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_kernel_state_equals_the_parent_after_every_operation(data):
    new, old = Triangulation(BOX), ParentTriangulation(BOX)
    for _ in range(data.draw(st.integers(4, 6))):
        p = data.draw(_lattice)
        assert _both(new, old, lambda t: t.insert_point(p))
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(
            ["insert", "insert", "insert", "segment", "segment", "split",
             "locate", "cavity"]))
        if op == "insert":
            p = _draw_point(data, new)
            if _inside_constrained_edge(new, p):
                continue
            ok = _both(new, old, lambda t: t.insert_point(p))
        elif op == "segment":
            if len(set(new.points[3:])) < 2:
                continue
            u, v = _draw_segment(data, new)
            ok = _both(new, old, lambda t: t.insert_segment(u, v))
        elif op == "split":
            if not new.constrained:
                continue
            u, v = data.draw(st.sampled_from(sorted(new.constrained)))
            ok = _both(new, old, lambda t: t.split_segment(u, v))
        else:
            p = data.draw(st.one_of(_floats, _lattice))
            if op == "locate":
                ok = _both(new, old, lambda t: t.locate(p))
            else:
                ok = _both(new, old, lambda t: t.cavity_of(p))
        if not ok:
            break  # an operation both refused may leave a partial edit
