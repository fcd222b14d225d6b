from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regmod import (
    AtomSet,
    ContextMismatchError,
    Idempotent,
    NotMinorantError,
    PartitionOfUnity,
    ValidationError,
    disjointify,
    restrict_partition,
    sup_family,
)


@pytest.fixture
def ctx():
    return AtomSet(("q1", "q2", "q3", "q4"))


def every(ctx):
    return [Idempotent(ctx, m) for m in range(ctx.full_mask + 1)]


def test_atom_set_validation():
    with pytest.raises(ValidationError):
        AtomSet(())
    with pytest.raises(ValidationError):
        AtomSet(("a", "a"))
    ctx = AtomSet(("x", "y"))
    assert len(ctx) == 2
    assert list(ctx) == ["x", "y"]
    assert ctx.index("y") == 1


def test_idempotent_mask_bounds(ctx):
    with pytest.raises(ValidationError):
        Idempotent(ctx, 1 << 4)
    with pytest.raises(ValidationError):
        Idempotent(ctx, -1)


def test_idempotent_range_message_is_bounded():
    with pytest.raises(ValidationError, match="^mask <int of 100001 bits> outside") as info:
        Idempotent(AtomSet(("a", "b")), 2**100000)
    assert len(str(info.value)) < 100


@pytest.mark.parametrize("mask", [0.5, 1.0, "1", None])
def test_idempotent_requires_an_int_mask(ctx, mask):
    with pytest.raises(ValidationError, match="mask must be an int"):
        Idempotent(ctx, mask)


def test_lattice_laws_exhaustive(ctx):
    # |Δ| = 4 is small enough to check every pair/triple identity outright
    es = every(ctx)
    for e in es:
        assert (e & e) == e
        assert (e | e) == e
        assert ~~e == e
        assert (e & ~e).is_zero
        assert (e | ~e).is_full
        for f in es:
            assert (e & f) == (f & e)
            assert (e | f) == (f | e)
            # e∨f = e+f−ef in the algebra shows up here as mask arithmetic
            assert (e | f).count == e.count + f.count - (e & f).count
            assert e.leq(f) == ((e & f) == e)
            assert (e - f) == (e & ~f)
    e, f, g = es[0b0011], es[0b0110], es[0b1100]
    assert (e & (f | g)) == ((e & f) | (e & g))
    assert (e | (f & g)) == ((e | f) & (e | g))


def test_context_mismatch(ctx):
    other = AtomSet(("a", "b", "c", "d"))
    with pytest.raises(ContextMismatchError):
        Idempotent(ctx, 1).meet(Idempotent(other, 1))


def test_sup_family(ctx):
    es = [ctx.atom("q1"), ctx.atom("q3")]
    assert sup_family(es) == ctx.subset(["q1", "q3"])
    assert sup_family([], context=ctx).is_zero
    with pytest.raises(ValueError):
        sup_family([])


def test_render(ctx):
    assert ctx.subset(["q1", "q3"]).render() == "{q1,q3}"
    assert ctx.empty().render() == "{}"


def test_partition_validation(ctx):
    with pytest.raises(ValidationError):
        PartitionOfUnity((ctx.subset(["q1"]),))  # does not cover
    with pytest.raises(ValidationError):
        PartitionOfUnity((ctx.full(), ctx.empty()))  # zero piece
    with pytest.raises(ValidationError):
        PartitionOfUnity((ctx.full(), ctx.subset(["q1"])))  # overlap
    p = PartitionOfUnity((ctx.subset(["q1", "q4"]), ctx.subset(["q2", "q3"])))
    assert p.piece_of(3) == 0
    assert p.piece_of(1) == 1


def test_partition_refine(ctx):
    p = PartitionOfUnity((ctx.subset(["q1", "q2"]), ctx.subset(["q3", "q4"])))
    q = PartitionOfUnity((ctx.subset(["q1", "q3"]), ctx.subset(["q2", "q4"])))
    r = p.refine(q)
    assert {pc.render() for pc in r.pieces} == {"{q1}", "{q2}", "{q3}", "{q4}"}


def test_restrict_partition(ctx):
    p = PartitionOfUnity((ctx.subset(["q1", "q2"]), ctx.subset(["q3", "q4"])))
    parts = restrict_partition(ctx.subset(["q2", "q3"]), p)
    assert [x.render() for x in parts] == ["{q2}", "{q3}"]


def test_atoms_partition(ctx):
    p = PartitionOfUnity.atoms(ctx)
    assert len(p) == 4
    assert all(pc.count == 1 for pc in p)


def test_disjointify_picks_first_fit(ctx):
    e = ctx.subset(["q1", "q2", "q3"])
    candidates = [
        ctx.subset(["q1", "q2"]),
        ctx.subset(["q1"]),  # overlaps the first pick: skipped
        ctx.subset(["q3"]),
    ]
    out = disjointify(e, candidates)
    assert [x.render() for x in out] == ["{q1,q2}", "{q3}"]
    joined = 0
    for x in out:
        assert joined & x.mask == 0
        joined |= x.mask
    assert joined == e.mask


def test_disjointify_stall_raises(ctx):
    e = ctx.subset(["q1", "q2"])
    with pytest.raises(NotMinorantError):
        disjointify(e, [ctx.subset(["q1", "q3"])])  # not below e, no progress
    with pytest.raises(NotMinorantError):
        disjointify(e, [ctx.subset(["q1"])])  # q2 never covered


def test_disjointify_zero_is_empty(ctx):
    assert disjointify(ctx.empty(), [ctx.full()]) == []


masks = st.integers(min_value=0, max_value=31)


@given(masks, masks, masks)
def test_lattice_laws_random(a, b, c):
    ctx = AtomSet(tuple(f"t{i}" for i in range(5)))
    e, f, g = Idempotent(ctx, a), Idempotent(ctx, b), Idempotent(ctx, c)
    assert (e & (f | g)) == ((e & f) | (e & g))
    assert ~(e & f) == (~e | ~f)
    assert (e - f).leq(e)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4))
def test_random_block_partitions(assignment):
    ctx = AtomSet(("q1", "q2", "q3", "q4"))
    blocks: dict[int, int] = {}
    for q, b in enumerate(assignment):
        blocks[b] = blocks.get(b, 0) | (1 << q)
    p = PartitionOfUnity(tuple(Idempotent(ctx, m) for m in blocks.values()))
    assert sum(pc.count for pc in p.pieces) == 4
    for q in range(4):
        assert p.pieces[p.piece_of(q)].contains_atom(q)


def test_sup_family_refuses_another_atom_set(ctx):
    other = AtomSet(("a", "b", "c", "d"))
    with pytest.raises(ContextMismatchError, match="idempotents over different atom sets"):
        sup_family([ctx.atom("q1"), other.atom("a")])
    with pytest.raises(ContextMismatchError, match="idempotents over different atom sets"):
        sup_family([ctx.atom("q1")], context=other)
    with pytest.raises(ContextMismatchError):
        sup_family([ctx.atom("q1"), ctx.atom("q2"), other.atom("a")], context=ctx)
    assert sup_family(iter([ctx.atom("q2")]), context=ctx) == ctx.atom("q2")
    with pytest.raises(ValueError, match="empty family needs an explicit atom set"):
        sup_family(iter([]))
