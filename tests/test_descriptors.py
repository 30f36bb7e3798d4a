import json
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from conjlab.descriptors import (
    ClosedSetDescriptor,
    chain_stabilization,
    descriptor_canonicalize,
    descriptor_contains,
    descriptor_from_json,
    descriptor_intersect,
    descriptor_to_json,
    descriptor_union,
)
from conjlab.fields import GF, QQ

G7, QQ_ = GF(7), QQ()


@st.composite
def descriptors(draw, field=G7):
    k = draw(st.integers(min_value=-1, max_value=5))
    n_exc = draw(st.integers(min_value=0, max_value=4))
    entries = []
    for _ in range(n_exc):
        lam = draw(st.integers(min_value=0, max_value=6))
        bound = draw(st.integers(min_value=0, max_value=9))
        entries.append((lam, bound))
    return ClosedSetDescriptor.make(field, k, entries)


def test_examples():
    # make(field, k) is the tuple-rank stratum of bound k, make(field, -1,
    # [(lam, b)]) the shift stratum of lam and bound b, make(field, -1) empty
    stratum = ClosedSetDescriptor.make
    a = stratum(G7, -1, [(0, 1)])
    b = stratum(G7, -1, [(0, 2)])
    assert descriptor_union(a, b) == b
    t2 = stratum(QQ_, 2)
    s35 = stratum(QQ_, -1, [(3, 5)])
    assert descriptor_intersect(t2, s35) == stratum(QQ_, -1, [(3, 2)])
    for k in range(4):
        for lam in range(5):
            assert descriptor_contains(stratum(G7, k), stratum(G7, -1, [(lam, k)]))
    # distinct finite shifts meet in the empty stratum
    assert descriptor_intersect(stratum(G7, -1, [(1, 4)]), stratum(G7, -1, [(2, 4)])) == \
        stratum(G7, -1)


def test_canonical_drops_low_bounds():
    d = ClosedSetDescriptor.make(G7, 3, [(1, 2), (2, 5)])
    assert d.exceptional == ((2, 5),)
    assert descriptor_canonicalize(d) == d


def test_gf_descriptor_listing_every_scalar_folds_into_k():
    """Over GF(2), {rk(P, I) <= 0} (the scalar matrices 0 and I) lies in
    {rk P <= 2} union {rk(P - I) <= 0}: listing both scalars raises k to the
    least bound.  QQ has infinitely many scalars and never folds."""
    G2 = GF(2)
    a = ClosedSetDescriptor.make(G2, -1, [(0, 2), (1, 0)])
    assert (a.k, a.exceptional) == (0, ((0, 2),))
    b = ClosedSetDescriptor.make(G2, 0)
    assert descriptor_contains(a, b) and descriptor_union(a, b) == a
    c = ClosedSetDescriptor.make(G7, 1, [(lam, 3 + lam % 2) for lam in range(7)])
    assert (c.k, c.exceptional) == (3, ((1, 4), (3, 4), (5, 4)))
    q = ClosedSetDescriptor.make(QQ_, -1, [(0, 2), (1, 0)])
    assert (q.k, q.exceptional) == (-1, ((0, 2), (1, 0)))


@settings(max_examples=200, deadline=None)
@given(descriptors(), descriptors())
def test_union_intersect_commutative(a, b):
    assert descriptor_union(a, b) == descriptor_union(b, a)
    assert descriptor_intersect(a, b) == descriptor_intersect(b, a)


@settings(max_examples=200, deadline=None)
@given(descriptors(), descriptors(), descriptors())
def test_associative(a, b, c):
    assert descriptor_union(descriptor_union(a, b), c) == \
        descriptor_union(a, descriptor_union(b, c))
    assert descriptor_intersect(descriptor_intersect(a, b), c) == \
        descriptor_intersect(a, descriptor_intersect(b, c))


@settings(max_examples=200, deadline=None)
@given(descriptors(), descriptors())
def test_idempotent_and_absorption(a, b):
    assert descriptor_union(a, a) == a
    assert descriptor_intersect(a, a) == a
    assert descriptor_union(a, descriptor_intersect(a, b)) == a
    assert descriptor_intersect(a, descriptor_union(a, b)) == a


@settings(max_examples=200, deadline=None)
@given(descriptors(), descriptors())
def test_lattice_order_compatibility(a, b):
    u = descriptor_union(a, b)
    i = descriptor_intersect(a, b)
    assert descriptor_contains(u, a) and descriptor_contains(u, b)
    assert descriptor_contains(a, i) and descriptor_contains(b, i)
    assert descriptor_contains(a, b) == (descriptor_union(a, b) == a)


@settings(max_examples=200, deadline=None)
@given(descriptors(), descriptors(), descriptors())
def test_partial_order(a, b, c):
    assert descriptor_contains(a, a)
    if descriptor_contains(a, b) and descriptor_contains(b, a):
        assert a == b
    if descriptor_contains(a, b) and descriptor_contains(b, c):
        assert descriptor_contains(a, c)


@settings(max_examples=100, deadline=None)
@given(descriptors(), descriptors())
def test_order_preserving_injective_encoding(a, b):
    # the (k, exceptional) encoding of canonical descriptors is injective
    # and the order is the product order
    enc = lambda d: (d.k, d.exceptional)
    if enc(a) == enc(b):
        assert a == b
    if descriptor_contains(a, b):
        assert a.k >= b.k
        assert all(a.bound_at(l) >= bd for l, bd in b.exceptional)


def _strict_shrink(d, rng):
    field = d.field
    choices = []
    if d.k >= 0:
        choices.append("k")
    if d.exceptional:
        choices.append("exc")
    if not choices:
        return None
    if rng.choice(choices) == "k":
        return ClosedSetDescriptor.make(field, d.k - 1, d.exceptional)
    lam, bd = d.exceptional[rng.randrange(len(d.exceptional))]
    rest = [(l, b) for l, b in d.exceptional if l != lam]
    if bd - 1 > d.k:
        return ClosedSetDescriptor.make(field, d.k, rest + [(lam, bd - 1)])
    return ClosedSetDescriptor.make(field, d.k, rest)


def test_chain_stabilization_examples():
    d = ClosedSetDescriptor.make(G7, 2)
    assert chain_stabilization([d, d, d]) == 0
    chain = [ClosedSetDescriptor.make(G7, k) for k in (3, 2, 2)]
    assert chain_stabilization(chain) == 1
    with pytest.raises(ValueError):
        chain_stabilization([ClosedSetDescriptor.make(G7, 1), ClosedSetDescriptor.make(G7, 2)])


def test_generated_chains_stabilize_at_strict_step_count():
    rng = random.Random(11)
    for _ in range(100):
        d = ClosedSetDescriptor.make(
            G7, rng.randint(0, 4),
            [(rng.randrange(7), rng.randint(5, 9)) for _ in range(rng.randint(0, 3))])
        chain = [d]
        strict = 0
        for _ in range(rng.randint(0, 6)):
            nxt = _strict_shrink(chain[-1], rng)
            if nxt is None:
                break
            assert descriptor_contains(chain[-1], nxt) and nxt != chain[-1]
            chain.append(nxt)
            strict += 1
        chain += [chain[-1]] * rng.randint(0, 3)
        assert chain_stabilization(chain) == strict


def test_json_roundtrip():
    d = ClosedSetDescriptor.make(QQ_, 1, [(QQ_.parse("2/3"), 4), (QQ_.parse("-1"), 9)])
    obj = descriptor_to_json(d)
    assert descriptor_from_json(QQ_, json.loads(json.dumps(obj))) == d


def test_bound_at_reads_the_exceptional_bound_or_k():
    """make keeps the largest bound given for each eigenvalue, read mod p, and
    drops bounds at most k; bound_at gives the kept bound or k elsewhere."""
    d = ClosedSetDescriptor.make(G7, 1, [(3, 4), (10, 2), (5, 1), (2, 3)])
    assert d.exceptional == ((2, 3), (3, 4))
    assert [d.bound_at(lam) for lam in range(7)] == [1, 1, 3, 4, 1, 1, 1]
    assert d.bound_at(9) == d.bound_at(-5) == 3
    q = ClosedSetDescriptor.make(QQ_, 0, [("1/2", 2)])
    assert q.bound_at("1/2") == q.bound_at(Fraction(2, 4)) == 2 and q.bound_at(2) == 0
    with pytest.raises(ValueError, match="k must be at least -1"):
        ClosedSetDescriptor.make(G7, -2)
    # the lattice operations compare bounds eigenvalue by eigenvalue
    rng = random.Random(41)
    for _ in range(100):
        a, b = (ClosedSetDescriptor.make(G7, rng.randint(-1, 4),
                                         [(rng.randrange(7), rng.randint(0, 7))
                                          for _ in range(rng.randint(0, 3))]) for _ in range(2))
        u, i = descriptor_union(a, b), descriptor_intersect(a, b)
        for lam in range(7):
            assert u.bound_at(lam) == max(a.bound_at(lam), b.bound_at(lam))
            assert i.bound_at(lam) == min(a.bound_at(lam), b.bound_at(lam))
    with pytest.raises(ValueError, match="field mismatch"):
        descriptor_union(d, q)
