"""The lattice of conjugation-stable closed-set descriptors.

A descriptor is a pair (k, f) with k >= -1 and f a finitely-supported map
from scalars to bounds strictly above k.  It encodes the union of the
identity-pencil stratum of bound k with finitely many larger shift strata:

    {P : rk(P, I) <= k}  union over lambda  {P : rk(P - lambda I) <= f(lambda)}.

k = -1 with no exceptional entries encodes the empty set.  Over GF(p) the
stratum {rk(P, I) <= k'} is the union over all p scalars lambda of
{rk(P - lambda I) <= k'}, so a descriptor that lists every scalar folds
into k: k rises to the least listed bound, and the bounds at most k are
dropped.  Unfolded, two descriptors of the same set would differ, and
containment of descriptors would miss containment of the sets.

Union, intersection and containment are the pointwise max / min /
product-order maps.  Distinct finite-shift strata of bounds a and b
intersect trivially at level n only when n > a + b: a matrix with
rk(P - lambda I) <= a and rk(P - mu I) <= b, lambda != mu, gives
(mu - lambda) I rank at most a + b.  Otherwise the pointwise min is smaller
than the intersection of the sets: at n = 6, diag(0,0,0,1,1,1) lies in both
{rk(P) <= 3} and {rk(P - I) <= 3}, yet their pointwise min is the empty
descriptor.
"""

from __future__ import annotations

from .fields import Record, integral


class ClosedSetDescriptor(Record):
    # exceptional: sorted ((lambda, bound), ...) with bound > k
    __slots__ = ("field", "k", "exceptional")

    @staticmethod
    def make(field, k: int, entries=()) -> "ClosedSetDescriptor":
        if k < -1:
            raise ValueError("k must be at least -1")
        merged: dict = {}
        for lam, bound in entries:
            lam = field.coerce(lam)
            bound = int(bound)
            if lam in merged:
                merged[lam] = max(merged[lam], bound)
            else:
                merged[lam] = bound
        if field.characteristic and len(merged) == field.characteristic:
            k = max(k, min(merged.values()))  # every scalar of GF(p) listed
        kept = tuple(sorted(
            ((lam, b) for lam, b in merged.items() if b > k),
            key=lambda t: field.sort_key(t[0]),
        ))
        return ClosedSetDescriptor(field, k, kept)

    def bound_at(self, lam) -> int:
        lam = self.field.coerce(lam)
        for l, b in self.exceptional:
            if l == lam:
                return b
        return self.k


def descriptor_canonicalize(d: ClosedSetDescriptor) -> ClosedSetDescriptor:
    return ClosedSetDescriptor.make(d.field, d.k, d.exceptional)


def _check_fields(a, b):
    if a.field != b.field:
        raise ValueError("descriptor field mismatch")


def _pointwise(a: ClosedSetDescriptor, b: ClosedSetDescriptor, op) -> ClosedSetDescriptor:
    """op (max or min) of the two bounds, at every eigenvalue and for k."""
    _check_fields(a, b)
    lams = {l for l, _ in a.exceptional} | {l for l, _ in b.exceptional}
    entries = [(l, op(a.bound_at(l), b.bound_at(l))) for l in lams]
    return ClosedSetDescriptor.make(a.field, op(a.k, b.k), entries)


def descriptor_union(a: ClosedSetDescriptor, b: ClosedSetDescriptor) -> ClosedSetDescriptor:
    return _pointwise(a, b, max)


def descriptor_intersect(a: ClosedSetDescriptor, b: ClosedSetDescriptor) -> ClosedSetDescriptor:
    return _pointwise(a, b, min)


def descriptor_contains(a: ClosedSetDescriptor, b: ClosedSetDescriptor) -> bool:
    _check_fields(a, b)
    if a.k < b.k:
        return False
    return all(a.bound_at(l) >= bound for l, bound in b.exceptional)


def chain_stabilization(chain) -> int:
    """First index from which a verified-descending descriptor chain is constant."""
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    for prev, nxt in zip(chain, chain[1:]):
        if not descriptor_contains(prev, nxt):
            raise ValueError("chain is not descending")
    j = len(chain) - 1
    while j > 0 and chain[j - 1] == chain[j]:
        j -= 1
    return j


def descriptor_to_json(d: ClosedSetDescriptor) -> dict:
    return {
        "k": d.k,
        "exceptional": [
            {"lambda": d.field.format(l), "bound": b} for l, b in d.exceptional
        ],
    }


def descriptor_from_json(field, obj) -> ClosedSetDescriptor:
    """The descriptor of a JSON object with an integer "k" and an optional array
    "exceptional" of {"lambda": string, "bound": integer} objects."""
    ex = obj.get("exceptional", [])
    well_formed = integral(obj.get("k")) is not None and isinstance(ex, list) and all(
        isinstance(e, dict) and isinstance(e.get("lambda"), str)
        and integral(e.get("bound")) is not None for e in ex)
    if not well_formed:
        raise ValueError("descriptor JSON needs 'k' as an integer and 'exceptional' "
                         "as an array of {lambda: string, bound: integer}")
    entries = [(field.parse(e["lambda"]), integral(e["bound"])) for e in ex]
    return ClosedSetDescriptor.make(field, integral(obj["k"]), entries)
