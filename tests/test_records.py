"""The value types of conjlab are records on ``fields.Record``: frozen, equal
only within one class, hashed as the tuple of their fields, and printed as
the dataclasses they replaced printed."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import conjlab
from conjlab.chains import ChainError, GroupType, Signature
from conjlab.coordpoly import PolyContext, PolyError
from conjlab.fields import Record
from conjlab.graphs import RemoveEdge
from conjlab.orbits import OrbitClosure
from conjlab.verify import VerificationReport

for _module in pkgutil.iter_modules(conjlab.__path__):
    importlib.import_module(f"conjlab.{_module.name}")

# One instance of each record class: its fields, and the repr that the
# dataclass of the same name gave for them.
INSTANCES = {
    "GroupType": (("C", 2), "GroupType(letter='C', n=2)"),
    "Signature": ((1, 0, 2), "Signature(l=1, r=0, z=2)"),
    "ChainSpec": ((1, 2, 3, 4), "ChainSpec(letter=1, n1=2, prefix=3, repeat=4)"),
    "TruncatedPoint": ((1, 2), "TruncatedPoint(chain=1, reps=2)"),
    "CaseTag": ((1, 2, 3, 4), "CaseTag(tag=1, alpha=2, beta=3, gamma=4)"),
    "PolyContext": (("gl", 3), "PolyContext(kind='gl', n=3)"),
    "CoordPoly": ((1, 2, 3), "CoordPoly(context=1, field=2, terms=3)"),
    "ClosedSetDescriptor": ((1, 2, 3), "ClosedSetDescriptor(field=1, k=2, exceptional=3)"),
    "RatFunc": ((1, 2), "RatFunc(num=1, den=2)"),
    "UniPoly": ((1, 2), "UniPoly(field=1, coeffs=2)"),
    "Multigraph": ((1, 2), "Multigraph(vertices=1, edges=2)"),
    "RemoveEdge": ((1,), "RemoveEdge(edge=1)"),
    "RemoveLoopedVertex": ((1,), "RemoveLoopedVertex(vertex=1)"),
    "MigrateEdge": ((1, 2), "MigrateEdge(edge=1, looped=2)"),
    "ReductionCertificate": ((1,), "ReductionCertificate(steps=1)"),
    "Obstruction": ((1,), "Obstruction(component=1)"),
    "Matrix": ((1, 2, 3, 4), "Matrix(field=1, rows=2, cols=3, entries=4)"),
    "RrefResult": ((1, 2, 3, 4), "RrefResult(rank=1, rref=2, transform=3, pivots=4)"),
    "_Kernels": ((1, 2, 3, 4, 5, 6, 7), "_Kernels(matmul=1, rref=2, rref_rows=3, rank=4, det=5, "
                                        "inverse=6, char_poly=7)"),
    "OrbitClosure": ((1, 2, 3, 4), "OrbitClosure(kind=1, lam=2, rank=3, level=4)"),
    "PencilTuple": ((1,), "PencilTuple(matrices=1)"),
    "ShiftRankResult": ((1, 2), "ShiftRankResult(lam=1, rank=2)"),
    "VerificationReport": ((1, 2, 3, 4, 5),
                           "VerificationReport(lemma=1, params=2, verdict=3, witnesses=4, ms=5)"),
}

RECORDS = {cls.__name__: cls for cls in Record.__subclasses__()}


def test_every_record_class_has_an_instance():
    assert all(cls.__module__.startswith("conjlab.") for cls in RECORDS.values())
    assert set(RECORDS) == set(INSTANCES)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_record_semantics(name):
    cls, (args, want) = RECORDS[name], INSTANCES[name]
    r = cls(*args)
    assert repr(r) == want
    assert r._values(r) == args
    twin = cls(**dict(zip(cls.__slots__, args)))
    assert r == twin and not r != twin and hash(r) == hash(twin) == hash(args)
    assert r != args
    assert copy.copy(r) == copy.deepcopy(r) == pickle.loads(pickle.dumps(r)) == r
    for field in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(r, field, 0)
        with pytest.raises(AttributeError):
            delattr(r, field)
    with pytest.raises(AttributeError):
        r.unknown = 0
    assert r._values(r) == args


def test_records_of_two_classes_with_the_same_fields_differ():
    by_args = {}
    for name, (args, _) in INSTANCES.items():
        by_args.setdefault(args, []).append(RECORDS[name](*args))
    pairs = [(a, b) for same in by_args.values() for a in same for b in same if a is not b]
    assert len(pairs) > 20
    assert all(a != b and not a == b for a, b in pairs)


def test_checked_records_refuse_bad_fields():
    with pytest.raises(ChainError):
        GroupType("E", 1)
    with pytest.raises(ChainError):
        Signature(0, 0, 0)
    with pytest.raises(PolyError):
        PolyContext("x", 1)


def test_record_defaults_and_arity():
    assert OrbitClosure("dense") == OrbitClosure("dense", None, None, None)
    a = VerificationReport("x", {}, "pass")
    b = VerificationReport(lemma="x", params={}, verdict="pass")
    assert a == b and a.witnesses == [] and a.ms == 0 and a.witnesses is not b.witnesses
    for args, kwargs in (((), {}), ((1, 2), {}), ((1,), {"edge": 1}), ((), {"vertex": 1})):
        with pytest.raises(TypeError):
            RemoveEdge(*args, **kwargs)


def test_record_replace():
    g = GroupType("C", 2)
    assert g._replace(n=3) == GroupType("C", 3) and g == GroupType("C", 2)
    with pytest.raises(ChainError):
        g._replace(letter="E")
    with pytest.raises(TypeError):
        g._replace(m=3)
