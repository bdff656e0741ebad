"""The value records of every module share one base, `relations.Record`:
equality within a class, hashing, read-only fields and `replace`."""

from fractions import Fraction

import pytest

from coclones import acceptance, definitions, instances, oracle, postlattice, reductions
from coclones import relations, valued, weakbases
from coclones.instances import KIND_UMO, Constraint, Instance, Threshold
from coclones.relations import OP_AND, Record, rel_eq


def _offset(src, resolver):
    return Fraction(1)


def _threshold(src):
    return Threshold(">=", 1)


_FORMULA = (2, 0, (("eq", (0, 1)),))
_TERM = (Fraction(1), 0, ("x", "y"))

# every record class with the arguments of one of its records
EXAMPLES = {
    relations.Relation: (2, (3, 0), "eq"),
    relations.BooleanOperation: (2, (0, 0, 0, 1), "and"),
    relations.ClosureWitness: ("and", "R", ((0, 1), (1, 0)), (0, 0)),
    relations.Classification: ("P", "and", ()),
    instances.Constraint: ("OR2", (0, 1), Fraction(2)),
    instances.Threshold: (">=", 1),
    instances.Instance: (KIND_UMO, 2, (Constraint("OR2", (0, 1)),), None, Threshold("<=", 1)),
    instances.CostFunction: (1, (0, 1), "f"),
    oracle.SolveResult: ("SAT", True, None, 3, None),
    postlattice.Family: ((OP_AND,), (), 0, ()),
    postlattice.CloneId: ("S1", 2),
    postlattice.CoCloneId: ("S1", 2),
    weakbases.WeakBaseEntry: (postlattice.CoCloneId("BF"), rel_eq(), "eq(x1,x2)"),
    definitions.Formula: _FORMULA,
    definitions.SearchResult: (definitions.Formula(*_FORMULA), True),
    definitions.ExtensionFormula: ("R_IS1_2", "R_IS12_2", definitions.Formula(*_FORMULA)),
    definitions.ArgmaxIdentity: ("R_II2", "R_IN2", ((6, 0, 1, 5, 7, 3, 4, 2),), (0,) * 7 + (1,)),
    valued.VcspClassification: ("P", "(0)", None),
    valued.Term: _TERM,
    valued.NeqExpression: ((instances.f_neq(),), (valued.Term(*_TERM),), (), Fraction(1),
                           Fraction(0), True, ("trace",)),
    acceptance.Check: ("label", True, ""),
    reductions.Affine: (1, _offset),
    reductions.Decision: (_threshold, True),
    reductions.ApplyInfo: (None, Fraction(1), -1),
    reductions.Size: (1, 2, 3, False),
    reductions.ReductionRecord: tuple(getattr(reductions.REGISTRY["maxones_to_minones"], f)
                                      for f in reductions.ReductionRecord._fields),
    reductions.Template: (KIND_UMO, "R_II2", 2, 1, 0, 0, ("v0 v0",), (), ("a0 a1",), ()),
    reductions.CertifyReport: ("entry", "random", 3, []),
}
MUTABLE = {reductions.ApplyInfo, reductions.CertifyReport}


def test_every_record_class_has_an_example():
    classes = {c for c in Record.__subclasses__() if c.__module__.startswith("coclones.")}
    assert classes == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda c: c.__name__)
def test_record_semantics(cls):
    args = EXAMPLES[cls]
    a, b = cls(*args), cls(*args)
    values = tuple(getattr(a, name) for name in cls._fields)
    # equal field values give equal records, which hash alike unless mutable
    assert a == b and not a != b
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    # a record equals no tuple, nor a record of another class with its values
    assert a != values and values != a
    other = type(cls.__name__, (cls,), {})(*args)
    assert a != other and other != a
    # a frozen record's fields are read-only
    name = cls._fields[0]
    if cls in MUTABLE:
        setattr(a, name, values[1])
        assert getattr(a, name) is values[1] and a != b
    else:
        with pytest.raises(AttributeError):
            setattr(a, name, values[1])
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is values[0]
    # replace builds a new record through the class's checks
    assert b.replace() == b and b.replace() is not b
    assert repr(b).startswith(f"{cls.__qualname__}({name}=")


def test_records_of_different_classes_are_unequal():
    assert postlattice.CloneId("S1", 2) != postlattice.CoCloneId("S1", 2)
    assert postlattice.CoCloneId("S1", 2) != postlattice.CloneId("S1", 2)
    assert postlattice.CloneId("S1", 2) != ("S1", 2)


def test_a_record_holding_a_dict_has_no_hash():
    with pytest.raises(TypeError):
        hash(valued.VcspClassification("NP-hard", None, {"zero": ("f", 0)}))


def test_replace_rechecks_its_fields():
    inst = Instance(KIND_UMO, 2, (Constraint("OR2", (0, 1)),))
    with pytest.raises(instances.InstanceError, match="out-of-range variable"):
        inst.replace(num_vars=1)
    with pytest.raises(TypeError):
        inst.replace(vars=3)


def test_with_threshold_changes_only_the_threshold():
    inst = Instance(KIND_UMO, 2, (Constraint("OR2", (0, 1)),), projection=(0,))
    out = inst.with_threshold(">=", 1)
    assert out.threshold == Threshold(">=", Fraction(1)) and inst.threshold is None
    for name in Instance._fields:
        if name != "threshold":
            assert getattr(out, name) is getattr(inst, name)
    assert out == inst.replace(threshold=Threshold(">=", 1))


def test_a_relation_sorts_its_tuples_and_caches_outside_equality():
    rel = relations.Relation(2, (3, 0, 3), "eq")
    assert rel.tuples == (0, 3) and rel == rel_eq()
    assert rel.bits == 0b1001 and rel.diagram  # cached on the record, outside its fields
    assert rel == rel_eq() and hash(rel) == hash(rel_eq())
