from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from coclones.fileio import (
    emit_cost,
    emit_inst,
    emit_rel,
    parse_cost,
    parse_inst,
    parse_rel,
)
from coclones.instances import (
    Constraint,
    Instance,
    InstanceError,
    KIND_MAXCUT,
    KIND_VCSP,
    KIND_WMO,
    Threshold,
    default_resolver,
    rf_name,
)
from coclones.relations import Relation
from coclones.valued import CostFunction, f_neq


def test_rel_round_trip_multiple():
    text = """# comment
relation eq 2
00
11

relation odd1 1
1
"""
    rels = parse_rel(text)
    assert [r.name for r in rels] == ["eq", "odd1"]
    assert parse_rel(emit_rel(rels)) == rels


def test_inst_round_trip():
    inst = Instance(
        KIND_WMO, 3,
        (Constraint("OR2", (0, 2)), Constraint("R_II2", (0, 1, 2, 0, 1, 2, 0, 1))),
        var_weights=(Fraction(1), Fraction(1, 2), Fraction(0)),
        threshold=Threshold(">=", Fraction(3, 2)),
        projection=(0, 2))
    again = parse_inst(emit_inst(inst))
    assert again == inst


def test_inst_indices_one_based():
    inst = parse_inst("problem SAT\nvars 2\nc eq 1 2\n")
    assert inst.constraints[0].args == (0, 1)
    with pytest.raises(InstanceError):
        parse_inst("problem SAT\nvars 2\nc eq 0 1\n")


@pytest.mark.parametrize("args", [(0, -1, 2), (1, 3, 2)], ids=["negative", "num-vars"])
def test_instance_rejects_an_out_of_range_argument(args):
    cons = (Constraint("eq", (0, 2)), Constraint("OR3", args))
    with pytest.raises(InstanceError, match="^constraint OR3 uses an out-of-range variable$"):
        Instance(KIND_WMO, 3, cons)


def test_maxcut_and_weights():
    inst = parse_inst("problem Max-Cut\nvars 3\nc edge 1 2 w 3/2\nc edge 2 3\n")
    assert inst.kind == KIND_MAXCUT
    assert inst.constraints[0].weight == Fraction(3, 2)
    assert parse_inst(emit_inst(inst)) == inst


def test_cost_round_trip():
    fns = [f_neq(), CostFunction(1, (Fraction(0), Fraction(5, 3)), "g")]
    again = parse_cost(emit_cost(fns))
    assert again == fns


def test_cost_rows_complete():
    with pytest.raises(InstanceError):
        parse_cost("costfn f 2\n00 1\n01 0\n")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_relation_round_trip(data):
    arity = data.draw(st.integers(1, 6))
    masks = data.draw(st.sets(st.integers(0, (1 << arity) - 1), max_size=12))
    rel = Relation.from_masks(arity, masks, name="R", allow_empty=True)
    assert parse_rel(emit_rel([rel])) == [rel]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_instance_round_trip(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(0, 3))
    cons = tuple(
        Constraint("f_neq",
                   (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))),
                   Fraction(data.draw(st.integers(0, 5)), data.draw(st.integers(1, 4))))
        for _ in range(m))
    inst = Instance(KIND_VCSP, n, cons)
    assert parse_inst(emit_inst(inst)) == inst


def test_parametric_names_reconstruct():
    resolver = default_resolver()
    fn = CostFunction(2, (Fraction(0), Fraction(2), Fraction(1), Fraction(0)))
    rf = resolver.relation(rf_name(fn))
    assert rf.arity == 2 + 4
    # one row per argument tuple; support rows carry the one-hot marker
    assert len(rf.tuples) == 4
    ind = resolver.costfn("fnot_R_II2")
    assert ind.arity == 8 and ind.table.count(Fraction(0)) == 3
    named = resolver.costfn("cost2_1_0_0_1")
    assert named.table == f_neq().table
