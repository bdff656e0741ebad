import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from coclones import fileio, instances
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
from coclones.relations import Relation, RelationError
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


# values that do not parse (a double slash, a zero denominator, an empty
# value, two slashes), an arity below 1, and an arity past MAX_COST_ARITY
# with 2^9 values
MALFORMED_COST_NAMES = ("cost1_1/0_0", "cost1_1//2_0", "cost1_1_", "cost1_1/2/3_0", "cost0_1",
                        "cost9_" + "_".join(["1"] * 512))


def test_registration_checks_what_a_name_would_build():
    resolver = default_resolver()
    # past the arity cap, so OR99, Rf_9_3 and R_IS1_99 build nothing
    for name in ("OR99", "Rf_9_3", "R_IS1_99"):
        resolver.register_relation(Relation(2, (0b01,), name))
        assert resolver.relation(name).tuples == (0b01,)
    for name in ("OR2", "Rf_1_1", "R_IS1_2"):
        with pytest.raises(InstanceError, match="conflicting definitions"):
            resolver.register_relation(Relation(2, (0b01,), name))
    # a cost name whose values do not parse, or whose arity is out of range,
    # is no builtin either
    for name in MALFORMED_COST_NAMES:
        with pytest.raises(InstanceError, match="unknown cost function"):
            resolver.costfn(name)
        resolver.register_costfn(CostFunction(1, (Fraction(0), Fraction(1)), name))
    with pytest.raises(InstanceError, match="conflicting definitions"):
        resolver.register_costfn(CostFunction(1, (Fraction(0), Fraction(1)), "cost1_1_0"))


def test_resolvers_share_one_relation_for_each_builtin_name():
    first, second = default_resolver(), default_resolver()
    for name in ("OR2", "NAND3", "EVEN3", "Rf_2_11", "R_II2", "R_IN2", "R_IL3", "R_IS1_2"):
        rel = first.relation(name)
        assert second.relation(name) is rel and rel.name == name
    # a registered relation still takes precedence over the shared one
    mine = Relation(2, (0b01, 0b10, 0b11), "OR2")
    third = default_resolver()
    third.register_relation(mine)
    assert third.relation("OR2") is mine and first.relation("OR2") is not mine
    # unknown and over-cap names keep their errors
    with pytest.raises(RelationError, match=r"^arity 99 out of range 1\.\.24$"):
        first.relation("OR99")
    with pytest.raises(InstanceError, match="^unknown relation 'R_IS1'$"):
        second.relation("R_IS1")


@pytest.mark.parametrize("name", ["fnot_OR9", "fnot_OR16", "fnot_EVEN12"])
def test_a_too_wide_fnot_name_is_rejected_before_its_table(name, monkeypatch):
    resolver = default_resolver()
    rel = resolver.relation(name[len("fnot_"):])

    def no_table(self, mask):
        raise AssertionError("the 2^arity cost table was built")

    monkeypatch.setattr(Relation, "contains", no_table)
    with pytest.raises(RelationError, match=f"^cost function arity {rel.arity} out of range$"):
        resolver.costfn(name)


# one value of a cost name: a count or a fraction, leading zeros allowed
COST_VALUES = st.one_of(
    st.integers(0, 10 ** 30).map(str),
    st.from_regex(r"\A[0-9]{1,8}\Z"),
    st.from_regex(r"\A[0-9]{1,8}/0*[1-9][0-9]{0,6}\Z"),
    st.builds(Fraction, st.integers(0, 10 ** 12), st.integers(1, 10 ** 6)).map(str))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(COST_VALUES, min_size=1 << k, max_size=1 << k)))
@example(["0", "007"])
@example(["3/2", "06/04", "0/5", "10"])
@example(["1", "2", "3", "4", "5", "6", "7", str(2 ** 64)])
def test_cost_names_parse_to_their_fractions(values):
    # counts and fractions skip Fraction's string parser; the table must not show it
    name = f"cost{len(values).bit_length() - 1}_" + "_".join(values)
    table = default_resolver().costfn(name).table
    assert table == tuple(Fraction(v) for v in values)
    assert all(type(v) is Fraction for v in table)


# tokens that Fraction's string parser takes (counts, fractions, decimals,
# signs, exponents, padding zeros) and some it refuses
NUMBER_TOKENS = st.one_of(
    COST_VALUES,
    st.from_regex(r"\A[+-]?[0-9]{1,6}(\.[0-9]{0,4})?(e[+-]?[0-9])?\Z"),
    st.sampled_from(["1/0", "x", "1//2", "1/2/3", "-1", "1.5", "0/1", "-0", "1_000"]))


# no max_examples: the count follows the loaded profile (conftest.py)
@settings(deadline=None)
@given(st.lists(NUMBER_TOKENS, min_size=1, max_size=4))
def test_inst_number_tokens_parse_to_their_fractions(tokens):
    # weights and thresholds go through a token cache; each parse, cold or
    # warm, must give Fraction(tok) or the parser's error for that token
    fileio._fraction_token.cache_clear()
    for _ in range(2):
        for tok in tokens:
            line = f"c f_neq 1 2 w {tok}"
            try:
                want = Fraction(tok)
            except (ValueError, ZeroDivisionError):
                with pytest.raises(InstanceError, match=re.escape(f"bad number {tok!r}")):
                    parse_inst(f"problem VCSP\nvars 2\n{line}\n")
                continue
            if want < 0:
                with pytest.raises(InstanceError, match="weights must be nonnegative"):
                    parse_inst(f"problem VCSP\nvars 2\n{line}\n")
                continue
            text = f"problem VCSP\nvars 2\n{line}\nthreshold <= {tok}\n"
            inst = parse_inst(text)
            assert inst.constraints[0].weight == want and inst.threshold.value == want
            assert type(inst.constraints[0].weight) is Fraction


# no max_examples: the count follows the loaded profile (conftest.py)
@settings(deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(COST_VALUES, min_size=1 << k, max_size=1 << k)))
def test_cost_name_values_parse_to_their_fractions_cold_and_warm(values):
    # the value tokens go through a token cache shared by every resolver
    instances._cost_value.cache_clear()
    name = f"cost{len(values).bit_length() - 1}_" + "_".join(values)
    for resolver in (default_resolver(), default_resolver()):
        fn = resolver.costfn(name)
        assert fn.table == tuple(Fraction(v) for v in values)
        assert fn.scaled[1] == math.lcm(*(Fraction(v).denominator for v in values))
