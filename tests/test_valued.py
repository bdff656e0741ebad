import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from coclones import valued
from coclones.acceptance import _recheck_admitted
from coclones.instances import CostFunction, f_neq, indicator_cost
from coclones.relations import OP_AND, OP_CONST0, OP_CONST1, OP_OR, RelationError
from coclones.valued import (
    NeqExpression,
    Term,
    binary_violation,
    classify_vcsp,
    express_neq,
    unary_violation,
    verify_neq_expression,
)


def _random_delta(rng: random.Random):
    out = []
    for i in range(rng.randint(1, 2)):
        k = rng.randint(1, 3)
        out.append(CostFunction(k, tuple(Fraction(rng.randint(0, 4))
                                         for _ in range(1 << k)), f"f{i}"))
    return out


def test_unary_multimorphism_examples():
    assert unary_violation([f_neq()], OP_CONST0) is not None
    assert unary_violation([f_neq()], OP_CONST1) is not None
    fn, x = unary_violation([f_neq()], OP_CONST0)
    assert f_neq()(x) < 1  # the witness beats the constant tuple
    const = CostFunction(2, (Fraction(3),) * 4, "const3")
    assert unary_violation([const], OP_CONST0) is None


def test_binary_multimorphism_examples():
    assert binary_violation([f_neq()], OP_AND, OP_OR) is not None
    xandnoty = CostFunction(2, (Fraction(0), Fraction(1), Fraction(0), Fraction(0)))
    assert binary_violation([xandnoty], OP_AND, OP_OR) is None
    assert binary_violation([], OP_AND, OP_OR) is None


def test_classify_examples():
    hard = classify_vcsp([f_neq()])
    assert hard.result == "NP-hard"
    assert set(hard.witnesses) == {"zero", "one", "minmax"}
    const = CostFunction(1, (Fraction(2), Fraction(2)))
    assert classify_vcsp([const]).result == "P"
    with pytest.raises(RelationError):
        classify_vcsp([])


def test_classify_then_express_scans_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return binary_violation(*args)

    monkeypatch.setattr(valued, "binary_violation", counted)
    valued._violations.cache_clear()
    hard = [f_neq(), CostFunction(1, (Fraction(1), Fraction(0)), "unary")]
    assert not classify_vcsp(hard).is_polynomial
    assert verify_neq_expression(express_neq(hard), hard)
    assert len(calls) == 1
    # another set is scanned afresh, and so is the first one after it
    classify_vcsp([f_neq()])
    express_neq(list(hard))
    assert len(calls) == 3


@st.composite
def cost_sets(draw):
    fns = []
    for i in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, 3))
        table = draw(st.tuples(*([st.integers(0, 4)] * (1 << k))))
        fns.append(CostFunction(k, tuple(Fraction(v) for v in table), f"f{i}"))
    return fns


@settings(max_examples=200, deadline=None)
@given(cost_sets())
def test_vcsp_witnesses_violate_what_they_claim(delta):
    cls = classify_vcsp(delta)
    if cls.is_polynomial:
        assert _recheck_admitted(delta, cls.admitted)
        return
    fns = {fn.name: fn for fn in delta}
    name, x = cls.witnesses["zero"]
    assert fns[name](0) > fns[name](x)
    name, x = cls.witnesses["one"]
    assert fns[name]((1 << fns[name].arity) - 1) > fns[name](x)
    name, x, y = cls.witnesses["minmax"]
    fn = fns[name]
    assert fn(x & y) + fn(x | y) > fn(x) + fn(y)


def test_express_neq_fneq_trace():
    e = express_neq([f_neq()])
    assert e.alpha1 == Fraction(1, 2) and e.alpha2 == 0
    assert e.vestigial_forcing
    assert verify_neq_expression(e, [f_neq()])


def test_express_neq_scaled():
    scaled = CostFunction(2, tuple(3 * v for v in f_neq().table), "3fneq")
    e = express_neq([scaled])
    assert e.alpha1 == Fraction(1, 6)
    assert verify_neq_expression(e, [scaled])


def test_express_neq_shifted():
    shifted = CostFunction(2, tuple(v + 5 for v in f_neq().table), "fneq5")
    e = express_neq([shifted])
    assert e.alpha2 == -5
    assert verify_neq_expression(e, [shifted])


def test_zero_alpha1_fails_verification():
    e = express_neq([f_neq()])
    broken = NeqExpression(e.fns, e.terms, e.forcing, Fraction(0), e.alpha2,
                           e.vestigial_forcing, e.trace)
    assert not verify_neq_expression(broken, [f_neq()])


def test_hand_built_identity_expression():
    d = [f_neq()]
    expr = NeqExpression(
        fns=tuple(d),
        terms=(Term(Fraction(1), 0, ("x", "y")),),
        forcing=(Term(Fraction(3), 0, ("v0", "v1")),),
        alpha1=Fraction(1), alpha2=Fraction(0),
        vestigial_forcing=True, trace=())
    assert verify_neq_expression(expr, d)


def test_synthesis_on_seeded_corpus():
    rng = random.Random(20240817)
    hard = 0
    while hard < 120:
        delta = _random_delta(rng)
        cls = classify_vcsp(delta)
        if cls.result != "NP-hard":
            continue
        hard += 1
        expr = express_neq(delta)
        assert verify_neq_expression(expr, delta), [f.table for f in delta]
        assert all(t.weight >= 0 for t in expr.terms)
        assert expr.alpha1 >= 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_classification_scale_shift_invariant(data):
    rng_tabs = []
    k = data.draw(st.integers(1, 2))
    table = tuple(Fraction(data.draw(st.integers(0, 3))) for _ in range(1 << k))
    fn = CostFunction(k, table)
    base = classify_vcsp([fn])
    num = data.draw(st.integers(1, 5))
    den = data.draw(st.integers(1, 4))
    shift = Fraction(data.draw(st.integers(0, 4)))
    scaled = CostFunction(k, tuple(v * Fraction(num, den) + shift for v in table))
    got = classify_vcsp([scaled])
    assert got.result == base.result
    if base.result == "P":
        assert got.admitted == base.admitted


def test_indicator_cost():
    from coclones.relations import rel_neq
    ind = indicator_cost(rel_neq())
    assert ind.table == f_neq().table


def test_tiny_rational_gap_forcing():
    # regression: the constant-pinning layers must dominate by *gap*, not by
    # magnitude; o(1,1)-o(0,0) = 1/100 here while the inner spread is large
    g = CostFunction(2, (Fraction(5), Fraction(0), Fraction(3), Fraction(1, 100)), "g")
    assert classify_vcsp([g]).result == "NP-hard"
    expr = express_neq([g])
    assert verify_neq_expression(expr, [g])


def test_synthesis_on_rational_tables():
    rng = random.Random(424242)
    hard = 0
    while hard < 80:
        delta = []
        for i in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            delta.append(CostFunction(
                k, tuple(Fraction(rng.randint(0, 8), rng.randint(1, 5))
                         for _ in range(1 << k)), f"f{i}"))
        if classify_vcsp(delta).result != "NP-hard":
            continue
        hard += 1
        expr = express_neq(delta)
        assert verify_neq_expression(expr, delta), [f.table for f in delta]
