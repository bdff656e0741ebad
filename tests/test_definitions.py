import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from coclones import definitions, truthtables
from coclones.definitions import (
    ARGMAX_IDENTITIES,
    EXTENSION_FORMULAS,
    Formula,
    SearchResult,
    UnsatisfiableGadgetError,
    constant_extension_implications,
    eval_formula,
    eval_wpp,
    search_definition,
)
from coclones.instances import Constraint, Instance, KIND_WMO, default_resolver
from coclones.relations import (
    ConstraintLanguage,
    Relation,
    rel_eq,
    rel_even,
    rel_neq,
    rel_or,
    rel_true,
)
from reference import lut

RESOLVER = default_resolver()


def test_eval_formula_identity_and_projection():
    f = Formula(2, 0, (("eq", (0, 1)),))
    assert eval_formula(f, {"eq": rel_eq()}).tuples == rel_eq().tuples
    # OR2(x1,y1) & OR2(x2,y1) with existential y1 covers every pair
    f2 = Formula(2, 1, (("OR2", (0, 2)), ("OR2", (1, 2))))
    got = eval_formula(f2, {"OR2": rel_or(2)})
    assert got.tuples == (0, 1, 2, 3)


def test_eval_formula_projection_bound():
    # without quantifiers the solution count is bounded by the atom product
    f = Formula(3, 0, (("OR2", (0, 1)), ("neq", (1, 2))))
    got = eval_formula(f, {"OR2": rel_or(2), "neq": rel_neq()})
    assert len(got.tuples) <= len(rel_or(2).tuples) * len(rel_neq().tuples)


def defines(formula, target, language):
    """Whether the formula defines exactly the target (names aside)."""
    got = eval_formula(formula, language)
    return (got.arity, got.tuples) == (target.arity, target.tuples)


def test_verify_qpp_examples():
    assert defines(Formula(2, 0, (("eq", (0, 1)),)), rel_eq(), {"eq": rel_eq()})
    # the ID2 weak-base formula over its building blocks
    lang = {"OR2": rel_or(2), "neq": rel_neq(), "T": rel_true(),
            "F": RESOLVER.relation("F")}
    id2 = Formula(6, 0, (("OR2", (0, 1)), ("neq", (0, 2)), ("neq", (1, 3)),
                         ("F", (4,)), ("T", (5,))))
    assert defines(id2, RESOLVER.relation("R_ID2"), lang)


def test_even3_has_no_small_quantifier_free_definition_over_even2():
    # exhaustive search proves nonexistence within three binary parity atoms
    res = search_definition(rel_even(3), {"EVEN2": rel_even(2)}, max_aux=0, max_atoms=3)
    assert res.formula is None and res.exhausted


def test_search_eq_from_neq():
    res = search_definition(rel_eq(), ConstraintLanguage([rel_neq()]),
                            max_aux=1, max_atoms=2)
    assert res.formula is not None and res.exhausted
    assert res.formula.aux_vars == 1
    got = eval_formula(res.formula, {"neq": rel_neq(), "eq": rel_eq()})
    assert got.tuples == rel_eq().tuples
    # only inequality atoms are needed
    assert all(name == "eq" or name == "neq" for name, _ in res.formula.atoms)


def test_search_trivial_self_definition():
    res = search_definition(rel_true(), ConstraintLanguage([rel_true()]),
                            max_aux=0, max_atoms=1)
    assert res.formula is not None
    assert res.formula.atoms == (("T", (0,)),)


def test_search_budget_flag_distinct_from_exhaustion(monkeypatch):
    monkeypatch.setattr(definitions, "EXPLORE_BUDGET", 50)
    res = search_definition(rel_even(3), {"R_II2": RESOLVER.relation("R_II2")},
                            max_aux=1, max_atoms=2)
    assert res.formula is None and not res.exhausted


def test_search_budget_ends_exactly_at_the_first_definition(monkeypatch):
    # every candidate is projected once, so the projections count the
    # candidates the search examines up to and including its hit
    target, lang = rel_eq(), ConstraintLanguage([rel_neq()])
    projected = []
    real = truthtables.project
    monkeypatch.setattr(truthtables, "project", lambda *a: projected.append(a) or real(*a))
    found = search_definition(target, lang, max_aux=1, max_atoms=2)
    monkeypatch.setattr(truthtables, "project", real)
    # the hit has 1 aux variable, past the 10 candidates without one; 9 atoms
    # on 3 variables stay within either budget below
    assert found.formula is not None and found.formula.aux_vars == 1
    assert len(projected) > 10
    monkeypatch.setattr(definitions, "EXPLORE_BUDGET", len(projected))
    assert search_definition(target, lang, max_aux=1, max_atoms=2) == found
    monkeypatch.setattr(definitions, "EXPLORE_BUDGET", len(projected) - 1)
    res = search_definition(target, lang, max_aux=1, max_atoms=2)
    assert res.formula is None and not res.exhausted


def test_search_results_always_verify():
    lang = ConstraintLanguage([rel_or(2), rel_neq()])
    for target in (rel_or(2), rel_neq(), rel_eq()):
        res = search_definition(target, lang, max_aux=1, max_atoms=2)
        if res.formula is not None:
            assert defines(res.formula, target, lang)


def test_constant_extension_examples():
    rel = RESOLVER.relation("R_IS1_2")
    # padding with the two constants always works
    padded = Relation.from_masks(5, [t | (1 << 4) for t in rel.tuples])
    assert constant_extension_implications(rel, padded)[:2] == (True, True)
    t_rel = rel_true()
    bad = Relation.from_masks(3, [0b111])  # forces y0 = 1
    assert not all(constant_extension_implications(t_rel, bad)[:2])


def test_extension_formula_suite():
    for ext in EXTENSION_FORMULAS:
        rel = RESOLVER.relation(ext.source)
        rp = eval_formula(ext.formula, RESOLVER)
        i1, i2, i2top = constant_extension_implications(rel, rp)
        assert i1, ext.target
        if ext.source == "R_II2":
            # the wide extension admits an all-zero tuple, so only the
            # restriction to forced y1 = 1 implies membership
            assert i2top and not i2
        else:
            assert i2


def test_argmax_identities_exact():
    for ident in ARGMAX_IDENTITIES:
        got = eval_wpp(ident.gadget(), RESOLVER)
        want = RESOLVER.relation(ident.target)
        assert got.tuples == want.tuples, ident.base
        gadget = ident.gadget()
        assert set(gadget.projection) == set(range(gadget.num_vars))


def test_eval_wpp_trivial_and_unsat():
    one = Instance(KIND_WMO, 1, (), var_weights=(Fraction(1),), projection=(0,))
    got = eval_wpp(one, RESOLVER)
    assert got.tuples == (1,)  # a free weighted variable maximizes to 1
    bad = Instance(KIND_WMO, 1, (Constraint("T", (0,)), Constraint("F", (0,))),
                   var_weights=(Fraction(1),))
    with pytest.raises(UnsatisfiableGadgetError):
        eval_wpp(bad, RESOLVER)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4))
def test_eval_wpp_invariant_under_weight_scaling(num, den):
    scale = Fraction(num, den)
    ident = ARGMAX_IDENTITIES[0]
    base = eval_wpp(ident.gadget(), RESOLVER)
    inst = ident.gadget()
    scaled = Instance(KIND_WMO, inst.num_vars, inst.constraints,
                      var_weights=tuple(w * scale for w in inst.var_weights))
    got = eval_wpp(scaled, RESOLVER)
    assert got.tuples == base.tuples


# ---------------------------------------------------------------------------
# The int truth tables against the bool-array code they replaced


def array_eval_formula(formula, language):
    """eval_formula on numpy bool arrays: gather every atom's LUT, then project."""
    width = formula.total_vars + formula.aux_vars
    sat = np.ones(1 << width, dtype=bool)
    idx = np.arange(1 << width, dtype=np.int64)
    for name, args in formula.atoms:
        t = np.zeros_like(idx)
        for j, v in enumerate(args):
            t |= ((idx >> v) & 1) << j
        sat &= lut(definitions._lookup(language, name))[t]
    proj = idx[sat] & ((1 << formula.total_vars) - 1)
    return Relation.from_masks(formula.total_vars, (int(p) for p in np.unique(proj)),
                               allow_empty=True)


def array_search_definition(target, language, max_aux, max_atoms, include_eq, budget):
    """search_definition on numpy bool arrays, with its order and its budget."""
    names = (["eq"] if include_eq else []) + [n for n in language.names() if n != "eq"]
    tv = target.arity
    for aux in range(max_aux + 1):
        width = tv + aux
        atoms = []
        for name in sorted(names):
            arity = definitions._lookup(language, name).arity
            atoms.extend((name, slots) for slots in
                         itertools.product(range(width), repeat=arity))
        if len(atoms) > budget:
            return SearchResult(None, False)
        idx = np.arange(1 << width, dtype=np.int64)
        proj = idx & ((1 << tv) - 1)
        sats = []
        for name, args in atoms:
            t = np.zeros_like(idx)
            for j, v in enumerate(args):
                t |= ((idx >> v) & 1) << j
            sats.append(lut(definitions._lookup(language, name))[t])
        for natoms in range(1, max_atoms + 1):
            for combo in itertools.combinations(range(len(atoms)), natoms):
                budget -= 1
                if budget < 0:
                    return SearchResult(None, False)
                sat = sats[combo[0]].copy()
                for ai in combo[1:]:
                    sat &= sats[ai]
                got = np.zeros(1 << tv, dtype=bool)
                got[proj[sat]] = True
                if np.array_equal(got, lut(target)):
                    return SearchResult(Formula(tv, aux, tuple(atoms[ai] for ai in combo)), True)
    return SearchResult(None, True)


@st.composite
def relations_upto(draw, max_arity, name=None):
    arity = draw(st.integers(1, max_arity))
    return Relation(arity, tuple(draw(st.sets(st.integers(0, (1 << arity) - 1)))), name)


@st.composite
def languages(draw):
    return ConstraintLanguage([draw(relations_upto(3, f"R{i}"))
                               for i in range(draw(st.integers(1, 3)))])


@st.composite
def formulas(draw, language):
    tv, aux = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    atoms = []
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(language.names() + ["eq"]))
        arity = definitions._lookup(language, name).arity
        slot = st.integers(0, tv + aux - 1)
        atoms.append((name, tuple(draw(st.lists(slot, min_size=arity, max_size=arity)))))
    return Formula(tv, aux, tuple(atoms))


# no max_examples: the count follows the loaded profile (conftest.py)
@pytest.mark.deep
@settings(deadline=None)
@given(st.data())
def test_int_tables_match_the_array_code(data):
    language = data.draw(languages())
    formula = data.draw(formulas(language))
    defined = eval_formula(formula, language)
    assert defined == array_eval_formula(formula, language)
    # a definable target half the time, so that searches also succeed
    target = defined if data.draw(st.booleans()) else data.draw(relations_upto(4))
    max_aux, max_atoms = data.draw(st.integers(0, 2)), data.draw(st.integers(1, 3))
    include_eq, budget = data.draw(st.booleans()), data.draw(st.integers(1, 1000))
    with mock.patch.object(definitions, "EXPLORE_BUDGET", budget):
        got = search_definition(target, language, max_aux, max_atoms, include_eq)
    assert got == array_search_definition(target, language, max_aux, max_atoms,
                                          include_eq, budget)


def test_table_matches_the_lut_gather():
    rng = random.Random(0)
    for arity in (1, 2, 3):
        for bits in range(1 << (1 << arity)):
            rel = Relation(arity, tuple(m for m in range(1 << arity) if bits >> m & 1))
            assert rel.bits == bits
            table = lut(rel)
            for _ in range(3):
                n = rng.randint(1, 5)
                args = [rng.randrange(n) for _ in range(arity)]  # repeats allowed
                want = sum(1 << a for a in range(1 << n) if table[
                    sum(((a >> v) & 1) << j for j, v in enumerate(args))])
                assert truthtables.table(rel, args, n) == want, (rel.tuples, args, n)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.sets(st.integers(0, (1 << n) - 1)))))
def test_project_matches_projecting_the_masks(case):
    n, keep, masks = case
    t = sum(1 << m for m in masks)
    assert truthtables.masks(t, n) == sorted(masks)
    kept = {m & ((1 << keep) - 1) for m in masks}
    assert truthtables.project(t, n, keep) == sum(1 << m for m in kept)


# empty, sparse, dense and full tables over 0-14 variables; the examples at
# 14 variables take each read of `masks`: the search of the sparse one below
# one set bit in eight, and the selectors at or above it
@given(st.integers(0, 14), st.sampled_from(("empty", "sparse", "dense", "full")),
       st.randoms(use_true_random=False))
@example(14, "sparse", random.Random(0))
@example(14, "dense", random.Random(0))
@example(14, "full", random.Random(0))
@example(6, "sparse", random.Random(1))
def test_masks_lists_the_set_bits_ascending(n, shape, rng):
    size = 1 << n
    if shape == "empty":
        want = []
    elif shape == "sparse":
        want = sorted(rng.sample(range(size), min(size, rng.randint(1, 12))))
    elif shape == "dense":
        want = [m for m in range(size) if rng.random() < 0.5]
    else:
        want = list(range(size))
    t = 0
    for m in want:
        t |= 1 << m
    got = truthtables.masks(t, n)
    assert got == want and all(type(m) is int for m in got)
