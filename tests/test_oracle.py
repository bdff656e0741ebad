import itertools
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from coclones import arrays, oracle, reductions, relations
from coclones import truthtables as tt
from coclones.instances import (
    ALL_KINDS,
    Constraint,
    Instance,
    KIND_MAXCSP,
    KIND_MAXCUT,
    KIND_MINO,
    KIND_SAT,
    KIND_UMO,
    KIND_VCSP,
    KIND_WMO,
    MAXIMIZING_KINDS,
    Resolver,
    Threshold,
    default_resolver,
)
from coclones.oracle import OracleError, SolveResult, decide, solve
from coclones.relations import Relation
from reference import reference_terms, solve_bruteforce

RESOLVER = default_resolver()


def umo(n, cons, **kw):
    return Instance(KIND_UMO, n, tuple(Constraint(r, a) for r, a in cons), **kw)


def wmo(n, cons, weights, kind=KIND_WMO):
    return Instance(kind, n, tuple(Constraint(r, a) for r, a in cons),
                    var_weights=tuple(Fraction(w) for w in weights))


def arity(kind, ref):
    """How many arguments a constraint on ref takes in a `kind` instance."""
    if kind == KIND_MAXCUT:
        return 2
    return (RESOLVER.costfn(ref) if kind == KIND_VCSP else RESOLVER.relation(ref)).arity


def test_independent_set_triangle():
    # NAND2 on a 3-clique: max ones = independence number = 1
    inst = umo(3, [("NAND2", (0, 1)), ("NAND2", (0, 2)), ("NAND2", (1, 2))])
    res = solve(inst)
    assert res.satisfiable and res.optimum == 1
    assert res.witness == 0b001  # least optimal assignment


def test_vcsp_fneq_triangle():
    cons = tuple(Constraint("f_neq", e) for e in ((0, 1), (0, 2), (1, 2)))
    inst = Instance(KIND_VCSP, 3, cons)
    assert solve(inst).optimum == 1


def test_sat_single_weak_base_constraint():
    inst = Instance(KIND_SAT, 8, (Constraint("R_II2", tuple(range(8))),))
    assert solve(inst).satisfiable


def test_maxcut_triangle_decisions():
    cons = tuple(Constraint("edge", e) for e in ((0, 1), (0, 2), (1, 2)))
    inst = Instance(KIND_MAXCUT, 3, cons)
    assert solve(inst).optimum == 2
    assert decide(inst, Threshold(">=", Fraction(2)))
    assert not decide(inst, Threshold(">=", Fraction(3)))


def test_unsat_is_distinct_outcome():
    inst = umo(1, [("T", (0,)), ("F", (0,))])
    res = solve(inst)
    assert not res.satisfiable and res.optimum is None and res.witness is None
    assert not decide(inst, Threshold(">=", Fraction(0)))


def test_satisfiable_maxones_ge_zero():
    inst = umo(2, [("OR2", (0, 1))])
    assert decide(inst, Threshold(">=", Fraction(0)))


def test_weighted_rational_objective():
    inst = Instance(KIND_WMO, 2, (Constraint("OR2", (0, 1)),),
                    var_weights=(Fraction(1, 3), Fraction(1, 2)))
    res = solve(inst)
    assert res.optimum == Fraction(5, 6)


def test_want_all_optimal_set():
    inst = Instance(KIND_MINO, 2, (Constraint("neq", (0, 1)),))
    res = solve(inst, want_all=True)
    assert res.optimum == 1
    assert set(res.optimal_set) == {0b01, 0b10}


def test_cap_enforced():
    with pytest.raises(OracleError):
        solve(Instance(KIND_SAT, 23, ()), want_all=True)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_optimum_invariant_under_variable_permutation(data):
    n = data.draw(st.integers(2, 4))
    m = data.draw(st.integers(1, 3))
    cons = []
    for _ in range(m):
        args = tuple(data.draw(st.integers(0, n - 1)) for _ in range(2))
        cons.append(("OR2", args))
    inst = umo(n, cons)
    base = solve(inst)
    perm = data.draw(st.permutations(list(range(n))))
    pcons = [(r, tuple(perm[v] for v in a)) for r, a in cons]
    permuted = solve(umo(n, pcons))
    assert permuted.satisfiable == base.satisfiable
    assert permuted.optimum == base.optimum


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_maxones_monotone_under_weight_increase(data):
    n = data.draw(st.integers(2, 4))
    cons = tuple(Constraint("NAND2", (data.draw(st.integers(0, n - 1)),
                                      data.draw(st.integers(0, n - 1))))
                 for _ in range(2))
    weights = [Fraction(data.draw(st.integers(0, 3))) for _ in range(n)]
    inst = Instance(KIND_WMO, n, cons, var_weights=tuple(weights))
    res = solve(inst)
    i = data.draw(st.integers(0, n - 1))
    bump = list(weights)
    bump[i] += Fraction(data.draw(st.integers(1, 3)))
    res2 = solve(Instance(KIND_WMO, n, cons, var_weights=tuple(bump)))
    if res.satisfiable:
        assert res2.optimum >= res.optimum


def test_parallel_equals_sequential(monkeypatch):
    cons = tuple(Constraint("R_II2", tuple((i + j) % 10 for j in range(8))) for i in range(3))
    inst = Instance(KIND_UMO, 10, cons)
    a = solve(inst, jobs=1, want_all=True)
    b = solve(inst, jobs=8, want_all=True)
    assert a == b
    # a star into the last variable keeps every variable in the elimination
    # table, so this Max-Cut goes to the grid: two 2^20 chunks, which jobs=2
    # runs on two threads
    edges = [(i, 20) for i in range(20)] + [(i, (3 * i + 1) % 21) for i in range(21)]
    cut = Instance(KIND_MAXCUT, 21, tuple(Constraint("edge", e) for e in edges))
    calls = spy_on(monkeypatch)
    assert solve(cut, jobs=1) == solve(cut, jobs=2)
    assert len(calls) == 2


# 1-, 2-, 3- and 8-ary relations; T with F on one variable makes instances
# unsatisfiable, and OR8 and EVEN8 are full and dense past half their masks
RELATIONS = ("T", "F", "eq", "neq", "OR2", "NAND2", "OR3", "R13", "XOR3",
             "R_II2", "R_IN2", "R_IL2", "OR8", "EVEN8")
COSTS = ("f_neq", "cost1_0_3/2", "cost2_1_0_1/3_2", "fnot_NAND2")
WEIGHTS = st.builds(Fraction, st.integers(0, 4), st.integers(1, 3))
HARD_KINDS = (KIND_SAT, KIND_UMO, KIND_WMO, KIND_MINO)
TRUTH = oracle._TRUTH_VARS


def examples(n):
    """n examples under the default hypothesis profile, 10x under `deep` (conftest.py)."""
    return n * settings.default.max_examples // 100


@st.composite
def instances(draw, kinds=ALL_KINDS, least=1, most=TRUTH + 2, most_constraints=6):
    kind = draw(st.sampled_from(kinds))
    # by default both sides of the truth-table cut
    n = draw(st.integers(least, most))
    refs = COSTS if kind == KIND_VCSP else ("edge",) if kind == KIND_MAXCUT else RELATIONS
    # the Ones kinds weigh variables, never constraints
    weighted = kind in (KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT)
    cons = []
    if n:  # no constraint has a variable to take on 0 variables
        # in one draw of four, args from a pool of 1-3 variables collapse a
        # constraint to a minor of as many variables, e.g. (a,a,a,a,b,b,b,b),
        # at every n; the other three keep the unrestricted args
        pool = None if draw(st.integers(0, 3)) else draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        var = st.integers(0, n - 1) if pool is None else st.sampled_from(pool)
        for _ in range(draw(st.integers(0, most_constraints))):
            ref = draw(st.sampled_from(refs))
            k = arity(kind, ref)
            args = tuple(draw(st.lists(var, min_size=k, max_size=k)))
            weight = draw(st.one_of(st.none(), WEIGHTS)) if weighted else None
            cons.append(Constraint(ref, args, weight))
    var_weights = None
    if kind in (KIND_WMO, KIND_MINO) and draw(st.booleans()):
        var_weights = tuple(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    threshold = draw(st.one_of(st.none(), st.builds(
        Threshold, st.sampled_from((">=", "<=")), WEIGHTS)))
    return Instance(kind, n, tuple(cons), var_weights, threshold)


# instances on which the truth tables meet a relation over half full (OR8),
# a dense one (EVEN8), repeated arguments, and a conjunction that reaches
# zero before its last constraint
TRUTH_EXAMPLES = (
    umo(TRUTH, [("OR8", (0, 2, 4, 6, 8, 10, 12, 13)), ("OR8", tuple(range(1, 9))),
                ("OR8", (13, 11, 9, 7, 5, 3, 1, 0))]),
    umo(TRUTH, [("EVEN8", tuple(range(8))), ("EVEN8", tuple(range(5, 13))),
                ("EVEN8", (13, 0, 12, 1, 11, 2, 10, 3))]),
    wmo(TRUTH + 1, [("EVEN8", (0, 1, 2, 3, 4, 5, 6, 14)), ("OR8", tuple(range(7, 15)))],
        [1 + v % 4 for v in range(TRUTH + 1)], KIND_MINO),
    Instance(KIND_SAT, 5, (Constraint("EVEN8", (0, 0, 1, 1, 2, 2, 3, 4)),
                           Constraint("OR8", (4, 4, 4, 3, 3, 3, 2, 2)),
                           Constraint("R_IN2", (0, 1, 0, 1, 2, 3, 2, 3)))),
    umo(TRUTH, [("NAND2", (0, 1)), ("T", (0,)), ("T", (1,)), ("OR8", tuple(range(2, 10)))]),
)


def two_plus_3n(name, source):
    """The target of 2+3n entry `name` on `source`, as certify builds it."""
    return reductions.record(name).build(source, RESOLVER.resolve_all(source.kind,
                                                                      source.constraints))


# targets of the 2+3n entries at 17 and 20 variables, past the truth-table cut:
# 8-ary weak-base atoms on 2 or 3 distinct variables, as the certify ops solve
# (the sources are satisfiable, so the frontier reaches the last variable)
II2_SOURCE = umo(5, [("R_II2", (4, 1, 2, 2, 0, 4, 2, 4)), ("R_II2", (1, 3, 2, 4, 2, 3, 2, 3))])
IL2_SOURCE = umo(6, [("R_IL2", (3, 0, 4, 5, 5, 2, 3, 5)), ("R_IL2", (0, 4, 4, 1, 1, 2, 0, 2))])
CERTIFY_TARGETS = (
    two_plus_3n("umo_II2_to_IN2", II2_SOURCE),
    two_plus_3n("umo_IS21_to_ID2", umo(6, [("R_IS1_2", (0, 1, 2)), ("R_IS1_2", (3, 4, 5))])),
    two_plus_3n("umo_IL2_to_IL3", IL2_SOURCE),
    two_plus_3n("umo_IS21_to_ID2", umo(5, [("R_IS1_2", (0, 1, 4)), ("R_IS1_2", (2, 3, 4))])),
)


def sampled_target(name, seed):
    """The target of 2+3n entry `name` on its own sampler's draw at `seed`."""
    return two_plus_3n(name, reductions.record(name).sampler(random.Random(seed)))


# unsatisfiable targets at 17 and 20 variables, as most certify-hard ops meet:
# the frontier empties at variable 6 or 7 of the umo_II2_to_IN2 ones and at
# variable 2 of the umo_IL2_to_IL3 ones, with 10-14 more tops to come
EMPTYING_TARGETS = (
    sampled_target("umo_II2_to_IN2", 5),
    sampled_target("umo_II2_to_IN2", 0),
    sampled_target("umo_IL2_to_IL3", 217),
    sampled_target("umo_IL2_to_IL3", 157),
)


@pytest.mark.deep
@settings(max_examples=examples(300), deadline=None)
@given(instances(), st.booleans())
@example(CERTIFY_TARGETS[0], True)
@example(CERTIFY_TARGETS[1], True)
@example(CERTIFY_TARGETS[2], False)
@example(CERTIFY_TARGETS[3], False)
@example(umo(2, [("T", (0,)), ("F", (0,)), ("OR2", (0, 1))]), True)
@example(TRUTH_EXAMPLES[0], True)
@example(TRUTH_EXAMPLES[1], True)
@example(TRUTH_EXAMPLES[2], True)
@example(TRUTH_EXAMPLES[3], True)
@example(TRUTH_EXAMPLES[4], False)
@example(Instance(KIND_SAT, 3, (Constraint("R_II2", (0, 1, 2, 0, 1, 2, 0, 1)),)), True)
# a bound of at least 2^31 makes the enumeration accumulate in int64
@example(Instance(KIND_VCSP, 4, (Constraint("f_neq", (0, 1), Fraction(2 ** 31)),
                                 Constraint("cost2_1_0_1/3_2", (3, 1), Fraction(2)))), True)
def test_frontier_matches_bruteforce(inst, want_all):
    # every route of solve: truth tables of either kind, frontier, elimination
    # and grid
    assert solve(inst, want_all=want_all) == solve_bruteforce(inst, want_all=want_all)


# a 10-ary relation of 501 tuples whose diagram passes DIAGRAM_NODES, so its
# tables are gathered from its LUT, restricted ones too
WIDE = Relation(10, tuple(m for m in range(1 << 10) if random.Random(10).random() < 0.5), "WIDE10")
RESOLVER.register_relation(WIDE)


# The hard kinds past the cut keep one table over the first TRUTH variables
# per live assignment of the rest.  Besides the draws of 15-20 variables, the
# examples take them with no tail (up to 14 variables), emptying below the
# cut (15-17), with no term below it (15-16), with terms whose top variable is
# 13, the last below the cut, or 14, the first past it, with terms wholly
# past it, with a relation without a diagram across it, and with Min-Ones
# optima tied across the high assignments
@pytest.mark.deep
@settings(max_examples=examples(50), deadline=None)
@given(instances(HARD_KINDS, least=TRUTH + 1, most=20, most_constraints=8), st.booleans())
@example(TRUTH_EXAMPLES[0], True)
@example(TRUTH_EXAMPLES[1], True)
@example(TRUTH_EXAMPLES[2], True)
@example(TRUTH_EXAMPLES[3], True)
@example(TRUTH_EXAMPLES[4], True)
@example(umo(TRUTH + 1, [("T", (3,)), ("F", (3,)), ("OR2", (14, 1))]), True)
@example(wmo(TRUTH + 2, [("NAND2", (0, 1)), ("T", (0,)), ("T", (1,)), ("OR8", tuple(range(8, 16)))],
             [1 + v % 3 for v in range(TRUTH + 2)], KIND_MINO), False)
@example(Instance(KIND_SAT, TRUTH + 3, (Constraint("R_IN2", (2, 2, 2, 2, 13, 13, 13, 13)),
                                        Constraint("EVEN8", (0, 0, 1, 1, 2, 2, 13, 13)),
                                        Constraint("R_IN2", (2, 2, 2, 2, 16, 16, 16, 16)))),
          True)
@example(umo(TRUTH + 1, []), True)
@example(umo(TRUTH + 2, [("NAND2", (14, 15)), ("OR3", (3, 15, 14)),
                         ("R_II2", (15, 14, 0, 15, 1, 14, 2, 15))]), True)
@example(umo(TRUTH + 1, [("OR2", (0, 13)), ("NAND2", (13, 14)),
                         ("EVEN8", (14, 13, 12, 11, 10, 9, 8, 7)),
                         ("R_IL2", (13, 0, 14, 2, 13, 1, 14, 3))]), True)
@example(wmo(TRUTH + 3, [("OR8", tuple(range(6, 14))), ("R_IN2", (13, 13, 13, 13, 14, 14, 14, 14)),
                         ("NAND2", (14, 16)), ("OR2", (15, 16))],
             [2, 0, 1] * 5 + [1, 3], KIND_WMO), True)
@example(EMPTYING_TARGETS[0], True)
@example(EMPTYING_TARGETS[1], False)
@example(EMPTYING_TARGETS[2], False)
@example(EMPTYING_TARGETS[3], True)
@example(umo(TRUTH + 4, [("NAND2", (15, 17)), ("OR3", (14, 16, 17)), ("T", (16,)),
                         ("R_IN2", (14, 14, 14, 14, 17, 17, 17, 17))]), True)
@example(wmo(TRUTH + 4, [("OR2", (0, 15)), ("NAND2", (14, 17)), ("EVEN8", (16, 17, 16, 17, 15, 15, 14, 14))],
             [1 + v % 4 for v in range(TRUTH + 4)]), False)
@example(umo(TRUTH + 5, [("WIDE10", tuple(range(9, 19))), ("NAND2", (3, 9))]), True)
@example(wmo(TRUTH + 3, [("WIDE10", (16, 0, 15, 1, 14, 2, 13, 3, 12, 4)), ("OR2", (5, 16))],
             [3] * (TRUTH + 3), KIND_MINO), True)
@example(wmo(TRUTH + 2, [("OR2", (0, 14)), ("OR2", (1, 15))], [1] * (TRUTH + 2), KIND_MINO), True)
@example(wmo(TRUTH + 2, [("OR2", (0, 14)), ("OR2", (1, 15))], [1] * (TRUTH + 2), KIND_MINO), False)
@example(Instance(KIND_MINO, TRUTH + 3, umo(TRUTH + 3, [("OR3", (2, 14, 16)), ("neq", (15, 16))]).constraints),
         True)
def test_hard_kinds_past_the_cut_match_bruteforce(inst, want_all):
    assert solve(inst, RESOLVER, want_all=want_all) == solve_bruteforce(inst, RESOLVER,
                                                                        want_all=want_all)


def soft(kind, n):
    """A weighted soft-kind instance on n variables: a cycle of binary terms plus unary ones."""
    ref = {KIND_VCSP: "cost2_1_0_1/3_2", KIND_MAXCSP: "OR2", KIND_MAXCUT: "edge"}[kind]
    cons = [Constraint(ref, (i, (3 * i + 1) % n), Fraction(1 + i % 3, 1 + i % 2))
            for i in range(n)]
    if kind == KIND_VCSP:
        cons += [Constraint("cost1_0_3/2", (i,)) for i in range(0, n, 4)]
    elif kind == KIND_MAXCSP:
        cons += [Constraint("NAND2", (i, i + 1), Fraction(2)) for i in range(0, n - 1, 3)]
    return Instance(kind, n, tuple(cons))


# The next two route tests lower the truth-table cut to this, so that one
# variable past it n * _STEP_STATES alone passes 2^n and elimination is
# refused; test_soft_kinds_take_the_truth_tables_up_to_the_cut pins the real
# cut.
LOW_CUT = 10


def spy_on(monkeypatch, name="enumerate_masks", module=arrays):
    """The list that records every call of module.<name>, by default the grid."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


# solve takes instances up to the cut through the truth tables, so the grid,
# which only the soft kinds reach, is compared with the reference here, at
# every size
@pytest.mark.deep
@settings(max_examples=examples(200), deadline=None)
@given(instances((KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT)), st.booleans())
@example(soft(KIND_VCSP, TRUTH), True)
@example(soft(KIND_VCSP, TRUTH + 1), True)
@example(soft(KIND_MAXCSP, TRUTH), True)
@example(soft(KIND_MAXCSP, TRUTH + 1), True)
@example(soft(KIND_MAXCUT, TRUTH), True)
@example(soft(KIND_MAXCUT, TRUTH + 1), True)
def test_grid_matches_bruteforce(inst, want_all):
    grid = arrays.enumerate_masks(inst, oracle._terms(inst, RESOLVER, want_all)[1], want_all, 1)
    assert grid == solve_bruteforce(inst, RESOLVER, want_all=want_all)


@pytest.mark.parametrize("kind", [KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT])
@pytest.mark.parametrize("n", [LOW_CUT, LOW_CUT + 1])
def test_soft_kinds_take_the_grid_only_past_the_cut(kind, n, monkeypatch):
    # the optimal set past the cut comes from the grid, never from elimination
    monkeypatch.setattr(oracle, "_TRUTH_VARS", LOW_CUT)
    inst = soft(kind, n)
    reference = solve_bruteforce(inst, want_all=True)
    grid, elimination = spy_on(monkeypatch), spy_on(monkeypatch, "eliminate")
    assert solve(inst, want_all=True) == reference
    assert (len(grid), len(elimination)) == (n > LOW_CUT, 0)


@pytest.mark.parametrize("kind", [KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT])
@pytest.mark.parametrize("n", [LOW_CUT, LOW_CUT + 1])
def test_soft_kinds_take_elimination_only_past_the_cut(kind, n, monkeypatch):
    # without --all the optimum past the cut comes from elimination where its
    # steps cost less than the grid: not yet on n = LOW_CUT + 1 variables,
    # where n * _STEP_STATES alone passes 2^n, but with six idle variables more
    monkeypatch.setattr(oracle, "_TRUTH_VARS", LOW_CUT)
    inst = soft(kind, n)
    padded = Instance(kind, n + 6, inst.constraints)
    reference, padded_reference = solve_bruteforce(inst), solve_bruteforce(padded)
    grid, elimination = spy_on(monkeypatch), spy_on(monkeypatch, "eliminate")
    assert solve(inst) == reference
    assert (len(grid), len(elimination)) == (n > LOW_CUT, 0)
    assert solve(padded) == padded_reference
    assert (len(grid), len(elimination)) == (n > LOW_CUT, 1)


@pytest.mark.parametrize("kind", [KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT])
@pytest.mark.parametrize("n", [TRUTH, TRUTH + 1])
def test_soft_kinds_take_the_truth_tables_up_to_the_cut(kind, n, monkeypatch):
    # past the cut the optimum comes from elimination, which pays on this
    # cycle, and the optimal set from the grid
    inst = soft(kind, n)
    reference, all_reference = solve_bruteforce(inst), solve_bruteforce(inst, want_all=True)
    truth, grid = spy_on(monkeypatch, "_truth", oracle), spy_on(monkeypatch)
    elimination = spy_on(monkeypatch, "eliminate")
    assert solve(inst) == reference
    assert solve(inst, want_all=True) == all_reference
    past = n > TRUTH
    assert (len(truth), len(elimination), len(grid)) == (2 * (not past), past, past)


@pytest.mark.parametrize("n,eliminated", [(13, False), (14, True)])
def test_elimination_pays_for_its_steps(n, eliminated):
    # a path holds two variables a step, 4n - 2 states in all, so its
    # estimate is n * _STEP_STATES past that: above the grid's 2^13 on 13
    # variables, below 2^14 on 14 (both under the truth-table cut, so the
    # estimate is read directly)
    inst = Instance(KIND_MAXCUT, n, tuple(Constraint("edge", (i, i + 1)) for i in range(n - 1)))
    _, (_, soft_terms, _, _) = oracle._terms(inst, RESOLVER, False)
    assert oracle._elimination_pays(oracle._buckets(n, soft_terms)[1]) == eliminated


@pytest.mark.parametrize("kind", [KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT])
def test_elimination_that_costs_the_grid_falls_back_to_it(kind, monkeypatch):
    # a star into the last variable keeps every variable in the table, which
    # doubles at every step: 2^1 + ... + 2^n states in all, above 2^n
    ref = {KIND_VCSP: "f_neq", KIND_MAXCSP: "neq", KIND_MAXCUT: "edge"}[kind]
    n = TRUTH + 2
    inst = Instance(kind, n, tuple(Constraint(ref, (i, n - 1)) for i in range(n - 1)))
    reference = solve_bruteforce(inst)
    grid, elimination = spy_on(monkeypatch), spy_on(monkeypatch, "eliminate")
    assert solve(inst) == reference
    assert (len(grid), len(elimination)) == (1, 0)


@pytest.mark.parametrize("chunk_bits,eliminated", [(9, False), (10, True)])
def test_elimination_table_stays_within_a_chunk(chunk_bits, eliminated, monkeypatch):
    # a star of 9 edges into variable 9 holds 10 variables at that step, then
    # a path to variable 15: 2^11 + 22 states and 16 steps in all, below the
    # grid's 2^16
    edges = [(i, 9) for i in range(9)] + [(i, i + 1) for i in range(9, 15)]
    inst = Instance(KIND_MAXCUT, 16, tuple(Constraint("edge", e) for e in edges))
    reference = solve_bruteforce(inst)
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    grid, elimination = spy_on(monkeypatch), spy_on(monkeypatch, "eliminate")
    assert solve(inst) == reference
    assert (len(grid), len(elimination)) == (not eliminated, eliminated)


# instances on which elimination meets ties, idle variables, repeated
# arguments, fractions and an int64 bound
ELIMINATION_EXAMPLES = (
    # every cut of a cycle has its complement: the least mask must win
    Instance(KIND_MAXCUT, 12, tuple(Constraint("edge", (i, (i + 1) % 12)) for i in range(12))),
    # variables 4..13 in no constraint, and an edge (a, a) that never counts
    Instance(KIND_MAXCUT, 14, (Constraint("edge", (0, 3)), Constraint("edge", (2, 2)),
                               Constraint("edge", (1, 3), Fraction(5, 2)))),
    Instance(KIND_MAXCSP, 13, (Constraint("OR3", (1, 1, 12)), Constraint("NAND2", (5, 5)),
                               Constraint("XOR3", (12, 0, 12), Fraction(1, 3)))),
    Instance(KIND_VCSP, 12, (Constraint("cost2_1_0_1/3_2", (4, 4)),
                             Constraint("cost2_1_0_1/3_2", (11, 4), Fraction(3, 2)),
                             Constraint("cost1_0_3/2", (7,), Fraction(2, 3)))),
    soft(KIND_VCSP, 17),
    soft(KIND_MAXCSP, 17),
    soft(KIND_MAXCUT, 18),
    Instance(KIND_VCSP, 0, ()),
    Instance(KIND_MAXCSP, 11, ()),
    # a bound of at least 2^31 makes the terms int64
    Instance(KIND_VCSP, 13, tuple(Constraint("f_neq", e, Fraction(2 ** 31))
                                  for e in ((0, 1), (1, 12), (12, 0)))),
    # symmetric Max-Cut optima: an odd cycle, each optimum met at every
    # rotation and with its complement, and an even one whose objective
    # passes 2^43, near the 2^44 that still packs at 18 variables
    Instance(KIND_MAXCUT, 15, tuple(Constraint("edge", (i, (i + 1) % 15), Fraction(3))
                                    for i in range(15))),
    Instance(KIND_MAXCUT, 18, tuple(Constraint("edge", (i, (i + 1) % 18), Fraction(2 ** 39))
                                    for i in range(17)) + (Constraint("edge", (17, 0)),)),
    # a VCSP minimum of 2^40 met by many masks, its keys near the packing bound
    Instance(KIND_VCSP, 17, tuple(Constraint("f_neq", (i, (i + 1) % 17), Fraction(2 ** 40))
                                  for i in range(17))),
)


# the DP is compared with the reference here at every size, whether or not
# solve would route the instance to it
@pytest.mark.deep
@settings(max_examples=examples(100), deadline=None)
@given(instances((KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT), least=0, most=18,
                 most_constraints=30))
@example(ELIMINATION_EXAMPLES[0])
@example(ELIMINATION_EXAMPLES[1])
@example(ELIMINATION_EXAMPLES[2])
@example(ELIMINATION_EXAMPLES[3])
@example(ELIMINATION_EXAMPLES[4])
@example(ELIMINATION_EXAMPLES[5])
@example(ELIMINATION_EXAMPLES[6])
@example(ELIMINATION_EXAMPLES[7])
@example(ELIMINATION_EXAMPLES[8])
@example(ELIMINATION_EXAMPLES[9])
@example(ELIMINATION_EXAMPLES[10])
@example(ELIMINATION_EXAMPLES[11])
@example(ELIMINATION_EXAMPLES[12])
def test_elimination_matches_bruteforce(inst):
    _, (scale, soft_terms, _, _) = oracle._terms(inst, RESOLVER, False)
    result = arrays.eliminate(inst.kind, *oracle._buckets(inst.num_vars, soft_terms), scale)
    assert result == solve_bruteforce(inst, RESOLVER)


PACKED_VARS = 16


@pytest.mark.parametrize("kind", [KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT])
@pytest.mark.parametrize("bound,packed", [(2 ** (62 - PACKED_VARS) - 1, True),
                                          (2 ** (62 - PACKED_VARS), False)])
def test_elimination_takes_only_objectives_that_pack(kind, bound, packed, monkeypatch):
    # a path, which elimination pays for, whose weights add up to the bound:
    # a key holds the objective above the n bits of its mask, so the largest
    # bound that packs goes to elimination and one past it to the grid
    ref = {KIND_VCSP: "f_neq", KIND_MAXCSP: "neq", KIND_MAXCUT: "edge"}[kind]
    weights = [1] * (PACKED_VARS - 2) + [bound - (PACKED_VARS - 2)]
    inst = Instance(kind, PACKED_VARS, tuple(Constraint(ref, (i, i + 1), Fraction(w))
                                             for i, w in enumerate(weights)))
    _, (_, _, _, got) = oracle._terms(inst, RESOLVER, False)
    assert got == bound
    reference = solve_bruteforce(inst)
    grid, elimination = spy_on(monkeypatch), spy_on(monkeypatch, "eliminate")
    assert solve(inst) == reference
    assert (len(grid), len(elimination)) == (not packed, packed)
    if kind != KIND_VCSP:  # two cuts of the path reach the bound, the lesser 0b0101...01
        assert (reference.optimum, reference.witness) == (bound, 0x5555)


@pytest.mark.parametrize("kind", HARD_KINDS)
@pytest.mark.parametrize("n", [TRUTH, TRUTH + 1])
def test_hard_kinds_take_the_frontier_only_past_the_cut(kind, n, monkeypatch):
    # a path of OR2 and NAND2 keeps every instance satisfiable with many optima
    cons = [("OR2" if i % 2 else "NAND2", (i, i + 1)) for i in range(n - 1)]
    inst = wmo(n, cons, [1 + v % 3 for v in range(n)], kind) if kind in (
        KIND_WMO, KIND_MINO) else Instance(kind, n, umo(n, cons).constraints)
    reference = solve_bruteforce(inst, want_all=True)
    truth, frontier = spy_on(monkeypatch, "_truth", oracle), spy_on(monkeypatch, "_branch", oracle)
    assert solve(inst, want_all=True) == reference
    assert (len(truth), len(frontier)) == ((0, 1) if n > TRUTH else (1, 0))


# Ones-group weights: zero, small, and past 2^31
ONES_WEIGHTS = st.one_of(st.integers(0, 6), st.integers(2 ** 31, 2 ** 33))


@pytest.mark.deep
@pytest.mark.parametrize("n", range(11))
@settings(max_examples=examples(20), deadline=None)
@given(data=st.data())
def test_ones_planes_hold_w_times_the_ones_in_m(n, data):
    w = data.draw(ONES_WEIGHTS)
    # besides the drawn m, every n meets m = 0 and m full
    for m in (0, (1 << n) - 1, data.draw(st.integers(0, (1 << n) - 1))):
        planes = oracle._ones_planes(n, w, m)
        for x in range(1 << n):
            value = sum((plane >> x & 1) << p for p, plane in enumerate(planes))
            assert value == w * (x & m).bit_count()


@st.composite
def truth_instances(draw):
    """Hard-kind instances of at most TRUTH variables, 0 included; half the
    weighted ones weigh every variable alike, one Ones group on the truth
    route."""
    inst = draw(instances(HARD_KINDS, least=0, most=TRUTH))
    if inst.kind in (KIND_WMO, KIND_MINO) and draw(st.booleans()):
        weights = (draw(WEIGHTS),) * inst.num_vars
        inst = Instance(inst.kind, inst.num_vars, inst.constraints, weights, inst.threshold)
    return inst


@pytest.mark.deep
@settings(max_examples=examples(300), deadline=None)
@given(truth_instances(), st.booleans())
@example(umo(0, []), True)
@example(wmo(0, [], [], KIND_MINO), False)
@example(Instance(KIND_SAT, TRUTH, (Constraint("T", (TRUTH - 1,)),
                                    Constraint("F", (TRUTH - 1,)))), True)
@example(TRUTH_EXAMPLES[0], True)
@example(TRUTH_EXAMPLES[1], False)
@example(TRUTH_EXAMPLES[4], True)
@example(wmo(TRUTH, [("OR8", tuple(range(8))), ("NAND2", (0, TRUTH - 1))],
             [Fraction(3, 2)] * TRUTH, KIND_MINO), True)
@example(wmo(TRUTH, [("EVEN8", tuple(range(6, 14)))], [0] * TRUTH), True)
def test_truth_route_matches_bruteforce(inst, want_all):
    assert solve(inst, want_all=want_all) == solve_bruteforce(inst, want_all=want_all)


# soft-kind weights: zero, small fractions, and values past 2^31
SOFT_WEIGHTS = st.one_of(WEIGHTS, st.sampled_from((2 ** 31 - 1, 2 ** 31, 3 * 2 ** 40)).map(
    Fraction), st.builds(Fraction, st.integers(2 ** 31, 2 ** 33), st.integers(1, 7)))


@st.composite
def soft_truth_instances(draw):
    """Soft-kind instances of at most TRUTH variables, 0 included, with
    weights past 2^31 too; one draw in four takes its args from a pool of
    1-3 variables, which gives Max-Cut edges (a, a)."""
    inst = draw(instances((KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT), least=0, most=TRUTH))
    cons = tuple(Constraint(c.ref, c.args, draw(st.one_of(st.none(), SOFT_WEIGHTS)))
                 for c in inst.constraints)
    return Instance(inst.kind, inst.num_vars, cons, threshold=inst.threshold)


# every cut of a cycle has its complement, so each optimum is met twice
CYCLE = Instance(KIND_MAXCUT, 5, tuple(Constraint("edge", (i, (i + 1) % 5)) for i in range(5)))


@pytest.mark.deep
@settings(max_examples=examples(300), deadline=None)
@given(soft_truth_instances(), st.booleans())
@example(CYCLE, True)
@example(CYCLE, False)
@example(Instance(KIND_MAXCUT, 3, (Constraint("edge", (2, 2)), Constraint("edge", (0, 1)))), True)
@example(Instance(KIND_MAXCUT, 3, (Constraint("edge", (1, 1), Fraction(5)),)), True)
@example(Instance(KIND_VCSP, 0, ()), True)
@example(Instance(KIND_MAXCSP, TRUTH, ()), False)
@example(Instance(KIND_MAXCUT, 4, tuple(Constraint("edge", (i, i + 1), Fraction(0))
                                        for i in range(3))), True)
@example(Instance(KIND_VCSP, 4, (Constraint("cost2_1_0_1/3_2", (0, 1), Fraction(2, 3)),
                                 Constraint("cost1_0_3/2", (3,), Fraction(5, 7)),
                                 Constraint("f_neq", (1, 3), Fraction(0)))), True)
@example(Instance(KIND_VCSP, 3, (Constraint("f_neq", (0, 1), Fraction(2 ** 31)),
                                 Constraint("cost2_1_0_1/3_2", (2, 1), Fraction(2 ** 40 + 1, 3)),
                                 Constraint("cost1_0_3/2", (2,)))), True)
@example(Instance(KIND_MAXCSP, TRUTH, (Constraint("OR8", tuple(range(8)), Fraction(2 ** 31)),
                                       Constraint("EVEN8", tuple(range(6, 14))),
                                       Constraint("NAND2", (0, TRUTH - 1), Fraction(1, 3)))), True)
def test_soft_truth_route_matches_bruteforce(inst, want_all):
    assert solve(inst, want_all=want_all) == solve_bruteforce(inst, want_all=want_all)


@pytest.mark.deep
@settings(max_examples=examples(100), deadline=None)
@given(soft_truth_instances(), st.booleans())
@example(CYCLE, True)
@example(Instance(KIND_MAXCUT, 3, (Constraint("edge", (2, 2)), Constraint("edge", (0, 1)))), True)
def test_plane_cache_answers_equal_cold_and_warm(inst, want_all):
    reference = solve_bruteforce(inst, want_all=want_all)
    oracle._plane_cache.clear()
    oracle._plane_bytes = 0
    assert solve(inst, want_all=want_all) == reference  # cold
    assert solve(inst, want_all=want_all) == reference  # warm


def cold_planes(args, table, n, monkeypatch):
    """The planes of a term built on an empty plane cache."""
    with monkeypatch.context() as m:
        m.setattr(oracle, "_plane_cache", {})
        m.setattr(oracle, "_plane_bytes", 0)
        return oracle._term_planes(args, table, n)


@pytest.mark.parametrize("first,second", [
    (((0, 1), (0, 1, 1, 0), 3), ((0, 1), (0, 1, 1, 0), 4)),
    (((0, 2), (0, 3, 3, 0), 3), ((0, 2), (0, 3, 3, 1), 3)),
], ids=["n", "table-value"])
def test_plane_cache_key_holds_n_and_every_table_value(first, second, monkeypatch):
    monkeypatch.setattr(oracle, "_plane_cache", {})
    monkeypatch.setattr(oracle, "_plane_bytes", 0)
    oracle._term_planes(*first)
    got = oracle._term_planes(*second)
    assert got == cold_planes(*second, monkeypatch) != cold_planes(*first, monkeypatch)
    assert len(oracle._plane_cache) == 2


def test_plane_cache_stays_within_its_byte_bound(monkeypatch):
    monkeypatch.setattr(oracle, "_plane_cache", {})
    monkeypatch.setattr(oracle, "_plane_bytes", 0)
    monkeypatch.setattr(oracle, "_PLANE_BYTES", 4096)
    # 90 weighted edges over 10 variables, each term 2-3 planes of 1024 bits
    for a, b in itertools.permutations(range(10), 2):
        inst = Instance(KIND_MAXCUT, 10, (Constraint("edge", (a, b), Fraction(a + 4)),))
        assert solve(inst) == solve_bruteforce(inst)
        assert 1 <= len(oracle._plane_cache) < 90
        assert oracle._plane_bytes == sum(
            map(sys.getsizeof, itertools.chain(*oracle._plane_cache.values()))) <= 4096


@pytest.mark.parametrize("inst", [
    Instance(KIND_SAT, 5, umo(5, [("OR3", (0, 2, 4))]).constraints),
    umo(5, [("OR3", (0, 2, 4)), ("NAND2", (1, 2))]),
    wmo(5, [("OR3", (0, 2, 4))], [2] * 5, KIND_MINO),
    wmo(5, [("OR3", (0, 2, 4))], [0] * 5),
    # one class over a subset of the variables, and two classes
    wmo(5, [("OR3", (0, 2, 4))], [2, 2, 0, 2, 2]),
    wmo(5, [("OR3", (0, 2, 4))], [1, 2, 1, 2, 1], KIND_MINO),
], ids=["sat", "umo", "mino-uniform", "wmo-zero", "wmo-subset", "mino-two-classes"])
def test_truth_route_never_scores_masks(inst, monkeypatch):
    # the objective is read off planes, and the candidates are unpacked once,
    # for the optimal set
    reference = solve_bruteforce(inst, want_all=True)
    unpacked, grid = spy_on(monkeypatch, "masks", tt), spy_on(monkeypatch)
    assert solve(inst, want_all=True) == reference
    assert (len(unpacked), grid) == (1, [])


def test_min_ones_reads_its_minimum_off_the_narrowed_candidates(monkeypatch):
    # the OR2s exclude the all-zero assignment; x0 alone (weight 2) ties with
    # x1 and x2 (weight 1 each), and x3 with x4 (weight 3 each)
    inst = wmo(5, [("OR2", (0, 1)), ("OR2", (0, 2)), ("OR2", (3, 4))], [2, 1, 1, 3, 3],
               KIND_MINO)
    reference = solve_bruteforce(inst, want_all=True)
    truth = spy_on(monkeypatch, "_truth", oracle)
    assert solve(inst, want_all=True) == reference
    assert len(truth) == 1
    assert reference.optimum == 5 and reference.witness == 0b01001
    assert reference.optimal_set == (0b01001, 0b01110, 0b10001, 0b10110)


def test_table_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(oracle, "_TABLES_PER_RELATION", 4)
    resolver = default_resolver()
    resolver.register_relation(Relation(3, (0b001, 0b110, 0b111), "Y"))
    rel = resolver.relation("Y")
    # 24 argument tuples, each met twice
    for args in [*itertools.permutations(range(4), 3)] * 2:
        inst = umo(4, [("Y", args), ("OR2", (args[0], 3))])
        assert solve(inst, resolver, want_all=True) == solve_bruteforce(inst, resolver,
                                                                        want_all=True)
        assert 1 <= len(rel.table_cache) <= 4


def test_truth_tables_gather_a_relation_past_the_node_limit(monkeypatch):
    # with no node allowed, relations built now have no diagram, and nor do
    # their minors; the resolvers share every relation a name builds, so the
    # examples' relations are rebuilt for the new resolver
    monkeypatch.setattr(relations, "DIAGRAM_NODES", 0)
    resolver = default_resolver()
    for name in {c.ref for inst in TRUTH_EXAMPLES for c in inst.constraints}:
        rel = RESOLVER.relation(name)
        resolver.register_relation(Relation(rel.arity, rel.tuples, name))
    assert resolver.relation("EVEN8").diagram is None
    assert resolver.relation("R_IN2").minor((0, 1, 0, 1, 2, 3, 2, 3)).diagram is None
    for inst in TRUTH_EXAMPLES:
        assert solve(inst, resolver, want_all=True) == solve_bruteforce(inst, want_all=True)


# pairs (2i, 2i+1) hold at most one one; with 21 variables the optimum sets
# bits 16..20, past the truth-table cut
PAIRS = [("NAND2", (2 * i, 2 * i + 1)) for i in range(10)]


@pytest.mark.parametrize("inst", [
    # zero, repeated and rational weights, maximised and minimised
    wmo(6, [("OR2", (0, 1)), ("NAND2", (1, 2)), ("OR3", (3, 4, 5))],
        (0, 2, 2, Fraction(1, 3), 0, Fraction(1, 3))),
    wmo(6, [("OR2", (0, 1)), ("NAND2", (1, 2)), ("OR3", (3, 4, 5))],
        (0, 2, 2, Fraction(1, 3), 0, Fraction(1, 3)), KIND_MINO),
    wmo(5, [("OR2", (0, 4)), ("neq", (2, 3))], (Fraction(1, 2), 0, Fraction(1, 2), 3, 3),
        KIND_MINO),
    wmo(4, [("NAND2", (0, 3))], (0, 0, 0, 0)),
    wmo(3, [("OR2", (0, 1))], (Fraction(7, 6), Fraction(7, 6), Fraction(7, 6)), KIND_MINO),
    umo(21, PAIRS),
    wmo(21, PAIRS, [1 + v for v in range(21)]),
    wmo(21, PAIRS, [Fraction(1 + v % 5, 1 + v % 3) for v in range(21)]),
    # a bound past 2^31: the objective accumulates in int64
    wmo(3, [("OR2", (0, 1))], (2 ** 31, 1, 2 ** 31)),
    wmo(3, [("OR2", (0, 1))], (2 ** 31, 1, 2 ** 31), KIND_MINO),
], ids=["wmo-mixed", "mino-mixed", "mino-halves", "wmo-zero", "mino-repeated",
        "umo-21", "wmo-21", "wmo-21-rational", "wmo-int64", "mino-int64"])
def test_ones_popcount_matches_bruteforce(inst, monkeypatch):
    reference = solve_bruteforce(inst, want_all=inst.num_vars <= 20)
    # the hard kinds never reach the grid
    monkeypatch.setattr(arrays, "enumerate_masks", None)
    assert solve(inst, want_all=inst.num_vars <= 20) == reference
    if inst.num_vars == 21 and inst.kind == KIND_UMO:
        assert reference.optimum == 11 and reference.witness >> 16 == 0b10101


def test_ones_weights_count_toward_the_int64_budget():
    # no constraint term at all: the bound is the Ones weights alone
    inst = wmo(2, [], (2 ** 59, 2 ** 59))
    with pytest.raises(OracleError):
        solve(inst)
    with pytest.raises(OracleError):
        solve_bruteforce(inst)
    assert solve(wmo(2, [], (2 ** 59, 2 ** 59 - 1))).optimum == 2 ** 60 - 1


# small fractions and zero, and values on both sides of 2^31 and of the 2^60 budget
VALUES = st.one_of(
    st.builds(Fraction, st.integers(0, 6), st.integers(1, 6)),
    st.builds(Fraction, st.integers(2 ** 31 - 2, 2 ** 31 + 2), st.integers(1, 4)),
    st.sampled_from((0, 2 ** 31 - 1, 2 ** 31, 2 ** 59, 2 ** 60 - 1, 2 ** 60)).map(Fraction))
TERMS_RESOLVER = default_resolver()
TERMS_RESOLVER.register_relation(Relation(2, (), "NONE2"))  # scores 0 everywhere


@st.composite
def weighted_instances(draw):
    """Instances of every kind with drawn weights and cost tables, past the
    `want_all` cap too (an Instance holds at most MAX_SOLVE_VARS variables)."""
    kind = draw(st.sampled_from(ALL_KINDS))
    n = draw(st.one_of(st.integers(0, 6), st.sampled_from(
        (oracle.MAX_ENUMERATE_VARS, oracle.MAX_ENUMERATE_VARS + 1, oracle.MAX_SOLVE_VARS))))
    cons = []
    for _ in range(draw(st.integers(0, 5)) if n else 0):
        if kind == KIND_VCSP:
            k = draw(st.integers(1, 3))
            ref = draw(st.one_of(st.sampled_from(COSTS), st.lists(
                VALUES, min_size=1 << k, max_size=1 << k).map(
                lambda vals: f"cost{len(vals).bit_length() - 1}_"
                + "_".join(map(str, vals)))))
        else:
            ref = "edge" if kind == KIND_MAXCUT else draw(
                st.sampled_from(RELATIONS + ("NONE2",)))
        k = 2 if kind == KIND_MAXCUT else (TERMS_RESOLVER.costfn(ref) if kind == KIND_VCSP
                                           else TERMS_RESOLVER.relation(ref)).arity
        args = tuple(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
        weight = draw(st.one_of(st.none(), VALUES)) if kind in (
            KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT) else None
        cons.append(Constraint(ref, args, weight))
    var_weights = None
    if kind in (KIND_WMO, KIND_MINO) and draw(st.booleans()):
        var_weights = tuple(draw(st.lists(VALUES, min_size=n, max_size=n)))
    return Instance(kind, n, tuple(cons), var_weights)


# _terms builds its integers from each object's cached integer form and the
# reduced denominator of each term; the reference builds them value by value
@pytest.mark.deep
@settings(max_examples=examples(300), deadline=None)
@given(weighted_instances(), st.booleans())
@example(wmo(2, [], (2 ** 59, 2 ** 59)), False)
@example(wmo(2, [], (2 ** 59, 2 ** 59 - 1)), False)
@example(Instance(KIND_MAXCUT, 2, (Constraint("edge", (0, 1), Fraction(2 ** 31 - 1)),)), False)
@example(Instance(KIND_MAXCUT, 2, (Constraint("edge", (0, 1), Fraction(2 ** 31)),)), False)
@example(Instance(KIND_MAXCSP, 2, (Constraint("NONE2", (0, 1), Fraction(1, 3)),
                                   Constraint("OR2", (1, 0), Fraction(0)))), True)
@example(Instance(KIND_VCSP, 2, (Constraint("cost1_1/2_1/3", (0,), Fraction(6, 5)),
                                 Constraint("cost2_0_4/3_2_2/3", (1, 0), Fraction(3, 2)))), True)
@example(umo(oracle.MAX_ENUMERATE_VARS + 1, []), True)
@example(Instance(KIND_SAT, 0, ()), False)
@example(umo(0, []), False)
def test_terms_match_the_fraction_reference(inst, want_all):
    want = reference_terms(inst, TERMS_RESOLVER, want_all)
    try:
        hard, (scale, soft_terms, ones, bound) = oracle._terms(inst, TERMS_RESOLVER, want_all)
    except OracleError as exc:
        assert str(exc) == want
        return
    assert not isinstance(want, str), want
    assert (hard, scale, [(args, list(table)) for args, table in soft_terms],
            list(ones), bound) == want


def test_relation_lut_is_cached_and_read_only():
    rel = RESOLVER.relation("OR3")
    assert rel.lut is rel.lut
    assert rel.lut.tolist() == [m in rel.tuples for m in range(8)]
    with pytest.raises(ValueError):
        rel.lut[0] = True


def test_resolvers_keep_their_own_relation_under_one_name():
    # the same name means a different relation to each resolver, so no LUT
    # may be shared between them by name
    first, second = default_resolver(), default_resolver()
    first.register_relation(Relation(2, (0b01, 0b10), "X"))
    second.register_relation(Relation(2, (0b00, 0b11), "X"))
    inst = umo(2, [("X", (0, 1))])
    assert solve(inst, first).optimum == 1
    assert solve(inst, second).optimum == 2
    assert solve(inst, first).optimum == 1
    # nor any minor: X(x, x) is unsatisfiable for the first and all-ones for the second
    twice = umo(2, [("X", (0, 0)), ("X", (1, 1))])
    assert not solve(twice, first).satisfiable
    assert solve(twice, second).optimum == 2
    assert not solve(twice, first).satisfiable
    assert first.relation("X").minor((0, 0)) is not second.relation("X").minor((0, 0))
    # nor any truth table: each relation caches its own
    key = ((0, 1), 2)
    assert first.relation("X").table_cache[key] == 0b0110
    assert second.relation("X").table_cache[key] == 0b1001


# a random constraint over a pool of 1-3 variables, repeats allowed
@pytest.mark.deep
@settings(max_examples=examples(300), deadline=None)
@given(st.sampled_from(RELATIONS).flatmap(lambda ref: st.tuples(
    st.just(ref), st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, n - 1), min_size=RESOLVER.relation(ref).arity,
        max_size=RESOLVER.relation(ref).arity))))))
def test_minor_matches_the_raw_relation(case):
    ref, (n, args) = case
    rel = RESOLVER.relation(ref)
    distinct = list(dict.fromkeys(args))
    pattern = tuple(distinct.index(v) for v in args)
    minor = rel.minor(pattern)
    assert minor is rel.minor(pattern) and minor.arity == len(distinct)
    for m in range(1 << minor.arity):
        expanded = sum((m >> p & 1) << j for j, p in enumerate(pattern))
        assert minor.contains(m) == rel.contains(expanded)
    gather = rel.lut[arrays.code(arrays.arange(n), enumerate(args))]
    assert tt.masks(tt.table(minor, distinct, n), n) == np.flatnonzero(gather).tolist()


def test_minor_rejects_a_pattern_out_of_first_occurrence_order():
    rel = RESOLVER.relation("OR3")
    assert rel.minor((0, 1, 2)) is rel
    assert rel.minor((0, 0, 0)).tuples == (1,)
    for pattern in ((0, 1), (0, 1, 2, 3), (1, 0, 0), (0, 2, 1), (0, 0, -1)):
        with pytest.raises(relations.RelationError):
            rel.minor(pattern)


def test_bruteforce_reads_raw_relations_without_minors(monkeypatch):
    # the reference must not share the minor step with the solver it checks
    def no_minor(self, pattern):
        raise AssertionError("solve_bruteforce built a minor")

    monkeypatch.setattr(Relation, "minor", no_minor)
    inst = TRUTH_EXAMPLES[3]  # EVEN8, OR8 and R_IN2 on repeated arguments
    assert solve_bruteforce(inst, want_all=True).satisfiable


def python_loop(inst, resolver, want_all):
    """The solve of `inst` by one loop over all 2^n assignments in Fractions:
    relations read through `Relation.contains`, cost functions through
    `CostFunction.__call__`, no numpy and no LUT."""
    kind, n = inst.kind, inst.num_vars
    applied = resolver.resolve_all(kind, inst.constraints)
    # SAT weighs nothing: every satisfying assignment scores 0
    weights = (0,) * n if kind == KIND_SAT else inst.var_weights or (1,) * n
    scores = {}
    for x in range(1 << n):
        codes = [sum((x >> v & 1) << j for j, v in enumerate(c.args)) for c in inst.constraints]
        if kind in HARD_KINDS:
            if all(rel.contains(m) for rel, m in zip(applied, codes)):
                scores[x] = sum(Fraction(w) for i, w in enumerate(weights) if x >> i & 1)
            continue
        scores[x] = Fraction(0)
        for c, fn, m in zip(inst.constraints, applied, codes):
            if kind == KIND_VCSP:
                value = fn(m)
            elif kind == KIND_MAXCSP:
                value = fn.contains(m)
            else:  # an edge counts when its ends differ
                value = (m & 1) != (m >> 1)
            scores[x] += (1 if c.weight is None else c.weight) * value
    if not scores:
        return SolveResult(kind, False, None, None, () if want_all else None)
    best = (max if kind in MAXIMIZING_KINDS else min)(scores.values())
    optimal = [x for x, score in scores.items() if score == best]
    return SolveResult(kind, True, None if kind == KIND_SAT else best, optimal[0],
                       tuple(optimal) if want_all else None)


# the reference itself, on every kind up to 8 variables, against the loop
@pytest.mark.deep
@settings(max_examples=examples(200), deadline=None)
@given(instances(least=0, most=8), st.booleans())
@example(CYCLE, True)
@example(TRUTH_EXAMPLES[3], True)
@example(Instance(KIND_MAXCUT, 3, (Constraint("edge", (1, 1), Fraction(5)),)), True)
@example(wmo(3, [("OR2", (0, 1))], (2 ** 31, 1, 2 ** 31), KIND_MINO), True)
@example(Instance(KIND_VCSP, 3, (Constraint("f_neq", (0, 1), Fraction(2 ** 31)),
                                 Constraint("cost2_1_0_1/3_2", (2, 1), Fraction(2 ** 40 + 1, 3)),
                                 Constraint("cost1_0_3/2", (2,)))), True)
def test_bruteforce_matches_a_pure_python_loop(inst, want_all):
    assert solve_bruteforce(inst, RESOLVER, want_all=want_all) == python_loop(inst, RESOLVER,
                                                                             want_all)


class FreshRelations(Resolver):
    """Resolves each constraint to a fresh copy of its relation, so a solve
    meets no minor or truth table that an earlier one cached, and no two
    constraints share one; `copies` holds the last solve's, in order."""

    def resolve_all(self, kind, constraints):
        self.copies = [Relation(rel.arity, rel.tuples, rel.name)
                       for rel in RESOLVER.resolve_all(kind, constraints)]
        return self.copies


# the sampled targets empty below the truth-table cut; the last instance
# empties at variable 15, past it, after one term below it: T(15) drops the
# keys that clear variable 15 and F(15) the rest
@pytest.mark.parametrize("inst", EMPTYING_TARGETS + (
    umo(17, [("OR8", (0, 0, 1, 1, 13, 13, 2, 2)), ("T", (15,)), ("NAND2", (14, 16)),
             ("R_IN2", (15, 15, 15, 15, 3, 3, 3, 3)), ("F", (15,))]),),
                         ids=["II2-17", "II2-20", "IL2-17", "IL2-20", "tail-17"])
def test_frontier_stops_at_its_first_empty_state(inst, monkeypatch):
    # the terms in the order solve reads them, by top variable, and the
    # shortest prefix of them that no mask satisfies, read off the raw relations
    raw, _ = oracle._terms(inst, RESOLVER, False)
    order = sorted(raw, key=lambda term: max(term[0]))
    idx = arrays.arange(inst.num_vars)
    alive = np.ones(idx.shape, dtype=bool)
    for stop, (args, rel) in enumerate(order, 1):
        alive &= rel.lut[arrays.code(idx, enumerate(args))]
        if not alive.any():
            break
    # terms on later tops are left when the last key empties
    assert max(order[-1][0]) > max(order[stop - 1][0])
    minors = []
    real = Relation.minor

    def spy(self, pattern):
        minors.append((id(self), pattern))
        return real(self, pattern)

    monkeypatch.setattr(Relation, "minor", spy)
    grid = spy_on(monkeypatch)
    fresh = FreshRelations()
    assert solve(inst, fresh) == SolveResult(inst.kind, False, None, None)
    # each term read builds its own minor, on either side of the cut, once
    # for each of its tables: only the prefix is read, and the grid never runs
    read = sorted(zip((c.args for c in inst.constraints), fresh.copies),
                  key=lambda term: max(term[0]))
    assert list(dict.fromkeys(minors)) == [(id(rel), oracle._identification(args)[1])
                                           for args, rel in read[:stop]]
    assert not grid


def test_hard_kinds_never_reach_the_grid(monkeypatch):
    # 2^21 masks, of which OR2 and NAND2 leave 3 * 2^19 feasible
    inst = umo(21, [("OR2", (19, 20)), ("NAND2", (0, 20))])
    reference = solve_bruteforce(inst)
    monkeypatch.setattr(arrays, "enumerate_masks", None)
    monkeypatch.setattr(arrays, "eliminate", None)
    assert solve(inst) == reference
    assert reference.optimum == 20 and reference.witness == (1 << 20) - 1
    # all 2^24 masks are feasible: 2^10 keys, each with the full table of 2^14
    assert solve(umo(24, [])) == SolveResult(KIND_UMO, True, Fraction(24), (1 << 24) - 1)


# Enumeration chunks hold 2^20 masks: variables 0..9 are the low half of a
# chunk's grid, 10..19 the high half, and 20 and 21 are constant within a
# chunk.  The constraints below use only the low half, only the high half,
# or both, each with and without a constant variable.
SPLIT_ARGS = ((0, 1), (2, 20), (3, 21, 4), (5, 20, 21),
              (10, 11), (12, 20), (21, 13, 14), (19, 21, 20),
              (0, 10), (9, 19, 20), (4, 15, 16), (17, 6, 21), (8, 18), (18, 8, 7))
SPLIT_REFS = {KIND_VCSP: ("f_neq", "cost2_1_1/2_1/3_2", "cost3_1_1_2_1_1/2_3_0_1"),
              KIND_MAXCSP: ("OR2", "NAND2", "neq", "OR3", "XOR3", "R13")}


@pytest.mark.parametrize("kind", [KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT])
def test_split_matches_bruteforce_past_one_chunk(kind, monkeypatch):
    # want_all is capped at 20 variables; lift the cap to compare optimal sets
    # that span chunks
    monkeypatch.setattr(oracle, "MAX_ENUMERATE_VARS", 22)
    cons = []
    for i, args in enumerate(SPLIT_ARGS):
        weight = Fraction(1 + i % 4, 1 + i % 3)
        if kind == KIND_MAXCUT:
            cons += [Constraint("edge", (a, b), weight) for a, b in zip(args, args[1:])]
        else:
            refs = [r for r in SPLIT_REFS[kind] if arity(kind, r) == len(args)]
            cons.append(Constraint(refs[i % len(refs)], args, weight))
    inst = Instance(kind, 22, tuple(cons))
    reference = solve_bruteforce(inst, want_all=True)
    assert solve(inst, want_all=True, jobs=1) == reference
    assert solve(inst, want_all=True, jobs=2) == reference
