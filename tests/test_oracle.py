import itertools
import random
import sys
import tracemalloc
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
    CostFunction,
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
from reference import codes, lut, reference_terms, schedule_reference, solve_bruteforce

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
    # a complete graph holds all 21 variables in the elimination table in
    # every order, more than a chunk, so this Max-Cut goes to the grid: two
    # 2^20 chunks, which jobs=2 runs on two threads
    cut = complete(KIND_MAXCUT, 21)
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
    # every route of solve: truth tables, of any kind up to the cut and of
    # the hard kinds past it, elimination and grid
    assert solve(inst, want_all=want_all) == solve_bruteforce(inst, want_all=want_all)


# a 10-ary relation of 501 random tuples, whose diagram has 233 nodes (EVEN8's
# has 15); its tables, restricted ones too, walk it like any other relation's
_WIDE_DRAW = random.Random(10)
WIDE = Relation(10, tuple(m for m in range(1 << 10) if _WIDE_DRAW.random() < 0.5), "WIDE10")
RESOLVER.register_relation(WIDE)


# The hard kinds past the cut keep one table over the first TRUTH variables
# per live assignment of the rest.  Besides the draws of 15-20 variables, the
# examples take them with no tail (up to 14 variables), emptying below the
# cut (15-17), with no term below it (15-16), with terms whose top variable is
# 13, the last below the cut, or 14, the first past it, with terms wholly
# past it, with the wide relation across it, and with Min-Ones
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
# every nonzero weight past the cut, so the counter of the low variables is empty
@example(wmo(TRUTH + 2, [("OR2", (0, 14)), ("NAND2", (14, 15)), ("OR2", (1, 15))],
             [0] * TRUTH + [2, 3]), True)
@example(wmo(TRUTH + 3, [("OR2", (14, 16)), ("OR3", (0, 15, 16)), ("NAND2", (15, 16))],
             [0] * TRUTH + [1, 2, 1], KIND_MINO), False)
@example(wmo(TRUTH + 3, [("OR2", (14, 16)), ("OR3", (0, 15, 16)), ("NAND2", (15, 16))],
             [0] * TRUTH + [1, 2, 1], KIND_MINO), True)
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


# The next two route tests lower the truth-table cut to this, so that the
# routes past it run on small instances; test_soft_kinds_take_the_truth_tables_up_to_the_cut
# pins the real cut.
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


def spy_on_elimination(monkeypatch):
    """The list that records every call of `oracle._eliminate`."""
    return spy_on(monkeypatch, "_eliminate", oracle)


def star(kind, n):
    """A soft-kind instance whose terms all join the last of n variables: in
    variable order the elimination table holds every variable at the last
    step, in the computed order (`oracle._schedule`) two at a time."""
    ref = {KIND_VCSP: "f_neq", KIND_MAXCSP: "neq", KIND_MAXCUT: "edge"}[kind]
    return Instance(kind, n, tuple(Constraint(ref, (i, n - 1)) for i in range(n - 1)))


def complete(kind, n):
    """A soft-kind instance with a term on every pair of n variables: the
    elimination table holds all n at once in every order."""
    ref = {KIND_VCSP: "f_neq", KIND_MAXCSP: "neq", KIND_MAXCUT: "edge"}[kind]
    return Instance(kind, n, tuple(Constraint(ref, (i, j))
                                   for i in range(n) for j in range(i + 1, n)))


# solve sends the grid only instances whose elimination table would pass a
# chunk, so it is compared with the reference here, at every size; it finds
# the optimum and the least optimal mask, never an optimal set
@pytest.mark.deep
@settings(max_examples=examples(200), deadline=None)
@given(instances((KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT)))
@example(soft(KIND_VCSP, TRUTH))
@example(soft(KIND_VCSP, TRUTH + 1))
@example(soft(KIND_MAXCSP, TRUTH))
@example(soft(KIND_MAXCSP, TRUTH + 1))
@example(soft(KIND_MAXCUT, TRUTH))
@example(soft(KIND_MAXCUT, TRUTH + 1))
def test_grid_matches_bruteforce(inst):
    grid = arrays.enumerate_masks(inst, oracle._terms(inst, RESOLVER, False)[1], 1)
    assert grid == solve_bruteforce(inst, RESOLVER)


@pytest.mark.parametrize("kind", [KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT])
@pytest.mark.parametrize("n", [LOW_CUT, LOW_CUT + 1])
def test_soft_kinds_take_the_grid_only_past_the_cut(kind, n, monkeypatch):
    # a complete graph holds every variable in the elimination table, so
    # with chunks of the cut's size the optimum past the cut comes from the
    # grid (the grid lists no optimal set: want_all's cap is the real chunk
    # size)
    monkeypatch.setattr(oracle, "_TRUTH_VARS", LOW_CUT)
    monkeypatch.setattr(oracle, "_CHUNK_BITS", LOW_CUT)
    inst = complete(kind, n)
    reference = solve_bruteforce(inst)
    grid, elimination = spy_on(monkeypatch), spy_on_elimination(monkeypatch)
    assert solve(inst) == reference
    assert (len(grid), len(elimination)) == (n > LOW_CUT, 0)


@pytest.mark.parametrize("kind", [KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT])
@pytest.mark.parametrize("n", [LOW_CUT, LOW_CUT + 1])
def test_soft_kinds_take_elimination_only_past_the_cut(kind, n, monkeypatch):
    # past the cut both the optimum and the optimal set of a cycle come from
    # elimination, and so do those of the same terms with six idle
    # variables more, which never enter its table
    monkeypatch.setattr(oracle, "_TRUTH_VARS", LOW_CUT)
    inst = soft(kind, n)
    padded = Instance(kind, n + 6, inst.constraints)
    grid, elimination = spy_on(monkeypatch), spy_on_elimination(monkeypatch)
    for case in (inst, padded):
        for want_all in (False, True):
            assert solve(case, want_all=want_all) == solve_bruteforce(case, want_all=want_all)
    assert (len(grid), len(elimination)) == (0, 2 + 2 * (n > LOW_CUT))


@pytest.mark.parametrize("kind", [KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT])
@pytest.mark.parametrize("n", [TRUTH, TRUTH + 1])
def test_soft_kinds_take_the_truth_tables_up_to_the_cut(kind, n, monkeypatch):
    # past the cut the optimum and the optimal set of this cycle come from
    # elimination
    inst = soft(kind, n)
    reference, all_reference = solve_bruteforce(inst), solve_bruteforce(inst, want_all=True)
    truth, grid = spy_on(monkeypatch, "_truth", oracle), spy_on(monkeypatch)
    elimination = spy_on_elimination(monkeypatch)
    assert solve(inst) == reference
    assert solve(inst, want_all=True) == all_reference
    past = n > TRUTH
    assert (len(truth), len(elimination), len(grid)) == (2 * (not past), 2 * past, 0)


@pytest.mark.parametrize("n,path", [(13, False), (14, True)])
def test_elimination_pays_for_its_steps(n, path, monkeypatch):
    # a path holds two variables in the table at a step, a complete graph
    # all n at its last; both fit a chunk, so past the cut both are
    # eliminated, the complete graph over as many states as the grid's 2^n
    if path:
        inst = Instance(KIND_MAXCUT, n, tuple(Constraint("edge", (i, i + 1)) for i in range(n - 1)))
    else:
        inst = complete(KIND_MAXCUT, n)
    _, (_, soft_terms, _, _) = oracle._terms(inst, RESOLVER, False)
    assert oracle._schedule(n, soft_terms)[3] == (2 if path else n)
    monkeypatch.setattr(oracle, "_TRUTH_VARS", LOW_CUT)
    grid, elimination = spy_on(monkeypatch), spy_on_elimination(monkeypatch)
    assert solve(inst) == solve_bruteforce(inst)
    assert (len(grid), len(elimination)) == (0, 1)


@pytest.mark.parametrize("kind", [KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT])
def test_elimination_that_costs_the_grid_falls_back_to_it(kind, monkeypatch):
    # a complete graph holds all 16 variables in the table at its last step:
    # eliminated while they fit a chunk, on the grid once a chunk holds fewer
    inst = complete(kind, TRUTH + 2)
    reference = solve_bruteforce(inst)
    grid, elimination = spy_on(monkeypatch), spy_on_elimination(monkeypatch)
    assert solve(inst) == reference
    monkeypatch.setattr(oracle, "_CHUNK_BITS", TRUTH + 1)
    assert solve(inst) == reference
    assert (len(grid), len(elimination)) == (1, 1)


def test_a_wide_elimination_caches_no_planes_past_the_cut(monkeypatch):
    # a complete graph of 20 variables holds all 20 in the table: the
    # literal planes past the cut are built for the one solve and dropped
    # with it, and only widths up to the cut are asked of the cached
    # `truthtables.planes`; the least of its largest cuts puts variables
    # 0..9 on one side
    asked = spy_on(monkeypatch, "planes", tt)
    elimination = spy_on_elimination(monkeypatch)
    inst = complete(KIND_MAXCUT, 20)
    assert solve(inst) == SolveResult(KIND_MAXCUT, True, Fraction(100), (1 << 10) - 1)
    assert len(elimination) == 1 and max(n for n, in asked) == TRUTH


@pytest.mark.parametrize("chunk_bits,eliminated", [(9, False), (10, True)])
def test_elimination_table_stays_within_a_chunk(chunk_bits, eliminated, monkeypatch):
    # a complete graph on variables 0..9 holds 10 variables at its last
    # step, then a path to variable 15 holds two: elimination only while 10
    # variables fit a chunk
    edges = ([(i, j) for i in range(10) for j in range(i + 1, 10)]
             + [(i, i + 1) for i in range(9, 15)])
    inst = Instance(KIND_MAXCUT, 16, tuple(Constraint("edge", e) for e in edges))
    reference = solve_bruteforce(inst)
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    grid, elimination = spy_on(monkeypatch), spy_on_elimination(monkeypatch)
    assert solve(inst) == reference
    assert (len(grid), len(elimination)) == (not eliminated, eliminated)


# the variables 0..15 in an order far from 0..15
SCRAMBLED = (9, 2, 14, 5, 0, 11, 7, 15, 3, 12, 1, 8, 13, 6, 10, 4)

# instances on which elimination meets ties, idle variables, repeated
# arguments, fractions, large bounds and orders far from 0..n-1
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
    # a bound of at least 2^31 makes the grid's terms int64
    Instance(KIND_VCSP, 13, tuple(Constraint("f_neq", e, Fraction(2 ** 31))
                                  for e in ((0, 1), (1, 12), (12, 0)))),
    # symmetric Max-Cut optima: an odd cycle, each optimum met at every
    # rotation and with its complement, and an even one whose objective
    # passes 2^43
    Instance(KIND_MAXCUT, 15, tuple(Constraint("edge", (i, (i + 1) % 15), Fraction(3))
                                    for i in range(15))),
    Instance(KIND_MAXCUT, 18, tuple(Constraint("edge", (i, (i + 1) % 18), Fraction(2 ** 39))
                                    for i in range(17)) + (Constraint("edge", (17, 0)),)),
    # a VCSP minimum of 2^40 met by many masks
    Instance(KIND_VCSP, 17, tuple(Constraint("f_neq", (i, (i + 1) % 17), Fraction(2 ** 40))
                                  for i in range(17))),
    # every term weighs 0, so all 2^12 masks are optimal, and the variables
    # sit in the table when they are forgotten
    Instance(KIND_VCSP, 12, tuple(Constraint("cost2_1_0_1/3_2", (i, (i + 5) % 12), Fraction(0))
                                  for i in range(12))),
    # an objective of 2^53 at 16 variables, past the 2^46 that packed keys
    # of the objective and the mask held in int64
    Instance(KIND_MAXCUT, 16, tuple(Constraint("edge", (i, (i + 1) % 16), Fraction(2 ** 49))
                                    for i in range(16))),
    # variable 0 enters only at the last step, with variables 1..12 of the
    # cycle forgotten before it, so its compare reads their carried bits
    Instance(KIND_MAXCUT, 13, (Constraint("edge", (0, 12)),) + tuple(
        Constraint("edge", (i, i % 12 + 1)) for i in range(1, 13))),
    # a star of 18 variables, eliminated two at a time, whose two optima
    # differ in every variable
    star(KIND_MAXCUT, 18),
    # a cycle through the variables in an order far from 0..n-1, so the
    # computed order forgets high variables while low ones are left, and
    # every optimum ties with its complement
    Instance(KIND_MAXCUT, 16, tuple(Constraint("edge", (SCRAMBLED[i], SCRAMBLED[(i + 1) % 16]))
                                    for i in range(16))),
    # two components, an even and an odd cycle on interleaved variables, and
    # variable 16 in no term
    Instance(KIND_MAXCUT, 17, tuple(Constraint("edge", (2 * i, 2 * (i + 1) % 16))
                                    for i in range(8))
             + tuple(Constraint("edge", (2 * i + 1, (2 * i + 3) % 14)) for i in range(7))),
    # fractional costs and weights on the scrambled path, with f_neq ties
    Instance(KIND_VCSP, 16, tuple(
        Constraint("cost2_1_0_1/3_2" if i % 3 else "f_neq", (SCRAMBLED[i], SCRAMBLED[i + 1]),
                   Fraction(1 + i % 4, 2 + i % 3)) for i in range(15))
             + (Constraint("cost1_0_3/2", (SCRAMBLED[7],), Fraction(2, 3)),)),
)


# the DP is compared with the reference here at every size, whether or not
# solve would route the instance to it, for the optimum and the optimal set
@pytest.mark.deep
@settings(max_examples=examples(100), deadline=None)
@given(instances((KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT), least=0, most=18,
                 most_constraints=30), st.booleans())
@example(ELIMINATION_EXAMPLES[0], False)
@example(ELIMINATION_EXAMPLES[0], True)
@example(ELIMINATION_EXAMPLES[1], False)
@example(ELIMINATION_EXAMPLES[1], True)
@example(ELIMINATION_EXAMPLES[2], False)
@example(ELIMINATION_EXAMPLES[2], True)
@example(ELIMINATION_EXAMPLES[3], False)
@example(ELIMINATION_EXAMPLES[3], True)
@example(ELIMINATION_EXAMPLES[4], False)
@example(ELIMINATION_EXAMPLES[4], True)
@example(ELIMINATION_EXAMPLES[5], False)
@example(ELIMINATION_EXAMPLES[5], True)
@example(ELIMINATION_EXAMPLES[6], False)
@example(ELIMINATION_EXAMPLES[6], True)
@example(ELIMINATION_EXAMPLES[7], False)
@example(ELIMINATION_EXAMPLES[7], True)
@example(ELIMINATION_EXAMPLES[8], False)
@example(ELIMINATION_EXAMPLES[8], True)
@example(ELIMINATION_EXAMPLES[9], False)
@example(ELIMINATION_EXAMPLES[9], True)
@example(ELIMINATION_EXAMPLES[10], False)
@example(ELIMINATION_EXAMPLES[10], True)
@example(ELIMINATION_EXAMPLES[11], False)
@example(ELIMINATION_EXAMPLES[11], True)
@example(ELIMINATION_EXAMPLES[12], False)
@example(ELIMINATION_EXAMPLES[12], True)
@example(ELIMINATION_EXAMPLES[13], False)
@example(ELIMINATION_EXAMPLES[13], True)
@example(ELIMINATION_EXAMPLES[14], False)
@example(ELIMINATION_EXAMPLES[14], True)
@example(ELIMINATION_EXAMPLES[15], False)
@example(ELIMINATION_EXAMPLES[15], True)
@example(ELIMINATION_EXAMPLES[16], False)
@example(ELIMINATION_EXAMPLES[16], True)
@example(ELIMINATION_EXAMPLES[17], False)
@example(ELIMINATION_EXAMPLES[17], True)
@example(ELIMINATION_EXAMPLES[18], False)
@example(ELIMINATION_EXAMPLES[18], True)
@example(ELIMINATION_EXAMPLES[19], False)
@example(ELIMINATION_EXAMPLES[19], True)
def test_elimination_matches_bruteforce(inst, want_all):
    _, (scale, soft_terms, _, _) = oracle._terms(inst, RESOLVER, want_all)
    order, by_top, last, _ = oracle._schedule(inst.num_vars, soft_terms)
    result = oracle._eliminate(inst.kind, order, by_top, last, scale, want_all)
    assert result == solve_bruteforce(inst, RESOLVER, want_all=want_all)


@pytest.mark.parametrize("example", ELIMINATION_EXAMPLES[16:],
                         ids=["star", "scrambled-cycle", "two-components", "scrambled-vcsp"])
def test_ties_are_broken_in_original_indices(example):
    # the computed order is far from 0..n-1 on these, and solve still
    # returns the least optimal mask and the optimal set in ascending order
    _, (_, soft_terms, _, _) = oracle._terms(example, RESOLVER, False)
    assert oracle._schedule(example.num_vars, soft_terms)[0] != list(range(example.num_vars))
    for want_all in (False, True):
        assert solve(example, want_all=want_all) == solve_bruteforce(example, want_all=want_all)


def test_the_order_restarts_at_each_component():
    # two stars, on 0..7 into 7 and on 8..15 into 15, and variable 16 in no
    # term: each component is searched from its least-degree variable, the
    # idle one first, so each star is eliminated two variables at a time
    inst = Instance(KIND_MAXCUT, 17, tuple(Constraint("edge", (i, 7)) for i in range(7))
                    + tuple(Constraint("edge", (i, 15)) for i in range(8, 15)))
    _, (_, soft_terms, _, _) = oracle._terms(inst, RESOLVER, False)
    order, _, _, width = oracle._schedule(17, soft_terms)
    assert order == [16, 0, 7, 1, 2, 3, 4, 5, 6, 8, 15, 9, 10, 11, 12, 13, 14]
    assert width == 2


@st.composite
def soft_scopes(draw):
    """(n, soft terms) over 0-24 variables: terms of 1-4 arguments, repeats
    allowed, each within one of 1-4 groups of the variables (v in group v %
    groups), so the graph often has several components and idle variables."""
    n = draw(st.integers(0, oracle.MAX_SOLVE_VARS))
    groups = draw(st.integers(1, 4))
    members = [[v for v in range(n) if v % groups == g] for g in range(groups)]
    members = [vs for vs in members if vs]
    soft_terms = []
    for j in range(draw(st.integers(0, 40)) if members else 0):
        var = st.sampled_from(draw(st.sampled_from(members)))
        args = tuple(draw(st.lists(var, min_size=1, max_size=4)))
        soft_terms.append((args, (j,)))  # a distinct table per term
    return n, soft_terms


@pytest.mark.deep
@settings(max_examples=examples(100), deadline=None)
@given(soft_scopes())
@example((0, []))
@example((5, []))
@example((17, [((i, 7), (0,)) for i in range(7)] + [((i, 15), (1,)) for i in range(8, 15)]))
@example((6, [((0, 0, 3), (0,)), ((5,), (1,)), ((3, 1, 3, 1), (2,)), ((2, 4), (3,))]))
def test_schedule_matches_the_reference(case):
    n, soft_terms = case
    assert oracle._schedule(n, soft_terms) == schedule_reference(n, soft_terms)


@pytest.mark.parametrize("kind", [KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT])
def test_a_star_of_24_variables_is_eliminated(kind, monkeypatch):
    # in variable order its table would hold all 24 variables and send it to
    # the grid; in the computed order it holds two, and of the two optima,
    # the leaves against the centre, the one with the centre clear wins
    inst = star(kind, 24)
    _, (_, soft_terms, _, _) = oracle._terms(inst, RESOLVER, False)
    assert oracle._schedule(24, soft_terms)[3] == 2
    grid, elimination = spy_on(monkeypatch), spy_on_elimination(monkeypatch)
    best = Fraction(0 if kind == KIND_VCSP else 23)
    assert solve(inst) == SolveResult(kind, True, best, (1 << 23) - 1)
    assert (len(grid), len(elimination)) == (0, 1)


PACKED_VARS = 16


@pytest.mark.parametrize("kind", [KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT])
@pytest.mark.parametrize("bound,packed", [(2 ** (62 - PACKED_VARS) - 1, True),
                                          (2 ** (62 - PACKED_VARS), False)])
def test_elimination_takes_only_objectives_that_pack(kind, bound, packed, monkeypatch):
    # a path whose weights add up to the bound: int64 keys of the objective
    # above the n bits of the mask packed only the first bound, while the
    # bit-sliced planes hold any bound under _INT_LIMIT, so both are eliminated
    ref = {KIND_VCSP: "f_neq", KIND_MAXCSP: "neq", KIND_MAXCUT: "edge"}[kind]
    weights = [1] * (PACKED_VARS - 2) + [bound - (PACKED_VARS - 2)]
    inst = Instance(kind, PACKED_VARS, tuple(Constraint(ref, (i, i + 1), Fraction(w))
                                             for i, w in enumerate(weights)))
    _, (_, _, _, got) = oracle._terms(inst, RESOLVER, False)
    assert (got, got < 2 ** (62 - PACKED_VARS)) == (bound, packed)
    reference = solve_bruteforce(inst)
    grid, elimination = spy_on(monkeypatch), spy_on_elimination(monkeypatch)
    assert solve(inst) == reference
    assert (len(grid), len(elimination)) == (0, 1)
    if kind != KIND_VCSP:  # two cuts of the path reach the bound, the lesser 0b0101...01
        assert (reference.optimum, reference.witness) == (bound, 0x5555)


@pytest.mark.parametrize("kind", HARD_KINDS)
@pytest.mark.parametrize("n", [TRUTH, TRUTH + 1])
def test_hard_kinds_take_the_frontier_only_past_the_cut(kind, n, monkeypatch):
    # a path of OR2 and NAND2 keeps every instance satisfiable with many optima
    cons = [("OR2" if i % 2 else "NAND2", (i, i + 1)) for i in range(n - 1)]
    inst = wmo(n, cons, [1 + v % 3 for v in range(n)], kind) if kind in (
        KIND_WMO, KIND_MINO) else Instance(kind, n, umo(n, cons).constraints)
    # both sides of the cut go through the one truth-table route, never numpy's
    reference = solve_bruteforce(inst, want_all=True)
    truth, grid = spy_on(monkeypatch, "_truth", oracle), spy_on(monkeypatch)
    elimination = spy_on_elimination(monkeypatch)
    assert solve(inst, want_all=True) == reference
    assert (len(truth), len(grid), len(elimination)) == (1, 0, 0)


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


def test_a_weighted_max_ones_solve_caches_only_its_groups(monkeypatch):
    # the Ones groups are summed from the variables' literals, so the cache
    # holds one entry per group (m, n, w) and no unary (0, w) term planes
    monkeypatch.setattr(oracle, "_plane_cache", {})
    monkeypatch.setattr(oracle, "_plane_bytes", 0)
    inst = wmo(6, [("OR2", (0, 1)), ("NAND2", (2, 3))], [1, 2, 2, 3, 0, 5])
    assert solve(inst) == solve_bruteforce(inst)
    assert set(oracle._plane_cache) == {(0b000001, 6, 1), (0b000110, 6, 2),
                                        (0b001000, 6, 3), (0b100000, 6, 5)}


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


@st.composite
def wide_terms(draw):
    """(resolver, instance, want_all): Max-CSP over relations of arity 4-12
    or VCSP over cost functions of arity 4-8, on 4-17 variables, so both
    sides of the cut.  Each of the 1-3 wide terms is drawn from a seed at a
    density and registered in a fresh resolver under a name of its own; its
    args repeat where its arity passes n and in one draw of four anyway.  One
    draw in two adds a binary term, which elimination builds by `_PAIR`."""
    kind = draw(st.sampled_from((KIND_MAXCSP, KIND_VCSP)))
    n = draw(st.one_of(st.integers(4, TRUTH), st.integers(TRUTH + 1, TRUTH + 3)))
    resolver = Resolver()
    cons = []
    for i in range(draw(st.integers(1, 3))):
        k = draw(st.integers(4, 12 if kind == KIND_MAXCSP else 8))
        rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
        density = draw(st.sampled_from((0.02, 0.5, 0.98)))
        if kind == KIND_MAXCSP:
            resolver.register_relation(Relation(
                k, tuple(m for m in range(1 << k) if rnd.random() < density), f"W{i}"))
        else:
            resolver.register_costfn(CostFunction(k, tuple(
                Fraction(rnd.randint(1, 6), rnd.randint(1, 3)) if rnd.random() < density
                else Fraction(0) for _ in range(1 << k)), f"W{i}"))
        if k <= n and draw(st.integers(0, 3)):
            args = tuple(draw(st.permutations(range(n)))[:k])
        else:
            args = tuple(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
        cons.append(Constraint(f"W{i}", args, draw(st.one_of(st.none(), SOFT_WEIGHTS))))
    if draw(st.booleans()):
        cons.append(Constraint("neq" if kind == KIND_MAXCSP else "f_neq", (0, n - 1)))
    return resolver, Instance(kind, n, tuple(cons)), draw(st.booleans())


def wide_example(kind, n, cons, want_all):
    return default_resolver(), Instance(kind, n, tuple(Constraint(*c) for c in cons)), want_all


@pytest.mark.deep
@settings(max_examples=examples(100), deadline=None)
@given(wide_terms())
@example(wide_example(KIND_MAXCSP, TRUTH, [("OR12", tuple(range(12)))], True))
@example(wide_example(KIND_MAXCSP, TRUTH + 1, [("OR12", tuple(range(3, 15)))], True))
@example(wide_example(KIND_MAXCSP, TRUTH + 2, [("ODD12", tuple(range(4, 16)), Fraction(2 ** 31 - 1)),
                                               ("EVEN8", (0, 1, 2, 3, 4, 4, 5, 5))], False))
@example(wide_example(KIND_VCSP, TRUTH + 1, [
    ("cost4_0_1_2_3_4_5_6_7_8_9_10_11_12_13_14_15", (0, 14, 0, 7), Fraction(3 * 2 ** 40)),
    ("fnot_R_II2", tuple(range(7, 15)), Fraction(5, 3))], True))
def test_wide_terms_match_bruteforce(case):
    # every plane of a wide term is its level relation walked on the
    # arguments' literals, on the truth route and in elimination
    resolver, inst, want_all = case
    assert (solve(inst, resolver, want_all=want_all)
            == solve_bruteforce(inst, resolver, want_all=want_all))


@pytest.mark.parametrize("k,bound_mb,weight", [
    pytest.param(14, 8, None, id="14-8"), pytest.param(16, 16, None, id="16-16"),
    pytest.param(16, 10, Fraction(2 ** 31 - 1), id="16-10-weighted")])
def test_a_wide_max_csp_term_stays_within_a_memory_bound(k, bound_mb, weight):
    # OR over all k variables: its one plane walks the k nodes of the
    # relation's diagram, so the solve holds a few 2^k-bit tables and the
    # level relation, far below the 2^(2k) / 8 bytes of a set per code.  At
    # a weight of 31 one bits every plane has the one level relation, read
    # from the table once, not once per plane
    resolver = Resolver()
    resolver.register_relation(Relation(k, tuple(range(1, 1 << k)), "WIDEOR"))
    inst = Instance(KIND_MAXCSP, k, (Constraint("WIDEOR", tuple(range(k)), weight),))
    tracemalloc.start()
    try:
        got = solve(inst, resolver)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == SolveResult(KIND_MAXCSP, True, weight or Fraction(1), 1)
    assert peak <= bound_mb << 20


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
    assert (list(hard), scale, [(args, list(table)) for args, table in soft_terms],
            list(ones), bound) == want


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
    gather = lut(rel)[codes(np.arange(1 << n), args)]
    assert tt.masks(tt.table(minor, distinct, n), n) == np.flatnonzero(gather).tolist()


@pytest.mark.parametrize("n", [12, 13, 14])
def test_tables_of_the_wide_relation_match_the_reference(n):
    # ten arguments among the n variables and constants past them, repeats
    # allowed; the i-th argument past n reads bit i of `fixed`
    rng = random.Random(n)
    table, idx = lut(WIDE), np.arange(1 << n)
    for _ in range(20):
        args = [rng.randrange(n + 3) for _ in range(WIDE.arity)]
        fixed = rest = rng.getrandbits(WIDE.arity)
        code = np.zeros_like(idx)
        for j, v in enumerate(args):
            if v < n:
                code |= (idx >> v & 1) << j
            else:
                code |= (rest & 1) << j
                rest >>= 1
        want = np.flatnonzero(table[code]).tolist()
        assert tt.masks(tt.table(WIDE, args, n, fixed), n) == want, (args, fixed)


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
    idx = np.arange(1 << inst.num_vars)
    alive = np.ones(idx.shape, dtype=bool)
    for stop, (args, rel) in enumerate(order, 1):
        alive &= lut(rel)[codes(idx, args)]
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
    monkeypatch.setattr(oracle, "_eliminate", None)
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
    elimination = spy_on_elimination(monkeypatch)
    assert solve(inst, want_all=True, jobs=1) == reference
    # solve eliminates these terms, so the grid is called as well
    tables = oracle._terms(inst, RESOLVER, False)[1]
    single = SolveResult(kind, True, reference.optimum, reference.witness)
    assert arrays.enumerate_masks(inst, tables, 1) == single
    assert arrays.enumerate_masks(inst, tables, 2) == single
    assert len(elimination) == 1
