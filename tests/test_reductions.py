import dataclasses
import fnmatch
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from coclones.instances import (
    Constraint,
    Instance,
    InstanceError,
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
from coclones.fileio import emit_inst
from coclones.oracle import meets_threshold, solve, solve_bruteforce
from coclones.definitions import ARGMAX_IDENTITIES
from coclones.postlattice import co_clone_of, parse_coclone_name
from coclones.reductions import (
    ACCEPTANCE_ENTRIES,
    QPP_FAMILY,
    QWPP_FAMILY,
    REGISTRY,
    Affine,
    BoundViolation,
    Decision,
    ReductionError,
    _entry_seed,
    _gadget_max,
    _measure_failure,
    _weight_big_m,
    apply,
    certify,
    corpus,
    record,
    registry_names,
)

RESOLVER = default_resolver()


def test_registry_covers_every_construction():
    assert len(QPP_FAMILY) == 6
    assert len(QWPP_FAMILY) == 6
    assert len(ACCEPTANCE_ENTRIES) == 13
    for name in ACCEPTANCE_ENTRIES:
        assert name in REGISTRY


def test_the_certified_groups_partition_the_registry():
    # CI certifies `certify all`, `umo_qpp_family` and `wmo_qwpp_family`, so an
    # entry outside these three groups would never be certified there
    groups = [set(ACCEPTANCE_ENTRIES), set(QPP_FAMILY), set(QWPP_FAMILY)]
    assert sum(map(len, groups)) == len(set().union(*groups))
    assert set().union(*groups) == set(REGISTRY)


def test_language_mismatch_rejected():
    inst = Instance(KIND_UMO, 3, (Constraint("OR2", (0, 1)),))
    with pytest.raises(ReductionError):
        apply("umo_II2_to_IN2", inst)


# one case per rejection of Resolver.resolve_all: (kind, constraint, a registry
# entry whose kind and language checks the constraint passes, the message)
REJECTIONS = [
    (KIND_MINO, Constraint("nope", (0, 1)), "maxones_to_minones", "unknown relation 'nope'"),
    (KIND_VCSP, Constraint("nope", (0, 1)), "uvcspd_to_minones",
     "unknown cost function 'nope'"),
    (KIND_UMO, Constraint("R_IL2", (0, 1, 2)), "umo_IL2_to_IL0",
     "constraint R_IL2 expects 8 arguments, got 3"),
    (KIND_VCSP, Constraint("f_neq", (0,)), "vcsp_neq_to_maxcut",
     "constraint f_neq expects 2 arguments, got 1"),
    (KIND_MAXCUT, Constraint("edge", (0, 1, 2)), "maxcut_to_vcsp_neq",
     "constraint edge expects 2 arguments, got 3"),
    (KIND_SAT, Constraint("R_II2", tuple(range(8)), Fraction(5)), "sat2_to_umo_IS21",
     "SAT constraints carry no weights"),
    (KIND_UMO, Constraint("R_IS1_2", (0, 1, 2), Fraction(5)), "umo_IS21_to_ID2",
     "U-Max-Ones constraints carry no weights"),
    (KIND_MINO, Constraint("OR2", (0, 1), Fraction(5)), "maxones_to_minones",
     "Min-Ones constraints carry no weights"),
    # every Max-Cut entry admits only 'edge', so its language check rejects first
    (KIND_MAXCUT, Constraint("OR2", (0, 1)), None, "Max-Cut constraints must use ref 'edge'"),
    (KIND_WMO, Constraint("R_II2", tuple(range(8)), Fraction(5)), "wmo_qwpp_IL2",
     "W-Max-Ones constraints carry no weights"),
]


@pytest.mark.parametrize("kind,constraint,entry,message", REJECTIONS)
def test_solvers_and_apply_reject_what_resolve_rejects(kind, constraint, entry, message):
    inst = Instance(kind, 8, (constraint,))
    calls = [lambda: RESOLVER.resolve_all(kind, (constraint,))[0],
             lambda: solve(inst, RESOLVER),
             lambda: solve_bruteforce(inst, RESOLVER)]
    if entry is not None:
        calls.append(lambda: apply(entry, inst, RESOLVER))
    for call in calls:
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            call()


def test_degree_bound_enforced():
    cons = tuple(Constraint("R_II2", (0,) * 8) for _ in range(3))
    inst = Instance(KIND_SAT, 1, cons)
    with pytest.raises(ReductionError):
        apply("sat2_to_umo_IL2", inst)


def test_sat2_to_umo_il2_counts_and_threshold():
    inst = Instance(KIND_SAT, 4, (Constraint("R_II2", (0, 1, 2, 3, 0, 1, 2, 3)),))
    tgt, info = apply("sat2_to_umo_IL2", inst)
    n, m = 4, 1
    assert tgt.num_vars == 2 + 2 * n + 3 * m
    assert tgt.num_vars <= 2 + 8 * n
    assert info.threshold.value == n + 1 + 2 * m


def test_an_exact_decision_reports_a_target_past_its_threshold():
    # a satisfiable source's target optimum must equal the threshold of
    # sat2_to_umo_IL2, not only reach it
    rec = REGISTRY["sat2_to_umo_IL2"]
    assert rec.measure.exact
    src = Instance(KIND_SAT, 4, (Constraint("R_II2", (0, 1, 2, 3, 0, 1, 2, 3)),))
    tgt, info = apply(rec.name, src)
    want = info.threshold.value
    assert solve(tgt).optimum == want
    assert _measure_failure(rec, src, tgt, 1, None, RESOLVER) is None
    lowered = tgt.with_threshold(">=", want - 1)
    assert _measure_failure(rec, src, lowered, 1, None, RESOLVER) == (
        f"satisfiable source must hit exactly {want - 1}, got {want}")
    inexact = dataclasses.replace(rec, measure=Decision(rec.measure.threshold))
    assert _measure_failure(inexact, src, lowered, 1, None, RESOLVER) is None


def test_umo_il2_to_il0_spec_example():
    src = Instance(KIND_UMO, 4, (Constraint("R_IL2", (1, 1, 0, 2, 2, 3, 0, 3)),))
    assert solve(src).optimum == 2
    tgt, info = apply("umo_IL2_to_IL0", src)
    assert tgt.num_vars == 10
    assert solve(tgt).optimum == 7


def test_swapped_constant_sources_stay_sound():
    # the inequality structure forces variable 0 to 1, yet it sits in the
    # constant-0 slot: unsatisfiable strictly, satisfiable with the constants
    # swapped; the pinning atom keeps the rewrite sound (regression)
    src = Instance(KIND_UMO, 4, (Constraint("R_IL2", (0, 0, 1, 1, 1, 2, 0, 3)),))
    sres = solve(src)
    assert not sres.satisfiable
    tgt, info = apply("umo_IL2_to_IL0", src)
    tres = solve(tgt)
    assert tres.satisfiable
    assert tres.optimum < info.value_offset


def test_maxcut_triangle_example():
    tri = Instance(KIND_MAXCUT, 3,
                   tuple(Constraint("edge", e) for e in ((0, 1), (0, 2), (1, 2))))
    tgt, _ = apply("maxcut_to_vcsp_neq", tri)
    assert solve(tgt).optimum == 1


def test_uvcsp_translation_structure():
    fn_ref = "cost2_0_1_2_0"
    src = Instance(KIND_VCSP, 2, (Constraint(fn_ref, (0, 1)),))
    tgt, info = apply("uvcspd_to_minones", src)
    s, t = 2, 2
    assert tgt.num_vars <= 2 + 1 * (2 * s + t * ((1 << s) + 1))
    assert info.value_offset == 2
    sres, tres = solve(src), solve(tgt)
    assert tres.optimum == sres.optimum + 2


def test_qpp_threshold_map():
    src = Instance(KIND_UMO, 3, (Constraint("R_IS1_2", (0, 1, 2)),))
    k = solve(src).optimum
    for name in QPP_FAMILY:
        if REGISTRY[name].source_language != ("R_IS1_2",):
            continue
        tgt, info = apply(name, src)
        assert tgt.num_vars == src.num_vars + 2
        assert solve(tgt).optimum == k + 1


def test_qwpp_big_m_composition():
    src = Instance(KIND_WMO, 8, (Constraint("R_II2", tuple(range(8))),),
                   var_weights=tuple(Fraction(i % 3) for i in range(8)))
    sres = solve(src)
    for name in ("wmo_qwpp_IN2", "wmo_qwpp_ID2", "wmo_qwpp_IL2", "wmo_qwpp_IS1_2"):
        tgt, info = apply(name, src)
        assert tgt.num_vars == 8
        assert solve(tgt).optimum == sres.optimum + info.value_offset


@pytest.mark.parametrize("identity", ARGMAX_IDENTITIES, ids=lambda i: i.base)
def test_gadget_max_is_the_fraction_sum_on_every_target_tuple(identity):
    target = RESOLVER.relation(identity.target)
    sums = {sum((Fraction(w) for p, w in enumerate(identity.weights) if (t >> p) & 1),
                Fraction(0)) for t in target.tuples}
    assert sums == {_gadget_max(identity)}


WEIGHTS = st.builds(Fraction, st.integers(0, 10 ** 9), st.integers(1, 10 ** 4))


# no max_examples: the count follows the loaded profile (conftest.py)
@pytest.mark.deep
@settings(deadline=None)
@given(st.data())
def test_big_m_and_qwpp_weights_match_the_fraction_reference(data):
    # the reference sums in Fractions, one gadget slot at a time
    identity = data.draw(st.sampled_from(ARGMAX_IDENTITIES))
    n = data.draw(st.integers(1, 8))
    args = st.tuples(*[st.integers(0, n - 1)] * 8)
    cons = tuple(Constraint(identity.target, a)
                 for a in data.draw(st.lists(args, max_size=3)))
    weights = data.draw(st.none() | st.lists(WEIGHTS, min_size=n, max_size=n).map(tuple))
    src = Instance(KIND_WMO, n, cons, var_weights=weights)
    ref_weights = list(weights) if weights is not None else [Fraction(1)] * n
    big_m = Fraction(1) + sum(ref_weights, Fraction(0))
    assert _weight_big_m(src) == big_m
    for c in cons:
        for p, w in enumerate(identity.weights):
            if w:
                ref_weights[c.args[p]] += big_m * w
    tgt = REGISTRY[f"wmo_qwpp_{identity.base[2:]}"].build(src, RESOLVER)
    assert tgt.var_weights == tuple(ref_weights)
    assert all(type(w) is Fraction for w in tgt.var_weights)


def test_qwpp_chained_targets():
    src = Instance(KIND_WMO, 8, (Constraint("R_II2", tuple(range(8))),),
                   var_weights=tuple(Fraction(1) for _ in range(8)))
    sres = solve(src)
    mid, info1 = apply("wmo_qwpp_IL2", src)
    for name in ("wmo_qwpp_IL3", "wmo_qwpp_IL0"):
        tgt, info2 = apply(name, mid)
        assert solve(tgt).optimum == sres.optimum + info1.value_offset + info2.value_offset


def test_minones_map():
    src = Instance(KIND_MINO, 3, (Constraint("OR2", (0, 1)), Constraint("OR2", (1, 2))))
    tgt, _ = apply("maxones_to_minones", src)
    assert tgt.num_vars == 9
    assert solve(tgt).optimum == 2 * 3 - solve(src).optimum


def test_sat2_to_uvcsp2_zero_iff_sat():
    sat = Instance(KIND_SAT, 8, (Constraint("R_II2", tuple(range(8))),))
    tgt, _ = apply("sat2_to_uvcsp2", sat)
    assert tgt.num_vars == 8
    assert solve(tgt).optimum == 0
    unsat = Instance(KIND_SAT, 1, (Constraint("R_II2", (0,) * 8),))
    tgt2, _ = apply("sat2_to_uvcsp2", unsat)
    assert solve(tgt2).optimum > 0


def test_maxcsp_heavy_constraint_binds():
    src = Instance(KIND_MAXCSP, 2, (
        Constraint("NAND2", (0, 1), Fraction(2)),
        Constraint("T", (0,), Fraction(1)),
    ))
    tgt, info = apply("maxcsp_nandTF_to_neq", src)
    assert tgt.num_vars == 4
    res = solve(tgt, want_all=True)
    assert res.optimum == solve(src).optimum + info.value_offset
    v0, v1 = 2, 3
    for mask in res.optimal_set:
        assert ((mask >> v0) & 1) != ((mask >> v1) & 1)


def test_maxcutc_gap_flagged():
    src = Instance(KIND_MAXCUT, 3,
                   tuple(Constraint("edge", e, Fraction(2)) for e in ((0, 1), (1, 2))))
    tgt, info = apply("maxcutc_to_wmaxones", src)
    note = record("maxcutc_to_wmaxones").note(src, RESOLVER)
    assert "XOR3 is pp-definable over R_II2 only with auxiliary variables" in note
    assert tgt.num_vars == 3 + 2
    assert solve(tgt).optimum == solve(src).optimum


def test_certify_never_renders_a_note(monkeypatch):
    # only `coclones reduce` prints notes, so certify must not pay for them
    rendered = []
    for name, rec in list(REGISTRY.items()):
        monkeypatch.setitem(REGISTRY, name, dataclasses.replace(
            rec, note=lambda src, resolver, name=name: rendered.append(name) or ""))
    for name in registry_names():
        assert certify(name, trials=3).ok
    assert rendered == []


def test_xor3_is_pp_definable_over_r_ii2():
    r_ii2, xor3 = RESOLVER.relation("R_II2"), RESOLVER.relation("XOR3")
    assert co_clone_of([r_ii2]) == co_clone_of([r_ii2, xor3]) == parse_coclone_name("II2")


def test_xor3_has_no_definition_over_r_ii2_without_auxiliary_variables():
    # the canonical conjunction: every R_II2 or eq atom over XOR3's three
    # coordinates that XOR3 satisfies also admits every non-tuple of XOR3
    xor3 = RESOLVER.relation("XOR3")
    for rel in (RESOLVER.relation("R_II2"), RESOLVER.relation("eq")):
        for slots in itertools.product(range(3), repeat=rel.arity):
            def image(m):
                return sum(((m >> s) & 1) << j for j, s in enumerate(slots))
            if all(rel.contains(image(t)) for t in xor3.tuples):
                assert all(rel.contains(image(m)) for m in range(8))


def test_certify_small_all_entries():
    for name in registry_names():
        rep = certify(name, trials=8, seed=11)
        assert rep.ok, f"{name}: {rep.failures[:1]}"


def test_certify_reports_render():
    rep = certify("maxcut_to_vcsp_neq", trials=5, seed=3)
    text = rep.render()
    assert "maxcut_to_vcsp_neq" in text and "agree" in text


def test_certify_deterministic_under_seed():
    a = certify("umo_II2_to_IN2", trials=6, seed=5)
    b = certify("umo_II2_to_IN2", trials=6, seed=5)
    assert a == b


def test_certify_reports_oracle_failure_as_a_case(monkeypatch):
    # every other draw carries an edge weight beyond the oracle's exact int64 budget
    rec = REGISTRY["maxcutc_to_wmaxones"]
    draws = iter(range(4))

    def sampler(rng):
        if next(draws) % 2:
            return rec.sampler(rng)
        return Instance(KIND_MAXCUT, 2, (Constraint("edge", (0, 1), Fraction(2 ** 61)),))

    monkeypatch.setitem(REGISTRY, rec.name, dataclasses.replace(rec, sampler=sampler))
    report = certify(rec.name, trials=4, seed=0)
    assert report.cases == 4 and len(report.failures) == 2
    for _, msg in report.failures:
        assert msg == "oracle failed: objective magnitude exceeds the exact int64 budget"
    assert "counterexample: oracle failed:" in report.render()


@pytest.mark.parametrize("name,form", [("umo_II2_to_IN2", "2+3n"),
                                       ("uvcspd_to_minones", "<= n+m(2s+t(2^s+1))")],
                         ids=["umo_II2_to_IN2", "uvcspd_to_minones"])
def test_apply_rejects_a_build_past_its_declared_count(monkeypatch, name, form):
    # one exact count and one upper bound; the message names the declared form
    rec = REGISTRY[name]
    src = rec.sampler(random.Random(0))
    declared = rec.size.count(src, RESOLVER.resolve_all(src.kind, src.constraints))

    def padded(src, resolver):
        applied = resolver.resolve_all(src.kind, src.constraints)
        return dataclasses.replace(rec.build(src, resolver),
                                   num_vars=rec.size.count(src, applied) + 1)

    apply(name, src)
    monkeypatch.setitem(REGISTRY, name, dataclasses.replace(rec, build=padded))
    message = f"{name}: produced {declared + 1} variables, declared {form} = {declared}"
    with pytest.raises(BoundViolation, match=f"^{re.escape(message)}$"):
        apply(name, src)
    assert "apply failed:" in certify(name, trials=1).failures[0][1]
    # a declared count one above the build: slack for a bound, a violation
    # for an exact count
    higher = dataclasses.replace(rec.size, base=rec.size.base + 1)
    monkeypatch.setitem(REGISTRY, name, dataclasses.replace(rec, size=higher))
    if rec.size.exact:
        message = (f"{name}: produced {declared} variables, "
                   f"declared {higher.text()} = {declared + 1}")
        with pytest.raises(BoundViolation, match=f"^{re.escape(message)}$"):
            apply(name, src)
    else:
        apply(name, src)


@pytest.mark.parametrize("name,calls", [("uvcspd_to_minones", 2), ("umo_II2_to_IN2", 1)],
                         ids=["uvcspd_to_minones", "umo_II2_to_IN2"])
def test_apply_resolves_the_source_once_for_its_checks(monkeypatch, name, calls):
    # apply's admission and Size.count share one resolve; of the two entries
    # only uvcspd_to_minones' build resolves the source again
    rec = REGISTRY[name]
    src = rec.sampler(random.Random(0))
    seen = []
    real = Resolver.resolve_all

    def spy(self, kind, constraints):
        seen.append(constraints)
        return real(self, kind, constraints)

    monkeypatch.setattr(Resolver, "resolve_all", spy)
    apply(name, src)
    assert seen == [src.constraints] * calls


# each entry's LV constant as `reduce` prints it; maxcutc_to_wmaxones adds a
# variable per edge and declares no degree, so its C is left in d
PRINTED_CONSTANTS = {
    "sat2_to_umo_IS21": "6", "sat2_to_umo_IL2": "8", "umo_IL2_to_IL0": "2",
    "umo_II2_to_IN2": "3", "umo_IS21_to_ID2": "3", "umo_IL2_to_IL3": "3",
    **{name: "1" for name in QPP_FAMILY + QWPP_FAMILY},
    "maxones_to_minones": "3", "uvcspd_to_minones": "1+d(2s+t(2^s+1))",
    "sat2_to_uvcsp2": "1", "maxcut_to_vcsp_neq": "1", "vcsp_neq_to_maxcut": "1",
    "maxcsp_nandTF_to_neq": "1", "maxcutc_to_wmaxones": "1+d",
}


@pytest.mark.parametrize("name", registry_names())
def test_the_lv_constant_bounds_every_default_corpus_target(name):
    rec = REGISTRY[name]
    c = rec.lv_constant
    assert str(c) == PRINTED_CONSTANTS[name]
    assert (rec.kind_tag == "CV") == (c == 1)
    for src in corpus(rec):
        for step in rec.chain_before:
            src, _ = apply(step, src)
        tgt, _ = apply(name, src)
        if isinstance(c, int):
            assert tgt.num_vars <= c * src.num_vars + rec.size.base, emit_inst(src)


def test_readme_registry_table_renders_the_declared_sizes():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("## Reduction registry\n\n", 1)[1].split("\n\n", 1)[0]
    covered = []
    for row in table.splitlines()[2:]:
        entries, _, variables, constant = (cell.strip() for cell in row.strip("|").split("|"))
        for pattern in re.findall(r"`([^`]+)`", entries):
            for name in fnmatch.filter(registry_names(), pattern):
                covered.append(name)
                rec = REGISTRY[name]
                assert (variables, constant) == (rec.size.text(), str(rec.lv_constant)), name
    assert sorted(covered) == registry_names()


def test_an_exact_size_is_asserted_on_23_entries_and_a_bound_on_2():
    bounds = [name for name in REGISTRY if not REGISTRY[name].size.exact]
    assert bounds == ["sat2_to_umo_IS21", "uvcspd_to_minones"]
    assert len(REGISTRY) == 25


@pytest.mark.parametrize("name,change", [("umo_II2_to_IN2", "language"),
                                         ("uvcspd_to_minones", "language"),
                                         ("maxones_to_minones", "kind")])
def test_apply_rejects_a_build_outside_its_declared_target(monkeypatch, name, change):
    # uvcspd_to_minones declares "Rf_*", maxones_to_minones declares "*"
    rec = REGISTRY[name]
    src = rec.sampler(random.Random(0)) if rec.sampler else next(rec.exhaustive())
    apply(name, src)
    if change == "language":
        def build(src, resolver):
            out = rec.build(src, resolver)
            return dataclasses.replace(
                out, constraints=out.constraints + (Constraint("OR2", (0, 1)),))
        changed = dataclasses.replace(rec, build=build)
        want = f"{name}: target language must be within {rec.target_language}, got ['OR2']"
    else:
        changed = dataclasses.replace(rec, target_kind=KIND_WMO)
        want = f"{name}: target must be a {KIND_WMO} instance, got {rec.target_kind}"
    monkeypatch.setitem(REGISTRY, name, changed)
    with pytest.raises(ReductionError) as exc:
        apply(name, src)
    assert str(exc.value) == want
    assert certify(name, trials=1).failures[0][1] == f"apply failed: {want}"


def test_unsatisfiable_source_allows_a_target_only_below_the_offset(monkeypatch):
    # unsatisfiable source, satisfiable target with optimum 0 (see above)
    rec = REGISTRY["umo_IL2_to_IL0"]
    src = Instance(KIND_UMO, 4, (Constraint("R_IL2", (0, 0, 1, 1, 1, 2, 0, 3)),))
    for offset, ok in ((1, True), (0, False)):
        monkeypatch.setitem(REGISTRY, rec.name, dataclasses.replace(
            rec, sampler=lambda rng: src, measure=Affine(1, lambda s, r: Fraction(offset))))
        assert certify(rec.name, trials=1).ok is ok


@pytest.mark.parametrize("name", ["umo_IL2_to_IL0", "maxcut_to_vcsp_neq", "sat2_to_umo_IS21"])
def test_certify_reports_a_measure_off_by_one(monkeypatch, name):
    rec = REGISTRY[name]
    if isinstance(rec.measure, Affine):
        measure = Affine(rec.measure.sign, lambda src, r: rec.measure.offset(src, r) + 1)
    else:
        # one below: the sampler draws few satisfiable sources, so the
        # unsatisfiable ones must expose it
        def threshold(src):
            th = rec.measure.threshold(src)
            return Threshold(th.direction, th.value - 1)
        measure = Decision(threshold)
    assert certify(name, trials=20).ok
    monkeypatch.setitem(REGISTRY, name, dataclasses.replace(rec, measure=measure))
    assert not certify(name, trials=20).ok


def _satisfiable_sources(name, count):
    rec = REGISTRY[name]
    rng = random.Random(_entry_seed(1, name))
    draws = rec.exhaustive() if rec.exhaustive is not None else iter(lambda: rec.sampler(rng), None)
    found = []
    for src in draws:
        for pre in rec.chain_before:
            src, _ = apply(pre, src)
        res = solve(src)
        if src.num_constraints and res.satisfiable:
            found.append((src, res.optimum))
            if len(found) == count:
                return found
    raise AssertionError(f"{name}: fewer than {count} satisfiable sources")


@pytest.mark.parametrize("name", [n for n in registry_names()
                                  if isinstance(REGISTRY[n].measure, Affine)])
def test_mapped_threshold_met_exactly_at_the_optimum(name):
    rec = REGISTRY[name]
    direction = ">=" if rec.source_kind in MAXIMIZING_KINDS else "<="
    step = 1 if direction == ">=" else -1  # one step past the optimum
    for src, optimum in _satisfiable_sources(name, 3):
        for past, met in ((0, True), (step, False)):
            tgt, info = apply(name, src.with_threshold(direction, optimum + past))
            assert info.sign == rec.measure.sign
            assert meets_threshold(solve(tgt), tgt.threshold) is met, (name, past)


def test_certify_runs_the_declared_invariant(monkeypatch):
    rec = REGISTRY["maxcsp_nandTF_to_neq"]
    seen = []

    def invariant(src, tgt, sres, tres, resolver):
        seen.append(src)
        return "invariant broken" if len(seen) == 2 else None

    monkeypatch.setitem(REGISTRY, rec.name, dataclasses.replace(rec, invariant=invariant))
    report = certify(rec.name, trials=3)
    assert len(seen) == 3 and [msg for _, msg in report.failures] == ["invariant broken"]
