"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
to see them inline.  Numeric checks are exact (rational equality); runtime
limits are asserted with the stated budgets.
"""

import io
import time
from fractions import Fraction

from coclones.cli import _recheck_admitted, main, run_selftest
from coclones.definitions import (
    ARGMAX_IDENTITIES,
    EXTENSION_FORMULAS,
    constant_extension_implications,
    eval_formula,
    eval_wpp,
)
from coclones.fileio import parse_rel
from coclones.instances import Constraint, Instance, KIND_MAXCUT, default_resolver
from coclones.oracle import solve
from coclones.postlattice import CoCloneId, co_clone_leq, co_clone_of
from coclones.reductions import ACCEPTANCE_ENTRIES, QWPP_FAMILY, apply, certify
from coclones.relations import (
    ConstraintLanguage,
    EmptyRelationError,
    Relation,
    classify_max_ones,
)
from coclones.valued import CostFunction, classify_vcsp, express_neq, f_neq, verify_neq_expression
from coclones.weakbases import all_entries

import random

RESOLVER = default_resolver()

II2_MATRIX = {"00111001", "01010101", "10001101"}
IN2_MATRIX = {"00001111", "00111100", "01011010", "11110000", "11000011", "10100101"}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _cli_capture(argv):
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_1_weak_base_goldens():
    start = time.perf_counter()
    code1, out1 = _cli_capture(["weakbase", "II2"])
    code2, out2 = _cli_capture(["weakbase", "IN2"])
    rel1, rel2 = parse_rel(out1)[0], parse_rel(out2)[0]
    elapsed = time.perf_counter() - start
    ok = (code1 == code2 == 0
          and rel1.arity == 8 and len(rel1.tuples) == 3
          and set(rel1.row_strings()) == II2_MATRIX
          and rel2.arity == 8 and len(rel2.tuples) == 6
          and set(rel2.row_strings()) == IN2_MATRIX
          and elapsed < 1.0)
    _report(1, ok, f"3x8 and 6x8 matrices bit-exact in {elapsed:.3f}s (< 1s)")


def test_criterion_2_coclone_identification():
    start = time.perf_counter()
    rows = all_entries((2, 3))
    bad = []
    for entry in rows:
        got = co_clone_of(ConstraintLanguage([entry.relation]))
        if got != entry.coclone:
            bad.append((entry.coclone.display(), got.display()))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    _report(2, ok, f"{len(rows)} weak-base rows identified (chains at n=2,3) "
                   f"in {elapsed:.2f}s (< 60s); mismatches: {bad}")


def test_criterion_3_dichotomy_cross_validation():
    start = time.perf_counter()
    is21 = CoCloneId("S1", 2)
    hard_coclones = {CoCloneId("L0"), CoCloneId("L3"), CoCloneId("L2"), CoCloneId("N2")}
    disagreements = []
    empty_ok = False
    lang_empty = ConstraintLanguage([Relation.from_masks(3, [], name="R", allow_empty=True)])
    try:
        classify_max_ones(lang_empty)
    except EmptyRelationError:
        try:
            co_clone_of(lang_empty)
        except EmptyRelationError:
            empty_ok = True
    for mask_set in range(1, 256):
        rel = Relation.from_masks(3, [t for t in range(8) if (mask_set >> t) & 1], name="R")
        lang = ConstraintLanguage([rel])
        coclone = co_clone_of(lang)
        by_position = co_clone_leq(is21, coclone) or coclone in hard_coclones
        by_closure = classify_max_ones(lang).result == "NP-hard"
        if by_position != by_closure:
            disagreements.append(mask_set)
    elapsed = time.perf_counter() - start
    ok = empty_ok and not disagreements and elapsed < 60.0
    _report(3, ok, f"256 ternary languages (255 classified + empty rejected) "
                   f"in {elapsed:.2f}s (< 60s); disagreements: {disagreements}")


def test_criterion_4_qpp_gadget_suite():
    failures = []
    for ext in EXTENSION_FORMULAS:
        rel = RESOLVER.relation(ext.source)
        rp = eval_formula(ext.formula, RESOLVER)
        impl1, impl2, impl2_top = constant_extension_implications(rel, rp)
        if ext.source == "R_II2":
            # the ten-variable formula: implication 2 holds once y1 is forced
            if not (impl1 and impl2_top):
                failures.append(ext.target)
        else:
            if not (impl1 and impl2):
                failures.append(ext.target)
    _report(4, not failures,
            f"6 extension formulas pass their implication checks; failures: {failures}")


def test_criterion_5_argmax_identity_suite():
    failures = []
    for ident in ARGMAX_IDENTITIES:
        got = eval_wpp(ident.gadget(), RESOLVER)
        want = RESOLVER.relation(ident.target)
        if got.tuples != want.tuples:
            failures.append(f"{ident.target} over {ident.base}")
    targets = [ident.target for ident in ARGMAX_IDENTITIES]
    ok = not failures and targets.count("R_II2") == 4 and targets.count("R_IL2") == 2
    _report(5, ok, f"6 identities reproduce R_II2 (x4) and R_IL2 (x2) exactly; "
                   f"failures: {failures}")


def test_criterion_6_reduction_certification():
    start = time.perf_counter()
    failures = []
    total = 0
    for name in ACCEPTANCE_ENTRIES:
        report = certify(name, trials=200, seed=0)
        total += report.cases
        if not report.ok:
            failures.append((name, report.failures[0][1]))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    _report(6, ok, f"{len(ACCEPTANCE_ENTRIES)} entries, {total} certified cases "
                   f"in {elapsed:.1f}s (< 600s); counterexamples: {failures}")


def test_criterion_7_wpp_composition_gate():
    start = time.perf_counter()
    failures = []
    total = 0
    for name in QWPP_FAMILY:
        report = certify(name, trials=200, seed=0)
        total += report.cases
        if not report.ok:
            failures.append((name, report.failures[0][1]))
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(7, ok, f"big-M composition over {len(QWPP_FAMILY)} targets, "
                   f"{total} cases in {elapsed:.1f}s; counterexamples: {failures}")


def test_criterion_8_synthesis():
    start = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    hard = 0
    p_checked = 0
    failures = []
    while hard < 500:
        fns = []
        for i in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            fns.append(CostFunction(k, tuple(Fraction(rng.randint(0, 4))
                                             for _ in range(1 << k)), f"f{i}"))
        cls = classify_vcsp(fns)
        if cls.is_polynomial:
            p_checked += 1
            if not _recheck_admitted(fns, cls.admitted):
                failures.append(f"P re-check failed: {[f.table for f in fns]}")
            continue
        hard += 1
        expr = express_neq(fns)
        if not verify_neq_expression(expr, fns):
            failures.append(f"synthesis failed: {[f.table for f in fns]}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    _report(8, ok, f"500 NP-hard sets synthesized exactly, {p_checked} tractable "
                   f"sets re-verified, in {elapsed:.1f}s (< 300s); failures: {failures[:3]}")


def test_criterion_9_fneq_baseline():
    cls = classify_vcsp([f_neq()])
    witnesses_ok = False
    if cls.result == "NP-hard":
        _, zx = cls.witnesses["zero"]
        _, ox = cls.witnesses["one"]
        _, ms, mt = cls.witnesses["minmax"]
        fn = f_neq()
        witnesses_ok = (fn(0) > fn(zx) and fn(3) > fn(ox)
                        and fn(ms & mt) + fn(ms | mt) > fn(ms) + fn(mt)
                        and {ms, mt} == {1, 2})
    tri = Instance(KIND_MAXCUT, 3,
                   tuple(Constraint("edge", e) for e in ((0, 1), (0, 2), (1, 2))))
    tgt, _ = apply("maxcut_to_vcsp_neq", tri, RESOLVER)
    minimum = solve(tgt, RESOLVER).optimum
    cut = solve(tri, RESOLVER).optimum
    ok = cls.result == "NP-hard" and witnesses_ok and minimum == 1 and cut == 2
    _report(9, ok, f"f_neq classified NP-hard with valid witnesses; "
                   f"unit triangle: minimum {minimum}, max cut {cut}")


def test_criterion_10_determinism():
    out1, out8 = io.StringIO(), io.StringIO()
    code1 = run_selftest(trials=12, seed=0, jobs=1, out=out1)
    code8 = run_selftest(trials=12, seed=0, jobs=8, out=out8)
    identical = out1.getvalue() == out8.getvalue()
    ok = identical and code1 == 0 and code8 == 0
    _report(10, ok, f"selftest reports byte-identical across --jobs 1/8 "
                    f"({len(out1.getvalue())} bytes), both passing")
