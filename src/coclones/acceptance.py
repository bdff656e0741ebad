"""The acceptance criteria: the repository's check of the paper's claims.

Criteria 1-9 are defined here once.  Each is a function
``(trials, seed) -> Check`` and `CRITERIA` lists them in order.
`coclones selftest` renders them as its report, and the acceptance gate
(tests/test_acceptance.py) runs each one on its own data and time budget.
Criterion 10, that the report does not depend on what earlier runs left in
the caches, is a property of the runner and is checked by the gate alone.

`trials` is the corpus size of criteria 6 and 7 and the number of NP-hard
sets of criterion 8; `seed` seeds those three.  The other criteria check
fixed catalogs and ignore them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .definitions import (
    ARGMAX_IDENTITIES,
    EXTENSION_FORMULAS,
    constant_extension_implications,
    eval_formula,
    eval_wpp,
)
from .fileio import emit_rel, parse_rel
from .instances import (
    Constraint,
    CostFunction,
    Instance,
    KIND_MAXCUT,
    default_resolver,
    f_neq,
)
from .oracle import solve
from .postlattice import CoCloneId, co_clone_leq, co_clone_of
from .reductions import ACCEPTANCE_ENTRIES, QWPP_FAMILY, apply, certify
from .relations import ConstraintLanguage, EmptyRelationError, Relation, classify_max_ones
from .valued import classify_vcsp, express_neq, verify_neq_expression
from .weakbases import all_entries, weak_base

II2_MATRIX = {"00111001", "01010101", "10001101"}
IN2_MATRIX = {"00001111", "00111100", "01011010", "11110000", "11000011", "10100101"}

_IS21 = CoCloneId("S1", 2)
_HARD_COCLONES = {CoCloneId("L0"), CoCloneId("L3"), CoCloneId("L2"), CoCloneId("N2")}


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str  # what failed; empty when ok


def max_ones_hard_by_position(coclone: CoCloneId) -> bool:
    """Max-Ones is NP-hard iff the co-clone lies above IS^2_1 or is IL0/IL3/IL2/IN2."""
    return co_clone_leq(_IS21, coclone) or coclone in _HARD_COCLONES


def random_cost_set(rng: random.Random, max_arity: int, max_value: int) -> list[CostFunction]:
    """One or two cost functions of random arity with integer costs in 0..max_value."""
    fns = []
    for i in range(rng.randint(1, 2)):
        k = rng.randint(1, max_arity)
        fns.append(CostFunction(k, tuple(Fraction(rng.randint(0, max_value))
                                         for _ in range(1 << k)), f"f{i}"))
    return fns


def _recheck_admitted(delta, admitted: str) -> bool:
    """Re-check that every function in delta admits the named multimorphism.

    Independent of `classify_vcsp`, it scans argument masks in descending
    order.
    """
    for fn in delta:
        size = 1 << fn.arity
        full = size - 1
        if admitted == "(0)":
            for x in range(full, -1, -1):
                if fn(0) > fn(x):
                    return False
        elif admitted == "(1)":
            for x in range(full, -1, -1):
                if fn(full) > fn(x):
                    return False
        else:
            for x in range(full, -1, -1):
                for y in range(full, -1, -1):
                    if fn(x & y) + fn(x | y) > fn(x) + fn(y):
                        return False
    return True


def weak_base_goldens(trials: int, seed: int) -> Check:
    """1. The R_II2 and R_IN2 weak bases are the paper's 3x8 and 6x8 matrices."""
    bad = []
    for name, matrix in (("I2", II2_MATRIX), ("N2", IN2_MATRIX)):
        rel = weak_base(CoCloneId(name))
        if not (rel.arity == 8 and len(rel.tuples) == len(matrix)
                and set(rel.row_strings()) == matrix
                and parse_rel(emit_rel([rel])) == [rel]):
            bad.append(f"I{name}")
    return Check("weak-base matrices", not bad, ",".join(bad))


def coclone_identification(trials: int, seed: int) -> Check:
    """2. `co_clone_of` identifies every catalog row, chains at indices 2-5."""
    rows = all_entries((2, 3, 4, 5))
    bad = []
    for entry in rows:
        got = co_clone_of(ConstraintLanguage([entry.relation]))
        if got != entry.coclone:
            bad.append(f"{entry.coclone.display()} as {got.display()}")
    return Check(f"co-clone identification ({len(rows)} rows)", not bad, ",".join(bad))


def dichotomy_cross_validation(trials: int, seed: int) -> Check:
    """3. Over all 255 nonempty ternary relations, the closure classifier agrees
    with the co-clone position; the empty relation is rejected by both."""
    bad = []
    empty = ConstraintLanguage([Relation.from_masks(3, [], name="R", allow_empty=True)])
    for decide in (classify_max_ones, co_clone_of):
        try:
            decide(empty)
        except EmptyRelationError:
            continue
        bad.append(f"{decide.__name__} accepts the empty relation")
    disagreements = []
    for mask_set in range(1, 256):
        rel = Relation.from_masks(3, [t for t in range(8) if (mask_set >> t) & 1], name="R")
        lang = ConstraintLanguage([rel])
        by_closure = classify_max_ones(lang).result == "NP-hard"
        if max_ones_hard_by_position(co_clone_of(lang)) != by_closure:
            disagreements.append(mask_set)
    if disagreements:
        bad.append(f"{len(disagreements)} disagreements: {disagreements}")
    return Check("dichotomy census (255 languages)", not bad, "; ".join(bad))


def qpp_gadget_suite(trials: int, seed: int) -> Check:
    """4. Every constant-extension formula passes its implication checks."""
    resolver = default_resolver()
    bad = []
    for ext in EXTENSION_FORMULAS:
        rel = resolver.relation(ext.source)
        i1, i2, i2top = constant_extension_implications(rel, eval_formula(ext.formula, resolver))
        # the ten-variable R_II2 formula: implication 2 holds once y1 is forced
        if not (i1 and (i2top if ext.source == "R_II2" else i2)):
            bad.append(f"{ext.source} via {ext.target}")
    return Check("constant-extension formulas", not bad, ",".join(bad))


def argmax_identity_suite(trials: int, seed: int) -> Check:
    """5. The six argmax identities reproduce R_II2 (four times) and R_IL2 (twice)."""
    resolver = default_resolver()
    bad = [f"{ident.target} over {ident.base}" for ident in ARGMAX_IDENTITIES
           if eval_wpp(ident.gadget(), resolver).tuples != resolver.relation(ident.target).tuples]
    targets = [ident.target for ident in ARGMAX_IDENTITIES]
    if targets.count("R_II2") != 4 or targets.count("R_IL2") != 2:
        bad.append(f"targets {'/'.join(targets)}")
    return Check("argmax identities", not bad, ",".join(bad))


def _certify_all(names, trials: int, seed: int) -> tuple[int, list[str]]:
    cases = 0
    bad = []
    for name in names:
        report = certify(name, trials=trials, seed=seed)
        cases += report.cases
        if not report.ok:
            bad.append(name)
    return cases, bad


def reduction_certification(trials: int, seed: int) -> Check:
    """6. Every acceptance registry entry agrees with the oracle on its corpus."""
    cases, bad = _certify_all(ACCEPTANCE_ENTRIES, trials, seed)
    return Check(f"reduction certification ({cases} cases)", not bad, ",".join(bad))


def wpp_composition_gate(trials: int, seed: int) -> Check:
    """7. The big-M argmax-gadget replacements agree with the oracle."""
    cases, bad = _certify_all(QWPP_FAMILY, trials, seed)
    return Check(f"weighted composition gate ({cases} cases)", not bad, ",".join(bad))


def synthesis(trials: int, seed: int) -> Check:
    """8. f_neq is synthesized exactly from `trials` random NP-hard cost sets;
    every tractable set drawn on the way admits the multimorphism named."""
    rng = random.Random(seed ^ 0x5EED)
    bad = []
    hard = 0
    while hard < trials:
        delta = random_cost_set(rng, 3, 4)
        cls = classify_vcsp(delta)
        if cls.is_polynomial:
            if not _recheck_admitted(delta, cls.admitted):
                bad.append(f"admitted {cls.admitted} fails re-check on {[f.table for f in delta]}")
            continue
        hard += 1
        if not verify_neq_expression(express_neq(delta), delta):
            bad.append(f"synthesis verification failed on {[f.table for f in delta]}")
    return Check(f"f_neq synthesis ({trials} sets)", not bad, "; ".join(bad[:3]))


def fneq_baseline(trials: int, seed: int) -> Check:
    """9. f_neq is NP-hard with valid witnesses; on the unit triangle its VCSP
    minimum is 1 and the max cut is 2."""
    fn = f_neq()
    cls = classify_vcsp([fn])
    bad = []
    if cls.result != "NP-hard":
        bad.append("f_neq classified tractable")
    else:
        _, zx = cls.witnesses["zero"]
        _, ox = cls.witnesses["one"]
        _, ms, mt = cls.witnesses["minmax"]
        if not (fn(0) > fn(zx) and fn(3) > fn(ox)
                and fn(ms & mt) + fn(ms | mt) > fn(ms) + fn(mt) and {ms, mt} == {1, 2}):
            bad.append(f"witnesses (0) x={zx}, (1) x={ox}, (min,max) s={ms}, t={mt}")
    resolver = default_resolver()
    tri = Instance(KIND_MAXCUT, 3,
                   tuple(Constraint("edge", e) for e in ((0, 1), (0, 2), (1, 2))))
    vcsp_tri, _ = apply("maxcut_to_vcsp_neq", tri, resolver)
    minimum = solve(vcsp_tri, resolver).optimum
    cut = solve(tri, resolver).optimum
    if (minimum, cut) != (1, 2):
        bad.append(f"unit triangle: minimum {minimum}, max cut {cut}")
    return Check("f_neq baseline", not bad, "; ".join(bad))


CRITERIA = (
    weak_base_goldens,
    coclone_identification,
    dichotomy_cross_validation,
    qpp_gadget_suite,
    argmax_identity_suite,
    reduction_certification,
    wpp_composition_gate,
    synthesis,
    fneq_baseline,
)
