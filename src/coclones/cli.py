"""Command-line entry point tying all modules together for batch use and CI.

Exit codes: 0 = success / positive answer, 1 = negative result,
2 = usage or format error.  Reports are human-readable on stdout;
machine-readable artifacts are written only via -o.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .definitions import (
    ARGMAX_IDENTITIES,
    EXTENSION_FORMULAS,
    GadgetError,
    WppGadget,
    constant_extension_implications,
    eval_formula,
    eval_wpp,
    search_definition,
    UnsatisfiableGadgetError,
)
from .fileio import emit_inst, emit_rel, parse_cost, parse_inst, parse_rel
from .instances import (
    Constraint,
    Instance,
    InstanceError,
    KIND_MAXCUT,
    KIND_WMO,
    Resolver,
    default_resolver,
)
from .oracle import OracleError, meets_threshold, solve
from .postlattice import (
    CatalogError,
    co_clone_leq,
    co_clone_of,
    parse_coclone_name,
)
from .reductions import (
    ACCEPTANCE_ENTRIES,
    QWPP_FAMILY,
    REGISTRY,
    ReductionError,
    apply as apply_reduction,
    certify,
    registry_names,
)
from .relations import (
    ConstraintLanguage,
    EmptyRelationError,
    RelationError,
    classify_max_ones,
    classify_sat,
    mask_to_string,
)
from .valued import (
    CostFunction,
    classify_vcsp,
    express_neq,
    f_neq,
    verify_neq_expression,
)
from .weakbases import all_entries, weak_base

USAGE_ERROR = 2


class CliError(Exception):
    pass


def _read(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise CliError(f"file not found: {path}")
    return p.read_text()


def _parse_file(path: str, parser):
    """Parse a file, prefixing any format error with the file name."""
    try:
        return parser(_read(path))
    except (RelationError, InstanceError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_language(path: str) -> ConstraintLanguage:
    rels = _parse_file(path, parse_rel)
    if not rels:
        raise CliError(f"{path}: no relations found")
    return ConstraintLanguage(rels)


def _resolver_with_defs(defs: Sequence[str]) -> Resolver:
    resolver = default_resolver()
    for path in defs or ():
        if path.endswith(".cost"):
            for fn in _parse_file(path, parse_cost):
                resolver.register_costfn(fn)
        else:
            for rel in _parse_file(path, parse_rel):
                resolver.register_relation(rel)
    return resolver


def _print_classification(label: str, cls) -> int:
    if cls.is_polynomial:
        print(f"{label}: P (closed under {cls.closed_under})")
        return 0
    print(f"{label}: NP-hard")
    for w in cls.witnesses:
        seq = ", ".join("(" + ",".join(map(str, t)) + ")" for t in w.sequence)
        img = "(" + ",".join(map(str, w.image)) + ")"
        print(f"  closure {w.operation} fails on {w.relation}: {seq} -> {img}")
    return 1


def _cmd_classify_sat(args) -> int:
    return _print_classification("SAT", classify_sat(_load_language(args.language)))


def _cmd_classify_maxones(args) -> int:
    return _print_classification("Max-Ones", classify_max_ones(_load_language(args.language)))


def _cmd_coclone(args) -> int:
    print(co_clone_of(_load_language(args.language)).display())
    return 0


def _cmd_weakbase(args) -> int:
    coclone = parse_coclone_name(args.name, args.n)
    if coclone.is_chain and coclone.index is None:
        raise CliError(f"{args.name} needs a chain index")
    rel = weak_base(coclone)
    text = emit_rel([rel])
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {rel.name} ({rel.arity}-ary, {len(rel.tuples)} tuples) to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_wpp_eval(args) -> int:
    inst = _parse_file(args.gadget, parse_inst)
    if inst.kind != KIND_WMO:
        raise CliError("gadget files must be W-Max-Ones instances")
    projection = inst.projection or tuple(range(inst.num_vars))
    gadget = WppGadget(inst, projection)
    resolver = _resolver_with_defs(args.defs)
    try:
        rel = eval_wpp(gadget, resolver)
    except UnsatisfiableGadgetError:
        print("unsatisfiable gadget")
        return 1
    named = rel.renamed("wpp_result")
    text = emit_rel([named])
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {len(rel.tuples)} tuples to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_ppsearch(args) -> int:
    target = _parse_file(args.target, parse_rel)[0]
    language = _load_language(args.language)
    result = search_definition(target, language, max_aux=args.aux,
                               max_atoms=args.atoms, include_eq=args.with_eq)
    if result.formula is not None:
        print(result.formula.text())
        return 0
    print("none (exhausted within bounds)" if result.exhausted
          else "none (budget exhausted)")
    return 1


def _cmd_reduce(args) -> int:
    inst = _parse_file(args.instance, parse_inst)
    resolver = _resolver_with_defs(args.defs)
    tgt, info = apply_reduction(args.name, inst, resolver)
    rec = REGISTRY[args.name]
    print(f"{args.name}: {rec.source_kind} -> {rec.target_kind} "
          f"[{rec.kind_tag}, C={rec.lv_parameter}]")
    print(f"variables: {inst.num_vars} -> {tgt.num_vars} (declared {rec.bound_text})")
    for note in info.notes:
        print(f"note: {note}")
    if info.threshold is not None:
        print(f"target threshold: {info.threshold.direction} {info.threshold.value}")
    if args.output:
        Path(args.output).write_text(emit_inst(tgt))
        print(f"wrote target instance to {args.output}")
    return 0


def _cmd_certify(args) -> int:
    names = [args.name]
    if args.name == "umo_qpp_family":
        names = [n for n in registry_names() if n.startswith("umo_qpp_")]
    elif args.name == "wmo_qwpp_family":
        names = list(QWPP_FAMILY)
    elif args.name == "all":
        names = list(ACCEPTANCE_ENTRIES)
    ok = True
    for name in names:
        report = certify(name, trials=args.trials, seed=args.seed, jobs=args.jobs)
        print(report.render())
        ok = ok and report.ok
    return 0 if ok else 1


def _cmd_solve(args) -> int:
    inst = _parse_file(args.instance, parse_inst)
    resolver = _resolver_with_defs(args.defs)
    res = solve(inst, resolver, want_all=args.all, jobs=args.jobs)
    print(f"kind: {inst.kind}")
    if not res.satisfiable:
        print("satisfiable: no")
        return 1
    print("satisfiable: yes")
    if res.optimum is not None:
        print(f"optimum: {res.optimum}")
    print(f"witness: {mask_to_string(res.witness, inst.num_vars)}")
    if args.all and res.optimal_set is not None:
        print(f"optimal set ({len(res.optimal_set)} assignments):")
        for m in res.optimal_set:
            print(f"  {mask_to_string(m, inst.num_vars)}")
    if inst.threshold is not None:
        outcome = meets_threshold(res, inst.threshold)
        print(f"threshold {inst.threshold.direction} {inst.threshold.value}: "
              + ("met" if outcome else "not met"))
        return 0 if outcome else 1
    return 0


def _cmd_vcsp_classify(args) -> int:
    fns = _parse_file(args.costs, parse_cost)
    if not fns:
        raise CliError(f"{args.costs}: no cost functions found")
    cls = classify_vcsp(fns)
    if cls.is_polynomial:
        print(f"VCSP: P (admits the {cls.admitted} multimorphism)")
        return 0
    print("VCSP: NP-hard")
    zf, zx = cls.witnesses["zero"]
    of_, ox = cls.witnesses["one"]
    mf, ms, mt = cls.witnesses["minmax"]
    print(f"  (0) fails on {zf} at x={zx}")
    print(f"  (1) fails on {of_} at x={ox}")
    print(f"  (min,max) fails on {mf} at s={ms}, t={mt}")
    return 1


def _cmd_express_neq(args) -> int:
    fns = _parse_file(args.costs, parse_cost)
    if not fns:
        raise CliError(f"{args.costs}: no cost functions found")
    cls = classify_vcsp(fns)
    if cls.is_polynomial:
        print(f"VCSP is tractable (admits {cls.admitted}); nothing to express")
        return 1
    expr = express_neq(fns)
    print("synthesis trace:")
    for line in expr.trace:
        print(f"  {line}")
    print(f"f_neq(x,y) = {expr.alpha1} * (sum of {len(expr.terms)} terms) + {expr.alpha2}")
    for t in expr.terms:
        fn = expr.fns[t.fn_index]
        print(f"  term {t.weight} * {fn.name or t.fn_index}({', '.join(t.slots)})")
    label = "vestigial " if expr.vestigial_forcing else ""
    for t in expr.forcing:
        fn = expr.fns[t.fn_index]
        print(f"  {label}forcing {t.weight} * {fn.name or t.fn_index}({', '.join(t.slots)})")
    verified = verify_neq_expression(expr, fns)
    print(f"verification: {'exact' if verified else 'FAILED'}")
    if args.output:
        payload = {
            "alpha1": str(expr.alpha1),
            "alpha2": str(expr.alpha2),
            "vestigial_forcing": expr.vestigial_forcing,
            "terms": [[str(t.weight), expr.fns[t.fn_index].name or t.fn_index,
                       list(t.slots)] for t in expr.terms],
            "forcing": [[str(t.weight), expr.fns[t.fn_index].name or t.fn_index,
                         list(t.slots)] for t in expr.forcing],
        }
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote machine-checkable form to {args.output}")
    return 0 if verified else 1


# ---------------------------------------------------------------------------
# Self-test


def _selftest_synthesis(trials: int, seed: int):
    rng = random.Random(seed ^ 0x5EED)
    hard = 0
    while hard < trials:
        nf = rng.randint(1, 2)
        delta = []
        for i in range(nf):
            k = rng.randint(1, 3)
            delta.append(CostFunction(
                k, tuple(Fraction(rng.randint(0, 4)) for _ in range(1 << k)), f"f{i}"))
        cls = classify_vcsp(delta)
        if cls.is_polynomial:
            if not _recheck_admitted(delta, cls.admitted):
                return False, f"admitted {cls.admitted} fails re-check"
            continue
        hard += 1
        expr = express_neq(delta)
        if not verify_neq_expression(expr, delta):
            return False, f"synthesis verification failed on {[f.table for f in delta]}"
    return True, f"{trials} NP-hard sets synthesized"


def _recheck_admitted(delta, admitted: str) -> bool:
    """Re-check that every function in delta admits the named multimorphism.

    Independent of `classify_vcsp`, it scans argument masks in descending
    order.  Self-test criterion 8 and the acceptance test share this copy.
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


def run_selftest(trials: int = 40, seed: int = 0, jobs: int = 1,
                 out=sys.stdout) -> int:
    from .postlattice import CoCloneId as CC
    from .relations import Relation as Rel, ConstraintLanguage as CL

    checks: list[tuple[str, bool, str]] = []

    def add(label: str, ok: bool, detail: str = "") -> None:
        checks.append((label, ok, detail))

    # 1. weak-base matrices
    ii2 = weak_base(CC("I2"))
    in2 = weak_base(CC("N2"))
    add("weak-base matrices",
        set(ii2.row_strings()) == {"00111001", "01010101", "10001101"}
        and set(in2.row_strings()) == {"00001111", "00111100", "01011010",
                                       "11110000", "11000011", "10100101"})

    # 2. co-clone identification over every catalog row
    rows = all_entries((2, 3, 4, 5))
    bad = [e.coclone.display() for e in rows
           if co_clone_of(ConstraintLanguage([e.relation])) != e.coclone]
    add(f"co-clone identification ({len(rows)} rows)", not bad, ",".join(bad))

    # 3. dichotomy census over the ternary relations
    is21 = CC("S1", 2)
    hard_set = {CC("L0"), CC("L3"), CC("L2"), CC("N2")}
    mismatches = 0
    for mask_set in range(1, 256):
        rel = Rel.from_masks(3, [t for t in range(8) if (mask_set >> t) & 1], name="R")
        lang = CL([rel])
        pos = co_clone_leq(is21, co_clone_of(lang)) or co_clone_of(lang) in hard_set
        if pos != (classify_max_ones(lang).result == "NP-hard"):
            mismatches += 1
    add("dichotomy census (255 languages)", mismatches == 0, f"{mismatches} disagreements")

    # 4. constant-extension formulas
    resolver = default_resolver()
    ok4 = True
    detail4 = ""
    for ext in EXTENSION_FORMULAS:
        rel = resolver.relation(ext.source)
        rp = eval_formula(ext.formula, resolver)
        i1, i2, i2top = constant_extension_implications(rel, rp)
        needed = i1 and (i2top if ext.source == "R_II2" else i2)
        if not needed:
            ok4 = False
            detail4 = f"{ext.source} via {ext.target}"
    add("constant-extension formulas", ok4, detail4)

    # 5. argmax identities
    ok5 = True
    detail5 = ""
    for ident in ARGMAX_IDENTITIES:
        got = eval_wpp(ident.gadget(), resolver)
        if got.tuples != resolver.relation(ident.target).tuples:
            ok5, detail5 = False, f"{ident.target} over {ident.base}"
    add("argmax identities", ok5, detail5)

    # 6. reduction certification
    cases = 0
    fail6 = []
    for name in ACCEPTANCE_ENTRIES:
        rep = certify(name, trials=trials, seed=seed, jobs=jobs)
        cases += rep.cases
        if not rep.ok:
            fail6.append(name)
    add(f"reduction certification ({cases} cases)", not fail6, ",".join(fail6))

    # 7. weighted composition gate
    cases7 = 0
    fail7 = []
    for name in QWPP_FAMILY:
        rep = certify(name, trials=trials, seed=seed, jobs=jobs)
        cases7 += rep.cases
        if not rep.ok:
            fail7.append(name)
    add(f"weighted composition gate ({cases7} cases)", not fail7, ",".join(fail7))

    # 8. synthesis of f_neq
    ok8, detail8 = _selftest_synthesis(trials, seed)
    add(f"f_neq synthesis ({trials} sets)", ok8, detail8 if not ok8 else "")

    # 9. baseline
    base = classify_vcsp([f_neq()])
    tri = Instance(KIND_MAXCUT, 3,
                   tuple(Constraint("edge", e) for e in ((0, 1), (0, 2), (1, 2))))
    vcsp_tri, _ = apply_reduction("maxcut_to_vcsp_neq", tri, resolver)
    add("f_neq baseline", base.result == "NP-hard"
        and solve(vcsp_tri, resolver, jobs=jobs).optimum == 1)

    print(f"self-test report (seed={seed}, trials={trials})", file=out)
    for label, ok, detail in checks:
        dots = "." * max(1, 44 - len(label))
        suffix = "" if ok or not detail else f"  [{detail}]"
        print(f"  {label} {dots} {'ok' if ok else 'FAIL'}{suffix}", file=out)
    overall = all(ok for _, ok, _ in checks)
    print(f"result: {'PASS' if overall else 'FAIL'}", file=out)
    return 0 if overall else 1


def _cmd_selftest(args) -> int:
    return run_selftest(trials=args.trials, seed=args.seed, jobs=args.jobs)


# ---------------------------------------------------------------------------


def _job_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coclones", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, defs=False, output=False, jobs=False):
        if defs:
            sp.add_argument("--defs", action="append", default=[],
                            help="extra .rel/.cost definition files")
        if output:
            sp.add_argument("-o", "--output", help="write machine-readable output here")
        if jobs:
            sp.add_argument("--jobs", type=_job_count, default=1)

    sp = sub.add_parser("classify-sat", help="satisfiability dichotomy test")
    sp.add_argument("language")
    sp.set_defaults(fn=_cmd_classify_sat)

    sp = sub.add_parser("classify-maxones", help="Max-Ones dichotomy test")
    sp.add_argument("language")
    sp.set_defaults(fn=_cmd_classify_maxones)

    sp = sub.add_parser("coclone", help="identify the co-clone of a language")
    sp.add_argument("language")
    sp.set_defaults(fn=_cmd_coclone)

    sp = sub.add_parser("weakbase", help="emit a weak-base relation")
    sp.add_argument("name")
    sp.add_argument("n", nargs="?", type=int, default=None)
    common(sp, output=True)
    sp.set_defaults(fn=_cmd_weakbase)

    sp = sub.add_parser("wpp-eval", help="optimal-set projection of a gadget")
    sp.add_argument("gadget")
    common(sp, defs=True, output=True)
    sp.set_defaults(fn=_cmd_wpp_eval)

    sp = sub.add_parser("ppsearch", help="bounded conjunctive-definition search")
    sp.add_argument("target")
    sp.add_argument("language")
    sp.add_argument("--aux", type=int, default=2)
    sp.add_argument("--atoms", type=int, default=3)
    sp.add_argument("--with-eq", action="store_true",
                    help="add equality atoms to the search universe")
    sp.set_defaults(fn=_cmd_ppsearch)

    sp = sub.add_parser("reduce", help="apply a registry reduction")
    sp.add_argument("name", choices=registry_names())
    sp.add_argument("instance")
    common(sp, defs=True, output=True)
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("certify", help="oracle-certify a reduction")
    sp.add_argument("name")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, jobs=True)
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("solve", help="exact oracle solve")
    sp.add_argument("instance")
    sp.add_argument("--all", action="store_true")
    common(sp, defs=True, jobs=True)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("vcsp-classify", help="valued tractability test")
    sp.add_argument("costs")
    sp.set_defaults(fn=_cmd_vcsp_classify)

    sp = sub.add_parser("express-neq", help="synthesize f_neq from a hard set")
    sp.add_argument("costs")
    common(sp, output=True)
    sp.set_defaults(fn=_cmd_express_neq)

    sp = sub.add_parser("selftest", help="run the golden/certify suite")
    sp.add_argument("--trials", type=int, default=40)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, jobs=True)
    sp.set_defaults(fn=_cmd_selftest)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliError, RelationError, InstanceError, OracleError, ReductionError,
            EmptyRelationError, CatalogError, GadgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
