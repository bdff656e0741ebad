"""Command-line entry point tying all modules together for batch use and CI.

Exit codes: 0 = success / positive answer, 1 = negative result,
2 = usage or format error.  Reports are human-readable on stdout;
machine-readable artifacts are written only via -o.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

# Only the modules that never vectorise are imported here, so that the
# commands built on them start without numpy.  The handlers that solve,
# search or certify import the solver stack themselves.
from .fileio import emit_inst, emit_rel, parse_cost, parse_inst, parse_rel
from .instances import (
    GadgetError,
    InstanceError,
    KIND_WMO,
    OracleError,
    ReductionError,
    Resolver,
    default_resolver,
)
from .postlattice import (
    CatalogError,
    co_clone_of,
    parse_coclone_name,
)
from .relations import (
    ConstraintLanguage,
    EmptyRelationError,
    Relation,
    RelationError,
    classify_max_ones,
    classify_sat,
    mask_to_string,
    numeral,
)
from .valued import (
    classify_vcsp,
    express_neq,
    verify_neq_expression,
)
from .weakbases import weak_base

USAGE_ERROR = 2


class CliError(Exception):
    pass


def _read(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise CliError(f"file not found: {path}")
    return p.read_text()


def _on_file(path: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with path before a format, resolution, admission
    or oracle cap error in that file."""
    try:
        return fn(*args, **kwargs)
    except (RelationError, InstanceError, ReductionError, OracleError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _parse_file(path: str, parser):
    """Parse a file, prefixing any format error with the file name."""
    return _on_file(path, parser, _read(path))


def _relations(path: str) -> list[Relation]:
    rels = _parse_file(path, parse_rel)
    if not rels:
        raise CliError(f"{path}: no relations found")
    return rels


def _costs(path: str) -> list:
    fns = _parse_file(path, parse_cost)
    if not fns:
        raise CliError(f"{path}: no cost functions found")
    return fns


def _load_language(path: str) -> ConstraintLanguage:
    return ConstraintLanguage(_relations(path))


def _resolver_with_defs(defs: Sequence[str]) -> Resolver:
    resolver = default_resolver()
    for path in defs or ():
        if path.endswith(".cost"):
            for fn in _parse_file(path, parse_cost):
                _on_file(path, resolver.register_costfn, fn)
        else:
            for rel in _parse_file(path, parse_rel):
                _on_file(path, resolver.register_relation, rel)
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
    from .definitions import UnsatisfiableGadgetError, eval_wpp

    inst = _parse_file(args.gadget, parse_inst)
    if inst.kind != KIND_WMO:
        raise CliError(f"{args.gadget}: gadget files must be W-Max-Ones instances")
    resolver = _resolver_with_defs(args.defs)
    try:
        rel = eval_wpp(inst, resolver)
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
    from .definitions import search_definition

    target = _relations(args.target)[0]
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
    from .reductions import Decision, apply, record

    rec = record(args.name)
    inst = _parse_file(args.instance, parse_inst)
    resolver = _resolver_with_defs(args.defs)
    tgt, info = _on_file(args.instance, apply, args.name, inst, resolver)
    print(f"{args.name}: {rec.source_kind} -> {rec.target_kind} "
          f"[{rec.kind_tag}, C={rec.lv_constant}]")
    print(f"variables: {inst.num_vars} -> {tgt.num_vars} (declared {rec.size.text()})")
    if isinstance(rec.measure, Decision):
        print(f"measure: source satisfiable iff target optimum "
              f"{info.threshold.direction} {info.threshold.value}")
    elif info.sign > 0:
        print(f"measure: target optimum = source optimum + {info.value_offset}")
    else:
        print(f"measure: target optimum = {info.value_offset} - source optimum")
    if rec.note is not None:
        print(f"note: {rec.note(inst, resolver)}")
    if inst.threshold is not None and not isinstance(rec.measure, Decision):
        print(f"target threshold: {info.threshold.direction} {info.threshold.value}")
    if args.output:
        Path(args.output).write_text(emit_inst(tgt))
        print(f"wrote target instance to {args.output}")
    return 0


def _cmd_certify(args) -> int:
    from .reductions import ACCEPTANCE_ENTRIES, QPP_FAMILY, QWPP_FAMILY, certify

    names = [args.name]
    if args.name == "umo_qpp_family":
        names = sorted(QPP_FAMILY)
    elif args.name == "wmo_qwpp_family":
        names = list(QWPP_FAMILY)
    elif args.name == "all":
        names = list(ACCEPTANCE_ENTRIES)
    ok = True
    for name in names:
        report = certify(name, trials=args.trials, seed=args.seed)
        print(report.render())
        ok = ok and report.ok
    return 0 if ok else 1


def _cmd_solve(args) -> int:
    from .oracle import meets_threshold, solve

    inst = _parse_file(args.instance, parse_inst)
    res = _on_file(args.instance, solve, inst, _resolver_with_defs(args.defs),
                   want_all=args.all, jobs=args.jobs)
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
    cls = classify_vcsp(_costs(args.costs))
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
    fns = _costs(args.costs)
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


def run_selftest(trials: int = 40, seed: int = 0, out=sys.stdout) -> int:
    """Run the acceptance criteria and print one line per criterion."""
    from . import acceptance

    checks = [criterion(trials, seed) for criterion in acceptance.CRITERIA]
    print(f"self-test report (seed={seed}, trials={trials})", file=out)
    for check in checks:
        dots = "." * max(1, 44 - len(check.label))
        suffix = "" if check.ok or not check.detail else f"  [{check.detail}]"
        print(f"  {check.label} {dots} {'ok' if check.ok else 'FAIL'}{suffix}", file=out)
    overall = all(check.ok for check in checks)
    print(f"result: {'PASS' if overall else 'FAIL'}", file=out)
    return 0 if overall else 1


def _cmd_selftest(args) -> int:
    return run_selftest(trials=args.trials, seed=args.seed)


# ---------------------------------------------------------------------------


def _int(text: str) -> int:
    """An integer argument, read by the numeral rule of every file token."""
    try:
        return numeral(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing reads the parser and never changes it
    # (append copies the --defs default before adding to it)
    p = argparse.ArgumentParser(prog="coclones", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, defs=False, output=False):
        if defs:
            sp.add_argument("--defs", action="append", default=[],
                            help="extra .rel/.cost definition files")
        if output:
            sp.add_argument("-o", "--output", help="write machine-readable output here")

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
    sp.add_argument("n", nargs="?", type=_int, default=None)
    common(sp, output=True)
    sp.set_defaults(fn=_cmd_weakbase)

    sp = sub.add_parser("wpp-eval", help="optimal-set projection of a gadget")
    sp.add_argument("gadget")
    common(sp, defs=True, output=True)
    sp.set_defaults(fn=_cmd_wpp_eval)

    sp = sub.add_parser("ppsearch", help="bounded conjunctive-definition search")
    sp.add_argument("target")
    sp.add_argument("language")
    sp.add_argument("--aux", type=_int, default=2)
    sp.add_argument("--atoms", type=_int, default=3)
    sp.add_argument("--with-eq", action="store_true",
                    help="add equality atoms to the search universe")
    sp.set_defaults(fn=_cmd_ppsearch)

    sp = sub.add_parser("reduce", help="apply a registry reduction")
    sp.add_argument("name", help="a registry entry")
    sp.add_argument("instance")
    common(sp, defs=True, output=True)
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("certify", help="oracle-certify a reduction")
    sp.add_argument("name")
    sp.add_argument("--trials", type=_positive_int, default=200)
    sp.add_argument("--seed", type=_int, default=0)
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("solve", help="exact oracle solve")
    sp.add_argument("instance")
    sp.add_argument("--all", action="store_true")
    # threads over the 2^20-assignment chunks: only an instance of more than
    # 20 variables has more than one
    sp.add_argument("--jobs", type=_positive_int, default=1)
    common(sp, defs=True)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("vcsp-classify", help="valued tractability test")
    sp.add_argument("costs")
    sp.set_defaults(fn=_cmd_vcsp_classify)

    sp = sub.add_parser("express-neq", help="synthesize f_neq from a hard set")
    sp.add_argument("costs")
    common(sp, output=True)
    sp.set_defaults(fn=_cmd_express_neq)

    sp = sub.add_parser("selftest", help="run the golden/certify suite")
    sp.add_argument("--trials", type=_positive_int, default=40)
    sp.add_argument("--seed", type=_int, default=0)
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
