"""The seeded workloads: their inputs, their ops and the checks on each op.

A workload is a sequence of blocks.  Block k is generated from the string
"<workload>:<seed>:<k>" alone, so one seed always gives one corpus however
many blocks a run gets through.  Every block has the same composition (the
same number of ops of each size class), so runs with different seeds do the
same amount of work and their medians can be compared.

Library calls go through module attributes (`reductions.certify`, not a name
imported from it) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from coclones import cli, definitions, fileio, postlattice, reductions, relations, valued
from coclones.instances import Constraint, Instance, default_resolver
from coclones.weakbases import all_entries


class HarnessError(RuntimeError):
    """The benchmark itself cannot go on (not a failure of the program)."""


@dataclass
class Op:
    label: str  # what was run, with entry and seed, to replay it
    run: Callable[[], object]  # the timed call into the library
    verify: Callable[[object], tuple[str, list[str]]]  # -> (rendered output, problems)
    detail: str = ""  # the input text, recorded with a failure


def _block_rng(name: str, seed: int, k) -> random.Random:
    return random.Random(f"{name}:{seed}:{k}")


class Workload:
    name = ""
    BLOCK_SECONDS: float  # op time of one block; sets how many blocks a run makes

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def block(self, k: int) -> list[Op]:
        ops = self._ops(_block_rng(self.name, self.seed, k), f"b{k}")
        # One order for every seed: the largest solves then sit at the same
        # places in every run, so the heap's history, and with it peak RSS,
        # follows the inputs rather than where the shuffle put them.
        random.Random(f"{self.name}:order:{k}").shuffle(ops)
        return ops

    def golden(self) -> list[Op]:
        """A small corpus that does not depend on the seed (see golden.json)."""
        rng = _block_rng(self.name, "golden", 0)
        ops = self._ops(rng, "golden", golden=True)
        rng.shuffle(ops)
        return ops

    def _ops(self, rng: random.Random, tag: str, golden: bool = False) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# certify

HARD_ENTRIES = ("umo_II2_to_IN2", "umo_IS21_to_ID2", "umo_IL2_to_IL3")
REGISTRY_TRIALS = 3
CALIBRATION_SEEDS = 2000


def _certify_op(entry: str, trials: int, seed: int) -> Op:
    def run():
        return reductions.certify(entry, trials=trials, seed=seed)

    def verify(report):
        problems = [] if report.ok else [f"certify report not ok: {report.render()}"]
        return report.render(), problems

    return Op(f"coclones certify {entry} --trials {trials} --seed {seed}", run, verify)


def first_case(entry: str, seed: int) -> Instance:
    """The source instance `certify(entry, trials=1, seed=seed)` draws first."""
    rec = reductions.REGISTRY[entry]
    return rec.sampler(random.Random(reductions._entry_seed(seed, entry)))


def _size_class(inst: Instance) -> tuple[int, int]:
    return inst.num_vars, inst.num_constraints


class CertifyHard(Workload):
    """One-trial certify calls at full size, stratified by the drawn instance.

    The sampler draws n and m uniformly; a 2+3n entry's target then has 11 to
    20 variables.  Blocks keep the draws with n = 5 and n = 6 (targets of 17
    and 20 variables), where the oracle's enumeration is the cost: each
    (entry, n = 5, m) class twice and each (entry, n = 6, m) class once, with
    a seed drawn at random within the class.  Smaller draws take a few
    milliseconds of per-call overhead, which the registry entries of the
    mixed workload measure; the golden corpus keeps them.
    """

    name = "certify-hard"
    BLOCK_SECONDS = 8.5  # op time of one block on a 2-vCPU x86-64 VM
    COPIES = {5: 2, 6: 1}  # per size class and block, by n

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.classes = {e: sorted({_size_class(first_case(e, s))
                                   for s in range(CALIBRATION_SEEDS)})
                        for e in HARD_ENTRIES}

    def _ops(self, rng, tag, golden=False):
        ops = []
        for entry in HARD_ENTRIES:
            want = [c for c in self.classes[entry] if c[0] <= 4] if golden else \
                [c for c in self.classes[entry] for _ in range(self.COPIES.get(c[0], 0))]
            for _ in range(200 * CALIBRATION_SEEDS):
                if not want:
                    break
                s = rng.randrange(1 << 31)
                c = _size_class(first_case(entry, s))
                if c in want:
                    want.remove(c)
                    ops.append(_certify_op(entry, 1, s))
            if want:
                raise HarnessError(f"no seed found for size classes {sorted(want)} of {entry}")
        return ops


REGISTRY_ENTRIES = tuple(e for e in reductions.ACCEPTANCE_ENTRIES if e not in HARD_ENTRIES) \
    + tuple(reductions.QWPP_FAMILY)


def _registry_ops(rng: random.Random, trials: int) -> list[Op]:
    """One certify call for each of the other registry entries."""
    return [_certify_op(e, trials, rng.randrange(1 << 31)) for e in REGISTRY_ENTRIES]


# ---------------------------------------------------------------------------
# soft solves

# relation predicates, written here independently of the library
_REL_PREDICATES = {
    "OR2": any, "OR3": any,
    "NAND2": lambda b: not all(b), "NAND3": lambda b: not all(b),
    "neq": lambda b: b[0] != b[1], "eq": lambda b: b[0] == b[1],
    "EVEN3": lambda b: sum(b) % 2 == 0, "ODD3": lambda b: sum(b) % 2 == 1,
}
_BINARY_RELS = ("OR2", "NAND2", "neq", "eq")
_TERNARY_RELS = ("OR3", "NAND3", "EVEN3", "ODD3")
_COSTS = tuple(Fraction(v) for v in ("0", "1/2", "1", "3/2", "2", "3"))
_WEIGHTS = tuple(Fraction(v) for v in ("1/2", "1", "2", "3"))

KINDS = ("VCSP", "Max-CSP", "Max-Cut")
# (n, flags) per kind and block; the golden corpus uses the small sizes.
# Max-Cut evaluates an assignment in about half the time of the other kinds,
# so its --jobs 2 file has one variable more.  The slowest tenth of a block
# is then one even group of large solves, and latency_p90_ms falls inside
# it rather than on the gap below it, where it jumped from seed to seed.
SOLVE_SLICES = {
    kind: [(n, ()) for n in (16, 17, 18, 20)]
    + [(n, ("--all",)) for n in (16, 18)]
    + [(17, ("threshold",))]
    + [(22 if kind == "Max-Cut" else 21, ("--jobs", "2"))]
    for kind in KINDS
}
GOLDEN_SOLVE_SLICES = {
    kind: ((8, ()), (9, ("--all",)), (10, ("threshold",)), (11, ("--jobs", "2")))
    for kind in KINDS
}


def _bits(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def _cost_ref(table: tuple[Fraction, ...]) -> str:
    k = len(table).bit_length() - 1
    return f"cost{k}_" + "_".join(str(v) for v in table)


def _cost_table(ref: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in ref.split("_")[1:])


def objective(inst: Instance, mask: int) -> Fraction:
    """The objective of one assignment, recomputed in exact arithmetic."""
    total = Fraction(0)
    for c in inst.constraints:
        b = tuple((mask >> a) & 1 for a in c.args)
        w = c.weight if c.weight is not None else Fraction(1)
        if inst.kind == "Max-Cut":
            total += w * (b[0] ^ b[1])
        elif inst.kind == "VCSP":
            total += w * _cost_table(c.ref)[sum(bit << j for j, bit in enumerate(b))]
        else:
            total += w * _REL_PREDICATES[c.ref](b)
    return total


def _random_instance(rng: random.Random, kind: str, n: int, threshold: bool) -> Instance:
    cons = []
    for i in range(2 * n):
        k = 2 if kind == "Max-Cut" or i % 2 == 0 else 3
        args = tuple(rng.sample(range(n), k))
        w = rng.choice(_WEIGHTS)
        if kind == "Max-Cut":
            cons.append(Constraint("edge", args, Fraction(rng.randint(1, 3))))
        elif kind == "VCSP":
            table = tuple(rng.choice(_COSTS) for _ in range(1 << k))
            cons.append(Constraint(_cost_ref(table), args, w))
        else:
            ref = rng.choice(_BINARY_RELS if k == 2 else _TERNARY_RELS)
            cons.append(Constraint(ref, args, w))
    inst = Instance(kind, n, tuple(cons))
    if threshold:
        if kind == "VCSP":
            top = sum(c.weight * max(_cost_table(c.ref)) for c in cons)
            inst = inst.with_threshold("<=", top * Fraction(rng.randint(10, 30), 100))
        else:
            top = sum(c.weight for c in cons)
            inst = inst.with_threshold(">=", top * Fraction(rng.randint(60, 90), 100))
    return inst


def _check_solve_output(inst: Instance, want_all: bool, code: int, out: str) -> list[str]:
    lines = out.splitlines()
    fields = dict(ln.split(": ", 1) for ln in lines if ": " in ln and not ln.startswith(" "))
    problems = []
    if fields.get("kind") != inst.kind or fields.get("satisfiable") != "yes":
        return [f"unexpected header (exit {code})"]
    optimum = Fraction(fields["optimum"])
    witness = sum(int(ch) << i for i, ch in enumerate(fields["witness"]))
    if objective(inst, witness) != optimum:
        problems.append(f"witness objective {objective(inst, witness)} != optimum {optimum}")
    if want_all:
        head = next(i for i, ln in enumerate(lines) if ln.startswith("optimal set ("))
        count = int(lines[head].split("(")[1].split()[0])
        members = [sum(int(ch) << i for i, ch in enumerate(ln.strip()))
                   for ln in lines[head + 1:head + 1 + count]]
        if len(members) != count or not members or members[0] != witness:
            problems.append("optimal set does not start with the witness")
        bad = [m for m in members if objective(inst, m) != optimum]
        if bad:
            problems.append(f"{len(bad)} optimal-set members miss the optimum")
    th = inst.threshold
    if th is None:
        if code != 0:
            problems.append(f"exit {code} without a threshold")
    else:
        met = optimum >= th.value if th.direction == ">=" else optimum <= th.value
        want_line = f"threshold {th.direction} {th.value}: " + ("met" if met else "not met")
        if want_line not in lines or code != (0 if met else 1):
            problems.append(f"threshold outcome wrong (exit {code})")
    return problems


def check_relation_predicates() -> None:
    """The benchmark's reading of each relation name must match the library's."""
    resolver = default_resolver()
    for ref, pred in _REL_PREDICATES.items():
        rel = resolver.relation(ref)
        ours = tuple(m for m in range(1 << rel.arity) if pred(_bits(m, rel.arity)))
        if ours != rel.tuples:
            raise HarnessError(f"relation {ref} differs from the benchmark's reading")


def _solve_ops(rng: random.Random, workdir: Path, tag: str, slices) -> list[Op]:
    """`coclones solve` on generated .inst files, through cli.main in-process."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for kind in KINDS:
        for n, flags in slices[kind]:
            inst = _random_instance(rng, kind, n, "threshold" in flags)
            path = workdir / f"{tag}-{len(ops)}.inst"
            text = fileio.emit_inst(inst)
            path.write_text(text)
            ops.append(_solve_op(inst, text, path, [f for f in flags if f != "threshold"]))
    return ops


def _solve_op(inst: Instance, text: str, path: Path, flags: list[str]) -> Op:
    argv = ["solve", str(path)] + flags

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def verify(result):
        code, out = result
        problems = _check_solve_output(inst, "--all" in flags, code, out)
        if fileio.parse_inst(text) != inst:
            problems.append("parse_inst(emit_inst(instance)) differs from the instance")
        return f"exit {code}\n{out}", problems

    label = f"coclones solve {path.name} {' '.join(flags)}".rstrip()
    return Op(label, run, verify, text)


# ---------------------------------------------------------------------------
# lattice and synthesis

# relation pool of one block: (arity, fewest tuples, most tuples) per relation.
# 5-ary relations with 24 or more tuples make co_clone_of raise
# PreservationBudgetError; they stay in, and show up as failed ops.  Tuple
# counts stop short of the ranges where one cold co_clone_of can take
# seconds (5-ary with 19-23 or 27-32 tuples).
LATTICE_POOL = ((2, 1, 4), (3, 1, 8), (4, 1, 8), (4, 9, 14), (5, 13, 18), (5, 24, 26))
GOLDEN_POOL = ((2, 1, 4), (2, 1, 4), (3, 1, 8), (3, 1, 8), (3, 1, 8), (4, 1, 8), (4, 9, 14))
LANGUAGES_PER_BLOCK = 4
COST_SETS_PER_BLOCK = 2

_IS21 = postlattice.CoCloneId("S1", 2)
_MAXONES_HARD = {postlattice.CoCloneId(f) for f in ("L0", "L3", "L2", "N2")}


def _language_op(rels: list, detail: str) -> Op:
    def run():
        text = fileio.emit_rel(rels)
        parsed = fileio.parse_rel(text)
        lang = relations.ConstraintLanguage(parsed)
        return (text, parsed, postlattice.co_clone_of(lang),
                relations.classify_sat(lang), relations.classify_max_ones(lang))

    def verify(result):
        text, parsed, coclone, sat, maxones = result
        problems = []
        if [(r.name, r.arity, r.tuples) for r in parsed] != \
                [(r.name, r.arity, r.tuples) for r in rels] or fileio.emit_rel(parsed) != text:
            problems.append(".rel round trip changed the language")
        by_position = postlattice.co_clone_leq(_IS21, coclone) or coclone in _MAXONES_HARD
        if by_position != (maxones.result == "NP-hard"):
            problems.append(f"Max-Ones dichotomy: co-clone {coclone.display()} "
                            f"but closure test says {maxones.result}")
        out = (f"{coclone.display()} SAT {sat.result} {sat.closed_under} "
               f"MaxOnes {maxones.result} {maxones.closed_under}")
        return out, problems

    names = ",".join(r.name for r in rels)
    return Op(f"language {names}", run, verify, detail)


def _cost_set_op(fns: list, detail: str) -> Op:
    def run():
        text = fileio.emit_cost(fns)
        parsed = fileio.parse_cost(text)
        cls = valued.classify_vcsp(parsed)
        if cls.is_polynomial:
            return text, parsed, cls, None, None
        expr = valued.express_neq(parsed)
        return text, parsed, cls, expr, valued.verify_neq_expression(expr, parsed)

    def verify(result):
        text, parsed, cls, expr, exact = result
        problems = []
        if parsed != fns or fileio.emit_cost(parsed) != text:
            problems.append(".cost round trip changed the cost functions")
        if cls.is_polynomial:
            return f"P {cls.admitted}", problems
        if not exact:
            problems.append("verify_neq_expression is not exact")
        out = (f"NP-hard {sorted(cls.witnesses.items())} alpha1 {expr.alpha1} "
               f"alpha2 {expr.alpha2} terms {len(expr.terms)} forcing {len(expr.forcing)}")
        return out, problems

    return Op(f"cost set {','.join(f.name for f in fns)}", run, verify, detail)


def _weak_base_op(entry) -> Op:
    def run():
        return postlattice.co_clone_of([entry.relation])

    def verify(got):
        problems = [] if got == entry.coclone else \
            [f"weak base of {entry.coclone.display()} identified as {got.display()}"]
        return got.display(), problems

    return Op(f"weak base {entry.coclone.display()}", run, verify)


def _gadget_op(ident) -> Op:
    def run():
        resolver = default_resolver()
        return definitions.eval_wpp(ident.gadget(), resolver), resolver.relation(ident.target)

    def verify(result):
        got, want = result
        problems = [] if got.tuples == want.tuples else \
            [f"argmax gadget over {ident.base} does not give {ident.target}"]
        return " ".join(got.row_strings()), problems

    return Op(f"eval_wpp {ident.target} over {ident.base}", run, verify)


def _lattice_ops(rng: random.Random, pool_spec, languages: int, cost_sets: int) -> list[Op]:
    """Languages drawn with repeats from a fresh relation pool, and cost sets."""
    pool = []
    for i, (arity, lo, hi) in enumerate(pool_spec):
        masks = rng.sample(range(1 << arity), rng.randint(lo, hi))
        pool.append(relations.Relation.from_masks(arity, masks, name=f"R{i}"))
    ops = []
    for _ in range(languages):
        rels = sorted(rng.sample(pool, rng.randint(1, 3)), key=lambda r: r.name)
        ops.append(_language_op(rels, fileio.emit_rel(rels)))
    for _ in range(cost_sets):
        fns = []
        for i in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            table = tuple(Fraction(rng.randint(0, 4)) for _ in range(1 << k))
            fns.append(valued.CostFunction(k, table, f"f{i}"))
        ops.append(_cost_set_op(fns, fileio.emit_cost(fns)))
    return ops


class Mixed(Workload):
    """Everything but the hard oracle: soft solves, the registry, the lattice.

    A block holds 24 soft-solve files, one certify call for each of the
    16 other registry entries, four languages and two cost sets, and one of
    the six argmax gadgets in turn.  The solves set the pace (about 80% of
    the time), so the block's timings follow numpy more than the
    interpreter; see README.md on why that matters here.
    """

    name = "mixed"
    BLOCK_SECONDS = 6.75  # op time of one block on a 2-vCPU x86-64 VM

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        check_relation_predicates()

    def block(self, k: int) -> list[Op]:
        ops = super().block(k)
        ident = definitions.ARGMAX_IDENTITIES[k % len(definitions.ARGMAX_IDENTITIES)]
        return ops + [_gadget_op(ident)]

    def _ops(self, rng, tag, golden=False):
        if golden:
            ops = _solve_ops(rng, self.workdir, tag, GOLDEN_SOLVE_SLICES) \
                + _registry_ops(rng, 2) \
                + _lattice_ops(rng, GOLDEN_POOL, 16, 8) \
                + [_weak_base_op(e) for e in all_entries((2, 3))] \
                + [_gadget_op(ident) for ident in definitions.ARGMAX_IDENTITIES]
        else:
            ops = _solve_ops(rng, self.workdir, tag, SOLVE_SLICES) \
                + _registry_ops(rng, REGISTRY_TRIALS) \
                + _lattice_ops(rng, LATTICE_POOL, LANGUAGES_PER_BLOCK, COST_SETS_PER_BLOCK)
        return ops


WORKLOADS = {w.name: w for w in (CertifyHard, Mixed)}
