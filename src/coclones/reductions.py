"""Registry of size-preserving reductions, each entry a declaration.

A `ReductionRecord` states what a reduction is and leaves the checking to
this module:

- what it admits: the source kind and language ("*" admits any), the
  `degree` bound (no source variable in more constraints than that),
  `unweighted` (no variable weights, every term weight unset or 1), and
  `covered` (every source variable in some constraint, and at least one
  constraint);
- `build(src, applied)`: the construction alone, on the constraints `apply` resolved;
- `size`: the target's variable count `base + per_var*n + per_constraint*m`,
  exact or, with `exact=False`, an upper bound; C and the bound text read it;
- `measure`: either `Affine(sign, offset)`, where the target optimum is
  sign * source optimum + offset(src, resolver), or `Decision(threshold)`,
  where the source is satisfiable iff the target meets threshold(src) (and,
  with `exact=True`, a satisfiable source's target optimum equals it);
- the corpus that certifies it (a seeded `sampler` or an `exhaustive`
  generator), the entries a sample passes through first (`chain_before`),
  an optional `note` for a fact the rest does not state, and at most one
  extra `invariant`.

`apply` is the one checker of admission, and it enforces the declaration on
every call: it checks the source kind and language, resolves every source
constraint (`Resolver.resolve_all`), checks the degree bound, the weights
and the cover, builds, checks the built target's kind and language the same
way, asserts the variable count, maps the source threshold through `Affine`
(sign -1 flips its direction) or sets it from `Decision`, and fills
`ApplyInfo`.
It renders nothing: `coclones reduce` prints the measure map from the
declaration and `ApplyInfo`, then the note.  `certify` replays a corpus
through the oracle and checks the measure map with one rule for every entry.

Twenty-one entries are gadget `Template`s: one builder lays out and weighs each
target as `Template` states.  The other four builders number their own variables.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import zlib
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

from .definitions import (
    ARGMAX_IDENTITIES,
    ArgmaxIdentity,
    EXTENSION_FORMULAS,
)
from .instances import (
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
    MAX_RELATION_ARITY,
    ReductionError,
    Resolver,
    Threshold,
    default_resolver,
    rf_name,
)
from .oracle import OracleError, SolveResult, _minor, meets_threshold, solve
from .relations import Record, _setfield, whole

__all__ = [
    "ReductionError", "ReductionRecord", "CertifyReport", "REGISTRY",
    "Affine", "Decision", "Size", "Width", "apply", "certify", "corpus", "record",
    "registry_names",
]


class BoundViolation(ReductionError):
    """The produced instance does not match the declared variable bound."""


class Affine(Record):
    """Target optimum = sign * source optimum + offset(src, resolver)."""

    __slots__ = _fields = ("sign", "offset")

    def __init__(self, sign: int, offset: Callable[[Instance, Resolver], Fraction]) -> None:
        # +1, or -1 when the map also flips the optimization direction
        _setfield(self, "sign", sign)
        _setfield(self, "offset", offset)


class Decision(Record):
    """The source is satisfiable iff the target meets threshold(src); with
    `exact`, a satisfiable source's target optimum equals it."""

    __slots__ = _fields = ("threshold", "exact")

    def __init__(self, threshold: Callable[[Instance], Threshold], exact: bool = False) -> None:
        _setfield(self, "threshold", threshold)
        _setfield(self, "exact", exact)


class ApplyInfo(Record, frozen=False):
    __slots__ = _fields = ("threshold", "value_offset", "sign")

    def __init__(self, threshold: Optional[Threshold] = None,
                 value_offset: Optional[Fraction] = None, sign: int = 1) -> None:
        self.threshold = threshold
        self.value_offset = value_offset  # target optimum = sign * source + offset
        self.sign = sign


class Width(NamedTuple):
    """A per-constraint variable count read off the resolved source language."""
    symbol: str  # how the bound text writes it
    of: Callable[[list], int]


def _linear(const: int, *terms: tuple[int | Width, str]) -> str:
    """const + coefficient * symbol + ..., zeros left out: "2+3n", "1+d(2s+t(2^s+1))"."""
    parts = [str(const)] if const else []
    for coef, sym in terms:
        if isinstance(coef, Width):
            parts.append(f"{sym}({coef.symbol})")
        elif coef:
            parts.append(sym if coef == 1 else f"{coef}{sym}")
    return "+".join(parts) or "0"


class Size(Record):
    """The target's variable count, base + per_var * n + per_constraint * m over
    the source's n variables and m constraints: exact, or else an upper bound."""

    __slots__ = _fields = ("base", "per_var", "per_constraint", "exact")

    def __init__(self, base: int = 0, per_var: int = 0, per_constraint: int | Width = 0,
                 exact: bool = True) -> None:
        _setfield(self, "base", base)
        _setfield(self, "per_var", per_var)
        _setfield(self, "per_constraint", per_constraint)
        _setfield(self, "exact", exact)

    def count(self, inst: Instance, applied: list) -> int:
        """The declared count on source `inst`, whose constraints resolve to
        `applied` (`Resolver.resolve_all`)."""
        width = self.per_constraint
        if isinstance(width, Width):
            width = width.of(applied)
        return self.base + self.per_var * inst.num_vars + width * inst.num_constraints

    def text(self) -> str:
        form = _linear(self.base, (self.per_var, "n"), (self.per_constraint, "m"))
        return form if self.exact else f"<= {form}"


# certify's extra check for one entry: (src, tgt, source result, target
# result, resolver) -> failure message or None
Invariant = Callable[[Instance, Instance, SolveResult, SolveResult, Resolver], Optional[str]]


class ReductionRecord(Record):
    __slots__ = _fields = ("name", "source_kind", "source_language", "target_kind",
                           "target_language", "build", "size", "measure", "degree", "unweighted",
                           "covered", "note", "sampler", "exhaustive", "chain_before",
                           "invariant")

    def __init__(self, name: str, source_kind: str, source_language: tuple[str, ...],
                 target_kind: str, target_language: tuple[str, ...],
                 build: Callable[[Instance, list], Instance], size: Size,
                 measure: Affine | Decision, degree: Optional[int] = None,
                 unweighted: bool = False, covered: bool = False,
                 note: Optional[Callable[[Instance, Resolver], str]] = None,
                 sampler: Optional[Callable[[random.Random], Instance]] = None,
                 exhaustive: Optional[Callable[[], Iterator[Instance]]] = None,
                 chain_before: tuple[str, ...] = (),
                 invariant: Optional[Invariant] = None) -> None:
        _setfield(self, "name", name)
        _setfield(self, "source_kind", source_kind)
        # "*" admits any relation or cost function
        _setfield(self, "source_language", source_language)
        _setfield(self, "target_kind", target_kind)
        _setfield(self, "target_language", target_language)
        _setfield(self, "build", build)  # (source, its resolved constraints)
        _setfield(self, "size", size)
        _setfield(self, "measure", measure)
        # no source variable in more constraints than this
        _setfield(self, "degree", degree)
        # no variable weights, and every term weight unset or 1
        _setfield(self, "unweighted", unweighted)
        # every source variable in some constraint, and at least one constraint
        _setfield(self, "covered", covered)
        # a fact the declaration lacks, printed by `coclones reduce` only
        _setfield(self, "note", note)
        _setfield(self, "sampler", sampler)
        _setfield(self, "exhaustive", exhaustive)
        # certify passes samples through these first
        _setfield(self, "chain_before", chain_before)
        _setfield(self, "invariant", invariant)

    @property
    def lv_constant(self) -> int | str:
        """C in the bound C * n + base: a declared degree d gives m <= d * n (every
        constraint holds a variable); without one, a per-constraint count leaves d in C."""
        per_var, width = self.size.per_var, self.size.per_constraint
        if width == 0 or (self.degree is not None and isinstance(width, int)):
            return per_var + width * (self.degree or 0)
        return _linear(per_var, (width, "d"))

    @property
    def kind_tag(self) -> str:
        """The report's tag: CV when C is 1, else LV."""
        return "CV" if self.lv_constant == 1 else "LV"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ReductionError(msg)


def _require_degree_bound(inst: Instance, bound: int) -> None:
    count: dict[int, int] = {}
    for c in inst.constraints:
        for v in set(c.args):
            count[v] = count.get(v, 0) + 1
    offending = sorted([v + 1 for v, k in count.items() if k > bound])  # numbered as in .inst
    if offending:
        raise ReductionError(f"degree bound violated: variable(s) {offending} occur in more "
                             f"than {bound} constraints")


def _require_covered(inst: Instance) -> None:
    _require(bool(inst.constraints), "source must have at least one constraint")
    held: set[int] = set()
    for c in inst.constraints:
        held.update(c.args)
    offending = [v + 1 for v in range(inst.num_vars) if v not in held]  # numbered as in .inst
    if offending:
        raise ReductionError(f"coverage violated: variable(s) {offending} occur in no constraint")


def _unweighted(inst: Instance) -> bool:
    """No variable weights, and every term weight unset or 1."""
    if inst.var_weights is not None:
        return False
    for c in inst.constraints:
        if c.weight is not None and c.weight != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Gadget templates


class Template(Record):
    """A gadget reduction as three blocks of atoms of one relation.

    A source of n variables and m constraints gets a target of n + globals +
    per_var·n + per_constraint·m variables: the originals, the globals, the
    `per_var` auxiliaries of each original in turn (the i-th of x is n +
    globals + per_var·x + i), then the `per_constraint` fresh ones of each
    constraint in turn.  The atoms follow the same order: the header, the
    block of each original, then the block of each constraint.

    An atom lists the names of its two or more arguments, separated by
    spaces.  Every block names the globals v0, v1, ...; the variable block its
    original x and x's auxiliaries x', x'', ...; the constraint block its
    `arity` slots a0, a1, ..., their variables' auxiliaries a0', a0'', ...
    and its fresh ones z1, z2, ...

    The kinds give the weights.  A target kind that weighs constraints copies
    each source constraint's weight, unset too, onto its block's atoms.  A
    W-Max-Ones target weighs originals as the source does (0 if its kind has
    no variable weights) and auxiliaries 0, then each constraint adds coef ×
    factor to the variable of each `weights` entry ("z1"; "a0 2" for coef 2):
    its weight (1 if unset), or the big-M of a W-Max-Ones source.
    """

    __slots__ = _fields = ("kind", "relation", "arity", "globals", "per_var", "per_constraint",
                           "header", "var_block", "constraint_block", "weights")

    def __init__(self, kind: str, relation: str, arity: int, globals: int = 0, per_var: int = 0,
                 per_constraint: int = 0, header: tuple[str, ...] = (),
                 var_block: tuple[str, ...] = (), constraint_block: tuple[str, ...] = (),
                 weights: tuple[str, ...] = ()) -> None:
        _setfield(self, "kind", kind)
        _setfield(self, "relation", relation)
        _setfield(self, "arity", arity)
        _setfield(self, "globals", globals)
        _setfield(self, "per_var", per_var)
        _setfield(self, "per_constraint", per_constraint)
        _setfield(self, "header", header)
        _setfield(self, "var_block", var_block)
        _setfield(self, "constraint_block", constraint_block)
        _setfield(self, "weights", weights)


def _getters(block: tuple[str, ...], names: list[str]) -> list[Callable[[tuple], tuple]]:
    """Each atom as a getter of its argument tuple from the block's variables,
    listed in the order of `names`.  An atom over all of them in order gets the
    tuple itself (a tuple's full slice is the tuple, not a copy)."""
    at = {name: i for i, name in enumerate(names)}
    return [operator.itemgetter(slice(None)) if atom.split() == names
            else operator.itemgetter(*(at[a] for a in atom.split())) for atom in block]


def _template_build(t: Template) -> Callable[[Instance, list], Instance]:
    """The builder of `t`.  It lays the header and variable blocks out once per
    source size, lists slot variables' auxiliaries only if a block names one,
    and, with no globals or fresh ones, hands a block the constraint's args.
    A template that is one atom on the slots in order and nothing else
    relabels: each constraint becomes that atom on its own args."""
    g, pv, f, rel = t.globals, t.per_var, t.per_constraint, t.relation
    globals_ = [f"v{i}" for i in range(g)]
    slots = [f"a{j}" for j in range(t.arity)]
    weighs = t.kind in (KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT)
    if (t.constraint_block == (" ".join(slots),) and t.kind != KIND_WMO
            and not (g or pv or f or t.header or t.var_block or t.weights)):
        kind = t.kind

        def relabel(inst: Instance, applied: list) -> Instance:
            return Instance(kind, inst.num_vars, tuple([
                Constraint(rel, c.args, c.weight if weighs else None) for c in inst.constraints]))

        return relabel
    slot_aux = [s + "'" * (i + 1) for s in slots for i in range(pv)]
    header = _getters(t.header, globals_)
    var_block = _getters(t.var_block, ["x"] + globals_ + ["x" + "'" * (i + 1) for i in range(pv)])
    reads_slot_aux = not set(slot_aux).isdisjoint(" ".join(t.constraint_block + t.weights).split())
    names = (slots + globals_ + [f"z{i + 1}" for i in range(f)]
             + (slot_aux if reads_slot_aux else []))
    block = _getters(t.constraint_block, names)
    weighted = [(names.index(name), int(coef[0]) if coef else 1)
                for name, *coef in map(str.split, t.weights)]
    zero, one = Fraction(0), Fraction(1)
    fresh = [tuple(range(z, z + f)) for z in range(MAX_RELATION_ARITY + 1)]
    fixed: dict[int, tuple] = {}  # the globals, header and variable blocks, per n <= 24

    def build(inst: Instance, applied: list) -> Instance:
        n, cs = inst.num_vars, inst.constraints
        if n not in fixed:
            gl = tuple(range(n, n + g))
            cons = [Constraint(rel, get(gl)) for get in header]
            for x in range(n):
                vs = (x,) + gl + tuple(range(n + g + pv * x, n + g + pv * (x + 1)))
                cons += [Constraint(rel, get(vs)) for get in var_block]
            fixed[n] = gl, tuple(cons)
        gl, cons = fixed[n]
        cons = list(cons)
        big_m = _weight_big_m(inst) if inst.kind == KIND_WMO else None
        added: dict[int, Fraction | int] = {}  # coef × factor sums; ints under big-M
        z = n + g + pv * n  # the first fresh auxiliary
        if z + f * len(cs) > MAX_RELATION_ARITY:  # Instance refuses the count; `fresh` ends
            return Instance(t.kind, z + f * len(cs), ())
        for c in cs:
            vs = c.args + gl + fresh[z]
            if reads_slot_aux:
                vs += tuple(n + g + pv * v + i for v in c.args for i in range(pv))
            for get in block:
                cons.append(Constraint(rel, get(vs), c.weight if weighs else None))
            if weighted:
                factor = 1 if big_m is not None else one if c.weight is None else c.weight
                for i, coef in weighted:
                    v, term = vs[i], factor if coef == 1 else coef * factor
                    added[v] = added[v] + term if v in added else term
            z += f
        if t.kind != KIND_WMO:
            return Instance(t.kind, z, tuple(cons))
        weights = [zero] * z
        if big_m is not None:
            weights[:n] = inst.weights_or_default()
        for v, a in added.items():
            # under big-M, weight + big-M × coef sum, over the common denominator
            w = weights[v]
            weights[v] = a if big_m is None else Fraction(
                w.numerator * big_m.denominator + big_m.numerator * a * w.denominator,
                w.denominator * big_m.denominator)
        return Instance(KIND_WMO, z, tuple(cons), var_weights=tuple(weights))

    return build


# ---------------------------------------------------------------------------
# Entry 1: bounded-occurrence satisfiability -> unweighted Max-Ones over the
# NAND-with-constant relation (clique/independent-set gadget)


def _build_sat2_to_umo_is21(inst: Instance, applied: list) -> Instance:
    # a vertex per constraint and consistent assignment of its distinct
    # variables: a tuple of the identification minor at its arguments
    vertices: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    for ci, (c, rel) in enumerate(zip(inst.constraints, applied)):
        distinct, minor = _minor(c.args, rel)
        for m in minor.tuples:
            vertices.append((ci, tuple((v, m >> i & 1) for i, v in enumerate(distinct))))
    nv = len(vertices)
    # variable 0 is the shared constant-0 global; vertices follow.  The global
    # must be pinned even when no NAND pair exists (degenerate inputs),
    # otherwise it pads the optimum past the threshold.
    cons: list[Constraint] = [Constraint("R_IS1_2", (0, 0, 0))]

    def incompatible(a, b) -> bool:
        (ca, assign_a), (cb, assign_b) = a, b
        db = dict(assign_b)
        return ca == cb or any(v in db and db[v] != bit for v, bit in assign_a)

    for i in range(nv):
        for j in range(i + 1, nv):
            if incompatible(vertices[i], vertices[j]):
                cons.append(Constraint("R_IS1_2", (1 + i, 1 + j, 0)))
    return Instance(KIND_UMO, 1 + nv, tuple(cons))


# ---------------------------------------------------------------------------
# Entry 8: weighted argmax-gadget replacements (big-M composition)


@functools.cache
def _gadget_max(identity: ArgmaxIdentity) -> int:
    """The gadget objective on its target's tuples, the same on every tuple.

    The gadget weights are ints, so the sum is one.  It is kept for each
    identity, so the cache holds six entries, one per `ARGMAX_IDENTITIES`
    entry.  A weak-base name means the same relation to every resolver, so
    the target comes from a fresh one.
    """
    target = Resolver().relation(identity.target)
    vals = {sum(w for p, w in enumerate(identity.weights) if (t >> p) & 1)
            for t in target.tuples}
    if len(vals) != 1:
        raise ReductionError("argmax gadget objective is not constant on its target")
    return vals.pop()


def _weight_big_m(inst: Instance) -> Fraction:
    """One more than the total variable weight, summed in ints over the lcm
    of the weights' denominators."""
    weights = inst.var_weights
    if weights is None:
        return Fraction(1 + inst.num_vars)
    den = math.lcm(*(w.denominator for w in weights))
    return Fraction(den + sum(w.numerator * (den // w.denominator) for w in weights), den)


def _qwpp_offset(identity: ArgmaxIdentity, inst: Instance, resolver: Resolver) -> Fraction:
    return _weight_big_m(inst) * (_gadget_max(identity) * inst.num_constraints)


def _qwpp_note(identity: ArgmaxIdentity, inst: Instance, resolver: Resolver) -> str:
    return f"big-M = {_weight_big_m(inst)}, per-gadget maximum {_gadget_max(identity)}"


# ---------------------------------------------------------------------------
# Entry 9: Min-Ones -> Max-Ones with per-variable complement pairs


def _build_maxones_to_minones(inst: Instance, applied: list) -> Instance:
    n = inst.num_vars
    return Instance(KIND_UMO, 3 * n, inst.constraints + _complements(n))


# one entry per source size; a target holds at most 24 variables, so n <= 8
@functools.cache
def _complements(n: int) -> tuple[Constraint, ...]:
    """neq(i, n + 2i) and neq(i, n + 2i + 1) for each source variable i."""
    return tuple(Constraint("neq", (i, n + j)) for i in range(n) for j in (2 * i, 2 * i + 1))


# ---------------------------------------------------------------------------
# Entry 10: unweighted valued instances -> Min-Ones via value-translation
# relations


def _build_uvcspd_to_minones(inst: Instance, applied: list) -> Instance:
    next_var = inst.num_vars
    cons: list[Constraint] = []
    used_first: set[int] = set()
    for c, fn in zip(inst.constraints, applied):
        _require(all(v.denominator == 1 for v in fn.table),
                 "integer cost values required")
        k = fn.arity
        if k + (1 << k) > 24:
            raise ReductionError(f"cost arity {k} makes the translation relation too wide")
        slot_vars: list[int] = []
        for v in c.args:
            if v in used_first:
                copy = next_var
                next_var += 1
                cons.append(Constraint("eq", (v, copy)))
                slot_vars.append(copy)
            else:
                used_first.add(v)
                slot_vars.append(v)
        vp0 = next_var
        next_var += 1 << k
        cons.append(Constraint(rf_name(fn), tuple(slot_vars) + tuple(range(vp0, vp0 + (1 << k)))))
        for j, sv in enumerate(slot_vars):
            w = next_var
            next_var += 1
            cons.append(Constraint("neq", (sv, w)))
        for a in range(1 << k):
            fa = int(fn.table[a])
            if fa >= 2:
                anchor = vp0 + a  # position of the one-hot entry for tuple a
                prev = anchor
                for _ in range(fa - 1):
                    u = next_var
                    next_var += 1
                    cons.append(Constraint("eq", (prev, u)))
                    prev = u
    return Instance(KIND_MINO, next_var, tuple(cons))


def _translation_width(fns) -> int:
    """2s + t(2^s+1) per constraint: s the widest cost arity, t the largest cost value."""
    s = max((fn.arity for fn in fns), default=0)
    # the bound presumes a nontrivial value range; t = 0 (identically zero
    # costs) still emits the 2^s translation block, so clamp t at 1
    t = max([int(fn.max_value) for fn in fns] + [1])
    return 2 * s + t * ((1 << s) + 1)


def _arity_sum(inst: Instance, resolver: Resolver) -> Fraction:
    return Fraction(sum(len(c.args) for c in inst.constraints))


# ---------------------------------------------------------------------------
# Entry 12: Max-Cut <-> VCSP(f_neq)


def _total_weight(inst: Instance) -> Fraction:
    # an unset weight is 1; counting those as an int skips a Fraction add each
    weights = [c.weight for c in inst.constraints if c.weight is not None]
    return sum(weights, whole(len(inst.constraints) - len(weights)))


# ---------------------------------------------------------------------------
# Entry 13: Max-CSP over {NAND2, T, F} -> Max-CSP(neq)


def _maxcsp_big_m(inst: Instance) -> Fraction:
    # one more than the light constraints' total: NAND2 turns into three
    # half-weight neq terms, T and F into one full-weight term each
    big_m = Fraction(1)
    for c in inst.constraints:
        w = c.weight if c.weight is not None else Fraction(1)
        big_m += 3 * w / 2 if c.ref == "NAND2" else w
    return big_m


def _build_maxcsp_nandtf_to_neq(inst: Instance, applied: list) -> Instance:
    n = inst.num_vars
    v0, v1 = n, n + 1
    light: list[Constraint] = []
    for c in inst.constraints:
        w = c.weight if c.weight is not None else Fraction(1)
        if c.ref == "T":
            light.append(Constraint("neq", (c.args[0], v0), w))
        elif c.ref == "F":
            light.append(Constraint("neq", (c.args[0], v1), w))
        else:
            x, y = c.args
            half = w / 2
            light.append(Constraint("neq", (x, y), half))
            light.append(Constraint("neq", (x, v1), half))
            light.append(Constraint("neq", (y, v1), half))
    cons = [Constraint("neq", (v0, v1), _maxcsp_big_m(inst))] + light
    return Instance(KIND_MAXCSP, n + 2, tuple(cons))


def _globals_differ_in_every_optimum(src, tgt, sres, tres, resolver) -> Optional[str]:
    # the heavy constraint must bind in every optimal solution
    full = solve(tgt, resolver, want_all=True)
    v0, v1 = src.num_vars, src.num_vars + 1
    for mask in full.optimal_set:
        if ((mask >> v0) & 1) == ((mask >> v1) & 1):
            return "an optimal target solution assigns v0 = v1"
    return None


# ---------------------------------------------------------------------------
# Entry 14: bounded-degree Max-Cut -> weighted Max-Ones via the parity
# relation (with the definability gap flagged)


# Exact: co_clone_of gives II2 for {R_II2} and for {R_II2, XOR3}, and no
# R_II2 or eq atom over XOR3's three coordinates excludes a non-tuple
# (both checked in tests/test_reductions.py)
_XOR3_GAP_NOTE = ("XOR3 is pp-definable over R_II2 only with auxiliary variables; "
                  "emitting XOR3 as a target primitive")


# ---------------------------------------------------------------------------
# Samplers


def _rng_tuple(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    return tuple(rng.randrange(n) for _ in range(k))


def _make_sampler(rel_name: str, arity: int, n_range=(3, 6), m_range=(1, 3),
                  cover_all: bool = False, kind: str = KIND_UMO):
    def sampler(rng: random.Random) -> Instance:
        n = rng.randint(*n_range)
        m = rng.randint(*m_range)
        if cover_all:
            m = max(m, -(-n // arity))  # enough slots to cover every variable
            pool = list(range(n)) + [rng.randrange(n) for _ in range(m * arity - n)]
            rng.shuffle(pool)
            cons = tuple(Constraint(rel_name, tuple(pool[i * arity:(i + 1) * arity]))
                         for i in range(m))
        else:
            cons = tuple(Constraint(rel_name, _rng_tuple(rng, n, arity))
                         for _ in range(m))
        return Instance(kind, n, cons)

    return sampler


_sample_sat2 = _make_sampler("R_II2", 8, n_range=(2, 4), m_range=(1, 2), kind=KIND_SAT)


def _sample_wmo_ii2(rng: random.Random) -> Instance:
    n = rng.randint(4, 8)
    m = rng.randint(1, 3)
    cons = tuple(Constraint("R_II2", _rng_tuple(rng, n, 8)) for _ in range(m))
    weights = tuple(Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n))
    return Instance(KIND_WMO, n, cons, var_weights=weights)


# The exhaustive generators build each constraint once for each n and draw
# their combinations from those.
def _exhaustive_minones_or2() -> Iterator[Instance]:
    for n in range(1, 5):
        apps = [Constraint("OR2", (i, j)) for i in range(n) for j in range(n)]
        for size in range(0, 4):
            for cons in itertools.combinations(apps, size):
                yield Instance(KIND_MINO, n, cons)


def _sample_uvcsp(rng: random.Random) -> Instance:
    k, m_max = (2, 1) if rng.random() < 0.5 else (1, 2)
    table = tuple(Fraction(rng.randint(0, 2)) for _ in range(1 << k))
    ref = f"cost{k}_" + "_".join(str(v) for v in table)
    n = rng.randint(2, 3)
    m = rng.randint(1, m_max)
    cons = tuple(Constraint(ref, _rng_tuple(rng, n, k)) for _ in range(m))
    return Instance(KIND_VCSP, n, cons)


def _exhaustive_pairs(kind: str, ref: str) -> Iterator[Instance]:
    """Every instance of 2-5 variables with at most three `ref` terms on distinct pairs."""
    for n in range(2, 6):
        terms = [Constraint(ref, (i, j)) for i in range(n) for j in range(i + 1, n)]
        for size in range(0, 4):
            for cons in itertools.combinations(terms, size):
                yield Instance(kind, n, cons)


def _sample_maxcsp_nandtf(rng: random.Random) -> Instance:
    n = rng.randint(2, 5)
    m = rng.randint(1, 4)
    cons = []
    for _ in range(m):
        ref = rng.choice(["NAND2", "NAND2", "T", "F"])
        arity = 2 if ref == "NAND2" else 1
        cons.append(Constraint(ref, _rng_tuple(rng, n, arity),
                               Fraction(rng.randint(1, 4), rng.randint(1, 2))))
    return Instance(KIND_MAXCSP, n, tuple(cons))


def _sample_weighted_maxcut(rng: random.Random) -> Instance:
    n = rng.randint(2, 4)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    m = rng.randint(1, min(4, len(pairs)))
    cons = tuple(Constraint("edge", e, Fraction(rng.randint(1, 3))) for e in pairs[:m])
    return Instance(KIND_MAXCUT, n, cons)


# ---------------------------------------------------------------------------
# Registry assembly


def _offset(f: Callable[[int], int]) -> Callable[[Instance, Resolver], Fraction]:
    """An offset that depends on the source's variable count alone."""
    return lambda inst, resolver: whole(f(inst.num_vars))


REGISTRY: dict[str, ReductionRecord] = {}


def _register(rec: ReductionRecord) -> None:
    REGISTRY[rec.name] = rec


def _register_template(name: str, source_kind: str, source_language: tuple[str, ...],
                       template: Template, **declared) -> None:
    """Register `name` with the build, size and target read off `template`."""
    _register(ReductionRecord(
        name, source_kind, source_language, template.kind, (template.relation,),
        build=_template_build(template),
        size=Size(template.globals, 1 + template.per_var, template.per_constraint),
        **declared))


_register(ReductionRecord(
    "sat2_to_umo_IS21", KIND_SAT, ("R_II2",), KIND_UMO, ("R_IS1_2",),
    build=_build_sat2_to_umo_is21, size=Size(1, per_constraint=3, exact=False),  # R_II2: 3 tuples
    measure=Decision(lambda inst: Threshold(">=", Fraction(inst.num_constraints))),
    degree=2, sampler=_sample_sat2))

# Entry 2: bounded-occurrence satisfiability -> unweighted Max-Ones over the
# affine-with-inequalities relation
_register_template(
    "sat2_to_umo_IL2", KIND_SAT, ("R_II2",), Template(
        KIND_UMO, "R_IL2", 8, globals=2, per_var=1, per_constraint=3,
        header=("v0 v0 v0 v1 v1 v1 v0 v1",),
        var_block=("x' x v1 x x' v0 v0 v1",),
        constraint_block=("z1 z2 z3 a0 a1 a2 a6 a7", "a3 a4 a5 a0 a1 a2 a6 a7")),
    measure=Decision(lambda inst: Threshold(
        ">=", Fraction(inst.num_vars + 1 + 2 * inst.num_constraints)), exact=True),
    degree=2, sampler=_sample_sat2)

# Entries 3-6: unweighted Max-Ones interreductions between weak bases
_register_template(
    "umo_IL2_to_IL0", KIND_UMO, ("R_IL2",), Template(
        KIND_UMO, "R_IL0", 8, globals=2, per_var=1,
        header=("v0 v0 v0 v0",),
        var_block=("v1 v0 x' v0",),
        # the last atom pins the constant-0 slot directly; the others only
        # couple a6 != a7, which admits swapped spurious solutions
        constraint_block=("a0 a1 a2 v0", "v1 a0 a3 v0", "v1 a1 a4 v0", "v1 a2 a5 v0",
                          "v1 a6 a7 v0", "a6 a6 a6 v0")),
    measure=Affine(1, _offset(lambda n: n + 1)),
    sampler=_make_sampler("R_IL2", 8))

_register_template(
    "umo_II2_to_IN2", KIND_UMO, ("R_II2",), Template(
        KIND_UMO, "R_IN2", 8, globals=2, per_var=2,
        header=("v0 v0 v0 v0 v1 v1 v1 v1",),
        var_block=("v0 v0 v0 v0 x' x' x' x'", "v0 v0 v0 v0 x'' x'' x'' x''"),
        constraint_block=("v0 a0 a1 a5 v1 a3 a4 a2", "v0 a6 a6 v0 v1 a7 a7 v1")),
    measure=Affine(1, _offset(lambda n: 1 + 2 * n)),
    sampler=_make_sampler("R_II2", 8))

_register_template(
    "umo_IS21_to_ID2", KIND_UMO, ("R_IS1_2",), Template(
        KIND_UMO, "R_ID2", 3, globals=2, per_var=2,
        header=("v1 v1 v0 v0 v0 v1",),
        var_block=("x x' x' x v0 v1", "x' x'' x'' x' v0 v1"),
        constraint_block=("a0' a1' a0 a1 a2 v1",)),
    measure=Affine(1, _offset(lambda n: 1 + n)),
    sampler=_make_sampler("R_IS1_2", 3, n_range=(2, 6)))

_register_template(
    "umo_IL2_to_IL3", KIND_UMO, ("R_IL2",), Template(
        KIND_UMO, "R_IL3", 8, globals=2, per_var=2,
        header=("v0 v0 v0 v0 v1 v1 v1 v1",),
        var_block=("v0 v0 v0 v0 x' x' x' x'", "v0 v0 v0 v0 x'' x'' x'' x''"),
        constraint_block=("a6 a0 a1 a2 a7 a3 a4 a5", "a6 a6 a6 a6 v1 v1 v1 v1",
                          "v0 v0 v0 v0 a7 a7 a7 a7")),
    measure=Affine(1, _offset(lambda n: 1 + 2 * n)),
    sampler=_make_sampler("R_IL2", 8))

# Entry 7: quantifier-free extensions with two fresh globals (k -> k+1); an
# extension formula's coordinates 0..k-1 are the slots, k and k+1 the globals.
# Only the constraint blocks pin the globals and the source variables, so a
# source without constraints leaves both globals free, and a variable in no
# constraint is free in the target even when the source is unsatisfiable:
# the entries admit, and sample, covered sources only
_COVERED = True
for _ext_formula in EXTENSION_FORMULAS:
    _k = _ext_formula.formula.total_vars - 2
    _names = [f"a{j}" for j in range(_k)] + ["v0", "v1"]
    _register_template(
        f"umo_qpp_{_ext_formula.target[2:]}", KIND_UMO, (_ext_formula.source,), Template(
            KIND_UMO, _ext_formula.target, _k, globals=2,
            constraint_block=tuple(" ".join(_names[s] for s in slots)
                                   for _, slots in _ext_formula.formula.atoms)),
        measure=Affine(1, _offset(lambda n: 1)), covered=_COVERED,
        sampler=_make_sampler(_ext_formula.source, _k, n_range=(3, 6), cover_all=_COVERED))

# an argmax identity's coordinates 0..7 are the slots a0..a7
for _ident in ARGMAX_IDENTITIES:
    _register_template(
        f"wmo_qwpp_{_ident.base[2:]}", KIND_WMO, (_ident.target,), Template(
            KIND_WMO, _ident.base, 8,
            constraint_block=tuple(" ".join(f"a{s}" for s in atom) for atom in _ident.atoms),
            weights=tuple(f"a{p} {w}" for p, w in enumerate(_ident.weights) if w)),
        measure=Affine(1, functools.partial(_qwpp_offset, _ident)),
        note=functools.partial(_qwpp_note, _ident),
        sampler=_sample_wmo_ii2,
        chain_before=("wmo_qwpp_IL2",) if _ident.target == "R_IL2" else ())

_register(ReductionRecord(
    "maxones_to_minones", KIND_MINO, ("*",), KIND_UMO, ("*", "neq"),
    build=_build_maxones_to_minones, size=Size(per_var=3),
    measure=Affine(-1, _offset(lambda n: 2 * n)),
    unweighted=True, exhaustive=_exhaustive_minones_or2))

_register(ReductionRecord(
    "uvcspd_to_minones", KIND_VCSP, ("*",), KIND_MINO, ("eq", "neq", "Rf_*"),
    build=_build_uvcspd_to_minones,
    size=Size(0, 1, Width("2s+t(2^s+1)", _translation_width), exact=False),
    measure=Affine(1, _arity_sum),
    unweighted=True, sampler=_sample_uvcsp))

# Entry 11: bounded-occurrence satisfiability -> unweighted valued instance
_register_template(
    "sat2_to_uvcsp2", KIND_SAT, ("R_II2",), Template(
        KIND_VCSP, "fnot_R_II2", 8, constraint_block=("a0 a1 a2 a3 a4 a5 a6 a7",)),
    measure=Decision(lambda inst: Threshold("<=", Fraction(0))),
    degree=2, sampler=_sample_sat2)

_register_template(
    "maxcut_to_vcsp_neq", KIND_MAXCUT, ("edge",),
    Template(KIND_VCSP, "f_neq", 2, constraint_block=("a0 a1",)),
    measure=Affine(-1, lambda inst, resolver: _total_weight(inst)),
    exhaustive=functools.partial(_exhaustive_pairs, KIND_MAXCUT, "edge"))

_register_template(
    "vcsp_neq_to_maxcut", KIND_VCSP, ("f_neq",),
    Template(KIND_MAXCUT, "edge", 2, constraint_block=("a0 a1",)),
    measure=Affine(-1, lambda inst, resolver: _total_weight(inst)),
    exhaustive=functools.partial(_exhaustive_pairs, KIND_VCSP, "f_neq"))

_register(ReductionRecord(
    "maxcsp_nandTF_to_neq", KIND_MAXCSP, ("NAND2", "T", "F"), KIND_MAXCSP, ("neq",),
    build=_build_maxcsp_nandtf_to_neq, size=Size(2, 1),
    measure=Affine(1, lambda inst, resolver: _maxcsp_big_m(inst)),
    sampler=_sample_maxcsp_nandtf, invariant=_globals_differ_in_every_optimum))

_register_template(
    "maxcutc_to_wmaxones", KIND_MAXCUT, ("edge",), Template(
        KIND_WMO, "XOR3", 2, per_constraint=1, constraint_block=("a0 a1 z1",), weights=("z1",)),
    measure=Affine(1, _offset(lambda n: 0)),
    note=lambda inst, resolver: _XOR3_GAP_NOTE,
    sampler=_sample_weighted_maxcut)

QPP_FAMILY = tuple(n for n in REGISTRY if n.startswith("umo_qpp_"))
QWPP_FAMILY = tuple(n for n in REGISTRY if n.startswith("wmo_qwpp_"))
# `certify all`: every entry outside the two families, in registration order
ACCEPTANCE_ENTRIES = tuple(n for n in REGISTRY if n not in QPP_FAMILY + QWPP_FAMILY)


def registry_names() -> list[str]:
    return sorted(REGISTRY)


def record(name: str) -> ReductionRecord:
    """The registry entry called name; the error lists the known names."""
    rec = REGISTRY.get(name)
    if rec is None:
        raise ReductionError(f"unknown reduction {name!r} (choose from "
                             f"{', '.join(registry_names())})")
    return rec


_FLIPPED = {">=": "<=", "<=": ">="}


def _check_side(name: str, side: str, inst: Instance, kind: str,
                language: tuple[str, ...]) -> None:
    """Raise unless inst has the declared kind and only refs the language admits.

    "*" admits any ref, and a name ending in "*" ("Rf_*") any ref it prefixes.
    """
    if inst.kind != kind:
        raise ReductionError(f"{name}: {side} must be a {kind} instance, got {inst.kind}")
    if "*" in language or {c.ref for c in inst.constraints}.issubset(language):
        return
    extra = [r for r in inst.language()
             if not any(r == d or (d.endswith("*") and r.startswith(d[:-1])) for d in language)]
    _require(not extra, f"{name}: {side} language must be within {language}, got {extra}")


def apply(name: str, inst: Instance, resolver: Optional[Resolver] = None
          ) -> tuple[Instance, ApplyInfo]:
    """Build the target of a registry entry and check it against the declaration."""
    rec = record(name)
    resolver = resolver or default_resolver()
    _check_side(name, "source", inst, rec.source_kind, rec.source_language)
    applied = resolver.resolve_all(inst.kind, inst.constraints)
    if rec.degree is not None:
        _require_degree_bound(inst, rec.degree)
    if rec.unweighted and not _unweighted(inst):
        raise ReductionError("source must be unweighted")
    if rec.covered:
        _require_covered(inst)
    out = rec.build(inst, applied)
    _check_side(name, "target", out, rec.target_kind, rec.target_language)
    declared = rec.size.count(inst, applied)
    if out.num_vars > declared or (rec.size.exact and out.num_vars != declared):
        raise BoundViolation(f"{name}: produced {out.num_vars} variables, "
                             f"declared {rec.size.text()} = {declared}")
    if isinstance(rec.measure, Decision):
        info = ApplyInfo(rec.measure.threshold(inst))
    else:
        sign, offset = rec.measure.sign, rec.measure.offset(inst, resolver)
        threshold = inst.threshold
        if threshold is not None:
            direction = threshold.direction
            threshold = Threshold(direction if sign > 0 else _FLIPPED[direction],
                                  sign * threshold.value + offset)
        info = ApplyInfo(threshold, offset, sign)
    if info.threshold is not None:
        out = out.with_threshold(info.threshold.direction, info.threshold.value)
    return out, info


# ---------------------------------------------------------------------------
# Certification


class CertifyReport(Record, frozen=False):
    __slots__ = _fields = ("entry", "mode", "cases", "failures")

    def __init__(self, entry: str, mode: str, cases: int,
                 failures: list[tuple[str, str]]) -> None:
        self.entry = entry
        self.mode = mode  # "exhaustive" or "random"
        self.cases = cases
        self.failures = failures  # (source instance text, message)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"certify {self.entry}: {self.mode}, {self.cases} cases: "
                 + ("all agree" if self.ok else f"{len(self.failures)} FAILURES")]
        for text, msg in self.failures:
            lines.append(f"  counterexample: {msg}")
            for ln in text.rstrip().splitlines():
                lines.append(f"    {ln}")
        return "\n".join(lines)


def _entry_seed(seed: int, name: str) -> int:
    return (seed ^ zlib.crc32(name.encode())) & 0xFFFFFFFF


def corpus(rec: ReductionRecord, trials: int = 200, seed: int = 0) -> tuple[Instance, ...]:
    """The sources `certify` draws: the exhaustive corpus, built once per
    process (`_exhaustive`), or `trials` seeded samples."""
    if rec.exhaustive is not None:
        return _exhaustive(rec.exhaustive)
    rng = random.Random(_entry_seed(seed, rec.name))
    return tuple([rec.sampler(rng) for _ in range(trials)])


# Each exhaustive corpus, kept as `_complements` keeps its blocks, under the
# generator itself: a record made with another generator (`replace`) gets
# its own corpus, and the tuple of frozen instances cannot be changed.
@functools.lru_cache(maxsize=1 << 4)
def _exhaustive(generate: Callable[[], Iterator[Instance]]) -> tuple[Instance, ...]:
    return tuple(generate())


def _on_map(t: Fraction, sign: int, s: Fraction, offset: Fraction) -> bool:
    """Whether t == offset + sign * s, compared in ints: both sides times the
    three denominators."""
    sd, od = s.denominator, offset.denominator
    image = offset.numerator * sd + sign * s.numerator * od  # over sd * od
    return t.numerator * sd * od == image * t.denominator


def _measure_failure(rec: ReductionRecord, src: Instance, tgt: Instance, sign: int,
                     offset: Optional[Fraction], resolver: Resolver) -> Optional[str]:
    """Why tgt breaks the entry's measure map or invariant on src, or None.

    One rule serves every entry; for an affine entry, (sign, offset) is the
    map composed along `chain_before` (a decision entry has no offset).
    """
    sres = solve(src, resolver)
    tres = solve(tgt, resolver)
    if isinstance(rec.measure, Decision):
        want = tgt.threshold.value
        if sres.satisfiable != meets_threshold(tres, tgt.threshold):
            return (f"decision mismatch at threshold {want}: "
                    f"source sat={sres.satisfiable}, target optimum {tres.optimum}")
        if rec.measure.exact and sres.satisfiable and tres.optimum != want:
            return f"satisfiable source must hit exactly {want}, got {tres.optimum}"
    elif sres.satisfiable:
        if not (tres.satisfiable and _on_map(tres.optimum, sign, sres.optimum, offset)):
            want = offset + sres.optimum if sign > 0 else offset - sres.optimum
            return (f"optimum map failed: source {sres.optimum}, target {tres.optimum},"
                    f" wanted {want}")
    elif tres.satisfiable and (sign < 0 or tres.optimum >= offset):
        # an unsatisfiable source may leave a satisfiable target only with
        # sign +1 and only below the offset, where no image of a source
        # optimum (never negative) lies
        return f"unsatisfiable source but target reaches {tres.optimum}"
    if rec.invariant is not None:
        return rec.invariant(src, tgt, sres, tres, resolver)
    return None


def _through(steps: tuple[str, ...], src: Instance, resolver: Resolver
             ) -> tuple[Instance, int, Optional[Fraction]]:
    """(the target of src through the entries `steps` in turn, sign, offset):
    their affine maps composed as target = sign * source + offset, the first
    taken as it is (a decision entry adds none)."""
    tgt, sign, offset = src, 1, None
    for step in steps:
        tgt, info = apply(step, tgt, resolver)
        if info.value_offset is None:
            continue
        if offset is None:
            sign, offset = info.sign, info.value_offset
        else:
            sign, offset = info.sign * sign, info.sign * offset + info.value_offset
    return tgt, sign, offset


def certify(name: str, trials: int = 200, seed: int = 0,
            resolver: Optional[Resolver] = None) -> CertifyReport:
    """Oracle-certify a registry entry on an exhaustive or seeded random corpus."""
    from .fileio import emit_inst

    rec = record(name)
    resolver = resolver or default_resolver()
    failures: list[tuple[str, str]] = []
    steps = rec.chain_before + (name,)
    cases = corpus(rec, trials, seed)
    for src in cases:
        try:
            msg = _measure_failure(rec, src, *_through(steps, src, resolver), resolver)
        except (ReductionError, InstanceError) as exc:
            msg = f"apply failed: {exc}"
        except OracleError as exc:
            msg = f"oracle failed: {exc}"
        if msg is not None:
            failures.append((emit_inst(src), msg))
    mode = "random" if rec.exhaustive is None else "exhaustive"
    return CertifyReport(name, mode, len(cases), failures)
