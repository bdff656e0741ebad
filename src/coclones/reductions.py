"""Registry of size-preserving reductions, each entry a declaration.

A `ReductionRecord` states what a reduction is and leaves the checking to
this module:

- what it admits: the source kind and language ("*" admits any), the
  `degree` bound (no source variable in more constraints than that), and
  `unweighted` (no variable weights, every term weight unset or 1);
- `build(src, resolver)`: the construction, and nothing else;
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
constraint (`Resolver.resolve_all`), checks the degree bound and the
weights, builds, checks the built target's kind and language the same way,
asserts the variable count, maps the source threshold through `Affine` (sign
-1 flips its direction) or sets it from `Decision`, and fills `ApplyInfo`.
It renders nothing: `coclones reduce` prints the measure map from the
declaration and `ApplyInfo`, then the note.  `certify` replays a corpus
through the oracle and checks the measure map with one rule for every entry.

Output variables are ordered originals first, then globals (v0, v1), then
per-variable auxiliaries, then per-constraint auxiliaries.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

from .definitions import (
    ARGMAX_IDENTITIES,
    ArgmaxIdentity,
    EXTENSION_FORMULAS,
    ExtensionFormula,
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
    ReductionError,
    Resolver,
    Threshold,
    default_resolver,
    rf_name,
)
from .oracle import OracleError, SolveResult, meets_threshold, solve

__all__ = [
    "ReductionError", "ReductionRecord", "CertifyReport", "REGISTRY",
    "Affine", "Decision", "Size", "Width", "apply", "certify", "corpus", "record",
    "registry_names",
]


class BoundViolation(ReductionError):
    """The produced instance does not match the declared variable bound."""


@dataclass(frozen=True)
class Affine:
    """Target optimum = sign * source optimum + offset(src, resolver)."""

    sign: int  # +1, or -1 when the map also flips the optimization direction
    offset: Callable[[Instance, Resolver], Fraction]


@dataclass(frozen=True)
class Decision:
    """The source is satisfiable iff the target meets threshold(src); with
    `exact`, a satisfiable source's target optimum equals it."""

    threshold: Callable[[Instance], Threshold]
    exact: bool = False


@dataclass
class ApplyInfo:
    threshold: Optional[Threshold] = None
    value_offset: Optional[Fraction] = None  # target optimum = sign * source + offset
    sign: int = 1


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


@dataclass(frozen=True)
class Size:
    """The target's variable count, base + per_var * n + per_constraint * m over
    the source's n variables and m constraints: exact, or else an upper bound."""

    base: int = 0
    per_var: int = 0
    per_constraint: int | Width = 0
    exact: bool = True

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


@dataclass(frozen=True)
class ReductionRecord:
    name: str
    source_kind: str
    source_language: tuple[str, ...]  # "*" admits any relation or cost function
    target_kind: str
    target_language: tuple[str, ...]
    build: Callable[[Instance, Resolver], Instance]
    size: Size
    measure: Affine | Decision
    degree: Optional[int] = None  # no source variable in more constraints than this
    unweighted: bool = False  # no variable weights, and every term weight unset or 1
    # a fact the declaration lacks, printed by `coclones reduce` only
    note: Optional[Callable[[Instance, Resolver], str]] = None
    sampler: Optional[Callable[[random.Random], Instance]] = None
    exhaustive: Optional[Callable[[], Iterator[Instance]]] = None
    chain_before: tuple[str, ...] = ()  # certify passes samples through these first
    invariant: Optional[Invariant] = None

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
    _require(not offending,
             f"degree bound violated: variable(s) {offending} occur in more than {bound} constraints")


def _unweighted(inst: Instance) -> bool:
    """No variable weights, and every term weight unset or 1."""
    if inst.var_weights is not None:
        return False
    for c in inst.constraints:
        if c.weight is not None and c.weight != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Entry 1: bounded-occurrence satisfiability -> unweighted Max-Ones over the
# NAND-with-constant relation (clique/independent-set gadget)


def _build_sat2_to_umo_is21(inst: Instance, resolver: Resolver) -> Instance:
    rel = resolver.relation("R_II2")
    # a vertex per constraint and consistent assignment of its distinct
    # variables: a tuple of the identification minor at its arguments
    vertices: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    for ci, c in enumerate(inst.constraints):
        distinct = tuple(dict.fromkeys(c.args))
        for m in rel.minor(tuple(map(distinct.index, c.args))).tuples:
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
# Entry 2: bounded-occurrence satisfiability -> unweighted Max-Ones over the
# affine-with-inequalities relation


def _build_sat2_to_umo_il2(inst: Instance, resolver: Resolver) -> Instance:
    n, m = inst.num_vars, inst.num_constraints
    v0, v1 = n, n + 1
    prime = [n + 2 + i for i in range(n)]
    z0 = n + 2 + n
    cons = [Constraint("R_IL2", (v0, v0, v0, v1, v1, v1, v0, v1))]
    for x in range(n):
        xp = prime[x]
        cons.append(Constraint("R_IL2", (xp, x, v1, x, xp, v0, v0, v1)))
    for ci, c in enumerate(inst.constraints):
        a = c.args
        z1, z2, z3 = z0 + 3 * ci, z0 + 3 * ci + 1, z0 + 3 * ci + 2
        cons.append(Constraint("R_IL2", (z1, z2, z3, a[0], a[1], a[2], a[6], a[7])))
        cons.append(Constraint("R_IL2", (a[3], a[4], a[5], a[0], a[1], a[2], a[6], a[7])))
    return Instance(KIND_UMO, 2 + 2 * n + 3 * m, tuple(cons))


# ---------------------------------------------------------------------------
# Entries 3-6: unweighted Max-Ones interreductions between weak bases


def _build_umo_il2_to_il0(inst: Instance, resolver: Resolver) -> Instance:
    n = inst.num_vars
    v0, v1 = n, n + 1
    ys = [n + 2 + i for i in range(n)]
    cons = [Constraint("R_IL0", (v0, v0, v0, v0))]
    cons += [Constraint("R_IL0", (v1, v0, y, v0)) for y in ys]
    for c in inst.constraints:
        a = c.args
        cons.append(Constraint("R_IL0", (a[0], a[1], a[2], v0)))
        cons.append(Constraint("R_IL0", (v1, a[0], a[3], v0)))
        cons.append(Constraint("R_IL0", (v1, a[1], a[4], v0)))
        cons.append(Constraint("R_IL0", (v1, a[2], a[5], v0)))
        cons.append(Constraint("R_IL0", (v1, a[6], a[7], v0)))
        # pin the constant-0 slot directly; the construction above only
        # couples a[6] != a[7], which admits swapped spurious solutions
        cons.append(Constraint("R_IL0", (a[6], a[6], a[6], v0)))
    return Instance(KIND_UMO, 2 + 2 * n, tuple(cons))


def _build_umo_ii2_to_in2(inst: Instance, resolver: Resolver) -> Instance:
    n = inst.num_vars
    v0, v1 = n, n + 1
    ys = [n + 2 + i for i in range(2 * n)]
    cons = [Constraint("R_IN2", (v0, v0, v0, v0, v1, v1, v1, v1))]
    cons += [Constraint("R_IN2", (v0, v0, v0, v0, y, y, y, y)) for y in ys]
    for c in inst.constraints:
        a = c.args
        cons.append(Constraint("R_IN2", (v0, a[0], a[1], a[5], v1, a[3], a[4], a[2])))
        cons.append(Constraint("R_IN2", (v0, a[6], a[6], v0, v1, a[7], a[7], v1)))
    return Instance(KIND_UMO, 2 + 3 * n, tuple(cons))


def _build_umo_is21_to_id2(inst: Instance, resolver: Resolver) -> Instance:
    n = inst.num_vars
    v0, v1 = n, n + 1
    prime = [n + 2 + 2 * i for i in range(n)]
    dprime = [n + 3 + 2 * i for i in range(n)]
    cons = [Constraint("R_ID2", (v1, v1, v0, v0, v0, v1))]
    for x in range(n):
        xp, xpp = prime[x], dprime[x]
        cons.append(Constraint("R_ID2", (x, xp, xp, x, v0, v1)))
        cons.append(Constraint("R_ID2", (xp, xpp, xpp, xp, v0, v1)))
    for c in inst.constraints:
        a = c.args
        cons.append(Constraint("R_ID2", (prime[a[0]], prime[a[1]], a[0], a[1], a[2], v1)))
    return Instance(KIND_UMO, 2 + 3 * n, tuple(cons))


def _build_umo_il2_to_il3(inst: Instance, resolver: Resolver) -> Instance:
    n = inst.num_vars
    v0, v1 = n, n + 1
    ys = [n + 2 + i for i in range(2 * n)]
    cons = [Constraint("R_IL3", (v0, v0, v0, v0, v1, v1, v1, v1))]
    cons += [Constraint("R_IL3", (v0, v0, v0, v0, y, y, y, y)) for y in ys]
    for c in inst.constraints:
        a = c.args
        cons.append(Constraint("R_IL3", (a[6], a[0], a[1], a[2], a[7], a[3], a[4], a[5])))
        cons.append(Constraint("R_IL3", (a[6], a[6], a[6], a[6], v1, v1, v1, v1)))
        cons.append(Constraint("R_IL3", (v0, v0, v0, v0, a[7], a[7], a[7], a[7])))
    return Instance(KIND_UMO, 2 + 3 * n, tuple(cons))


# ---------------------------------------------------------------------------
# Entry 7: quantifier-free extensions with two fresh globals (k -> k+1)


def _make_qpp_build(ext: ExtensionFormula):
    def build(inst: Instance, resolver: Resolver) -> Instance:
        n = inst.num_vars
        k = ext.formula.total_vars - 2
        y0, y1 = n, n + 1
        cons: list[Constraint] = []
        for c in inst.constraints:
            for atom_name, slots in ext.formula.atoms:
                args = tuple(c.args[s] if s < k else (y0 if s == k else y1)
                             for s in slots)
                cons.append(Constraint(atom_name, args))
        return Instance(KIND_UMO, n + 2, tuple(cons))

    return build


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


def _make_qwpp_build(identity: ArgmaxIdentity):
    weighted = [(p, w) for p, w in enumerate(identity.weights) if w]

    def build(inst: Instance, resolver: Resolver) -> Instance:
        big_m = _weight_big_m(inst)
        gadget = [0] * inst.num_vars  # each variable's gadget weight over all constraints
        cons: list[Constraint] = []
        for c in inst.constraints:
            args = c.args
            for slots in identity.atoms:
                cons.append(Constraint(identity.base, tuple(args[s] for s in slots)))
            for p, w in weighted:
                gadget[args[p]] += w
        # weight + big_m * gadget weight, over the common denominator of both
        mn, md = big_m.numerator, big_m.denominator
        new_weights = tuple(
            Fraction(w.numerator * md + mn * g * w.denominator, w.denominator * md) if g else w
            for w, g in zip(inst.weights_or_default(), gadget))
        return Instance(KIND_WMO, inst.num_vars, tuple(cons), var_weights=new_weights)

    return build


def _qwpp_offset(identity: ArgmaxIdentity, inst: Instance, resolver: Resolver) -> Fraction:
    return _weight_big_m(inst) * (_gadget_max(identity) * inst.num_constraints)


def _qwpp_note(identity: ArgmaxIdentity, inst: Instance, resolver: Resolver) -> str:
    return f"big-M = {_weight_big_m(inst)}, per-gadget maximum {_gadget_max(identity)}"


# ---------------------------------------------------------------------------
# Entry 9: Min-Ones -> Max-Ones with per-variable complement pairs


def _build_maxones_to_minones(inst: Instance, resolver: Resolver) -> Instance:
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


def _build_uvcspd_to_minones(inst: Instance, resolver: Resolver) -> Instance:
    next_var = inst.num_vars
    cons: list[Constraint] = []
    used_first: set[int] = set()
    for c, fn in zip(inst.constraints, resolver.resolve_all(inst.kind, inst.constraints)):
        _require(all(v.denominator == 1 for v in fn.table),
                 "integer cost values required")
        k = fn.arity
        _require(k + (1 << k) <= 24, f"cost arity {k} makes the translation relation too wide")
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
# Entry 11: bounded-occurrence satisfiability -> unweighted valued instance


def _build_sat2_to_uvcsp2(inst: Instance, resolver: Resolver) -> Instance:
    cons = [Constraint("fnot_R_II2", c.args) for c in inst.constraints]
    return Instance(KIND_VCSP, inst.num_vars, tuple(cons))


# ---------------------------------------------------------------------------
# Entry 12: Max-Cut <-> VCSP(f_neq)


def _total_weight(inst: Instance) -> Fraction:
    # an unset weight is 1; counting those as an int skips a Fraction add each
    weights = [c.weight for c in inst.constraints if c.weight is not None]
    return sum(weights, Fraction(len(inst.constraints) - len(weights)))


def _build_maxcut_to_vcsp(inst: Instance, resolver: Resolver) -> Instance:
    cons = [Constraint("f_neq", c.args, c.weight) for c in inst.constraints]
    return Instance(KIND_VCSP, inst.num_vars, tuple(cons))


def _build_vcsp_to_maxcut(inst: Instance, resolver: Resolver) -> Instance:
    cons = [Constraint("edge", c.args, c.weight) for c in inst.constraints]
    return Instance(KIND_MAXCUT, inst.num_vars, tuple(cons))


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


def _build_maxcsp_nandtf_to_neq(inst: Instance, resolver: Resolver) -> Instance:
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


def _build_maxcutc_to_wmaxones(inst: Instance, resolver: Resolver) -> Instance:
    nv, ne = inst.num_vars, inst.num_constraints
    cons: list[Constraint] = []
    weights = [Fraction(0)] * nv
    for c in inst.constraints:
        u, v = c.args
        e = len(weights)
        weights.append(c.weight if c.weight is not None else Fraction(1))
        cons.append(Constraint("XOR3", (u, v, e)))
    return Instance(KIND_WMO, nv + ne, tuple(cons), var_weights=tuple(weights))


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
    return lambda inst, resolver: Fraction(f(inst.num_vars))


REGISTRY: dict[str, ReductionRecord] = {}


def _register(rec: ReductionRecord) -> None:
    REGISTRY[rec.name] = rec


_register(ReductionRecord(
    "sat2_to_umo_IS21", KIND_SAT, ("R_II2",), KIND_UMO, ("R_IS1_2",),
    build=_build_sat2_to_umo_is21, size=Size(1, per_constraint=3, exact=False),  # R_II2: 3 tuples
    measure=Decision(lambda inst: Threshold(">=", Fraction(inst.num_constraints))),
    degree=2, sampler=_sample_sat2))

_register(ReductionRecord(
    "sat2_to_umo_IL2", KIND_SAT, ("R_II2",), KIND_UMO, ("R_IL2",),
    build=_build_sat2_to_umo_il2, size=Size(2, 2, 3),
    measure=Decision(lambda inst: Threshold(
        ">=", Fraction(inst.num_vars + 1 + 2 * inst.num_constraints)), exact=True),
    degree=2, sampler=_sample_sat2))

_register(ReductionRecord(
    "umo_IL2_to_IL0", KIND_UMO, ("R_IL2",), KIND_UMO, ("R_IL0",),
    build=_build_umo_il2_to_il0, size=Size(2, 2),
    measure=Affine(1, _offset(lambda n: n + 1)),
    sampler=_make_sampler("R_IL2", 8)))

_register(ReductionRecord(
    "umo_II2_to_IN2", KIND_UMO, ("R_II2",), KIND_UMO, ("R_IN2",),
    build=_build_umo_ii2_to_in2, size=Size(2, 3),
    measure=Affine(1, _offset(lambda n: 1 + 2 * n)),
    sampler=_make_sampler("R_II2", 8)))

_register(ReductionRecord(
    "umo_IS21_to_ID2", KIND_UMO, ("R_IS1_2",), KIND_UMO, ("R_ID2",),
    build=_build_umo_is21_to_id2, size=Size(2, 3),
    measure=Affine(1, _offset(lambda n: 1 + n)),
    sampler=_make_sampler("R_IS1_2", 3, n_range=(2, 6))))

_register(ReductionRecord(
    "umo_IL2_to_IL3", KIND_UMO, ("R_IL2",), KIND_UMO, ("R_IL3",),
    build=_build_umo_il2_to_il3, size=Size(2, 3),
    measure=Affine(1, _offset(lambda n: 1 + 2 * n)),
    sampler=_make_sampler("R_IL2", 8)))

for _ext_formula in EXTENSION_FORMULAS:
    _register(ReductionRecord(
        f"umo_qpp_{_ext_formula.target[2:]}", KIND_UMO, (_ext_formula.source,),
        KIND_UMO, (_ext_formula.target,),
        build=_make_qpp_build(_ext_formula), size=Size(2, 1),
        measure=Affine(1, _offset(lambda n: 1)),
        sampler=_make_sampler(_ext_formula.source, _ext_formula.formula.total_vars - 2,
                              n_range=(3, 6), cover_all=True)))

for _ident in ARGMAX_IDENTITIES:
    _register(ReductionRecord(
        f"wmo_qwpp_{_ident.base[2:]}", KIND_WMO, (_ident.target,),
        KIND_WMO, (_ident.base,),
        build=_make_qwpp_build(_ident), size=Size(per_var=1),
        measure=Affine(1, functools.partial(_qwpp_offset, _ident)),
        note=functools.partial(_qwpp_note, _ident),
        sampler=_sample_wmo_ii2,
        chain_before=("wmo_qwpp_IL2",) if _ident.target == "R_IL2" else ()))

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

_register(ReductionRecord(
    "sat2_to_uvcsp2", KIND_SAT, ("R_II2",), KIND_VCSP, ("fnot_R_II2",),
    build=_build_sat2_to_uvcsp2, size=Size(per_var=1),
    measure=Decision(lambda inst: Threshold("<=", Fraction(0))),
    degree=2, sampler=_sample_sat2))

_register(ReductionRecord(
    "maxcut_to_vcsp_neq", KIND_MAXCUT, ("edge",), KIND_VCSP, ("f_neq",),
    build=_build_maxcut_to_vcsp, size=Size(per_var=1),
    measure=Affine(-1, lambda inst, resolver: _total_weight(inst)),
    exhaustive=functools.partial(_exhaustive_pairs, KIND_MAXCUT, "edge")))

_register(ReductionRecord(
    "vcsp_neq_to_maxcut", KIND_VCSP, ("f_neq",), KIND_MAXCUT, ("edge",),
    build=_build_vcsp_to_maxcut, size=Size(per_var=1),
    measure=Affine(-1, lambda inst, resolver: _total_weight(inst)),
    exhaustive=functools.partial(_exhaustive_pairs, KIND_VCSP, "f_neq")))

_register(ReductionRecord(
    "maxcsp_nandTF_to_neq", KIND_MAXCSP, ("NAND2", "T", "F"), KIND_MAXCSP, ("neq",),
    build=_build_maxcsp_nandtf_to_neq, size=Size(2, 1),
    measure=Affine(1, lambda inst, resolver: _maxcsp_big_m(inst)),
    sampler=_sample_maxcsp_nandtf, invariant=_globals_differ_in_every_optimum))

_register(ReductionRecord(
    "maxcutc_to_wmaxones", KIND_MAXCUT, ("edge",), KIND_WMO, ("XOR3",),
    build=_build_maxcutc_to_wmaxones, size=Size(0, 1, 1),
    measure=Affine(1, _offset(lambda n: 0)),
    note=lambda inst, resolver: _XOR3_GAP_NOTE,
    sampler=_sample_weighted_maxcut))

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
    _require(inst.kind == kind, f"{name}: {side} must be a {kind} instance, got {inst.kind}")
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
    out = rec.build(inst, resolver)
    _check_side(name, "target", out, rec.target_kind, rec.target_language)
    declared = rec.size.count(inst, applied)
    if out.num_vars > declared or (rec.size.exact and out.num_vars != declared):
        raise BoundViolation(f"{name}: produced {out.num_vars} variables, "
                             f"declared {rec.size.text()} = {declared}")
    info = ApplyInfo()
    if isinstance(rec.measure, Decision):
        info.threshold = rec.measure.threshold(inst)
    else:
        info.sign, info.value_offset = rec.measure.sign, rec.measure.offset(inst, resolver)
        if inst.threshold is not None:
            direction = inst.threshold.direction
            info.threshold = Threshold(direction if info.sign > 0 else _FLIPPED[direction],
                                       info.sign * inst.threshold.value + info.value_offset)
    if info.threshold is not None:
        out = out.with_threshold(info.threshold.direction, info.threshold.value)
    return out, info


# ---------------------------------------------------------------------------
# Certification


@dataclass
class CertifyReport:
    entry: str
    mode: str  # "exhaustive" or "random"
    cases: int
    failures: list[tuple[str, str]]  # (source instance text, message)

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


def corpus(rec: ReductionRecord, trials: int = 200, seed: int = 0) -> list[Instance]:
    """The sources `certify` draws: the exhaustive list, or `trials` seeded samples."""
    if rec.exhaustive is not None:
        return list(rec.exhaustive())
    rng = random.Random(_entry_seed(seed, rec.name))
    return [rec.sampler(rng) for _ in range(trials)]


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
            # compose the affine maps of the chain: target = sign * source + offset;
            # the first map is taken as it is
            tgt, sign, offset = src, 1, None
            for step in steps:
                tgt, info = apply(step, tgt, resolver)
                if info.value_offset is None:
                    continue
                if offset is None:
                    sign, offset = info.sign, info.value_offset
                else:
                    sign, offset = info.sign * sign, info.sign * offset + info.value_offset
            msg = _measure_failure(rec, src, tgt, sign, offset, resolver)
        except (ReductionError, InstanceError) as exc:
            msg = f"apply failed: {exc}"
        except OracleError as exc:
            msg = f"oracle failed: {exc}"
        if msg is not None:
            failures.append((emit_inst(src), msg))
    mode = "random" if rec.exhaustive is None else "exhaustive"
    return CertifyReport(name, mode, len(cases), failures)
