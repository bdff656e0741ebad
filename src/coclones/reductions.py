"""Registry of size-preserving reductions, each entry a declaration.

A `ReductionRecord` states what a reduction is and leaves the checking to
this module:

- `build(src, resolver)`: the construction, and nothing else;
- `num_vars(src, resolver)`: the target's variable count, exact or, with
  `exact=False`, an upper bound;
- `measure`: either `Affine(sign, offset)`, where the target optimum is
  sign * source optimum + offset(src, resolver), or `Decision(threshold)`,
  where the source is satisfiable iff the target meets threshold(src);
- the corpus that certifies it (a seeded `sampler` or an `exhaustive`
  generator), the entries a sample passes through first (`chain_before`),
  the report's note text, and at most one extra `invariant`.

`apply` enforces the declaration on every call: it checks the source kind
and language ("*" admits any), resolves every source constraint
(`Resolver.resolve`), checks the built target's kind and language the same
way, asserts the variable count, maps the source threshold through `Affine`
(sign -1 flips its direction) or sets it from `Decision`, and fills
`ApplyInfo`.  `certify` replays a corpus through the
oracle and checks the measure map with one rule for every entry.

Output variables are ordered originals first, then globals (v0, v1), then
per-variable auxiliaries, then per-constraint auxiliaries.
"""

from __future__ import annotations

import functools
import itertools
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

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
from .relations import Relation

__all__ = [
    "ReductionError", "ReductionRecord", "CertifyReport", "REGISTRY",
    "Affine", "Decision", "apply", "certify", "record", "registry_names",
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
    """The source is satisfiable iff the target meets threshold(src)."""

    threshold: Callable[[Instance], Threshold]


@dataclass
class ApplyInfo:
    threshold: Optional[Threshold] = None
    value_offset: Optional[Fraction] = None  # target optimum = sign * source + offset
    sign: int = 1
    notes: tuple[str, ...] = ()


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
    kind_tag: str  # "CV" or "LV"
    lv_parameter: str  # the factor C, as text for the report
    bound_text: str
    build: Callable[[Instance, Resolver], Instance]
    num_vars: Callable[[Instance, Resolver], int]
    exact: bool  # num_vars is the exact count, not only an upper bound
    measure: Affine | Decision
    note: Callable[[Instance, Resolver], str]
    sampler: Optional[Callable[[random.Random], Instance]] = None
    exhaustive: Optional[Callable[[], Iterator[Instance]]] = None
    chain_before: tuple[str, ...] = ()  # certify passes samples through these first
    invariant: Optional[Invariant] = None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ReductionError(msg)


def _require_degree_bound(inst: Instance, bound: int) -> None:
    count: dict[int, int] = {}
    for c in inst.constraints:
        for v in set(c.args):
            count[v] = count.get(v, 0) + 1
    offending = [v for v, k in count.items() if k > bound]
    _require(not offending,
             f"degree bound violated: variable(s) {offending} occur in more than {bound} constraints")


def _require_unweighted(inst: Instance) -> None:
    _require(inst.var_weights is None, "source must be unweighted")


# ---------------------------------------------------------------------------
# Entry 1: bounded-occurrence satisfiability -> unweighted Max-Ones over the
# NAND-with-constant relation (clique/independent-set gadget)


def _feasible_assignments(rel: Relation, args: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    out = []
    seen = set()
    for t in rel.tuples:
        assign: dict[int, int] = {}
        ok = True
        for j, v in enumerate(args):
            bit = (t >> j) & 1
            if assign.setdefault(v, bit) != bit:
                ok = False
                break
        if ok:
            key = tuple(sorted(assign.items()))
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def _build_sat2_to_umo_is21(inst: Instance, resolver: Resolver) -> Instance:
    _require_degree_bound(inst, 2)
    rel = resolver.relation("R_II2")
    vertices: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    for ci, c in enumerate(inst.constraints):
        for assign in _feasible_assignments(rel, c.args):
            vertices.append((ci, assign))
    nv = len(vertices)
    # variable 0 is the shared constant-0 global; vertices follow.  The global
    # must be pinned even when no NAND pair exists (degenerate inputs),
    # otherwise it pads the optimum past the threshold.
    cons: list[Constraint] = [Constraint("R_IS1_2", (0, 0, 0))]

    def incompatible(a, b) -> bool:
        ca, assign_a = a
        cb, assign_b = b
        if ca == cb:
            return True
        da, db = dict(assign_a), dict(assign_b)
        return any(v in db and db[v] != bit for v, bit in da.items())

    for i in range(nv):
        for j in range(i + 1, nv):
            if incompatible(vertices[i], vertices[j]):
                cons.append(Constraint("R_IS1_2", (1 + i, 1 + j, 0)))
    return Instance(KIND_UMO, 1 + nv, tuple(cons))


# ---------------------------------------------------------------------------
# Entry 2: bounded-occurrence satisfiability -> unweighted Max-Ones over the
# affine-with-inequalities relation


def _build_sat2_to_umo_il2(inst: Instance, resolver: Resolver) -> Instance:
    _require_degree_bound(inst, 2)
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


def _il2_threshold(inst: Instance) -> Threshold:
    return Threshold(">=", Fraction(inst.num_vars + 1 + 2 * inst.num_constraints))


def _hits_threshold_exactly(src, tgt, sres, tres, resolver) -> Optional[str]:
    want = tgt.threshold.value
    if sres.satisfiable and tres.optimum != want:
        return f"satisfiable source must hit exactly {want}, got {tres.optimum}"
    return None


# ---------------------------------------------------------------------------
# Entries 3-6: unweighted Max-Ones interreductions between weak bases


def _build_umo_il2_to_il0(inst: Instance, resolver: Resolver) -> Instance:
    _require_unweighted(inst)
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
    _require_unweighted(inst)
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
    _require_unweighted(inst)
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
    _require_unweighted(inst)
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
        _require_unweighted(inst)
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


def _gadget_max(identity: ArgmaxIdentity, resolver: Resolver) -> Fraction:
    target = resolver.relation(identity.target)
    vals = {sum(Fraction(w) for p, w in enumerate(identity.weights) if (t >> p) & 1)
            for t in target.tuples}
    if len(vals) != 1:
        raise ReductionError("argmax gadget objective is not constant on its target")
    return vals.pop()


def _weight_big_m(inst: Instance) -> Fraction:
    return Fraction(1) + sum(inst.weights_or_default(), Fraction(0))


def _make_qwpp_build(identity: ArgmaxIdentity):
    def build(inst: Instance, resolver: Resolver) -> Instance:
        big_m = _weight_big_m(inst)
        new_weights = list(inst.weights_or_default())
        cons: list[Constraint] = []
        for c in inst.constraints:
            for slots in identity.atoms:
                cons.append(Constraint(identity.base, tuple(c.args[s] for s in slots)))
            for p, w in enumerate(identity.weights):
                if w:
                    new_weights[c.args[p]] += big_m * w
        return Instance(KIND_WMO, inst.num_vars, tuple(cons), var_weights=tuple(new_weights))

    return build


def _make_qwpp_offset(identity: ArgmaxIdentity):
    def offset(inst: Instance, resolver: Resolver) -> Fraction:
        return _weight_big_m(inst) * _gadget_max(identity, resolver) * inst.num_constraints

    return offset


def _make_qwpp_note(identity: ArgmaxIdentity):
    def note(inst: Instance, resolver: Resolver) -> str:
        return (f"big-M = {_weight_big_m(inst)}, "
                f"per-gadget maximum {_gadget_max(identity, resolver)}")

    return note


# ---------------------------------------------------------------------------
# Entry 9: Min-Ones -> Max-Ones with per-variable complement pairs


def _build_maxones_to_minones(inst: Instance, resolver: Resolver) -> Instance:
    _require_unweighted(inst)
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
    for c in inst.constraints:
        _require(c.weight in (None, Fraction(1)),
                 "unweighted valued instances only (unit term weights)")
        fn = resolver.resolve(inst.kind, c)
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


def _uvcspd_bound(inst: Instance, resolver: Resolver) -> int:
    fns = [resolver.resolve(inst.kind, c) for c in inst.constraints]
    s = max((fn.arity for fn in fns), default=0)
    # the stated bound presumes a nontrivial value range; t = 0 (identically
    # zero costs) still emits the 2^s translation block, so clamp t at 1
    t = max([int(fn.max_value) for fn in fns] + [1])
    return inst.num_vars + len(fns) * (2 * s + t * ((1 << s) + 1))


def _arity_sum(inst: Instance, resolver: Resolver) -> Fraction:
    return Fraction(sum(len(c.args) for c in inst.constraints))


# ---------------------------------------------------------------------------
# Entry 11: bounded-occurrence satisfiability -> unweighted valued instance


def _build_sat2_to_uvcsp2(inst: Instance, resolver: Resolver) -> Instance:
    _require_degree_bound(inst, 2)
    n = inst.num_vars
    _require(inst.num_constraints <= 2 * n, "at most 2n constraints expected")
    cons = [Constraint("fnot_R_II2", c.args) for c in inst.constraints]
    return Instance(KIND_VCSP, n, tuple(cons))


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


def _sample_sat2(rng: random.Random) -> Instance:
    n = rng.randint(2, 4)
    m = rng.randint(1, 2)
    cons = tuple(Constraint("R_II2", _rng_tuple(rng, n, 8)) for _ in range(m))
    return Instance(KIND_SAT, n, cons)


def _make_umo_sampler(rel_name: str, arity: int, n_range=(3, 6), m_range=(1, 3),
                      cover_all: bool = False):
    def sampler(rng: random.Random) -> Instance:
        n = rng.randint(*n_range)
        m = rng.randint(*m_range)
        if cover_all:
            slots = m * arity
            while slots < n:
                m += 1
                slots = m * arity
            pool = list(range(n)) + [rng.randrange(n) for _ in range(slots - n)]
            rng.shuffle(pool)
            cons = tuple(Constraint(rel_name, tuple(pool[i * arity:(i + 1) * arity]))
                         for i in range(m))
        else:
            cons = tuple(Constraint(rel_name, _rng_tuple(rng, n, arity))
                         for _ in range(m))
        return Instance(KIND_UMO, n, cons)

    return sampler


def _sample_wmo_ii2(rng: random.Random) -> Instance:
    n = rng.randint(4, 8)
    m = rng.randint(1, 3)
    cons = tuple(Constraint("R_II2", _rng_tuple(rng, n, 8)) for _ in range(m))
    weights = tuple(Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n))
    return Instance(KIND_WMO, n, cons, var_weights=weights)


def _exhaustive_minones_or2() -> Iterator[Instance]:
    for n in range(1, 5):
        apps = [(i, j) for i in range(n) for j in range(n)]
        for size in range(0, 4):
            for combo in itertools.combinations(apps, size):
                cons = tuple(Constraint("OR2", args) for args in combo)
                yield Instance(KIND_MINO, n, cons)


def _sample_uvcsp(rng: random.Random) -> Instance:
    if rng.random() < 0.5:
        k, m_max = 2, 1
    else:
        k, m_max = 1, 2
    table = tuple(Fraction(rng.randint(0, 2)) for _ in range(1 << k))
    parts = "_".join(str(v) for v in table)
    ref = f"cost{k}_{parts}"
    n = rng.randint(2, 3)
    m = rng.randint(1, m_max)
    cons = tuple(Constraint(ref, _rng_tuple(rng, n, k)) for _ in range(m))
    return Instance(KIND_VCSP, n, cons)


def _exhaustive_maxcut() -> Iterator[Instance]:
    for n in range(2, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for size in range(0, 4):
            for combo in itertools.combinations(pairs, size):
                cons = tuple(Constraint("edge", e) for e in combo)
                yield Instance(KIND_MAXCUT, n, cons)


def _exhaustive_vcsp_neq() -> Iterator[Instance]:
    for n in range(2, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for size in range(0, 4):
            for combo in itertools.combinations(pairs, size):
                cons = tuple(Constraint("f_neq", e) for e in combo)
                yield Instance(KIND_VCSP, n, cons)


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


def _vars(f: Callable[[int], int]) -> Callable[[Instance, Resolver], int]:
    """A variable count that depends on the source's variable count alone."""
    return lambda inst, resolver: f(inst.num_vars)


def _offset(f: Callable[[int], int]) -> Callable[[Instance, Resolver], Fraction]:
    """An offset that depends on the source's variable count alone."""
    return lambda inst, resolver: Fraction(f(inst.num_vars))


def _text(note: str) -> Callable[[Instance, Resolver], str]:
    """A note that does not depend on the source."""
    return lambda inst, resolver: note


REGISTRY: dict[str, ReductionRecord] = {}


def _register(rec: ReductionRecord) -> None:
    REGISTRY[rec.name] = rec


_register(ReductionRecord(
    "sat2_to_umo_IS21", KIND_SAT, ("R_II2",), KIND_UMO, ("R_IS1_2",),
    "LV", "6", "1 + sum of feasible assignments <= 3m+1 <= 6n+1",
    build=_build_sat2_to_umo_is21,
    num_vars=lambda inst, resolver: 3 * inst.num_constraints + 1, exact=False,
    measure=Decision(lambda inst: Threshold(">=", Fraction(inst.num_constraints))),
    note=lambda inst, resolver: f"satisfiable iff optimum >= m = {inst.num_constraints}",
    sampler=_sample_sat2))

_register(ReductionRecord(
    "sat2_to_umo_IL2", KIND_SAT, ("R_II2",), KIND_UMO, ("R_IL2",),
    "LV", "8", "2+2n+3m (<= 2+8n)",
    build=_build_sat2_to_umo_il2,
    num_vars=lambda inst, resolver: 2 + 2 * inst.num_vars + 3 * inst.num_constraints,
    exact=True, measure=Decision(_il2_threshold),
    note=lambda inst, resolver:
        f"satisfiable iff optimum >= n+1+2m = {_il2_threshold(inst).value}",
    sampler=_sample_sat2, invariant=_hits_threshold_exactly))

_register(ReductionRecord(
    "umo_IL2_to_IL0", KIND_UMO, ("R_IL2",), KIND_UMO, ("R_IL0",),
    "LV", "2", "2+2n",
    build=_build_umo_il2_to_il0, num_vars=_vars(lambda n: 2 + 2 * n), exact=True,
    measure=Affine(1, _offset(lambda n: n + 1)), note=_text("measure map k -> n+1+k"),
    sampler=_make_umo_sampler("R_IL2", 8)))

_register(ReductionRecord(
    "umo_II2_to_IN2", KIND_UMO, ("R_II2",), KIND_UMO, ("R_IN2",),
    "LV", "3", "2+3n",
    build=_build_umo_ii2_to_in2, num_vars=_vars(lambda n: 2 + 3 * n), exact=True,
    measure=Affine(1, _offset(lambda n: 1 + 2 * n)), note=_text("measure map k -> 1+2n+k"),
    sampler=_make_umo_sampler("R_II2", 8)))

_register(ReductionRecord(
    "umo_IS21_to_ID2", KIND_UMO, ("R_IS1_2",), KIND_UMO, ("R_ID2",),
    "LV", "3", "2+3n",
    build=_build_umo_is21_to_id2, num_vars=_vars(lambda n: 2 + 3 * n), exact=True,
    measure=Affine(1, _offset(lambda n: 1 + n)), note=_text("measure map k -> 1+n+k"),
    sampler=_make_umo_sampler("R_IS1_2", 3, n_range=(2, 6))))

_register(ReductionRecord(
    "umo_IL2_to_IL3", KIND_UMO, ("R_IL2",), KIND_UMO, ("R_IL3",),
    "LV", "3", "2+3n",
    build=_build_umo_il2_to_il3, num_vars=_vars(lambda n: 2 + 3 * n), exact=True,
    measure=Affine(1, _offset(lambda n: 1 + 2 * n)), note=_text("measure map k -> 1+2n+k"),
    sampler=_make_umo_sampler("R_IL2", 8)))

for _ext_formula in EXTENSION_FORMULAS:
    _register(ReductionRecord(
        f"umo_qpp_{_ext_formula.target[2:]}", KIND_UMO, (_ext_formula.source,),
        KIND_UMO, (_ext_formula.target,),
        "CV", "1", "n+2",
        build=_make_qpp_build(_ext_formula), num_vars=_vars(lambda n: n + 2), exact=True,
        measure=Affine(1, _offset(lambda n: 1)),
        note=_text("threshold map k -> k+1 (y1 counted)"),
        sampler=_make_umo_sampler(_ext_formula.source, _ext_formula.formula.total_vars - 2,
                                  n_range=(3, 6), cover_all=True)))

for _ident in ARGMAX_IDENTITIES:
    _register(ReductionRecord(
        f"wmo_qwpp_{_ident.base[2:]}", KIND_WMO, (_ident.target,),
        KIND_WMO, (_ident.base,),
        "CV", "1", "n",
        build=_make_qwpp_build(_ident), num_vars=_vars(lambda n: n), exact=True,
        measure=Affine(1, _make_qwpp_offset(_ident)), note=_make_qwpp_note(_ident),
        sampler=_sample_wmo_ii2,
        chain_before=("wmo_qwpp_IL2",) if _ident.target == "R_IL2" else ()))

_register(ReductionRecord(
    "maxones_to_minones", KIND_MINO, ("*",), KIND_UMO, ("*", "neq"),
    "LV", "3", "3n",
    build=_build_maxones_to_minones, num_vars=_vars(lambda n: 3 * n), exact=True,
    measure=Affine(-1, _offset(lambda n: 2 * n)),
    note=lambda inst, resolver: f"optimum map K -> 2n-K with n = {inst.num_vars}",
    exhaustive=_exhaustive_minones_or2))

_register(ReductionRecord(
    "uvcspd_to_minones", KIND_VCSP, ("*",), KIND_MINO, ("eq", "neq", "Rf_*"),
    "LV", "1+d(2s+t(2^s+1))", "|V| + |C|(2s + t(2^s+1))",
    build=_build_uvcspd_to_minones, num_vars=_uvcspd_bound, exact=False,
    measure=Affine(1, _arity_sum),
    note=lambda inst, resolver:
        f"optimum map K -> K + sum of arities = K + {_arity_sum(inst, resolver)}",
    sampler=_sample_uvcsp))

_register(ReductionRecord(
    "sat2_to_uvcsp2", KIND_SAT, ("R_II2",), KIND_VCSP, ("fnot_R_II2",),
    "CV", "1", "n (terms <= 2n)",
    build=_build_sat2_to_uvcsp2, num_vars=_vars(lambda n: n), exact=True,
    measure=Decision(lambda inst: Threshold("<=", Fraction(0))),
    note=_text("satisfiable iff minimum 0; at most 2n unit terms"),
    sampler=_sample_sat2))

_register(ReductionRecord(
    "maxcut_to_vcsp_neq", KIND_MAXCUT, ("edge",), KIND_VCSP, ("f_neq",),
    "CV", "1", "n",
    build=_build_maxcut_to_vcsp, num_vars=_vars(lambda n: n), exact=True,
    measure=Affine(-1, lambda inst, resolver: _total_weight(inst)),
    note=lambda inst, resolver: f"cut k <-> objective {_total_weight(inst)} - k",
    exhaustive=_exhaustive_maxcut))

_register(ReductionRecord(
    "vcsp_neq_to_maxcut", KIND_VCSP, ("f_neq",), KIND_MAXCUT, ("edge",),
    "CV", "1", "n",
    build=_build_vcsp_to_maxcut, num_vars=_vars(lambda n: n), exact=True,
    measure=Affine(-1, lambda inst, resolver: _total_weight(inst)),
    note=lambda inst, resolver: f"objective k <-> cut {_total_weight(inst)} - k",
    exhaustive=_exhaustive_vcsp_neq))

_register(ReductionRecord(
    "maxcsp_nandTF_to_neq", KIND_MAXCSP, ("NAND2", "T", "F"), KIND_MAXCSP, ("neq",),
    "CV", "1", "n+2",
    build=_build_maxcsp_nandtf_to_neq, num_vars=_vars(lambda n: n + 2), exact=True,
    measure=Affine(1, lambda inst, resolver: _maxcsp_big_m(inst)),
    note=lambda inst, resolver:
        f"satisfied weight k -> M + k with M = {_maxcsp_big_m(inst)}",
    sampler=_sample_maxcsp_nandtf, invariant=_globals_differ_in_every_optimum))

_register(ReductionRecord(
    "maxcutc_to_wmaxones", KIND_MAXCUT, ("edge",), KIND_WMO, ("XOR3",),
    "LV", "1+c", "|V| + |E|",
    build=_build_maxcutc_to_wmaxones,
    num_vars=lambda inst, resolver: inst.num_vars + inst.num_constraints, exact=True,
    measure=Affine(1, _offset(lambda n: 0)),
    note=lambda inst, resolver: _XOR3_GAP_NOTE,
    sampler=_sample_weighted_maxcut))

QPP_FAMILY = tuple(n for n in REGISTRY if n.startswith("umo_qpp_"))
QWPP_FAMILY = tuple(n for n in REGISTRY if n.startswith("wmo_qwpp_"))
ACCEPTANCE_ENTRIES = (
    "sat2_to_umo_IS21", "sat2_to_umo_IL2", "umo_IL2_to_IL0", "umo_II2_to_IN2",
    "umo_IS21_to_ID2", "umo_IL2_to_IL3", "maxones_to_minones",
    "uvcspd_to_minones", "sat2_to_uvcsp2", "maxcut_to_vcsp_neq",
    "vcsp_neq_to_maxcut", "maxcsp_nandTF_to_neq", "maxcutc_to_wmaxones",
)


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
    if "*" in language:
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
    for c in inst.constraints:
        resolver.resolve(inst.kind, c)
    out = rec.build(inst, resolver)
    _check_side(name, "target", out, rec.target_kind, rec.target_language)
    declared = rec.num_vars(inst, resolver)
    if out.num_vars > declared or (rec.exact and out.num_vars != declared):
        raise BoundViolation(f"{name}: produced {out.num_vars} variables, declared "
                             + (f"{declared}" if rec.exact else f"bound {declared}"))
    info = ApplyInfo(notes=(rec.note(inst, resolver),))
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


def _measure_failure(rec: ReductionRecord, src: Instance, tgt: Instance, sign: int,
                     offset: Optional[Fraction], resolver: Resolver) -> Optional[str]:
    """Why tgt breaks the entry's measure map or invariant on src, or None.

    One rule serves every entry; for an affine entry, (sign, offset) is the
    map composed along `chain_before` (a decision entry has no offset).
    """
    sres = solve(src, resolver)
    tres = solve(tgt, resolver)
    if isinstance(rec.measure, Decision):
        reached = meets_threshold(tres, tgt.threshold)
        if sres.satisfiable != reached:
            return (f"decision mismatch at threshold {tgt.threshold.value}: "
                    f"source sat={sres.satisfiable}, target optimum {tres.optimum}")
    elif sres.satisfiable:
        want = offset + sres.optimum if sign > 0 else offset - sres.optimum
        if not (tres.satisfiable and tres.optimum == want):
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
    if rec.exhaustive is not None:
        cases = list(rec.exhaustive())
        mode = "exhaustive"
    else:
        rng = random.Random(_entry_seed(seed, name))
        cases = [rec.sampler(rng) for _ in range(trials)]
        mode = "random"
    for src in cases:
        try:
            # compose the affine maps of the chain: target = sign * source + offset;
            # the first map is taken as it is
            tgt, sign, offset = src, 1, None
            for step in rec.chain_before + (name,):
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
    return CertifyReport(name, mode, len(cases), failures)
