"""Registry of named instance transformations with exact threshold maps.

Every entry declares its variable-count bound as an explicit function of the
source's variable and constraint counts; `apply` asserts the declared count
at runtime.  Output variables are ordered originals first, then globals
(v0, v1), then per-variable auxiliaries, then per-constraint auxiliaries.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .definitions import (
    ARGMAX_IDENTITIES,
    ArgmaxIdentity,
    EXTENSION_FORMULAS,
    ExtensionFormula,
    search_definition,
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
    Resolver,
    Threshold,
    default_resolver,
    rf_name,
)
from .oracle import OracleError, solve
from .relations import Relation

__all__ = [
    "ReductionError", "ReductionRecord", "CertifyReport", "REGISTRY",
    "apply", "certify", "registry_names",
]


class ReductionError(ValueError):
    pass


class BoundViolation(ReductionError):
    """The produced instance does not match the declared variable bound."""


@dataclass
class ApplyInfo:
    threshold: Optional[Threshold] = None
    value_offset: Optional[Fraction] = None  # target optimum = source + offset
    notes: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReductionRecord:
    name: str
    source_kind: str
    source_language: tuple[str, ...]
    target_kind: str
    target_language: tuple[str, ...]
    kind_tag: str  # "CV" or "LV"
    lv_parameter: str  # the factor C, as text for the report
    bound_text: str
    apply_fn: Callable[[Instance, Resolver], tuple[Instance, ApplyInfo]]
    check_fn: Callable[[Instance, Instance, ApplyInfo, Resolver, int], Optional[str]]
    sampler: Optional[Callable[[random.Random], Instance]] = None
    exhaustive: Optional[Callable[[], Iterator[Instance]]] = None
    chain_before: tuple[str, ...] = ()  # certify passes samples through these first


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ReductionError(msg)


def _assert_exact_vars(inst: Instance, expected: int, name: str) -> None:
    if inst.num_vars != expected:
        raise BoundViolation(
            f"{name}: produced {inst.num_vars} variables, declared {expected}")


def _assert_max_vars(inst: Instance, upper: int, name: str) -> None:
    if inst.num_vars > upper:
        raise BoundViolation(
            f"{name}: produced {inst.num_vars} variables, declared bound {upper}")


def _check_degree_bound(inst: Instance, bound: int) -> None:
    count: dict[int, int] = {}
    for c in inst.constraints:
        for v in set(c.args):
            count[v] = count.get(v, 0) + 1
    offending = [v for v, k in count.items() if k > bound]
    _require(not offending,
             f"degree bound violated: variable(s) {offending} occur in more than {bound} constraints")


def _require_language(inst: Instance, allowed: tuple[str, ...], name: str) -> None:
    extra = [r for r in inst.language() if r not in allowed]
    _require(not extra, f"{name}: source language must be within {allowed}, got {extra}")


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


def _apply_sat2_to_umo_is21(inst: Instance, resolver: Resolver):
    _require(inst.kind == KIND_SAT, "source must be a SAT instance")
    _require_language(inst, ("R_II2",), "sat2_to_umo_IS21")
    _check_degree_bound(inst, 2)
    rel = resolver.relation("R_II2")
    m = inst.num_constraints
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
    out = Instance(KIND_UMO, 1 + nv, tuple(cons),
                   threshold=Threshold(">=", Fraction(m)))
    _assert_max_vars(out, 3 * m + 1, "sat2_to_umo_IS21")
    info = ApplyInfo(threshold=out.threshold,
                     notes=(f"satisfiable iff optimum >= m = {m}",))
    return out, info


def _check_sat2_to_umo_is21(src, tgt, info, resolver, jobs) -> Optional[str]:
    sat = solve(src, resolver, jobs=jobs).satisfiable
    res = solve(tgt, resolver, jobs=jobs)
    m = src.num_constraints
    reached = res.satisfiable and res.optimum >= m
    if sat != reached:
        return f"decision mismatch: source sat={sat}, target optimum {res.optimum} vs m={m}"
    return None


# ---------------------------------------------------------------------------
# Entry 2: bounded-occurrence satisfiability -> unweighted Max-Ones over the
# affine-with-inequalities relation


def _apply_sat2_to_umo_il2(inst: Instance, resolver: Resolver):
    _require(inst.kind == KIND_SAT, "source must be a SAT instance")
    _require_language(inst, ("R_II2",), "sat2_to_umo_IL2")
    _check_degree_bound(inst, 2)
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
    total = 2 + 2 * n + 3 * m
    out = Instance(KIND_UMO, total, tuple(cons),
                   threshold=Threshold(">=", Fraction(n + 1 + 2 * m)))
    _assert_exact_vars(out, total, "sat2_to_umo_IL2")
    _assert_max_vars(out, 2 + 8 * n, "sat2_to_umo_IL2")
    return out, ApplyInfo(threshold=out.threshold,
                          notes=(f"satisfiable iff optimum >= n+1+2m = {n + 1 + 2 * m}",))


def _check_sat2_to_umo_il2(src, tgt, info, resolver, jobs) -> Optional[str]:
    sat = solve(src, resolver, jobs=jobs).satisfiable
    res = solve(tgt, resolver, jobs=jobs)
    n, m = src.num_vars, src.num_constraints
    want = Fraction(n + 1 + 2 * m)
    reached = res.satisfiable and res.optimum >= want
    if sat != reached:
        return f"decision mismatch at threshold {want}: sat={sat}, target={res.optimum}"
    if sat and res.optimum != want:
        return f"satisfiable source must hit exactly {want}, got {res.optimum}"
    return None


# ---------------------------------------------------------------------------
# Entries 3-6: unweighted Max-Ones interreductions between weak bases


def _umo_pre(inst: Instance, source_rel: str, name: str) -> None:
    _require(inst.kind == KIND_UMO, f"{name}: source must be U-Max-Ones")
    _require(inst.var_weights is None, f"{name}: source must be unweighted")
    _require_language(inst, (source_rel,), name)


def _apply_umo_il2_to_il0(inst: Instance, resolver: Resolver):
    _umo_pre(inst, "R_IL2", "umo_IL2_to_IL0")
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
    out = Instance(KIND_UMO, 2 + 2 * n, tuple(cons))
    _assert_exact_vars(out, 2 + 2 * n, "umo_IL2_to_IL0")
    offset = Fraction(n + 1)
    th = None
    if inst.threshold is not None:
        th = Threshold(inst.threshold.direction, inst.threshold.value + offset)
        out = out.with_threshold(th.direction, th.value)
    return out, ApplyInfo(threshold=th, value_offset=offset,
                          notes=("measure map k -> n+1+k",))


def _exact_offset_check(strict_upper_on_unsat: Optional[Fraction]):
    def check(src, tgt, info, resolver, jobs) -> Optional[str]:
        sres = solve(src, resolver, jobs=jobs)
        tres = solve(tgt, resolver, jobs=jobs)
        off = info.value_offset
        if sres.satisfiable:
            want = sres.optimum + off
            if not (tres.satisfiable and tres.optimum == want):
                return f"optimum map failed: source {sres.optimum}, target {tres.optimum}, wanted {want}"
        else:
            if tres.satisfiable:
                limit = off if strict_upper_on_unsat is None else strict_upper_on_unsat
                if tres.optimum >= limit:
                    return (f"unsatisfiable source but target reaches {tres.optimum}"
                            f" >= {limit}")
        return None

    return check


def _apply_umo_ii2_to_in2(inst: Instance, resolver: Resolver):
    _umo_pre(inst, "R_II2", "umo_II2_to_IN2")
    n = inst.num_vars
    v0, v1 = n, n + 1
    ys = [n + 2 + i for i in range(2 * n)]
    cons = [Constraint("R_IN2", (v0, v0, v0, v0, v1, v1, v1, v1))]
    cons += [Constraint("R_IN2", (v0, v0, v0, v0, y, y, y, y)) for y in ys]
    for c in inst.constraints:
        a = c.args
        cons.append(Constraint("R_IN2", (v0, a[0], a[1], a[5], v1, a[3], a[4], a[2])))
        cons.append(Constraint("R_IN2", (v0, a[6], a[6], v0, v1, a[7], a[7], v1)))
    out = Instance(KIND_UMO, 2 + 3 * n, tuple(cons))
    _assert_exact_vars(out, 2 + 3 * n, "umo_II2_to_IN2")
    offset = Fraction(1 + 2 * n)
    th = None
    if inst.threshold is not None:
        th = Threshold(inst.threshold.direction, inst.threshold.value + offset)
        out = out.with_threshold(th.direction, th.value)
    return out, ApplyInfo(threshold=th, value_offset=offset,
                          notes=("measure map k -> 1+2n+k",))


def _apply_umo_is21_to_id2(inst: Instance, resolver: Resolver):
    _umo_pre(inst, "R_IS1_2", "umo_IS21_to_ID2")
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
    out = Instance(KIND_UMO, 2 + 3 * n, tuple(cons))
    _assert_exact_vars(out, 2 + 3 * n, "umo_IS21_to_ID2")
    offset = Fraction(1 + n)
    th = None
    if inst.threshold is not None:
        th = Threshold(inst.threshold.direction, inst.threshold.value + offset)
        out = out.with_threshold(th.direction, th.value)
    return out, ApplyInfo(threshold=th, value_offset=offset,
                          notes=("measure map k -> 1+n+k",))


def _apply_umo_il2_to_il3(inst: Instance, resolver: Resolver):
    _umo_pre(inst, "R_IL2", "umo_IL2_to_IL3")
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
    out = Instance(KIND_UMO, 2 + 3 * n, tuple(cons))
    _assert_exact_vars(out, 2 + 3 * n, "umo_IL2_to_IL3")
    offset = Fraction(1 + 2 * n)
    th = None
    if inst.threshold is not None:
        th = Threshold(inst.threshold.direction, inst.threshold.value + offset)
        out = out.with_threshold(th.direction, th.value)
    return out, ApplyInfo(threshold=th, value_offset=offset,
                          notes=("measure map k -> 1+2n+k",))


# ---------------------------------------------------------------------------
# Entry 7: quantifier-free extensions with two fresh globals (k -> k+1)


def _make_qpp_apply(ext: ExtensionFormula):
    def apply_fn(inst: Instance, resolver: Resolver):
        name = f"umo_qpp_{ext.target[2:]}"
        _umo_pre(inst, ext.source, name)
        n = inst.num_vars
        k = ext.formula.total_vars - 2
        y0, y1 = n, n + 1
        cons: list[Constraint] = []
        for c in inst.constraints:
            for atom_name, slots in ext.formula.atoms:
                args = tuple(c.args[s] if s < k else (y0 if s == k else y1)
                             for s in slots)
                cons.append(Constraint(atom_name, args))
        out = Instance(KIND_UMO, n + 2, tuple(cons))
        _assert_exact_vars(out, n + 2, name)
        offset = Fraction(1)
        th = None
        if inst.threshold is not None:
            th = Threshold(inst.threshold.direction, inst.threshold.value + offset)
            out = out.with_threshold(th.direction, th.value)
        return out, ApplyInfo(threshold=th, value_offset=offset,
                              notes=("threshold map k -> k+1 (y1 counted)",))

    return apply_fn


# ---------------------------------------------------------------------------
# Entry 8: weighted argmax-gadget replacements (big-M composition)


def _gadget_max(identity: ArgmaxIdentity, resolver: Resolver) -> Fraction:
    target = resolver.relation(identity.target)
    vals = {sum(Fraction(w) for p, w in enumerate(identity.weights) if (t >> p) & 1)
            for t in target.tuples}
    if len(vals) != 1:
        raise ReductionError("argmax gadget objective is not constant on its target")
    return vals.pop()


def _make_qwpp_apply(identity: ArgmaxIdentity):
    def apply_fn(inst: Instance, resolver: Resolver):
        name = f"wmo_qwpp_{identity.base[2:]}"
        _require(inst.kind == KIND_WMO, f"{name}: source must be W-Max-Ones")
        _require_language(inst, (identity.target,), name)
        n, m = inst.num_vars, inst.num_constraints
        weights = list(inst.weights_or_default())
        big_m = Fraction(1) + sum(weights, Fraction(0))
        new_weights = list(weights)
        cons: list[Constraint] = []
        for c in inst.constraints:
            for slots in identity.atoms:
                cons.append(Constraint(identity.base, tuple(c.args[s] for s in slots)))
            for p, w in enumerate(identity.weights):
                if w:
                    new_weights[c.args[p]] += big_m * w
        out = Instance(KIND_WMO, n, tuple(cons), var_weights=tuple(new_weights))
        _assert_exact_vars(out, n, name)
        c_val = _gadget_max(identity, resolver)
        offset = big_m * c_val * m
        th = None
        if inst.threshold is not None:
            th = Threshold(inst.threshold.direction, inst.threshold.value + offset)
            out = out.with_threshold(th.direction, th.value)
        info = ApplyInfo(threshold=th, value_offset=offset,
                         notes=(f"big-M = {big_m}, per-gadget maximum {c_val}",))
        info.extra["big_m"] = big_m
        return out, info

    return apply_fn


def _check_qwpp(src, tgt, info, resolver, jobs) -> Optional[str]:
    sres = solve(src, resolver, jobs=jobs)
    tres = solve(tgt, resolver, jobs=jobs)
    off = info.value_offset
    if sres.satisfiable:
        want = sres.optimum + off
        if not (tres.satisfiable and tres.optimum == want):
            return f"optimum map failed: source {sres.optimum}, target {tres.optimum}, wanted {want}"
    elif tres.satisfiable and tres.optimum >= off:
        return f"unsatisfiable source but target reaches {tres.optimum} >= {off}"
    return None


# ---------------------------------------------------------------------------
# Entry 9: Min-Ones -> Max-Ones with per-variable complement pairs


def _apply_maxones_to_minones(inst: Instance, resolver: Resolver):
    _require(inst.kind == KIND_MINO, "source must be a Min-Ones instance")
    _require(inst.var_weights is None, "unweighted source required")
    n = inst.num_vars
    cons = list(inst.constraints)
    for i in range(n):
        cons.append(Constraint("neq", (i, n + 2 * i)))
        cons.append(Constraint("neq", (i, n + 2 * i + 1)))
    out = Instance(KIND_UMO, 3 * n, tuple(cons))
    _assert_exact_vars(out, 3 * n, "maxones_to_minones")
    th = None
    if inst.threshold is not None:
        flipped = ">=" if inst.threshold.direction == "<=" else "<="
        th = Threshold(flipped, Fraction(2 * n) - inst.threshold.value)
        out = out.with_threshold(th.direction, th.value)
    info = ApplyInfo(threshold=th, notes=(f"optimum map K -> 2n-K with n = {n}",))
    info.extra["n"] = n
    return out, info


def _check_maxones_to_minones(src, tgt, info, resolver, jobs) -> Optional[str]:
    sres = solve(src, resolver, jobs=jobs)
    tres = solve(tgt, resolver, jobs=jobs)
    if sres.satisfiable != tres.satisfiable:
        return f"satisfiability mismatch: {sres.satisfiable} vs {tres.satisfiable}"
    if sres.satisfiable:
        want = Fraction(2 * src.num_vars) - sres.optimum
        if tres.optimum != want:
            return f"optimum map failed: {tres.optimum} != 2n-K = {want}"
    return None


# ---------------------------------------------------------------------------
# Entry 10: unweighted valued instances -> Min-Ones via value-translation
# relations


def _apply_uvcspd_to_minones(inst: Instance, resolver: Resolver):
    _require(inst.kind == KIND_VCSP, "source must be a VCSP instance")
    n = inst.num_vars
    next_var = n
    cons: list[Constraint] = []
    used_first: set[int] = set()
    arity_sum = 0
    s_max, t_max = 0, 0
    for c in inst.constraints:
        _require(c.weight in (None, Fraction(1)),
                 "unweighted valued instances only (unit term weights)")
        fn = resolver.costfn(c.ref)
        _require(all(v.denominator == 1 for v in fn.table),
                 "integer cost values required")
        k = fn.arity
        _require(k + (1 << k) <= 24, f"cost arity {k} makes the translation relation too wide")
        arity_sum += k
        s_max = max(s_max, k)
        t_max = max(t_max, int(fn.max_value))
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
    out = Instance(KIND_MINO, next_var, tuple(cons))
    m = inst.num_constraints
    # the stated bound presumes a nontrivial value range; t = 0 (identically
    # zero costs) still emits the 2^s translation block, so clamp t at 1
    t_eff = max(t_max, 1)
    upper = n + m * (2 * s_max + t_eff * ((1 << s_max) + 1)) if m else n
    _assert_max_vars(out, upper, "uvcspd_to_minones")
    offset = Fraction(arity_sum)
    th = None
    if inst.threshold is not None:
        th = Threshold(inst.threshold.direction, inst.threshold.value + offset)
        out = out.with_threshold(th.direction, th.value)
    info = ApplyInfo(threshold=th, value_offset=offset,
                     notes=(f"optimum map K -> K + sum of arities = K + {arity_sum}",))
    return out, info


def _check_uvcspd(src, tgt, info, resolver, jobs) -> Optional[str]:
    sres = solve(src, resolver, jobs=jobs)
    tres = solve(tgt, resolver, jobs=jobs)
    want = sres.optimum + info.value_offset
    if not tres.satisfiable or tres.optimum != want:
        return f"optimum map failed: source {sres.optimum}, target {tres.optimum}, wanted {want}"
    return None


# ---------------------------------------------------------------------------
# Entry 11: bounded-occurrence satisfiability -> unweighted valued instance


def _apply_sat2_to_uvcsp2(inst: Instance, resolver: Resolver):
    _require(inst.kind == KIND_SAT, "source must be a SAT instance")
    _require_language(inst, ("R_II2",), "sat2_to_uvcsp2")
    _check_degree_bound(inst, 2)
    n = inst.num_vars
    _require(inst.num_constraints <= 2 * n, "at most 2n constraints expected")
    cons = [Constraint("fnot_R_II2", c.args) for c in inst.constraints]
    out = Instance(KIND_VCSP, n, tuple(cons), threshold=Threshold("<=", Fraction(0)))
    _assert_exact_vars(out, n, "sat2_to_uvcsp2")
    return out, ApplyInfo(threshold=out.threshold,
                          notes=("satisfiable iff minimum 0; at most 2n unit terms",))


def _check_sat2_to_uvcsp2(src, tgt, info, resolver, jobs) -> Optional[str]:
    sat = solve(src, resolver, jobs=jobs).satisfiable
    tres = solve(tgt, resolver, jobs=jobs)
    if sat != (tres.optimum == 0):
        return f"decision mismatch: sat={sat}, target minimum {tres.optimum}"
    return None


# ---------------------------------------------------------------------------
# Entry 12: Max-Cut <-> VCSP(f_neq)


def _total_weight(inst: Instance) -> Fraction:
    return sum((c.weight if c.weight is not None else Fraction(1)
                for c in inst.constraints), Fraction(0))


def _apply_maxcut_to_vcsp(inst: Instance, resolver: Resolver):
    _require(inst.kind == KIND_MAXCUT, "source must be a Max-Cut instance")
    cons = [Constraint("f_neq", c.args, c.weight) for c in inst.constraints]
    out = Instance(KIND_VCSP, inst.num_vars, tuple(cons))
    _assert_exact_vars(out, inst.num_vars, "maxcut_to_vcsp_neq")
    w = _total_weight(inst)
    th = None
    if inst.threshold is not None:
        flipped = "<=" if inst.threshold.direction == ">=" else ">="
        th = Threshold(flipped, w - inst.threshold.value)
        out = out.with_threshold(th.direction, th.value)
    info = ApplyInfo(threshold=th, notes=(f"cut k <-> objective {w} - k",))
    info.extra["total_weight"] = w
    return out, info


def _apply_vcsp_to_maxcut(inst: Instance, resolver: Resolver):
    _require(inst.kind == KIND_VCSP, "source must be a VCSP instance")
    _require_language(inst, ("f_neq",), "vcsp_neq_to_maxcut")
    cons = [Constraint("edge", c.args, c.weight) for c in inst.constraints]
    out = Instance(KIND_MAXCUT, inst.num_vars, tuple(cons))
    _assert_exact_vars(out, inst.num_vars, "vcsp_neq_to_maxcut")
    w = _total_weight(inst)
    th = None
    if inst.threshold is not None:
        flipped = "<=" if inst.threshold.direction == ">=" else ">="
        th = Threshold(flipped, w - inst.threshold.value)
        out = out.with_threshold(th.direction, th.value)
    info = ApplyInfo(threshold=th, notes=(f"objective k <-> cut {w} - k",))
    info.extra["total_weight"] = w
    return out, info


def _check_cut_vcsp_pair(src, tgt, info, resolver, jobs) -> Optional[str]:
    sres = solve(src, resolver, jobs=jobs)
    tres = solve(tgt, resolver, jobs=jobs)
    w = info.extra["total_weight"]
    if tres.optimum != w - sres.optimum:
        return f"value map failed: {tres.optimum} != {w} - {sres.optimum}"
    return None


# ---------------------------------------------------------------------------
# Entry 13: Max-CSP over {NAND2, T, F} -> Max-CSP(neq)


def _apply_maxcsp_nandtf_to_neq(inst: Instance, resolver: Resolver):
    _require(inst.kind == KIND_MAXCSP, "source must be a Max-CSP instance")
    _require_language(inst, ("NAND2", "T", "F"), "maxcsp_nandTF_to_neq")
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
    big_m = Fraction(1) + sum((c.weight for c in light), Fraction(0))
    cons = [Constraint("neq", (v0, v1), big_m)] + light
    out = Instance(KIND_MAXCSP, n + 2, tuple(cons))
    _assert_exact_vars(out, n + 2, "maxcsp_nandTF_to_neq")
    th = None
    if inst.threshold is not None:
        th = Threshold(inst.threshold.direction, inst.threshold.value + big_m)
        out = out.with_threshold(th.direction, th.value)
    info = ApplyInfo(threshold=th, value_offset=big_m,
                     notes=(f"satisfied weight k -> M + k with M = {big_m}",))
    info.extra["big_m"] = big_m
    return out, info


def _check_maxcsp_neq(src, tgt, info, resolver, jobs) -> Optional[str]:
    sres = solve(src, resolver, jobs=jobs)
    tres = solve(tgt, resolver, jobs=jobs)
    want = sres.optimum + info.extra["big_m"]
    if tres.optimum != want:
        return f"value map failed: {tres.optimum} != {want}"
    # the heavy constraint must bind in every optimal solution
    full = solve(tgt, resolver, want_all=True, jobs=jobs)
    v0, v1 = src.num_vars, src.num_vars + 1
    for mask in full.optimal_set:
        if ((mask >> v0) & 1) == ((mask >> v1) & 1):
            return "an optimal target solution assigns v0 = v1"
    return None


# ---------------------------------------------------------------------------
# Entry 14: bounded-degree Max-Cut -> weighted Max-Ones via the parity
# relation (with the definability gap flagged)


def _apply_maxcutc_to_wmaxones(inst: Instance, resolver: Resolver):
    _require(inst.kind == KIND_MAXCUT, "source must be a Max-Cut instance")
    nv, ne = inst.num_vars, inst.num_constraints
    notes = []
    sr = search_definition(resolver.relation("XOR3"),
                           {"R_II2": resolver.relation("R_II2")},
                           max_aux=1, max_atoms=1, explore_budget=4000)
    if sr.formula is None:
        notes.append("no bounded conjunctive definition of XOR3 over R_II2 found "
                     f"({'search exhausted' if sr.exhausted else 'budget reached'}); "
                     "emitting XOR3 as a target primitive")
        gap = True
    else:  # pragma: no cover - the bounded search cannot succeed (3 < 4 tuples)
        gap = False
    cons: list[Constraint] = []
    weights = [Fraction(0)] * nv
    for c in inst.constraints:
        u, v = c.args
        e = len(weights)
        weights.append(c.weight if c.weight is not None else Fraction(1))
        cons.append(Constraint("XOR3", (u, v, e)))
    out = Instance(KIND_WMO, nv + ne, tuple(cons), var_weights=tuple(weights))
    _assert_exact_vars(out, nv + ne, "maxcutc_to_wmaxones")
    th = None
    if inst.threshold is not None:
        th = Threshold(inst.threshold.direction, inst.threshold.value)
        out = out.with_threshold(th.direction, th.value)
    info = ApplyInfo(threshold=th, value_offset=Fraction(0), notes=tuple(notes))
    info.extra["definability_gap"] = gap
    return out, info


def _check_maxcutc(src, tgt, info, resolver, jobs) -> Optional[str]:
    sres = solve(src, resolver, jobs=jobs)
    tres = solve(tgt, resolver, jobs=jobs)
    if tres.optimum != sres.optimum:
        return f"cut weight {sres.optimum} != target optimum {tres.optimum}"
    return None


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


def _record(name, skind, slang, tkind, tlang, tag, c, bound, apply_fn, check_fn,
            sampler=None, exhaustive=None, chain_before=()):
    return ReductionRecord(name, skind, tuple(slang), tkind, tuple(tlang), tag,
                           c, bound, apply_fn, check_fn, sampler, exhaustive,
                           tuple(chain_before))


REGISTRY: dict[str, ReductionRecord] = {}


def _register(rec: ReductionRecord) -> None:
    REGISTRY[rec.name] = rec


_register(_record(
    "sat2_to_umo_IS21", KIND_SAT, ("R_II2",), KIND_UMO, ("R_IS1_2",),
    "LV", "6", "1 + sum of feasible assignments <= 3m+1 <= 6n+1",
    _apply_sat2_to_umo_is21, _check_sat2_to_umo_is21, sampler=_sample_sat2))

_register(_record(
    "sat2_to_umo_IL2", KIND_SAT, ("R_II2",), KIND_UMO, ("R_IL2",),
    "LV", "8", "2+2n+3m (<= 2+8n)",
    _apply_sat2_to_umo_il2, _check_sat2_to_umo_il2, sampler=_sample_sat2))

_register(_record(
    "umo_IL2_to_IL0", KIND_UMO, ("R_IL2",), KIND_UMO, ("R_IL0",),
    "LV", "2", "2+2n",
    _apply_umo_il2_to_il0, _exact_offset_check(None),
    sampler=_make_umo_sampler("R_IL2", 8)))

_register(_record(
    "umo_II2_to_IN2", KIND_UMO, ("R_II2",), KIND_UMO, ("R_IN2",),
    "LV", "3", "2+3n",
    _apply_umo_ii2_to_in2, _exact_offset_check(None),
    sampler=_make_umo_sampler("R_II2", 8)))

_register(_record(
    "umo_IS21_to_ID2", KIND_UMO, ("R_IS1_2",), KIND_UMO, ("R_ID2",),
    "LV", "3", "2+3n",
    _apply_umo_is21_to_id2, _exact_offset_check(None),
    sampler=_make_umo_sampler("R_IS1_2", 3, n_range=(2, 6))))

_register(_record(
    "umo_IL2_to_IL3", KIND_UMO, ("R_IL2",), KIND_UMO, ("R_IL3",),
    "LV", "3", "2+3n",
    _apply_umo_il2_to_il3, _exact_offset_check(None),
    sampler=_make_umo_sampler("R_IL2", 8)))

for _ext_formula in EXTENSION_FORMULAS:
    _src_arity = _ext_formula.formula.total_vars - 2
    _register(_record(
        f"umo_qpp_{_ext_formula.target[2:]}", KIND_UMO, (_ext_formula.source,),
        KIND_UMO, (_ext_formula.target,),
        "CV", "1", "n+2",
        _make_qpp_apply(_ext_formula), _exact_offset_check(None),
        sampler=_make_umo_sampler(_ext_formula.source, _src_arity,
                                  n_range=(3, 6), cover_all=True)))

for _ident in ARGMAX_IDENTITIES:
    _chain = ("wmo_qwpp_IL2",) if _ident.target == "R_IL2" else ()
    _register(_record(
        f"wmo_qwpp_{_ident.base[2:]}", KIND_WMO, (_ident.target,),
        KIND_WMO, (_ident.base,),
        "CV", "1", "n",
        _make_qwpp_apply(_ident), _check_qwpp,
        sampler=_sample_wmo_ii2, chain_before=_chain))

_register(_record(
    "maxones_to_minones", KIND_MINO, ("*",), KIND_UMO, ("*", "neq"),
    "LV", "3", "3n",
    _apply_maxones_to_minones, _check_maxones_to_minones,
    exhaustive=_exhaustive_minones_or2))

_register(_record(
    "uvcspd_to_minones", KIND_VCSP, ("*",), KIND_MINO, ("eq", "neq", "Rf_*"),
    "LV", "1+d(2s+t(2^s+1))", "|V| + |C|(2s + t(2^s+1))",
    _apply_uvcspd_to_minones, _check_uvcspd, sampler=_sample_uvcsp))

_register(_record(
    "sat2_to_uvcsp2", KIND_SAT, ("R_II2",), KIND_VCSP, ("fnot_R_II2",),
    "CV", "1", "n (terms <= 2n)",
    _apply_sat2_to_uvcsp2, _check_sat2_to_uvcsp2, sampler=_sample_sat2))

_register(_record(
    "maxcut_to_vcsp_neq", KIND_MAXCUT, ("edge",), KIND_VCSP, ("f_neq",),
    "CV", "1", "n",
    _apply_maxcut_to_vcsp, _check_cut_vcsp_pair, exhaustive=_exhaustive_maxcut))

_register(_record(
    "vcsp_neq_to_maxcut", KIND_VCSP, ("f_neq",), KIND_MAXCUT, ("edge",),
    "CV", "1", "n",
    _apply_vcsp_to_maxcut, _check_cut_vcsp_pair, exhaustive=_exhaustive_vcsp_neq))

_register(_record(
    "maxcsp_nandTF_to_neq", KIND_MAXCSP, ("NAND2", "T", "F"), KIND_MAXCSP, ("neq",),
    "CV", "1", "n+2",
    _apply_maxcsp_nandtf_to_neq, _check_maxcsp_neq, sampler=_sample_maxcsp_nandtf))

_register(_record(
    "maxcutc_to_wmaxones", KIND_MAXCUT, ("edge",), KIND_WMO, ("XOR3",),
    "LV", "1+c", "|V| + |E|",
    _apply_maxcutc_to_wmaxones, _check_maxcutc, sampler=_sample_weighted_maxcut))

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


def apply(name: str, inst: Instance, resolver: Optional[Resolver] = None
          ) -> tuple[Instance, ApplyInfo]:
    if name not in REGISTRY:
        raise ReductionError(f"unknown reduction {name!r}")
    resolver = resolver or default_resolver()
    return REGISTRY[name].apply_fn(inst, resolver)


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


def certify(name: str, trials: int = 200, seed: int = 0,
            resolver: Optional[Resolver] = None, jobs: int = 1) -> CertifyReport:
    """Oracle-certify a registry entry on an exhaustive or seeded random corpus."""
    from .fileio import emit_inst

    if name not in REGISTRY:
        raise ReductionError(f"unknown reduction {name!r}")
    rec = REGISTRY[name]
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
            current = src
            offset_total = Fraction(0)
            for pre in rec.chain_before:
                current, pre_info = apply(pre, current, resolver)
                if pre_info.value_offset is not None:
                    offset_total += pre_info.value_offset
            tgt, info = apply(name, current, resolver)
            if info.value_offset is not None and rec.chain_before:
                info.value_offset += offset_total
            msg = rec.check_fn(src, tgt, info, resolver, jobs)
        except (ReductionError, InstanceError) as exc:
            msg = f"apply failed: {exc}"
        except OracleError as exc:
            msg = f"oracle failed: {exc}"
        if msg is not None:
            failures.append((emit_inst(src), msg))
    return CertifyReport(name, mode, len(cases), failures)
