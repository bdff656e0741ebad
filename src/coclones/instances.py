"""Problem instances and the name resolver shared by oracles and reductions.

An instance is a variable count plus constraint applications; references to
relations and cost functions are by name.  Generated artifacts use
self-describing parametric names (e.g. Rf_2_11 encodes arity and support)
so emitted files stay self-contained.  `Resolver.resolve_all` is the one
rule for what the constraints mean in an instance of a given kind: what
each ref names, its arity, and whether it may carry a weight
(`Resolver.resolve` applies it to one constraint).
"""

from __future__ import annotations

import copy
import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Optional, Sequence

from .postlattice import parse_coclone_name
from .relations import (
    MAX_RELATION_ARITY,
    Relation,
    RelationError,
    rel_eq,
    rel_even,
    rel_false,
    rel_nand,
    rel_neq,
    rel_odd,
    rel_one_in_three,
    rel_or,
    rel_true,
)
from .valued import MAX_COST_ARITY, CostFunction, f_neq, indicator_cost
from .weakbases import weak_base

KIND_SAT = "SAT"
KIND_UMO = "U-Max-Ones"
KIND_WMO = "W-Max-Ones"
KIND_MINO = "Min-Ones"
KIND_VCSP = "VCSP"
KIND_MAXCSP = "Max-CSP"
KIND_MAXCUT = "Max-Cut"

ALL_KINDS = (KIND_SAT, KIND_UMO, KIND_WMO, KIND_MINO, KIND_VCSP, KIND_MAXCSP, KIND_MAXCUT)

MAXIMIZING_KINDS = (KIND_UMO, KIND_WMO, KIND_MAXCSP, KIND_MAXCUT)


class InstanceError(ValueError):
    pass


# The errors of the solver stack live here, beside InstanceError, so that the
# CLI can catch them without importing that stack (and numpy with it).


class OracleError(RuntimeError):
    pass


class GadgetError(ValueError):
    pass


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class Constraint:
    ref: str
    args: tuple[int, ...]
    weight: Optional[Fraction] = None


@dataclass(frozen=True)
class Threshold:
    direction: str  # ">=" or "<="
    value: Fraction

    def __post_init__(self) -> None:
        if self.direction not in (">=", "<="):
            raise InstanceError(f"bad threshold direction {self.direction!r}")
        object.__setattr__(self, "value", Fraction(self.value))


_ONE = Fraction(1)
_ARGS, _WEIGHT = attrgetter("args"), attrgetter("weight")


def _negative(w) -> bool:
    # a Fraction's sign is its numerator's, read without a Fraction compare
    return w.numerator < 0 if type(w) is Fraction else w < 0


@dataclass(frozen=True)
class Instance:
    kind: str
    num_vars: int
    constraints: tuple[Constraint, ...]
    var_weights: Optional[tuple[Fraction, ...]] = None
    threshold: Optional[Threshold] = None
    projection: Optional[tuple[int, ...]] = None  # wpp gadget files only

    def __post_init__(self) -> None:
        kind, n = self.kind, self.num_vars
        if kind not in ALL_KINDS:
            raise InstanceError(f"unknown problem kind {kind!r}")
        if not 0 <= n <= MAX_RELATION_ARITY:
            raise InstanceError(f"variable count {n} out of range 0..{MAX_RELATION_ARITY}")
        cons = self.constraints
        # every argument and weight at once, and the constraints one by one
        # only to name the first fault
        used = set(chain.from_iterable(map(_ARGS, cons)))
        if (used and (min(used) < 0 or max(used) >= n)
                or any(map(_negative, filter(None, map(_WEIGHT, cons))))):
            for c in cons:
                args, w = c.args, c.weight
                if args and (min(args) < 0 or max(args) >= n):
                    raise InstanceError(f"constraint {c.ref} uses an out-of-range variable")
                if w is not None and _negative(w):
                    raise InstanceError("constraint weights must be nonnegative")
        weights = self.var_weights
        if weights is not None:
            if kind not in (KIND_WMO, KIND_MINO):
                raise InstanceError(f"{kind} instances carry no variable weights")
            if len(weights) != n:
                raise InstanceError("varweights length must equal the variable count")
            if any(map(_negative, weights)):
                raise InstanceError("variable weights must be nonnegative")
        if self.projection is not None and any(
                not 0 <= v < n for v in self.projection):
            raise InstanceError("projection uses an out-of-range variable")

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def language(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for c in self.constraints:
            seen.setdefault(c.ref)
        return tuple(seen)

    def weights_or_default(self) -> tuple[Fraction, ...]:
        if self.var_weights is not None:
            return self.var_weights
        return (_ONE,) * self.num_vars

    def with_threshold(self, direction: str, value: Fraction) -> "Instance":
        # only the threshold is new, and Threshold validates itself; skip
        # re-validating every constraint
        out = copy.copy(self)
        object.__setattr__(out, "threshold", Threshold(direction, Fraction(value)))
        return out


# ---------------------------------------------------------------------------
# Name resolution

_RF_NAME = re.compile(r"^Rf_(\d+)_(\d+)$")
_COST_NAME = re.compile(r"^cost(\d+)_([0-9/_]+)$")
_PARAM_REL = re.compile(r"^(OR|NAND|EVEN|ODD)(\d+)$")
_PARAM_CTORS = {"OR": rel_or, "NAND": rel_nand, "EVEN": rel_even, "ODD": rel_odd}


# Cost names repeat a handful of value tokens ("0", "1/2", "3", ...), so each
# token's Fraction is kept; the 1024 entries bound the cache at about 0.2 MB
# however many distinct tokens a long run meets.
@functools.lru_cache(maxsize=1 << 10)
def _cost_value(v: str) -> Fraction:
    """One value of a cost name, a count or a/b: the pattern admits only ASCII
    digits and slashes, so two ints give it without Fraction's string parser."""
    num, slash, den = v.partition("/")
    return Fraction(int(num), int(den)) if slash else Fraction(int(num))


def _rf_relation(k: int, support_mask: int) -> Relation:
    """Value-translation relation for a cost function with the given support.

    For each argument tuple x there is exactly one row: the y-block is all
    zero when x lies outside the support, else one-hot at index val(x) where
    val(x) = 1 + sum of 2^(j-1) over the one bits of x, i.e. 1 + x.
    """
    arity = k + (1 << k)
    if arity > MAX_RELATION_ARITY:
        raise RelationError(f"Rf relation arity {arity} exceeds cap")
    rows = []
    for x in range(1 << k):
        if (support_mask >> x) & 1:
            rows.append(x | (1 << (k + x)))
        else:
            rows.append(x)
    return Relation.from_masks(arity, rows, f"Rf_{k}_{support_mask}")


def rf_name(fn: CostFunction) -> str:
    support = 0
    for m, v in enumerate(fn.table):
        if v > 0:
            support |= 1 << m
    return f"Rf_{fn.arity}_{support}"


# the builtins, built once; every resolver starts from copies of these maps
_BUILTIN_RELATIONS = {rel.name: rel for rel in (
    rel_eq(), rel_neq(), rel_true(), rel_false(), rel_one_in_three(),
    rel_even(3).renamed("XOR3"))}
_BUILTIN_COSTFNS = {fn.name: fn for fn in (f_neq(),)}


def _built(build, name: str):
    """What build(name) makes of a parametric or weak-base name, or None.

    A name that builds nothing, or that fails to build (OR99 is past the
    arity cap), has no builtin meaning.
    """
    try:
        return build(name)
    except ValueError:
        return None


# A parametric, Rf_ or weak-base name is built once per process, not once per
# resolver, so every resolver shares its relation and the minors and tables
# cached on it: a fresh resolver paid 7-9 us for each weak-base name and 5-7
# us for OR2, NAND2 or EVEN3, and a maxones_to_minones certify rebuilt 59 OR2
# tables.  A resolver's registered relation still wins over its name.  An
# entry holds one relation with what is cached on it, such as at most
# `oracle._TABLES_PER_RELATION` truth tables of up to 2 KB.
@functools.lru_cache(maxsize=1 << 6)
def _build_relation(name: str) -> Optional[Relation]:
    m = _PARAM_REL.match(name)
    if m:
        return _PARAM_CTORS[m.group(1)](int(m.group(2))).renamed(name)
    m = _RF_NAME.match(name)
    if m:
        return _rf_relation(int(m.group(1)), int(m.group(2)))
    if name.startswith("R_I"):
        try:
            coclone = parse_coclone_name(name[2:])
        except RelationError:
            return None
        if coclone.is_chain and coclone.index is None:
            return None
        return weak_base(coclone)
    return None


# An fnot_ cost is built once for each relation and name, not once per
# resolver: its table of 2^arity values took 0.2 ms for the 8-ary R_II2.  The
# arity is at most MAX_COST_ARITY, so an entry holds at most 256 values, and
# the 64 entries bound the cache at about 0.5 MB.
@functools.lru_cache(maxsize=1 << 6)
def _indicator(rel: Relation, name: str) -> CostFunction:
    return indicator_cost(rel, name)


class Resolver:
    """Maps names to relations and cost functions (builtins + registered)."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = dict(_BUILTIN_RELATIONS)
        self._costfns: dict[str, CostFunction] = dict(_BUILTIN_COSTFNS)

    def register_relation(self, rel: Relation, name: Optional[str] = None) -> None:
        """Add rel under its name; a name that already means something must mean rel."""
        nm = name or rel.name
        if nm is None:
            raise InstanceError("cannot register an unnamed relation")
        existing = self._relations.get(nm) or _built(_build_relation, nm)
        if existing is not None and (existing.arity, existing.tuples) != (rel.arity, rel.tuples):
            raise InstanceError(f"conflicting definitions for relation {nm!r}")
        self._relations[nm] = rel if rel.name == nm else rel.renamed(nm)

    def register_costfn(self, fn: CostFunction, name: Optional[str] = None) -> None:
        """Add fn under its name; a name that already means something must mean fn."""
        nm = name or fn.name
        if nm is None:
            raise InstanceError("cannot register an unnamed cost function")
        existing = self._costfns.get(nm) or _built(self._build_costfn, nm)
        if existing is not None and (existing.arity, existing.table) != (fn.arity, fn.table):
            raise InstanceError(f"conflicting definitions for cost function {nm!r}")
        self._costfns[nm] = fn

    def relation(self, name: str) -> Relation:
        rel = self._relations.get(name)
        if rel is not None:
            return rel
        built = _build_relation(name)
        if built is None:
            raise InstanceError(f"unknown relation {name!r}")
        self._relations[name] = built
        return built

    def costfn(self, name: str) -> CostFunction:
        fn = self._costfns.get(name)
        if fn is not None:
            return fn
        built = self._build_costfn(name)
        if built is None:
            raise InstanceError(f"unknown cost function {name!r}")
        self._costfns[name] = built
        return built

    def _build_costfn(self, name: str) -> Optional[CostFunction]:
        if name.startswith("fnot_"):
            try:
                rel = self.relation(name[len("fnot_"):])
            except InstanceError:
                return None
            return _indicator(rel, name)
        m = _COST_NAME.match(name)
        if m:
            arity = int(m.group(1))
            parts = m.group(2).split("_")
            if not 1 <= arity <= MAX_COST_ARITY or len(parts) != 1 << arity:
                return None
            try:
                vals = tuple(map(_cost_value, parts))
            except (ValueError, ZeroDivisionError):  # "1//2", "1/0", "", "1/2/3"
                return None
            return CostFunction(arity, vals, name)
        return None

    def resolve(self, kind: str, c: Constraint) -> Relation | CostFunction | None:
        """What constraint c applies in a `kind` instance (`resolve_all` of c alone)."""
        return self.resolve_all(kind, (c,))[0]

    def resolve_all(self, kind: str, constraints: Sequence[Constraint]
                    ) -> list[Relation | CostFunction | None]:
        """What each constraint applies in a `kind` instance, in order.

        The `Relation` of its ref, the `CostFunction` for VCSP, or None for a
        Max-Cut edge.  Raises InstanceError at the first constraint with an
        unknown name, a Max-Cut ref other than 'edge', an arity other than
        the number of arguments, or a weight on a SAT, U-Max-Ones or
        Min-Ones constraint.  A known name is one read of the resolver's
        map; only a name met for the first time is built.
        """
        if kind == KIND_MAXCUT:
            for c in constraints:
                if c.ref != "edge":
                    raise InstanceError("Max-Cut constraints must use ref 'edge'")
                if len(c.args) != 2:
                    raise InstanceError(f"constraint edge expects 2 arguments, got {len(c.args)}")
            return [None] * len(constraints)
        vcsp = kind == KIND_VCSP
        known = self._costfns if vcsp else self._relations
        weightless = kind in (KIND_SAT, KIND_UMO, KIND_MINO)
        out = []
        for c in constraints:
            ref = c.ref
            if ref in known:
                applied = known[ref]
            else:
                applied = self.costfn(ref) if vcsp else self.relation(ref)
            if len(c.args) != applied.arity:
                raise InstanceError(f"constraint {ref} expects {applied.arity} arguments, "
                                    f"got {len(c.args)}")
            if weightless and c.weight is not None:
                raise InstanceError(f"{kind} constraints carry no weights")
            out.append(applied)
        return out


def default_resolver() -> Resolver:
    return Resolver()
