"""Problem instances, cost functions, and the name resolver shared by
oracles and reductions.

An instance is a variable count plus constraint applications; references to
relations and cost functions are by name.  Generated artifacts use
self-describing parametric names (e.g. Rf_2_11 encodes arity and support)
so emitted files stay self-contained.  `Resolver.resolve_all` is the one
rule for what the constraints mean in an instance of a given kind: what
each ref names, its arity, and whether it may carry a weight.

This module and `relations` are the data layer: they import no theory
module (`postlattice`, `weakbases`, `valued`) at module top, so a process
that only reads, checks or classifies constraint data compiles none of
them.  A weak-base name imports `weakbases` when it is first built.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Optional, Sequence

from .relations import (
    MAX_RELATION_ARITY,
    NUMERAL,
    Record,
    Relation,
    RelationError,
    _setfield,
    number,
    numeral,
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


# The errors of the solver stack and of `postlattice` live here, beside
# InstanceError, so that the CLI can catch them without importing those
# modules.


class OracleError(RuntimeError):
    pass


class GadgetError(ValueError):
    pass


class ReductionError(ValueError):
    pass


class CatalogError(RuntimeError):
    """Signals an inconsistency in the clone catalog (no unique maximum)."""


class Constraint(Record):
    __slots__ = _fields = ("ref", "args", "weight")

    def __init__(self, ref: str, args: tuple[int, ...], weight: Optional[Fraction] = None) -> None:
        _setfield(self, "ref", ref)
        _setfield(self, "args", args)
        _setfield(self, "weight", weight)


class Threshold(Record):
    __slots__ = _fields = ("direction", "value")

    def __init__(self, direction: str, value: Fraction) -> None:
        if direction not in (">=", "<="):
            raise InstanceError(f"bad threshold direction {direction!r}")
        _setfield(self, "direction", direction)
        _setfield(self, "value", Fraction(value))


_ONE = Fraction(1)
_ARGS, _WEIGHT = attrgetter("args"), attrgetter("weight")


def _negative(w) -> bool:
    # a Fraction's sign is its numerator's, read without a Fraction compare
    return w.numerator < 0 if type(w) is Fraction else w < 0


class Instance(Record):
    __slots__ = _fields = ("kind", "num_vars", "constraints", "var_weights", "threshold",
                           "projection")

    def __init__(self, kind: str, num_vars: int, constraints: tuple[Constraint, ...],
                 var_weights: Optional[tuple[Fraction, ...]] = None,
                 threshold: Optional[Threshold] = None,
                 projection: Optional[tuple[int, ...]] = None) -> None:
        # a projection is set in wpp gadget files only
        n, cons = num_vars, constraints
        if kind not in ALL_KINDS:
            raise InstanceError(f"unknown problem kind {kind!r}")
        if not 0 <= n <= MAX_RELATION_ARITY:
            raise InstanceError(f"variable count {n} out of range 0..{MAX_RELATION_ARITY}")
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
        weights = var_weights
        if weights is not None:
            if kind not in (KIND_WMO, KIND_MINO):
                raise InstanceError(f"{kind} instances carry no variable weights")
            if len(weights) != n:
                raise InstanceError("varweights length must equal the variable count")
            if any(map(_negative, weights)):
                raise InstanceError("variable weights must be nonnegative")
        if projection is not None:
            if not projection:
                raise InstanceError("projection lists no variables")
            if any(not 0 <= v < n for v in projection):
                raise InstanceError("projection uses an out-of-range variable")
        _setfield(self, "kind", kind)
        _setfield(self, "num_vars", num_vars)
        _setfield(self, "constraints", constraints)
        _setfield(self, "var_weights", var_weights)
        _setfield(self, "threshold", threshold)
        _setfield(self, "projection", projection)

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
        out = Instance.__new__(Instance)
        for field, old in zip(Instance._fields, self._values(self)):
            _setfield(out, field, old)
        _setfield(out, "threshold", Threshold(direction, Fraction(value)))
        return out


# ---------------------------------------------------------------------------
# Cost functions

MAX_COST_ARITY = 8


def _check_arity(arity: int) -> None:
    if not 1 <= arity <= MAX_COST_ARITY:
        raise RelationError(f"cost function arity {arity} out of range")


class CostFunction(Record):
    _fields = ("arity", "table", "name")

    def __init__(self, arity: int, table: tuple[Fraction, ...], name: Optional[str] = None) -> None:
        _check_arity(arity)
        if len(table) != 1 << arity:
            raise RelationError("cost table length must be 2^arity")
        tab = table
        # one pass over the common table, a tuple of nonnegative Fractions
        if not (type(tab) is tuple and all(type(v) is Fraction and v.numerator >= 0 for v in tab)):
            tab = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in tab)
            if any(v.numerator < 0 for v in tab):
                raise RelationError("cost values must be nonnegative")
        _setfield(self, "arity", arity)
        _setfield(self, "table", tab)
        _setfield(self, "name", name)

    @functools.cached_property
    def scaled(self) -> tuple[int, int, tuple[int, ...]]:
        """(g, den, nums): the table as nums / den over one common denominator.

        den is the lcm of the values' denominators, nums the values times den
        as ints, and g their gcd (0 on an all-zero table).  The oracle builds
        its integer objective from this; it is built on first use and kept
        for the lifetime of this object, outside the fields that equality and
        hashing read.
        """
        dens = [v.denominator for v in self.table]
        den = math.lcm(*dens)
        nums = tuple([v.numerator * (den // d) for v, d in zip(self.table, dens)])
        return math.gcd(*nums), den, nums

    def __call__(self, mask: int) -> Fraction:
        return self.table[mask]

    @property
    def max_value(self) -> Fraction:
        return max(self.table)


# Each cost token's value and integer pair, kept as `number` keeps its
# Fraction, in as many entries.
@functools.lru_cache(maxsize=1 << 10)
def _cost_token(token: str) -> tuple[Fraction, int, int]:
    value = number(token)
    return value, value.numerator, value.denominator


def _named_cost(arity: int, tokens: list[str], name: str) -> CostFunction:
    """The cost function that a `cost<k>_...` name's value tokens spell,
    once the name's grammar has checked its arity and that the values are
    nonnegative.  Its integer form, `CostFunction.scaled`, is read in the
    same pass from the tokens' integer pairs (`_cost_token`), with no
    Fraction arithmetic."""
    table, nums, dens = zip(*map(_cost_token, tokens))
    den = math.lcm(*dens)
    if den != 1:
        nums = tuple([a * (den // d) for a, d in zip(nums, dens)])
    fn = CostFunction.__new__(CostFunction)
    # the fields, and the cached property's value, stored as `__init__` and
    # `scaled` would store them
    vars(fn).update(arity=arity, table=table, name=name, scaled=(math.gcd(*nums), den, nums))
    return fn


def f_neq() -> CostFunction:
    return CostFunction(2, (Fraction(1), Fraction(0), Fraction(0), Fraction(1)), "f_neq")


def indicator_cost(rel: Relation, name: Optional[str] = None) -> CostFunction:
    """0 on tuples of the relation, 1 elsewhere; an arity past
    `MAX_COST_ARITY` is rejected before the 2^arity table is built."""
    _check_arity(rel.arity)
    table = tuple(Fraction(0) if rel.contains(m) else Fraction(1)
                  for m in range(1 << rel.arity))
    return CostFunction(rel.arity, table, name or (f"fnot_{rel.name}" if rel.name else None))


# ---------------------------------------------------------------------------
# Name resolution

# every number in a name is a NUMERAL, matched whole; a cost value is a
# number token of ASCII digits and slashes
_N = f"({NUMERAL.pattern})"
_RF_NAME = re.compile(f"Rf_{_N}_{_N}")
_COST_NAME = re.compile(f"cost{_N}_([0-9/_]+)")
_PARAM_REL = re.compile(f"(OR|NAND|EVEN|ODD){_N}")
_PARAM_CTORS = {"OR": rel_or, "NAND": rel_nand, "EVEN": rel_even, "ODD": rel_odd}


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
    m = _PARAM_REL.fullmatch(name)
    if m:
        return _PARAM_CTORS[m.group(1)](numeral(m.group(2))).renamed(name)
    m = _RF_NAME.fullmatch(name)
    if m:
        return _rf_relation(numeral(m.group(1)), numeral(m.group(2)))
    if name.startswith("R_I"):
        from .postlattice import parse_coclone_name
        from .weakbases import weak_base

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
            ref = name[len("fnot_"):]
            # a parametric name states its arity: reject one too wide for a
            # cost before its 2^k tuples are built; a k past the relation cap
            # keeps the constructor's error, and a registered name still wins
            k = numeral(m.group(2)) if (m := _PARAM_REL.fullmatch(ref)) else 0
            if 0 < k <= MAX_RELATION_ARITY and ref not in self._relations:
                _check_arity(k)
            try:
                rel = self.relation(ref)
            except InstanceError:
                return None
            return _indicator(rel, name)
        m = _COST_NAME.fullmatch(name)
        if m:
            arity = int(m.group(1))  # a NUMERAL, matched whole
            parts = m.group(2).split("_")
            if not 1 <= arity <= MAX_COST_ARITY or len(parts) != 1 << arity:
                return None
            try:
                return _named_cost(arity, parts, name)
            except (ValueError, ZeroDivisionError):  # "1//2", "1/0", "", "1/2/3"
                return None
        return None

    def resolve_all(self, kind: str, constraints: Sequence[Constraint]
                    ) -> list[Relation | CostFunction | None]:
        """What each constraint applies in a `kind` instance, in order.

        The `Relation` of its ref, the `CostFunction` for VCSP, or None for a
        Max-Cut edge.  Raises InstanceError at the first constraint with an
        unknown name, a Max-Cut ref other than 'edge', an arity other than
        the number of arguments, or a weight on a constraint of a kind that
        weighs none: SAT and the Ones kinds, which weigh variables.  A known
        name is one read of the resolver's map; only a name met for the
        first time is built.
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
        weightless = kind in (KIND_SAT, KIND_UMO, KIND_WMO, KIND_MINO)
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
