"""Problem instances and the name resolver shared by oracles and reductions.

An instance is a variable count plus constraint applications; references to
relations and cost functions are by name.  Generated artifacts use
self-describing parametric names (e.g. Rf_2_11 encodes arity and support)
so emitted files stay self-contained.  `Resolver.resolve` is the one rule
for what a constraint means in an instance of a given kind: what its ref
names, its arity, and whether it may carry a weight.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
from .valued import CostFunction, f_neq, indicator_cost
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
MINIMIZING_KINDS = (KIND_MINO, KIND_VCSP)


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


@dataclass(frozen=True)
class Instance:
    kind: str
    num_vars: int
    constraints: tuple[Constraint, ...]
    var_weights: Optional[tuple[Fraction, ...]] = None
    threshold: Optional[Threshold] = None
    projection: Optional[tuple[int, ...]] = None  # wpp gadget files only

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise InstanceError(f"unknown problem kind {self.kind!r}")
        if not 0 <= self.num_vars <= MAX_RELATION_ARITY:
            raise InstanceError(f"variable count {self.num_vars} out of range 0..{MAX_RELATION_ARITY}")
        for c in self.constraints:
            if c.args and (min(c.args) < 0 or max(c.args) >= self.num_vars):
                raise InstanceError(f"constraint {c.ref} uses an out-of-range variable")
            if c.weight is not None and c.weight < 0:
                raise InstanceError("constraint weights must be nonnegative")
        if self.var_weights is not None:
            if self.kind not in (KIND_WMO, KIND_MINO):
                raise InstanceError(f"{self.kind} instances carry no variable weights")
            if len(self.var_weights) != self.num_vars:
                raise InstanceError("varweights length must equal the variable count")
            if any(w < 0 for w in self.var_weights):
                raise InstanceError("variable weights must be nonnegative")
        if self.projection is not None and any(
                not 0 <= v < self.num_vars for v in self.projection):
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
        return tuple(Fraction(1) for _ in range(self.num_vars))

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


class Resolver:
    """Maps names to relations and cost functions (builtins + registered)."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = dict(_BUILTIN_RELATIONS)
        self._costfns: dict[str, CostFunction] = dict(_BUILTIN_COSTFNS)

    def register_relation(self, rel: Relation, name: Optional[str] = None) -> None:
        nm = name or rel.name
        if nm is None:
            raise InstanceError("cannot register an unnamed relation")
        existing = self._relations.get(nm)
        if existing is not None and existing.tuples != rel.tuples:
            raise InstanceError(f"conflicting definitions for relation {nm!r}")
        self._relations[nm] = rel if rel.name == nm else rel.renamed(nm)

    def register_costfn(self, fn: CostFunction, name: Optional[str] = None) -> None:
        nm = name or fn.name
        if nm is None:
            raise InstanceError("cannot register an unnamed cost function")
        existing = self._costfns.get(nm)
        if existing is not None and existing.table != fn.table:
            raise InstanceError(f"conflicting definitions for cost function {nm!r}")
        self._costfns[nm] = fn

    def relation(self, name: str) -> Relation:
        rel = self._relations.get(name)
        if rel is not None:
            return rel
        built = self._build_relation(name)
        if built is None:
            raise InstanceError(f"unknown relation {name!r}")
        self._relations[name] = built
        return built

    def _build_relation(self, name: str) -> Optional[Relation]:
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
            return indicator_cost(rel, name)
        m = _COST_NAME.match(name)
        if m:
            arity = int(m.group(1))
            vals = tuple(Fraction(v) for v in m.group(2).split("_"))
            if len(vals) != 1 << arity:
                return None
            return CostFunction(arity, vals, name)
        return None

    def resolve(self, kind: str, c: Constraint) -> Relation | CostFunction | None:
        """What constraint c applies in a `kind` instance.

        The `Relation` of its ref, the `CostFunction` for VCSP, or None for a
        Max-Cut edge.  Raises InstanceError for an unknown name, a Max-Cut ref
        other than 'edge', an arity other than the number of arguments, or a
        weight on a SAT, U-Max-Ones or Min-Ones constraint.
        """
        if kind == KIND_MAXCUT:
            if c.ref != "edge":
                raise InstanceError("Max-Cut constraints must use ref 'edge'")
            applied, arity = None, 2
        else:
            applied = self.costfn(c.ref) if kind == KIND_VCSP else self.relation(c.ref)
            arity = applied.arity
        if len(c.args) != arity:
            raise InstanceError(f"constraint {c.ref} expects {arity} arguments, got {len(c.args)}")
        if c.weight is not None and kind in (KIND_SAT, KIND_UMO, KIND_MINO):
            raise InstanceError(f"{kind} constraints carry no weights")
        return applied


def default_resolver() -> Resolver:
    return Resolver()
