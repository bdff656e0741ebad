"""Conjunctive definitions: evaluation, verification, and bounded search.

Covers plain and quantifier-free conjunctive definitions (projection of a
conjunction of atoms over a language plus equality) and the optimization
variant where a relation is the projection of the optimal-solution set of a
weighted Max-Ones instance.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from . import truthtables as tt
from .instances import Constraint, GadgetError, Instance, KIND_WMO, Resolver
from .oracle import solve
from .relations import ConstraintLanguage, Record, Relation, _setfield, rel_eq

MAX_FORMULA_VARS = 24

LanguageLike = Union[ConstraintLanguage, Mapping[str, Relation], Resolver]


class UnsatisfiableGadgetError(GadgetError):
    pass


class Formula(Record):
    """A conjunction of atoms defining a relation on the first total_vars
    variables; the following aux_vars variables are existentially projected
    away (aux_vars = 0 means the definition is quantifier-free)."""

    __slots__ = _fields = ("total_vars", "aux_vars", "atoms")

    def __init__(self, total_vars: int, aux_vars: int,
                 atoms: tuple[tuple[str, tuple[int, ...]], ...]) -> None:
        if total_vars < 1 or aux_vars < 0:
            raise GadgetError("bad variable counts")
        if total_vars + aux_vars > MAX_FORMULA_VARS:
            raise GadgetError("formula exceeds the variable cap")
        width = total_vars + aux_vars
        for name, args in atoms:
            if any(not 0 <= a < width for a in args):
                raise GadgetError(f"atom {name} uses an out-of-range variable")
        _setfield(self, "total_vars", total_vars)
        _setfield(self, "aux_vars", aux_vars)
        _setfield(self, "atoms", atoms)

    def text(self) -> str:
        def var(i: int) -> str:
            return f"x{i + 1}" if i < self.total_vars else f"y{i - self.total_vars + 1}"

        return " & ".join(
            f"{name}({', '.join(var(a) for a in args)})" for name, args in self.atoms)


def _lookup(language: LanguageLike, name: str) -> Relation:
    if name == "eq":
        return rel_eq()
    if isinstance(language, Resolver):
        return language.relation(name)
    return language[name]


def eval_formula(formula: Formula, language: LanguageLike) -> Relation:
    """The relation defined by conjunction then projection over aux vars."""
    width = formula.total_vars + formula.aux_vars
    sat = tt.planes(width)[0]
    for name, args in formula.atoms:
        rel = _lookup(language, name)
        if rel.arity != len(args):
            raise GadgetError(f"atom {name} arity mismatch")
        sat &= tt.table(rel, args, width)
    tv = formula.total_vars
    return Relation.from_masks(tv, tt.masks(tt.project(sat, width, tv), tv), allow_empty=True)


def constant_extension_implications(rel: Relation, ext: Relation) -> tuple[bool, bool, bool]:
    """The two displayed implications between R and its two-constant extension.

    Returns (implication1, implication2, implication2 restricted to y1 = 1):
      1. R(x) => R'(x, 0, 1);
      2. R'(x, y0, y1) => R(x) and y0 = 0.
    """
    k = rel.arity
    if ext.arity != k + 2:
        raise GadgetError("extension arity must be the base arity plus two")
    y0_bit, y1_bit = 1 << k, 1 << (k + 1)
    impl1 = all(ext.contains(t | y1_bit) for t in rel.tuples)
    low = (1 << k) - 1
    impl2 = all(rel.contains(s & low) and not s & y0_bit for s in ext.tuples)
    impl2_top = all(rel.contains(s & low) and not s & y0_bit
                    for s in ext.tuples if s & y1_bit)
    return impl1, impl2, impl2_top


# ---------------------------------------------------------------------------
# Optimization-defined relations (projections of optimal-solution sets)


def eval_wpp(gadget: Instance, resolver: Optional[Resolver] = None) -> Relation:
    """Projection of the set of optimal solutions onto the gadget's
    projection, or onto every variable when it has none."""
    res = solve(gadget, resolver, want_all=True)
    if not res.satisfiable:
        raise UnsatisfiableGadgetError("gadget instance is unsatisfiable")
    projection = range(gadget.num_vars) if gadget.projection is None else gadget.projection
    out = set()
    for mask in res.optimal_set:
        m = 0
        for i, v in enumerate(projection):
            if (mask >> v) & 1:
                m |= 1 << i
        out.add(m)
    return Relation.from_masks(len(projection), out, allow_empty=False)


# ---------------------------------------------------------------------------
# Bounded definition search

# candidate formulas (and atoms per aux count) one search may examine
EXPLORE_BUDGET = 200_000


class SearchResult(Record):
    __slots__ = _fields = ("formula", "exhausted")

    def __init__(self, formula: Optional[Formula], exhausted: bool) -> None:
        _setfield(self, "formula", formula)
        _setfield(self, "exhausted", exhausted)  # True: the whole bounded space was searched


def search_definition(target: Relation, language: LanguageLike,
                      max_aux: int = 2, max_atoms: int = 3,
                      include_eq: bool = False) -> SearchResult:
    """Exhaustive search for a defining conjunction, smallest formulas first.

    Scans aux-variable counts in increasing order and atom sets in
    lexicographic order, so ties resolve to the least formula.  A None
    result carries exhausted=False when EXPLORE_BUDGET ran out (distinct from
    proven nonexistence within the bounds).  Equality atoms are always
    accepted by the evaluator; include_eq adds them to the search universe.
    """
    if not (0 <= max_aux <= 8 and 1 <= max_atoms <= 6):
        raise GadgetError("search bounds outside the budget guard "
                          "(0 <= aux <= 8, 1 <= atoms <= 6)")
    names = ["eq"] if include_eq else []
    if isinstance(language, ConstraintLanguage):
        names += [n for n in language.names() if n != "eq"]
    elif isinstance(language, Resolver):
        raise GadgetError("search needs an explicit finite language")
    else:
        names += [n for n in language.keys() if n != "eq"]
    tv = target.arity

    budget = EXPLORE_BUDGET
    for aux in range(0, max_aux + 1):
        width = tv + aux
        if width > MAX_FORMULA_VARS:
            break
        atoms = []
        for name in sorted(names):
            arity = _lookup(language, name).arity
            atoms.extend((name, slots) for slots in
                         itertools.product(range(width), repeat=arity))
        if len(atoms) > EXPLORE_BUDGET:
            return SearchResult(None, False)
        @functools.cache  # lazily: up to EXPLORE_BUDGET atoms
        def atom_table(ai: int) -> int:
            name, args = atoms[ai]
            return tt.table(_lookup(language, name), args, width)

        for natoms in range(1, max_atoms + 1):
            for combo in itertools.combinations(range(len(atoms)), natoms):
                budget -= 1
                if budget < 0:
                    return SearchResult(None, False)
                sat = atom_table(combo[0])
                for ai in combo[1:]:
                    sat &= atom_table(ai)
                if tt.project(sat, width, tv) == target.bits:
                    formula = Formula(tv, aux, tuple(atoms[ai] for ai in combo))
                    return SearchResult(formula, True)
    return SearchResult(None, True)


# ---------------------------------------------------------------------------
# The catalog of extension formulas (new-constant gadgets) and argmax
# identities used by the constant-variable reductions.


class ExtensionFormula(Record):
    """Defines R'(source coords..., y0, y1) over a single target weak base."""

    __slots__ = _fields = ("source", "target", "formula")

    def __init__(self, source: str, target: str, formula: Formula) -> None:
        _setfield(self, "source", source)  # weak base name of the defined relation's co-clone
        _setfield(self, "target", target)  # weak base name supplying the atoms
        _setfield(self, "formula", formula)


def _ext(source: str, target: str, source_arity: int,
         atoms: Sequence[tuple[int, ...]]) -> ExtensionFormula:
    return ExtensionFormula(source, target, Formula(
        source_arity + 2, 0, tuple((target, tuple(a)) for a in atoms)))


# coordinates: source coords 0..k-1, then y0 = k, y1 = k+1
EXTENSION_FORMULAS: tuple[ExtensionFormula, ...] = (
    _ext("R_IS1_2", "R_IS12_2", 3, [(0, 1, 2, 4), (0, 1, 3, 4)]),
    _ext("R_IS1_2", "R_IS11_2", 3, [(0, 1, 4, 2), (0, 1, 4, 3)]),
    _ext("R_IS1_2", "R_IS10_2", 3, [(0, 1, 4, 2, 4), (0, 1, 4, 3, 4)]),
    _ext("R_IS1_2", "R_IE2", 3, [(2, 0, 1, 2, 4), (2, 0, 1, 3, 4)]),
    _ext("R_IS1_2", "R_IE0", 3, [(2, 0, 1, 4, 2), (3, 0, 1, 4, 3)]),
    # first atom reads (x1, x2, x6, c0): together with the complement column
    # x6 = not x3 it pins the one-hot core, NAND(x1,x2) and x6 = x1|x2
    _ext("R_II2", "R_II0", 8, [(0, 1, 5, 6), (6, 7, 9, 8), (0, 3, 9, 8),
                               (1, 4, 9, 8), (2, 5, 9, 8)]),
)


class ArgmaxIdentity(Record):
    """A relation as the argmax set of a weighted Max-Ones gadget on 8 vars."""

    __slots__ = _fields = ("target", "base", "atoms", "weights")

    def __init__(self, target: str, base: str, atoms: tuple[tuple[int, ...], ...],
                 weights: tuple[int, ...]) -> None:
        _setfield(self, "target", target)  # "R_II2" or "R_IL2"
        _setfield(self, "base", base)  # weak base relation applied by the constraints
        _setfield(self, "atoms", atoms)
        _setfield(self, "weights", weights)

    def gadget(self) -> Instance:
        return Instance(
            KIND_WMO, 8,
            tuple(Constraint(self.base, a) for a in self.atoms),
            var_weights=tuple(Fraction(w) for w in self.weights),
            projection=tuple(range(8)))


ARGMAX_IDENTITIES: tuple[ArgmaxIdentity, ...] = (
    ArgmaxIdentity("R_II2", "R_IN2", ((6, 0, 1, 5, 7, 3, 4, 2),),
                   (0, 0, 0, 0, 0, 0, 0, 1)),
    ArgmaxIdentity("R_II2", "R_ID2",
                   ((4, 3, 1, 0, 6, 7), (5, 3, 2, 0, 6, 7), (5, 4, 2, 1, 6, 7)),
                   (1, 1, 1, 0, 0, 0, 0, 0)),
    ArgmaxIdentity("R_II2", "R_IL2", ((3, 4, 5, 0, 1, 2, 6, 7),),
                   (0, 0, 0, 1, 1, 1, 0, 0)),
    ArgmaxIdentity("R_IL2", "R_IL3", ((6, 0, 1, 2, 7, 3, 4, 5),),
                   (0, 0, 0, 0, 0, 0, 0, 1)),
    ArgmaxIdentity("R_IL2", "R_IL0",
                   ((0, 1, 2, 6), (7, 0, 3, 6), (7, 1, 4, 6), (7, 2, 5, 6)),
                   (0, 0, 0, 0, 0, 0, 0, 1)),
    ArgmaxIdentity("R_II2", "R_IS1_2",
                   ((0, 1, 6), (0, 2, 6), (1, 2, 6), (0, 3, 6), (1, 4, 6), (2, 5, 6)),
                   (2, 2, 2, 1, 1, 1, 1, 1)),
)
