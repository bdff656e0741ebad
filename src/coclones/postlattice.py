"""Catalog of all Boolean clones (Post's lattice) and co-clone identification.

The catalog is one table, `CATALOG`, keyed by clone family, in the form of
the table of Böhler, Creignou, Reith and Vollmer ("Playing with Boolean
blocks, Part I").  Each row is a `Family` with two columns:

- the base column: the family's base operations.  A chain family also has
  a side, 0 (S0, S02, S01, S00) or 1 (S1, S12, S11, S10): the base of a
  finite member S^n is the row's companions plus dual(h_n) on side 0 or
  h_n on side 1, and the row gives the base of the limit;
- the definition column: the properties an operation of the clone has,
  among r0 and r1 (0- and 1-reproducing), monotone, self-dual, affine,
  disjunction or constant, conjunction or constant, essentially unary,
  projection or constant, and projection.  A chain member also separates
  on its side: of degree above its index, or of every degree for the limit.

Everything reads this table.  Membership (`op_in_clone`) checks the
definition column against properties computed from a truth table, and for
h_m past the operation cap against its known ones.  The order is membership
of one clone's base in the other (no lattice edge is hand-encoded), and an
independent route (C1 <= C2 iff every base operation of C1 preserves the
weak base of Inv(C2)) cross-checks it in the test suite.  Identification
returns the unique maximal catalog clone whose base preserves the language,
probing the chain families up to index r+1 for a language of maximum arity
r; the S-chain check (does h_n or dual(h_n) preserve R) is exact and
uncapped.  `weakbases` builds each chain family's weak-base row from its
side and definition here.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Optional, Sequence

from .instances import CatalogError
from .relations import (
    BooleanOperation,
    ConstraintLanguage,
    EmptyRelationError,
    Record,
    Relation,
    RelationError,
    OP_AND,
    OP_CONST0,
    OP_CONST1,
    OP_ID,
    OP_IMP,
    OP_ANDNOT,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XNOR3,
    OP_XOR,
    OP_XOR3,
    h_operation,
    dual_h_operation,
    MAX_OPERATION_ARITY,
    NUMERAL,
    numeral,
    preserves,
    preserves_symmetric,  # read by bench/tracer.py, which spans it here
    _setfield,
)

# ---------------------------------------------------------------------------
# The definition column's properties, each read off a truth table


def _r0(op: BooleanOperation) -> bool:
    return op.table[0] == 0


def _r1(op: BooleanOperation) -> bool:
    return op.table[(1 << op.arity) - 1] == 1


def _monotone(op: BooleanOperation) -> bool:
    for m in range(1 << op.arity):
        for i in range(op.arity):
            if not (m >> i) & 1 and op.table[m] > op.table[m | (1 << i)]:
                return False
    return True


def _self_dual(op: BooleanOperation) -> bool:
    full = (1 << op.arity) - 1
    return all(op.table[m] == 1 - op.table[full ^ m] for m in range(full + 1))


def _affine(op: BooleanOperation) -> bool:
    c = op.table[0]
    amask = 0
    for i in range(op.arity):
        if op.table[1 << i] ^ c:
            amask |= 1 << i
    return all(op.table[m] == c ^ ((m & amask).bit_count() & 1) for m in range(1 << op.arity))


def _disjunction_or_constant(op: BooleanOperation) -> bool:
    if op.table[0] == 1:
        return all(v == 1 for v in op.table)
    amask = 0
    for i in range(op.arity):
        if op.table[1 << i]:
            amask |= 1 << i
    return all(op.table[m] == (1 if m & amask else 0) for m in range(1 << op.arity))


def _conjunction_or_constant(op: BooleanOperation) -> bool:
    full = (1 << op.arity) - 1
    if op.table[full] == 0:
        return all(v == 0 for v in op.table)
    need = 0
    for i in range(op.arity):
        if op.table[full ^ (1 << i)] == 0:
            need |= 1 << i
    return all(op.table[m] == (1 if need & ~m == 0 else 0) for m in range(1 << op.arity))


def _essentially_unary(op: BooleanOperation) -> bool:
    if len(set(op.table)) == 1:
        return True
    for i in range(op.arity):
        v0, v1 = op.table[0], op.table[1 << i]
        if all(op.table[m] == (v1 if (m >> i) & 1 else v0) for m in range(1 << op.arity)):
            return True
    return False


def _projection_or_constant(op: BooleanOperation) -> bool:
    return len(set(op.table)) == 1 or _projection(op)


def _projection(op: BooleanOperation) -> bool:
    for i in range(op.arity):
        if all(op.table[m] == (m >> i) & 1 for m in range(1 << op.arity)):
            return True
    return False


def _sep_degree(op: BooleanOperation, side: int) -> float:
    """op separates on `side` to degree n iff this exceeds n (inf: to every
    degree): the fewest argument tuples that op maps to `side` with no
    coordinate equal to `side` in all of them."""
    full = (1 << op.arity) - 1
    masks = sorted({m ^ (full if side else 0) for m, v in enumerate(op.table) if v == side})
    reachable = 0
    for m in masks:
        reachable |= m
    if reachable != full:
        return math.inf
    dp = [0] + [math.inf] * full
    for s in range(full + 1):
        if dp[s] is math.inf:
            continue
        for m in masks:
            t = s | m
            if dp[t] > dp[s] + 1:
                dp[t] = dp[s] + 1
    return dp[full]


# ---------------------------------------------------------------------------
# The catalog table

_OP_OR_AND_NOT_Z = BooleanOperation.from_func(3, lambda x, y, z: x | (y & (1 ^ z)), "or_andnot")
_OP_OR_AND = BooleanOperation.from_func(3, lambda x, y, z: x | (y & z), "or_and")
_OP_AND_OR_NOT_Z = BooleanOperation.from_func(3, lambda x, y, z: x & (y | (1 ^ z)), "and_ornot")
_OP_AND_OR = BooleanOperation.from_func(3, lambda x, y, z: x & (y | z), "and_or")
_OP_R2_BASE = BooleanOperation.from_func(3, lambda x, y, z: x & (1 ^ y ^ z), "and_xnor")
_OP_D_BASE = BooleanOperation.from_func(
    3, lambda x, y, z: (x & (1 ^ y)) | (x & (1 ^ z)) | ((1 ^ y) & (1 ^ z)), "d_base")
_OP_D1_BASE = BooleanOperation.from_func(
    3, lambda x, y, z: (x & y) | (x & (1 ^ z)) | (y & (1 ^ z)), "d1_base")
_OP_MAJ = h_operation(2)  # h_2 is the ternary majority


class Family(Record):
    """One row of the catalog: a clone family's base and definition columns.

    A chain family also has a side; `base` then holds the companions of h
    in a finite member's base and `limit` the base of its limit, when that
    is not the companions alone.
    """

    __slots__ = _fields = ("base", "definition", "side", "limit")

    def __init__(self, base: tuple[BooleanOperation, ...],
                 definition: tuple[Callable[[BooleanOperation], bool], ...] = (),
                 side: Optional[int] = None, limit: tuple[BooleanOperation, ...] = ()) -> None:
        _setfield(self, "base", base)
        _setfield(self, "definition", definition)
        _setfield(self, "side", side)
        _setfield(self, "limit", limit)


CATALOG: dict[str, Family] = {
    "BF": Family((OP_AND, OP_NOT)),
    "R0": Family((OP_AND, OP_XOR), (_r0,)),
    "R1": Family((OP_OR, OP_XNOR), (_r1,)),
    "R2": Family((OP_OR, _OP_R2_BASE), (_r0, _r1)),
    "M": Family((OP_OR, OP_AND, OP_CONST0, OP_CONST1), (_monotone,)),
    "M1": Family((OP_OR, OP_AND, OP_CONST1), (_monotone, _r1)),
    "M0": Family((OP_OR, OP_AND, OP_CONST0), (_monotone, _r0)),
    "M2": Family((OP_OR, OP_AND), (_monotone, _r0, _r1)),
    "D": Family((_OP_D_BASE,), (_self_dual,)),
    "D1": Family((_OP_D1_BASE,), (_self_dual, _r0, _r1)),
    "D2": Family((_OP_MAJ,), (_self_dual, _monotone)),
    "L": Family((OP_XOR, OP_CONST1), (_affine,)),
    "L0": Family((OP_XOR,), (_affine, _r0)),
    "L1": Family((OP_XNOR,), (_affine, _r1)),
    "L2": Family((OP_XOR3,), (_affine, _r0, _r1)),
    "L3": Family((OP_XNOR3,), (_affine, _self_dual)),
    "V": Family((OP_OR, OP_CONST0, OP_CONST1), (_disjunction_or_constant,)),
    "V0": Family((OP_OR, OP_CONST0), (_disjunction_or_constant, _r0)),
    "V1": Family((OP_OR, OP_CONST1), (_disjunction_or_constant, _r1)),
    "V2": Family((OP_OR,), (_disjunction_or_constant, _r0, _r1)),
    "E": Family((OP_AND, OP_CONST0, OP_CONST1), (_conjunction_or_constant,)),
    "E0": Family((OP_AND, OP_CONST0), (_conjunction_or_constant, _r0)),
    "E1": Family((OP_AND, OP_CONST1), (_conjunction_or_constant, _r1)),
    "E2": Family((OP_AND,), (_conjunction_or_constant, _r0, _r1)),
    "N": Family((OP_NOT, OP_CONST0, OP_CONST1), (_essentially_unary,)),
    "N2": Family((OP_NOT,), (_essentially_unary, _self_dual)),
    "I": Family((OP_ID, OP_CONST0, OP_CONST1), (_projection_or_constant,)),
    "I0": Family((OP_ID, OP_CONST0), (_projection_or_constant, _r0)),
    "I1": Family((OP_ID, OP_CONST1), (_projection_or_constant, _r1)),
    "I2": Family((OP_ID,), (_projection,)),
    "S0": Family((OP_IMP,), side=0),
    "S02": Family((_OP_OR_AND_NOT_Z,), (_r0, _r1), side=0),
    "S01": Family((OP_CONST1,), (_monotone,), side=0, limit=(_OP_OR_AND, OP_CONST1)),
    "S00": Family((_OP_OR_AND,), (_monotone, _r0, _r1), side=0),
    "S1": Family((OP_ANDNOT,), side=1),
    "S12": Family((_OP_AND_OR_NOT_Z,), (_r0, _r1), side=1),
    "S11": Family((OP_CONST0,), (_monotone,), side=1, limit=(_OP_AND_OR, OP_CONST0)),
    "S10": Family((_OP_AND_OR,), (_monotone, _r0, _r1), side=1),
}
NON_CHAIN_FAMILIES = tuple(f for f, row in CATALOG.items() if row.side is None)
CHAIN_FAMILIES = tuple(f for f, row in CATALOG.items() if row.side is not None)


class CloneId(Record):
    __slots__ = _fields = ("family", "index")

    def __init__(self, family: str, index: Optional[int] = None) -> None:
        if family in CHAIN_FAMILIES:
            if index is not None and index < 2:
                raise RelationError("chain index must be >= 2")
        elif family in NON_CHAIN_FAMILIES:
            if index is not None:
                raise RelationError(f"clone {family} takes no chain index")
        else:
            raise RelationError(f"unknown clone family {family!r}")
        _setfield(self, "family", family)
        _setfield(self, "index", index)

    @property
    def is_chain(self) -> bool:
        return self.family in CHAIN_FAMILIES

    @property
    def is_limit(self) -> bool:
        return self.is_chain and self.index is None

    @property
    def co(self) -> "CoCloneId":
        return _co_id(self.family, self.index)

    def display(self) -> str:
        if not self.is_chain:
            return self.family
        sub = self.family[1:]
        return f"S_{sub}" if self.index is None else f"S^{self.index}_{sub}"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.display()


class CoCloneId(Record):
    __slots__ = _fields = ("family", "index")

    def __init__(self, family: str, index: Optional[int] = None) -> None:
        CloneId(family, index)  # validate via the mirror
        _setfield(self, "family", family)
        _setfield(self, "index", index)

    @property
    def is_chain(self) -> bool:
        return self.family in CHAIN_FAMILIES

    @property
    def is_limit(self) -> bool:
        return self.is_chain and self.index is None

    @property
    def clone(self) -> CloneId:
        return _clone_id(self.family, self.index)

    def display(self) -> str:
        return "I" + self.clone.display()

    def __str__(self) -> str:  # pragma: no cover
        return self.display()


def parse_coclone_name(name: str, index: Optional[int] = None) -> CoCloneId:
    """Parse names like "IN2", "IS^2_1", "IS1" (+ explicit index), "IS1_2".

    Only a bare chain family ("IS1") takes `index`; any other name given one
    raises RelationError rather than dropping it.
    """
    s = name.strip()
    if not s.startswith("I"):
        raise RelationError(f"co-clone names start with 'I': {name!r}")
    body = s[1:]
    if body in CHAIN_FAMILIES:
        return CoCloneId(body, index)
    if body.startswith("S^"):
        caret, _, rest = body[2:].partition("_")
        if not NUMERAL.fullmatch(caret):
            raise RelationError(f"chain index {caret!r} in {name!r} is not a numeral")
        parsed = CoCloneId("S" + rest, numeral(caret))
    elif body.startswith("S_"):
        parsed = CoCloneId("S" + body[2:], None)
    elif body in NON_CHAIN_FAMILIES:
        parsed = CoCloneId(body, None)
    else:
        fam, _, idx = body.partition("_")
        if not (fam in CHAIN_FAMILIES and NUMERAL.fullmatch(idx)):
            raise RelationError(f"unknown co-clone name {name!r}")
        parsed = CoCloneId(fam, numeral(idx))
    if index is not None:
        raise RelationError(f"{name} takes no index argument (got {index}); "
                            "only a chain family such as IS1 does")
    return parsed


# ---------------------------------------------------------------------------
# The base column: bases and the catalog's members


def _h(kind: str, n: int) -> BooleanOperation:
    return h_operation(n) if kind == "h" else dual_h_operation(n)


def _base(clone: CloneId) -> tuple[tuple[BooleanOperation, ...], Optional[tuple[str, int]]]:
    """A clone's fixed base operations, and the (kind, n) of the h in the
    base of a finite chain member S^n: "dualh" on side 0, "h" on side 1."""
    row = CATALOG[clone.family]
    if row.side is None:
        return row.base, None
    if clone.index is None:
        return row.limit or row.base, None
    return row.base, ("dualh" if row.side == 0 else "h", clone.index)


# One id per (family, index) for `catalog`, `CloneId.co` and
# `CoCloneId.clone`, so the lattice order's cache (`_leq_cache`) and every
# comparison of the ids they hand out stop at an identity check.  The catalog
# of the widest probe, 25, holds 30 + 8 * 25 = 230 ids, within the bound.
_clone_id = functools.lru_cache(maxsize=1 << 9)(CloneId)
_co_id = functools.lru_cache(maxsize=1 << 9)(CoCloneId)


# One catalog per probe.  `co_clone_of` probes at most MAX_RELATION_ARITY +
# 1 = 25 indices, so the 32 entries evict none of its catalogs.
@functools.lru_cache(maxsize=1 << 5)
def catalog(max_chain_index: int = 3) -> tuple[CloneId, ...]:
    out = [_clone_id(f, None) for f in NON_CHAIN_FAMILIES]
    for fam in CHAIN_FAMILIES:
        out.append(_clone_id(fam, None))
        for n in range(2, max_chain_index + 1):
            out.append(_clone_id(fam, n))
    return tuple(out)


# ---------------------------------------------------------------------------
# Semantic clone membership: the definition column


def _meets(clone: CloneId, has: Callable[[Callable], bool],
           degree: Callable[[int], float]) -> bool:
    """Does an operation lie in clone, given which properties it `has` and
    its separation `degree` on each side?  Each is asked only as needed."""
    row = CATALOG[clone.family]
    if not all(map(has, row.definition)):
        return False
    if row.side is None:
        return True
    sep = degree(row.side)
    return sep == math.inf if clone.index is None else sep > clone.index


def op_in_clone(op: BooleanOperation, clone: CloneId) -> bool:
    """Semantic membership of an operation in a catalog clone."""
    return _meets(clone, lambda prop: prop(op), lambda side: _sep_degree(op, side))


def _h_traits(kind: str, m: int) -> tuple[Callable[[Callable], bool], Callable[[int], float]]:
    """What `_meets` reads of h_m ("h") or dual(h_m) ("dualh"), m >= 3, with
    no table: both are reproducing and monotone and have no other property
    of the definition column, and separate to degree m+1 on their own side
    (1 for h_m, 0 for its dual) and to degree 2 on the other."""
    own = 1 if kind == "h" else 0
    return {_r0, _r1, _monotone}.__contains__, lambda side: m + 1 if side == own else 2


def _h_in_clone(kind: str, m: int, clone: CloneId) -> bool:
    """Membership of h_m / dual(h_m) in a catalog clone (any m >= 2)."""
    if m + 1 <= MAX_OPERATION_ARITY:
        return op_in_clone(_h(kind, m), clone)
    return _meets(clone, *_h_traits(kind, m))


# ---------------------------------------------------------------------------
# Preservation of a language by a clone's base

_pres_cache: dict[tuple, bool] = {}


def _op_preserves_rel(op: BooleanOperation, rel: Relation) -> bool:
    key = (op.arity, op.table, rel.arity, rel.tuples)
    hit = _pres_cache.get(key)
    if hit is None:
        hit = preserves(op, rel)
        _pres_cache[key] = hit
    return hit


# (kind, arity, tuples) -> (the last layer of its S-chain walk, or None once
# every later index is settled False; the verdicts of indices 0, 1, ... so far)
_h_walks: dict[tuple, tuple[Optional[frozenset], tuple[bool, ...]]] = {}


def _h_preserves_rel(kind: str, n: int, rel: Relation) -> bool:
    """Does h_n ("h") or dual(h_n) ("dualh") preserve rel?

    h_n is 0 where at least two of its n+1 arguments are 0, so a multiset's
    image is the complement of `twice`, the coordinates 0 in two or more
    members; dual(h_n) is the same walk over one-sets, with image `twice`.
    One layered walk per (kind, relation) answers every index: layer j is
    the set of (hit once, hit twice) pairs reachable in j picks, at most
    3^arity of them, and index n reads layer n+1.  A pair whose twice
    covers a member z is in every later layer (picking z again changes
    nothing), so such a pair with a bad image settles every later index as
    False and ends the walk.  Otherwise the walk is extended only as far as
    the largest index asked, and each extension replaces the cached entry
    whole.
    """
    key = (kind, rel.arity, rel.tuples)
    layer, verdicts = _h_walks.get(key, (frozenset({(0, 0)}), ()))
    if n >= len(verdicts) and layer is not None:
        full = (1 << rel.arity) - 1
        hits = tuple(full ^ t for t in rel.tuples) if kind == "h" else rel.tuples
        flip = full if kind == "h" else 0
        while len(verdicts) <= n and layer is not None:
            layer = frozenset((once | z, twice | (once & z)) for once, twice in layer for z in hits)
            bad = [twice for _, twice in layer if flip ^ twice not in rel._tuple_set]
            verdicts += (not bad,)
            if any(z & twice == z for twice in bad for z in hits):
                layer = None
        _h_walks[key] = layer, verdicts
    return n < len(verdicts) and verdicts[n]


def _clone_base_preserves(clone: CloneId, rels: Sequence[Relation]) -> bool:
    fixed, h = _base(clone)
    return (all(_op_preserves_rel(op, r) for op in fixed for r in rels)
            and (h is None or all(_h_preserves_rel(*h, r) for r in rels)))


# ---------------------------------------------------------------------------
# Lattice order

_leq_cache: dict[tuple[CloneId, CloneId], bool] = {}


def clone_leq(c1: CloneId, c2: CloneId) -> bool:
    """Clone containment c1 <= c2: every base operation of c1 lies in c2."""
    if c1 is c2:
        return True
    key = (c1, c2)
    hit = _leq_cache.get(key)
    if hit is not None:
        return hit
    fixed, h = _base(c1)
    result = (all(op_in_clone(op, c2) for op in fixed)
              and (h is None or _h_in_clone(*h, c2)))
    _leq_cache[key] = result
    return result


def co_clone_leq(a: CoCloneId, b: CoCloneId) -> bool:
    """Co-clone containment a <= b (the order dual to the clone order)."""
    return clone_leq(b.clone, a.clone)


# ---------------------------------------------------------------------------
# Identification


def co_clone_of(language: ConstraintLanguage | Iterable[Relation]) -> CoCloneId:
    """The co-clone generated by a finite language.

    Returns the label of the unique maximal catalog clone whose base
    operations all preserve the language; S-chains are probed for indices
    2..r+1 where r is the maximum arity in the language.
    """
    if not isinstance(language, ConstraintLanguage):
        language = ConstraintLanguage(language)
    rels = language.relations()
    for r in rels:
        if r.is_empty:
            raise EmptyRelationError("co-clone identification requires nonempty relations")
    probe = max(2, language.max_arity + 1)
    qualifying = [c for c in catalog(probe) if _clone_base_preserves(c, rels)]
    if not qualifying:
        raise CatalogError("no catalog clone preserves the language (projections always do)")
    maximal = [c for c in qualifying
               if not any(c is not d and clone_leq(c, d) for d in qualifying)]
    # distinct maximal elements may still be the same clone written two ways;
    # the catalog has no duplicates, so demand a unique maximum
    if len(maximal) != 1:
        names = ", ".join(sorted(c.display() for c in maximal))
        raise CatalogError(f"no unique maximal preserving clone: {names}")
    return maximal[0].co
