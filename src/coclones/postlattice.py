"""Catalog of all Boolean clones (Post's lattice) and co-clone identification.

No lattice edges are hand-encoded.  The order is decided by semantic clone
membership (the definition column of the catalog: separating degrees,
monotone, self-dual, affine, ...), and an independent representative-based
route (C1 <= C2 iff every base operation of C1 preserves the weak base of
Inv(C2)) cross-checks it in the test suite.  Identification returns the
unique maximal catalog clone whose base preserves the language, probing the
eight chain families up to index r+1 for a language of maximum arity r.  The
S-chain check (does h_n or dual(h_n) preserve R) is exact and uncapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .relations import (
    BooleanOperation,
    ConstraintLanguage,
    EmptyRelationError,
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
    preserves,
    preserves_symmetric,  # read by bench/tracer.py, which spans it here
)

NON_CHAIN_FAMILIES = (
    "BF", "R0", "R1", "R2",
    "M", "M1", "M0", "M2",
    "D", "D1", "D2",
    "L", "L0", "L1", "L2", "L3",
    "V", "V0", "V1", "V2",
    "E", "E0", "E1", "E2",
    "N", "N2",
    "I", "I0", "I1", "I2",
)
CHAIN_FAMILIES = ("S0", "S02", "S01", "S00", "S1", "S12", "S11", "S10")


class CatalogError(RuntimeError):
    """Signals an inconsistency in the clone catalog (no unique maximum)."""


def _chain_display(family: str, index: Optional[int]) -> str:
    sub = family[1:]
    if index is None:
        return f"S_{sub}"
    return f"S^{index}_{sub}"


@dataclass(frozen=True)
class CloneId:
    family: str
    index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family in CHAIN_FAMILIES:
            if self.index is not None and self.index < 2:
                raise RelationError("chain index must be >= 2")
        elif self.family in NON_CHAIN_FAMILIES:
            if self.index is not None:
                raise RelationError(f"clone {self.family} takes no chain index")
        else:
            raise RelationError(f"unknown clone family {self.family!r}")

    @property
    def is_chain(self) -> bool:
        return self.family in CHAIN_FAMILIES

    @property
    def is_limit(self) -> bool:
        return self.is_chain and self.index is None

    @property
    def co(self) -> "CoCloneId":
        return CoCloneId(self.family, self.index)

    def display(self) -> str:
        if self.is_chain:
            return _chain_display(self.family, self.index)
        return self.family

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.display()


@dataclass(frozen=True)
class CoCloneId:
    family: str
    index: Optional[int] = None

    def __post_init__(self) -> None:
        CloneId(self.family, self.index)  # validate via the mirror

    @property
    def is_chain(self) -> bool:
        return self.family in CHAIN_FAMILIES

    @property
    def is_limit(self) -> bool:
        return self.is_chain and self.index is None

    @property
    def clone(self) -> CloneId:
        return CloneId(self.family, self.index)

    def display(self) -> str:
        return "I" + self.clone.display()

    def __str__(self) -> str:  # pragma: no cover
        return self.display()


def parse_coclone_name(name: str, index: Optional[int] = None) -> CoCloneId:
    """Parse names like "IN2", "IS^2_1", "IS1" (+ explicit index), "IS1_2"."""
    s = name.strip()
    if not s.startswith("I"):
        raise RelationError(f"co-clone names start with 'I': {name!r}")
    body = s[1:]
    if body.startswith("S^"):
        caret, _, rest = body[2:].partition("_")
        if not caret.isdecimal():
            raise RelationError(f"chain index {caret!r} in {name!r} is not a number")
        return CoCloneId("S" + rest, int(caret))
    if body.startswith("S_"):
        return CoCloneId("S" + body[2:], None)
    if body in NON_CHAIN_FAMILIES:
        return CoCloneId(body, None)
    if body in CHAIN_FAMILIES:
        return CoCloneId(body, index)
    if "_" in body:
        fam, _, idx = body.partition("_")
        if fam in CHAIN_FAMILIES and idx.isdecimal():
            return CoCloneId(fam, int(idx))
    raise RelationError(f"unknown co-clone name {name!r}")


# ---------------------------------------------------------------------------
# Clone bases (the base column of the catalog table)

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

_FIXED_BASES: dict[str, tuple[BooleanOperation, ...]] = {
    "BF": (OP_AND, OP_NOT),
    "R0": (OP_AND, OP_XOR),
    "R1": (OP_OR, OP_XNOR),
    "R2": (OP_OR, _OP_R2_BASE),
    "M": (OP_OR, OP_AND, OP_CONST0, OP_CONST1),
    "M1": (OP_OR, OP_AND, OP_CONST1),
    "M0": (OP_OR, OP_AND, OP_CONST0),
    "M2": (OP_OR, OP_AND),
    "D": (_OP_D_BASE,),
    "D1": (_OP_D1_BASE,),
    "D2": (_OP_MAJ,),
    "L": (OP_XOR, OP_CONST1),
    "L0": (OP_XOR,),
    "L1": (OP_XNOR,),
    "L2": (OP_XOR3,),
    "L3": (OP_XNOR3,),
    "V": (OP_OR, OP_CONST0, OP_CONST1),
    "V0": (OP_OR, OP_CONST0),
    "V1": (OP_OR, OP_CONST1),
    "V2": (OP_OR,),
    "E": (OP_AND, OP_CONST0, OP_CONST1),
    "E0": (OP_AND, OP_CONST0),
    "E1": (OP_AND, OP_CONST1),
    "E2": (OP_AND,),
    "N": (OP_NOT, OP_CONST0, OP_CONST1),
    "N2": (OP_NOT,),
    "I": (OP_ID, OP_CONST0, OP_CONST1),
    "I0": (OP_ID, OP_CONST0),
    "I1": (OP_ID, OP_CONST1),
    "I2": (OP_ID,),
}

# chain family -> (fixed companion ops, which h to use for finite members)
_CHAIN_BASES: dict[str, tuple[tuple[BooleanOperation, ...], str, tuple[BooleanOperation, ...]]] = {
    # family: (companions of finite members, "h"|"dualh", base of the limit)
    "S0": ((OP_IMP,), "dualh", (OP_IMP,)),
    "S02": ((_OP_OR_AND_NOT_Z,), "dualh", (_OP_OR_AND_NOT_Z,)),
    "S01": ((OP_CONST1,), "dualh", (_OP_OR_AND, OP_CONST1)),
    "S00": ((_OP_OR_AND,), "dualh", (_OP_OR_AND,)),
    "S1": ((OP_ANDNOT,), "h", (OP_ANDNOT,)),
    "S12": ((_OP_AND_OR_NOT_Z,), "h", (_OP_AND_OR_NOT_Z,)),
    "S11": ((OP_CONST0,), "h", (_OP_AND_OR, OP_CONST0)),
    "S10": ((_OP_AND_OR,), "h", (_OP_AND_OR,)),
}


def clone_base(clone: CloneId) -> list[BooleanOperation]:
    """Base operations of a catalog clone as truth tables."""
    if not clone.is_chain:
        return list(_FIXED_BASES[clone.family])
    fixed, kind, limit_base = _CHAIN_BASES[clone.family]
    if clone.is_limit:
        return list(limit_base)
    n = clone.index
    if n + 1 > MAX_OPERATION_ARITY:
        raise RelationError(
            f"chain index {n} needs an arity-{n + 1} table beyond the operation cap")
    h = h_operation(n) if kind == "h" else dual_h_operation(n)
    return list(fixed) + [h]


def catalog(max_chain_index: int = 3) -> list[CloneId]:
    out = [CloneId(f) for f in NON_CHAIN_FAMILIES]
    for fam in CHAIN_FAMILIES:
        out.append(CloneId(fam, None))
        for n in range(2, max_chain_index + 1):
            out.append(CloneId(fam, n))
    return out


# ---------------------------------------------------------------------------
# Semantic clone membership (the definition column of the catalog table)


def _min_or_cover(masks: Iterable[int], arity: int) -> float:
    """Minimum number of masks whose OR is all-ones, or inf if none exists."""
    full = (1 << arity) - 1
    distinct = sorted(set(masks))
    if not distinct:
        return math.inf
    reachable = 0
    for m in distinct:
        reachable |= m
    if reachable != full:
        return math.inf
    dp = [math.inf] * (full + 1)
    dp[0] = 0
    for s in range(full + 1):
        if dp[s] is math.inf:
            continue
        for m in distinct:
            t = s | m
            if dp[t] > dp[s] + 1:
                dp[t] = dp[s] + 1
    return dp[full]


def _zero_sep_degree(op: BooleanOperation) -> float:
    """op is 0-separating of degree n iff this exceeds n (inf = fully separating)."""
    zeros = [m for m, v in enumerate(op.table) if v == 0]
    return _min_or_cover(zeros, op.arity)


def _one_sep_degree(op: BooleanOperation) -> float:
    full = (1 << op.arity) - 1
    ones = [full ^ m for m, v in enumerate(op.table) if v == 1]
    return _min_or_cover(ones, op.arity)


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
    from .relations import popcount as _pc
    return all(op.table[m] == c ^ (_pc(m & amask) & 1) for m in range(1 << op.arity))


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
    if len(set(op.table)) == 1:
        return True
    return _is_projection(op)


def _is_projection(op: BooleanOperation) -> bool:
    for i in range(op.arity):
        if all(op.table[m] == (m >> i) & 1 for m in range(1 << op.arity)):
            return True
    return False


def _r0(op: BooleanOperation) -> bool:
    return op.table[0] == 0


def n_r1(op: BooleanOperation) -> bool:
    return op.table[(1 << op.arity) - 1] == 1


def op_in_clone(op: BooleanOperation, clone: CloneId) -> bool:
    """Semantic membership of an operation in a catalog clone."""
    fam = clone.family
    if fam == "BF":
        return True
    if fam == "R0":
        return _r0(op)
    if fam == "R1":
        return n_r1(op)
    if fam == "R2":
        return _r0(op) and n_r1(op)
    if fam in ("M", "M0", "M1", "M2"):
        if not _monotone(op):
            return False
        if fam in ("M0", "M2") and not _r0(op):
            return False
        if fam in ("M1", "M2") and not n_r1(op):
            return False
        return True
    if fam in ("D", "D1", "D2"):
        if not _self_dual(op):
            return False
        if fam == "D1" and not (_r0(op) and n_r1(op)):
            return False
        if fam == "D2" and not _monotone(op):
            return False
        return True
    if fam in ("L", "L0", "L1", "L2", "L3"):
        if not _affine(op):
            return False
        if fam == "L0":
            return _r0(op)
        if fam == "L1":
            return n_r1(op)
        if fam == "L2":
            return _r0(op) and n_r1(op)
        if fam == "L3":
            return _self_dual(op)
        return True
    if fam in ("V", "V0", "V1", "V2"):
        if not _disjunction_or_constant(op):
            return False
        return ((fam not in ("V0", "V2")) or _r0(op)) and ((fam not in ("V1", "V2")) or n_r1(op))
    if fam in ("E", "E0", "E1", "E2"):
        if not _conjunction_or_constant(op):
            return False
        return ((fam not in ("E0", "E2")) or _r0(op)) and ((fam not in ("E1", "E2")) or n_r1(op))
    if fam == "N":
        return _essentially_unary(op)
    if fam == "N2":
        # the negation clone: essentially unary and self-dual
        return _essentially_unary(op) and _self_dual(op)
    if fam in ("I", "I0", "I1", "I2"):
        if not _projection_or_constant(op):
            return False
        if fam == "I0":
            return _r0(op)
        if fam == "I1":
            return n_r1(op)
        if fam == "I2":
            return _is_projection(op)
        return True
    # S-chains: separating degree plus the R2 / M side conditions
    degree = _zero_sep_degree(op) if fam.startswith("S0") else _one_sep_degree(op)
    if clone.index is None:
        if degree != math.inf:  # the limit demands separation of every degree
            return False
    elif not degree > clone.index:
        return False
    if fam in ("S02", "S00", "S12", "S10") and not (_r0(op) and n_r1(op)):
        return False
    if fam in ("S01", "S00", "S11", "S10") and not _monotone(op):
        return False
    return True


def _h_in_clone(kind: str, m: int, clone: CloneId) -> bool:
    """Membership of h_m / dual(h_m) in a catalog clone (any m >= 2)."""
    if m + 1 <= MAX_OPERATION_ARITY:
        op = h_operation(m) if kind == "h" else dual_h_operation(m)
        return op_in_clone(op, clone)
    # analytic fallback beyond the table cap (m >= 8, so h_m is not self-dual
    # and its off-side separating degree is exactly 2)
    fam = clone.family
    if fam in ("BF", "R0", "R1", "R2", "M", "M0", "M1", "M2"):
        return True  # h_m and dual(h_m) are monotone and reproducing
    if fam not in CHAIN_FAMILIES:
        return False
    same_side = fam.startswith("S1") if kind == "h" else fam.startswith("S0")
    if not same_side:
        return False
    n: float = clone.index if clone.index is not None else math.inf
    return m >= n


# ---------------------------------------------------------------------------
# Preservation of a language by a clone's base

_pres_cache: dict[tuple, bool] = {}


def _op_preserves_rel(op: BooleanOperation, rel: Relation) -> bool:
    key = ("op", op.arity, op.table, rel.arity, rel.tuples)
    hit = _pres_cache.get(key)
    if hit is None:
        hit = preserves(op, rel)
        _pres_cache[key] = hit
    return hit


def _h_preserves_rel(kind: str, n: int, rel: Relation) -> bool:
    key = (kind, n, rel.arity, rel.tuples)
    if key not in _pres_cache:
        _pres_cache[key] = _h_walk(kind, n, rel)
    return _pres_cache[key]


def _h_walk(kind: str, n: int, rel: Relation) -> bool:
    """Does h_n ("h") or dual(h_n) ("dualh") preserve rel?

    h_n is 0 where at least two of its n+1 arguments are 0, so a multiset's
    image is the complement of `twice`, the coordinates 0 in two or more
    members; dual(h_n) is the same walk over one-sets, with image `twice`.
    Each (once, twice, picks left) state is visited once: (n+2)*3^arity at most.
    """
    full = (1 << rel.arity) - 1
    hits = tuple(full ^ t for t in rel.tuples) if kind == "h" else rel.tuples
    flip = full if kind == "h" else 0
    seen, stack = set(), [(0, 0, n + 1)]  # (hit once, hit twice, picks left)
    while stack:
        once, twice, left = stack.pop()
        if not left:
            if flip ^ twice not in rel._tuple_set:
                return False
            continue
        for z in hits:
            state = (once | z, twice | (once & z), left - 1)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return True


def _clone_base_preserves(clone: CloneId, rels: Sequence[Relation]) -> bool:
    if not clone.is_chain or clone.is_limit:
        return all(_op_preserves_rel(op, r) for op in clone_base(clone) for r in rels)
    fixed, kind, _ = _CHAIN_BASES[clone.family]
    if not all(_op_preserves_rel(op, r) for op in fixed for r in rels):
        return False
    return all(_h_preserves_rel(kind, clone.index, r) for r in rels)


# ---------------------------------------------------------------------------
# Lattice order

_leq_cache: dict[tuple[CloneId, CloneId], bool] = {}


def clone_leq(c1: CloneId, c2: CloneId) -> bool:
    """Clone containment c1 <= c2: every base operation of c1 lies in c2."""
    if c1 == c2:
        return True
    key = (c1, c2)
    hit = _leq_cache.get(key)
    if hit is not None:
        return hit
    if c1.is_chain and not c1.is_limit:
        fixed, kind, _ = _CHAIN_BASES[c1.family]
        result = all(op_in_clone(op, c2) for op in fixed) and \
            _h_in_clone(kind, c1.index, c2)
    else:
        result = all(op_in_clone(op, c2) for op in clone_base(c1))
    _leq_cache[key] = result
    return result


def clone_leq_by_representative(c1: CloneId, c2: CloneId) -> bool:
    """Independent order decision via the weak-base representative of Inv(c2).

    c1 <= c2 iff Inv(c2) <= Inv(c1) iff the weak base of Inv(c2) is invariant
    under every base operation of c1.  Used as a cross-check of the semantic
    order; infeasible for high chain indices (the representative grows as 2^n).
    """
    if c2.is_limit:
        raise RelationError("limit co-clones have no weak-base representative")
    from .weakbases import weak_base  # deferred: weakbases imports our ids

    rep = weak_base(c2.co)
    if c1.is_chain and not c1.is_limit:
        fixed, kind, _ = _CHAIN_BASES[c1.family]
        return all(_op_preserves_rel(op, rep) for op in fixed) and \
            _h_preserves_rel(kind, c1.index, rep)
    return all(_op_preserves_rel(op, rep) for op in clone_base(c1))


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
               if not any(c != d and clone_leq(c, d) for d in qualifying)]
    # distinct maximal elements may still be the same clone written two ways;
    # the catalog has no duplicates, so demand a unique maximum
    if len(maximal) != 1:
        names = ", ".join(sorted(c.display() for c in maximal))
        raise CatalogError(f"no unique maximal preserving clone: {names}")
    return maximal[0].co
