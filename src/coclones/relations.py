"""Boolean relations, operations and exact, uncapped (partial) polymorphism checks.

Tuples of a relation are stored as integer bitmasks with coordinate 1 in the
least significant bit.  All textual I/O lists coordinate 1 first (leftmost),
so the string "011" denotes the tuple (0, 1, 1) and the bitmask 0b110 = 6.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

MAX_RELATION_ARITY = 24
MAX_OPERATION_ARITY = 8


class RelationError(ValueError):
    pass


class EmptyRelationError(RelationError):
    """Raised when a classifier or identifier is handed an empty relation."""


def popcount(x: int) -> int:
    return bin(x).count("1")


def mask_to_bits(mask: int, arity: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(arity))


def bits_to_mask(bits: Sequence[int]) -> int:
    m = 0
    for i, b in enumerate(bits):
        if b:
            m |= 1 << i
    return m


def mask_to_string(mask: int, arity: int) -> str:
    """Render a tuple with coordinate 1 leftmost, e.g. 6 -> "011" at arity 3."""
    return "".join(str((mask >> i) & 1) for i in range(arity))


def string_to_mask(s: str) -> int:
    m = 0
    for i, ch in enumerate(s):
        if ch == "1":
            m |= 1 << i
        elif ch != "0":
            raise RelationError(f"bad tuple character {ch!r} in {s!r}")
    return m


@dataclass(frozen=True)
class Relation:
    """A finitary Boolean relation: a set of bitmask tuples of fixed arity."""

    arity: int
    tuples: tuple[int, ...]
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not 1 <= self.arity <= MAX_RELATION_ARITY:
            raise RelationError(f"relation arity {self.arity} out of range 1..{MAX_RELATION_ARITY}")
        tups = tuple(sorted(set(self.tuples)))
        if tups != tuple(self.tuples):
            object.__setattr__(self, "tuples", tups)
        full = 1 << self.arity
        for t in self.tuples:
            if not 0 <= t < full:
                raise RelationError(f"tuple mask {t} out of range for arity {self.arity}")

    @staticmethod
    def from_masks(arity: int, masks: Iterable[int], name: Optional[str] = None,
                   allow_empty: bool = False) -> "Relation":
        tups = tuple(sorted(set(masks)))
        if not tups and not allow_empty:
            raise EmptyRelationError("empty relation requires allow_empty=True")
        return Relation(arity, tups, name)

    @staticmethod
    def from_tuples(arity: int, rows: Iterable[Sequence[int]], name: Optional[str] = None,
                    allow_empty: bool = False) -> "Relation":
        return Relation.from_masks(arity, (bits_to_mask(r) for r in rows), name, allow_empty)

    @property
    def is_empty(self) -> bool:
        return not self.tuples

    def contains(self, mask: int) -> bool:
        return mask in self._tuple_set

    @cached_property
    def _tuple_set(self) -> frozenset[int]:
        # stored in the instance dict, outside the fields that equality and
        # hashing read
        return frozenset(self.tuples)

    def rows(self) -> list[tuple[int, ...]]:
        return [mask_to_bits(t, self.arity) for t in self.tuples]

    def row_strings(self) -> list[str]:
        return [mask_to_string(t, self.arity) for t in self.tuples]

    def renamed(self, name: str) -> "Relation":
        return Relation(self.arity, self.tuples, name)

    def permuted(self, perm: Sequence[int]) -> "Relation":
        """Relation with coordinate i taken from old coordinate perm[i]."""
        if sorted(perm) != list(range(self.arity)):
            raise RelationError("not a permutation")
        out = []
        for t in self.tuples:
            m = 0
            for i, p in enumerate(perm):
                if (t >> p) & 1:
                    m |= 1 << i
            out.append(m)
        return Relation.from_masks(self.arity, out, allow_empty=True)


@dataclass(frozen=True)
class BooleanOperation:
    """A total Boolean operation given by its full truth table.

    table[m] is the output on the argument tuple encoded by bitmask m
    (argument i in bit i).
    """

    arity: int
    table: tuple[int, ...]
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not 1 <= self.arity <= MAX_OPERATION_ARITY:
            raise RelationError(f"operation arity {self.arity} out of range 1..{MAX_OPERATION_ARITY}")
        if len(self.table) != 1 << self.arity:
            raise RelationError("truth table length must be 2^arity")
        if any(v not in (0, 1) for v in self.table):
            raise RelationError("truth table entries must be 0/1")

    @staticmethod
    def from_func(arity: int, func: Callable[..., int], name: Optional[str] = None) -> "BooleanOperation":
        table = tuple(int(func(*mask_to_bits(m, arity))) & 1 for m in range(1 << arity))
        return BooleanOperation(arity, table, name)

    def __call__(self, *args: int) -> int:
        return self.table[bits_to_mask(args)]

    @property
    def is_symmetric(self) -> bool:
        by_count: dict[int, int] = {}
        for m, v in enumerate(self.table):
            c = popcount(m)
            if by_count.setdefault(c, v) != v:
                return False
        return True

    def count_table(self) -> tuple[int, ...]:
        """For symmetric operations: output as a function of the number of ones."""
        out = [0] * (self.arity + 1)
        for m, v in enumerate(self.table):
            out[popcount(m)] = v
        return tuple(out)

    def ones_patterns(self) -> tuple[int, ...]:
        return tuple(m for m, v in enumerate(self.table) if v)

    def dual(self) -> "BooleanOperation":
        full = (1 << self.arity) - 1
        table = tuple(1 - self.table[full ^ m] for m in range(1 << self.arity))
        nm = f"dual({self.name})" if self.name else None
        return BooleanOperation(self.arity, table, nm)


@dataclass(frozen=True)
class PartialOperation:
    """A partial Boolean operation; table entries are 0, 1 or None."""

    arity: int
    table: tuple[Optional[int], ...]
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not 1 <= self.arity <= MAX_OPERATION_ARITY:
            raise RelationError(f"operation arity {self.arity} out of range 1..{MAX_OPERATION_ARITY}")
        if len(self.table) != 1 << self.arity:
            raise RelationError("truth table length must be 2^arity")
        if all(v is None for v in self.table):
            raise RelationError("partial operation must be defined somewhere")

    @staticmethod
    def total(op: BooleanOperation) -> "PartialOperation":
        return PartialOperation(op.arity, tuple(op.table), op.name)


class ConstraintLanguage:
    """A finite constraint language: an ordered map from names to relations."""

    def __init__(self, relations: Iterable[Relation]):
        self._by_name: dict[str, Relation] = {}
        for i, rel in enumerate(relations):
            name = rel.name if rel.name is not None else f"R{i}"
            if name in self._by_name:
                raise RelationError(f"duplicate relation name {name!r}")
            self._by_name[name] = rel
        if not self._by_name:
            raise RelationError("constraint language must be nonempty")

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __getitem__(self, name: str) -> Relation:
        return self._by_name[name]

    def names(self) -> list[str]:
        return list(self._by_name)

    def relations(self) -> list[Relation]:
        return list(self._by_name.values())

    @property
    def max_arity(self) -> int:
        return max(r.arity for r in self)


# ---------------------------------------------------------------------------
# Polymorphism checking


def _image_of_sequence(patterns: Sequence[int], k: int, seq: Sequence[int], full: int) -> int:
    # Bit-parallel: coordinates where the argument column matches pattern p
    # form an AND of the tuple masks / complements; the image is the union
    # over patterns with output 1.
    img = 0
    for p in patterns:
        w = full
        for i in range(k):
            w &= seq[i] if (p >> i) & 1 else (~seq[i] & full)
            if not w:
                break
        img |= w
    return img


def find_violation(f: BooleanOperation, rel: Relation):
    """First tuple sequence (deterministic order) whose image escapes rel, or None."""
    if rel.is_empty:
        return None
    full = (1 << rel.arity) - 1
    tset = rel._tuple_set
    patterns = f.ones_patterns()
    for seq in itertools.product(rel.tuples, repeat=f.arity):
        img = _image_of_sequence(patterns, f.arity, seq, full)
        if img not in tset:
            return seq, img
    return None


def preserves_symmetric(count_table: Sequence[int], k: int, rel: Relation) -> bool:
    """Preservation check for a symmetric k-ary operation.

    Only tuple multisets are enumerated; the image depends on the per-coordinate
    one-counts alone.  Co-clone identification walks states instead
    (`postlattice._h_walk`); this enumeration is the walk's test reference.
    """
    if rel.is_empty:
        return True
    tset = rel._tuple_set
    arity = rel.arity
    for combo in itertools.combinations_with_replacement(rel.tuples, k):
        img = 0
        for c in range(arity):
            cnt = 0
            for m in combo:
                cnt += (m >> c) & 1
            if count_table[cnt]:
                img |= 1 << c
        if img not in tset:
            return False
    return True


def preserves(f: BooleanOperation, rel: Relation) -> bool:
    """True iff rel is invariant under f applied coordinate-wise."""
    if rel.is_empty:
        return True
    if f.arity >= 4 and f.is_symmetric:
        return preserves_symmetric(f.count_table(), f.arity, rel)
    return find_violation(f, rel) is None


def preserves_partial(p: PartialOperation, rel: Relation) -> bool:
    """True iff every sequence on which p is defined coordinate-wise maps into rel."""
    if rel.is_empty:
        return True
    tset = rel._tuple_set
    arity = rel.arity
    k = p.arity
    for seq in itertools.product(rel.tuples, repeat=k):
        img = 0
        defined = True
        for c in range(arity):
            pat = 0
            for i in range(k):
                if (seq[i] >> c) & 1:
                    pat |= 1 << i
            v = p.table[pat]
            if v is None:
                defined = False
                break
            if v:
                img |= 1 << c
        if defined and img not in tset:
            return False
    return True


def preserves_language(f: BooleanOperation, language: ConstraintLanguage) -> bool:
    return all(preserves(f, rel) for rel in language)


# ---------------------------------------------------------------------------
# Named operations

OP_CONST0 = BooleanOperation(1, (0, 0), "0")
OP_CONST1 = BooleanOperation(1, (1, 1), "1")
OP_ID = BooleanOperation(1, (0, 1), "id")
OP_NOT = BooleanOperation(1, (1, 0), "not")
OP_AND = BooleanOperation.from_func(2, lambda x, y: x & y, "and")
OP_OR = BooleanOperation.from_func(2, lambda x, y: x | y, "or")
OP_XOR = BooleanOperation.from_func(2, lambda x, y: x ^ y, "xor")
OP_XNOR = BooleanOperation.from_func(2, lambda x, y: 1 ^ x ^ y, "xnor")
OP_IMP = BooleanOperation.from_func(2, lambda x, y: (1 ^ x) | y, "imp")
OP_ANDNOT = BooleanOperation.from_func(2, lambda x, y: x & (1 ^ y), "andnot")
OP_XOR3 = BooleanOperation.from_func(3, lambda x, y, z: x ^ y ^ z, "xor3")
OP_XNOR3 = BooleanOperation.from_func(3, lambda x, y, z: 1 ^ x ^ y ^ z, "xnor3")
OP_MAJ = BooleanOperation.from_func(3, lambda x, y, z: (x + y + z) >> 1, "maj")


def arithmetical_operation() -> BooleanOperation:
    """The unique ternary Boolean operation with f(y,x,x)=f(y,x,y)=f(x,x,y)=y.

    On the Boolean domain every argument triple has two equal entries, so the
    three identities force the whole table.
    """
    def f(a: int, b: int, c: int) -> int:
        if b == c:
            return a
        if a == b:
            return c
        return a  # a == c
    return BooleanOperation.from_func(3, f, "arith")


def h_operation(n: int) -> BooleanOperation:
    """The (n+1)-ary threshold operation: 1 iff at least n arguments are 1."""
    if n < 1 or n + 1 > MAX_OPERATION_ARITY:
        raise RelationError(f"h_{n} has arity {n + 1}, beyond the operation cap")
    table = tuple(1 if popcount(m) >= n else 0 for m in range(1 << (n + 1)))
    return BooleanOperation(n + 1, table, f"h{n}")


def dual_h_operation(n: int) -> BooleanOperation:
    return h_operation(n).dual()


# ---------------------------------------------------------------------------
# Relation constructors


def rel_eq() -> Relation:
    return Relation(2, (0b00, 0b11), "eq")


def rel_neq() -> Relation:
    return Relation(2, (0b01, 0b10), "neq")


def rel_true() -> Relation:
    return Relation(1, (1,), "T")


def rel_false() -> Relation:
    return Relation(1, (0,), "F")


def rel_or(n: int) -> Relation:
    _check_ctor_arity(n)
    return Relation(n, tuple(range(1, 1 << n)), f"OR{n}")


def rel_nand(n: int) -> Relation:
    _check_ctor_arity(n)
    return Relation(n, tuple(range((1 << n) - 1)), f"NAND{n}")


def rel_even(n: int) -> Relation:
    _check_ctor_arity(n)
    return Relation(n, tuple(m for m in range(1 << n) if popcount(m) % 2 == 0), f"EVEN{n}")


def rel_odd(n: int) -> Relation:
    _check_ctor_arity(n)
    return Relation(n, tuple(m for m in range(1 << n) if popcount(m) % 2 == 1), f"ODD{n}")


def rel_one_in_three() -> Relation:
    return Relation(3, (0b001, 0b010, 0b100), "R13")


def neq_extension(rel: Relation, m: int) -> Relation:
    """The (n+m)-ary relation rel(x1..xn) /\\ neq(x_j, x_{n+j}) for j=1..m."""
    n = rel.arity
    if not 1 <= m <= n:
        raise RelationError(f"neq extension count {m} out of range 1..{n}")
    if n + m > MAX_RELATION_ARITY:
        raise RelationError("extended arity exceeds cap")
    out = []
    for t in rel.tuples:
        ext = t
        for j in range(m):
            if not (t >> j) & 1:
                ext |= 1 << (n + j)
        out.append(ext)
    name = f"{rel.name}_{m}ne" if rel.name else None
    return Relation.from_masks(n + m, out, name, allow_empty=rel.is_empty)


def conj_relation(parts: Sequence[tuple[Relation, Sequence[int]]], total_arity: int,
                  name: Optional[str] = None, allow_empty: bool = False) -> Relation:
    """Conjunction of relation atoms over shared coordinates (no quantifiers)."""
    if not 1 <= total_arity <= MAX_RELATION_ARITY:
        raise RelationError("total arity out of range")
    for rel, idx in parts:
        if len(idx) != rel.arity:
            raise RelationError("index tuple length must match atom arity")
        if any(not 0 <= i < total_arity for i in idx):
            raise RelationError("atom index out of range")
    out = []
    for m in range(1 << total_arity):
        ok = True
        for rel, idx in parts:
            sub = 0
            for j, i in enumerate(idx):
                if (m >> i) & 1:
                    sub |= 1 << j
            if not rel.contains(sub):
                ok = False
                break
        if ok:
            out.append(m)
    return Relation.from_masks(total_arity, out, name, allow_empty=allow_empty)


def _check_ctor_arity(n: int) -> None:
    if not 1 <= n <= MAX_RELATION_ARITY:
        raise RelationError(f"arity {n} out of range 1..{MAX_RELATION_ARITY}")


def make_relation(spec: str) -> Relation:
    """Build a named relation from a textual spec like "eq", "OR(3)", "EVEN(4)"."""
    s = spec.strip()
    plain = {
        "eq": rel_eq, "neq": rel_neq, "T": rel_true, "F": rel_false,
        "ONE_IN_THREE": rel_one_in_three, "R13": rel_one_in_three,
    }
    if s in plain:
        return plain[s]()
    if s == "XOR3":
        return rel_even(3).renamed("XOR3")
    for prefix, fn in (("OR", rel_or), ("NAND", rel_nand), ("EVEN", rel_even), ("ODD", rel_odd)):
        if s.startswith(prefix):
            rest = s[len(prefix):]
            if rest.startswith("(") and rest.endswith(")"):
                rest = rest[1:-1]
            if rest.isdigit():
                return fn(int(rest))
    raise RelationError(f"unknown relation spec {spec!r}")


# ---------------------------------------------------------------------------
# Dichotomy classifiers


@dataclass(frozen=True)
class ClosureWitness:
    operation: str
    relation: str
    sequence: tuple[tuple[int, ...], ...]
    image: tuple[int, ...]


@dataclass(frozen=True)
class Classification:
    result: str  # "P" or "NP-hard"
    closed_under: Optional[str]  # name of a preserving operation, if P
    witnesses: tuple[ClosureWitness, ...]  # one violation per failed closure, if NP-hard

    @property
    def is_polynomial(self) -> bool:
        return self.result == "P"


def _classify_by_closures(language: ConstraintLanguage, ops: Sequence[BooleanOperation]) -> Classification:
    for rel in language:
        if rel.is_empty:
            raise EmptyRelationError("classifiers require nonempty relations")
    for op in ops:
        if preserves_language(op, language):
            return Classification("P", op.name, ())
    witnesses = []
    for op in ops:
        for name in language.names():
            rel = language[name]
            v = find_violation(op, rel)
            if v is not None:
                seq, img = v
                witnesses.append(ClosureWitness(
                    op.name or "?", name,
                    tuple(mask_to_bits(t, rel.arity) for t in seq),
                    mask_to_bits(img, rel.arity)))
                break
    return Classification("NP-hard", None, tuple(witnesses))


def classify_max_ones(language: ConstraintLanguage) -> Classification:
    """Tractable iff the language is 1-closed, max-closed, or arithmetical-closed."""
    return _classify_by_closures(language, [OP_CONST1, OP_OR, arithmetical_operation()])


def classify_sat(language: ConstraintLanguage) -> Classification:
    """Standard six-closure satisfiability dichotomy test."""
    return _classify_by_closures(language, [OP_CONST0, OP_CONST1, OP_AND, OP_OR, OP_XOR3, OP_MAJ])
