"""Boolean relations and operations, exact polymorphism checks, and the
satisfiability and Max-Ones closure classifiers.

Tuples of a relation are stored as integer bitmasks with coordinate 1 in the
least significant bit.  All textual I/O lists coordinate 1 first (leftmost),
so the string "011" denotes the tuple (0, 1, 1) and the bitmask 0b110 = 6.

Every image is one decision-diagram walk, `Relation.evaluate`: an operation
applied to k tuples walks its support's diagram on their literals,
`truthtables.table` walks a constraint's diagram on variable planes, and a
polymorphism check walks the relation's diagram on the images of all its
tuples at once, as the last argument after k - 1 fixed ones (its `columns`).

A classifier scans its closure operations in a fixed order, once each: the
first violation of an operation is that operation's witness, and the first
operation without one makes the language tractable.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

MAX_RELATION_ARITY = 24
MAX_OPERATION_ARITY = 8


class RelationError(ValueError):
    pass


class EmptyRelationError(RelationError):
    """Raised when a classifier or identifier is handed an empty relation."""


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
    # the low `arity` bits under a sentinel one, read back to front without it
    return format(mask & ((1 << arity) - 1) | 1 << arity, "b")[:0:-1]


def string_to_mask(s: str) -> int:
    m = 0
    for i, ch in enumerate(s):
        if ch == "1":
            m |= 1 << i
        elif ch != "0":
            raise RelationError(f"bad tuple character {ch!r} in {s!r}")
    return m


# The one rule for every integer the program reads, in a name, a file token or
# an argument: ASCII digits with no leading zero.  A name embeds NUMERAL; a
# token or an argument may also carry a minus sign, so that a negative count
# reaches the range check that names it.
NUMERAL = re.compile("0|[1-9][0-9]*")
_INTEGER = re.compile(f"-?(?:{NUMERAL.pattern})")


def numeral(text: str) -> int:
    """The integer `text` spells under the numeral rule; ValueError otherwise."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"not a numeral: {text!r}")
    return int(text)


# Weights, thresholds and cost values repeat a handful of tokens ("1/2", "3",
# ...), so each token's Fraction is kept; Fraction's string parser takes about
# 2 us a token.  The 1024 entries bound the cache at about 0.2 MB however many
# distinct tokens a long run meets.  A bad token raises and is not kept.
@lru_cache(maxsize=1 << 10)
def number(text: str) -> Fraction:
    """A number token: Fraction's grammar, in ASCII and without '_'.

    ValueError or ZeroDivisionError otherwise, as from Fraction itself.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return Fraction(text)


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
        if tups != self.tuples:
            object.__setattr__(self, "tuples", tups)
        # sorted, so the ends bound every tuple; report the first bad one
        full = 1 << self.arity
        if tups and (tups[0] < 0 or tups[-1] >= full):
            bad = tups[0] if tups[0] < 0 else next(t for t in tups if t >= full)
            raise RelationError(f"tuple mask {bad} out of range for arity {self.arity}")

    @staticmethod
    def from_masks(arity: int, masks: Iterable[int], name: Optional[str] = None,
                   allow_empty: bool = False) -> "Relation":
        tups = tuple(masks)  # the constructor sorts and deduplicates
        if not tups and not allow_empty:
            raise EmptyRelationError("empty relation requires allow_empty=True")
        return Relation(arity, tups, name)

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

    @cached_property
    def bits(self) -> int:
        """Int of 2^arity bits, bit m set iff m is a tuple (cached like
        `_tuple_set`, for the lifetime of this object)."""
        packed = bytearray(((1 << self.arity) + 7) >> 3)
        for t in self.tuples:
            packed[t >> 3] |= 1 << (t & 7)
        return int.from_bytes(packed, "little")

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Per coordinate j, the int whose bit i is coordinate j of tuple i
        (cached like `bits`): one transpose of the tuples' binary strings."""
        rows = zip(*(format(t | 1 << self.arity, "b") for t in reversed(self.tuples)))
        return tuple(int("".join(row), 2) for row in list(rows)[:0:-1])

    @cached_property
    def hits(self) -> tuple[int, ...]:
        """0/1 over all 2^arity masks, 1 on the tuples: the Max-CSP score
        table the oracle scales by a constraint's weight (cached like `bits`)."""
        table = [0] * (1 << self.arity)
        for t in self.tuples:
            table[t] = 1
        return tuple(table)

    @cached_property
    def diagram(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """(root, nodes) of the reduced ordered decision diagram.

        Node 0 is the empty and node 1 the full relation; node i + 2 is
        nodes[i] = (j, lo, hi), which holds where coordinate j is 0 and
        node lo holds, or where it is 1 and node hi holds.  Coordinates
        above j do not matter to it, and children come before parents.  A
        relation and its complement have diagrams of one size, at most
        arity times the size of the smaller side.  Cached like `bits`.
        """
        nodes: list[tuple[int, int, int]] = []
        ids: dict[tuple[int, int], int] = {}

        def build(bits: int, j: int) -> int:
            # bits: the sub-relation on coordinates 0..j, bit m set iff m in it
            if not bits or bits == (1 << (1 << (j + 1))) - 1:
                return 1 if bits else 0
            node = ids.get((j, bits))
            if node is None:
                half = 1 << j
                lo = build(bits & ((1 << half) - 1), j - 1)
                hi = build(bits >> half, j - 1)
                if lo == hi:
                    node = lo
                else:
                    nodes.append((j, lo, hi))
                    node = len(nodes) + 1
                ids[j, bits] = node
            return node

        return build(self.bits, self.arity - 1), tuple(nodes)

    def evaluate(self, literals: Sequence[tuple[int, int]], full: int) -> int:
        """The positions where the relation holds, given literals[j] = (~X_j, X_j)
        within `full` for X_j the positions where coordinate j is 1: one
        `&`/`|` per diagram node."""
        root, nodes = self.diagram
        sets = [0, full]
        for j, lo, hi in nodes:
            neg, pos = literals[j]
            if not lo:
                sets.append(pos & sets[hi])
            elif not hi:
                sets.append(neg & sets[lo])
            else:
                sets.append(neg & sets[lo] | pos & sets[hi])
        return sets[root]

    def minor(self, pattern: tuple[int, ...]) -> "Relation":
        """The identification minor: coordinate j reads variable pattern[j].

        The variables are numbered 0, 1, ... in order of first occurrence,
        so R(x, x, y, x) is `minor((0, 0, 1, 0))`, a binary relation that
        holds mask m iff the tuple with bit j set to bit pattern[j] of m is
        in this relation.  A pattern without repeats gives this relation
        back.  Each minor is built once per pattern and cached like `bits`,
        with its own `bits` and `diagram`.
        """
        got = self._minors.get(pattern)
        if got is None:
            got = self._minors[pattern] = self._identify(pattern)
        return got

    @cached_property
    def _minors(self) -> dict[tuple[int, ...], "Relation"]:
        return {}

    @cached_property
    def table_cache(self) -> dict[tuple, int]:
        """The oracle's truth tables of this relation, keyed by (args, n), and
        by (args, n, fixed) where arguments past n are fixed constants.

        `oracle._table` fills and bounds it; it is held here like the
        minors, so it lives as long as this object and no other relation
        reads it.
        """
        return {}

    def _identify(self, pattern: tuple[int, ...]) -> "Relation":
        bad = RelationError(f"{pattern} is not an identification pattern of arity {self.arity}")
        if len(pattern) != self.arity:
            raise bad
        cols: list[int] = []  # per variable, the mask of the coordinates that read it
        for j, p in enumerate(pattern):
            if p == len(cols):
                cols.append(0)
            elif not 0 <= p < len(cols):
                raise bad
            cols[p] |= 1 << j
        if len(cols) == self.arity:
            return self
        out = []
        for t in self.tuples:
            m = 0
            for i, c in enumerate(cols):
                hit = t & c
                if hit == c:
                    m |= 1 << i
                elif hit:
                    break  # coordinates that share a variable disagree
            else:
                out.append(m)
        return Relation.from_masks(len(cols), out, allow_empty=True)

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

    @cached_property
    def support(self) -> Relation:
        """The argument tuples that map to 1.  Its diagram has at most 77
        nodes at arity 8."""
        return Relation(self.arity, tuple(m for m, v in enumerate(self.table) if v))

    def image(self, masks: Sequence[int], full: int) -> int:
        """This operation applied coordinatewise to the tuples `masks` (`full`
        sets every coordinate)."""
        return self.support.evaluate([(full ^ t, t) for t in masks], full)

    def dual(self) -> "BooleanOperation":
        full = (1 << self.arity) - 1
        table = tuple(1 - self.table[full ^ m] for m in range(1 << self.arity))
        nm = f"dual({self.name})" if self.name else None
        return BooleanOperation(self.arity, table, nm)


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


def find_violation(f: BooleanOperation, rel: Relation):
    """(seq, image) for the first tuple sequence in product order whose image
    escapes rel, or None.  Per choice of the leading arguments, at0 and at1
    are the images with the last argument all 0 and all 1, so image
    coordinate j is column j's ones where at1 has bit j and its zeros where
    at0 has."""
    full = (1 << rel.arity) - 1
    every = (1 << len(rel.tuples)) - 1  # one bit per tuple
    for lead in itertools.product(rel.tuples, repeat=f.arity - 1):
        at0, at1 = f.image(lead + (0,), full), f.image(lead + (full,), full)
        imgs = [(at1 >> j & 1) * col | (at0 >> j & 1) * (every ^ col)
                for j, col in enumerate(rel.columns)]
        out = every ^ rel.evaluate([(every ^ img, img) for img in imgs], every)
        if out:  # the lowest escaping position comes first in product order
            seq = lead + (rel.tuples[(out & -out).bit_length() - 1],)
            return seq, f.image(seq, full)
    return None


def preserves_symmetric(count_table: Sequence[int], k: int, rel: Relation) -> bool:
    """Preservation check for a symmetric k-ary operation.

    Only tuple multisets are enumerated; the image depends on the per-coordinate
    one-counts alone.  Co-clone identification walks states instead
    (`postlattice._h_preserves_rel`); this enumeration is the walk's test reference.
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
    return find_violation(f, rel) is None


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
    table = tuple(1 if m.bit_count() >= n else 0 for m in range(1 << (n + 1)))
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
    return Relation(n, tuple(m for m in range(1 << n) if m.bit_count() % 2 == 0), f"EVEN{n}")


def rel_odd(n: int) -> Relation:
    _check_ctor_arity(n)
    return Relation(n, tuple(m for m in range(1 << n) if m.bit_count() % 2 == 1), f"ODD{n}")


def rel_one_in_three() -> Relation:
    return Relation(3, (0b001, 0b010, 0b100), "R13")


def _check_ctor_arity(n: int) -> None:
    if not 1 <= n <= MAX_RELATION_ARITY:
        raise RelationError(f"arity {n} out of range 1..{MAX_RELATION_ARITY}")


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
    # the first violation of each operation is its witness; an operation
    # with none is the first preserving one
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
        else:
            return Classification("P", op.name, ())
    return Classification("NP-hard", None, tuple(witnesses))


def classify_max_ones(language: ConstraintLanguage) -> Classification:
    """Tractable iff the language is 1-closed, max-closed, or arithmetical-closed."""
    return _classify_by_closures(language, [OP_CONST1, OP_OR, arithmetical_operation()])


def classify_sat(language: ConstraintLanguage) -> Classification:
    """Standard six-closure satisfiability dichotomy test."""
    return _classify_by_closures(language, [OP_CONST0, OP_CONST1, OP_AND, OP_OR, OP_XOR3, OP_MAJ])
