"""Weak-base relations for every Boolean co-clone with a finite base.

Variable order follows each defining formula's written order, with the
forced-constant coordinates c0 and c1 always in the last positions; all
gadget reductions address coordinates by this order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .postlattice import CATALOG, CHAIN_FAMILIES, CoCloneId, _monotone, _r0, _r1
from .relations import MAX_RELATION_ARITY, Relation, RelationError


@dataclass(frozen=True)
class WeakBaseEntry:
    coclone: CoCloneId
    relation: Relation
    formula: str


def _rel(arity: int, pred: Callable[[tuple[int, ...]], bool], name: str) -> Relation:
    # checked before the 2^arity masks are enumerated, not after
    if arity > MAX_RELATION_ARITY:
        raise RelationError(f"{name} has arity {arity}, past the cap of {MAX_RELATION_ARITY}")
    rows = []
    for m in range(1 << arity):
        bits = tuple((m >> i) & 1 for i in range(arity))
        if pred(bits):
            rows.append(m)
    return Relation.from_masks(arity, rows, name)


def _even(*xs: int) -> bool:
    return sum(xs) % 2 == 0


def _name(coclone: CoCloneId) -> str:
    if coclone.is_chain:
        return f"R_I{coclone.family}_{coclone.index}"
    return f"R_I{coclone.family}"


# builders for the non-chain rows: family -> (formula text, arity, predicate)
_PLAIN: dict[str, tuple[str, int, Callable[[tuple[int, ...]], bool]]] = {
    "BF": ("eq(x1,x2)", 2, lambda b: b[0] == b[1]),
    "R0": ("F(c0)", 1, lambda b: b[0] == 0),
    "R1": ("T(c1)", 1, lambda b: b[0] == 1),
    "R2": ("F(c0) & T(c1)", 2, lambda b: b == (0, 1)),
    "M": ("x1 -> x2", 2, lambda b: b[0] <= b[1]),
    "M0": ("(x1 -> x2) & F(c0)", 3, lambda b: b[0] <= b[1] and b[2] == 0),
    "M1": ("(x1 -> x2) & T(c1)", 3, lambda b: b[0] <= b[1] and b[2] == 1),
    "M2": ("(x1 -> x2) & F(c0) & T(c1)", 4,
           lambda b: b[0] <= b[1] and b[2] == 0 and b[3] == 1),
    "D": ("x1 != x2", 2, lambda b: b[0] != b[1]),
    "D1": ("(x1 != x2) & F(c0) & T(c1)", 4,
           lambda b: b[0] != b[1] and b[2] == 0 and b[3] == 1),
    "D2": ("OR2_2ne(x1..x4) & F(c0) & T(c1)", 6,
           lambda b: (b[0] or b[1]) and b[2] == 1 - b[0] and b[3] == 1 - b[1]
           and b[4] == 0 and b[5] == 1),
    "L": ("EVEN4(x1..x4)", 4, lambda b: _even(*b)),
    "L0": ("EVEN3(x1,x2,x3) & F(c0)", 4, lambda b: _even(*b[:3]) and b[3] == 0),
    "L1": ("ODD3(x1,x2,x3) & T(c1)", 4, lambda b: not _even(*b[:3]) and b[3] == 1),
    "L2": ("EVEN3_3ne(x1..x6) & F(c0) & T(c1)", 8,
           lambda b: _even(*b[:3]) and all(b[3 + j] == 1 - b[j] for j in range(3))
           and b[6] == 0 and b[7] == 1),
    "L3": ("EVEN4_4ne(x1..x8)", 8,
           lambda b: _even(*b[:4]) and all(b[4 + j] == 1 - b[j] for j in range(4))),
    "V": ("(~x1 <-> ~x2~x3) & (~x2 | ~x3 -> ~x4)", 4,
          lambda b: b[0] == (b[1] | b[2]) and b[3] <= (b[1] & b[2])),
    "V0": ("(~x1 <-> ~x2~x3) & F(c0)", 4,
           lambda b: b[0] == (b[1] | b[2]) and b[3] == 0),
    "V1": ("(~x1 <-> ~x2~x3) & (~x2 | ~x3 -> ~x4) & T(c1)", 5,
           lambda b: b[0] == (b[1] | b[2]) and b[3] <= (b[1] & b[2]) and b[4] == 1),
    "V2": ("(~x1 <-> ~x2~x3) & F(c0) & T(c1)", 5,
           lambda b: b[0] == (b[1] | b[2]) and b[3] == 0 and b[4] == 1),
    "E": ("(x1 <-> x2x3) & (x2 | x3 -> x4)", 4,
          lambda b: b[0] == (b[1] & b[2]) and (b[1] | b[2]) <= b[3]),
    "E0": ("(x1 <-> x2x3) & (x2 | x3 -> x4) & F(c0)", 5,
           lambda b: b[0] == (b[1] & b[2]) and (b[1] | b[2]) <= b[3] and b[4] == 0),
    "E1": ("(x1 <-> x2x3) & T(c1)", 4,
           lambda b: b[0] == (b[1] & b[2]) and b[3] == 1),
    "E2": ("(x1 <-> x2x3) & F(c0) & T(c1)", 5,
           lambda b: b[0] == (b[1] & b[2]) and b[3] == 0 and b[4] == 1),
    "N": ("EVEN4(x1..x4) & (x1x4 <-> x2x3)", 4,
          lambda b: _even(*b) and (b[0] & b[3]) == (b[1] & b[2])),
    "N2": ("EVEN4_4ne(x1..x8) & (x1x4 <-> x2x3)", 8,
           lambda b: _even(*b[:4]) and all(b[4 + j] == 1 - b[j] for j in range(4))
           and (b[0] & b[3]) == (b[1] & b[2])),
    "I": ("(x1 <-> x2x3) & (~x4 <-> ~x2~x3)", 4,
          lambda b: b[0] == (b[1] & b[2]) and b[3] == (b[1] | b[2])),
    "I0": ("(~x1 | ~x2) & (~x1~x2 <-> ~x3) & F(c0)", 4,
           lambda b: not (b[0] and b[1]) and b[2] == (b[0] | b[1]) and b[3] == 0),
    "I1": ("(x1 | x2) & (x1x2 <-> x3) & T(c1)", 4,
           lambda b: (b[0] or b[1]) and b[2] == (b[0] & b[1]) and b[3] == 1),
    "I2": ("R13_3ne(x1..x6) & F(c0) & T(c1)", 8,
           lambda b: sum(b[:3]) == 1 and all(b[3 + j] == 1 - b[j] for j in range(3))
           and b[6] == 0 and b[7] == 1),
}


def _chain_entry(family: str, n: int) -> tuple[str, int, Iterable[int]]:
    """(formula, arity, tuple masks) of a chain row, listed without a scan.

    The row follows the family's catalog declaration.  Its core is OR_n on
    side 0 and NAND_n on side 1.  A column x follows the core iff the family
    is monotone: x -> x1..xn under OR, and the dual x1|..|xn -> x under NAND
    (read as x -> x1..xn under NAND, x would be forced to 0 and the S11 row
    would collapse to the S1 row).  The constant columns are F(c0) & T(c1)
    if the family is 0- and 1-reproducing, else T(c1) on side 0 and F(c0)
    on side 1.
    """
    row = CATALOG[family]
    core = "NAND" if row.side else "OR"
    implication = _monotone in row.definition
    constants = "01" if {_r0, _r1} <= set(row.definition) else "0" if row.side else "1"
    arity = n + implication + len(constants)
    if arity > MAX_RELATION_ARITY:
        raise RelationError(f"R_I{family}_{n} has arity {arity}, "
                            f"past the cap of {MAX_RELATION_ARITY}")
    full, x = (1 << n) - 1, 1 << n
    # each T(c1) column adds its bit to every tuple; F(c0) columns add none
    ones = sum(1 << (n + implication + i) for i, c in enumerate(constants) if c == "1")
    formula = f"{core}{n}(x1..x{n})"
    if core == "OR":
        rows: Iterable[int] = range(1 + ones, full + 1 + ones)
        if implication:  # x is set only beside the all-ones tuple
            formula += f" & (x -> x1..x{n})"
            rows = itertools.chain(rows, (full | x | ones,))
    else:
        rows = range(ones, full + ones)
        if implication:  # x is set beside every tuple but 0, and free beside 0
            formula += f" & (x1|..|x{n} -> x)"
            rows = itertools.chain((ones,), range(x + ones, full + x + ones))
    formula += "".join(" & T(c1)" if c == "1" else " & F(c0)" for c in constants)
    return formula, arity, rows


@lru_cache(maxsize=None)
def weak_base_entry(coclone: CoCloneId) -> WeakBaseEntry:
    if coclone.is_limit:
        raise RelationError(f"{coclone.display()} has no finite base, hence no weak base")
    if coclone.is_chain:
        formula, arity, rows = _chain_entry(coclone.family, coclone.index)
        rel = Relation.from_masks(arity, rows, _name(coclone))
    else:
        formula, arity, pred = _PLAIN[coclone.family]
        rel = _rel(arity, pred, _name(coclone))
    return WeakBaseEntry(coclone, rel, formula)


def weak_base(coclone: CoCloneId, n: Optional[int] = None) -> Relation:
    """The weak-base relation of a co-clone (chain rows need an index)."""
    if n is not None:
        coclone = CoCloneId(coclone.family, n)
    return weak_base_entry(coclone).relation


def all_entries(chain_indices: tuple[int, ...] = (2, 3)) -> list[WeakBaseEntry]:
    out = []
    for fam in _PLAIN:
        out.append(weak_base_entry(CoCloneId(fam)))
    for fam in CHAIN_FAMILIES:
        for n in chain_indices:
            out.append(weak_base_entry(CoCloneId(fam, n)))
    return out
