"""Truth tables: a set of assignments over n variables as one int.

Bit a is set iff assignment a (variable v in bit v of a) is in the set.  A
constraint's table is its relation's reduced ordered decision diagram
(Bryant 1986) walked on the argument planes by `Relation.evaluate`, one
`&`/`|` per node, so a weak base, OR8 and EVEN8 each cost a few dozen int
operations; a relation whose diagram passes `relations.DIAGRAM_NODES` nodes
per coordinate has its LUT gathered instead.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def arange(n: int) -> np.ndarray:
    """All 2^n masks in ascending order, read-only."""
    out = np.arange(1 << n, dtype=np.int64)
    out.flags.writeable = False
    return out


def code(x: np.ndarray, pairs) -> np.ndarray:
    """Per element of x, the code whose bit j is bit v of x, for (j, v) in pairs."""
    out = None
    for j, v in pairs:
        # shift bit v to place j, then keep only that place
        bit = x >> (v - j) if v >= j else x << (j - v)
        bit &= 1 << j
        if out is None:
            out = bit
        else:
            out |= bit
    return np.zeros_like(x) if out is None else out


@functools.cache
def planes(n: int):
    """(FULL, literals) over n variables: FULL holds every assignment and
    literals[v] = (~X_v, X_v), X_v the assignments that set variable v."""
    full = (1 << (1 << n)) - 1
    literals = []
    for v in range(n):
        # a block of 2^v clear bits then 2^v set bits, doubled up to 2^n bits
        # (linear; dividing FULL by the block's all-ones is quadratic in 2^n)
        x = ((1 << (1 << v)) - 1) << (1 << v)
        for w in range(v + 1, n):
            x |= x << (1 << w)
        literals.append((full ^ x, x))
    return full, tuple(literals)


def table(rel, args, n: int) -> int:
    """The table over n variables of constraint `rel` on `args`: each diagram
    node's table joins its children's by the literals of its argument."""
    if rel.diagram is None:
        hits = rel.lut[code(arange(n), enumerate(args))]
        return int.from_bytes(np.packbits(hits, bitorder="little").tobytes(), "little")
    full, literals = planes(n)
    return rel.evaluate([literals[v] for v in args], full)


def project(t: int, n: int, keep: int) -> int:
    """Table t over n variables with variables keep..n-1 projected away."""
    for v in range(n - 1, keep - 1, -1):
        # the half that sets v (the top variable left) falls onto the other
        t = (t | t >> (1 << v)) & ((1 << (1 << v)) - 1)
    return t


def masks(t: int, n: int) -> np.ndarray:
    """The assignments of table t over n variables, as ascending int64 masks.

    A table with fewer set bits than 64-bit words has only its nonzero bytes
    unpacked; any other has all its bits unpacked.  At 14 variables the
    first read takes 8-17 us on up to 256 set bits and the second 26 us,
    but on a full table the first takes 106 us and the second 22 us."""
    bits = np.frombuffer(t.to_bytes(max(1, (1 << n) >> 3), "little"), dtype=np.uint8)
    if t.bit_count() < (1 << n) >> 6:
        at = np.flatnonzero(bits)
        rows, cols = np.nonzero(np.unpackbits(bits[at, None], axis=1, bitorder="little"))
        return at[rows] * 8 + cols
    return np.flatnonzero(np.unpackbits(bits, bitorder="little"))
