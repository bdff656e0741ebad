"""Truth tables: a set of assignments over n variables as one int.

Bit a is set iff assignment a (variable v in bit v of a) is in the set.  A
constraint's table is its relation's reduced ordered decision diagram
(Bryant 1986) walked on the argument planes by `Relation.evaluate`, one
`&`/`|` per node, so a weak base, OR8 and EVEN8 each cost a few dozen int
operations.  Nothing here needs numpy.
"""

from __future__ import annotations

import functools
from itertools import compress


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


def table(rel, args, n: int, fixed: int = 0) -> int:
    """The table over n variables of constraint `rel` on `args`: each diagram
    node's table joins its children's by the literals of its argument.

    An argument at n or above is a constant: the i-th such argument reads
    bit i of `fixed`, and its literals are the empty and the full table.
    """
    full, literals = planes(n)
    constants = ((full, 0), (0, full))
    lits = []
    for v in args:
        if v < n:
            lits.append(literals[v])
        else:
            lits.append(constants[fixed & 1])
            fixed >>= 1
    return rel.evaluate(lits, full)


def project(t: int, n: int, keep: int) -> int:
    """Table t over n variables with variables keep..n-1 projected away."""
    for v in range(n - 1, keep - 1, -1):
        # the half that sets v (the top variable left) falls onto the other
        t = (t | t >> (1 << v)) & ((1 << (1 << v)) - 1)
    return t


_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def masks(t: int, n: int) -> list[int]:
    """The assignments of table t over n variables, as ascending ints.

    The table's binary digits, lowest first, are searched for each set bit
    when fewer than one bit in eight is set, and otherwise read as one
    0/1 selector per assignment.  On a 2-vCPU VM at 14 variables the search
    takes 12-17 us on up to 12 set bits, 56 us on 256 and 280 us on 2,000,
    and the read 480-530 us on a half-full or full table, where numpy's
    unpacking took 14, 42, 75 and 250-290 us with its `tolist`.
    """
    digits = format(t, "b")[::-1]
    if t.bit_count() < (1 << n) >> 3:
        out = []
        i = digits.find("1")
        while i >= 0:
            out.append(i)
            i = digits.find("1", i + 1)
        return out
    return list(compress(range(len(digits)), digits.encode().translate(_ZERO_ONE)))
