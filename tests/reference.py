"""The brute-force reference that every route of `oracle.solve` is tested against.

It shares with the solver only the instance, the resolver and the variable
caps.  The objective comes from Fractions (`reference_terms`), not from
`oracle._terms`; every mask is scored in numpy chunks of its own size, not
the grid's, with every relation's bool table built here from its tuples
(`lut`) and read at its raw arguments, not its minor, and every variable
weight counted on the mask's own bits.  Chunks run in ascending mask order,
so the first optimal mask met is the least.
"""

import math
from fractions import Fraction

import numpy as np

from coclones import oracle
from coclones.instances import (
    KIND_MAXCSP,
    KIND_MINO,
    KIND_SAT,
    KIND_UMO,
    KIND_VCSP,
    KIND_WMO,
    MAXIMIZING_KINDS,
    OracleError,
    default_resolver,
)
from coclones.oracle import SolveResult

HARD_KINDS = (KIND_SAT, KIND_UMO, KIND_WMO, KIND_MINO)
# masks scored at once: 2^16 int64 values take 512 KB
CHUNK_BITS = 16


def reference_terms(inst, resolver, want_all):
    """`oracle._terms` rebuilt from Fractions alone, as the error text or as
    (hard terms, scale, integer soft tables, Ones groups, objective bound).

    Every weighted value is one Fraction, the scale is the lcm of all of
    their denominators, and each integer is a value times the scale.  Max-CSP
    reads a relation through `contains`, Max-Cut through its definition.
    """
    kind = inst.kind
    applied = [resolver.resolve_all(kind, (c,))[0] for c in inst.constraints]
    n = inst.num_vars
    cap = oracle.MAX_ENUMERATE_VARS if want_all else oracle.MAX_SOLVE_VARS
    if n > cap:
        return f"instance has {n} variables, oracle cap is {cap}"
    hard, soft, groups = [], [], {}
    if kind in HARD_KINDS:
        hard = [(c.args, rel) for c, rel in zip(inst.constraints, applied)]
        if kind != KIND_SAT and inst.var_weights is None:
            groups = {Fraction(1): (1 << n) - 1}
        elif kind != KIND_SAT:
            for i, w in enumerate(inst.var_weights):
                if w:
                    groups[Fraction(w)] = groups.get(Fraction(w), 0) | 1 << i
    else:
        for c, fn in zip(inst.constraints, applied):
            w = Fraction(1) if c.weight is None else Fraction(c.weight)
            if kind == KIND_VCSP:
                values = fn.table
            elif kind == KIND_MAXCSP:
                values = [fn.contains(m) for m in range(1 << fn.arity)]
            else:  # code m of an edge holds its ends in bits 0 and 1
                values = [(m & 1) != (m >> 1) for m in range(4)]
            soft.append((c.args, [w * Fraction(v) for v in values]))
    scale = math.lcm(*(w.denominator for w in groups),
                     *(x.denominator for _, table in soft for x in table))
    ints = [(args, [int(x * scale) for x in table]) for args, table in soft]
    ones = [(int(w * scale), mask) for w, mask in groups.items()]
    bound = sum(max(table) for _, table in ints) + sum(w * m.bit_count() for w, m in ones)
    if bound >= 1 << 60:
        return "objective magnitude exceeds the exact int64 budget"
    return hard, scale, ints, ones, bound


def lut(rel) -> np.ndarray:
    """The relation's bool table over all 2^arity masks, True on its tuples."""
    table = np.zeros(1 << rel.arity, dtype=bool)
    table[list(rel.tuples)] = True
    return table


def codes(masks: np.ndarray, args) -> np.ndarray:
    """Per mask, the code whose bit j is the value of variable args[j]."""
    out = np.zeros_like(masks)
    for j, v in enumerate(args):
        out |= (masks >> v & 1) << j
    return out


def solve_bruteforce(inst, resolver=None, want_all=False) -> SolveResult:
    """Exact optimum (or satisfiability) by scoring all 2^n assignments.

    Raises what `oracle.solve` raises: the resolver's InstanceError, and an
    OracleError with `_terms`'s text past a cap.
    """
    terms = reference_terms(inst, resolver or default_resolver(), want_all)
    if isinstance(terms, str):
        raise OracleError(terms)
    hard, scale, soft, ones, _ = terms
    hard = [(args, lut(rel)) for args, rel in hard]
    kind, n = inst.kind, inst.num_vars
    maximize = kind in MAXIMIZING_KINDS
    size = 1 << min(n, CHUNK_BITS)
    best, witness, optimal = None, None, []
    for base in range(0, 1 << n, size):
        masks = np.arange(base, base + size, dtype=np.int64)
        feasible = np.ones(size, dtype=bool)
        for args, table in hard:
            feasible &= table[codes(masks, args)]
        if not feasible.any():
            continue
        value = np.zeros(size, dtype=np.int64)
        for args, table in soft:
            value += np.array(table, dtype=np.int64)[codes(masks, args)]
        for w, m in ones:
            value += np.bitwise_count(masks & m).astype(np.int64) * w
        value = value[feasible]
        top = int(value.max() if maximize else value.min())
        hits = masks[feasible][value == top]
        if best is None or (top > best if maximize else top < best):
            best, witness, optimal = top, int(hits[0]), [hits]
        elif top == best:
            optimal.append(hits)
    if best is None:
        return SolveResult(kind, False, None, None, () if want_all else None)
    return SolveResult(kind, True, None if kind == KIND_SAT else Fraction(best, scale), witness,
                       tuple(int(m) for hits in optimal for m in hits) if want_all else None)
