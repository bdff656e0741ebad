"""The oracle's numpy routes: bucket elimination, the chunked grid, the
reference enumeration (all described in the `oracle` docstring), and the LUT
gather of a relation without a diagram.  Only this module and the relations'
bool LUTs it reads import numpy, and only where one of these runs."""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Optional

import numpy as np

from .instances import KIND_SAT, MAXIMIZING_KINDS, Instance
from .oracle import _CHUNK_BITS, SolveResult


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


def gather(rel, args, n: int, fixed: int = 0) -> int:
    """`truthtables.table` of a relation without a diagram: its LUT gathered
    at the code of every assignment, the constant arguments' bits in place."""
    pairs, const = [], 0
    for j, v in enumerate(args):
        if v < n:
            pairs.append((j, v))
        else:
            const |= (fixed & 1) << j
            fixed >>= 1
    hits = rel.lut[code(arange(n), pairs) | const]
    return int.from_bytes(np.packbits(hits, bitorder="little").tobytes(), "little")


def eliminate(kind: str, by_top: dict[int, list], last: list[int], scale: int) -> SolveResult:
    """Solve a soft-kind instance by bucket elimination in variable order
    (Bertele & Brioschi 1972; Dechter, *Constraint Processing*, ch. 4).

    One int64 array over the states of the variables in the table holds,
    per state, a packed key: the best objective of the terms added so far,
    shifted left by n bits, over the least mask that reaches it in the low n
    bits, complemented when maximizing.  So the better key is the larger
    (maximizing) or the smaller one, and on equal objectives it is the one
    of the smaller mask.  Step v doubles the array by v's bit (setting it
    adds 1 << v to the mask, so subtracts it from the complement), adds the
    terms of step v (`by_top`) shifted by n, and forgets every variable
    that no later term holds (`last`): each state keeps the better key of
    its two halves, so the least optimal mask comes out, as on the grid.
    Both come from `oracle._buckets`, which `solve` runs once for this and
    for `oracle._elimination_pays`.  The keys fit in int64 when the
    objective is below 2^(62 - n), which `solve` checks first.
    """
    n = len(last)
    maximize = kind in MAXIMIZING_KINDS
    low = (1 << n) - 1
    key = np.full(1, low if maximize else 0, dtype=np.int64)
    better = np.maximum if maximize else np.minimum
    active: list[int] = []  # state bit i holds variable active[i]
    for v in range(n):
        key = np.concatenate((key, key - (1 << v) if maximize else key + (1 << v)))
        active.append(v)
        for args, table in by_top.get(v, ()):
            _spread_add(key, [active.index(u) for u in args],
                        np.array(table, dtype=np.int64) << n)
        for u in [u for u in active if last[u] == v]:
            # axis 1 of the view is u's bit
            halves = key.reshape(-1, 2, 1 << active.index(u))
            key = better(halves[:, 0], halves[:, 1]).ravel()
            active.remove(u)
    best = int(key[0])
    witness = (best ^ low if maximize else best) & low
    return SolveResult(kind, True, Fraction(best >> n, scale), witness)


def _spread_add(acc: np.ndarray, places: list[int], table: np.ndarray) -> None:
    """Add to acc, state by state, table at the code whose bit j is state bit places[j].

    The table is first brought onto the distinct places, ascending: on
    distinct places by transposing its axes, one of 2 per argument, and on
    repeated ones, as of an edge (a, a), by a gather.  acc is then viewed
    with one axis of 2 per place and one axis per run of bits between them,
    and the small table is added by broadcasting.
    """
    distinct = sorted(set(places))
    k = len(places)
    if len(distinct) == k:
        # axis i of the reshaped table is argument k - 1 - i's bit, and axis i
        # of the small one must be place distinct[k - 1 - i]'s
        small = table.reshape((2,) * k).transpose(
            [k - 1 - places.index(p) for p in reversed(distinct)])
    else:
        small = table[code(arange(len(distinct)),
                           [(j, distinct.index(p)) for j, p in enumerate(places)])]
    shape, spread, top = [], [], acc.size.bit_length() - 1
    for p in reversed(distinct):  # the C-order axes run from the top bit down
        shape += (1 << (top - p - 1), 2)
        spread += (1, 2)
        top = p
    view = acc.reshape(shape + [1 << top])
    view += small.reshape(spread + [1])


def row_chunks(hard, soft, dtype, bits):
    """Reference evaluator: every term gathered mask by mask with `code`."""
    def eval_chunk(base: int):
        idx = np.arange(base, base + (1 << bits), dtype=np.int64)
        feasible = np.ones(idx.shape, dtype=bool) if hard else None
        for args, rel in hard:
            feasible &= rel.lut[code(idx, enumerate(args))]
        obj = np.zeros(idx.shape, dtype=np.int64)
        for args, table in soft:
            obj += table[code(idx, enumerate(args))]
        return obj, feasible
    return eval_chunk


def split_chunks(soft, dtype, bits):
    """Hi/lo evaluator of a soft-kind instance: each term is gathered once
    per half of the chunk (`_GridSum`), and every mask is feasible."""
    objective = _GridSum(soft, bits, dtype)
    return lambda base: (objective(base).ravel(), None)


class _GridSum:
    """Sum (args, table) terms over a chunk of 2^bits masks.

    The chunk is a (2^H, 2^L) grid with L = bits // 2: the row holds mask
    bits L..bits-1 and the column bits 0..L-1, so row-major order is mask
    order.  Arguments at `bits` and above are constant within a chunk and
    fold into a term's code once per chunk.  A term whose arguments all lie
    in one half is summed into a vector of that half, and the two vectors
    meet in one outer sum.  Terms that cross the halves are grouped by
    their high variables; a group becomes one (2^h, 2^L) table, which the
    grid takes in with one broadcast over the high bits outside the group.
    """

    def __init__(self, terms, bits: int, dtype) -> None:
        self.dtype = dtype
        low_bits = bits // 2
        high_bits = bits - low_bits
        lo = np.arange(1 << low_bits)
        hi = np.arange(1 << high_bits)
        self.low: list = []  # (table, constant pairs, column codes)
        self.high: list = []  # (table, constant pairs, row codes)
        crossing: dict[tuple[int, ...], list] = {}
        for args, table in terms:
            const = [(v, j) for j, v in enumerate(args) if v >= bits]
            lo_code = code(lo, [(j, v) for j, v in enumerate(args) if v < low_bits])
            hvars = sorted({v for v in args if low_bits <= v < bits})
            if not hvars:
                self.low.append((table, const, lo_code))
            elif all(v >= low_bits for v in args):
                hi_code = code(hi, [(j, v - low_bits) for j, v in enumerate(args) if v < bits])
                self.high.append((table, const, hi_code))
            else:
                # row r of the group table sets high variable hvars[i] to bit i of r
                rows = code(np.arange(1 << len(hvars)),
                            [(j, hvars.index(v)) for j, v in enumerate(args)
                             if low_bits <= v < bits])
                crossing.setdefault(tuple(hvars), []).append(
                    (table, const, rows[:, None] | lo_code[None, :]))
        # one axis per high bit, the most significant first, as in a C-order
        # reshape of the row index; a group table varies only along its own bits
        self.halves = (hi.size, lo.size)
        self.grid_shape = (2,) * high_bits + (lo.size,)
        self.crossing = [
            ((1 << len(hvars), lo.size),
             tuple(2 if low_bits + b in hvars else 1
                   for b in reversed(range(high_bits))) + (lo.size,),
             members)
            for hvars, members in crossing.items()]

    def _sum(self, members, shape, base: int) -> np.ndarray:
        acc = np.zeros(shape, dtype=self.dtype)
        for table, const, at in members:
            fixed = sum(((base >> v) & 1) << j for v, j in const)
            acc += table[at | fixed] if fixed else table[at]
        return acc

    def __call__(self, base: int) -> np.ndarray:
        nhi, nlo = self.halves
        grid = np.add.outer(self._sum(self.high, nhi, base), self._sum(self.low, nlo, base))
        axes = grid.reshape(self.grid_shape)
        for shape, broadcast, members in self.crossing:
            axes += self._sum(members, shape, base).reshape(broadcast)
        return grid


def enumerate_masks(inst: Instance, tables, want_all: bool, jobs: int,
                    evaluator) -> SolveResult:
    """Enumerate all 2^n assignments in chunks of 2^min(n, _CHUNK_BITS) masks.

    `tables` is the objective of the instance's `oracle._terms`.
    `evaluator(soft, dtype, bits)` returns a function that maps a chunk's
    first mask to the chunk's objective and feasibility (None when every
    mask is feasible), both in mask order.
    """
    n = inst.num_vars
    kind = inst.kind
    maximize = kind in MAXIMIZING_KINDS
    scale, soft, ones, bound = tables
    dtype = np.int32 if bound < 1 << 31 else np.int64
    # here every variable weight is a unary term [0, w]
    soft = [(args, np.array(table, dtype=dtype)) for args, table in
            [*soft, *(((i,), (0, w)) for w, mask in ones for i in range(n) if mask >> i & 1)]]
    bits = min(n, _CHUNK_BITS)
    eval_chunk = evaluator(soft, dtype, bits)

    def best_in_chunk(base: int):
        obj, feasible = eval_chunk(base)
        if feasible is not None:
            if not feasible.any():
                return None
            sub = obj[feasible]
            best = int(sub.max() if maximize else sub.min())
            hit = feasible & (obj == best)
        else:
            best = int(obj.max() if maximize else obj.min())
            hit = obj == best
        where = np.flatnonzero(hit) + base
        return best, int(where[0]), (where if want_all else None)

    bases = range(0, 1 << n, 1 << bits)
    if jobs > 1 and len(bases) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(best_in_chunk, bases))
    else:
        results = [best_in_chunk(b) for b in bases]

    best: Optional[int] = None
    witness: Optional[int] = None
    collected: list[np.ndarray] = []
    for res in results:  # deterministic merge in chunk order
        if res is None:
            continue
        val, wit, arr = res
        better = best is None or (val > best if maximize else val < best)
        if better:
            best, witness = val, wit
            collected = [arr] if want_all else []
        elif val == best:
            witness = min(witness, wit)
            if want_all:
                collected.append(arr)
    if best is None:
        return SolveResult(kind, False, None, None, () if want_all else None)
    optimal = tuple(int(v) for arr in collected for v in arr) if want_all else None
    opt_fraction = None if kind == KIND_SAT else Fraction(best, scale)
    return SolveResult(kind, True, opt_fraction, witness, optimal)
