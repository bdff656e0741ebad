"""The oracle's numpy code: the chunked grid of the soft kinds whose
elimination table would pass a chunk, single optimum only (described in
the `oracle` docstring), and the LUT gather of a relation without a
diagram.  Only this module and the relations' bool LUTs it reads import
numpy, and only where one of these runs."""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from .instances import MAXIMIZING_KINDS, Instance
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


def enumerate_masks(inst: Instance, tables, jobs: int) -> SolveResult:
    """Enumerate all 2^n assignments of a soft-kind instance in chunks of
    2^min(n, _CHUNK_BITS) masks, each summed on its hi/lo grid (`_GridSum`).

    `tables` is the objective of the instance's `oracle._terms`.  A chunk
    keeps its best objective and its least mask that reaches it; the chunks
    run on `jobs` threads and merge in mask order.
    """
    n = inst.num_vars
    maximize = inst.kind in MAXIMIZING_KINDS
    scale, soft, _, bound = tables
    dtype = np.int32 if bound < 1 << 31 else np.int64
    bits = min(n, _CHUNK_BITS)
    objective = _GridSum([(args, np.array(table, dtype=dtype)) for args, table in soft],
                         bits, dtype)

    def best_in_chunk(base: int):
        obj = objective(base).ravel()
        i = int(obj.argmax() if maximize else obj.argmin())  # the first of the best
        return int(obj[i]), base + i

    bases = range(0, 1 << n, 1 << bits)
    if jobs > 1 and len(bases) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(best_in_chunk, bases))
    else:
        results = [best_in_chunk(b) for b in bases]

    best, witness = results[0]
    for val, wit in results[1:]:  # in chunk order, so a tie keeps the lesser mask
        if val > best if maximize else val < best:
            best, witness = val, wit
    return SolveResult(inst.kind, True, Fraction(best, scale), witness)
