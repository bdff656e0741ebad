"""Exact ground-truth solvers for every problem kind.

Assignments are bitmasks (variable i in bit i); objectives are computed in
integers after clearing denominators, so optima are exact.

Both solvers read an instance in one pass, `_terms`, which resolves each
constraint once (`Resolver.resolve`), checks the variable cap and returns
the raw hard terms and the integer objective.  Every route of `solve` then
reads a hard constraint as its identification minor: the relation over the
constraint's distinct arguments that identifying its repeated arguments
leaves (`Relation.minor`).  The weak-base atoms of the 2+3n reductions
repeat arguments, as in R_IN2(v0,v0,v0,v0,y,y,y,y), so their 8-ary
relations shrink to minors of 2 or 3 variables, and each table build and
gather works on those.  A constraint without repeats keeps its own
relation.

`solve` takes an instance down one of three routes:

- Hard-constraint kinds (SAT, U-/W-Max-Ones, Min-Ones) of at most
  `_TRUTH_VARS` = 14 variables are solved on truth tables (`truthtables`).
  The constraints' tables are ANDed together into T, stopping at 0.  SAT,
  and Max-/Min-Ones where every variable weighs the same, are answered
  from that int: with popcount layers L_k (bit a set iff a has k ones,
  cached per n), the optimum is the largest k (Min-Ones: the smallest)
  with T & L_k != 0, the witness that AND's lowest set bit, and the
  optimal set that AND unpacked.  Any other weights unpack T into the
  ascending array of feasible masks for the objective stage below.  A
  constraint's table is cached on its relation under (args, n), so a
  repeated constraint skips both the minor and the build
  (`Relation.table_cache`, bounded by `_TABLES_PER_RELATION`).  The cut is
  one below the measured crossover with the frontier, on the certify
  targets of the 8-ary weak bases, the closest case: truth/frontier time
  0.47-0.55 at 14 variables, 0.64-1.03 at 15, 0.88-1.51 at 16 and 2.1-2.5
  at 17 on a 2-vCPU VM, where random mixes, EVEN8 and OR8 stay below 0.8
  up to 16.  On minors the certify targets read 0.18 at 14, 0.67-1.16 at
  17 and 5.6-6.7 at 20, and chains of binary constraints, which have no
  minors to shrink, cross at 16 (1.04-1.06), so the cut stays.
- Larger hard-kind instances go through a frontier search in variable
  order (Dechter, *Constraint Processing*, ch. 5): the partial assignments
  over variables 0..v that satisfy every constraint lying within them are
  kept in one sorted array, extended by variable v+1, and filtered again.
  Soft-kind instances (VCSP, Max-CSP, Max-Cut) of at most
  `_SMALL_SOFT_VARS` = 10 variables have nothing to prune by and start
  from all 2^n masks, which on a few hundred masks costs less than the
  grid below.  The frontier, these small soft instances and truth tables
  under other weights hand their ascending feasible masks to one objective
  stage, which scores the Max-/Min-Ones objective as one popcount of
  `masks & m` (`np.bitwise_count`, numpy 2) per distinct variable weight,
  m the mask of the variables that carry it.
- Larger soft-kind instances, and hard-kind instances whose frontier would
  outgrow one chunk, are enumerated in chunks of 2^20 masks.  Each chunk is
  a grid of high-half by low-half masks: every constraint table is gathered
  once per half and the halves are combined once (meet in the middle,
  Horowitz & Sahni 1974).

A relation's minors, truth tables, bool LUT and decision diagram are built
once and cached on the `Relation` object itself (`Relation.minor`,
`Relation.table_cache`, `Relation.lut`, `Relation.diagram`), so they live
exactly as long as the relation and a resolver that maps a name to another
relation gets others.

`solve_bruteforce` enumerates the same chunks mask by mask, with every
variable weight a unary term and every relation gathered on its raw
arguments, not its minor, and it is the reference every route of `solve` is
tested against.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import truthtables as tt
from .instances import (
    KIND_MAXCSP,
    KIND_MAXCUT,
    KIND_MINO,
    KIND_SAT,
    KIND_UMO,
    KIND_VCSP,
    KIND_WMO,
    MAXIMIZING_KINDS,
    Instance,
    InstanceError,
    OracleError,
    Resolver,
    Threshold,
    default_resolver,
)

MAX_SOLVE_VARS = 24
MAX_ENUMERATE_VARS = 20
_CHUNK_BITS = 20
_INT_LIMIT = 1 << 60
# Soft-kind instances with at most this many variables skip the grid, whose
# setup costs more than it saves there (crossover measured on a 2-vCPU VM)
_SMALL_SOFT_VARS = 10
# Hard-kind instances with at most this many variables are solved on truth
# tables (crossover measured on a 2-vCPU VM)
_TRUTH_VARS = 14

# kinds whose constraints are all hard, so an assignment can be pruned
_HARD_KINDS = (KIND_SAT, KIND_UMO, KIND_WMO, KIND_MINO)


@dataclass(frozen=True)
class SolveResult:
    kind: str
    satisfiable: bool
    optimum: Optional[Fraction]  # None for SAT or unsatisfiable instances
    witness: Optional[int]  # lexicographically least optimal assignment mask
    optimal_set: Optional[tuple[int, ...]] = None


def _plain(x: Fraction):
    """x as an int where it is one, so integer objectives skip Fraction arithmetic."""
    return x.numerator if x.denominator == 1 else x


# Solves meet the same args tuples again and again: the timed blocks of one
# benchmark run look up 2294 tuples, 538 distinct, on certify-hard, where the
# frontier reads minors, and 1266, 815 distinct, on mixed, where the truth
# tables cached on the relations answer all but those lookups (BENCH_13.json
# measured this cache before the table cache).  The cap is over twice the
# larger count, so neither run evicts, and holds at most ~0.7 MB (~360 bytes
# an entry).
@functools.lru_cache(maxsize=1 << 11)
def _identification(args: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(the distinct args in order of first occurrence, the minor pattern of args)."""
    distinct = tuple(dict.fromkeys(args))
    return distinct, tuple(map(distinct.index, args))


def _terms(inst: Instance, resolver: Resolver, want_all: bool):
    """(hard terms, (scale, soft terms, Ones groups, accumulator dtype)), all integer.

    One pass over the constraints resolves each once (`Resolver.resolve`)
    and checks the variable cap.  A hard term is (args, relation), one per
    constraint of a hard kind, on its raw args.  A soft term is (args,
    table), one per constraint of the soft kinds: the table is indexed by
    the tuple of `args` (argument j in bit j).  A Ones group (w, m) of the
    Max-/Min-Ones kinds holds in m the variables of weight w, one group per
    distinct nonzero weight.  The objective is the sum of the soft terms
    plus w times the ones in m of every group, all multiplied by `scale`.
    """
    kind = inst.kind
    applied = [resolver.resolve(kind, c) for c in inst.constraints]
    n = inst.num_vars
    cap = MAX_ENUMERATE_VARS if want_all else MAX_SOLVE_VARS
    if n > cap:
        raise OracleError(f"instance has {n} variables, oracle cap is {cap}")
    hard: list = []
    soft: list = []
    weights: dict = {}  # variable weight -> mask of the variables that carry it
    if kind in _HARD_KINDS:
        hard = [(c.args, rel) for c, rel in zip(inst.constraints, applied)]
        if kind != KIND_SAT and inst.var_weights is None:
            weights = {1: (1 << n) - 1}
        elif kind != KIND_SAT:
            for i, w in enumerate(inst.var_weights):
                if w:
                    weights[w] = weights.get(w, 0) | 1 << i
    else:
        for c, fn in zip(inst.constraints, applied):
            w = 1 if c.weight is None else _plain(c.weight)
            if kind == KIND_VCSP:
                table = [w * _plain(v) for v in fn.table]
            elif kind == KIND_MAXCSP:
                table = [w * hit for hit in fn.lut.tolist()]
            else:  # Max-Cut: an edge counts when its ends differ
                table = [0, w, w, 0]
            soft.append((c.args, table))

    # one integer scale clears every denominator that can reach the objective
    scale = math.lcm(*(w.denominator for w in weights),
                     *(x.denominator for _, table in soft for x in table))
    ints = [(args, [x.numerator * (scale // x.denominator) for x in table])
            for args, table in soft]
    ones = [(w.numerator * (scale // w.denominator), mask) for w, mask in weights.items()]
    # weights and costs are nonnegative, so this caps every partial sum
    bound = (sum(max(table) for _, table in ints)
             + sum(w * mask.bit_count() for w, mask in ones))
    if bound >= _INT_LIMIT:
        raise OracleError("objective magnitude exceeds the exact int64 budget")
    dtype = np.int32 if bound < 1 << 31 else np.int64
    soft = [(args, np.array(table, dtype=dtype)) for args, table in ints]
    return hard, (scale, soft, ones, dtype)


def solve(inst: Instance, resolver: Optional[Resolver] = None,
          want_all: bool = False, jobs: int = 1) -> SolveResult:
    """Exact optimum (or satisfiability); equal to `solve_bruteforce` on every field.

    `jobs` is the thread count of the chunked enumeration; the truth-table
    and frontier paths run in one thread.
    """
    raw, tables = _terms(inst, resolver or default_resolver(), want_all)
    n = inst.num_vars
    if inst.kind in _HARD_KINDS and n <= _TRUTH_VARS:
        return _truth(inst.kind, n, raw, tables, want_all)
    # each hard term is read as its identification minor, so
    # R_IN2(v0,v0,v0,v0,y,y,y,y) becomes a binary relation on (v0, y)
    hard = []
    for args, rel in raw:
        distinct, pattern = _identification(args)
        hard.append((distinct, rel.minor(pattern)))
    if inst.kind in _HARD_KINDS:
        masks = _frontier(n, hard)
    else:
        masks = tt.arange(n) if n <= _SMALL_SOFT_VARS else None
    if masks is None:
        return _enumerate(inst, hard, tables, want_all, jobs, _split_chunks)
    return _optimize(inst.kind, masks, tables, want_all)


# A relation holds at most this many tables (Relation.table_cache).  The six
# blocks of one mixed benchmark run put 67,544 hard constraints on truth
# tables under 1,498 distinct (relation, args, n) keys, at most 289 of them
# on one relation (R_II2), and the cache answers 98% of its lookups; twelve
# blocks meet 2,797 keys, at most 576 on one relation, since the sampled
# weak-base corpora keep adding argument tuples.  A certify-hard run meets
# fewer than 300.  So the bound, over three times one run's largest count,
# evicts nothing in a run.  A table over n <= _TRUTH_VARS variables takes at
# most 2 KB (the 1,498 take 0.27 MB), so a full relation holds about 2 MB.
_TABLES_PER_RELATION = 1 << 10


def _table(rel, args: tuple[int, ...], n: int) -> int:
    """The truth table of rel on args over n variables, cached on rel.

    A miss builds the table on the identification minor of rel at args.  A
    relation whose cache is full starts it over.
    """
    cache = rel.table_cache
    key = (args, n)
    got = cache.get(key)
    if got is None:
        distinct, pattern = _identification(args)
        got = tt.table(rel.minor(pattern), distinct, n)
        if len(cache) >= _TABLES_PER_RELATION:
            cache.clear()
        cache[key] = got
    return got


def _satisfying(n: int, raw) -> int:
    """The truth table of the assignments that satisfy every raw hard term."""
    sat = tt.planes(n)[0]
    for args, rel in raw:
        sat &= _table(rel, args, n)
        if not sat:
            break
    return sat


@functools.cache
def _layers(n: int) -> tuple[int, ...]:
    """Popcount layers over n variables: bit a of the k-th is set iff a has k ones."""
    if not n:
        return (1,)
    low, half = _layers(n - 1) + (0,), 1 << (n - 1)
    # assignments that set variable n - 1 are the upper half of the table
    return (low[0],) + tuple(low[k] | low[k - 1] << half for k in range(1, n + 1))


def _truth(kind: str, n: int, raw, tables, want_all: bool) -> SolveResult:
    """Solve a hard-kind instance on the AND of its constraints' truth tables.

    SAT, and an objective where every variable weighs the same (one weight
    class over all of them, or none), are read off that int: the optimal
    assignments are its intersection with the highest (Min-Ones: lowest)
    popcount layer it meets, and the witness is the lowest set bit there.
    Any other weights go to `_optimize`.
    """
    sat = _satisfying(n, raw)
    if not sat:
        return SolveResult(kind, False, None, None, () if want_all else None)
    scale, _, ones, _ = tables
    if len(ones) > 1 or ones and ones[0][1] != (1 << n) - 1:
        return _optimize(kind, tt.masks(sat, n), tables, want_all)
    best, hit = 0, sat  # SAT, or every variable weighs 0
    if ones:
        layers = _layers(n)
        for k in range(n, -1, -1) if kind in MAXIMIZING_KINDS else range(n + 1):
            hit = sat & layers[k]
            if hit:
                best = ones[0][0] * k
                break
    optimal = tuple(tt.masks(hit, n).tolist()) if want_all else None
    opt_fraction = None if kind == KIND_SAT else Fraction(best, scale)
    return SolveResult(kind, True, opt_fraction, (hit & -hit).bit_length() - 1, optimal)


def _frontier(n: int, hard) -> Optional[np.ndarray]:
    """Frontier search in variable order; None once it outgrows a chunk."""
    by_top: dict[int, list] = {}  # highest argument -> constraints checked there
    for args, rel in hard:
        by_top.setdefault(max(args, default=-1), []).append((args, rel.lut))

    # Doubling by the next variable's bit keeps the masks ascending.
    frontier = np.zeros(1, dtype=np.int64)
    for v in range(-1, n):
        if v >= 0:
            frontier = np.concatenate((frontier, frontier | (1 << v)))
            if frontier.size > 1 << _CHUNK_BITS:
                return None
        for args, lut in by_top.get(v, ()):
            frontier = frontier[lut[tt.code(frontier, enumerate(args))]]
    return frontier


def _optimize(kind: str, masks: np.ndarray, tables, want_all: bool) -> SolveResult:
    """Score the ascending feasible `masks` and pick the optimum among them.

    The masks are ascending, so the least optimal mask is the first hit and
    optimal_set comes out sorted.
    """
    scale, soft, ones, _ = tables
    if not masks.size:
        return SolveResult(kind, False, None, None, () if want_all else None)
    obj = np.zeros(masks.shape, dtype=np.int64)
    for args, table in soft:
        obj += table[tt.code(masks, enumerate(args))]
    for w, mask in ones:
        # bitwise_count gives uint8; widen before the weight multiply
        obj += np.bitwise_count(masks & mask).astype(np.int64) * w
    best = int(obj.max() if kind in MAXIMIZING_KINDS else obj.min())
    where = masks[obj == best]
    optimal = tuple(where.tolist()) if want_all else None
    opt_fraction = None if kind == KIND_SAT else Fraction(best, scale)
    return SolveResult(kind, True, opt_fraction, int(where[0]), optimal)


def solve_bruteforce(inst: Instance, resolver: Optional[Resolver] = None,
                     want_all: bool = False, jobs: int = 1) -> SolveResult:
    """Exact optimum (or satisfiability) by enumeration of all assignments."""
    hard, tables = _terms(inst, resolver or default_resolver(), want_all)
    return _enumerate(inst, hard, tables, want_all, jobs, _row_chunks)


def _row_chunks(hard, soft, dtype, bits):
    """Reference evaluator: every term gathered mask by mask with `tt.code`."""
    def eval_chunk(base: int):
        idx = np.arange(base, base + (1 << bits), dtype=np.int64)
        feasible = np.ones(idx.shape, dtype=bool) if hard else None
        for args, rel in hard:
            feasible &= rel.lut[tt.code(idx, enumerate(args))]
        obj = np.zeros(idx.shape, dtype=np.int64)
        for args, table in soft:
            obj += table[tt.code(idx, enumerate(args))]
        return obj, feasible
    return eval_chunk


def _split_chunks(hard, soft, dtype, bits):
    """Hi/lo evaluator: each term is gathered once per half of the chunk."""
    feasibility = (_GridReduce([(args, rel.lut) for args, rel in hard], bits,
                               np.logical_and, bool) if hard else None)
    objective = _GridReduce(soft, bits, np.add, dtype)

    def eval_chunk(base: int):
        feasible = None if feasibility is None else feasibility(base).ravel()
        return objective(base).ravel(), feasible
    return eval_chunk


class _GridReduce:
    """Combine (args, table) terms with a ufunc over a chunk of 2^bits masks.

    The chunk is a (2^H, 2^L) grid with L = bits // 2: the row holds mask
    bits L..bits-1 and the column bits 0..L-1, so row-major order is mask
    order.  Arguments at `bits` and above are constant within a chunk and
    fold into a term's code once per chunk.  A term whose arguments all lie
    in one half is reduced into a vector of that half, and the two vectors
    meet in one outer product.  Terms that cross the halves are grouped by
    their high variables; a group becomes one (2^h, 2^L) table, which the
    grid takes in with one broadcast over the high bits outside the group.
    """

    def __init__(self, terms, bits: int, op: np.ufunc, dtype) -> None:
        self.op, self.dtype = op, dtype
        low_bits = bits // 2
        high_bits = bits - low_bits
        lo = np.arange(1 << low_bits)
        hi = np.arange(1 << high_bits)
        self.low: list = []  # (table, constant pairs, column codes)
        self.high: list = []  # (table, constant pairs, row codes)
        crossing: dict[tuple[int, ...], list] = {}
        for args, table in terms:
            const = [(v, j) for j, v in enumerate(args) if v >= bits]
            lo_code = tt.code(lo, [(j, v) for j, v in enumerate(args) if v < low_bits])
            hvars = sorted({v for v in args if low_bits <= v < bits})
            if not hvars:
                self.low.append((table, const, lo_code))
            elif all(v >= low_bits for v in args):
                hi_code = tt.code(hi, [(j, v - low_bits) for j, v in enumerate(args)
                                     if v < bits])
                self.high.append((table, const, hi_code))
            else:
                # row r of the group table sets high variable hvars[i] to bit i of r
                rows = tt.code(np.arange(1 << len(hvars)),
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

    def _reduce(self, members, shape, base: int) -> np.ndarray:
        acc = np.full(shape, self.op.identity, dtype=self.dtype)
        for table, const, code in members:
            fixed = sum(((base >> v) & 1) << j for v, j in const)
            self.op(acc, table[code | fixed] if fixed else table[code], out=acc)
        return acc

    def __call__(self, base: int) -> np.ndarray:
        nhi, nlo = self.halves
        grid = self.op.outer(self._reduce(self.high, nhi, base),
                             self._reduce(self.low, nlo, base))
        axes = grid.reshape(self.grid_shape)
        for shape, broadcast, members in self.crossing:
            group = self._reduce(members, shape, base)
            self.op(axes, group.reshape(broadcast), out=axes)
        return grid


def _enumerate(inst: Instance, hard, tables, want_all: bool, jobs: int,
               evaluator) -> SolveResult:
    """Enumerate all 2^n assignments in chunks of 2^min(n, _CHUNK_BITS) masks.

    `hard` are the instance's hard terms and `tables` the rest of its
    `_terms`.  `evaluator(hard, soft, dtype, bits)` returns a function that
    maps a chunk's first mask to the chunk's objective and feasibility (None
    when every mask is feasible), both in mask order.
    """
    n = inst.num_vars
    kind = inst.kind
    maximize = kind in MAXIMIZING_KINDS
    scale, soft, ones, dtype = tables
    # here every variable weight is a unary term [0, w]
    soft = soft + [((i,), np.array([0, w], dtype=dtype))
                   for w, mask in ones for i in range(n) if mask >> i & 1]
    bits = min(n, _CHUNK_BITS)
    eval_chunk = evaluator(hard, soft, dtype, bits)

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


def meets_threshold(res: SolveResult, threshold: Optional[Threshold]) -> bool:
    """Compare a solved optimum to a threshold in the instance's direction."""
    if res.kind == KIND_SAT:
        return res.satisfiable
    if threshold is None:
        raise InstanceError("decision requires a threshold")
    if not res.satisfiable:
        return False
    if threshold.direction == ">=":
        return res.optimum >= threshold.value
    return res.optimum <= threshold.value


def decide(inst: Instance, threshold: Optional[Threshold] = None,
           resolver: Optional[Resolver] = None, jobs: int = 1) -> bool:
    """Compare the exact optimum to a threshold in the instance's direction."""
    return meets_threshold(solve(inst, resolver, jobs=jobs), threshold or inst.threshold)
