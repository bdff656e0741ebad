"""Exact ground-truth solvers for every problem kind.

Assignments are bitmasks (variable i in bit i); objectives are computed in
integers after clearing denominators, so optima are exact.

Both solvers read an instance in one pass, `_terms`, which resolves each
constraint once (`Resolver.resolve_all`), checks the variable cap and returns
the raw hard terms and the integer objective.  The objective starts from
integer forms built once per object, not per solve: a cost function's
values over one common denominator (`CostFunction.scaled`) and a relation's
Max-CSP 0/1 table (`Relation.hits`).  One lcm over the terms' reduced
denominators gives the scale, so an all-integer instance computes none, and
the hard kinds without variable weights share one objective per variable
count.

Every route of `solve` reads a hard constraint as its identification minor
(`_minor`): the relation over the constraint's distinct arguments that
identifying its repeated arguments leaves (`Relation.minor`).  The weak-base
atoms of the 2+3n reductions repeat arguments, as in
R_IN2(v0,v0,v0,v0,y,y,y,y), so their 8-ary relations shrink to minors of 2
or 3 variables, and each table build and gather works on those.  A
constraint without repeats keeps its own relation.

`solve` takes an instance down one of three routes:

- Every instance of at most `_TRUTH_VARS` = 14 variables, of any kind, is
  solved on truth tables (`truthtables`) in Python ints, by `_truth`.  The
  candidates are the AND of the hard constraints' tables, stopping at 0,
  and every assignment when there are none; a constraint's table is cached
  on its relation under (args, n), so a repeated constraint skips both the
  minor and the build (`Relation.table_cache`, bounded by
  `_TABLES_PER_RELATION`).  The objective is a bit-sliced counter of the
  soft terms and Ones groups, read from the top plane down within the
  candidates; one summand alone, as of every unweighted Max-Ones and
  Min-Ones instance, is read from its cached planes with no copy.  A term's
  own planes are cached under its args, n and scaled table (`_term_planes`),
  and a group's under (m, n, w) (`_ones_planes`, built from the unary terms'
  planes), so the Max-Cut edges and f_neq terms that the certify corpora
  repeat, and the unit weights of every U-Max-Ones and Min-Ones solve of n
  variables, are built once; the cache starts over before it passes
  `_PLANE_BYTES` = 1 MB.  On a 2-vCPU VM the counter takes 9-14 us a solve
  with that cache and 13-22 us without it, where scoring all 2^n masks in
  numpy took 31-33 us, on the 912 solves of 2-5 variables of the
  Max-Cut/f_neq certify corpora; on random instances of 11-14 variables
  with 2n binary and ternary terms it takes 0.12-0.81 ms, where the grid or
  elimination took 0.38-1.03 ms.  It still wins at 15 and 16 variables and
  is no faster than elimination from 17 on.  The cut is one below the hard
  kinds' measured crossover with the frontier, on the certify targets of
  the 8-ary weak bases, the closest case: truth/frontier time 0.47-0.55 at
  14 variables, 0.64-1.03 at 15, 0.88-1.51 at 16 and 2.1-2.5 at 17 on a
  2-vCPU VM, where random mixes, EVEN8 and OR8 stay below 0.8 up to 16.  On
  minors the certify targets read 0.18 at 14, 0.67-1.16 at 17 and 5.6-6.7
  at 20, and chains of binary constraints, which have no minors to shrink,
  cross at 16 (1.04-1.06), so the cut stays.  The variable planes the
  tables are built on are cached per n (`truthtables.planes`), 2n + 1 ints
  of 2^n bits: 59 KB at 14 variables and 111 KB for every n up to 14.
- Larger instances are searched in variable order.  Hard kinds go through a
  frontier search (Dechter, *Constraint Processing*, ch. 5): the partial
  assignments over variables 0..v that satisfy every constraint lying within
  them are kept in one sorted array, extended by variable v+1, and filtered
  again.  A constraint's minor is read only when the frontier reaches its
  top variable, and the first empty frontier ends the search: the
  unsatisfiable 2+3n certify targets stop at a median 40% of their variables
  and read no minor past that point.  `_optimize` scores the Max-/Min-Ones
  objective of the feasible masks as one popcount of `masks & m`
  (`np.bitwise_count`, numpy 2) per distinct variable weight, m the mask of
  the variables that carry it.  Soft kinds are solved by bucket elimination
  (`_eliminate`; Bertele & Brioschi, *Nonserial Dynamic Programming*, 1972):
  a table over the variables that a later term still holds is doubled by
  each variable, takes that variable's terms, and forgets the variables no
  later term holds, keeping per state the best objective and the least mask
  that reaches it, packed into one int64 key.  On random instances of 16-22
  variables with 2n binary and ternary terms its largest table holds
  2^8-2^18 states (median 2^12), where the grid has 2^n.  Elimination is
  taken when the keys fit, that is the objective bound of `_terms` is below
  2^(62 - n), when its table stays within one chunk, and when the states it
  touches, plus `_STEP_STATES` a step, are fewer than the grid's, all read
  from the terms' buckets (`_buckets`, once a solve) before any array work
  (`_elimination_pays`).  It finds one optimal mask, not the optimal set, so
  `--all` stays on the grid, as do instances whose bound does not pack.
- Soft-kind instances that elimination does not pay for or whose keys do
  not pack, `--all` on them, and hard-kind instances whose frontier would
  outgrow one chunk, are enumerated in chunks of 2^20 masks.  Each chunk is
  a grid of high-half by low-half masks: every constraint table is gathered
  once per half and the halves are combined once (meet in the middle,
  Horowitz & Sahni 1974).

A relation's minors, truth tables, bool LUT, 0/1 table and decision diagram
are built once and cached on the `Relation` object itself (`Relation.minor`,
`Relation.table_cache`, `Relation.lut`, `Relation.hits`, `Relation.diagram`),
as a cost function's integer form is on its `CostFunction`, so they live
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
import sys
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
# Instances with at most this many variables are solved on truth tables
# (crossovers measured on a 2-vCPU VM; see the module docstring)
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


# Solves meet the same args tuples again and again: the timed blocks of one
# benchmark run looked up 2294 tuples, 538 distinct, on certify-hard and 1266,
# 815 distinct, on mixed (BENCH_13.json, before the table cache and the
# frontier's early stop, which look up fewer).  The cap is over twice the
# larger count, so neither run evicts, and holds at most ~0.7 MB (~360 bytes
# an entry).
@functools.lru_cache(maxsize=1 << 11)
def _identification(args: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(the distinct args in order of first occurrence, the minor pattern of args)."""
    distinct = tuple(dict.fromkeys(args))
    return distinct, tuple(map(distinct.index, args))


def _minor(args: tuple[int, ...], rel):
    """(the distinct args, the identification minor of rel at args)."""
    distinct, pattern = _identification(args)
    return distinct, rel.minor(pattern)


def _terms(inst: Instance, resolver: Resolver, want_all: bool):
    """(hard terms, (scale, soft terms, Ones groups, objective bound)), all integer.

    One pass over the constraints resolves each once (`Resolver.resolve_all`)
    and checks the variable cap.  A hard term is (args, relation), one per
    constraint of a hard kind, on its raw args.  A soft term is (args,
    table), one per constraint of the soft kinds: the table is a sequence of
    Python ints indexed by the code of `args` (argument j in bit j), which
    the elimination and the grid turn into arrays themselves.  A Ones group
    (w, m) of the Max-/Min-Ones kinds holds in m the variables of weight w,
    one group per distinct nonzero weight.  The objective is the sum of the
    soft terms plus w times the ones in m of every group, all multiplied by
    `scale`, the least integer that clears every denominator of a weighted
    value.  The bound caps that objective, and so every partial sum, since
    weights and costs are nonnegative; it sets the grid's dtype and whether
    elimination's packed keys fit, and one of `_INT_LIMIT` or more is an
    error.

    A soft term starts from its function's integer form (g, den, nums),
    built once per object (`CostFunction.scaled`; a relation's 0/1
    `Relation.hits` and Max-Cut's edge table have den = 1): with weight
    wn/wd and d = wd * den, its values are wn * nums_i / d, whose reduced
    denominators have the lcm d / gcd(d, wn * g), since g is the gcd of the
    nums.  So all-integer instances compute no lcm, and the hard kinds
    without variable weights share one objective per n (`_unit_weights`).
    """
    kind = inst.kind
    constraints = inst.constraints
    applied = resolver.resolve_all(kind, constraints)
    n = inst.num_vars
    cap = MAX_ENUMERATE_VARS if want_all else MAX_SOLVE_VARS
    if n > cap:
        raise OracleError(f"instance has {n} variables, oracle cap is {cap}")
    if kind in _HARD_KINDS:
        hard = [(c.args, rel) for c, rel in zip(constraints, applied)]
        if kind == KIND_SAT:
            return hard, _NO_OBJECTIVE
        if inst.var_weights is None:
            return hard, _unit_weights(n)
        weights: dict = {}  # variable weight -> mask of the variables that carry it
        for i, w in enumerate(inst.var_weights):
            if w:
                weights[w] = weights.get(w, 0) | 1 << i
        scale = math.lcm(*(w.denominator for w in weights))
        ones = [(w.numerator * (scale // w.denominator), mask) for w, mask in weights.items()]
        return hard, (scale, [], ones, _bounded(sum(w * m.bit_count() for w, m in ones)))

    forms = []  # (args, wn, d, nums): the term's values are wn * nums[i] / d
    scale = 1
    for c, fn in zip(constraints, applied):
        if kind == KIND_VCSP:
            g, den, nums = fn.scaled
        elif kind == KIND_MAXCSP:
            g, den, nums = (1 if fn.tuples else 0), 1, fn.hits
        else:  # Max-Cut: an edge counts when its ends differ
            g, den, nums = 1, 1, _EDGE
        wn, wd = (1, 1) if c.weight is None else (c.weight.numerator, c.weight.denominator)
        d = wd * den
        if d != 1:
            scale = math.lcm(scale, d // math.gcd(d, wn * g))
        forms.append((c.args, wn, d, nums))
    ints = []
    for args, wn, d, nums in forms:
        f = wn * scale  # the term's value i times scale is f * nums[i] / d, an int
        if d != 1:
            table = [f * x // d for x in nums]
        else:
            table = nums if f == 1 else [f * x for x in nums]
        ints.append((args, table))
    return [], (scale, ints, [], _bounded(sum(max(table) for _, table in ints)))


# Max-Cut's table over the code of an edge's two ends: 1 where they differ
_EDGE = (0, 1, 1, 0)
# the objective of SAT: none at all
_NO_OBJECTIVE = (1, (), (), 0)


@functools.cache
def _unit_weights(n: int):
    """The objective of a Max-/Min-Ones instance of n variables without weights."""
    return 1, (), ((1, (1 << n) - 1),), n


def _bounded(bound: int) -> int:
    """`bound`, once it is checked against the exact int64 budget."""
    if bound >= _INT_LIMIT:
        raise OracleError("objective magnitude exceeds the exact int64 budget")
    return bound


def solve(inst: Instance, resolver: Optional[Resolver] = None,
          want_all: bool = False, jobs: int = 1) -> SolveResult:
    """Exact optimum (or satisfiability); equal to `solve_bruteforce` on every field.

    `jobs` is the thread count of the chunked enumeration, which splits
    only an instance of more than 2^20 masks; the truth-table, frontier and
    elimination routes run in one thread.
    """
    raw, tables = _terms(inst, resolver or default_resolver(), want_all)
    n = inst.num_vars
    if n <= _TRUTH_VARS:
        return _truth(inst.kind, n, raw, tables, want_all)
    if inst.kind in _HARD_KINDS:
        masks = _frontier(n, raw)
        if masks is not None:
            return _optimize(inst.kind, masks, tables, want_all)
    else:
        scale, soft, _, bound = tables
        # a packed key holds the objective above the n bits of its mask
        if not want_all and bound < 1 << (62 - n):
            by_top, last = _buckets(n, soft)
            if _elimination_pays(last):
                return _eliminate(inst.kind, by_top, last, scale)
    return _enumerate(inst, [_minor(a, r) for a, r in raw], tables, want_all, jobs, _split_chunks)


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
        distinct, minor = _minor(args, rel)
        got = tt.table(minor, distinct, n)
        if len(cache) >= _TABLES_PER_RELATION:
            cache.clear()
        cache[key] = got
    return got


def _satisfying(n: int, raw) -> int:
    """The truth table of the assignments that satisfy every raw hard term."""
    sat = tt.planes(n)[0]
    for args, rel in raw:
        # a hit on the relation's cache skips the call
        table = rel.table_cache.get((args, n))
        sat &= _table(rel, args, n) if table is None else table
        if not sat:
            break
    return sat


def _truth(kind: str, n: int, raw, tables, want_all: bool) -> SolveResult:
    """Solve an instance of any kind on truth tables over its n variables.

    The candidates are the assignments that satisfy every hard term
    (`_satisfying`), all of them when there is none.  Plane p of a
    bit-sliced counter is the table of the assignments whose objective has
    bit p set: each soft term's planes (`_term_planes`) and each Ones
    group's (`_ones_planes`) are added to it by a ripple-carry adder
    (`_add`).  The optimum is read from the top plane down, one AND a plane:
    maximizing, the candidates with the plane's bit set, if any, are kept
    and the bit is the optimum's; minimizing, the bit is the optimum's if
    every candidate has it, and otherwise those that have it drop out.  The
    candidates left share every bit of the optimum, and the lowest of them
    is the least optimal mask.
    """
    cand = _satisfying(n, raw)
    if not cand:
        return SolveResult(kind, False, None, None, () if want_all else None)
    scale, soft, ones, _ = tables
    counter: tuple[int, ...] | list[int] = ()
    for args, table in soft:
        counter = _add(counter, _term_planes(args, tuple(table), n))
    for w, m in ones:
        counter = _add(counter, _ones_planes(n, w, m))
    maximize = kind in MAXIMIZING_KINDS
    best = 0
    for p in reversed(range(len(counter))):
        on = cand & counter[p]
        if maximize:
            if on:
                cand = on
                best |= 1 << p
        elif on == cand:
            best |= 1 << p
        else:
            cand ^= on
    optimal = tuple(tt.masks(cand, n).tolist()) if want_all else None
    if kind == KIND_SAT:
        opt_fraction = None
    else:
        # an int alone skips Fraction's gcd
        opt_fraction = Fraction(best) if scale == 1 else Fraction(best, scale)
    return SolveResult(kind, True, opt_fraction, (cand & -cand).bit_length() - 1, optimal)


# The planes `_term_planes` and `_ones_planes` keep, bounded by what their
# ints take (`sys.getsizeof`): a plane over n variables takes 2^n / 8 bytes,
# 2 KB at 14, plus the int's header.  Six blocks of one mixed benchmark run
# (seed 1) build 823 entries, 160 KB in all: 553 terms' planes, 347 of them
# unary (0, w) terms that the Ones groups are summed from, and 270 groups'.
# So the bound evicts nothing in a run; it caps a long run of fractional
# weights at 14 variables, which spans dozens of planes a term and rarely
# repeats.
_PLANE_BYTES = 1 << 20
_plane_cache: dict = {}
_plane_bytes = 0


def _keep(key, planes: tuple[int, ...]) -> tuple[int, ...]:
    """`planes`, once cached under key; a cache that would pass
    `_PLANE_BYTES` starts over."""
    global _plane_bytes
    size = sum(map(sys.getsizeof, planes))
    if _plane_bytes + size > _PLANE_BYTES:
        _plane_cache.clear()
        _plane_bytes = 0
    _plane_cache[key] = planes
    _plane_bytes += size
    return planes


def _term_planes(args: tuple[int, ...], table: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The bit-sliced planes over n variables of the term `table` on `args`,
    cached under (args, n, table).

    The assignments on which the arguments read code c are S_c, the AND of
    one literal per argument; those of one term are disjoint, so plane p is
    the OR of the S_c whose value has bit p set.
    """
    key = (args, n, table)
    got = _plane_cache.get(key)
    if got is not None:
        return got
    full, literals = tt.planes(n)
    codes = [full]  # codes[c] = S_c over the arguments so far
    for v in args:
        # the new argument's literal is the code's next bit
        codes = [s & lit for lit in literals[v] for s in codes]
    term = [0] * max(table).bit_length()
    for s, value in zip(codes, table):
        p = 0
        while value:
            if value & 1:
                term[p] |= s
            value >>= 1
            p += 1
    return _keep(key, tuple(term))


def _ones_planes(n: int, w: int, m: int) -> tuple[int, ...]:
    """The bit-sliced planes over n variables of w times the ones an
    assignment sets in m, cached under (m, n, w).

    They are the sum of the unary terms (0, w) on the variables of m, each
    term's planes from `_term_planes`.
    """
    key = (m, n, w)
    got = _plane_cache.get(key)
    if got is not None:
        return got
    counter: tuple[int, ...] | list[int] = ()
    for i in range(n):
        if m >> i & 1:
            counter = _add(counter, _term_planes((i,), (0, w), n))
    return _keep(key, tuple(counter))


def _add(counter: tuple[int, ...] | list[int], term: tuple[int, ...]
         ) -> tuple[int, ...] | list[int]:
    """The bit-sliced sum of `counter` and `term`, plane by plane: a full
    adder over the term's planes, then the carry alone.

    An empty counter gives the term itself, not a copy, so a sum of one
    summand reads the summand's cached planes: every unweighted Max-Ones and
    Min-Ones solve is one Ones group and nothing else.  A tuple counter, a
    summand's own planes, is copied into a list before the first add; a
    list counter is added into in place.
    """
    if not counter:
        return term
    if type(counter) is tuple:
        counter = list(counter)
    if len(counter) < len(term):
        counter += [0] * (len(term) - len(counter))
    carry = 0
    for p, y in enumerate(term):
        x = counter[p]
        t = x ^ y
        counter[p] = t ^ carry
        carry = x & y | t & carry
    p = len(term)
    while carry:
        if p == len(counter):
            counter.append(carry)
            break
        x = counter[p]
        counter[p] = x ^ carry
        carry &= x
        p += 1
    return counter


def _frontier(n: int, raw) -> Optional[np.ndarray]:
    """The ascending masks that satisfy every raw hard term, by a frontier
    search in variable order; None once it outgrows a chunk.  A term's
    minor (`_minor`) is read when the frontier reaches the term's top
    variable, and the first empty frontier is returned at once."""
    by_top: dict[int, list] = {}  # highest argument -> terms checked there
    for args, rel in raw:
        by_top.setdefault(max(args, default=-1), []).append((args, rel))
    frontier = np.zeros(1, dtype=np.int64)
    for v in range(-1, n):
        if v >= 0:
            frontier = np.concatenate((frontier, frontier | (1 << v)))
            if frontier.size > 1 << _CHUNK_BITS:
                return None
        for args, rel in by_top.get(v, ()):
            distinct, minor = _minor(args, rel)
            frontier = frontier[minor.lut[tt.code(frontier, enumerate(distinct))]]
            if not frontier.size:
                return frontier
    return frontier


def _buckets(n: int, soft) -> tuple[dict[int, list], list[int]]:
    """(the soft terms by the step that adds them, the step that forgets each variable).

    Elimination runs in variable order.  A term is added at the step of its
    highest argument, and variable u is forgotten at the last step that adds
    a term holding it, or at step u if no later one does.
    """
    by_top: dict[int, list] = {}
    last = list(range(n))
    for args, table in soft:
        top = max(args)
        by_top.setdefault(top, []).append((args, table))
        for u in args:
            last[u] = max(last[u], top)
    return by_top, last


# What one step of `_eliminate` costs beyond the grid's work for the same
# variable, in grid states.  A step's numpy calls (doubling, one forget, two
# terms' broadcasts) take 30-63 us against the grid's 19-44 us a variable, at
# 2.1-2.5 ns a grid state, on narrow instances of 8-14 variables with two
# terms a variable; so 4,400-9,100 states, measured on a 2-vCPU VM.  The
# benchmark's 16-variable soft files sit at the crossover: at 4096, 56 of 324
# files (three seeds of six blocks) change route, about half of them to the
# slower one.  At 1024 none of 1,080 files of 16-22 variables (ten seeds)
# changes route, while every instance of 11-13 variables, on which the grid
# was 1.0-1.35x faster, and at 14 all but those under 2^11 states, go to the
# grid (BENCH_22.json).
_STEP_STATES = 1 << 10


def _elimination_pays(last: list[int]) -> bool:
    """Whether `_eliminate` keeps its table within a chunk and costs less
    than the grid's 2^n states, read from the steps that forget each of the
    n variables (`_buckets`) before any array work.

    Variable u sits in the table from step u through the step that forgets
    it, so step v touches 2^a_v states, a_v the variables in it then, and
    costs `_STEP_STATES` more.
    """
    n = len(last)
    change = [0] * (n + 1)  # at step v, a_v changes by change[v]
    for u in range(n):
        change[u] += 1
        change[last[u] + 1] -= 1
    size = peak = 0
    work = n * _STEP_STATES
    for v in range(n):
        size += change[v]
        work += 1 << size
        peak = max(peak, size)
    return peak <= _CHUNK_BITS and work < 1 << n


def _eliminate(kind: str, by_top: dict[int, list], last: list[int], scale: int) -> SolveResult:
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
    Both come from `_buckets`, which `solve` runs once for this and for
    `_elimination_pays`.  The keys fit in int64 when the objective is below
    2^(62 - n), which `solve` checks first.
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
        small = table[tt.code(tt.arange(len(distinct)),
                              [(j, distinct.index(p)) for j, p in enumerate(places)])]
    shape, spread, top = [], [], acc.size.bit_length() - 1
    for p in reversed(distinct):  # the C-order axes run from the top bit down
        shape += (1 << (top - p - 1), 2)
        spread += (1, 2)
        top = p
    view = acc.reshape(shape + [1 << top])
    view += small.reshape(spread + [1])


def _optimize(kind: str, masks: np.ndarray, tables, want_all: bool) -> SolveResult:
    """Score the frontier's ascending feasible `masks` of a hard-kind
    instance and pick the optimum among them.

    The masks are ascending, so the least optimal mask is the first hit and
    optimal_set comes out sorted.
    """
    scale, _, ones, _ = tables
    if not masks.size:
        return SolveResult(kind, False, None, None, () if want_all else None)
    obj = np.zeros(masks.shape, dtype=np.int64)
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
    scale, soft, ones, bound = tables
    dtype = np.int32 if bound < 1 << 31 else np.int64
    # here every variable weight is a unary term [0, w]
    soft = [(args, np.array(table, dtype=dtype)) for args, table in
            [*soft, *(((i,), (0, w)) for w, mask in ones for i in range(n) if mask >> i & 1)]]
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
