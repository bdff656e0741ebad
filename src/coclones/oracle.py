"""Exact ground-truth solvers for every problem kind.

Assignments are bitmasks (variable i in bit i); objectives are computed in
integers after clearing denominators, so optima are exact.

`solve` reads an instance in one pass, `_terms`, which resolves each
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

`solve` takes an instance down one of two routes.  Only the soft kinds past
the cut vectorise, so only they import numpy, with `arrays`:

- Every hard-kind instance, and every instance of at most `_TRUTH_VARS` =
  14 variables of any kind, is solved on truth tables (`truthtables`) in
  Python ints, by `_truth`, over its first min(n, 14) variables.  Up to
  the cut the candidates are the AND of the hard constraints' tables,
  stopping at 0, and every assignment when there are none; a constraint's
  table is cached on its relation under (args, n), so a repeated
  constraint skips both the minor and the build (`Relation.table_cache`,
  bounded by `_TABLES_PER_RELATION`).  Past the cut the same function is a
  frontier search in variable order (Dechter, *Constraint Processing*, ch.
  5): one such table per live assignment of the later variables, each
  later term ANDed in with its later arguments fixed (cached on the
  relation under (args, 14, fixed)), and the first variable that leaves
  no table ends the search, so the unsatisfiable 2+3n certify targets,
  which empty at a median 40% of their variables, all below the cut, read
  nothing past that point.  The objective is a bit-sliced counter of the
  soft terms and of each Ones group's low variables, read from the top
  plane down within the candidates, plus the weight of the high ones; one
  summand alone, as of every unweighted Max-Ones and Min-Ones instance, is
  read from its cached planes with no copy.  A term's own planes are
  cached under its args, n and scaled table (`_term_planes`), and a
  group's under (m, n, w) (`_ones_planes`, built from the unary terms'
  planes), so the Max-Cut edges and f_neq terms that the certify corpora
  repeat, and the unit weights of every U-Max-Ones and Min-Ones solve of n
  variables, are built once; the cache starts over before it passes
  `_PLANE_BYTES` = 1 MB.  On a 2-vCPU VM the counter takes 9-14 us a solve
  with that cache and 13-22 us without it, where scoring all 2^n masks in
  numpy took 31-33 us, on the 912 solves of 2-5 variables of the
  Max-Cut/f_neq certify corpora; on random instances of 11-14 variables
  with 2n binary and ternary terms it takes 0.12-0.81 ms, where the grid
  or elimination took 0.38-1.03 ms.  It still wins at 15 and 16 variables
  and is no faster than elimination from 17 on.  The cut is where one
  table over all the variables stopped paying on the certify targets of
  the 8-ary weak bases.  Warm, the satisfiable 17- and 20-variable certify
  targets take 49-122 us, and random U-Max-Ones instances of 24 variables
  3.1 ms with no terms, 4.5 ms with 2n OR3 terms and 1.4 ms with 3n NAND2
  terms (`BENCH_41.json`).  The variable planes the tables are built on
  are cached per n (`truthtables.planes`), 2n + 1 ints of 2^n bits: 59 KB
  at 14 variables and 111 KB for every n up to 14.
- Soft kinds past the cut are solved by bucket elimination in variable
  order (`arrays.eliminate`; Bertele & Brioschi, *Nonserial Dynamic
  Programming*, 1972), whose largest table held 2^8-2^18 states (median
  2^12) on random instances of 16-22 variables with 2n binary and ternary
  terms, where the grid has 2^n.  It is taken when its packed keys fit,
  that is the objective bound of `_terms` is below 2^(62 - n), when its
  table stays within one chunk, and when the states it touches, plus
  `_STEP_STATES` a step, are fewer than the grid's, all read from the
  terms' buckets (`_buckets`, once a solve) before any array work
  (`_elimination_pays`).  It finds one optimal mask, not the optimal set,
  so `--all` and the rest are enumerated in chunks of 2^20 masks, each a
  grid of high-half by low-half masks that gathers every term once per
  half (`arrays.enumerate_masks`; meet in the middle, Horowitz & Sahni
  1974).

A relation's minors, truth tables, bool LUT, 0/1 table and decision diagram
are built once and cached on the `Relation` object itself (`Relation.minor`,
`Relation.table_cache`, `Relation.lut`, `Relation.hits`, `Relation.diagram`),
as a cost function's integer form is on its `CostFunction`, so they live
exactly as long as the relation and a resolver that maps a name to another
relation gets others.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
# Instances with at most this many variables are solved on truth tables, and
# a larger hard-kind instance on tables over this many (a crossover measured
# on a 2-vCPU VM; see the module docstring)
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
        weights: dict = {}  # (num, den) of a variable weight -> mask of the variables that carry it
        for i, w in enumerate(inst.var_weights):
            if w:
                w = w.as_integer_ratio()  # a pair of ints hashes faster than a Fraction
                weights[w] = weights.get(w, 0) | 1 << i
        scale = math.lcm(*(den for _, den in weights))
        ones = [(num * (scale // den), mask) for (num, den), mask in weights.items()]
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
    """Exact optimum (or satisfiability), the least optimal mask and, with
    `want_all`, every optimal mask in ascending order.

    Two routes.  Every hard-kind instance and every instance of at most
    `_TRUTH_VARS` variables is solved on truth tables by `_truth`, without
    numpy.  The soft kinds past the cut import `arrays` and take
    elimination or the grid; `jobs` is the thread count of the grid, which
    splits only an instance of more than 2^20 masks, and every other route
    runs in one thread.
    """
    raw, tables = _terms(inst, resolver or default_resolver(), want_all)
    n = inst.num_vars
    if n <= _TRUTH_VARS or inst.kind in _HARD_KINDS:
        return _truth(inst.kind, n, raw, tables, want_all)
    from . import arrays

    scale, soft, _, bound = tables
    # a packed key holds the objective above the n bits of its mask
    if not want_all and bound < 1 << (62 - n):
        by_top, last = _buckets(n, soft)
        if _elimination_pays(last):
            return arrays.eliminate(inst.kind, by_top, last, scale)
    return arrays.enumerate_masks(inst, tables, want_all, jobs)


# A relation holds at most this many tables (Relation.table_cache).  The six
# blocks of one mixed benchmark run (seed 1) look up 67,288 tables under 946
# distinct (relation, args, n) keys, at most 285 of them on one relation
# (R_IL0), and the cache answers 98.6% of the lookups; twelve blocks meet
# 1,634 keys, at most 458 on one relation, since the sampled weak-base
# corpora keep adding argument tuples.  The hard kinds past the cut fill the
# same cache under (args, _TRUTH_VARS) for the terms below it and under
# (args, _TRUTH_VARS, fixed) for the restricted tables of the terms past it:
# the five blocks of a certify-hard run (seed 1) leave 510 keys, 125 of them
# restricted, at most 150 on one relation (R_ID2).  So the bound, over twice
# either run's largest count, evicts nothing in a run.  A table over
# n <= _TRUTH_VARS variables takes at most 2 KB (the 946 take 0.2 MB, the
# 510 0.5 MB), so a full relation holds about 2 MB.
_TABLES_PER_RELATION = 1 << 10


def _table(rel, args: tuple[int, ...], n: int, *fixed: int) -> int:
    """The truth table of rel on args over n variables, cached on rel under
    (args, n, *fixed).

    A miss builds the table on the identification minor of rel at args,
    each argument at n or above a constant bit of `fixed` (`tt.table`).  A
    relation whose cache is full starts it over.
    """
    cache = rel.table_cache
    key = (args, n, *fixed)
    got = cache.get(key)
    if got is None:
        distinct, minor = _minor(args, rel)
        got = tt.table(minor, distinct, n, *fixed)
        if len(cache) >= _TABLES_PER_RELATION:
            cache.clear()
        cache[key] = got
    return got


def _truth(kind: str, n: int, raw, tables, want_all: bool) -> SolveResult:
    """Solve an instance on truth tables over its first cut = min(n,
    `_TRUTH_VARS`) variables.

    A key (h, t) holds an assignment h of the variables past the cut
    (variable cut + i in bit i of h) and the table t of the low assignments
    that, with h, satisfy every term whose top variable is assigned so far.
    The first key, h = 0, ANDs the terms below the cut, stopping at 0: in
    constraint order, or in top-variable order when n > cut.  Each later
    variable doubles the keys, the half that sets it after the other, so
    the keys stay ascending in h, and `_restrict` ANDs in its terms.  Plane
    p of a bit-sliced counter is the table of the low assignments whose
    objective has bit p set: the soft terms' planes (`_term_planes`) and
    those of each Ones group's low variables (`_ones_planes`), summed by a
    ripple-carry adder (`_add`).  A key's value is the optimum within t
    (`_optimum`) plus the weight of its high ones.  The witness is the
    lowest candidate of the first key that reaches the optimum, and the
    optimal set lists those keys' candidates in key order (`_masks`).
    """
    cut = n if n <= _TRUTH_VARS else _TRUTH_VARS
    below, by_top = raw, {}  # the terms below the cut; the rest by top variable
    if n > cut:
        for args, rel in raw:
            by_top.setdefault(max(args), []).append((args, rel))
        below = [term for v in range(cut) for term in by_top.pop(v, ())]
    t = tt.planes(cut)[0]
    for args, rel in below:
        # a hit on the relation's cache skips the call
        table = rel.table_cache.get((args, cut))
        t &= _table(rel, args, cut) if table is None else table
        if not t:
            break
    keys = [(0, t)] if t else []
    for v in range(cut, n):
        if not keys:
            break
        keys += [(h | 1 << (v - cut), t) for h, t in keys]
        if v in by_top:
            keys = _restrict(keys, by_top[v])
    if not keys:
        return SolveResult(kind, False, None, None, () if want_all else None)
    scale, soft, ones, _ = tables
    counter: tuple[int, ...] | list[int] = ()
    for args, table in soft:
        counter = _add(counter, _term_planes(args, tuple(table), cut))
    low = (1 << cut) - 1
    for w, m in ones:
        counter = _add(counter, _ones_planes(cut, w, m & low))
    maximize = kind in MAXIMIZING_KINDS
    found: list = []  # the keys that reach the best value so far
    for h, t in keys:
        value, t = _optimum(t, counter, maximize)
        if h:  # the weight of the high ones
            for w, m in ones:
                value += w * (m >> cut & h).bit_count()
        if not found or (value > best if maximize else value < best):
            best, found = value, [(h, t)]
        elif value == best:
            found.append((h, t))
    h, t = found[0]
    return SolveResult(kind, True, _fraction(kind, best, scale),
                       (t & -t).bit_length() - 1 | h << cut,
                       _masks(found, cut) if want_all else None)


def _masks(keys: list, cut: int) -> tuple[int, ...]:
    """The assignments of the keys (h, t) in key order: each low assignment
    of t, with h placed above it by h << cut."""
    out: list[int] = []
    for h, t in keys:
        low = tt.masks(t, cut)
        out += map((h << cut).__or__, low) if h else low
    return tuple(out)


def _optimum(cand: int, counter, maximize: bool) -> tuple[int, int]:
    """(the best objective within the candidates, the candidates that reach it).

    The counter is read from the top plane down, one AND a plane:
    maximizing, the candidates with the plane's bit set, if any, are kept
    and the bit is the optimum's; minimizing, the bit is the optimum's if
    every candidate has it, and otherwise those that have it drop out.
    """
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
    return best, cand


def _fraction(kind: str, best: int, scale: int) -> Optional[Fraction]:
    """The optimum `best` / `scale` of a satisfiable instance; None for SAT."""
    if kind == KIND_SAT:
        return None
    # an int alone skips Fraction's gcd
    return Fraction(best) if scale == 1 else Fraction(best, scale)


def _restrict(keys: list, terms: list) -> list:
    """The keys left once each table is ANDed with the terms past the cut, in
    order, up to the first that empties it.

    A term's table for a key has each high argument fixed to its bit of h
    (`_table`; bit i of `fixed` is the i-th high argument's), and the term
    indexes its tables by those bits, in their places in h.
    """
    index = []  # per term: (its high bits in h, their places, its tables, args, rel)
    for args, rel in terms:
        high = [v - _TRUTH_VARS for v in _identification(args)[0] if v >= _TRUTH_VARS]
        index.append((sum(1 << p for p in high), high, {}, args, rel))
    out = []
    for h, t in keys:
        for bits, high, tables, args, rel in index:
            got = tables.get(h & bits)
            if got is None:
                fixed = sum((h >> p & 1) << i for i, p in enumerate(high))
                got = tables[h & bits] = _table(rel, args, _TRUTH_VARS, fixed)
            t &= got
            if not t:
                break
        else:
            out.append((h, t))
    return out


# The planes `_term_planes` and `_ones_planes` keep, bounded by what their
# ints take (`sys.getsizeof`): a plane over n variables takes 2^n / 8 bytes,
# 2 KB at 14, plus the int's header.  Six blocks of one mixed benchmark run
# (seed 1) build 823 entries, 160 KB in all: 553 terms' planes, 347 of them
# unary (0, w) terms that the Ones groups are summed from, and 270 groups',
# and twelve blocks 1,385 entries, 266 KB.  The hard kinds past the cut add
# the groups (m & low, _TRUTH_VARS, w) of their low variables: the five
# blocks of a certify-hard run (seed 1) build 28 entries, 40 KB.  So the
# bound evicts nothing in a run; it caps a long run of fractional weights at
# 14 variables, which spans dozens of planes a term and rarely repeats.
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
