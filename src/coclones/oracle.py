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
or 3 variables, and each table build works on those.  A constraint
without repeats keeps its own relation.

`solve` takes an instance down one of three routes.  Only the grid
vectorises, so only it imports numpy, with `arrays`:

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
  read from its cached planes with no copy.  Plane p of a soft term is the
  table of its level relation, the relation over its arguments that holds
  on the codes whose value has bit p (`_levels`), walked on the arguments'
  literals like a hard constraint's (`_term`): one `&`/`|` per diagram node
  per plane, so a k-ary term costs its diagrams' nodes, not 2^k sets of
  assignments.  Plane p of a Ones group is the sum of its variables'
  literals where the weight has bit p (`_ones_planes`).  A term's planes
  are cached under its args, n and scaled table (`_term_planes`), and a
  group's under (m, n, w), so the Max-Cut edges and f_neq terms that the
  certify corpora repeat, and the unit weights of every U-Max-Ones and
  Min-Ones solve of n variables, are built once; the cache starts over
  before it passes `_PLANE_BYTES` = 1 MB.  The cut is where one table
  over all the variables stopped paying on the certify targets of the
  8-ary weak bases (`BENCH_41.json`, `certify_targets` and
  `hard_solve_matrix`).  What the counter costs against the grid and
  elimination is in `BENCH_23.json` (`tiny_soft_solves`,
  `random_soft_11_to_17_variables`), and what wide terms cost in
  `BENCH_49.json` (`wide_terms`).  The variable planes the tables are built
  on are cached per n (`truthtables.planes`), 2n + 1 ints of 2^n bits.
- Soft kinds past the cut are solved by bucket elimination (`_eliminate`;
  Bertele & Brioschi, *Nonserial Dynamic Programming*, 1972) on the same
  bit-sliced counters, one plane an int of 2^a bits over the a variables
  in the table, with the optimal set by a walk back that branches on ties.
  One pass over the soft terms' scopes plans it (`_schedule`): a
  Cuthill-McKee order (Cuthill & McKee 1969), the step that adds each
  term and forgets each variable, and the widest table, where a variable
  enters the table with its first term, so a star is eliminated two
  variables at a time.  Ties are still broken toward the least mask in
  the original indices, so no report depends on the order.  The widths
  and solve times by kind and size are in `BENCH_47.json`
  (`solve_by_class`, `stars`), the plan's cost in `BENCH_48.json`
  (`plan_us_per_solve`).  The objective has no packing bound: only
  `_INT_LIMIT` caps it.  The literal planes of a width up to the cut come
  from `truthtables.planes`' cache; a wider one is built when a solve
  first reads it and dropped with the solve (`_planes`), since it takes
  2^a / 8 bytes.
- The rest, soft kinds whose widest table would pass 2^`_CHUNK_BITS`
  states, are enumerated in chunks of 2^20 masks, each a grid of
  high-half by low-half masks that gathers every term once per half
  (`arrays.enumerate_masks`; meet in the middle, Horowitz & Sahni 1974).
  Only single-optimum solves of 21-24 variables get here, such as a
  complete graph, since `want_all` caps n at `MAX_ENUMERATE_VARS` =
  `_CHUNK_BITS`.

A relation's minors, truth tables, 0/1 table and decision diagram are
built once and cached on the `Relation` object itself (`Relation.minor`,
`Relation.table_cache`, `Relation.hits`, `Relation.diagram`),
as a cost function's integer form is on its `CostFunction`, so they live
exactly as long as the relation and a resolver that maps a name to another
relation gets others.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
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
    MAX_COST_ARITY,
    Instance,
    InstanceError,
    OracleError,
    Resolver,
    Threshold,
    default_resolver,
)
from .relations import Record, Relation, _slot_setters, whole

MAX_SOLVE_VARS = 24
_CHUNK_BITS = 20
# the grid lists no optimal set: capping `want_all` at a chunk's variables
# keeps every elimination table of such a solve within a chunk
MAX_ENUMERATE_VARS = _CHUNK_BITS
_INT_LIMIT = 1 << 60
# Instances with at most this many variables are solved on truth tables, and
# a larger hard-kind instance on tables over this many (a crossover measured
# on a 2-vCPU VM; see the module docstring)
_TRUTH_VARS = 14

# kinds whose constraints are all hard, so an assignment can be pruned
_HARD_KINDS = (KIND_SAT, KIND_UMO, KIND_WMO, KIND_MINO)


class SolveResult(Record):
    __slots__ = _fields = ("kind", "satisfiable", "optimum", "witness", "optimal_set")

    def __init__(self, kind: str, satisfiable: bool, optimum: Optional[Fraction],
                 witness: Optional[int], optimal_set: Optional[tuple[int, ...]] = None) -> None:
        set_kind, set_satisfiable, set_optimum, set_witness, set_optimal_set = _RESULT_SETTERS
        set_kind(self, kind)
        set_satisfiable(self, satisfiable)
        set_optimum(self, optimum)  # None for SAT or unsatisfiable instances
        set_witness(self, witness)  # lexicographically least optimal assignment mask
        set_optimal_set(self, optimal_set)


_RESULT_SETTERS = _slot_setters(SolveResult)


# Solves meet the same args tuples again and again.  Neither benchmark run
# fills the cache; one process that runs `certify all`, both family reports
# and `selftest` evicts at its cap (`BENCH_50.json`, `caches`).
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
    and checks the variable cap.  The hard terms are (args, relation)
    pairs, one per constraint of a hard kind, on its raw args, zipped for
    one pass rather than listed as tuples.  A soft term is (args,
    table), one per constraint of the soft kinds: the table is a sequence of
    Python ints indexed by the code of `args` (argument j in bit j), which
    the grid turns into arrays itself.  A Ones group
    (w, m) of the Max-/Min-Ones kinds holds in m the variables of weight w,
    one group per distinct nonzero weight.  The objective is the sum of the
    soft terms plus w times the ones in m of every group, all multiplied by
    `scale`, the least integer that clears every denominator of a weighted
    value.  The bound caps that objective, and so every partial sum, since
    weights and costs are nonnegative; it sets the grid's dtype, and one of
    `_INT_LIMIT` or more is an error.

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
        hard = zip(map(_ARGS, constraints), applied)
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

    if kind == KIND_VCSP:
        forms = [fn.scaled for fn in applied]
    elif kind == KIND_MAXCSP:
        forms = [(1 if fn.tuples else 0, 1, fn.hits) for fn in applied]
    else:  # Max-Cut: an edge counts when its ends differ
        forms = [_EDGE] * len(applied)
    terms = []  # (args, wn, d, nums): the term's values are wn * nums[i] / d
    scale = 1
    for c, (g, den, nums) in zip(constraints, forms):
        w = c.weight
        if w is None:
            wn, d = 1, den
        else:
            wn, d = w.numerator, w.denominator * den
        if d != 1:
            scale = math.lcm(scale, d // math.gcd(d, wn * g))
        terms.append((c.args, wn, d, nums))
    ints = []
    bound = 0
    for args, wn, d, nums in terms:
        f = wn * scale  # the term's value i times scale is f * nums[i] / d, an int
        if d != 1:
            table = [f * x // d for x in nums]
        else:
            table = nums if f == 1 else [f * x for x in nums]
        ints.append((args, table))
        bound += max(table)
    return [], (scale, ints, [], _bounded(bound))


_ARGS = operator.attrgetter("args")
# the integer form of Max-Cut's table over the code of an edge's two ends:
# 1 where they differ
_EDGE = (1, 1, (0, 1, 1, 0))
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

    Three routes.  Every hard-kind instance and every instance of at most
    `_TRUTH_VARS` variables is solved on truth tables by `_truth`.  The
    soft kinds past the cut are solved by elimination (`_eliminate`) on the
    plan of `_schedule`, optimal set included, unless its widest table
    would pass 2^`_CHUNK_BITS` states; those import `arrays` and take the
    grid.
    `jobs` is the thread count of the grid, which splits only an instance
    of more than 2^20 masks, and every other route runs in one thread
    without numpy.
    """
    raw, tables = _terms(inst, resolver or default_resolver(), want_all)
    n = inst.num_vars
    if n <= _TRUTH_VARS or inst.kind in _HARD_KINDS:
        return _truth(inst.kind, n, raw, tables, want_all)
    scale, soft, _, _ = tables
    order, by_top, last, width = _schedule(n, soft)
    if width <= _CHUNK_BITS:
        return _eliminate(inst.kind, order, by_top, last, scale, want_all)
    from . import arrays

    return arrays.enumerate_masks(inst, tables, jobs)


# A relation holds at most this many tables (Relation.table_cache), keyed by
# (args, n), and past the cut by (args, _TRUTH_VARS, fixed) for the
# restricted tables of the later terms.  The sampled weak-base corpora keep
# adding argument tuples, so the keys on one relation grow with a run; a
# default certify of every registry entry and `selftest` in one process
# meets the most, and the bound still evicts nothing there or in either
# benchmark run (`BENCH_50.json`, `caches`).  A table over n <= _TRUTH_VARS
# variables takes at most 2 KB, so a full relation holds at most 8 MB.
_TABLES_PER_RELATION = 1 << 12


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

    The table t ANDs the terms below the cut, stopping at 0: in constraint
    order, or in top-variable order when n > cut.  An empty t is
    unsatisfiable.  Plane p of a bit-sliced counter is the table of the low
    assignments whose objective has bit p set: the soft terms' planes
    (`_term_planes`) and those of each Ones group's low variables
    (`_ones_planes`), summed by a ripple-carry adder (`_add`).  Up to the
    cut the optimum within t (`_optimum`), its lowest candidate and its
    candidates are the answer.

    Past the cut, a key (h, t) holds an assignment h of the later variables
    (variable cut + i in bit i of h) and the table t of the low assignments
    that, with h, satisfy every term whose top variable is assigned so far;
    the first key is h = 0 with the table above.  Each later variable
    doubles the keys, the half that sets it after the other, so the keys
    stay ascending in h, and `_restrict` ANDs in its terms; no key left is
    unsatisfiable.  A key's value is the optimum within t plus the weight
    of its high ones.  The witness is the lowest candidate of the first key
    that reaches the optimum, and the optimal set lists those keys'
    candidates in key order (`_masks`).
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
    if n > cut and t:
        keys = [(0, t)]
        for v in range(cut, n):
            keys += [(h | 1 << (v - cut), t) for h, t in keys]
            if v in by_top:
                keys = _restrict(keys, by_top[v])
                if not keys:
                    t = 0  # no assignment of the later variables is left
                    break
    if not t:
        return SolveResult(kind, False, None, None, () if want_all else None)
    scale, soft, ones, _ = tables
    counter: tuple[int, ...] | list[int] = ()
    for args, table in soft:
        counter = _add(counter, _term_planes(args, table, cut))
    low = (1 << cut) - 1
    for w, m in ones:
        counter = _add(counter, _ones_planes(cut, w, m & low))
    maximize = kind in MAXIMIZING_KINDS
    if n == cut:  # the one table t, and no keys
        best, t = _optimum(t, counter, maximize)
        return SolveResult(kind, True, _fraction(kind, best, scale), (t & -t).bit_length() - 1,
                           tuple(tt.masks(t, cut)) if want_all else None)
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
    return whole(best) if scale == 1 else Fraction(best, scale)


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
# 2 KB at 14, plus the int's header.  The hard kinds past the cut add the
# groups (m & low, _TRUTH_VARS, w) of their low variables.  The bound evicts
# nothing in a benchmark run (`BENCH_50.json`, `caches`); it caps a long run
# of fractional weights at 14 variables, which spans dozens of planes a term
# and rarely repeats.
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


def _term_planes(args: tuple[int, ...], table, n: int) -> tuple[int, ...]:
    """`_term` of the term `table` on `args` over n variables, cached under
    (args, n, table) unless the table has more than `_KEPT_CODES` codes, so
    a wide table is neither copied nor hashed, and leaves no planes behind,
    as it leaves no level relations."""
    wide = len(table) > _KEPT_CODES
    if not wide:
        key = (args, n, tuple(table))
        got = _plane_cache.get(key)
        if got is not None:
            return got
    full, literals = tt.planes(n)
    planes = tuple(_term(table, [literals[v] for v in args], full))
    return planes if wide else _keep(key, planes)


def _term(table, literals, full: int) -> list[int]:
    """The bit-sliced planes within `full` of the term `table` whose
    arguments have the literals (~X, X) `literals`, in order.

    Plane p is the table of the term's p-th level relation (`_levels`),
    walked on those literals like any constraint's (`Relation.evaluate`):
    one `&`/`|` per diagram node, and each distinct relation walked once.
    The level relations of a table of more than `_KEPT_CODES` codes are
    built for the call and dropped with it.
    """
    if len(table) > _KEPT_CODES:
        levels, index = _levels.__wrapped__(table)
    else:
        levels, index = _levels(tuple(table))
    walked = [level.evaluate(literals, full) for level in levels]
    return [walked[i] for i in index]


# `_levels` keeps the level relations of the tables of at most this many
# codes, every cost function's and every relation's of arity up to
# MAX_COST_ARITY; a wider table, a Max-CSP relation's, keeps none, since its
# relations may hold 2^k tuples
_KEPT_CODES = 1 << MAX_COST_ARITY


@functools.lru_cache(maxsize=1 << 10)
def _levels(table: tuple[int, ...]) -> tuple[tuple[Relation, ...], tuple[int, ...]]:
    """The level relations of a term's table over 2^k codes (argument j in
    bit j): (each distinct one, and per plane p the index of its own).
    Plane p's is the k-ary relation that holds on the codes whose value has
    bit p.

    Which values set bit p is read off the table's distinct values, and
    each distinct set of them is one pass over the codes that builds its
    relation, so planes set by the same values share one relation, as
    every nonzero plane of a weighted 0/1 table does.
    """
    k = len(table).bit_length() - 1
    values = set(table)
    levels: list[Relation] = []
    made: dict[frozenset[int], int] = {}  # the values that set a plane -> its relation
    index = []
    for p in range(max(values).bit_length()):
        setting = frozenset([v for v in values if v >> p & 1])
        i = made.get(setting)
        if i is None:
            i = made[setting] = len(levels)
            held = map(operator.contains, itertools.repeat(setting), table)
            levels.append(Relation(k, tuple(itertools.compress(range(1 << k), held))))
        index.append(i)
    return tuple(levels), tuple(index)


def _ones_planes(n: int, w: int, m: int) -> tuple[int, ...]:
    """The bit-sliced planes over n variables of w times the ones an
    assignment sets in m, cached under (m, n, w).

    They are the sum over the variables of m of the unary terms (0, w),
    whose plane p is the variable's literal X_v where w has bit p and
    empty elsewhere.
    """
    key = (m, n, w)
    got = _plane_cache.get(key)
    if got is not None:
        return got
    literals = tt.planes(n)[1]
    bits = [w >> p & 1 for p in range(w.bit_length())]
    counter: tuple[int, ...] | list[int] = ()
    for v in range(n):
        if m >> v & 1:
            counter = _add(counter, [literals[v][1] if b else 0 for b in bits])
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


def _schedule(n: int, soft) -> tuple[list[int], dict[int, list], list[int], int]:
    """The elimination plan of n variables under the soft terms: (the order,
    the terms by the step that adds them, the step that forgets each
    variable, the most variables the table holds at once).

    The order is Cuthill-McKee's (Cuthill & McKee 1969) on the graph that
    joins the arguments of each term, one neighbour bitmask per variable:
    breadth-first from a least-degree variable, each variable's unvisited
    neighbours in (degree, index) order, restarted at the least-degree
    variable left when a component is done, so a variable in no term is a
    component of its own.  Step k is variable order[k].  A term is added at
    the step of its last argument in the order; variable u enters the table
    at the first step that adds a term holding it and is forgotten at the
    last, or at its own step if no later one does, so a variable in no term
    never enters.  The width is the largest running sum of those entries
    and exits.  What the plan costs a solve is in `BENCH_48.json`
    (`plan_us_per_solve`).
    """
    near = [0] * n  # the neighbours of each variable, bit w for variable w
    for args, _ in soft:
        m = 0
        for u in args:
            m |= 1 << u
        for u in args:
            near[u] |= m
    near = [x & ~(1 << u) for u, x in enumerate(near)]
    degree = [x.bit_count() for x in near]
    order: list[int] = []
    seen = i = 0
    # a stable sort of the index order gives (degree, index) order
    for start in sorted(range(n), key=degree.__getitem__):
        if not seen >> start & 1:  # a new component
            seen |= 1 << start
            order.append(start)
        while i < len(order):
            new = near[order[i]] & ~seen
            seen |= new
            fresh = []
            while new:
                bit = new & -new
                fresh.append(bit.bit_length() - 1)
                new ^= bit
            order += sorted(fresh, key=degree.__getitem__)
            i += 1
    step = [0] * n
    for k, v in enumerate(order):
        step[v] = k
    by_top: dict[int, list] = {}
    first = [n] * n  # n: no term holds the variable
    last = step[:]
    for args, table in soft:
        top = max(map(step.__getitem__, args))
        by_top.setdefault(top, []).append((args, table))
        for u in args:
            if first[u] > top:
                first[u] = top
            if last[u] < top:
                last[u] = top
    change = [0] * (n + 1)  # at step k, the table's width changes by change[k]
    for u in range(n):
        if first[u] < n:
            change[first[u]] += 1
            change[last[u] + 1] -= 1
    return order, by_top, last, max(itertools.accumulate(change))


def _planes(a: int, wide: dict):
    """(FULL, literals) over a variables, as `tt.planes(a)` gives them up to
    `_TRUTH_VARS`.  Past it they are kept in `wide`, which `_eliminate`
    drops when it returns, and each literal is built when first read
    (`_Doubled`), so a wide solve leaves no planes cached (a literal takes
    128 KB at 20 variables)."""
    if a <= _TRUTH_VARS:
        return tt.planes(a)
    got = wide.get(a)
    if got is None:
        got = wide[a] = (1 << (1 << a)) - 1, _Doubled(a, _planes(a - 1, wide)[1])
    return got


class _Doubled(dict):
    """The literals (~X_v, X_v) over a variables, by v, each built on its
    first read from the one over a - 1 variables, `below`."""

    def __init__(self, a: int, below) -> None:
        super().__init__()
        self.a, self.below = a, below

    def __missing__(self, v: int) -> tuple[int, int]:
        size = 1 << self.a - 1
        if v == self.a - 1:
            got = self[v] = (1 << size) - 1, ((1 << size) - 1) << size
        else:
            x, y = self.below[v]
            got = self[v] = x | x << size, y | y << size
        return got


# The 16 functions of two arguments, indexed by the set of codes (x0 + 2 x1)
# on which they hold, each built from the literals (~X0, X0) and (~X1, X1)
# and the full table in at most one operation.
_PAIR = (
    lambda a0, a1, b0, b1, full: 0,
    lambda a0, a1, b0, b1, full: a0 & b0,
    lambda a0, a1, b0, b1, full: a1 & b0,
    lambda a0, a1, b0, b1, full: b0,
    lambda a0, a1, b0, b1, full: a0 & b1,
    lambda a0, a1, b0, b1, full: a0,
    lambda a0, a1, b0, b1, full: a1 ^ b1,
    lambda a0, a1, b0, b1, full: a0 | b0,
    lambda a0, a1, b0, b1, full: a1 & b1,
    lambda a0, a1, b0, b1, full: a1 ^ b0,
    lambda a0, a1, b0, b1, full: a1,
    lambda a0, a1, b0, b1, full: a1 | b0,
    lambda a0, a1, b0, b1, full: b1,
    lambda a0, a1, b0, b1, full: a0 | b1,
    lambda a0, a1, b0, b1, full: a1 | b1,
    lambda a0, a1, b0, b1, full: full,
)


@functools.lru_cache(maxsize=1 << 10)
def _code_sets(table: tuple[int, ...]) -> tuple[int, ...]:
    """Per plane of a term's table, the set of codes (bit c for code c) whose
    value has the plane's bit, the level relation's `bits`; kept like
    `_levels`."""
    sets = [0] * max(table).bit_length()
    for c, value in enumerate(table):
        while value:
            bit = value & -value
            sets[bit.bit_length() - 1] |= 1 << c
            value ^= bit
    return tuple(sets)


def _eliminate(kind: str, order: list[int], by_top: dict[int, list], last: list[int],
               scale: int, want_all: bool) -> SolveResult:
    """Solve a soft-kind instance by bucket elimination in the computed
    order (Bertele & Brioschi 1972; Dechter, *Constraint Processing*, ch.
    4), on bit-sliced ints.

    The table over the a variables in it (state bit i holds variable
    active[i]) is a counter of objective planes, ints of 2^a bits as in
    `_truth`.  Step k, that of variable order[k] (`_schedule`), adds the
    terms of step k (`by_top`): each argument not yet in the table enters
    it at the top bit, doubling every plane, and the term's planes over the
    states, by `_PAIR` for two or three arguments and by `_term` for one or
    more than three, are ripple-added (`_add`).  Then every variable
    that no later term holds (`last`) is forgotten: one delta swap moves
    its state bit to the top, each plane splits into the half that clears
    it and the half that sets it, and a compare from the top plane down
    keeps the better half in each state.

    On a tie the half of the lesser mask wins, in the original variable
    indices, whatever the order.  The two masks differ in u and in the
    variables forgotten so far, so the chosen bits of the forgotten
    variables whose index is above u's decide, the highest index first, and
    u's own bit if none differs.  So a forgotten variable's chosen bits are
    carried, as planes, while some variable of a lower index is not yet
    forgotten, and the least optimal mask comes out, as on the grid.  A
    variable in no term never enters; it is forgotten at its own step with
    both halves equal.

    The witness is read back from the last forget to the first: each
    forget's choice, at the state of the variables left in its table, sets
    its variable's bit in the original indices.  With `want_all` the walk
    branches where the two halves tie in value, so it reaches every optimal
    mask, and then sorts them.
    """
    maximize = kind in MAXIMIZING_KINDS
    n = len(last)
    planes: list[int] = []  # the objective planes over the states
    active: list[int] = []  # state bit i holds variable active[i]
    place = [0] * n  # the state bit of each active variable
    carried: list[int] = []  # the forgotten variables carried, descending,
    chosen: list[int] = []  # and their chosen bits over the states
    gone = [False] * (n + 1)
    lowest = 0  # the least variable index not yet forgotten
    forgets = []  # (u, the variables left in the table, choice, better, tied)
    wide: dict = {}  # `_planes` past _TRUTH_VARS
    for k, v in enumerate(order):
        for args, table in by_top.get(k, ()):
            for u in args:
                if u not in active:
                    size = 1 << len(active)
                    planes = [p | p << size for p in planes]
                    chosen = [p | p << size for p in chosen]
                    place[u] = len(active)
                    active.append(u)
            a = len(active)
            if 2 <= len(args) <= 3:
                # each plane a function of the first two arguments, or of
                # those two on each side of the third, by `_PAIR`
                sets = _code_sets(tuple(table))
                full, literals = _planes(a, wide)
                a0, a1 = literals[place[args[0]]]
                b0, b1 = literals[place[args[1]]]
                if len(args) == 2:
                    term = [_PAIR[m](a0, a1, b0, b1, full) for m in sets]
                else:
                    c1 = literals[place[args[2]]][1]
                    term = []
                    for m in sets:
                        x = _PAIR[m & 15](a0, a1, b0, b1, full)
                        if m & 15 != m >> 4:
                            x ^= c1 & _PAIR[(m ^ m >> 4) & 15](a0, a1, b0, b1, full)
                        term.append(x)
                planes = _add(planes, term)
            else:
                full, literals = _planes(a, wide)
                planes = _add(planes, _term(table, [literals[place[u]] for u in args], full))
        if last[v] == k and v not in active:
            forgets.append((v, (), 0, 0, 1))
            gone[v] = True
        for u in [u for u in active if last[u] == k]:
            top = len(active) - 1
            i = place[u]
            k = len(planes)
            both = planes + chosen
            if i < top:
                # the states with bit i set and bit top clear: X_i over top variables
                shift, m = (1 << top) - (1 << i), _planes(top, wide)[1][i][1]
                both = [p ^ t ^ t << shift for p in both for t in ((p >> shift ^ p) & m,)]
                w = active[i] = active[top]
                place[w] = i
            active.pop()
            gone[u] = True
            half = 1 << top
            low = (1 << half) - 1
            los = [p & low for p in both]
            his = [p >> half for p in both]
            better, tied = 0, low  # the states where u's set half is better; those still equal
            for p in range(k - 1, -1, -1):
                x = los[p]
                d = (x ^ his[p]) & tied
                if d:
                    better |= d ^ d & x if maximize else d & x
                    tied ^= d
                    if not tied:
                        break
            choice, rest = better, tied
            if rest:
                for j, w in enumerate(carried, k):
                    if w < u:
                        break
                    x = los[j]
                    d = (x ^ his[j]) & rest
                    if d:
                        choice |= d & x  # the set half chose w where the other did not
                        rest ^= d
                        if not rest:
                            break
            both = [x ^ (x ^ y) & choice for x, y in zip(los, his)] if choice else los
            planes = both[:k]
            chosen = both[k:]
            while gone[lowest]:
                lowest += 1
            if carried and carried[-1] <= lowest:
                keep = [j for j, w in enumerate(carried) if w > lowest]
                chosen = [chosen[j] for j in keep]
                carried = [carried[j] for j in keep]
            if u > lowest:
                j = 0
                while j < len(carried) and carried[j] > u:
                    j += 1
                carried.insert(j, u)
                chosen.insert(j, choice)
            forgets.append((u, tuple(active), choice, better, tied))
        while gone[lowest]:
            lowest += 1
    best = sum(p << i for i, p in enumerate(planes))
    masks = [0]
    for u, layout, choice, better, tied in reversed(forgets):
        places = list(enumerate(layout))
        if not want_all:
            x = masks[0]
            masks[0] = x | (choice >> sum((x >> w & 1) << k for k, w in places) & 1) << u
        elif tied == (1 << (1 << len(layout))) - 1:  # a tie in every state
            masks += [x | 1 << u for x in masks]
        else:
            out = []
            for x in masks:
                s = sum((x >> w & 1) << k for k, w in places)
                if tied >> s & 1:
                    out += (x, x | 1 << u)
                else:
                    out.append(x | (better >> s & 1) << u)
            masks = out
    if want_all:
        masks.sort()
    return SolveResult(kind, True, _fraction(kind, best, scale), masks[0],
                       tuple(masks) if want_all else None)


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
