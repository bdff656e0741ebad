"""Exact ground-truth solvers for every problem kind.

Assignments are bitmasks (variable i in bit i); objectives are computed in
integers after clearing denominators, so optima are exact.

`solve` decides the hard-constraint kinds (SAT, U-/W-Max-Ones, Min-Ones) by a
frontier search in variable order (Dechter, *Constraint Processing*, ch. 5):
the partial assignments over variables 0..v that satisfy every constraint
lying within them are kept in one sorted array, extended by variable v+1,
and filtered again.  The soft kinds (VCSP, Max-CSP, Max-Cut) have no
constraint to prune by and go to `solve_bruteforce`, which enumerates every
assignment in numpy chunks.  `solve_bruteforce` is also the reference the
frontier path is tested against, and it takes over any instance whose
frontier would outgrow one chunk, so `solve` never holds more rows than the
brute-force path does.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

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
    Resolver,
    Threshold,
    default_resolver,
    validate_instance,
)

MAX_SOLVE_VARS = 24
MAX_ENUMERATE_VARS = 20
_CHUNK_BITS = 20
_INT_LIMIT = 1 << 60

# kinds whose constraints are all hard, so a partial assignment can be pruned
_FRONTIER_KINDS = (KIND_SAT, KIND_UMO, KIND_WMO, KIND_MINO)


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveResult:
    kind: str
    satisfiable: bool
    optimum: Optional[Fraction]  # None for SAT or unsatisfiable instances
    witness: Optional[int]  # lexicographically least optimal assignment mask
    optimal_set: Optional[tuple[int, ...]] = None

    def witness_bits(self, n: int) -> Optional[tuple[int, ...]]:
        if self.witness is None:
            return None
        return tuple((self.witness >> i) & 1 for i in range(n))


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def _constraint_weight(c) -> Fraction:
    return c.weight if c.weight is not None else Fraction(1)


def _admit(inst: Instance, resolver: Resolver, want_all: bool) -> None:
    validate_instance(inst, resolver)
    n = inst.num_vars
    cap = MAX_ENUMERATE_VARS if want_all else MAX_SOLVE_VARS
    if n > cap:
        raise OracleError(f"instance has {n} variables, oracle cap is {cap}")


def _tables(inst: Instance, resolver: Resolver):
    """(scale, relation LUTs, VCSP cost tables, variable weights), all integer."""
    kind = inst.kind
    # one integer scale clears every denominator that can reach the objective
    scale = 1
    if kind in (KIND_UMO, KIND_WMO, KIND_MINO):
        for w in inst.weights_or_default():
            scale = _lcm(scale, w.denominator)
    for c in inst.constraints:
        w = _constraint_weight(c)
        if kind == KIND_VCSP:
            for v in resolver.costfn(c.ref).table:
                scale = _lcm(scale, (w * v).denominator)
        else:
            scale = _lcm(scale, w.denominator)

    luts: dict[str, np.ndarray] = {}
    fused_cost: list[np.ndarray] = []
    if kind == KIND_VCSP:
        for c in inst.constraints:
            fn = resolver.costfn(c.ref)
            w = _constraint_weight(c)
            fused_cost.append(np.array(
                [int(w * v * scale) for v in fn.table], dtype=np.int64))
    elif kind != KIND_MAXCUT:
        for c in inst.constraints:
            if c.ref not in luts:
                rel = resolver.relation(c.ref)
                lut = np.zeros(1 << rel.arity, dtype=bool)
                lut[list(rel.tuples)] = True
                luts[c.ref] = lut

    wints = [int(w * scale) for w in inst.weights_or_default()] \
        if kind in (KIND_UMO, KIND_WMO, KIND_MINO) else []

    bound = sum(abs(w) for w in wints)
    for i, c in enumerate(inst.constraints):
        if kind == KIND_VCSP:
            bound += int(fused_cost[i].max(initial=0))
        else:
            bound += abs(int(_constraint_weight(c) * scale))
    if bound >= _INT_LIMIT:
        raise OracleError("objective magnitude exceeds the exact int64 budget")
    return scale, luts, fused_cost, wints


def _tuple_index(idx: np.ndarray, args: tuple[int, ...]) -> np.ndarray:
    t = np.zeros_like(idx)
    for j, v in enumerate(args):
        t |= ((idx >> v) & 1) << j
    return t


def solve(inst: Instance, resolver: Optional[Resolver] = None,
          want_all: bool = False, jobs: int = 1) -> SolveResult:
    """Exact optimum (or satisfiability); equal to `solve_bruteforce` on every field.

    `jobs` is the thread count of the brute-force path; the frontier path
    runs in one thread.
    """
    resolver = resolver or default_resolver()
    if inst.kind in _FRONTIER_KINDS:
        _admit(inst, resolver, want_all)
        res = _solve_frontier(inst, resolver, want_all)
        if res is not None:
            return res
    return solve_bruteforce(inst, resolver, want_all, jobs)


def _solve_frontier(inst: Instance, resolver: Resolver,
                    want_all: bool) -> Optional[SolveResult]:
    """Frontier search for a hard-constraint kind; None once it outgrows a chunk."""
    kind = inst.kind
    scale, luts, _, wints = _tables(inst, resolver)
    by_top: dict[int, list] = {}  # highest argument -> constraints checked there
    for c in inst.constraints:
        by_top.setdefault(max(c.args, default=-1), []).append(c)

    # Doubling by the next variable's bit keeps the masks ascending, so the
    # least optimal mask is the first survivor and optimal_set comes out sorted.
    frontier = np.zeros(1, dtype=np.int64)
    for v in range(-1, inst.num_vars):
        if v >= 0:
            frontier = np.concatenate((frontier, frontier | (1 << v)))
            if frontier.size > 1 << _CHUNK_BITS:
                return None
        for c in by_top.get(v, ()):
            frontier = frontier[luts[c.ref][_tuple_index(frontier, c.args)]]

    if not frontier.size:
        return SolveResult(kind, False, None, None, () if want_all else None)
    obj = np.zeros(frontier.shape, dtype=np.int64)
    for i, w in enumerate(wints):
        if w:
            obj += w * ((frontier >> i) & 1)
    best = int(obj.max() if kind in MAXIMIZING_KINDS else obj.min())
    where = frontier[obj == best]
    optimal = tuple(where.tolist()) if want_all else None
    opt_fraction = None if kind == KIND_SAT else Fraction(best, scale)
    return SolveResult(kind, True, opt_fraction, int(where[0]), optimal)


def solve_bruteforce(inst: Instance, resolver: Optional[Resolver] = None,
                     want_all: bool = False, jobs: int = 1) -> SolveResult:
    """Exact optimum (or satisfiability) by enumeration of all assignments."""
    resolver = resolver or default_resolver()
    _admit(inst, resolver, want_all)
    n = inst.num_vars
    kind = inst.kind
    maximize = kind in MAXIMIZING_KINDS
    scale, luts, fused_cost, wints = _tables(inst, resolver)

    def eval_chunk(lo: int, hi: int):
        idx = np.arange(lo, hi, dtype=np.int64)
        feasible = np.ones(idx.shape, dtype=bool)
        if kind in (KIND_SAT, KIND_UMO, KIND_WMO, KIND_MINO):
            for c in inst.constraints:
                feasible &= luts[c.ref][_tuple_index(idx, c.args)]
        obj = np.zeros(idx.shape, dtype=np.int64)
        if kind in (KIND_UMO, KIND_WMO, KIND_MINO):
            for i, w in enumerate(wints):
                if w:
                    obj += w * ((idx >> i) & 1)
        elif kind == KIND_VCSP:
            for i, c in enumerate(inst.constraints):
                obj += fused_cost[i][_tuple_index(idx, c.args)]
        elif kind == KIND_MAXCSP:
            for c in inst.constraints:
                w = int(_constraint_weight(c) * scale)
                obj += w * luts[c.ref][_tuple_index(idx, c.args)].astype(np.int64)
        elif kind == KIND_MAXCUT:
            for c in inst.constraints:
                w = int(_constraint_weight(c) * scale)
                u, v = c.args
                obj += w * (((idx >> u) ^ (idx >> v)) & 1)
        if not feasible.any():
            return None
        sub = obj[feasible]
        best = int(sub.max() if maximize else sub.min())
        where = idx[feasible & (obj == best)]
        return best, int(where[0]), (where if want_all else None)

    chunk = 1 << _CHUNK_BITS
    ranges = [(lo, min(lo + chunk, 1 << n)) for lo in range(0, 1 << n, chunk)]
    if jobs > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda r: eval_chunk(*r), ranges))
    else:
        results = [eval_chunk(*r) for r in ranges]

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
