"""Multimorphisms of finite-valued cost functions, the VCSP dichotomy, and
synthesis of f_neq.

The cost-function type itself (`CostFunction`, `f_neq`, `indicator_cost`)
is data and lives in `instances`; this module is the theory applied to it,
which no data-layer module imports at its top.

All arithmetic is exact (fractions.Fraction); no tolerances exist here.
Argmin and witness selections scan bitmasks in ascending order so traces
are deterministic and replayable.  `classify_vcsp` and `express_neq` take
their answer and their witnesses from the same (0), (1) and (min,max)
violation scans, each run at most once and stopped at the first admitted
multimorphism; the scans of the last set are kept, so classifying a set
and then expressing f_neq from it scans once.  A scan applies each operation
to whole argument masks through `BooleanOperation.image`, the decision-diagram
walk that also applies the closure operations of `relations`.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .instances import CostFunction
from .relations import (
    BooleanOperation,
    Record,
    RelationError,
    OP_AND,
    OP_CONST0,
    OP_CONST1,
    OP_OR,
    _setfield,
)


class SynthesisError(RuntimeError):
    """The classifier promised witnesses that could not be found."""


# ---------------------------------------------------------------------------
# Multimorphisms


def unary_violation(delta: Sequence[CostFunction], p: BooleanOperation):
    """First (fn, x) with fn(p(x)) > fn(x), or None if the multimorphism holds."""
    for fn in delta:
        full = (1 << fn.arity) - 1
        for x in range(full + 1):
            if fn(p.image((x,), full)) > fn(x):
                return fn, x
    return None


def binary_violation(delta: Sequence[CostFunction], f: BooleanOperation, g: BooleanOperation):
    """First (fn, x, y) with fn(f(x,y)) + fn(g(x,y)) > fn(x) + fn(y), or None."""
    for fn in delta:
        full = (1 << fn.arity) - 1
        for x in range(full + 1):
            for y in range(full + 1):
                if fn(f.image((x, y), full)) + fn(g.image((x, y), full)) > fn(x) + fn(y):
                    return fn, x, y
    return None


class VcspClassification(Record):
    __slots__ = _fields = ("result", "admitted", "witnesses")

    def __init__(self, result: str, admitted: Optional[str], witnesses: Optional[dict]) -> None:
        _setfield(self, "result", result)  # "P" or "NP-hard"
        _setfield(self, "admitted", admitted)  # "(0)", "(1)" or "(min,max)" when P
        # violation witnesses per multimorphism when NP-hard
        _setfield(self, "witnesses", witnesses)

    @property
    def is_polynomial(self) -> bool:
        return self.result == "P"


# every caller of express_neq classifies the same set first, so the last
# set's scans are kept: each such pair of calls scans once
@functools.lru_cache(maxsize=1)
def _violations(delta: tuple[CostFunction, ...]):
    """("(0)" / "(1)" / "(min,max)", None) for the first multimorphism admitted,
    else (None, (zero, one, minmax)) with the three violations.

    Each scan runs at most once, in that order.
    """
    if not delta:
        raise RelationError("classify_vcsp requires a nonempty set of cost functions")
    w0 = unary_violation(delta, OP_CONST0)
    if w0 is None:
        return "(0)", None
    w1 = unary_violation(delta, OP_CONST1)
    if w1 is None:
        return "(1)", None
    wm = binary_violation(delta, OP_AND, OP_OR)
    if wm is None:
        return "(min,max)", None
    return None, (w0, w1, wm)


def classify_vcsp(delta: Sequence[CostFunction]) -> VcspClassification:
    """Tractable iff the set admits (0), (1) or (min,max)."""
    admitted, violations = _violations(tuple(delta))
    if violations is None:
        return VcspClassification("P", admitted, None)
    w0, w1, wm = violations
    return VcspClassification("NP-hard", None, {
        "zero": (w0[0].name, w0[1]),
        "one": (w1[0].name, w1[1]),
        "minmax": (wm[0].name, wm[1], wm[2]),
    })


# ---------------------------------------------------------------------------
# Synthesis of f_neq from any NP-hard set (constructive tractability boundary)


class Term(Record):
    __slots__ = _fields = ("weight", "fn_index", "slots")

    def __init__(self, weight: Fraction, fn_index: int, slots: tuple[str, ...]) -> None:
        _setfield(self, "weight", weight)
        _setfield(self, "fn_index", fn_index)
        _setfield(self, "slots", slots)  # over {"x", "y", "v0", "v1"}


class NeqExpression(Record):
    """f_neq(x,y) realized as alpha1 * (sum of terms) + alpha2.

    The forcing terms (listed outermost first, with strictly dominating
    weights) pin v0 = 0 and v1 = 1 under minimization; when the expression
    never mentions the constants the forcing is marked vestigial.
    """

    __slots__ = _fields = ("fns", "terms", "forcing", "alpha1", "alpha2", "vestigial_forcing",
                           "trace")

    def __init__(self, fns: tuple[CostFunction, ...], terms: tuple[Term, ...],
                 forcing: tuple[Term, ...], alpha1: Fraction, alpha2: Fraction,
                 vestigial_forcing: bool, trace: tuple[str, ...]) -> None:
        _setfield(self, "fns", fns)
        _setfield(self, "terms", terms)
        _setfield(self, "forcing", forcing)
        _setfield(self, "alpha1", alpha1)
        _setfield(self, "alpha2", alpha2)
        _setfield(self, "vestigial_forcing", vestigial_forcing)
        _setfield(self, "trace", trace)

    def value(self, x: int, y: int, v0: int, v1: int) -> Fraction:
        env = {"x": x, "y": y, "v0": v0, "v1": v1}
        return self.alpha1 * _terms_value(self.fns, self.terms, env) + self.alpha2

    def forcing_value(self, v0: int, v1: int) -> Fraction:
        return _terms_value(self.fns, self.forcing, {"x": 0, "y": 0, "v0": v0, "v1": v1})


def _terms_value(fns: Sequence[CostFunction], terms: Iterable[Term], env: dict[str, int]) -> Fraction:
    """Weighted sum of the terms, each slot read from env."""
    total = Fraction(0)
    for t in terms:
        mask = 0
        for j, slot in enumerate(t.slots):
            if env[slot]:
                mask |= 1 << j
        total += t.weight * fns[t.fn_index](mask)
    return total


def express_neq(delta: Sequence[CostFunction]) -> NeqExpression:
    """Build f_neq from any NP-hard set of cost functions.

    Follows the hardness witnesses: the failing (0)- and (1)-multimorphisms
    give a binary bundle o with unique-minimum structure used to pin two
    constants, and the failing (min,max)-multimorphism gives the binary
    bundle that an affine normalization turns into f_neq exactly.
    """
    delta = list(delta)
    _, violations = _violations(tuple(delta))
    if violations is None:
        raise SynthesisError("express_neq requires an NP-hard set")
    trace: list[str] = []

    # a scan stops at the first violating function, which is also the first
    # function equal to it, so index() gives its position in delta
    (g, u), (h, v), (fn, s, t) = violations
    gi, hi = delta.index(g), delta.index(h)
    a, b = g.arity, h.arity
    trace.append(f"g={g.name or gi} with g(all-0)>g({u:0{a}b}); "
                 f"h={h.name or hi} with h(all-1)>h({v:0{b}b})")

    # w = argmin over the concatenated arguments (separable, but scanned
    # jointly in ascending mask order for a deterministic trace)
    best, w = None, 0
    for m in range(1 << (a + b)):
        val = g(m & ((1 << a) - 1)) + h(m >> a)
        if best is None or val < best:
            best, w = val, m
    o_slots_g = tuple("y" if (w >> i) & 1 else "x" for i in range(a))
    o_slots_h = tuple("y" if (w >> (a + i)) & 1 else "x" for i in range(b))
    o_terms = (Term(Fraction(1), gi, o_slots_g), Term(Fraction(1), hi, o_slots_h))

    o00, o01, o10, o11 = (_terms_value(delta, o_terms, {"x": x, "y": y})
                          for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)))
    trace.append(f"o(0,0)={o00} o(0,1)={o01} o(1,0)={o10} o(1,1)={o11}")

    def substitute(terms: Iterable[Term], mapping: dict[str, str],
                   scale: Fraction = Fraction(1)) -> list[Term]:
        return [Term(t.weight * scale, t.fn_index,
                     tuple(mapping.get(s, s) for s in t.slots)) for t in terms]

    forcing: list[Term] = []
    vestigial = False

    def layered_forcing(layers: list[list[Term]], base_terms: list[Term]) -> list[Term]:
        # innermost layer first in `layers`.  Each layer's weight is scaled so
        # that its *smallest value gap* strictly dominates the total spread of
        # everything below it; a flat 1 + sum would fail for rational gaps < 1.
        out: list[Term] = []
        floor = sum((t.weight * delta[t.fn_index].max_value for t in base_terms), Fraction(0))
        for layer in layers:
            vals = [_terms_value(delta, layer, {"v0": v0, "v1": v1})
                    for v0, v1 in ((0, 0), (0, 1), (1, 0), (1, 1))]
            gaps = [abs(x - y) for x in vals for y in vals if x != y]
            if not gaps:
                raise SynthesisError("forcing layer cannot distinguish the constants")
            m = (floor + 1) / min(gaps)
            scaled = [Term(t.weight * m, t.fn_index, t.slots) for t in layer]
            floor += sum((t.weight * delta[t.fn_index].max_value for t in scaled), Fraction(0))
            out = scaled + out  # outermost (dominating) first
        return out

    if o00 == o11 and o01 == o10:
        # f_neq is an affine image of o itself; constants are never used
        alpha1 = Fraction(1) / (o00 - o01)
        alpha2 = -o01 * alpha1
        terms = list(o_terms)
        forcing = layered_forcing([substitute(o_terms, {"x": "v0", "y": "v1"})], terms)
        vestigial = True
        trace.append("o(0,0)=o(1,1), o(0,1)=o(1,0): f_neq = a1*o + a2, forcing vestigial")
        return NeqExpression(tuple(delta), tuple(terms), tuple(forcing),
                             alpha1, alpha2, vestigial, tuple(trace))

    # pin v0 = 0 and v1 = 1
    pin_layers: list[list[Term]]
    if o00 != o11:
        if o00 < o11:
            gprime = [Term(Fraction(1), gi,
                           tuple("v1" if (u >> i) & 1 else "v0" for i in range(a)))]
            pin_layers = [gprime, substitute(o_terms, {"x": "v0", "y": "v0"})]
            trace.append("o(0,0)<o(1,1): force v0 by o(v0,v0), then v1 by g'(v1)")
        else:
            hprime = [Term(Fraction(1), hi,
                           tuple("v1" if (v >> i) & 1 else "v0" for i in range(b)))]
            pin_layers = [hprime, substitute(o_terms, {"x": "v1", "y": "v1"})]
            trace.append("o(1,1)<o(0,0): force v1 by o(v1,v1), then v0 by h'(v0)")
    elif o01 < o10:
        pin_layers = [substitute(o_terms, {"x": "v0", "y": "v1"})]
        trace.append("o(0,0)=o(1,1), o(0,1)<o(1,0): force (v0,v1) by o(v0,v1)")
    else:
        pin_layers = [substitute(o_terms, {"x": "v1", "y": "v0"})]
        trace.append("o(0,0)=o(1,1), o(1,0)<o(0,1): force (v0,v1) by o(v1,v0)")

    # the failing (min,max)-multimorphism supplies the binary bundle
    fi = delta.index(fn)
    k = fn.arity
    slots = []
    for i in range(k):
        si, ti = (s >> i) & 1, (t >> i) & 1
        if si & ti:
            slots.append("v1")
        elif not (si | ti):
            slots.append("v0")
        elif si > ti:
            slots.append("x")
        else:
            slots.append("y")
    g2 = Term(Fraction(1), fi, tuple(slots))
    g2_swap = Term(Fraction(1), fi, tuple({"x": "y", "y": "x"}.get(s_, s_) for s_ in slots))
    h2 = [g2, g2_swap]

    h2_00, h2_01, h2_11 = (_terms_value(delta, h2, {"x": x, "y": y, "v0": 0, "v1": 1})
                           for x, y in ((0, 0), (0, 1), (1, 1)))
    trace.append(f"h(0,0)={h2_00} h(0,1)={h2_01} h(1,1)={h2_11}")

    if h2_00 == h2_11:
        terms = h2
        alpha1 = Fraction(1) / (h2_00 - h2_01)
        alpha2 = -h2_01 * alpha1
        trace.append("h(0,0)=h(1,1): f_neq = a1*h + a2")
    else:
        lam = Fraction(2) / abs(h2_11 - h2_00)
        h3 = [Term(tm.weight * lam, tm.fn_index, tm.slots) for tm in h2]
        h3_00, h3_01, h3_11 = h2_00 * lam, h2_01 * lam, h2_11 * lam
        if h2_11 > h2_00:
            # decreasing normalizer: f1(x) = a*o(v0,x)+c with f1(0)=1, f1(1)=0
            alpha = Fraction(1) / (o00 - o01)
            const = -o01 * alpha
            f1x = substitute(o_terms, {"x": "v0", "y": "x"}, alpha)
            f1y = substitute(o_terms, {"x": "v0", "y": "y"}, alpha)
            trace.append("h(1,1)-h(0,0) scaled to 2; h' = f1(x)+f1(y)+h with f1 decreasing")
        else:
            # increasing normalizer: f1(x) = a*o(x,v1)+c with f1(0)=0, f1(1)=1
            alpha = Fraction(1) / (o11 - o01)
            const = -o01 * alpha
            f1x = substitute(o_terms, {"y": "v1", "x": "x"}, alpha)
            f1y = substitute(o_terms, {"y": "v1", "x": "y"}, alpha)
            trace.append("h(0,0)-h(1,1) scaled to 2; h' = f1(x)+f1(y)+h with f1 increasing")
        terms = f1x + f1y + h3
        # the two normalizer constants are folded into alpha2:
        # value = a1 * (sum of terms) + a2 with sum(terms) = h'(x,y) - 2*const
        hp_00, hp_01 = (_terms_value(delta, terms, {"x": 0, "y": y, "v0": 0, "v1": 1}) + 2 * const
                        for y in (0, 1))
        alpha1 = Fraction(1) / (hp_00 - hp_01)
        alpha2 = -hp_01 * alpha1 + alpha1 * 2 * const

    forcing = layered_forcing(pin_layers, terms)
    return NeqExpression(tuple(delta), tuple(terms), tuple(forcing),
                         alpha1, alpha2, vestigial, tuple(trace))


def verify_neq_expression(expr: NeqExpression, delta: Optional[Sequence[CostFunction]] = None) -> bool:
    """Exhaustive check of the synthesis contract.

    Enumerates (v0, v1) under the forcing terms' induced minimization, then
    demands alpha1 * value + alpha2 to equal f_neq on all four (x, y) for
    every minimizing constant pair.
    """
    if delta is not None and tuple(delta) != expr.fns:
        return False
    if expr.alpha1 < 0 or any(t.weight < 0 for t in expr.terms):
        return False
    target = {(0, 0): Fraction(1), (0, 1): Fraction(0),
              (1, 0): Fraction(0), (1, 1): Fraction(1)}
    if expr.forcing:
        vals = {(v0, v1): expr.forcing_value(v0, v1) for v0 in (0, 1) for v1 in (0, 1)}
        best = min(vals.values())
        minimizers = [pair for pair, val in vals.items() if val == best]
    else:
        minimizers = [(0, 1)]
    for v0, v1 in minimizers:
        for (x, y), want in target.items():
            if expr.value(x, y, v0, v1) != want:
                return False
    return True
