"""Text formats: .rel (relations), .inst (instances), .cost (cost functions).

Tuple rows print coordinate 1 leftmost; variable indices in .inst files are
1-based, matching the x1..xn naming.  '#' starts a comment anywhere.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional

from .instances import (
    ALL_KINDS,
    Constraint,
    Instance,
    InstanceError,
    Threshold,
)
from .relations import Relation, RelationError, mask_to_string, string_to_mask
from .valued import MAX_COST_ARITY, CostFunction


def _logical_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        out.append(line)
    return out


def parse_rel(text: str) -> list[Relation]:
    relations: list[Relation] = []
    header: Optional[tuple[str, int]] = None
    rows: list[int] = []

    def flush():
        nonlocal header, rows
        if header is None:
            return
        name, arity = header
        relations.append(Relation.from_masks(arity, rows, name, allow_empty=True))
        header, rows = None, []

    for line in _logical_lines(text):
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] == "relation":
            flush()
            if len(parts) != 3:
                raise RelationError(f"bad relation header: {line!r}")
            header = (parts[1], _parse_int(parts[2], line, RelationError))
        else:
            if header is None:
                raise RelationError(f"tuple row before any relation header: {line!r}")
            if len(parts) != 1 or len(parts[0]) != header[1]:
                raise RelationError(f"bad tuple row {line!r} for arity {header[1]}")
            rows.append(string_to_mask(parts[0]))
    flush()
    return relations


def emit_rel(relations: list[Relation]) -> str:
    blocks = []
    for rel in relations:
        if rel.name is None:
            raise RelationError("cannot emit an unnamed relation")
        lines = [f"relation {rel.name} {rel.arity}"]
        lines.extend(rel.row_strings())
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _parse_int(tok: str, line: str, error: type = InstanceError) -> int:
    try:
        return int(tok)
    except ValueError:
        raise error(f"bad integer {tok!r} in line {line!r}") from None


# Weights and thresholds repeat a handful of tokens ("1/2", "3", ...), so
# each token's Fraction is kept; Fraction's string parser takes about 2 us a
# token.  The 1024 entries bound the cache at about 0.2 MB however many
# distinct tokens a long run meets.  A bad token raises and is not kept.
@functools.lru_cache(maxsize=1 << 10)
def _fraction_token(tok: str) -> Fraction:
    return Fraction(tok)


def _parse_fraction(tok: str, line: str) -> Fraction:
    try:
        return _fraction_token(tok)
    except (ValueError, ZeroDivisionError):
        raise InstanceError(f"bad number {tok!r} in line {line!r}") from None


def _emit_fraction(f: Fraction) -> str:
    return str(f)


def parse_inst(text: str) -> Instance:
    kind: Optional[str] = None
    num_vars: Optional[int] = None
    var_weights = None
    threshold = None
    projection = None
    constraints: list[Constraint] = []
    for line in _logical_lines(text):
        parts = line.split()
        if not parts:
            continue
        head = parts[0]
        # constraint lines outnumber the rest, so they are tested first
        if head == "c":
            if len(parts) < 3:
                raise InstanceError(f"bad constraint line: {line!r}")
            ref = parts[1]
            rest = parts[2:]
            weight = None
            if "w" in rest:
                wi = rest.index("w")
                if wi != len(rest) - 2:
                    raise InstanceError(f"bad weight suffix: {line!r}")
                weight = _parse_fraction(rest[-1], line)
                rest = rest[:wi]
            try:
                args = tuple([int(t) - 1 for t in rest])
            except ValueError:
                # name the first bad token
                args = tuple(_parse_int(t, line) - 1 for t in rest)
            if args and min(args) < 0:
                raise InstanceError(f"variable indices are 1-based: {line!r}")
            constraints.append(Constraint(ref, args, weight))
        elif head == "problem":
            if len(parts) != 2 or parts[1] not in ALL_KINDS:
                raise InstanceError(f"bad problem line: {line!r}")
            kind = parts[1]
        elif head == "vars":
            if len(parts) != 2:
                raise InstanceError(f"bad vars line: {line!r}")
            num_vars = _parse_int(parts[1], line)
        elif head == "varweights":
            var_weights = tuple(_parse_fraction(t, line) for t in parts[1:])
        elif head == "threshold":
            if len(parts) != 3 or parts[1] not in (">=", "<="):
                raise InstanceError(f"bad threshold line: {line!r}")
            threshold = Threshold(parts[1], _parse_fraction(parts[2], line))
        elif head == "project":
            projection = tuple(_parse_int(t, line) - 1 for t in parts[1:])
        else:
            raise InstanceError(f"unknown directive {head!r} in instance file")
    if kind is None or num_vars is None:
        raise InstanceError("instance file needs 'problem' and 'vars' lines")
    return Instance(kind, num_vars, tuple(constraints), var_weights, threshold, projection)


def emit_inst(inst: Instance) -> str:
    lines = [f"problem {inst.kind}", f"vars {inst.num_vars}"]
    if inst.var_weights is not None:
        lines.append("varweights " + " ".join(_emit_fraction(w) for w in inst.var_weights))
    for c in inst.constraints:
        parts = ["c", c.ref] + [str(a + 1) for a in c.args]
        if c.weight is not None:
            parts += ["w", _emit_fraction(c.weight)]
        lines.append(" ".join(parts))
    if inst.threshold is not None:
        lines.append(f"threshold {inst.threshold.direction} {_emit_fraction(inst.threshold.value)}")
    if inst.projection is not None:
        lines.append("project " + " ".join(str(v + 1) for v in inst.projection))
    return "\n".join(lines) + "\n"


def parse_cost(text: str) -> list[CostFunction]:
    fns: list[CostFunction] = []
    header: Optional[tuple[str, int]] = None
    table: dict[int, Fraction] = {}

    def flush():
        nonlocal header, table
        if header is None:
            return
        name, arity = header
        if len(table) != 1 << arity:
            raise InstanceError(f"cost function {name} is missing rows")
        fns.append(CostFunction(arity, tuple(table[m] for m in range(1 << arity)), name))
        header, table = None, {}

    for line in _logical_lines(text):
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] == "costfn":
            flush()
            if len(parts) != 3:
                raise InstanceError(f"bad costfn header: {line!r}")
            arity = _parse_int(parts[2], line)
            if not 1 <= arity <= MAX_COST_ARITY:
                raise InstanceError(f"cost function arity {arity} out of range 1..{MAX_COST_ARITY}")
            header = (parts[1], arity)
        else:
            if header is None or len(parts) != 2:
                raise InstanceError(f"bad cost row: {line!r}")
            mask = string_to_mask(parts[0])
            if len(parts[0]) != header[1]:
                raise InstanceError(f"cost row arity mismatch: {line!r}")
            if mask in table:
                raise InstanceError(f"duplicate cost row: {line!r}")
            table[mask] = _parse_fraction(parts[1], line)
    flush()
    return fns


def emit_cost(fns: list[CostFunction]) -> str:
    blocks = []
    for fn in fns:
        if fn.name is None:
            raise InstanceError("cannot emit an unnamed cost function")
        lines = [f"costfn {fn.name} {fn.arity}"]
        for m in range(1 << fn.arity):
            lines.append(f"{mask_to_string(m, fn.arity)} {_emit_fraction(fn.table[m])}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
