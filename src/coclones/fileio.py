"""Text formats: .rel (relations), .inst (instances), .cost (cost functions).

Tuple rows print coordinate 1 leftmost; variable indices in .inst files are
1-based, matching the x1..xn naming.  '#' starts a comment anywhere.

Every integer token (`vars`, a constraint's arguments, `project`, a .rel or
.cost arity) follows the numeral rule of `relations.numeral`: ASCII digits
with no leading zero, and an optional minus sign.  Every number token (a
weight, a variable weight, a threshold, a cost row) follows
`relations.number`: Fraction's grammar, in ASCII and without '_'.  A token
that breaks its rule is a `bad integer` or `bad number` error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

from .instances import (
    ALL_KINDS,
    MAX_COST_ARITY,
    Constraint,
    CostFunction,
    Instance,
    InstanceError,
    Threshold,
)
from .relations import (
    MAX_RELATION_ARITY,
    Relation,
    RelationError,
    mask_to_string,
    number,
    numeral,
    string_to_mask,
)


def _logical_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        out.append(line)
    return out


def _parse_int(tok: str, line: str, error: type = InstanceError) -> int:
    try:
        return numeral(tok)
    except ValueError:
        raise error(f"bad integer {tok!r} in line {line!r}") from None


def _parse_fraction(tok: str, line: str) -> Fraction:
    try:
        return number(tok)
    except (ValueError, ZeroDivisionError):
        raise InstanceError(f"bad number {tok!r} in line {line!r}") from None


def _blocks(text: str, keyword: str, error: type, orphan: str
            ) -> Iterator[tuple[str, int, list[tuple[list[str], str]]]]:
    """The `keyword name arity` blocks of a .rel or .cost text, in order.

    Each is (name, arity, rows), a row being a line's tokens and the line.
    A block is yielded before the next header is read, so its faults come
    before any fault further on.  A row before the first header raises
    `error` with the `orphan` text.
    """
    block = None
    for line in _logical_lines(text):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == keyword:
            if block is not None:
                yield block
            if len(parts) != 3:
                raise error(f"bad {keyword} header: {line!r}")
            block = (parts[1], _parse_int(parts[2], line, error), [])
        elif block is None:
            raise error(f"{orphan}: {line!r}")
        else:
            block[2].append((parts, line))
    if block is not None:
        yield block


def parse_rel(text: str) -> list[Relation]:
    relations = []
    for name, arity, rows in _blocks(text, "relation", RelationError,
                                     "tuple row before any relation header"):
        masks = []
        for parts, line in rows:
            if len(parts) != 1 or len(parts[0]) != arity:
                raise RelationError(f"bad tuple row {line!r} for arity {arity}")
            masks.append(string_to_mask(parts[0]))
        relations.append(Relation.from_masks(arity, masks, name, allow_empty=True))
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


# A constraint argument's token and its 0-based index, for every index an
# instance may use: the canonical spellings, read without a regex per token.
# Any other token goes through numeral, which names it or gives its integer.
_ARG_INDEX = {str(v + 1): v for v in range(MAX_RELATION_ARITY)}


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
                args = tuple([_ARG_INDEX[t] for t in rest])
            except KeyError:
                args = tuple(_parse_int(t, line) - 1 for t in rest)
                if args and min(args) < 0:
                    raise InstanceError(f"variable indices are 1-based: {line!r}") from None
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
        lines.append("varweights " + " ".join(map(str, inst.var_weights)))
    for c in inst.constraints:
        parts = ["c", c.ref] + [str(a + 1) for a in c.args]
        if c.weight is not None:
            parts += ["w", str(c.weight)]
        lines.append(" ".join(parts))
    if inst.threshold is not None:
        lines.append(f"threshold {inst.threshold.direction} {inst.threshold.value}")
    if inst.projection is not None:
        lines.append("project " + " ".join(str(v + 1) for v in inst.projection))
    return "\n".join(lines) + "\n"


def parse_cost(text: str) -> list[CostFunction]:
    fns = []
    for name, arity, rows in _blocks(text, "costfn", InstanceError, "bad cost row"):
        if not 1 <= arity <= MAX_COST_ARITY:
            raise InstanceError(f"cost function arity {arity} out of range 1..{MAX_COST_ARITY}")
        table: dict[int, Fraction] = {}
        for parts, line in rows:
            if len(parts) != 2:
                raise InstanceError(f"bad cost row: {line!r}")
            mask = string_to_mask(parts[0])
            if len(parts[0]) != arity:
                raise InstanceError(f"cost row arity mismatch: {line!r}")
            if mask in table:
                raise InstanceError(f"duplicate cost row: {line!r}")
            table[mask] = _parse_fraction(parts[1], line)
        if len(table) != 1 << arity:
            raise InstanceError(f"cost function {name} is missing rows")
        fns.append(CostFunction(arity, tuple(table[m] for m in range(1 << arity)), name))
    return fns


def emit_cost(fns: list[CostFunction]) -> str:
    blocks = []
    for fn in fns:
        if fn.name is None:
            raise InstanceError("cannot emit an unnamed cost function")
        lines = [f"costfn {fn.name} {fn.arity}"]
        for m in range(1 << fn.arity):
            lines.append(f"{mask_to_string(m, fn.arity)} {fn.table[m]}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
