import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from coclones import relations
from coclones.definitions import Formula, eval_formula
from coclones.instances import default_resolver
from coclones.relations import (
    BooleanOperation,
    Classification,
    ConstraintLanguage,
    EmptyRelationError,
    Relation,
    OP_AND,
    OP_CONST0,
    OP_CONST1,
    OP_MAJ,
    OP_NOT,
    OP_OR,
    OP_XOR3,
    arithmetical_operation,
    bits_to_mask,
    classify_max_ones,
    classify_sat,
    find_violation,
    mask_to_bits,
    preserves,
    rel_eq,
    rel_neq,
    rel_one_in_three,
    rel_or,
    rel_true,
)
from reference import lut


def naive_violation(f: BooleanOperation, rel: Relation):
    """Reference `find_violation` on 0/1 rows, no diagram: the first row
    sequence in product order whose image escapes rel, as masks.  Per choice
    of the leading rows, the images of every last row are read off the
    operation's table at once, each image row's mask looked up in the
    relation's bool table."""
    rows = np.array([mask_to_bits(t, rel.arity) for t in rel.tuples],
                    dtype=np.int64).reshape(-1, rel.arity)
    table, member = np.array(f.table), lut(rel)
    place = 1 << np.arange(rel.arity)
    for lead in itertools.product(range(len(rows)), repeat=f.arity - 1):
        # argument i of the operation in bit i of its table index
        code = rows << (f.arity - 1)
        for i, r in enumerate(lead):
            code = code | rows[r] << i
        imgs = table[code] @ place
        escaped = np.flatnonzero(~member[imgs])
        if escaped.size:
            last = escaped[0]
            return tuple(rel.tuples[r] for r in (*lead, last)), int(imgs[last])
    return None


def naive_preserves(f: BooleanOperation, rel: Relation) -> bool:
    return naive_violation(f, rel) is None


def test_preserves_spec_examples():
    or2 = rel_or(2)
    assert preserves(OP_OR, or2)
    assert not preserves(OP_AND, or2)
    seq, img = find_violation(OP_AND, or2)
    assert img not in or2.tuples
    assert preserves(OP_NOT, rel_neq())


def test_preserves_empty_relation_vacuous():
    empty = Relation.from_masks(2, [], allow_empty=True)
    assert empty.is_empty
    assert preserves(OP_AND, empty)


# tuples per relation by operation arity, so the naive scan stays small
MAX_TUPLES = {1: 64, 2: 64, 3: 24, 4: 8}
H3 = BooleanOperation.from_func(4, lambda *a: 1 if sum(a) >= 3 else 0, "h3")


@st.composite
def operation_and_relation(draw):
    k = draw(st.integers(1, 4), label="op_arity")
    if draw(st.booleans(), label="symmetric"):
        # a table read off the count of ones, as the h_n and their duals are
        counts = draw(st.tuples(*([st.integers(0, 1)] * (k + 1))))
        table = tuple(counts[m.bit_count()] for m in range(1 << k))
    else:
        table = draw(st.tuples(*([st.integers(0, 1)] * (1 << k))))
    if k <= 2 and draw(st.booleans(), label="wide"):
        # 200-400 random tuples of arity 9 or 200-600 of arity 10, whose
        # diagrams hold 100-250 nodes, each walked on up to 600 last tuples
        arity = draw(st.integers(9, 10), label="rel_arity")
        count = draw(st.integers(200, 400 if arity == 9 else 600), label="tuples")
        masks = random.Random(draw(st.integers(0, 2 ** 32 - 1))).sample(range(1 << arity), count)
    else:
        arity = draw(st.integers(1, 6), label="rel_arity")
        masks = draw(st.sets(st.integers(0, (1 << arity) - 1), max_size=MAX_TUPLES[k]))
    return BooleanOperation(k, table), Relation.from_masks(arity, masks, allow_empty=True)


# twice the profile's count: 200 examples, and 2000 in the deep CI step
@pytest.mark.deep
@settings(max_examples=2 * settings.default.max_examples, deadline=None)
@given(operation_and_relation())
@example((H3, Relation(3, (0b001, 0b010, 0b100))))
@example((H3, Relation(3, (0b011, 0b101, 0b110, 0b000))))
def test_preserves_matches_naive(case):
    op, rel = case
    want = naive_violation(op, rel)
    assert find_violation(op, rel) == want
    assert preserves(op, rel) == (want is None)


@pytest.mark.deep
@settings(deadline=None)
@given(st.data())
def test_image_matches_the_table(data):
    k = data.draw(st.integers(1, 4), label="op_arity")
    op = BooleanOperation(k, data.draw(st.tuples(*([st.integers(0, 1)] * (1 << k)))))
    width = data.draw(st.integers(1, 12), label="mask_width")
    masks = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=k, max_size=k))
    want = 0
    for c in range(width):
        if op.table[sum((t >> c & 1) << i for i, t in enumerate(masks))]:
            want |= 1 << c
    assert op.image(masks, (1 << width) - 1) == want


@settings(max_examples=50, deadline=None)
@given(st.tuples(*([st.integers(0, 1)] * 256)))
def test_every_operation_of_arity_8_has_a_diagram(table):
    # at most 1 + 2 + 4 + 8 + 16 + 32 + 12 + 2 = 77 nodes, under the limit
    diagram = BooleanOperation(8, table).support.diagram
    assert diagram is not None and len(diagram[1]) <= 77


def test_conjunction_closure_property():
    # preserves(f, R) and preserves(f, R') imply preserves(f, conj(R, R'))
    r1 = rel_or(2)
    r2 = rel_true()
    for op in (OP_OR, OP_CONST1):
        assert preserves(op, r1) and preserves(op, r2)
        conj = eval_formula(Formula(3, 0, (("A", (0, 1)), ("B", (2,)))), {"A": r1, "B": r2})
        assert preserves(op, conj)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_conjunction_closure_random_assignments(data):
    # the implication holds for any index assignment, including repeats
    arity1 = data.draw(st.integers(1, 3))
    arity2 = data.draw(st.integers(1, 3))
    m1 = data.draw(st.sets(st.integers(0, (1 << arity1) - 1), min_size=1))
    m2 = data.draw(st.sets(st.integers(0, (1 << arity2) - 1), min_size=1))
    r1 = Relation.from_masks(arity1, m1)
    r2 = Relation.from_masks(arity2, m2)
    k = data.draw(st.integers(1, 2))
    table = data.draw(st.tuples(*([st.integers(0, 1)] * (1 << k))))
    op = BooleanOperation(k, table)
    total = data.draw(st.integers(max(arity1, arity2), 5))
    idx1 = tuple(data.draw(st.integers(0, total - 1)) for _ in range(arity1))
    idx2 = tuple(data.draw(st.integers(0, total - 1)) for _ in range(arity2))
    if preserves(op, r1) and preserves(op, r2):
        conj = eval_formula(Formula(total, 0, (("A", idx1), ("B", idx2))), {"A": r1, "B": r2})
        assert preserves(op, conj)


def test_make_relation_specs():
    # the resolver builds the parametric names from the constructors directly
    resolver = default_resolver()
    assert set(rel_one_in_three().row_strings()) == {"001", "010", "100"}
    assert resolver.relation("R13").tuples == rel_one_in_three().tuples
    assert resolver.relation("EVEN2").tuples == rel_eq().tuples
    odd3 = resolver.relation("ODD3")
    assert odd3.name == "ODD3" and odd3.tuples == (1, 2, 4, 7)
    assert resolver.relation("NAND2").tuples == (0, 1, 2)
    assert resolver.relation("OR3").tuples == rel_or(3).tuples


def test_arithmetical_operation_forced_values():
    f = arithmetical_operation()
    assert f(1, 0, 0) == 1
    assert f(0, 0, 1) == 1
    assert f(1, 0, 1) == 1
    # self-dual and idempotent
    assert f.dual().table == f.table
    assert f(0, 0, 0) == 0 and f(1, 1, 1) == 1


def test_classify_max_ones_examples():
    assert classify_max_ones(ConstraintLanguage([rel_eq()])).result == "P"
    hard = classify_max_ones(ConstraintLanguage([rel_one_in_three()]))
    assert hard.result == "NP-hard"
    assert len(hard.witnesses) == 3  # one violation per closure test
    neq_cls = classify_max_ones(ConstraintLanguage([rel_neq()]))
    assert neq_cls.result == "P"
    assert neq_cls.closed_under == "arith"


def test_classify_sat_examples():
    assert classify_sat(ConstraintLanguage([rel_eq()])).result == "P"
    assert classify_sat(ConstraintLanguage([rel_one_in_three()])).result == "NP-hard"
    or2 = classify_sat(ConstraintLanguage([rel_or(2)]))
    assert or2.result == "P"
    # the certificate names a genuinely preserving operation (OR2 is both
    # 1-closed and max-closed; the first succeeding closure is reported)
    assert or2.closed_under in {"1", "or"}
    assert preserves(OP_OR, rel_or(2))


SAT_ORDER = (OP_CONST0, OP_CONST1, OP_AND, OP_OR, OP_XOR3, OP_MAJ)
MAX_ONES_ORDER = (OP_CONST1, OP_OR, arithmetical_operation())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_classifier_answers_and_witnesses(data):
    rels = []
    for i in range(data.draw(st.integers(1, 3), label="relations")):
        arity = data.draw(st.integers(1, 4))
        masks = data.draw(st.sets(st.integers(0, (1 << arity) - 1), min_size=1))
        rels.append(Relation.from_masks(arity, masks, name=f"R{i}"))
    lang = ConstraintLanguage(rels)
    for classify, ops in ((classify_sat, SAT_ORDER), (classify_max_ones, MAX_ONES_ORDER)):
        cls = classify(lang)
        preserving = [op.name for op in ops if all(naive_preserves(op, r) for r in rels)]
        assert cls.is_polynomial == bool(preserving)
        if preserving:
            assert cls.closed_under == preserving[0] and cls.witnesses == ()
            continue
        # one witness per operation, in order, each on the first relation it violates
        assert [w.operation for w in cls.witnesses] == [op.name for op in ops]
        for op, w in zip(ops, cls.witnesses):
            rel = lang[w.relation]
            before = lang.names()[:lang.names().index(w.relation)]
            assert all(naive_preserves(op, lang[name]) for name in before)
            assert all(rel.contains(bits_to_mask(row)) for row in w.sequence)
            image = tuple(op(*column) for column in zip(*w.sequence))
            assert image == w.image and not rel.contains(bits_to_mask(image))


def test_classifiers_reject_empty_relations():
    lang = ConstraintLanguage([Relation.from_masks(2, [], name="E", allow_empty=True)])
    with pytest.raises(EmptyRelationError):
        classify_max_ones(lang)
    with pytest.raises(EmptyRelationError):
        classify_sat(lang)


def test_relation_row_round_trip():
    # canonical order is ascending bitmask; (1,0,0) has mask 1, (0,1,1) mask 6
    r = Relation.from_masks(3, map(bits_to_mask, [(0, 1, 1), (1, 0, 0)]))
    assert r.row_strings() == ["100", "011"]


def test_relation_tuples_are_canonical_and_in_range():
    # duplicates and any order, from masks, a list or a tuple, read the same
    for rel in (Relation.from_masks(3, iter([6, 1, 6, 0])), Relation(3, [6, 1, 0, 1]),
                Relation(3, (6, 1, 0)), Relation(3, [0, 1, 6])):
        assert rel.tuples == (0, 1, 6) and type(rel.tuples) is tuple
    # the message names the first tuple out of range in ascending order
    for arity, masks, bad in ((3, [9, 8, 1], 8), (2, [1, -1, 7, -2], -2), (1, [2], 2)):
        with pytest.raises(relations.RelationError,
                           match=rf"^tuple mask {bad} out of range for arity {arity}$"):
            Relation.from_masks(arity, masks)
    with pytest.raises(EmptyRelationError, match="^empty relation requires allow_empty=True$"):
        Relation.from_masks(0, [])


def test_tuple_set_built_once_outside_equality():
    rel = Relation.from_masks(2, [1, 2], name="neq")
    assert rel.contains(1) and not rel.contains(3)
    assert rel._tuple_set is rel._tuple_set
    fresh = Relation.from_masks(2, [1, 2], name="neq")
    assert rel == fresh and hash(rel) == hash(fresh)


def walk_diagram(diagram, mask):
    """Whether `mask` is in the relation, read off the diagram root to leaf."""
    root, nodes = diagram
    node = root
    while node > 1:
        j, lo, hi = nodes[node - 2]
        node = hi if mask >> j & 1 else lo
    return node == 1


def check_diagram(rel):
    root, nodes = rel.diagram
    assert all(walk_diagram(rel.diagram, m) == (m in rel.tuples) for m in range(1 << rel.arity))
    # reduced and ordered: no redundant or repeated node, and every child
    # comes earlier and tests a lower coordinate (or is a leaf)
    assert len(set(nodes)) == len(nodes)
    for i, (j, lo, hi) in enumerate(nodes):
        assert lo != hi and lo < i + 2 and hi < i + 2
        assert all(c < 2 or nodes[c - 2][0] < j for c in (lo, hi))
    assert root == (len(nodes) + 1 if nodes else int(bool(rel.tuples)))
    # a relation and its complement have diagrams of one size
    rest = Relation(rel.arity, tuple(m for m in range(1 << rel.arity) if m not in rel.tuples))
    assert len(rest.diagram[1]) == len(nodes)


def test_diagram_of_every_relation_up_to_arity_3():
    for k in range(1, 4):
        for subset in range(1 << (1 << k)):
            check_diagram(Relation(k, tuple(m for m in range(1 << k) if subset >> m & 1)))


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 9).flatmap(lambda k: st.tuples(
    st.just(k), st.sets(st.integers(0, (1 << k) - 1)))))
def test_diagram_matches_the_tuples(drawn):
    k, tuples = drawn
    check_diagram(Relation(k, tuple(tuples)))


def test_diagram_sizes_and_limit():
    resolver = default_resolver()
    # parity has two nodes per coordinate below the top one; OR8 is one chain
    assert len(resolver.relation("EVEN8").diagram[1]) == 15
    assert len(resolver.relation("OR8").diagram[1]) == 8
    rel = resolver.relation("R_IN2")
    assert rel.diagram is rel.diagram
    # a single tuple of arity 8 takes one node per coordinate, and 00000000
    # with 11000000 takes 9
    assert len(Relation(8, (0,)).diagram[1]) == 8
    assert len(Relation(8, (0, 3)).diagram[1]) == 9
    # no limit: the tuples of arity 12 with an even count of ones in their
    # first half and an odd one in their second take one parity chain of 11
    # nodes per half, and a random relation of 2,048 tuples takes 725
    halves = Relation(12, tuple(m for m in range(1 << 12)
                                if (m & 63).bit_count() % 2 == 0 and (m >> 6).bit_count() % 2))
    assert len(halves.diagram[1]) == 22
    wide = Relation(12, tuple(random.Random(12).sample(range(1 << 12), 2048)))
    assert len(wide.diagram[1]) == 725
    check_diagram(wide)


@given(st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_mask_to_string_reads_coordinate_one_first(case):
    arity, mask = case
    assert relations.mask_to_string(mask, arity) == \
        "".join(str((mask >> i) & 1) for i in range(arity))
