import pytest

from coclones.postlattice import CHAIN_FAMILIES, CoCloneId, co_clone_of
from coclones.relations import (
    ConstraintLanguage,
    OP_NOT,
    RelationError,
    preserves,
)
from coclones.weakbases import all_entries, weak_base, weak_base_entry

II2_ROWS = {"00111001", "01010101", "10001101"}
IN2_ROWS = {"00001111", "00111100", "01011010", "11110000", "11000011", "10100101"}


def test_ii2_matrix_golden():
    assert set(weak_base(CoCloneId("I2")).row_strings()) == II2_ROWS
    assert weak_base(CoCloneId("I2")).arity == 8 and len(weak_base(CoCloneId("I2")).tuples) == 3


def test_in2_matrix_golden():
    assert set(weak_base(CoCloneId("N2")).row_strings()) == IN2_ROWS
    assert weak_base(CoCloneId("N2")).arity == 8 and len(weak_base(CoCloneId("N2")).tuples) == 6


def test_id2_golden():
    id2 = weak_base(CoCloneId("D2"))
    assert set(id2.row_strings()) == {"011001", "100101", "110001"}


def test_every_entry_identifies_to_its_coclone():
    for e in all_entries((2, 3)):
        got = co_clone_of(ConstraintLanguage([e.relation]))
        assert got == e.coclone, f"{e.coclone.display()} identified as {got.display()}"


def test_constant_columns_forced():
    # rows whose formula pins c0/c1 have constant 0/1 in those (last) positions
    checks = {
        "R2": (0, 1), "M2": (2, 3), "D1": (2, 3), "D2": (4, 5),
        "L2": (6, 7), "I2": (6, 7), "E2": (3, 4), "V2": (3, 4),
    }
    for fam, (c0_pos, c1_pos) in checks.items():
        rel = weak_base(CoCloneId(fam))
        for bits in rel.row_strings():
            assert bits[c0_pos] == "0" and bits[c1_pos] == "1"


def test_complement_closure():
    assert preserves(OP_NOT, weak_base(CoCloneId("N2")))
    assert not preserves(OP_NOT, weak_base(CoCloneId("I2")))


def test_limits_have_no_weak_base():
    with pytest.raises(RelationError):
        weak_base(CoCloneId("S1", None))


def test_chain_rows_need_index():
    r = weak_base(CoCloneId("S1"), 2)
    assert r.arity == 3 and set(r.row_strings()) == {"000", "010", "100"}


def test_formula_strings_present():
    for e in all_entries((2,)):
        assert e.formula
        assert e.relation.name and e.relation.name.startswith("R_I")



def _chain_row(family, n):
    """The chain row as its formula, its arity and a predicate on a tuple's bits."""
    def or_n(b):
        return any(b[:n])

    def nand_n(b):
        return not all(b[:n])

    def x_implies_all(b):  # b[n] -> x1...xn
        return b[n] <= min(b[:n])

    def any_implies_x(b):  # x1 | ... | xn -> b[n]
        return max(b[:n]) <= b[n]

    xs, ors = f"(x1..x{n})", f"(x1|..|x{n} -> x)"
    return {
        "S0": (f"OR{n}{xs} & T(c1)", n + 1, lambda b: or_n(b) and b[n] == 1),
        "S02": (f"OR{n}{xs} & F(c0) & T(c1)", n + 2,
                lambda b: or_n(b) and b[n] == 0 and b[n + 1] == 1),
        "S01": (f"OR{n}{xs} & (x -> x1..x{n}) & T(c1)", n + 2,
                lambda b: or_n(b) and x_implies_all(b) and b[n + 1] == 1),
        "S00": (f"OR{n}{xs} & (x -> x1..x{n}) & F(c0) & T(c1)", n + 3,
                lambda b: or_n(b) and x_implies_all(b) and b[n + 1] == 0 and b[n + 2] == 1),
        "S1": (f"NAND{n}{xs} & F(c0)", n + 1, lambda b: nand_n(b) and b[n] == 0),
        "S12": (f"NAND{n}{xs} & F(c0) & T(c1)", n + 2,
                lambda b: nand_n(b) and b[n] == 0 and b[n + 1] == 1),
        "S11": (f"NAND{n}{xs} & {ors} & F(c0)", n + 2,
                lambda b: nand_n(b) and any_implies_x(b) and b[n + 1] == 0),
        "S10": (f"NAND{n}{xs} & {ors} & F(c0) & T(c1)", n + 3,
                lambda b: nand_n(b) and any_implies_x(b) and b[n + 1] == 0 and b[n + 2] == 1),
    }[family]


@pytest.mark.parametrize("family", CHAIN_FAMILIES)
def test_chain_rows_match_their_formula(family):
    # the closed form against a scan of every mask
    for n in range(2, 9):
        formula, arity, pred = _chain_row(family, n)
        entry = weak_base_entry(CoCloneId(family, n))
        scanned = tuple(m for m in range(1 << arity)
                        if pred(tuple((m >> i) & 1 for i in range(arity))))
        assert (entry.formula, entry.relation.arity) == (formula, arity)
        assert entry.relation.tuples == scanned, (family, n)
