import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from coclones.postlattice import (
    CHAIN_FAMILIES,
    NON_CHAIN_FAMILIES,
    CatalogError,
    CloneId,
    CoCloneId,
    catalog,
    clone_base,
    clone_leq,
    clone_leq_by_representative,
    co_clone_leq,
    co_clone_of,
    op_in_clone,
    parse_coclone_name,
    _h_preserves_rel,
)
from coclones.relations import (
    BooleanOperation,
    ConstraintLanguage,
    EmptyRelationError,
    Relation,
    preserves_symmetric,
    rel_eq,
    rel_neq,
    rel_even,
    rel_one_in_three,
    rel_or,
)
from coclones.weakbases import weak_base


def test_clone_base_spec_examples():
    d2 = clone_base(CloneId("D2"))
    assert len(d2) == 1 and d2[0].name == "h2"
    assert d2[0](1, 1, 0) == 1 and d2[0](1, 0, 0) == 0  # majority
    l2 = clone_base(CloneId("L2"))
    assert [op.name for op in l2] == ["xor3"]
    i2 = clone_base(CloneId("I2"))
    assert [op.name for op in i2] == ["id"]


def test_identity_examples():
    assert co_clone_of(ConstraintLanguage([rel_eq()])).display() == "IBF"
    assert co_clone_of(ConstraintLanguage([rel_neq()])).display() == "ID"
    il2 = weak_base(CoCloneId("L2"))
    assert co_clone_of(ConstraintLanguage([il2])) == CoCloneId("L2")
    assert co_clone_of(ConstraintLanguage([rel_one_in_three()])).display() == "II2"


def test_identity_rejects_empty():
    lang = ConstraintLanguage([Relation.from_masks(2, [], name="E", allow_empty=True)])
    with pytest.raises(EmptyRelationError):
        co_clone_of(lang)


def test_co_clone_leq_examples():
    assert co_clone_leq(CoCloneId("S1", 2), CoCloneId("I2"))  # IS^2_1 <= II2
    # clone-side L2 = L n R2 is inside L0 = L n R0, so the co-clones satisfy
    # IL0 <= IL2 (set inclusion; xor fails to preserve the IL2 weak base)
    assert co_clone_leq(CoCloneId("L0"), CoCloneId("L2"))
    assert not co_clone_leq(CoCloneId("L2"), CoCloneId("L0"))
    for c in (CoCloneId("N2"), CoCloneId("S1", 3), CoCloneId("BF")):
        assert co_clone_leq(c, c)


def test_chain_order_within_family():
    # co-clones grow along each chain and are bounded by the limit
    for fam in CHAIN_FAMILIES:
        assert co_clone_leq(CoCloneId(fam, 2), CoCloneId(fam, 3))
        assert not co_clone_leq(CoCloneId(fam, 3), CoCloneId(fam, 2))
        assert co_clone_leq(CoCloneId(fam, 3), CoCloneId(fam, None))
        assert not co_clone_leq(CoCloneId(fam, None), CoCloneId(fam, 3))


def _definition_containments():
    # clone containments read off the definition column (C = A n B entries)
    pairs = [
        ("R0", "BF"), ("R1", "BF"), ("R2", "R0"), ("R2", "R1"),
        ("M", "BF"), ("M0", "M"), ("M0", "R0"), ("M1", "M"), ("M1", "R1"),
        ("M2", "M0"), ("M2", "M1"),
        ("D", "BF"), ("D1", "D"), ("D1", "R2"), ("D2", "D"), ("D2", "M"),
        ("L", "BF"), ("L0", "L"), ("L0", "R0"), ("L1", "L"), ("L1", "R1"),
        ("L2", "L0"), ("L2", "L1"), ("L3", "L"), ("L3", "D"),
        ("V", "M"), ("V0", "V"), ("V1", "V"), ("V2", "V0"), ("V2", "V1"),
        ("E", "M"), ("E0", "E"), ("E1", "E"), ("E2", "E0"), ("E2", "E1"),
        ("N", "BF"), ("N2", "N"), ("N2", "D"),
        ("I", "N"), ("I0", "I"), ("I1", "I"), ("I2", "I0"), ("I2", "I1"),
    ]
    return [(CloneId(a), CloneId(b)) for a, b in pairs]


def test_lattice_order_matches_definitions():
    for small, big in _definition_containments():
        assert clone_leq(small, big), f"{small.display()} <= {big.display()}"


def test_chain_suffix_containments():
    # S^n_00 <= S^n_02 <= S^n_0 and S^n_00 <= S^n_01; mirrored on the 1-side
    for n in (2, 3):
        assert clone_leq(CloneId("S00", n), CloneId("S02", n))
        assert clone_leq(CloneId("S00", n), CloneId("S01", n))
        assert clone_leq(CloneId("S02", n), CloneId("S0", n))
        assert clone_leq(CloneId("S10", n), CloneId("S12", n))
        assert clone_leq(CloneId("S10", n), CloneId("S11", n))
        assert clone_leq(CloneId("S12", n), CloneId("S1", n))
        # sides never mix
        assert not clone_leq(CloneId("S1", n), CloneId("S0", n))
        assert not clone_leq(CloneId("S0", n), CloneId("S1", n))


def test_order_is_partial_order_over_catalog():
    cat = catalog(3)
    for a in cat:
        assert clone_leq(a, a)
    for a in cat:
        for b in cat:
            if a != b and clone_leq(a, b) and clone_leq(b, a):
                pytest.fail(f"antisymmetry violated: {a.display()} ~ {b.display()}")
    import itertools
    import random
    rng = random.Random(7)
    triples = [tuple(rng.sample(cat, 3)) for _ in range(400)]
    for a, b, c in triples:
        if clone_leq(a, b) and clone_leq(b, c):
            assert clone_leq(a, c)


def test_semantic_order_agrees_with_representative_order():
    # independent cross-check of the order on all pairs with finite bases
    cat = [c for c in catalog(3) if not c.is_limit]
    for a in cat:
        for b in cat:
            assert clone_leq(a, b) == clone_leq_by_representative(a, b), (
                a.display(), b.display())


def test_i2_is_bottom_and_bf_is_top():
    for c in catalog(3):
        assert clone_leq(CloneId("I2"), c)
        assert clone_leq(c, CloneId("BF"))


def test_h_membership_analytic_matches_semantic():
    from coclones.postlattice import _h_in_clone
    from coclones.relations import h_operation, dual_h_operation
    for m in (2, 3, 4, 5):
        h, dh = h_operation(m), dual_h_operation(m)
        for c in catalog(4):
            assert _h_in_clone("h", m, c) == op_in_clone(h, c), (m, c.display())
            assert _h_in_clone("dualh", m, c) == op_in_clone(dh, c), (m, c.display())


def test_parse_coclone_names():
    assert parse_coclone_name("IN2") == CoCloneId("N2")
    assert parse_coclone_name("IBF") == CoCloneId("BF")
    assert parse_coclone_name("IS^2_1") == CoCloneId("S1", 2)
    assert parse_coclone_name("IS1_2") == CoCloneId("S1", 2)
    assert parse_coclone_name("IS1", 3) == CoCloneId("S1", 3)
    assert parse_coclone_name("IS_1") == CoCloneId("S1", None)
    assert parse_coclone_name("II2") == CoCloneId("I2")


def test_identification_invariant_under_all_permutations():
    import itertools
    perms = list(itertools.permutations(range(3)))
    for mask_set in range(1, 256):
        masks = [t for t in range(8) if (mask_set >> t) & 1]
        rel = Relation.from_masks(3, masks)
        base = co_clone_of(ConstraintLanguage([rel]))
        for p in perms:
            assert co_clone_of(ConstraintLanguage([rel.permuted(p)])) == base


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 255), st.integers(1, 255))
def test_co_clone_of_pair_language_is_above_members(a, b):
    ra = Relation.from_masks(3, [t for t in range(8) if (a >> t) & 1], name="A")
    rb = Relation.from_masks(3, [t for t in range(8) if (b >> t) & 1], name="B")
    joint = co_clone_of(ConstraintLanguage([ra, rb]))
    assert co_clone_leq(co_clone_of(ConstraintLanguage([ra])), joint)
    assert co_clone_leq(co_clone_of(ConstraintLanguage([rb])), joint)


def _h_reference(kind: str, n: int, rel: Relation) -> bool:
    """Multiset enumeration over the count table of h_n or dual(h_n)."""
    # h_n is 1 iff at least n of its n+1 arguments are 1; dual(h_n) iff at least 2
    least = n if kind == "h" else 2
    table = [1 if c >= least else 0 for c in range(n + 2)]
    return preserves_symmetric(table, n + 1, rel)


def test_h_check_matches_multisets_on_every_small_relation():
    outcomes = set()
    for arity in (1, 2, 3):
        for mask_set in range(1 << (1 << arity)):
            rel = Relation.from_masks(arity, [t for t in range(1 << arity) if (mask_set >> t) & 1],
                                      allow_empty=True)
            for n in range(2, arity + 3):
                for kind in ("h", "dualh"):
                    want = _h_reference(kind, n, rel)
                    assert _h_preserves_rel(kind, n, rel) == want, (kind, n, rel.row_strings())
                    outcomes.add(want)
    assert outcomes == {True, False}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_h_check_matches_multisets_on_4_and_5_ary(data):
    arity = data.draw(st.sampled_from([4, 5]))
    masks = data.draw(st.sets(st.integers(0, (1 << arity) - 1), min_size=1, max_size=14))
    n = data.draw(st.integers(2, arity + 2))
    kind = data.draw(st.sampled_from(["h", "dualh"]))
    rel = Relation.from_masks(arity, masks)
    assert _h_preserves_rel(kind, n, rel) == _h_reference(kind, n, rel)
