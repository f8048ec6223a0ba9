from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from vermahom.errors import DomainError, ValidationError
from vermahom.rootsystem import (
    Root,
    RootSystemSpec,
    Weight,
    build_root_system,
    parse_weight,
    weyl_group_order,
)

SMALL_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA1"]


def weights_for(rank, max_denominator=3):
    return st.tuples(*(
        st.fractions(min_value=-3, max_value=3, max_denominator=max_denominator)
        for _ in range(rank)
    )).map(lambda t: Weight(t))


@pytest.mark.parametrize("name,count", [
    ("A1", 1), ("A2", 3), ("A3", 6), ("A4", 10),
    ("B2", 4), ("B3", 9), ("B4", 16),
    ("C3", 9), ("D4", 12), ("D5", 20),
    ("G2", 6), ("F4", 24), ("E6", 36), ("E7", 63),
    ("A1xA1", 2), ("A2xB2", 7),
])
def test_positive_root_counts(name, count):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == count
    assert len(rs.roots) == 2 * count


# the classical orders (Bourbaki, plates): (n+1)! for A_n, 2^n n! for B_n and
# C_n, 2^(n-1) n! for D_n, and the exceptional ones
CLASSICAL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720, "A6": 5040,
    "A7": 40320, "A8": 362880,
    "B2": 8, "B3": 48, "B4": 384, "B5": 3840, "B6": 46080, "B7": 645120,
    "B8": 10321920,
    "C3": 48, "C4": 384, "C5": 3840,
    "D4": 192, "D5": 1920, "D6": 23040, "D7": 322560, "D8": 5160960,
    "E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12,
    "A1xA1": 4, "A2xB3xG2": 3456,
}


@pytest.mark.parametrize("name,order", sorted(CLASSICAL_ORDERS.items()))
def test_weyl_group_order_from_root_heights(name, order):
    assert weyl_group_order(RootSystemSpec.parse(name)) == order


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_root_set_structure(name):
    rs = build_root_system(name)
    positives = set(rs.positive_roots)
    negatives = {-r for r in positives}
    assert positives | negatives == set(rs.roots)
    assert not positives & negatives


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_coroot_pairing_is_two_on_itself(name):
    rs = build_root_system(name)
    for root in rs.roots:
        assert rs.pairing(root, rs.root_as_weight(root)) == 2


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_reflection_closure(name):
    rs = build_root_system(name)
    root_weights = {rs.root_as_weight(r) for r in rs.roots}
    for alpha in rs.roots:
        for beta in rs.roots:
            image = rs.reflect(alpha, rs.root_as_weight(beta))
            assert image in root_weights


def test_a2_positive_roots():
    rs = build_root_system("A2")
    assert set(rs.positive_roots) == {
        Root((1, 0)), Root((0, 1)), Root((1, 1)),
    }


def test_b2_positive_roots():
    rs = build_root_system("B2")
    assert set(rs.positive_roots) == {
        Root((1, 0)), Root((0, 1)), Root((1, 1)), Root((1, 2)),
    }


def test_pairing_examples():
    rs = build_root_system("A2")
    # fundamental weight duality
    assert rs.pairing(rs.simple_roots[0], rs.weight((0, 1))) == 0
    assert rs.pairing(rs.simple_roots[0], rs.weight((1, 0))) == 1
    # highest root against the antidominant regular weight
    assert rs.pairing(rs.root((1, 1)), rs.weight((-1, -1))) == -2


def test_pairing_rejects_non_roots():
    rs = build_root_system("A2")
    with pytest.raises(DomainError):
        rs.pairing(Root((2, 0)), rs.rho)
    with pytest.raises(DomainError):
        rs.pairing(rs.simple_roots[0], Weight((F(1),)))


def test_reflect_examples():
    rs = build_root_system("A2")
    assert rs.reflect(rs.simple_roots[0], rs.weight((-1, -1))) == rs.weight((1, -2))
    # zero pairing fixes the weight
    assert rs.reflect(rs.simple_roots[0], rs.weight((0, 5))) == rs.weight((0, 5))


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@given(data=st.data())
def test_reflect_involution_and_pairing_flip(name, data):
    rs = build_root_system(name)
    mu = data.draw(weights_for(rs.rank))
    for beta in rs.positive_roots:
        image = rs.reflect(beta, mu)
        assert rs.reflect(beta, image) == mu
        assert rs.pairing(beta, image) == -rs.pairing(beta, mu)


@pytest.mark.parametrize("name", ["A2", "B2"])
@given(data=st.data())
def test_pairing_linearity(name, data):
    rs = build_root_system(name)
    mu = data.draw(weights_for(rs.rank))
    nu = data.draw(weights_for(rs.rank))
    for beta in rs.positive_roots:
        assert rs.pairing(beta, mu + nu) == rs.pairing(beta, mu) + rs.pairing(beta, nu)


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_rho_and_dominance(name):
    rs = build_root_system(name)
    assert all(c == 1 for c in rs.rho.coords)
    assert rs.is_dominant(rs.rho)
    assert not rs.is_dominant(-rs.rho)


def test_dominance_allows_non_integral_negatives():
    rs = build_root_system("A1")
    assert rs.is_dominant(rs.weight((F(-1, 2),)))
    assert not rs.is_dominant(rs.weight((-1,)))


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D3", "E5", "E9", "F3", "G3", "H3", "", "Axy"])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValidationError):
        build_root_system(bad)


def test_spec_parse_roundtrip():
    for name in ["A2", "B3", "A1xA1", "G2xA3"]:
        spec = RootSystemSpec.parse(name)
        assert str(spec) == name
        assert RootSystemSpec.parse(str(spec)) == spec


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                min_size=2, max_size=2))
def test_weight_parse_format_roundtrip(coords):
    w = Weight(tuple(coords))
    assert parse_weight(str(w), 2) == w


def test_weight_parse_errors():
    with pytest.raises(ValidationError):
        parse_weight("(1,2,3)", 2)
    with pytest.raises(ValidationError):
        parse_weight("(a,b)", 2)
    with pytest.raises(ValidationError):
        parse_weight("(1,)", 2)


def test_semisimple_direct_sum():
    rs = build_root_system("A1xA1")
    a, b = rs.simple_roots
    # the two components are orthogonal: reflections act blockwise
    assert rs.pairing(a, rs.root_as_weight(b)) == 0
    assert rs.reflect(a, rs.weight((3, 5))) == rs.weight((-3, 5))
    assert rs.reflect(b, rs.weight((3, 5))) == rs.weight((3, -5))


def _coroot_coords(rs, beta):
    # pairing against the fundamental weights reads off the coroot in
    # simple-coroot coordinates
    return tuple(
        rs.pairing(beta, rs.weight([1 if j == k else 0 for j in range(rs.rank)]))
        for k in range(rs.rank)
    )


@pytest.mark.parametrize("name,dual,reverse", [
    ("B3", "C3", False), ("C3", "B3", False),
    ("C4", "B4", False), ("B4", "C4", False),
    ("A1xB2", "A1xC2", False),
    ("G2", "G2", True), ("F4", "F4", True),
])
def test_coroots_are_integral_and_form_the_dual_system(name, dual, reverse):
    rs = build_root_system(name)
    coroots = {_coroot_coords(rs, beta) for beta in rs.roots}
    assert all(c.denominator == 1 for co in coroots for c in co)
    expected = {r.coords[::-1] if reverse else r.coords
                for r in build_root_system(dual).roots}
    assert coroots == expected


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_simply_laced_coroot_equals_root(name):
    rs = build_root_system(name)
    for beta in rs.roots:
        assert _coroot_coords(rs, beta) == beta.coords
