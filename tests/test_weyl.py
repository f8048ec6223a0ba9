import pytest
from hypothesis import given
import hypothesis.strategies as st

from vermahom.errors import DomainError, EnumerationBound, ValidationError
from vermahom.rootsystem import build_root_system, weyl_group_order
from vermahom.weyl import (
    all_reduced_words,
    canonical_reduced_word,
    enumerate_group,
    format_word,
    from_word,
    identity,
    inverse,
    length,
    longest_element,
    multiply,
    parse_word,
    simple_reflection,
)

from test_rootsystem import weights_for


def words_for(rank, max_size=6):
    return st.lists(st.integers(1, rank), max_size=max_size)


def test_simple_reflection_basics():
    rs = build_root_system("A2")
    s1 = simple_reflection(rs, 1)
    assert multiply(s1, s1).is_identity
    assert length(s1) == 1
    assert s1.act_on_root(rs.simple_roots[1]) == rs.root((1, 1))
    with pytest.raises(DomainError):
        simple_reflection(rs, 3)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@given(data=st.data())
def test_group_axioms(name, data):
    rs = build_root_system(name)
    u = from_word(rs, data.draw(words_for(rs.rank)))
    v = from_word(rs, data.draw(words_for(rs.rank)))
    mu = data.draw(weights_for(rs.rank))
    assert multiply(u, inverse(u)).is_identity
    assert identity(rs).act(mu) == mu
    assert multiply(u, v).act(mu) == u.act(v.act(mu))


@pytest.mark.parametrize("name", ["A2", "B2"])
@given(data=st.data())
def test_pairing_compatible_with_action(name, data):
    rs = build_root_system(name)
    u = from_word(rs, data.draw(words_for(rs.rank)))
    mu = data.draw(weights_for(rs.rank))
    for beta in rs.positive_roots:
        assert rs.pairing(beta, inverse(u).act(mu)) == rs.pairing(
            u.act_on_root(beta), mu
        )


def test_mixed_systems_rejected():
    a2 = build_root_system("A2")
    b2 = build_root_system("B2")
    with pytest.raises(DomainError):
        multiply(identity(a2), identity(b2))


def test_length_examples():
    rs = build_root_system("A2")
    assert length(identity(rs)) == 0
    assert length(from_word(rs, [1, 2])) == 2
    w0 = longest_element(rs)
    assert length(w0) == len(rs.positive_roots) == 3


@pytest.mark.parametrize("name", ["A2", "B2", "A3"])
def test_length_matches_canonical_word(name):
    rs = build_root_system(name)
    for w in enumerate_group(rs):
        word = canonical_reduced_word(w)
        assert len(word) == length(w)
        assert from_word(rs, word) == w


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_exchange_property(name):
    rs = build_root_system(name)
    for w in enumerate_group(rs):
        for i in range(1, rs.rank + 1):
            assert abs(length(multiply(simple_reflection(rs, i), w)) - length(w)) == 1


def test_canonical_word_examples():
    rs = build_root_system("A2")
    assert canonical_reduced_word(identity(rs)) == ()
    assert canonical_reduced_word(simple_reflection(rs, 1)) == (1,)
    assert canonical_reduced_word(longest_element(rs)) == (1, 2, 1)


def test_all_reduced_words_a2():
    rs = build_root_system("A2")
    w0 = longest_element(rs)
    assert all_reduced_words(w0) == {(1, 2, 1), (2, 1, 2)}
    assert all_reduced_words(simple_reflection(rs, 1)) == {(1,)}
    assert all_reduced_words(identity(rs)) == {()}


def test_all_reduced_words_a3_longest_count():
    # the staircase tableau count: 16 reduced words for the longest element
    rs = build_root_system("A3")
    words = all_reduced_words(longest_element(rs))
    assert len(words) == 16
    assert all(len(word) == 6 for word in words)
    assert all(from_word(rs, word) == longest_element(rs) for word in words)


def test_all_reduced_words_bound():
    # D5's longest element has length 20, past the word-length bound, so the
    # call raises before any of its 12,985,968 reduced words is listed
    rs = build_root_system("D5")
    with pytest.raises(EnumerationBound):
        all_reduced_words(longest_element(rs))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1"])
def test_longest_element(name):
    rs = build_root_system(name)
    w0 = longest_element(rs)
    assert length(w0) == len(rs.positive_roots)
    for beta in rs.positive_roots:
        assert not w0.act_on_root(beta).is_positive


def test_longest_element_a2_is_121():
    rs = build_root_system("A2")
    assert longest_element(rs) == from_word(rs, [1, 2, 1])
    assert longest_element(rs).act(rs.rho) == -rs.rho


@pytest.mark.parametrize("name,order", [
    ("A2", 6), ("A3", 24), ("B2", 8), ("B3", 48), ("G2", 12), ("A1xA1", 4),
])
def test_enumerate_group(name, order):
    rs = build_root_system(name)
    group = enumerate_group(rs)
    assert len(group) == order == weyl_group_order(rs.spec)
    assert len(set(group)) == order


def test_enumeration_bound_uses_closed_form_order():
    rs = build_root_system("E8")
    with pytest.raises(EnumerationBound):
        enumerate_group(rs)


def test_word_parse_and_format():
    assert parse_word("s1 s2 s1", 2) == (1, 2, 1)
    assert parse_word("121", 2) == (1, 2, 1)
    assert parse_word("e", 2) == ()
    assert parse_word("1 2", 2) == (1, 2)
    assert format_word((1, 2, 1)) == "s1 s2 s1"
    assert format_word(()) == "e"
    with pytest.raises(ValidationError):
        parse_word("s3", 2)
    with pytest.raises(ValidationError):
        parse_word("xy", 2)


def test_matrices_are_integral_and_permute_roots():
    rs = build_root_system("G2")
    for w in enumerate_group(rs):
        assert all(isinstance(x, int) for row in w.matrix for x in row)
        assert {w.act_on_root(beta) for beta in rs.roots} == set(rs.roots)


@pytest.mark.parametrize("name", ["C3", "A1xB2", "G2xA1", "F4"])
def test_inverse_over_whole_group(name):
    rs = build_root_system(name)
    for w in enumerate_group(rs):
        assert multiply(w, inverse(w)).is_identity
        assert multiply(inverse(w), w).is_identity
