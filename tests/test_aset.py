from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from vermahom.aset import (
    ascent_set,
    ascent_set_all_words,
    ascent_set_word,
    inversion_sequence,
    replay_certificate,
)
from vermahom.errors import DomainError, EnumerationBound
from vermahom.integral import integral_data
from vermahom.oracle import brute_force_ascent_set, brute_force_certificates
from vermahom.rootsystem import Weight, build_root_system
from vermahom.weyl import (
    enumerate_group,
    identity,
    inverse,
    longest_element,
    multiply,
    reflection,
    simple_reflection,
)

from test_rootsystem import weights_for

# the rank-2 worked example, recomputed by subsequence brute force by hand
# and by the oracle before the recursion existed: the full regular orbit
A2_FULL_ORBIT = {
    Weight((F(-1), F(-1))),
    Weight((F(1), F(-2))),
    Weight((F(1), F(1))),
    Weight((F(-2), F(1))),
    Weight((F(2), F(-1))),
    Weight((F(-1), F(2))),
}


def _letters(rs, indices):
    return tuple(rs.simple_roots[i - 1] for i in indices)


def test_frozen_a2_worked_example():
    rs = build_root_system("A2")
    letters = _letters(rs, (1, 2, 1))
    mu = rs.weight((-1, -1))
    result = ascent_set_word(rs, letters, mu)
    assert result.elements == frozenset(A2_FULL_ORBIT)
    assert brute_force_ascent_set(rs, letters, mu) == frozenset(A2_FULL_ORBIT)
    # dominant weight: no reflection is ever admissible
    top = ascent_set_word(rs, letters, rs.weight((1, 1)))
    assert top.elements == {rs.weight((1, 1))}


def test_one_letter_cases():
    rs = build_root_system("A1")
    alpha = rs.simple_roots[0]
    down = rs.weight((-3,))
    assert ascent_set_word(rs, (alpha,), down).elements == {
        down, rs.reflect(alpha, down)
    }
    assert ascent_set_word(rs, (alpha,), rs.weight((3,))).elements == {
        rs.weight((3,))
    }
    assert ascent_set_word(rs, (alpha,), rs.weight((F(-1, 2),))).elements == {
        rs.weight((F(-1, 2),))
    }


def test_empty_word():
    rs = build_root_system("A2")
    mu = rs.weight((F(1, 3), F(-5, 2)))
    result = ascent_set_word(rs, (), mu)
    assert result.elements == {mu}
    assert result.certificates == {mu: ()}


def test_inversion_sequence_a2():
    rs = build_root_system("A2")
    betas = inversion_sequence(rs, _letters(rs, (1, 2, 1)))
    assert betas == (rs.root((1, 0)), rs.root((1, 1)), rs.root((0, 1)))


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@given(data=st.data())
def test_recursion_matches_brute_force(name, data):
    rs = build_root_system(name)
    indices = data.draw(st.lists(st.integers(1, rs.rank), max_size=5))
    letters = _letters(rs, indices)
    mu = data.draw(weights_for(rs.rank))
    result = ascent_set_word(rs, letters, mu)
    assert result.elements == brute_force_ascent_set(rs, letters, mu)


@pytest.mark.parametrize("name", ["A2", "B2"])
@given(data=st.data())
def test_certificates_are_lex_minimal_and_replay(name, data):
    rs = build_root_system(name)
    indices = data.draw(st.lists(st.integers(1, rs.rank), max_size=4))
    letters = _letters(rs, indices)
    mu = data.draw(weights_for(rs.rank))
    result = ascent_set_word(rs, letters, mu)
    assert result.certificates == brute_force_certificates(rs, letters, mu)
    for element, cert in result.certificates.items():
        assert replay_certificate(rs, letters, mu, cert) == element


def test_certificates_are_read_only():
    rs = build_root_system("A2")
    letters = _letters(rs, (1, 2, 1))
    mu = rs.weight((-1, -1))
    result = ascent_set_word(rs, letters, mu)
    before = dict(result.certificates)
    with pytest.raises(TypeError):
        result.certificates[rs.rho] = ()
    assert ascent_set_word(rs, letters, mu).certificates == before


def test_replay_rejects_invalid_chain():
    rs = build_root_system("A2")
    letters = _letters(rs, (1, 2, 1))
    with pytest.raises(DomainError):
        replay_certificate(rs, letters, rs.weight((1, 1)), (1,))
    with pytest.raises(DomainError):
        replay_certificate(rs, letters, rs.weight((-1, -1)), (5,))


@pytest.mark.parametrize("name", ["A2", "B2"])
@given(data=st.data())
def test_invariants(name, data):
    rs = build_root_system(name)
    indices = data.draw(st.lists(st.integers(1, rs.rank), max_size=5))
    letters = _letters(rs, indices)
    mu = data.draw(weights_for(rs.rank))
    result = ascent_set_word(rs, letters, mu)
    assert mu in result.elements
    assert 1 <= len(result.elements) <= 2 ** len(letters)
    # members lie in the orbit of mu under the subgroup generated by the
    # inversion-sequence reflections
    gens = [reflection(rs, b) for b in inversion_sequence(rs, letters)]
    orbit = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g.act(x)
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    assert result.elements <= orbit


def test_singleton_when_no_integral_pairings():
    rs = build_root_system("A2")
    mu = rs.weight((F(1, 7), F(3, 7)))  # no root pairs integrally
    letters = _letters(rs, (1, 2, 1, 2))
    assert ascent_set_word(rs, letters, mu).elements == {mu}


def test_context_validates_letters():
    rs = build_root_system("A2")
    data = integral_data(rs, rs.weight((F(1, 2), F(1, 2))))
    with pytest.raises(DomainError):
        ascent_set_word(rs, (rs.simple_roots[0],), rs.rho, context=data)
    ok = ascent_set_word(rs, (rs.root((1, 1)),), rs.weight((-1, -1)), context=data)
    assert ok.elements == {rs.weight((-1, -1)), rs.weight((1, 1))}


def test_ascent_set_over_integral_context():
    rs = build_root_system("A2")
    data = integral_data(rs, rs.weight((F(1, 2), F(1, 2))))
    s = reflection(rs, rs.root((1, 1)))
    result = ascent_set(s, rs.weight((-1, -1)), data)
    assert result.elements == {rs.weight((-1, -1)), rs.weight((1, 1))}
    with pytest.raises(DomainError):
        ascent_set(simple_reflection(rs, 1), rs.rho, data)


def test_ascent_set_all_words_agree():
    rs = build_root_system("A2")
    data = integral_data(rs, rs.rho)
    w0 = longest_element(rs)
    mu = rs.weight((-1, -1))
    results = ascent_set_all_words(w0, mu, data)
    assert len(results) == 2
    assert results[0].elements == results[1].elements == frozenset(A2_FULL_ORBIT)
    with pytest.raises(EnumerationBound):
        ascent_set_all_words(w0, mu, data, max_length=2)


@pytest.mark.parametrize("name", ["A2", "B2"])
@given(data=st.data())
def test_concatenation_identity(name, data):
    rs = build_root_system(name)
    indices = data.draw(st.lists(st.integers(1, rs.rank), min_size=1, max_size=5))
    letters = _letters(rs, indices)
    mu = data.draw(weights_for(rs.rank))
    split = data.draw(st.integers(0, len(letters)))
    block1, block2 = letters[:split], letters[split:]
    w1 = identity(rs)
    for alpha in block1:
        w1 = multiply(w1, reflection(rs, alpha))
    w1_inv = inverse(w1)
    union = set()
    for x in ascent_set_word(rs, block1, mu).elements:
        union.update(
            w1.act(y) for y in ascent_set_word(rs, block2, w1_inv.act(x)).elements
        )
    assert union == set(ascent_set_word(rs, letters, mu).elements)


def test_word_independence_b2_exhaustive():
    rs = build_root_system("B2")
    data = integral_data(rs, rs.rho)
    mus = [rs.weight((-1, -1)), rs.weight((0, -2)), rs.weight((F(1, 2), -1))]
    for w in enumerate_group(rs):
        for mu in mus:
            results = ascent_set_all_words(w, mu, data)
            assert len({r.elements for r in results}) == 1
