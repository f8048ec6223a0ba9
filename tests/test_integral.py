import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from vermahom.errors import DomainError
from vermahom.integral import (
    all_integral_words,
    canonical_integral_word,
    dominant_representative,
    in_integral_group,
    integral_data,
    integral_group_elements,
    integral_length,
    reduce_parameters,
    stabilizer_elements,
)
from vermahom.rootsystem import Root, Weight, build_root_system
from vermahom.weyl import (
    enumerate_group,
    identity,
    inverse,
    longest_element,
    multiply,
    reflection,
    simple_reflection,
)

RANK3_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]


def lam_grid(rank, denominators=(1, 2, 3)):
    values = [F(0), F(1), F(-1)] + [F(1, d) for d in denominators if d > 1]
    return [Weight(t) for t in itertools.product(values, repeat=rank)]


def small_lams(rs):
    # a deterministic mix of integral, half-, third- and sixth-integral weights
    n = rs.rank
    out = [
        Weight(tuple(F(1) for _ in range(n))),
        Weight(tuple(F(0) for _ in range(n))),
        Weight(tuple(F(1, 2) for _ in range(n))),
        Weight(tuple(F(1, 3) for _ in range(n))),
        Weight(tuple(F(1, 6) if i == 0 else F(1, 2) for i in range(n))),
        Weight(tuple(F(1, 2) if i == 0 else F(0) for i in range(n))),
        Weight(tuple(F(-1, 2) if i % 2 else F(1) for i in range(n))),
        Weight(tuple(F(2, 5) for _ in range(n))),
    ]
    seen = []
    for w in out:
        if w not in seen:
            seen.append(w)
    return seen


def test_a2_integral_weight_gives_full_system():
    rs = build_root_system("A2")
    data = integral_data(rs, rs.weight((1, 1)))
    assert set(data.positive_roots) == set(rs.positive_roots)
    assert data.simple_roots == tuple(sorted(rs.simple_roots))
    assert data.longest_element == longest_element(rs)
    assert data.stabilizer_gens == ()


def test_a2_half_integral():
    rs = build_root_system("A2")
    data = integral_data(rs, rs.weight((F(1, 2), F(1, 2))))
    assert data.positive_roots == (rs.root((1, 1)),)
    assert data.simple_roots == (rs.root((1, 1)),)
    assert data.longest_element == reflection(rs, rs.root((1, 1)))
    assert sorted(integral_group_elements(data), key=lambda w: w.matrix) == sorted(
        [identity(rs), reflection(rs, rs.root((1, 1)))], key=lambda w: w.matrix
    )


def test_a2_mixed_singular_pattern():
    rs = build_root_system("A2")
    data = integral_data(rs, rs.weight((F(1, 2), 0)))
    assert data.positive_roots == (rs.root((0, 1)),)
    assert data.simple_roots == (rs.root((0, 1)),)


@pytest.mark.parametrize("name", RANK3_TYPES)
def test_subsystem_closure(name):
    rs = build_root_system(name)
    for lam in small_lams(rs):
        data = integral_data(rs, lam)
        roots = data.root_set()
        assert roots == {-r for r in roots}
        root_weights = {rs.root_as_weight(r) for r in roots}
        for a in roots:
            for b in roots:
                image = rs.reflect(a, rs.root_as_weight(b))
                assert image in root_weights


def _solve_rational(columns, target):
    # exact least-structure solve: express target over the given columns
    rows = len(target)
    cols = len(columns)
    aug = [[F(columns[j][i]) for j in range(cols)] + [F(target[i])]
           for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        if aug[i][cols] != 0:
            return None
    solution = [F(0)] * cols
    for row_idx, c in enumerate(pivots):
        solution[c] = aug[row_idx][cols]
    return solution


@pytest.mark.parametrize("name", RANK3_TYPES)
def test_simple_system_expands_positives(name):
    rs = build_root_system(name)
    for lam in small_lams(rs):
        data = integral_data(rs, lam)
        if not data.simple_roots:
            assert not data.positive_roots
            continue
        columns = [list(r.coords) for r in data.simple_roots]
        # linear independence: solving for zero gives only zero
        zero = _solve_rational(columns, [0] * rs.rank)
        assert zero == [F(0)] * len(columns)
        for p in data.positive_roots:
            coeffs = _solve_rational(columns, list(p.coords))
            assert coeffs is not None
            assert all(c.denominator == 1 and c >= 0 for c in coeffs)


@pytest.mark.parametrize("name", RANK3_TYPES)
def test_indecomposability_of_simples(name):
    rs = build_root_system(name)
    for lam in small_lams(rs):
        data = integral_data(rs, lam)
        pos = set(data.positive_roots)
        for p in data.positive_roots:
            decomposable = any(
                Root(tuple(pc - qc for pc, qc in zip(p.coords, q.coords))) in pos
                for q in pos if q != p
            )
            assert decomposable == (p not in set(data.simple_roots))


@pytest.mark.parametrize("name", RANK3_TYPES)
def test_longest_integral_element(name):
    rs = build_root_system(name)
    for lam in small_lams(rs):
        data = integral_data(rs, lam)
        wl = data.longest_element
        assert in_integral_group(wl, data)
        for beta in data.positive_roots:
            assert not wl.act_on_root(beta).is_positive
        assert integral_length(wl, data) == len(data.positive_roots)


def test_integral_length_examples():
    rs = build_root_system("A2")
    lam = rs.weight((F(1, 2), F(1, 2)))
    data = integral_data(rs, lam)
    assert integral_length(identity(rs), data) == 0
    assert integral_length(reflection(rs, rs.root((1, 1))), data) == 1
    with pytest.raises(DomainError):
        integral_length(simple_reflection(rs, 1), data)


def test_membership_examples():
    rs = build_root_system("A2")
    data = integral_data(rs, rs.weight((F(1, 2), F(1, 2))))
    assert in_integral_group(identity(rs), data)
    assert not in_integral_group(simple_reflection(rs, 1), data)
    assert in_integral_group(reflection(rs, rs.root((1, 1))), data)


@pytest.mark.parametrize("name", RANK3_TYPES)
def test_membership_matches_reflection_subgroup(name):
    rs = build_root_system(name)
    for lam in small_lams(rs):
        data = integral_data(rs, lam)
        subgroup = set(integral_group_elements(data))
        for w in enumerate_group(rs):
            assert in_integral_group(w, data) == (w in subgroup)
            if w in subgroup:
                canonical_integral_word(w, data)
            else:
                with pytest.raises(DomainError):
                    canonical_integral_word(w, data)


def test_stabilizer_examples():
    rs = build_root_system("A2")
    regular = integral_data(rs, rs.weight((1, 2)))
    assert stabilizer_elements(regular) == {identity(rs)}
    zero = integral_data(rs, rs.weight((0, 0)))
    assert stabilizer_elements(zero) == set(enumerate_group(rs))
    wall = integral_data(rs, rs.weight((0, 1)))
    assert stabilizer_elements(wall) == {identity(rs), simple_reflection(rs, 1)}


@pytest.mark.parametrize("name", RANK3_TYPES)
def test_stabilizer_generation_coincidence(name):
    rs = build_root_system(name)
    for lam in small_lams(rs):
        data = integral_data(rs, lam)
        assert data.dominant == rs.is_dominant(lam)
        if not data.dominant:
            continue
        generated = stabilizer_elements(data)  # closure path (lam dominant)
        filtered = {w for w in enumerate_group(rs) if w.act(lam) == lam}
        assert generated == filtered


def test_canonical_integral_word_roundtrip():
    rs = build_root_system("B2")
    for lam in small_lams(rs):
        data = integral_data(rs, lam)
        for w in integral_group_elements(data):
            word = canonical_integral_word(w, data)
            assert len(word) == integral_length(w, data)
            product = identity(rs)
            for beta in word:
                product = multiply(product, reflection(rs, beta))
            assert product == w


def test_all_integral_words_multiply_back():
    rs = build_root_system("A2")
    data = integral_data(rs, rs.weight((1, 1)))
    w0 = longest_element(rs)
    words = all_integral_words(w0, data)
    assert len(words) == 2
    for word in words:
        product = identity(rs)
        for beta in word:
            product = multiply(product, reflection(rs, beta))
        assert product == w0


def test_reduce_parameters_examples():
    rs = build_root_system("A2")
    # integral lam: nothing to do
    for w in enumerate_group(rs):
        assert reduce_parameters(w, rs.weight((1, 1))) == w
    # empty integral system
    assert reduce_parameters(
        simple_reflection(rs, 1), rs.weight((F(1, 5), F(1, 7)))
    ).is_identity
    # half-integral example
    assert reduce_parameters(
        simple_reflection(rs, 1), rs.weight((F(1, 2), F(1, 2)))
    ).is_identity


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_reduce_parameters_postcondition(name):
    # the defining property, the reference for the descent peel
    rs = build_root_system(name)
    for lam in lam_grid(rs.rank):
        data = integral_data(rs, lam)
        rootset = data.root_set()
        for w in enumerate_group(rs):
            wp = reduce_parameters(w, lam)
            assert in_integral_group(wp, data)
            w_inv = inverse(w)
            lhs = {
                b for b in (w_inv.act_on_root(a) for a in rs.positive_roots)
                if b in rootset
            }
            wp_inv = inverse(wp)
            rhs = {wp_inv.act_on_root(b) for b in data.positive_roots}
            assert lhs == rhs


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_reduce_parameters_statement_form(name):
    # the emptiness form: no positive root inside the w-translate of the
    # integral system is sent negative by w' w^{-1}
    rs = build_root_system(name)
    for lam in lam_grid(rs.rank, denominators=(1, 2)):
        data = integral_data(rs, lam)
        for w in enumerate_group(rs):
            wp = reduce_parameters(w, lam)
            t = multiply(wp, inverse(w))
            w_rootset = {w.act_on_root(b) for b in data.root_set()}
            assert not any(
                alpha in w_rootset and not t.act_on_root(alpha).is_positive
                for alpha in rs.positive_roots
            )


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@given(data=st.data())
def test_dominant_representative(name, data):
    rs = build_root_system(name)
    coords = data.draw(st.tuples(*(
        st.fractions(min_value=-3, max_value=3, max_denominator=3)
        for _ in range(rs.rank)
    )))
    lam = Weight(coords)
    dom, v = dominant_representative(rs, lam)
    assert rs.is_dominant(dom)
    assert v.act(lam) == dom
    # idempotent on the result
    dom2, v2 = dominant_representative(rs, dom)
    assert dom2 == dom and v2.is_identity
