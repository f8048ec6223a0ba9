"""The parameter layer's integer arithmetic against its ``Fraction`` form.

``WeylElem.act``, ``RootSystem.is_dominant``, ``integral_data`` and
``dominant_representative`` compute on a weight's integer form (numerators
over the lcm of the denominators).  The references below are the same
operations written in ``Fraction`` arithmetic through ``RootSystem.pairing``
and ``RootSystem.reflect``; every result must match them exactly.
"""

import random
from fractions import Fraction as F

import pytest

from vermahom.criteria import hom_principal_series
from vermahom.errors import DomainError
from vermahom.integral import dominant_representative, integral_data
from vermahom.rootsystem import Weight, build_root_system
from vermahom.weyl import (
    enumerate_group,
    identity,
    longest_element_over,
    multiply,
    reflection,
)

TYPES = ["A2", "B2", "G2", "B3", "A1xG2"]
DENOMINATORS = (1, 2, 3, 6, 7)


def ref_act(w, mu):
    n = w.rs.rank
    return Weight(tuple(
        sum((row[j] * mu.coords[j] for j in range(n)), F(0)) for row in w.matrix
    ))


def ref_is_dominant(rs, lam):
    for beta in rs.positive_roots:
        p = rs.pairing(beta, lam)
        if p.denominator == 1 and p < 0:
            return False
    return True


def ref_integral_data(rs, lam):
    pairs = {b: rs.pairing(b, lam) for b in rs.positive_roots}
    pos = tuple(b for b, p in pairs.items() if p.denominator == 1)
    pos_set = {b.coords for b in pos}
    simples = tuple(sorted(
        p for p in pos
        if not any(
            tuple(pc - qc for pc, qc in zip(p.coords, q.coords)) in pos_set
            for q in pos if q != p
        )
    ))
    gens = tuple(b for b in simples if pairs[b] == 0)
    dominant = all(pairs[b] >= 0 for b in pos)
    return pos, simples, longest_element_over(rs, simples), gens, dominant


def ref_dominant_representative(rs, lam):
    simples = ref_integral_data(rs, lam)[1]
    cur, v = lam, identity(rs)
    while True:
        for beta in simples:
            if rs.pairing(beta, cur) < 0:
                cur = rs.reflect(beta, cur)
                v = multiply(reflection(rs, beta), v)
                break
        else:
            return cur, v


def sample_weights(rank, count, seed):
    """Weights whose coordinates have denominators from DENOMINATORS and
    numerators of both signs; each weight also draws one shared denominator
    so that many have integral pairings."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        shared = rng.choice(DENOMINATORS)
        out.append(Weight(tuple(
            F(rng.randint(-9, 9), rng.choice((shared, rng.choice(DENOMINATORS))))
            for _ in range(rank)
        )))
    return out


@pytest.mark.parametrize("name", TYPES)
def test_act_matches_fraction_reference(name):
    rs = build_root_system(name)
    weights = sample_weights(rs.rank, 40, name)
    for w in enumerate_group(rs):
        for mu in weights:
            assert w.act(mu) == ref_act(w, mu)


@pytest.mark.parametrize("name", TYPES)
def test_parameter_layer_matches_fraction_reference(name):
    rs = build_root_system(name)
    group = enumerate_group(rs)
    base = sample_weights(rs.rank, 150, name)
    # orbit images reach the non-dominant and singular chambers too
    weights = base + [group[i % len(group)].act(mu) for i, mu in enumerate(base)]
    for lam in weights:
        assert rs.is_dominant(lam) == ref_is_dominant(rs, lam)
        data = integral_data(rs, lam)
        assert (data.positive_roots, data.simple_roots, data.longest_element,
                data.stabilizer_gens, data.dominant) == ref_integral_data(rs, lam)
        assert dominant_representative(rs, lam) == ref_dominant_representative(rs, lam)


def test_references_see_every_case():
    """The samples reach integral, non-integral, dominant and non-dominant
    weights, and dominant representatives that take reflections."""
    rs = build_root_system("B3")
    weights = sample_weights(rs.rank, 150, "B3")
    assert {ref_is_dominant(rs, lam) for lam in weights} == {True, False}
    assert {lam.is_integral() for lam in weights} == {True, False}
    assert any(not ref_dominant_representative(rs, lam)[1].is_identity
               and not lam.is_integral() for lam in weights)


def test_weight_hash_is_the_coordinate_hash():
    w = Weight((F(-1, 2), F(3, 7), F(0)))
    assert hash(w) == hash(w.coords)
    assert hash(w) == hash(Weight((F(-1, 2), F(3, 7), F(0))))
    assert not hasattr(w, "__dict__")
    assert repr(w) == "Weight(coords=(Fraction(-1, 2), Fraction(3, 7), Fraction(0, 1)))"


def test_cached_hash_stays_out_of_comparisons():
    a, b = Weight((F(1), F(2))), Weight((F(1), F(2)))
    object.__setattr__(b, "_hash", hash(a) + 1)
    assert a == b and not a < b and not b < a
    assert "_hash" not in repr(b)
    assert Weight((F(1), F(1))) < b


@pytest.mark.parametrize("op", ["__add__", "__sub__"])
def test_weight_arithmetic_rejects_a_rank_mismatch(op):
    with pytest.raises(DomainError, match="weight ranks 2 and 1 differ"):
        getattr(Weight((F(1), F(2))), op)(Weight((F(1),)))
    with pytest.raises(DomainError, match="weight ranks 1 and 2 differ"):
        getattr(Weight((F(1),)), op)(Weight((F(1), F(2))))


def test_principal_series_rejects_a_short_weight_by_rank():
    rs = build_root_system("A2")
    e = identity(rs)
    with pytest.raises(DomainError, match="weight ranks 1 and 2 differ"):
        hom_principal_series(rs.rho, e, Weight((F(1, 2),)), e, rs.rho)


@pytest.mark.parametrize("coords", [(F(1, 2),), (F(1), F(-1, 2), F(3))])
def test_integer_paths_keep_their_rank_checks(coords):
    rs = build_root_system("A2")
    bad = Weight(coords)
    n = len(coords)
    with pytest.raises(DomainError, match="^weight rank does not match the root system$"):
        identity(rs).act(bad)
    with pytest.raises(DomainError, match=f"^weight rank {n} != system rank 2$"):
        rs.is_dominant(bad)
    with pytest.raises(DomainError, match="^weight rank does not match the root system$"):
        integral_data(rs, bad)
    with pytest.raises(DomainError, match="^weight rank does not match the root system$"):
        dominant_representative(rs, bad)
