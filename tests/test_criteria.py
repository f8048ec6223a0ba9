import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from vermahom.criteria import (
    hom_principal_series,
    hom_twisted_verma,
    normalize_principal_series,
)
from vermahom.errors import DomainError, PreconditionError
from vermahom.integral import (
    in_integral_group,
    integral_data,
    integral_group_elements,
    reduce_parameters,
    stabilizer_elements,
)
from vermahom.oracle import bgg_verma_hom
from vermahom.rootsystem import Weight, build_root_system
from vermahom.weyl import (
    enumerate_group,
    from_word,
    identity,
    inverse,
    longest_element,
    multiply,
    simple_reflection,
)

from test_rootsystem import weights_for


def words_for(rank, max_size=4):
    return st.lists(st.integers(1, rank), max_size=max_size)


# -- twisted Verma ----------------------------------------------------------


def test_plain_verma_into_dominant_rho():
    # every orbit translate embeds into the regular dominant Verma module
    rs = build_root_system("A2")
    e = identity(rs)
    orbit = {w.act(rs.rho) for w in enumerate_group(rs)}
    assert len(orbit) == 6
    for mu1 in orbit:
        assert hom_twisted_verma(e, mu1, e, rs.rho).hom_nonzero
    assert not hom_twisted_verma(e, rs.weight((2, 2)), e, rs.rho).hom_nonzero


def test_plain_verma_into_antidominant_rho():
    rs = build_root_system("A2")
    e = identity(rs)
    for w in enumerate_group(rs):
        mu1 = w.act(-rs.rho)
        expected = mu1 == -rs.rho
        assert hom_twisted_verma(e, mu1, e, -rs.rho).hom_nonzero == expected


@pytest.mark.parametrize("m", [F(-3), F(-1), F(0), F(1), F(3), F(1, 2), F(-1, 2)])
def test_rank_one_closed_form(m):
    rs = build_root_system("A1")
    e = identity(rs)
    s = simple_reflection(rs, 1)
    mu2 = Weight((m,))
    expected = {mu2}
    if m.denominator == 1 and m > 0:
        expected.add(s.act(mu2))
    candidates = [Weight((F(k, 2),)) for k in range(-12, 13)]
    for mu1 in candidates:
        assert hom_twisted_verma(e, mu1, e, mu2).hom_nonzero == (mu1 in expected)


@pytest.mark.parametrize("name", ["A2", "B2"])
@given(data=st.data())
def test_twisted_reflexivity(name, data):
    rs = build_root_system(name)
    w = from_word(rs, data.draw(words_for(rs.rank)))
    mu = data.draw(weights_for(rs.rank))
    verdict = hom_twisted_verma(w, mu, w, mu)
    assert verdict.hom_nonzero
    assert w.act(mu) in verdict.left_set & verdict.right_set


@pytest.mark.parametrize("name", ["A2", "B2"])
@given(data=st.data())
def test_verdict_invariants(name, data):
    rs = build_root_system(name)
    w1 = from_word(rs, data.draw(words_for(rs.rank)))
    w2 = from_word(rs, data.draw(words_for(rs.rank)))
    mu1 = data.draw(weights_for(rs.rank))
    mu2 = data.draw(weights_for(rs.rank))
    verdict = hom_twisted_verma(w1, mu1, w2, mu2)
    assert verdict.ext_all_vanish == (not verdict.hom_nonzero)
    if verdict.hom_nonzero:
        assert verdict.witness in verdict.left_set & verdict.right_set
        assert verdict.witness == min(verdict.left_set & verdict.right_set)
    else:
        assert verdict.witness is None
        assert not verdict.left_set & verdict.right_set


def test_generic_vanishing_disjoint_orbits():
    rs = build_root_system("A2")
    e = identity(rs)
    w0 = longest_element(rs)
    mu1 = rs.weight((2, 2))  # not in the orbit of rho
    for w1, w2 in [(e, e), (w0, e), (e, w0)]:
        assert not hom_twisted_verma(w1, mu1, w2, rs.rho).hom_nonzero
        assert not hom_principal_series(
            rs.rho, w1, mu1, w2, rs.rho
        ).hom_nonzero


def test_lattice_mismatch_is_flagged():
    rs = build_root_system("A2")
    e = identity(rs)
    verdict = hom_twisted_verma(e, rs.weight((0, 0)), e, rs.weight((F(1, 2), 0)))
    assert not verdict.hom_nonzero
    assert verdict.parameters["notes"]
    same = hom_twisted_verma(e, rs.rho, e, rs.rho)
    assert same.parameters["notes"] == []


def test_mixed_root_systems_rejected():
    a2 = build_root_system("A2")
    b2 = build_root_system("B2")
    with pytest.raises(DomainError):
        hom_twisted_verma(identity(a2), a2.rho, identity(b2), b2.rho)


def test_twisted_agrees_with_linkage_oracle_spot():
    rs = build_root_system("B2")
    e = identity(rs)
    box = [rs.weight((a, b)) for a in range(-2, 3) for b in range(-2, 3)]
    for mu2 in box[:10]:
        for mu1 in box:
            assert (
                hom_twisted_verma(e, mu1, e, mu2).hom_nonzero
                == bgg_verma_hom(rs, mu1, mu2)[0]
            )


# -- principal series --------------------------------------------------------


def test_rank_one_principal_series_examples():
    rs = build_root_system("A1")
    e = identity(rs)
    rho = rs.rho
    assert hom_principal_series(rho, e, rho, e, rho).hom_nonzero
    assert hom_principal_series(rho, e, rho, e, -rho).hom_nonzero
    assert not hom_principal_series(rho, e, -rho, e, rho).hom_nonzero


def test_principal_series_preconditions():
    rs = build_root_system("A2")
    e = identity(rs)
    with pytest.raises(PreconditionError, match="normalize_principal_series"):
        hom_principal_series(-rs.rho, e, rs.rho, e, rs.rho)
    lam = rs.weight((F(1, 2), F(1, 2)))
    with pytest.raises(DomainError, match="integral Weyl group"):
        hom_principal_series(lam, simple_reflection(rs, 1), lam, e, lam)
    with pytest.raises(DomainError, match="weight lattice"):
        hom_principal_series(rs.rho, e, rs.weight((F(1, 2), 0)), e, rs.rho)


def test_principal_series_reflexivity_sweep():
    rs = build_root_system("A2")
    for lam in [rs.rho, rs.weight((0, 1)), rs.weight((F(1, 2), F(1, 2)))]:
        data = integral_data(rs, lam)
        for w in integral_group_elements(data):
            for offset in [rs.weight((0, 0)), rs.weight((1, -1)), rs.weight((2, 0))]:
                mu = lam + offset
                verdict = hom_principal_series(lam, w, mu, w, mu)
                assert verdict.hom_nonzero
                assert inverse(w).act(mu) in verdict.left_set


def test_principal_series_matches_twisted_family_at_regular_integral():
    # for regular dominant integral lambda both criteria instantiate the
    # same intersection test, through two independent code paths
    rs = build_root_system("A2")
    lam = rs.rho
    w0 = longest_element(rs)
    group = enumerate_group(rs)
    orbit = sorted({w.act(rs.weight((2, 1))) for w in group})
    for w1, w2 in itertools.product(group, repeat=2):
        a = multiply(inverse(w1), w0)
        b = multiply(inverse(w2), w0)
        for mu1, mu2 in itertools.product(orbit[:3], orbit):
            ps = hom_principal_series(lam, w1, mu1, w2, mu2).hom_nonzero
            tw = hom_twisted_verma(a, w0.act(mu1), b, w0.act(mu2)).hom_nonzero
            assert ps == tw, (str(w1), str(w2), mu1, mu2)


def test_stabilizer_invariance_wall_weight():
    rs = build_root_system("A2")
    lam = rs.weight((0, 1))
    data = integral_data(rs, lam)
    stab = sorted(stabilizer_elements(data), key=lambda w: w.matrix)
    assert len(stab) == 2
    group = enumerate_group(rs)
    mus = [lam, lam + rs.weight((1, 0)), lam + rs.weight((-1, 1))]
    for w1, w2 in itertools.product(group[:4], repeat=2):
        for mu1, mu2 in itertools.product(mus, repeat=2):
            base = hom_principal_series(lam, w1, mu1, w2, mu2).hom_nonzero
            for u, v in itertools.product(stab, repeat=2):
                assert hom_principal_series(
                    lam, multiply(w1, u), mu1, multiply(w2, v), mu2
                ).hom_nonzero == base


def _replayed_witness(rs, cert, translate):
    from vermahom.aset import replay_certificate

    reached = replay_certificate(rs, cert["word"], cert["base"], cert["positions"])
    return translate.act(reached)


@pytest.mark.parametrize("name", ["A2", "B2"])
@given(data=st.data())
def test_twisted_witness_certificates_replay(name, data):
    rs = build_root_system(name)
    w1 = from_word(rs, data.draw(words_for(rs.rank)))
    w2 = from_word(rs, data.draw(words_for(rs.rank)))
    mu2 = data.draw(weights_for(rs.rank, max_denominator=1))
    mu1 = data.draw(st.sampled_from(sorted(
        {w.act(mu2) for w in enumerate_group(rs)}
    )))
    verdict = hom_twisted_verma(w1, mu1, w2, mu2)
    if not verdict.hom_nonzero:
        assert verdict.left_certificate is None
        return
    w0 = longest_element(rs)
    assert _replayed_witness(rs, verdict.left_certificate, w1) == verdict.witness
    assert _replayed_witness(
        rs, verdict.right_certificate, multiply(w2, w0)
    ) == verdict.witness


def test_principal_series_witness_certificates_replay():
    from vermahom.weyl import parse_word

    rs = build_root_system("A2")
    lam = rs.weight((0, 1))
    data = integral_data(rs, lam)
    wl = data.longest_element
    for w1 in enumerate_group(rs):
        for w2 in [identity(rs), wl]:
            verdict = hom_principal_series(
                lam, w1, lam, w2, lam + rs.weight((1, -1))
            )
            if not verdict.hom_nonzero:
                assert verdict.left_certificate is None
                continue
            left = _replayed_witness(
                rs, verdict.left_certificate, multiply(inverse(w1), wl)
            )
            assert left == verdict.witness
            u = from_word(
                rs, parse_word(verdict.right_certificate["stabilizer"], rs.rank)
            )
            right = _replayed_witness(
                rs, verdict.right_certificate, multiply(u, inverse(w2))
            )
            assert right == verdict.witness


# -- normalization -----------------------------------------------------------


def test_normalize_unchanged_when_valid():
    rs = build_root_system("A1")
    s = simple_reflection(rs, 1)
    lam, w, mu = normalize_principal_series(rs.rho, s, rs.weight((5,)))
    assert (lam, w, mu) == (rs.rho, s, rs.weight((5,)))


def test_normalize_reduces_outside_subgroup():
    rs = build_root_system("A2")
    half = rs.weight((F(1, 2), F(1, 2)))
    s1 = simple_reflection(rs, 1)
    lam, w, mu = normalize_principal_series(half, s1, half)
    assert lam == half
    assert w == reduce_parameters(s1, half)
    assert in_integral_group(w, integral_data(rs, lam))


def test_normalize_empty_integral_system():
    rs = build_root_system("A2")
    lam_any = rs.weight((F(1, 5), F(1, 7)))
    s1 = simple_reflection(rs, 1)
    lam, w, mu = normalize_principal_series(lam_any, s1, lam_any)
    assert w.is_identity
    assert rs.is_dominant(lam)


@pytest.mark.parametrize("name", ["A2", "B2"])
@given(data=st.data())
def test_normalize_postconditions_and_idempotence(name, data):
    rs = build_root_system(name)
    lam = data.draw(weights_for(rs.rank))
    mu = data.draw(weights_for(rs.rank))
    w = from_word(rs, data.draw(words_for(rs.rank)))
    out_lam, out_w, out_mu = normalize_principal_series(lam, w, mu)
    assert rs.is_dominant(out_lam)
    assert in_integral_group(out_w, integral_data(rs, out_lam))
    # the underlying module parameters are W-conjugate data of the input
    assert out_w.act(out_lam) in {u.act(w.act(lam)) for u in enumerate_group(rs)}
    again = normalize_principal_series(out_lam, out_w, out_mu)
    assert again == (out_lam, out_w, out_mu)


def test_normalize_nondominant_preserves_parameters():
    # dominantizing rewrites the same (w lam, w mu) pair over a dominant lam
    rs = build_root_system("A2")
    lam = rs.weight((-1, -1))
    mu = rs.weight((0, -2))
    for w in enumerate_group(rs):
        out_lam, out_w, out_mu = normalize_principal_series(lam, w, mu)
        assert out_w.act(out_lam) == w.act(lam)
        assert out_w.act(out_mu) == w.act(mu)
