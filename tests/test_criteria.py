import gc
import itertools
import time
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from vermahom import criteria
from vermahom.aset import ascent_set
from vermahom.cache import AscentSetCache
from vermahom.criteria import (
    Engine,
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
    orbit,
    simple_reflection,
)

from test_integral import small_lams
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


def test_engine_with_a_cache_matches_default_and_is_freed_on_drop(tmp_path):
    rs = build_root_system("B2")
    group = enumerate_group(rs)
    lam = rs.weight((0, 1))
    cache = AscentSetCache(str(tmp_path))
    engine = Engine(cache)
    for w1, w2 in itertools.product(group, repeat=2):
        for decide in (hom_twisted_verma,
                       lambda *a, **k: hom_principal_series(lam, *a, **k)):
            mine = decide(w1, lam, w2, w1.act(lam), engine=engine)
            default = decide(w1, lam, w2, w1.act(lam))
            assert mine.to_dict() == default.to_dict()
            assert mine.certificates_dict() == default.certificates_dict()
    # a memo that reached the engine would make a cycle, keeping a dropped
    # per-run engine and its sets until the cyclic collector runs
    ref = weakref.ref(engine)
    gc.disable()
    try:
        del engine
        assert ref() is None
    finally:
        gc.enable()


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


def test_f4_antidominant_into_dominant_within_budget():
    # a single high-rank query: the ascent set of w0 at -rho is the whole
    # regular orbit, 1,152 weights
    rs = build_root_system("F4")
    e = identity(rs)
    started = time.perf_counter()
    verdict = hom_twisted_verma(e, -rs.rho, e, rs.rho)
    elapsed = time.perf_counter() - started
    assert verdict.hom_nonzero and len(verdict.right_set) == 1152
    assert bgg_verma_hom(rs, -rs.rho, rs.rho)[0]
    assert elapsed < 10.0, f"F4 query took {elapsed:.2f}s >= 10s"


def test_b4_singular_principal_series_within_budget():
    # lambda = 0: the stabilizer is the whole group of 384 elements, so
    # saturating elementwise would take |W| actions per weight
    rs = build_root_system("B4")
    zero = Weight(tuple(F(0) for _ in range(rs.rank)))
    started = time.perf_counter()
    verdict = hom_principal_series(
        zero, identity(rs), -rs.rho, longest_element(rs), -rs.rho
    )
    elapsed = time.perf_counter() - started
    assert verdict.hom_nonzero and len(verdict.right_set) == 384
    assert elapsed < 5.0, f"B4 query took {elapsed:.2f}s >= 5s"


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
    e, s1 = identity(rs), simple_reflection(rs, 1)
    lam = rs.weight((F(1, 2), F(1, 2)))
    half = rs.weight((F(1, 2), 0))
    engine = Engine()
    # the right sides below reuse the memoized valid left side, so the
    # slot-2 checks run alone
    assert hom_principal_series(lam, e, lam, e, lam, engine).hom_nonzero
    assert hom_principal_series(rs.rho, e, rs.rho, e, rs.rho, engine).hom_nonzero
    invalid = [
        (PreconditionError, "normalize_principal_series",
         (-rs.rho, e, rs.rho, e, rs.rho)),
        (DomainError, "^w1 is not in the integral Weyl group", (lam, s1, lam, e, lam)),
        (DomainError, "^mu1 does not lie in lambda . .weight lattice",
         (rs.rho, e, half, e, rs.rho)),
        (DomainError, "^w2 is not in the integral Weyl group", (lam, e, lam, s1, lam)),
        (DomainError, "^mu2 does not lie in lambda . .weight lattice",
         (rs.rho, e, rs.rho, e, half)),
    ]
    for error, message, query in invalid:
        for _ in range(2):  # the memo never stores a raise
            with pytest.raises(error, match=message):
                hom_principal_series(*query, engine=engine)
    assert hom_principal_series(lam, e, lam, e, lam, engine).hom_nonzero


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


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_twisted_is_principal_series_over_rho_with_sides_swapped(name):
    # the twisted criterion is the principal-series construction over the
    # full system integral_data(rs, rho), at inverted twists, sides swapped;
    # rho is regular, so the right side's saturation adds nothing
    rs = build_root_system(name)
    group = enumerate_group(rs)
    mus = [rs.rho, rs.weight((0,) * rs.rank), -rs.rho]
    for w1, w2 in itertools.product(group, repeat=2):
        for mu1, mu2 in itertools.product(mus, repeat=2):
            tw = hom_twisted_verma(w1, mu1, w2, mu2)
            ps = hom_principal_series(rs.rho, inverse(w2), mu2, inverse(w1), mu1)
            assert (tw.left_set, tw.right_set) == (ps.right_set, ps.left_set)
            assert tw.witness == ps.witness, (str(w1), str(w2), mu1, mu2)


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


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_stabilizer_closure_equals_elementwise_saturation(name):
    # the right side is closed under the stabilizer's generating reflections;
    # the oracle applies every stabilizer element to every translated member
    rs = build_root_system(name)
    for lam in small_lams(rs):
        data = integral_data(rs, lam)
        group = integral_group_elements(data)
        # the orbit closure is the image under every group element
        assert orbit(rs, {lam}, data.simple_roots) == {w.act(lam) for w in group}
        assert orbit(rs, {lam}, rs.simple_roots) == {
            w.act(lam) for w in enumerate_group(rs)
        }
        if not data.dominant:
            continue
        stab = stabilizer_elements(data)
        for w2 in group:
            for mu2 in (lam, lam - rs.rho):
                translated = [inverse(w2).act(y)
                              for y in ascent_set(w2, mu2, data).elements]
                saturated = {u.act(y) for u in stab for y in translated}
                verdict = hom_principal_series(lam, w2, mu2, w2, mu2)
                assert verdict.right_set == saturated, (str(lam), str(w2), mu2)


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



def test_shared_right_side_builds_its_stabilizer_once(monkeypatch):
    # certificates of verdicts that share one saturated right side try the
    # side's stabilizer elements in matrix order; the side builds that sorted
    # group on its first certificate read and keeps it for every later read
    calls = []
    build = criteria.stabilizer_elements
    monkeypatch.setattr(criteria, "stabilizer_elements",
                        lambda data: calls.append(data) or build(data))
    rs = build_root_system("B2")
    lam, engine = rs.weight((0, 0)), Engine()
    verdicts = [
        hom_principal_series(lam, w1, rs.weight(mu1), identity(rs),
                             rs.weight((1, 1)), engine=engine)
        for w1 in enumerate_group(rs)
        for mu1 in [(-1, -1), (0, 0), (1, 1), (-2, 1), (1, -2)]
    ]
    nonzero = [v for v in verdicts if v.hom_nonzero]
    assert len(nonzero) == 24 and not calls
    for verdict in nonzero:
        assert verdict.certificates_dict()["right"]["stabilizer"]
    assert calls == [integral_data(rs, lam)]


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
