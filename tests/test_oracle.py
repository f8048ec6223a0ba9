import dataclasses
import itertools
import random
import time
from fractions import Fraction as F

import pytest

from vermahom import oracle
from vermahom.aset import ascent_set_word
from vermahom.errors import DomainError
from vermahom.oracle import (
    LinkageChain,
    bgg_verma_hom,
    brute_force_ascent_set,
    check_concatenation,
    check_invariances,
    check_oracle_agreement,
    check_word_independence,
    default_weight_grid,
    run_selfcheck,
    validate_chain,
)
from vermahom.rootsystem import Weight, build_root_system
from vermahom.weyl import enumerate_group, identity, longest_element


def test_bgg_identity():
    rs = build_root_system("A2")
    ok, chain = bgg_verma_hom(rs, rs.rho, rs.rho)
    assert ok and chain.steps == ()


def test_bgg_rank_one_reachability():
    rs = build_root_system("A1")
    mu2 = rs.weight((3,))
    reachable = {
        mu1
        for mu1 in (Weight((F(k),)) for k in range(-6, 7))
        if bgg_verma_hom(rs, mu1, mu2)[0]
    }
    assert reachable == {mu2, rs.weight((-3,))}


def test_bgg_orbit_of_rho_is_fully_linked():
    rs = build_root_system("A2")
    orbit = {w.act(rs.rho) for w in enumerate_group(rs)}
    reachable = {mu for mu in orbit if bgg_verma_hom(rs, mu, rs.rho)[0]}
    assert reachable == orbit


def test_chains_revalidate():
    rs = build_root_system("B2")
    mu2 = rs.weight((2, 1))
    for w in enumerate_group(rs):
        mu1 = w.act(mu2)
        ok, chain = bgg_verma_hom(rs, mu1, mu2)
        if ok:
            validate_chain(rs, chain)
            assert chain.start == mu2
            assert chain.end == mu1


def test_validate_chain_rejects_bad_step():
    rs = build_root_system("A1")
    bad = LinkageChain(start=rs.weight((-1,)), steps=((rs.simple_roots[0], rs.weight((1,))),))
    with pytest.raises(DomainError):
        validate_chain(rs, bad)


def test_brute_force_matches_frozen_example():
    rs = build_root_system("A2")
    letters = (rs.simple_roots[0], rs.simple_roots[1], rs.simple_roots[0])
    result = brute_force_ascent_set(rs, letters, rs.weight((-1, -1)))
    assert len(result) == 6


def test_default_grid_mixes_integrality_patterns():
    rs = build_root_system("B2")
    grid = default_weight_grid(rs)
    assert any(w.is_integral() for w in grid)
    assert any(not w.is_integral() for w in grid)
    assert len(grid) == len(set(grid))


def test_word_independence_passes_a2():
    report = check_word_independence(build_root_system("A2"))
    assert report.passed and report.cases > 0
    assert report.counterexample is None


def test_corrupted_aset_fn_is_caught():
    # harness self-test: a mutated ascent-set computation must produce a
    # counterexample report, not a pass
    def corrupted(rs, letters, mu, context=None):
        result = ascent_set_word(rs, letters, mu, context)
        if len(result.elements) > 1 and len(letters) == 2:
            trimmed = frozenset(sorted(result.elements)[:-1])
            return dataclasses.replace(result, elements=trimmed)
        return result

    report = check_word_independence(build_root_system("A2"), aset_fn=corrupted)
    report2 = check_concatenation(build_root_system("A2"), aset_fn=corrupted)
    assert not report.passed or not report2.passed
    failing = report if not report.passed else report2
    assert failing.counterexample


def test_concatenation_check_passes():
    for name in ("A2", "B2"):
        report = check_concatenation(build_root_system(name))
        assert report.passed, report.counterexample


def test_invariances_pass_a1():
    report = check_invariances(build_root_system("A1"))
    assert report.passed, report.counterexample


def test_oracle_agreement_small():
    report = check_oracle_agreement(
        build_root_system("A2"), radius=1, max_exhaustive=81, random_pairs=40
    )
    assert report.passed, report.counterexample


@pytest.mark.parametrize("twist", [("w0", "w0"), ("e", "w0")])
def test_oracle_agreement_catches_a_criterion_wrong_only_at_w0(monkeypatch, twist):
    rs = build_root_system("A2")
    named = {"e": identity(rs), "w0": longest_element(rs)}
    bad = tuple(named[t] for t in twist)
    real = oracle.hom_twisted_verma

    def wrong_at_twist(w1, mu1, w2, mu2, engine=None):
        verdict = real(w1, mu1, w2, mu2, engine)
        if (w1, w2) == bad:
            return dataclasses.replace(verdict, hom_nonzero=not verdict.hom_nonzero)
        return verdict

    monkeypatch.setattr(oracle, "hom_twisted_verma", wrong_at_twist)
    report = check_oracle_agreement(rs, radius=1, random_pairs=10)
    assert not report.passed
    assert f"w1={bad[0]}" in report.counterexample
    assert f"w2={bad[1]}" in report.counterexample


def test_oracle_agreement_samples_the_box_without_building_it(monkeypatch):
    rs = build_root_system("A2")
    seen = []
    real = oracle.hom_twisted_verma

    def record(w1, mu1, w2, mu2, engine=None):
        if w1.is_identity and w2.is_identity:
            seen.append((mu1, mu2))
        return real(w1, mu1, w2, mu2, engine)

    monkeypatch.setattr(oracle, "hom_twisted_verma", record)
    check_oracle_agreement(rs, radius=2, max_exhaustive=50, random_pairs=0)
    coords = [F(c) for c in range(-2, 3)]
    box = [Weight(t) for t in itertools.product(coords, repeat=2)]
    expected = random.Random(0).sample(list(itertools.product(box, repeat=2)), 50)
    assert seen == expected
    # (2 * 10**6 + 1)**4 pairs: only the sampled ones are ever built
    start = time.perf_counter()
    report = check_oracle_agreement(rs, radius=10**6, max_exhaustive=20,
                                    random_pairs=0)
    assert report.passed and report.cases == 60
    assert time.perf_counter() - start < 10


def test_reports_are_deterministic():
    rs = build_root_system("A2")
    a = check_oracle_agreement(rs, radius=1, random_pairs=25, seed=7)
    b = check_oracle_agreement(rs, radius=1, random_pairs=25, seed=7)
    assert a == b


def test_run_selfcheck_rank_one():
    reports = run_selfcheck(types=["A1"], grid_radius=1)
    assert reports and all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert names == {
        "word-independence", "concatenation", "invariances", "oracle-agreement",
    }
