"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints one PASS line (visible with ``pytest -s`` or ``-rA``) after
all of its assertions hold; stated wall-clock budgets are asserted.
"""

import itertools
import json
import time
from fractions import Fraction as F

from vermahom.aset import ascent_set_word, replay_certificate
from vermahom.cli import main
from vermahom.criteria import hom_twisted_verma
from vermahom.integral import (
    in_integral_group,
    integral_data,
    integral_group_elements,
    reduce_parameters,
    stabilizer_elements,
)
from vermahom.oracle import (
    brute_force_ascent_set,
    brute_force_certificates,
    check_concatenation,
    check_invariances,
    check_oracle_agreement,
    check_word_independence,
)
from vermahom.rootsystem import Root, Weight, build_root_system
from vermahom.weyl import enumerate_group, identity, inverse, simple_reflection

INDEPENDENCE_TYPES = ("A2", "B2", "G2", "A3", "B3")


def _finish(num: int, label: str, started: float, budget: float = None):
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s >= {budget}s"
    print(f"ACCEPTANCE {num} {label}: PASS ({elapsed:.2f}s)")


def test_criterion_1_rank_one_twisted_verma():
    started = time.perf_counter()
    rs = build_root_system("A1")
    e = identity(rs)
    s = simple_reflection(rs, 1)
    values = [F(k) for k in range(-3, 4)] + [F(1, 2), F(-1, 2)]
    candidates = [Weight((F(k, 2),)) for k in range(-14, 15)]
    for m in values:
        mu2 = Weight((m,))
        expected = {mu2}
        if m.denominator == 1 and m > 0:
            expected.add(s.act(mu2))
        for mu1 in candidates:
            assert hom_twisted_verma(e, mu1, e, mu2).hom_nonzero == (
                mu1 in expected
            ), (m, mu1)
    _finish(1, "rank-one twisted-Verma closed form", started, budget=1.0)


def test_criterion_2_bgg_oracle_equivalence():
    started = time.perf_counter()
    for name, exhaustive in [("A1", 10_000), ("A2", 10_000), ("B2", 10_000),
                             ("A3", 1500)]:
        report = check_oracle_agreement(
            build_root_system(name), radius=2,
            max_exhaustive=exhaustive, random_pairs=1000, seed=2024,
        )
        assert report.passed, report.counterexample
        assert report.cases >= 1000
    _finish(2, "linkage-oracle equivalence", started, budget=60.0)


def test_criterion_3_reduced_word_independence():
    started = time.perf_counter()
    for name in INDEPENDENCE_TYPES:
        report = check_word_independence(build_root_system(name))
        assert report.passed, report.counterexample
    _finish(3, "reduced-word independence", started, budget=120.0)


def test_criterion_4_concatenation_identity():
    started = time.perf_counter()
    for name in INDEPENDENCE_TYPES:
        report = check_concatenation(build_root_system(name))
        assert report.passed, report.counterexample
    _finish(4, "concatenation identity", started)


def test_criterion_5_a2_worked_example():
    started = time.perf_counter()
    rs = build_root_system("A2")
    letters = (rs.simple_roots[0], rs.simple_roots[1], rs.simple_roots[0])
    low, high = rs.weight((-1, -1)), rs.weight((1, 1))
    # the values were recomputed by subsequence brute force before the
    # recursive implementation existed; both routes are checked here
    expected = frozenset({
        Weight((F(-1), F(-1))), Weight((F(1), F(-2))), Weight((F(1), F(1))),
        Weight((F(-2), F(1))), Weight((F(2), F(-1))), Weight((F(-1), F(2))),
    })
    result_low = ascent_set_word(rs, letters, low)
    assert result_low.elements == expected
    assert brute_force_ascent_set(rs, letters, low) == expected
    result_high = ascent_set_word(rs, letters, high)
    assert result_high.elements == frozenset({high})
    assert brute_force_ascent_set(rs, letters, high) == frozenset({high})
    for result, base in ((result_low, low), (result_high, high)):
        for element, cert in result.certificates.items():
            assert replay_certificate(rs, letters, base, cert) == element
    assert result_low.certificates == brute_force_certificates(rs, letters, low)
    _finish(5, "rank-two worked example", started)


def test_criterion_6_criterion_invariances():
    started = time.perf_counter()
    # reflexivity over the full rank <= 2 sweep, plus stabilizer and
    # exchange invariances (exhaustive for the singular weights below)
    a2 = build_root_system("A2")
    singular = [a2.weight((0, 1)), a2.weight((1, 0)), a2.weight((0, 0))]
    report = check_invariances(a2, lams=[a2.rho] + singular
                               + [a2.weight((F(1, 2), F(1, 2)))])
    assert report.passed, report.counterexample
    for name in ("A1", "B2", "G2"):
        report = check_invariances(build_root_system(name))
        assert report.passed, report.counterexample
    _finish(6, "criterion invariances", started, budget=60.0)


def test_criterion_7_parameter_reduction_postcondition():
    started = time.perf_counter()
    values = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(1, 3), F(-1, 3)]
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        for coords in itertools.product(values, repeat=rs.rank):
            lam = Weight(coords)
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
                assert lhs == rhs, (name, lam, str(w))
    _finish(7, "parameter reduction postcondition", started)


def test_criterion_8_integral_system_structure():
    started = time.perf_counter()
    values = [F(0), F(1), F(-1), F(1, 2), F(1, 3), F(1, 6), F(2, 5)]
    for name in ("A1", "A2", "B2", "G2", "A3", "B3", "C3"):
        rs = build_root_system(name)
        group = enumerate_group(rs)
        if rs.rank <= 2:
            lams = [Weight(c) for c in itertools.product(values, repeat=rs.rank)]
        else:
            lams = [Weight((a, b, c)) for a in values for b, c in
                    [(F(0), F(0)), (F(1), F(1)), (F(1, 2), F(1, 2)),
                     (F(1), F(1, 3)), (F(1, 2), F(1, 6))]]
        for lam in lams:
            data = integral_data(rs, lam)
            roots = data.root_set()
            # negation and reflection closure
            assert roots == {-r for r in roots}
            root_weights = {rs.root_as_weight(r) for r in roots}
            for a in roots:
                for b in roots:
                    image = rs.reflect(a, rs.root_as_weight(b))
                    assert image in root_weights
            # indecomposability characterizes the simple system
            pos = set(data.positive_roots)
            for p in pos:
                decomposable = any(
                    Root(tuple(x - y for x, y in zip(p.coords, q.coords))) in pos
                    for q in pos if q != p
                )
                assert decomposable == (p not in set(data.simple_roots))
            # subgroup membership coincides with the lattice condition
            subgroup = set(integral_group_elements(data))
            for w in group:
                assert in_integral_group(w, data) == (w in subgroup)
            # for dominant weights the stabilizer is generated as stated
            if rs.is_dominant(lam):
                assert set(stabilizer_elements(data)) == {
                    w for w in group if w.act(lam) == lam
                }
    _finish(8, "integral system structure", started)


def test_criterion_9_cli_determinism_and_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("VERMAHOM_CACHE_DIR", raising=False)
    started = time.perf_counter()

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    table_argv = ["table", "A2", "--mu-orbit", "(1,1)", "--w-all",
                  "--format", "json"]
    code, first = run(table_argv)
    assert code == 0
    payload = json.loads(first)
    # |W|^2 * |orbit|^2 bookkeeping: 36 * 36
    assert payload["row_count"] == 1296 == len(payload["rows"])
    code, second = run(table_argv)
    assert first == second

    hom_argv = ["hom-verma", "B2", "s1", "(1,1)", "s2", "(-1,2)",
                "--format", "json"]
    _, plain = run(hom_argv)
    _, cached_cold = run(hom_argv + ["--cache-dir", str(tmp_path)])
    _, cached_warm = run(hom_argv + ["--cache-dir", str(tmp_path)])
    _, no_cache = run(hom_argv + ["--cache-dir", str(tmp_path), "--no-cache"])
    _, verified = run(hom_argv + ["--cache-dir", str(tmp_path), "--verify-cache"])
    assert plain == cached_cold == cached_warm == no_cache == verified
    _finish(9, "CLI determinism and cache transparency", started)
