"""Weyl elements as root permutations against an integer-matrix reference.

A :class:`~vermahom.weyl.WeylElem` holds the permutation it induces on the
roots.  The references below are the matrix forms of the same operations, on
integer matrices acting on fundamental-weight coordinates: reflections from
the coroot, products, inverses, the image of a root, the action on a weight,
length and the first-descent peel.  Every result, and every order the
program prints in, must match them exactly.
"""

import random
from fractions import Fraction as F

import pytest

from vermahom.integral import in_integral_group, integral_data
from vermahom.rootsystem import Weight, build_root_system
from vermahom.weyl import (
    WeylElem,
    canonical_reduced_word,
    enumerate_group,
    format_word,
    from_word,
    identity,
    inverse,
    length,
    multiply,
    reflection,
)

TYPES = ["A1", "A2", "B2", "G2", "B3", "C3", "A1xG2", "D4"]


# -- the matrix reference ----------------------------------------------------


def ref_reflection(rs, beta):
    wc, vec, n = rs._weight_coords[beta], rs._coroot[beta], rs.rank
    return tuple(
        tuple((1 if j == k else 0) - wc[j] * vec[k] for k in range(n))
        for j in range(n)
    )


def ref_multiply(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def ref_identity(rs):
    n = rs.rank
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def ref_act_on_root(rs, m, beta):
    by_weight = {wc: r for r, wc in rs._weight_coords.items()}
    wc = rs._weight_coords[beta]
    return by_weight[tuple(sum(x * y for x, y in zip(row, wc)) for row in m)]


def ref_inverse(rs, m):
    return tuple(rs._coroot[ref_act_on_root(rs, m, a)] for a in rs.simple_roots)


def ref_act(m, mu):
    return Weight(tuple(
        sum((x * c for x, c in zip(row, mu.coords)), F(0)) for row in m))


def ref_length(rs, m):
    return sum(1 for b in rs.positive_roots
               if not ref_act_on_root(rs, m, b).is_positive)


def ref_canonical_word(rs, m):
    word, cur_inv = [], ref_inverse(rs, m)
    while True:
        for i, beta in enumerate(rs.simple_roots):
            if not ref_act_on_root(rs, cur_inv, beta).is_positive:
                word.append(i + 1)
                cur_inv = ref_multiply(cur_inv, ref_reflection(rs, beta))
                break
        else:
            return tuple(word)


def ref_group(rs):
    """Every matrix, breadth-first from the identity by right multiplication
    with the simple reflections: the order ``enumerate_group`` lists."""
    gens = [ref_reflection(rs, b) for b in rs.simple_roots]
    out = [ref_identity(rs)]
    seen = set(out)
    for m in out:
        for s in gens:
            p = ref_multiply(m, s)
            if p not in seen:
                seen.add(p)
                out.append(p)
    return out


def sample_weights(rs, count, seed):
    rng = random.Random(seed)
    pool = [F(n, d) for d in (1, 2, 3) for n in range(-4, 5)]
    return [Weight(tuple(rng.choice(pool) for _ in range(rs.rank)))
            for _ in range(count)]


# -- element by element ------------------------------------------------------


@pytest.mark.parametrize("name", TYPES)
def test_group_matches_matrix_reference(name):
    rs = build_root_system(name)
    group = enumerate_group(rs)
    matrices = ref_group(rs)
    assert [w.matrix for w in group] == matrices
    mus = sample_weights(rs, 4, seed=len(name))
    for w, m in zip(group, matrices):
        assert inverse(w).matrix == ref_inverse(rs, m)
        assert length(w) == ref_length(rs, m)
        assert [w.act_on_root(b) for b in rs.roots] == [
            ref_act_on_root(rs, m, b) for b in rs.roots]
        assert [w.act(mu) for mu in mus] == [ref_act(m, mu) for mu in mus]
        assert canonical_reduced_word(w) == ref_canonical_word(rs, m)
        assert str(w) == format_word(ref_canonical_word(rs, m))
    for beta in rs.roots:
        assert reflection(rs, beta).matrix == ref_reflection(rs, beta)


@pytest.mark.parametrize("name", TYPES)
def test_products_match_matrix_reference(name):
    rs = build_root_system(name)
    group = enumerate_group(rs)
    matrices = {w: w.matrix for w in group}
    for u in group:
        for v in group:
            assert multiply(u, v).matrix == ref_multiply(matrices[u], matrices[v])


@pytest.mark.parametrize("name", TYPES)
def test_equality_and_hash_follow_the_matrix(name):
    rs = build_root_system(name)
    group = enumerate_group(rs)
    assert len(set(group)) == len({w.matrix for w in group}) == len(group)
    rng = random.Random(0)
    for _ in range(200):
        word = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 12))]
        u = from_word(rs, word)
        twin = next(w for w in group if w.matrix == u.matrix)
        assert u == twin and hash(u) == hash(twin) and u is not twin
    for u in group[:24]:
        for v in group:
            assert (u == v) == (u.matrix == v.matrix)


@pytest.mark.parametrize("name", ["A2", "G2", "B3", "A1xG2"])
def test_matrix_order_is_unchanged(name):
    # the table sort, _Side.stabilizer and the oracle sort on .matrix
    rs = build_root_system(name)
    group = enumerate_group(rs)
    assert [w.matrix for w in sorted(group, key=lambda w: w.matrix)] == sorted(
        ref_group(rs))


def test_sampled_f4_matches_matrix_reference():
    rs = build_root_system("F4")
    rng = random.Random(4)

    def sample():
        word = [rng.randint(1, 4) for _ in range(rng.randint(0, 30))]
        m = ref_identity(rs)
        for i in word:
            m = ref_multiply(m, ref_reflection(rs, rs.simple_roots[i - 1]))
        return from_word(rs, word), m

    mus = sample_weights(rs, 3, seed=4)
    for _ in range(150):
        (u, a), (v, b) = sample(), sample()
        assert u.matrix == a and v.matrix == b
        assert multiply(u, v).matrix == ref_multiply(a, b)
        assert inverse(u).matrix == ref_inverse(rs, a)
        assert length(u) == ref_length(rs, a)
        assert [u.act(mu) for mu in mus] == [ref_act(a, mu) for mu in mus]
        assert [u.act_on_root(r) for r in rs.positive_roots] == [
            ref_act_on_root(rs, a, r) for r in rs.positive_roots]
        assert (u == v) == (a == b)


def test_elements_are_slotted():
    rs = build_root_system("B2")
    for w in (identity(rs), reflection(rs, rs.simple_roots[0]),
              enumerate_group(rs)[-1]):
        assert isinstance(w, WeylElem)
        assert not hasattr(w, "__dict__")
        assert isinstance(w.perm, bytes)


@pytest.mark.parametrize("name, kind", [
    ("E8", bytes), ("A15", bytes), ("A16", tuple), ("B12", tuple)])
def test_systems_past_256_roots_hold_tuples(name, kind):
    # a root index past 255 does not fit in a byte
    rs = build_root_system(name)
    assert (len(rs.roots) > 256) == (kind is tuple)
    rng = random.Random(len(rs.roots))
    for _ in range(4):
        word = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 12))]
        u, m = from_word(rs, word), ref_identity(rs)
        for i in word:
            m = ref_multiply(m, ref_reflection(rs, rs.simple_roots[i - 1]))
        assert type(u.perm) is kind and type(inverse(u).perm) is kind
        assert u.matrix == m and inverse(u).matrix == ref_inverse(rs, m)
        assert length(u) == ref_length(rs, m)
        assert multiply(u, inverse(u)).is_identity
        assert in_integral_group(u, integral_data(rs, rs.rho))
    data = integral_data(rs, rs.rho)
    assert length(data.longest_element) == len(rs.positive_roots)


def test_root_index_puts_positive_roots_first():
    for name in TYPES + ["F4", "E8"]:
        rs = build_root_system(name)
        npos = len(rs.positive_roots)
        assert rs.indexed_roots[:npos] == rs.positive_roots
        assert rs.indexed_roots[npos:] == tuple(-r for r in rs.positive_roots)
        assert all(rs.indexed_roots[k] == r for r, k in rs.root_index.items())
        assert len(rs.root_index) == len(rs.roots) == 2 * npos


# -- membership by the descent peel ------------------------------------------


def membership_lambdas(rs, seed):
    """At least 30 weights: regular and singular integral ones, and
    non-integral ones over denominators 2 and 3, partly integral."""
    rng = random.Random(seed)
    n = rs.rank
    lams = {rs.rho, Weight((F(0),) * n), -rs.rho}
    pools = [
        [F(k) for k in range(-3, 4)],
        [F(k, 2) for k in range(-5, 6)],
        [F(k, 3) for k in range(-5, 6)],
        [F(0), F(1), F(1, 2), F(-1, 3), F(2, 3), F(-3, 2)],
    ]
    while len(lams) < 34:
        pool = pools[len(lams) % len(pools)]
        lams.add(Weight(tuple(rng.choice(pool) for _ in range(n))))
    return sorted(lams)


def lambda_kinds(rs, lams):
    kinds = set()
    for lam in lams:
        data = integral_data(rs, lam)
        if len(data.positive_roots) < len(rs.positive_roots):
            kinds.add(("non-integral", max(c.denominator for c in lam.coords)))
        elif any(rs.pairing(b, lam) == 0 for b in rs.positive_roots):
            kinds.add("singular")
        else:
            kinds.add("regular")
    return kinds


@pytest.mark.parametrize("name", ["B3", "C3", "G2", "A4"])
def test_peel_membership_matches_root_lattice(name):
    rs = build_root_system(name)
    lams = membership_lambdas(rs, seed=len(rs.roots))
    assert len(lams) >= 30
    assert {"regular", "singular", ("non-integral", 2),
            ("non-integral", 3)} <= lambda_kinds(rs, lams)
    members = 0
    for lam in lams:
        data = integral_data(rs, lam)
        for w in enumerate_group(rs):
            peel = in_integral_group(w, data)
            assert peel == rs.in_root_lattice(w.act(lam) - lam), (lam, w)
            members += peel
    assert 0 < members < len(lams) * len(enumerate_group(rs))


def test_peel_membership_matches_root_lattice_sampled_b4():
    rs = build_root_system("B4")
    group = enumerate_group(rs)
    elements = random.Random(8).sample(group, 96)
    for lam in membership_lambdas(rs, seed=4):
        data = integral_data(rs, lam)
        for w in elements:
            assert in_integral_group(w, data) == rs.in_root_lattice(
                w.act(lam) - lam), (lam, w)
