"""Independent brute-force validators backing the property suites.

Three kinds of oracle live here: the classical strong-linkage search for
homomorphisms between plain Verma modules (breadth-first over descending
integer reflections), a direct subsequence enumeration of ascent sets
straight from the definition, and structured sweep checks (reduced-word
independence, the concatenation identity, criterion invariances, oracle
agreement) used by both the test suite and the ``selfcheck`` CLI command.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .aset import ascent_set_word, inversion_sequence
from .criteria import hom_principal_series, hom_twisted_verma
from .errors import DomainError, ValidationError
from .integral import integral_data, integral_group_elements, stabilizer_elements
from .rootsystem import Root, RootSystem, RootSystemSpec, Weight, build_root_system
from .weyl import (
    all_reduced_words,
    canonical_reduced_word,
    enumerate_group,
    identity,
    inverse,
    length,
    longest_element,
    multiply,
    reflection,
    simple_reflection,
)

# check_invariances strides its (w1, w2) pairs when the stabilizer-invariance
# sweep would exceed this many cases
STABILIZER_BUDGET = 60_000


@dataclass(frozen=True)
class LinkageChain:
    """A descending reflection chain certifying a Verma-module embedding.

    Each step records the root reflected through and the resulting weight;
    every reflection happens at a point whose pairing with the root is a
    positive integer, so each step subtracts a positive multiple of a
    positive root.
    """

    start: Weight
    steps: tuple[tuple[Root, Weight], ...]

    @property
    def end(self) -> Weight:
        return self.steps[-1][1] if self.steps else self.start


def bgg_verma_hom(
    rs: RootSystem, mu1: Weight, mu2: Weight
) -> tuple[bool, Optional[LinkageChain]]:
    """Classical strong-linkage criterion for Hom(M(mu1), M(mu2)) != 0.

    True iff ``mu1`` is reachable from ``mu2`` by reflections in positive
    roots, each applied where the coroot pairing is a positive integer.
    Breadth-first search over the (finite) reachable set; returns a replayable
    chain certificate on success.
    """
    if mu1 == mu2:
        return True, LinkageChain(start=mu2, steps=())
    parents: dict[Weight, Optional[tuple[Weight, Root]]] = {mu2: None}
    frontier = [mu2]
    while frontier:
        nxt = []
        for nu in frontier:
            for beta in rs.positive_roots:
                p = rs.pairing(beta, nu)
                if p.denominator == 1 and p > 0:
                    img = rs.reflect(beta, nu)
                    if img not in parents:
                        parents[img] = (nu, beta)
                        if img == mu1:
                            return True, _chain_from(parents, mu2, mu1)
                        nxt.append(img)
        frontier = nxt
    return False, None


def _chain_from(parents, start: Weight, end: Weight) -> LinkageChain:
    steps = []
    cur = end
    while cur != start:
        prev, beta = parents[cur]
        steps.append((beta, cur))
        cur = prev
    steps.reverse()
    return LinkageChain(start=start, steps=tuple(steps))


def validate_chain(rs: RootSystem, chain: LinkageChain) -> None:
    """Replay a linkage chain; raises :class:`DomainError` on a bad step."""
    cur = chain.start
    for beta, result in chain.steps:
        p = rs.pairing(beta, cur)
        if not (p.denominator == 1 and p > 0):
            raise DomainError(f"chain step at {cur} has pairing {p}, not a "
                              "positive integer")
        cur = rs.reflect(beta, cur)
        if cur != result:
            raise DomainError("chain step result does not replay")


def brute_force_ascent_set(
    rs: RootSystem, letters: Sequence[Root], mu: Weight
) -> frozenset[Weight]:
    """Ascent set by enumerating all subsequences, straight from the
    definition; exponential in the word length, for cross-checking only."""
    return frozenset(brute_force_certificates(rs, letters, mu))


def brute_force_certificates(
    rs: RootSystem, letters: Sequence[Root], mu: Weight
) -> dict[Weight, tuple[int, ...]]:
    """All ascent-set members with their lexicographically smallest
    admissible subsequences, by direct enumeration."""
    betas = inversion_sequence(rs, letters)
    n = len(betas)
    out: dict[Weight, tuple[int, ...]] = {}
    for r in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), r):
            cur = mu
            ok = True
            for pos in combo:
                p = rs.pairing(betas[pos - 1], cur)
                if not (p.denominator == 1 and p < 0):
                    ok = False
                    break
                cur = rs.reflect(betas[pos - 1], cur)
            if ok and (cur not in out or combo < out[cur]):
                out[cur] = combo
    return out


# -- sweep reports ---------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sweep: case count, verdict, first counterexample."""

    name: str
    subject: str
    cases: int
    passed: bool
    counterexample: Optional[str] = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{status} {self.name} [{self.subject}] cases={self.cases}"
        if self.counterexample:
            msg += f" counterexample: {self.counterexample}"
        return msg


def default_weight_grid(rs: RootSystem) -> tuple[Weight, ...]:
    """A small deterministic grid: integral, half/third-integral, and
    rational weights whose pairings avoid the integers entirely."""
    n = rs.rank
    F = Fraction
    raw = [
        tuple(F(1) for _ in range(n)),                      # regular dominant
        tuple(F(-1) for _ in range(n)),                     # regular antidominant
        tuple(F(0) for _ in range(n)),                      # fully singular
        tuple(F(1) if i == 0 else F(0) for i in range(n)),  # singular mixed
        tuple(F(i - 1) for i in range(n)),                  # asymmetric integral
        tuple(F(1, 2) for _ in range(n)),                   # half-integral
        tuple(F(1, 3) if i % 2 else F(1) for i in range(n)),
        tuple(F(2 * i + 1, 7) for i in range(n)),           # integrality-free
    ]
    seen = []
    for coords in raw:
        w = Weight(coords)
        if w not in seen:
            seen.append(w)
    return tuple(seen)


def random_weight(rng: random.Random, rank: int) -> Weight:
    denominators = (1, 1, 1, 2, 2, 3)
    return Weight(tuple(
        Fraction(rng.randint(-4, 4), rng.choice(denominators))
        for _ in range(rank)
    ))


def _letters(rs: RootSystem, word: Sequence[int]) -> tuple[Root, ...]:
    return tuple(rs.simple_roots[i - 1] for i in word)


AsetFn = Callable[..., object]


def check_word_independence(
    rs: RootSystem, aset_fn: Optional[AsetFn] = None
) -> CheckReport:
    """Every reduced word of every element yields the same ascent set."""
    weights = default_weight_grid(rs)
    fn = aset_fn or ascent_set_word
    cases = 0
    for w in enumerate_group(rs):
        words = sorted(all_reduced_words(w))
        letter_words = [_letters(rs, word) for word in words]
        for mu in weights:
            sets = {fn(rs, lw, mu).elements for lw in letter_words}
            cases += len(letter_words)
            if len(sets) != 1:
                return CheckReport(
                    "word-independence", str(rs), cases, False,
                    f"w={w} mu={mu}: {len(sets)} distinct ascent sets",
                )
    return CheckReport("word-independence", str(rs), cases, True)


def check_concatenation(
    rs: RootSystem, aset_fn: Optional[AsetFn] = None
) -> CheckReport:
    """Splitting a word into two blocks satisfies the union identity.

    For every split point of every canonical word: the ascent set of the
    whole word equals the union, over members of the first block's set, of
    the first-block translate of the second block's set at the pulled-back
    member.
    """
    weights = default_weight_grid(rs)
    fn = aset_fn or ascent_set_word
    cases = 0
    for w in enumerate_group(rs):
        letters = _letters(rs, canonical_reduced_word(w))
        for mu in weights:
            full = fn(rs, letters, mu).elements
            for k in range(len(letters) + 1):
                block1, block2 = letters[:k], letters[k:]
                w1 = identity(rs)
                for alpha in block1:
                    w1 = multiply(w1, reflection(rs, alpha))
                w1_inv = inverse(w1)
                union = set()
                for x in fn(rs, block1, mu).elements:
                    union.update(
                        w1.act(y)
                        for y in fn(rs, block2, w1_inv.act(x)).elements
                    )
                cases += 1
                if frozenset(union) != full:
                    return CheckReport(
                        "concatenation", str(rs), cases, False,
                        f"w={w} mu={mu} split={k}",
                    )
    return CheckReport("concatenation", str(rs), cases, True)


def _integral_offsets(rs: RootSystem) -> list[Weight]:
    n = rs.rank
    offsets = [tuple(0 for _ in range(n))]
    for i in range(n):
        offsets.append(tuple(1 if j == i else 0 for j in range(n)))
        offsets.append(tuple(-1 if j == i else 0 for j in range(n)))
    offsets.append(tuple(1 for _ in range(n)))
    offsets.append(tuple(-1 for _ in range(n)))
    return [Weight(tuple(Fraction(c) for c in o)) for o in offsets]


def check_invariances(
    rs: RootSystem,
    lams: Optional[Sequence[Weight]] = None,
) -> CheckReport:
    """Criterion invariances: reflexivity, stabilizer invariance, and the
    ascent-exchange invariance of the twisted-Verma criterion."""
    n = rs.rank
    F = Fraction
    if lams is None:
        lams = [
            Weight(tuple(F(1) for _ in range(n))),
            Weight(tuple(F(0) for _ in range(n))),
            Weight(tuple(F(1) if i == 0 else F(0) for i in range(n))),
            Weight(tuple(F(0) if i == 0 else F(1) for i in range(n))),
            Weight(tuple(F(1, 2) for _ in range(n))),
        ]
    lams = [lam for lam in lams if rs.is_dominant(lam)]
    offsets = _integral_offsets(rs)
    cases = 0

    # reflexivity: every valid self-query has a nonzero endomorphism
    for lam in lams:
        data = integral_data(rs, lam)
        shifted = [lam + off for off in offsets]
        for w in integral_group_elements(data):
            for mu in shifted:
                cases += 1
                if not hom_principal_series(lam, w, mu, w, mu).hom_nonzero:
                    return CheckReport(
                        "invariances", str(rs), cases, False,
                        f"reflexivity fails: lam={lam} w={w} mu={mu}",
                    )

    # stabilizer invariance: verdicts ignore right-multiplying either slot
    # by elements fixing lam; the (w1, w2) product is strided when the full
    # sweep would exceed the case budget (A-rank-2 groups stay exhaustive)
    mus = offsets[: 2 * n + 1]
    for lam in lams:
        if not lam.is_integral():
            continue
        data = integral_data(rs, lam)
        stab = stabilizer_elements(data)
        if len(stab) == 1:
            continue
        group = integral_group_elements(data)
        total = (len(group) * len(mus) * len(stab)) ** 2
        stride = max(1, -(-total // STABILIZER_BUDGET))
        shifted = [lam + mu for mu in mus]
        times_stab = {w: [(u, multiply(w, u)) for u in stab] for w in group}
        for idx, (w1, w2) in enumerate(itertools.product(group, repeat=2)):
            if idx % stride:
                continue
            for nu1, nu2 in itertools.product(shifted, repeat=2):
                base = hom_principal_series(lam, w1, nu1, w2, nu2).hom_nonzero
                for (u, w1u), (v, w2v) in itertools.product(
                    times_stab[w1], times_stab[w2]
                ):
                    cases += 1
                    got = hom_principal_series(lam, w1u, nu1, w2v, nu2).hom_nonzero
                    if got != base:
                        return CheckReport(
                            "invariances", str(rs), cases, False,
                            f"stabilizer invariance fails: lam={lam} "
                            f"w1={w1} u={u} w2={w2} v={v}",
                        )

    # exchange invariance of the twisted-Verma criterion in both slots
    exchange_cases, counterexample = _check_exchange_invariance(rs)
    cases += exchange_cases
    if counterexample is not None:
        return CheckReport("invariances", str(rs), cases, False, counterexample)
    return CheckReport("invariances", str(rs), cases, True)


def _crit(w1, mu1, w2, mu2, w0) -> bool:
    return hom_twisted_verma(
        multiply(inverse(w1), w0), w0.act(mu1),
        multiply(inverse(w2), w0), w0.act(mu2),
    ).hom_nonzero


def _check_exchange_invariance(rs: RootSystem) -> tuple[int, Optional[str]]:
    """For an ascent of either slot's group element, exchanging the simple
    reflection between the element and the weight (under the appropriate
    integrality exclusion) must not change the verdict."""
    w0 = longest_element(rs)
    group = enumerate_group(rs)
    grid = _integral_offsets(rs)
    fixed = [(identity(rs), rs.rho), (w0, -rs.rho)]
    cases = 0
    for w in group:
        for i, alpha in enumerate(rs.simple_roots):
            s = simple_reflection(rs, i + 1)
            if length(multiply(s, w)) <= length(w):
                continue
            for mu in grid:
                p = rs.pairing(alpha, mu)
                not_neg = not (p.denominator == 1 and p < 0)
                not_pos = not (p.denominator == 1 and p > 0)
                for w_other, mu_other in fixed:
                    if not_neg:
                        cases += 1
                        lhs = _crit(w_other, mu_other, multiply(s, w), mu, w0)
                        rhs = _crit(w_other, mu_other, w, s.act(mu), w0)
                        if lhs != rhs:
                            return cases, (
                                f"second-slot exchange fails: w={w} "
                                f"alpha={alpha} mu={mu}"
                            )
                    if not_pos:
                        cases += 1
                        lhs = _crit(multiply(s, w), s.act(mu), w_other, mu_other, w0)
                        rhs = _crit(w, mu, w_other, mu_other, w0)
                        if lhs != rhs:
                            return cases, (
                                f"first-slot exchange fails: w={w} "
                                f"alpha={alpha} mu={mu}"
                            )
    return cases, None


def check_oracle_agreement(
    rs: RootSystem,
    radius: int = 2,
    max_exhaustive: int = 1000,
    random_pairs: int = 200,
    seed: int = 0,
) -> CheckReport:
    """The twisted-Verma criterion agrees with three closed forms, on an
    integral box and random rational weights.

    At the identity twists it agrees with the strong-linkage search for
    ``Hom(M(mu1), M(mu2))``.  Twisting by ``w0`` gives dual Verma modules and
    duality reverses Hom, so at ``(w0, w0)`` it agrees with the search for
    ``Hom(M(w0 mu2), M(w0 mu1))``.  A Verma module maps to a dual Verma
    module only at equal highest weights, so at ``(e, w0)`` it holds iff
    ``mu1 == w0 mu2``.
    """
    rng = random.Random(seed)
    side, rank = max(0, 2 * radius + 1), rs.rank  # a negative radius: no box
    total = side ** (2 * rank)  # box pairs, indexed in itertools.product order
    if total <= max_exhaustive:
        picks = range(total)
    elif total <= sys.maxsize:
        picks = rng.sample(range(total), max_exhaustive)
    else:  # too long for len(range): the draws sample makes for large sets
        chosen: dict[int, None] = {}
        while len(chosen) < max_exhaustive:
            chosen.setdefault(rng.randrange(total))
        picks = list(chosen)
    pairs = []  # only the picked pairs are built, whatever the radius
    for i in picks:
        c = [Fraction(i // side ** k % side - radius) for k in range(2 * rank)][::-1]
        pairs.append((Weight(tuple(c[:rank])), Weight(tuple(c[rank:]))))
    for _ in range(random_pairs):
        pairs.append((random_weight(rng, rs.rank), random_weight(rng, rs.rank)))
    e, w0 = identity(rs), longest_element(rs)
    cases = 0
    for mu1, mu2 in pairs:
        linked, chain = bgg_verma_hom(rs, mu1, mu2)
        dual, dual_chain = bgg_verma_hom(rs, w0.act(mu2), w0.act(mu1))
        for x1, x2, expected, form in (
            (e, e, linked, "linkage"),
            (w0, w0, dual, "reversed linkage at w0"),
            (e, w0, mu1 == w0.act(mu2), "mu1 == w0 mu2"),
        ):
            cases += 1
            criterion = hom_twisted_verma(x1, mu1, x2, mu2).hom_nonzero
            if criterion != expected:
                return CheckReport(
                    "oracle-agreement", str(rs), cases, False,
                    f"w1={x1} mu1={mu1} w2={x2} mu2={mu2}: "
                    f"criterion={criterion} {form}={expected}",
                )
        for c in (chain, dual_chain):
            if c is not None:
                validate_chain(rs, c)
    return CheckReport("oracle-agreement", str(rs), cases, True)


def run_selfcheck(
    types: Optional[Sequence[Union[str, RootSystemSpec]]] = None,
    rank_bound: Optional[int] = None,
    grid_radius: int = 2,
    seed: int = 0,
) -> list[CheckReport]:
    """Run every sweep over ``types``, by default the small-rank systems of
    rank at most ``rank_bound`` (3 when not given); deterministic.  A given
    ``rank_bound`` also bounds the given ``types``: one of higher rank raises
    :class:`ValidationError` before any sweep."""
    if types is None:
        bound = 3 if rank_bound is None else rank_bound
        systems = [rs for rs in map(build_root_system,
                                    ("A1", "A2", "B2", "G2", "A3", "B3"))
                   if rs.rank <= bound]
        if not systems:  # a sweep over nothing would pass without a check
            raise ValidationError(f"rank bound {bound} is below the rank "
                                  "of every default type")
    else:
        systems = [build_root_system(name) for name in types]
        for rs in systems:
            if rank_bound is not None and rs.rank > rank_bound:
                raise ValidationError(f"type {rs.spec} has rank {rs.rank}, "
                                      f"above the rank bound {rank_bound}")
    reports = []
    for rs in systems:
        reports.append(check_word_independence(rs))
        reports.append(check_concatenation(rs))
        reports.append(check_invariances(rs))
        reports.append(check_oracle_agreement(
            rs, radius=grid_radius, max_exhaustive=400, random_pairs=100,
            seed=seed,
        ))
    return reports
