"""Ascent sets: weights reachable along a word by integer-descent reflections.

Given a word of simple roots (of the full system or of an integral
subsystem) and a weight ``mu``, the ascent set collects every weight
obtained by choosing a subsequence of the word's inversion sequence and
reflecting through those roots in order, where each reflection is only
admissible if the coroot pairing at that point is a negative integer.  The
empty subsequence is always admissible, so ``mu`` itself is always a member.

The computation peels the word from the left:

    A(first :: rest)(mu) = s . A(rest)(s mu)  union
                           s . A(rest)(mu)    when <first^, mu> in Z_{<0},

where ``s`` is the reflection in the first letter.  Results are memoized on
(suffix position, weight) within one top-level call; a bounded whole-result
cache sits on top.  Each member carries a certificate: the lexicographically
smallest admissible subsequence (1-based positions into the word), which
replays independently against the definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import DomainError
from .integral import IntegralData, all_integral_words, canonical_integral_word
from .rootsystem import Root, RootSystem, Weight
from .weyl import DEFAULT_WORD_LENGTH_BOUND, WeylElem, identity, multiply, reflection


@dataclass(frozen=True)
class AscentSet:
    """The result of one ascent-set computation.

    ``certificates`` maps each member to one admissible subsequence of word
    positions realizing it.  Instances are shared through caches, so the
    mapping is a read-only view.
    """

    word: tuple[Root, ...]
    base: Weight
    elements: frozenset[Weight]
    certificates: Mapping[Weight, tuple[int, ...]] = field(compare=False)

    def __len__(self) -> int:
        return len(self.elements)


def inversion_sequence(rs: RootSystem, letters: Sequence[Root]) -> tuple[Root, ...]:
    """The roots reflected through at each word position.

    Position ``i`` contributes the image of the ``i``-th letter under the
    product of the reflections in the earlier letters.
    """
    out = []
    prefix = identity(rs)
    for alpha in letters:
        out.append(prefix.act_on_root(alpha))
        prefix = multiply(prefix, reflection(rs, alpha))
    return tuple(out)


def replay_certificate(
    rs: RootSystem, letters: Sequence[Root], mu: Weight, positions: Sequence[int]
) -> Weight:
    """Replay a subsequence certificate against the defining chain condition.

    Raises :class:`DomainError` if any step's pairing is not a negative
    integer; otherwise returns the resulting weight.
    """
    betas = inversion_sequence(rs, letters)
    cur = mu
    for pos in positions:
        if not 1 <= pos <= len(betas):
            raise DomainError(f"certificate position {pos} outside the word")
        p = rs.pairing(betas[pos - 1], cur)
        if not (p.denominator == 1 and p < 0):
            raise DomainError(
                f"chain condition fails at position {pos}: pairing {p} is not "
                "a negative integer"
            )
        cur = rs.reflect(betas[pos - 1], cur)
    return cur


def _suffix_sets(
    rs: RootSystem,
    letters: tuple[Root, ...],
    k: int,
    nu: Weight,
    memo: dict,
) -> dict[Weight, tuple[int, ...]]:
    if k == len(letters):
        return {nu: ()}
    key = (k, nu)
    cached = memo.get(key)
    if cached is not None:
        return cached
    alpha = letters[k]
    out: dict[Weight, tuple[int, ...]] = {}
    for x, cert in _suffix_sets(rs, letters, k + 1, rs.reflect(alpha, nu), memo).items():
        out[rs.reflect(alpha, x)] = cert
    p = rs.pairing(alpha, nu)
    if p.denominator == 1 and p < 0:
        for x, cert in _suffix_sets(rs, letters, k + 1, nu, memo).items():
            y = rs.reflect(alpha, x)
            c = (k + 1,) + cert
            if y not in out or c < out[y]:
                out[y] = c
    memo[key] = out
    return out


@lru_cache(maxsize=16384)
def _ascent_set_cached(
    rs: RootSystem, letters: tuple[Root, ...], mu: Weight
) -> AscentSet:
    table = _suffix_sets(rs, letters, 0, mu, {})
    return AscentSet(
        word=letters,
        base=mu,
        elements=frozenset(table),
        certificates=MappingProxyType(dict(sorted(table.items()))),
    )


def ascent_set_word(
    rs: RootSystem,
    letters: Sequence[Root],
    mu: Weight,
    context: Optional[IntegralData] = None,
) -> AscentSet:
    """Ascent set of an explicit word of (integral-)simple roots at ``mu``.

    With a ``context``, every letter must belong to the context's simple
    system; without one, letters must at least be roots of the system.
    """
    word = tuple(letters)
    if context is not None:
        allowed = set(context.simple_roots)
        for alpha in word:
            if alpha not in allowed:
                raise DomainError(
                    f"letter {alpha} is not a simple root of the integral subsystem"
                )
    else:
        for alpha in word:
            if alpha not in rs.roots:
                raise DomainError(f"letter {alpha} is not a root of {rs}")
    if len(mu.coords) != rs.rank:
        raise DomainError("weight rank does not match the root system")
    return _ascent_set_cached(rs, word, mu)


def ascent_set(
    w: WeylElem,
    mu: Weight,
    context: IntegralData,
    word_fn=None,
) -> AscentSet:
    """Ascent set of a subgroup element, over its canonical reduced word.

    The result does not depend on the reduced word chosen (a property the
    test suite sweeps exhaustively at small rank).  ``word_fn`` may replace
    the set computation, e.g. by a caching wrapper.
    """
    word = canonical_integral_word(w, context)
    fn = word_fn or ascent_set_word
    return fn(w.rs, word, mu, context)


def ascent_set_all_words(
    w: WeylElem,
    mu: Weight,
    context: IntegralData,
    max_length: int = DEFAULT_WORD_LENGTH_BOUND,
) -> tuple[AscentSet, ...]:
    """One ascent set per reduced word of ``w``; property-suite support."""
    words = sorted(all_integral_words(w, context, max_length))
    return tuple(ascent_set_word(w.rs, word, mu, context) for word in words)
