"""Ascent sets: weights reachable along a word by integer-descent reflections.

Given a word of simple roots (of the full system or of an integral
subsystem) and a weight ``mu``, the ascent set collects every weight
obtained by choosing a subsequence of the word's inversion sequence and
reflecting through those roots in order, where each reflection is only
admissible if the coroot pairing at that point is a negative integer.  The
empty subsequence is always admissible, so ``mu`` itself is always a member.

Members are computed as a forward frontier over the inversion sequence
``beta_1, ..., beta_n``: starting from ``{mu}``, position ``i`` adds
``s_{beta_i} x`` for every member ``x`` found so far whose pairing with
``beta_i`` is a negative integer.  That is one pairing per (position,
member).  Nothing here is memoized: :class:`~vermahom.criteria.Engine`
keeps the one memo of whole results, above the persistent cache.

Each member also has a certificate: the lexicographically smallest
admissible subsequence (1-based positions into the word), which replays
independently against the definition.  Certificates follow from the word and
``mu`` alone, so they are built only when first read, by one depth-first walk
of the admissible subsequences in lexicographic order (see
:func:`_lex_minimal_certificates`).

The frontier and the walk are integer code.  Every weight they reach shares
the base weight's denominator (an admissible step subtracts an integer
multiple of a root), so they hold each weight as its numerators over that
denominator, pair it with integer coroots by integer dot products, and
build one :class:`~vermahom.rootsystem.Weight` per member only for the
result.  :func:`replay_certificate` stays ``Fraction`` code, through
:meth:`~vermahom.rootsystem.RootSystem.pairing` and
:meth:`~vermahom.rootsystem.RootSystem.reflect`, so that a certificate is
checked by arithmetic the kernel does not share; the test suite keeps the
``Fraction`` forms of the frontier and the walk as references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import DomainError
from .integral import IntegralData, all_integral_words, canonical_integral_word
from .rootsystem import Root, RootSystem, Weight
from .weyl import WeylElem, identity, multiply, reflection


@dataclass(frozen=True)
class AscentSet:
    """The result of one ascent-set computation.

    ``certificates`` maps each member, in sorted order, to its lex-minimal
    admissible subsequence of word positions.  It follows from ``word`` and
    ``base``, so it is built on first read and then kept.  Instances are
    shared through caches, so the mapping is a read-only view.
    So is ``inversion``, the word's inversion sequence, unless the members
    were computed here: then it is the sequence they came from.
    """

    rs: RootSystem = field(repr=False)
    word: tuple[Root, ...]
    base: Weight
    elements: frozenset[Weight]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def inversion(self) -> tuple[Root, ...]:
        return inversion_sequence(self.rs, self.word)

    @cached_property
    def certificates(self) -> Mapping[Weight, tuple[int, ...]]:
        table = _lex_minimal_certificates(self.rs, self.inversion, self.base)
        if table.keys() != self.elements:
            raise RuntimeError(
                f"ascent set at {self.base} lists {len(self.elements)} members "
                f"but its word reaches {len(table)} weights; the stored "
                "members are corrupt"
            )
        return MappingProxyType(table)


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


def _members(
    rs: RootSystem, betas: Sequence[Root], mu: Weight
) -> frozenset[Weight]:
    """The forward frontier: after position ``i``, every weight some
    admissible subsequence of ``betas[:i]`` reaches.

    Members are held as numerators over the base's denominator ``den``: a
    step at ``beta`` pairs to ``p / den`` with ``p`` the integer dot product
    with its coroot, is admissible iff ``p < 0`` and ``den`` divides ``p``,
    and subtracts ``p`` times the root's weight coordinates."""
    nums, den = mu._integer_form()
    start = tuple(nums)
    members = {start}
    for beta in betas:
        co, wc = rs._coroot[beta], rs._weight_coords[beta]
        for x in tuple(members):
            p = sum(map(mul, co, x))
            if p < 0 and p % den == 0:
                members.add(tuple([a - p * b for a, b in zip(x, wc)]))
    # the base stays the caller's object: no second copy of it is kept
    return frozenset({mu if x is start else Weight._from_integer_form(x, den)
                      for x in members})


def _lex_minimal_certificates(
    rs: RootSystem, betas: Sequence[Root], mu: Weight
) -> dict[Weight, tuple[int, ...]]:
    """Every reachable weight with its lex-minimal admissible subsequence,
    in sorted order.

    A depth-first walk visits the admissible subsequences in lexicographic
    order (smaller next position first), so the first visit of a weight
    carries its certificate.  A node ``(weight, last position)`` is pruned
    only when an earlier visit of the same weight has *finished* with a last
    position no larger: that visit already reached everything this one
    could.  An unfinished visit (an ancestor) does not count, since with
    arbitrary root letters a path can return to a weight and the ancestor
    has not yet reached what lies beyond it.  Weights are walked in the
    integer form of :func:`_members`; every one shares the denominator, so
    their numerators sort as the weights do.
    """
    nums, den = mu._integer_form()
    steps = [(rs._coroot[b], rs._weight_coords[b]) for b in betas]
    n = len(steps)
    start = tuple(nums)
    certs = {start: ()}
    finished: dict[tuple[int, ...], int] = {}  # weight -> least last position
    path: list[int] = []  # the current subsequence, one position per child frame
    stack = [(start, 0, iter(range(n)))]
    while stack:
        x, last, todo = stack[-1]
        for i in todo:
            co, wc = steps[i]
            p = sum(map(mul, co, x))
            if p < 0 and p % den == 0:
                y = tuple([a - p * b for a, b in zip(x, wc)])
                if finished.get(y, n + 1) > i + 1:
                    path.append(i + 1)
                    certs.setdefault(y, tuple(path))
                    stack.append((y, i + 1, iter(range(i + 1, n))))
                    break
        else:
            stack.pop()
            if path:
                path.pop()
            finished[x] = min(finished.get(x, n + 1), last)
    return {mu if x is start else Weight._from_integer_form(x, den): cert
            for x, cert in sorted(certs.items())}


def check_word(
    rs: RootSystem,
    letters: Sequence[Root],
    mu: Weight,
    context: Optional[IntegralData] = None,
) -> tuple[Root, ...]:
    """The checks of :func:`ascent_set_word` on its arguments; returns the
    word as a tuple.  :meth:`~vermahom.criteria.Engine.ascent_set_word`
    runs them before its lookups, so a hit raises what a miss raises."""
    word = tuple(letters)
    if context is not None:
        if context.rs is not rs:
            raise DomainError("word and integral data belong to different root systems")
        allowed = context.simple_roots  # its own letters match by identity
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
    return word


def ascent_set_word(
    rs: RootSystem,
    letters: Sequence[Root],
    mu: Weight,
    context: Optional[IntegralData] = None,
) -> AscentSet:
    """Ascent set of an explicit word of (integral-)simple roots at ``mu``.

    With a ``context`` of ``rs``, every letter must belong to the context's
    simple system; without one, letters must at least be roots of the system
    (:func:`check_word`).  Each call computes the set afresh.
    """
    word = check_word(rs, letters, mu, context)
    betas = inversion_sequence(rs, word)
    result = AscentSet(rs, word, mu, _members(rs, betas, mu))
    result.__dict__["inversion"] = betas  # fills the cached property
    return result


def ascent_set(
    w: WeylElem,
    mu: Weight,
    context: IntegralData,
    word_fn=None,
) -> AscentSet:
    """Ascent set of a subgroup element, over its canonical reduced word.

    The result does not depend on the reduced word chosen (a property the
    test suite sweeps exhaustively at small rank).  ``word_fn`` may replace
    :func:`ascent_set_word`, e.g. by
    :meth:`~vermahom.criteria.Engine.ascent_set_word`.
    """
    word = canonical_integral_word(w, context)
    fn = word_fn or ascent_set_word
    return fn(w.rs, word, mu, context)


def ascent_set_all_words(
    w: WeylElem, mu: Weight, context: IntegralData
) -> tuple[AscentSet, ...]:
    """One ascent set per reduced word of ``w``; property-suite support."""
    words = sorted(all_integral_words(w, context))
    return tuple(ascent_set_word(w.rs, word, mu, context) for word in words)
