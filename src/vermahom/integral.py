"""Integral-root machinery attached to a weight.

For a weight ``lam``, the roots pairing integrally with ``lam`` form a root
subsystem.  This module computes its positive part, simple system, reflection
subgroup data (membership, length, longest element), the stabilizer of the
weight, and the normalization that replaces an arbitrary group element by one
of the subgroup realizing the same induced positive system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError
from .rootsystem import Root, RootSystem, Weight
from .weyl import (
    DEFAULT_WORD_LENGTH_BOUND,
    WeylElem,
    enumerate_group,
    group_closure,
    identity,
    inverse,
    longest_element_over,
    multiply,
    peel_descents,
    reduced_word_over,
    reduced_words_over,
    reflection,
)


@dataclass(frozen=True)
class IntegralData:
    """The integral root subsystem of a weight, with its group data.

    ``simple_roots`` is the simple system of the positive part (its
    indecomposable elements), ordered lexicographically by root coordinates,
    which fixes the canonical reduced-word policy for subgroup elements.
    ``stabilizer_gens`` are the simple members pairing to zero with the
    weight; for a dominant weight their reflections generate the stabilizer.
    ``dominant``: no integral positive root pairs negatively with the weight
    (:meth:`~vermahom.rootsystem.RootSystem.is_dominant`).
    """

    rs: RootSystem = field(repr=False)
    weight: Weight
    positive_roots: tuple[Root, ...]
    simple_roots: tuple[Root, ...]
    longest_element: WeylElem
    stabilizer_gens: tuple[Root, ...]
    dominant: bool

    def __hash__(self) -> int:
        # every other field is determined by these two; hashing only them
        # keeps the many memo lookups keyed on this data cheap
        return hash((self.rs, self.weight))

    def root_set(self) -> frozenset[Root]:
        return frozenset(self.positive_roots) | frozenset(
            -r for r in self.positive_roots
        )


@lru_cache(maxsize=None)
def integral_data(rs: RootSystem, lam: Weight) -> IntegralData:
    """Compute the integral subsystem data of ``lam``."""
    if len(lam.coords) != rs.rank:
        raise DomainError("weight rank does not match the root system")
    pairs = {b: rs.pairing(b, lam) for b in rs.positive_roots}
    pos = tuple(b for b, p in pairs.items() if p.denominator == 1)
    pos_set = {b.coords for b in pos}
    simples = tuple(sorted(
        p for p in pos
        if not any(
            tuple(pc - qc for pc, qc in zip(p.coords, q.coords)) in pos_set
            for q in pos
            if q != p
        )
    ))
    longest = longest_element_over(rs, simples)
    gens = tuple(b for b in simples if pairs[b] == 0)
    dominant = all(pairs[b] >= 0 for b in pos)
    return IntegralData(rs, lam, pos, simples, longest, gens, dominant)


def in_integral_group(w: WeylElem, data: IntegralData) -> bool:
    """Membership test: the element moves the weight within the root lattice.

    This lattice characterization coincides with membership in the reflection
    subgroup of the integral roots (the test suite sweeps the coincidence
    exhaustively at small rank).  The coarser weight-lattice condition would
    not: already in rank one, a weight with a half-integral coroot pairing is
    moved by the reflection through minus one fundamental weight, while its
    integral root system is empty.
    """
    return data.rs.in_root_lattice(w.act(data.weight) - data.weight)


def integral_length(w: WeylElem, data: IntegralData) -> int:
    """Inversion count over the integral positive roots."""
    if not in_integral_group(w, data):
        raise DomainError("element is not in the integral Weyl group of the weight")
    return sum(
        1 for beta in data.positive_roots if not w.act_on_root(beta).is_positive
    )


def canonical_integral_word(w: WeylElem, data: IntegralData) -> tuple[Root, ...]:
    """Canonical reduced word of a subgroup element over the integral simples.

    Peels the first descent in the fixed ordering of ``data.simple_roots``
    from the left; deterministic, and downstream consumers are insensitive to
    the choice (a tested invariant).  For a non-member the peel stops short of
    the identity and raises :class:`DomainError` (see :func:`in_integral_group`).
    """
    simples = data.simple_roots
    return tuple(simples[i] for i in reduced_word_over(w, simples))


def all_integral_words(
    w: WeylElem, data: IntegralData, max_length: int = DEFAULT_WORD_LENGTH_BOUND
) -> frozenset[tuple[Root, ...]]:
    """Every reduced word of ``w`` over the integral simple system."""
    words = reduced_words_over(w, data.simple_roots, max_length)
    return frozenset(tuple(data.simple_roots[i] for i in word) for word in words)


def integral_group_elements(data: IntegralData) -> tuple[WeylElem, ...]:
    """All elements of the integral Weyl group, by closure over its simples."""
    return group_closure(data.rs, data.simple_roots)


def stabilizer_elements(data: IntegralData) -> frozenset[WeylElem]:
    """The subgroup fixing the weight, element by element, for certificates
    that name one (saturating a set needs only ``stabilizer_gens``).

    For a dominant weight this is the closure of the zero-pairing simple
    reflections; otherwise it falls back to filtering the full group.  The
    two paths agree on dominant weights (cross-checked in the test suite).
    """
    if data.dominant:
        return frozenset(group_closure(data.rs, data.stabilizer_gens))
    return frozenset(
        w for w in enumerate_group(data.rs) if w.act(data.weight) == data.weight
    )


def reduce_parameters(w: WeylElem, lam: Weight) -> WeylElem:
    """Replace ``w`` by a subgroup element inducing the same positive system.

    Returns the unique ``w'`` in the integral Weyl group of ``lam`` such that
    the image of the positive roots under ``w^{-1}``, intersected with the
    integral subsystem, equals the ``w'``-preimage of the integral positive
    part.  For ``w`` already in the subgroup this is ``w`` itself; for an
    empty integral subsystem it is the identity.

    The descent peel of ``w^{-1}`` over the integral simples leaves
    ``w^{-1} = v r`` with ``v`` carrying the integral positive part onto the
    induced system, so ``w'`` is ``v^{-1}``: the peel reversed.
    """
    rs = w.rs
    simples = integral_data(rs, lam).simple_roots
    word, _ = peel_descents(inverse(w), simples)
    u = identity(rs)
    for i in word:
        u = multiply(reflection(rs, simples[i]), u)
    return u


def dominant_representative(rs: RootSystem, lam: Weight) -> tuple[Weight, WeylElem]:
    """The dominant weight in the integral-group orbit, with a witness.

    Returns ``(dom, v)`` with ``v`` a product of integral simple reflections
    and ``v(lam) = dom`` dominant (no positive root pairs with it to a
    negative integer).  Deterministic: always reflects at the first violating
    integral simple root.
    """
    data = integral_data(rs, lam)
    cur = lam
    v = identity(rs)
    while True:
        for beta in data.simple_roots:
            if rs.pairing(beta, cur) < 0:  # integral by construction
                cur = rs.reflect(beta, cur)
                v = multiply(reflection(rs, beta), v)
                break
        else:
            return cur, v
