"""Integral-root machinery attached to a weight.

For a weight ``lam``, the roots pairing integrally with ``lam`` form a root
subsystem.  This module computes its positive part, simple system and
longest element; membership, length and words of an element, from one
descent peel; the stabilizer of the weight; and the normalization that
replaces an arbitrary group element by one of the subgroup realizing the
same induced positive system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError
from .rootsystem import Root, RootSystem, Weight
from .weyl import enumerate_group  # noqa: F401  (bench/tracer.py wraps it here)
from .weyl import (
    WeylElem,
    group_closure,
    identity,
    inverse,
    longest_element_over,
    multiply,
    peel_descents,
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
    # pairings times den, from the integer form nums / den of lam: a pairing
    # is integral iff den divides its numerator
    nums, den = lam._integer_form()
    pairs = {b: rs._pairing_numerator(b, nums) for b in rs.positive_roots}
    pos = tuple(b for b, p in pairs.items() if p % den == 0)
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


def _peel(w: WeylElem, data: IntegralData) -> tuple[int, ...] | None:
    """The descent peel of ``w`` over the integral simples: the reduced word
    (positions into ``data.simple_roots``) of a member of the integral Weyl
    group, None for a non-member."""
    if w.rs is not data.rs:
        raise DomainError("element and integral data belong to different root systems")
    word, rest_inv = peel_descents(w, data.simple_roots)
    return word if rest_inv.is_identity else None


def in_integral_group(w: WeylElem, data: IntegralData) -> bool:
    """Membership: the peel leaves nothing.  This is the lattice condition,
    that ``w`` moves the weight within the root lattice (Humphreys,
    *Representations of Semisimple Lie Algebras in the BGG Category O*, 3.4;
    tested against :meth:`~vermahom.rootsystem.RootSystem.in_root_lattice`),
    not the coarser weight-lattice one: in rank one, the reflection moves a
    weight with a half-integral pairing by minus one fundamental weight,
    while its integral root system is empty."""
    return _peel(w, data) is not None


def integral_length(w: WeylElem, data: IntegralData) -> int:
    """The length of the peel's reduced word."""
    word = _peel(w, data)
    if word is None:
        raise DomainError("element is not in the integral Weyl group of the weight")
    return len(word)


def canonical_integral_word(w: WeylElem, data: IntegralData) -> tuple[Root, ...]:
    """Canonical reduced word of a subgroup element: the peel, which takes
    the first descent in the order of ``data.simple_roots`` (consumers do not
    depend on the choice, a tested invariant)."""
    word = _peel(w, data)
    if word is None:
        raise DomainError("element is not a product of the simple reflections")
    return tuple(data.simple_roots[i] for i in word)


def all_integral_words(w: WeylElem, data: IntegralData) -> frozenset[tuple[Root, ...]]:
    """Every reduced word of ``w`` over the integral simple system."""
    canonical_integral_word(w, data)  # refuses other systems and non-members
    words = reduced_words_over(w, data.simple_roots)
    return frozenset(tuple(data.simple_roots[i] for i in word) for word in words)


def integral_group_elements(data: IntegralData) -> tuple[WeylElem, ...]:
    """All elements of the integral Weyl group, by closure over its simples."""
    return group_closure(data.rs, data.simple_roots)


def stabilizer_elements(data: IntegralData) -> tuple[WeylElem, ...]:
    """The subgroup fixing a dominant weight in matrix order, the order in
    which certificates try it (saturating a set needs only
    ``stabilizer_gens``): the closure of the zero-pairing simple reflections.
    A non-dominant weight raises :class:`DomainError`.
    """
    if not data.dominant:
        raise DomainError("stabilizer elements need a dominant weight")
    return tuple(sorted(group_closure(data.rs, data.stabilizer_gens),
                        key=lambda g: g.matrix))


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
    integral simple root.  The walk runs on the numerators of ``lam``'s
    integer form over their fixed denominator ``den``: reflecting in ``beta``
    subtracts ``p`` times the weight coordinates of ``beta``, ``p / den`` the
    pairing; ``dom`` is built once at the end.
    """
    data = integral_data(rs, lam)
    nums, den = lam._integer_form()
    v = identity(rs)
    while True:
        for beta in data.simple_roots:
            p = rs._pairing_numerator(beta, nums)
            if p < 0:  # integral by construction
                nums = [n - p * c for n, c in zip(nums, rs._weight_coords[beta])]
                v = multiply(reflection(rs, beta), v)
                break
        else:
            return Weight._from_integer_form(nums, den), v
