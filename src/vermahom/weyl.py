"""Weyl group elements with exact action, words and length.

An element is represented by the permutation it induces on the roots
(Casselman, *Computation in Coxeter groups I*, 2002), over the fixed root
order :attr:`~vermahom.rootsystem.RootSystem.indexed_roots`: the product is
composition, the inverse is the inverse permutation, the image of a root is
one lookup and a descent is an index past the positive block.  The action
on roots is faithful, so equality and hashing go through the permutation,
and words are non-canonical witnesses.  The integer matrix on
fundamental-weight coordinates, which acts on weights, is derived from it.

The Coxeter-group algorithms (reduced word, all reduced words, longest
element, group closure, weight orbit) take an ordered tuple of simple roots,
so the same code serves the full Weyl group (``rs.simple_roots``, Bourbaki
order) and the integral Weyl group of a weight
(``IntegralData.simple_roots``).  Words over such a tuple are 0-based
positions into it.  The canonical reduced word policy is
first-descent-first: repeatedly peel, from the left, the first simple root
in the given order that is a left descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .errors import DomainError, EnumerationBound, ValidationError
from .rootsystem import Root, RootSystem, Weight, weyl_group_order

DEFAULT_GROUP_BOUND = 3_628_800  # 10!
DEFAULT_WORD_LENGTH_BOUND = 16


@dataclass(frozen=True, slots=True)
class WeylElem:
    """A Weyl group element: ``perm[k]`` is the index of the image of the
    root ``rs.indexed_roots[k]`` (see :func:`_perm` for its type)."""

    rs: RootSystem = field(repr=False)
    perm: bytes | tuple[int, ...]

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        return multiply(self, other)

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The integer matrix acting on fundamental-weight coordinates: row
        ``i`` is the coroot of ``u^{-1}(alpha_i)``, since
        ``(u mu)_i = <mu, u^{-1} alpha_i^vee>``."""
        rs, index = self.rs, self.perm.index
        return tuple([rs._indexed_coroots[index(k)] for k in rs._simple_indices])

    def act(self, mu: Weight) -> Weight:
        """The image of ``mu``: the matrix applied to the numerators of
        ``mu``'s integer form, over its common denominator."""
        if len(mu.coords) != self.rs.rank:
            raise DomainError("weight rank does not match the root system")
        nums, den = mu._integer_form()
        return Weight._from_integer_form(
            [sum(map(mul, row, nums)) for row in self.matrix], den)

    def act_on_root(self, beta: Root) -> Root:
        rs = self.rs
        return rs.indexed_roots[self.perm[rs._index(beta)]]

    @property
    def is_identity(self) -> bool:
        return self.perm == _perm(self.rs, range(len(self.perm)))

    def __str__(self) -> str:
        return format_word(canonical_reduced_word(self))

    def __repr__(self) -> str:
        return f"WeylElem({self.rs.spec}, {self})"


def _perm(rs: RootSystem, indices) -> bytes | tuple[int, ...]:
    """A permutation of the root indices of ``rs``: ``bytes``, compact and
    hashed once, when every index fits in a byte (at most 256 roots, so
    every exceptional type), else a tuple."""
    return bytes(indices) if len(rs.indexed_roots) <= 256 else tuple(indices)


def identity(rs: RootSystem) -> WeylElem:
    return WeylElem(rs, _perm(rs, range(len(rs.indexed_roots))))


def simple_reflection(rs: RootSystem, i: int) -> WeylElem:
    """The reflection in the ``i``-th simple root (1-based, Bourbaki order)."""
    if not 1 <= i <= rs.rank:
        raise DomainError(f"simple root index {i} out of range 1..{rs.rank}")
    return reflection(rs, rs.simple_roots[i - 1])


@lru_cache(maxsize=None)
def reflection(rs: RootSystem, beta: Root) -> WeylElem:
    """The reflection in an arbitrary root ``beta``; one per root, so the
    memo is bounded by the number of roots.  It sends ``gamma`` to
    ``gamma - <gamma, beta^vee> beta``."""
    rs._index(beta)
    vec = rs._coroot[beta]
    perm = []
    for gamma in rs.indexed_roots:
        k = sum(map(mul, rs._weight_coords[gamma], vec))
        perm.append(rs.root_index[
            Root(tuple(g - k * b for g, b in zip(gamma.coords, beta.coords)))])
    return WeylElem(rs, _perm(rs, perm))


def multiply(u: WeylElem, v: WeylElem) -> WeylElem:
    """The product ``u v``: root ``k`` goes to ``u(v(k))``."""
    if u.rs is not v.rs:
        raise DomainError("cannot multiply elements of different root systems")
    return WeylElem(u.rs, _perm(u.rs, map(u.perm.__getitem__, v.perm)))


@lru_cache(maxsize=None)
def inverse(u: WeylElem) -> WeylElem:
    """The inverse permutation: the root indices ordered by their images."""
    perm = u.perm
    return WeylElem(u.rs, _perm(u.rs, sorted(range(len(perm)),
                                             key=perm.__getitem__)))


def length(u: WeylElem) -> int:
    """Number of positive roots sent to negative roots."""
    npos = len(u.rs.positive_roots)
    return sum(1 for k in u.perm[:npos] if k >= npos)


def peel_descents(
    u: WeylElem, simples: tuple[Root, ...]
) -> tuple[tuple[int, ...], WeylElem]:
    """Peel the first left descent of ``u`` in the order of ``simples`` until
    none is left: the peeled word and the inverse of the unpeeled rest, the
    identity exactly when ``u`` is a product of the reflections in ``simples``.
    ``beta`` is a left descent when the rest's inverse sends it past the
    positive block of the root index."""
    rs = u.rs
    npos = len(rs.positive_roots)
    indices = [rs._index(beta) for beta in simples]
    word = []
    cur_inv = inverse(u)
    while True:
        for i, k in enumerate(indices):
            if cur_inv.perm[k] >= npos:
                word.append(i)
                cur_inv = multiply(cur_inv, reflection(rs, simples[i]))
                break
        else:
            return tuple(word), cur_inv


def reduced_word_over(u: WeylElem, simples: tuple[Root, ...]) -> tuple[int, ...]:
    """Reduced word of ``u`` over ``simples``: the descent peel, which must
    leave nothing."""
    word, rest_inv = peel_descents(u, simples)
    if not rest_inv.is_identity:
        raise DomainError("element is not a product of the simple reflections")
    return word


def reduced_words_over(
    u: WeylElem, simples: tuple[Root, ...]
) -> frozenset[tuple[int, ...]]:
    """Every reduced word of ``u`` over ``simples``, by recursion over left
    descents.  Raises :class:`EnumerationBound` before listing any word when
    ``u`` is longer than ``DEFAULT_WORD_LENGTH_BOUND``."""
    n = len(reduced_word_over(u, simples))
    if n > DEFAULT_WORD_LENGTH_BOUND:
        raise EnumerationBound(
            f"element has length {n} > word enumeration bound "
            f"{DEFAULT_WORD_LENGTH_BOUND}"
        )
    memo: dict[WeylElem, tuple[tuple[int, ...], ...]] = {}

    def rec(w: WeylElem) -> tuple[tuple[int, ...], ...]:
        if w.is_identity:
            return ((),)
        cached = memo.get(w)
        if cached is not None:
            return cached
        out = []
        w_inv = inverse(w)
        for i, beta in enumerate(simples):
            if not w_inv.act_on_root(beta).is_positive:
                rest = multiply(reflection(w.rs, beta), w)
                out.extend((i,) + t for t in rec(rest))
        memo[w] = tuple(out)
        return memo[w]

    return frozenset(rec(u))


def longest_element_over(rs: RootSystem, simples: tuple[Root, ...]) -> WeylElem:
    """The longest element generated by ``simples``, built greedily by right
    ascents."""
    u = identity(rs)
    while True:
        for beta in simples:
            if u.act_on_root(beta).is_positive:
                u = multiply(u, reflection(rs, beta))
                break
        else:
            return u


def _closure(start, moves, what: str) -> list:
    """``start`` and every image under repeated ``moves``, breadth-first in
    discovery order and duplicate-free.  Raises :class:`EnumerationBound`
    past ``DEFAULT_GROUP_BOUND`` items."""
    out = list(dict.fromkeys(start))
    seen = set(out)
    for x in out:  # the loop also visits what it appends: a FIFO queue
        for move in moves:
            y = move(x)
            if y not in seen:
                if len(seen) >= DEFAULT_GROUP_BOUND:
                    raise EnumerationBound(
                        f"{what} exceeds bound {DEFAULT_GROUP_BOUND}")
                seen.add(y)
                out.append(y)
    return out


def group_closure(rs: RootSystem, simples: tuple[Root, ...]) -> tuple[WeylElem, ...]:
    """Every element generated by the reflections in ``simples``,
    breadth-first from the identity by right multiplication."""
    gens = [reflection(rs, beta) for beta in simples]
    return tuple(_closure([identity(rs)], [lambda w, s=s: multiply(w, s)
                                           for s in gens], "group closure"))


def orbit(rs: RootSystem, weights, roots: tuple[Root, ...]) -> frozenset[Weight]:
    """The closure of ``weights`` under the reflections in ``roots``: the
    union of their orbits under the group those reflections generate."""
    return frozenset(_closure(weights, [lambda mu, b=b: rs.reflect(b, mu)
                                        for b in roots], "weight orbit"))


@lru_cache(maxsize=None)
def canonical_reduced_word(u: WeylElem) -> tuple[int, ...]:
    """Deterministic reduced word (1-based indices): peel the smallest left
    descent repeatedly."""
    return tuple(i + 1 for i in reduced_word_over(u, u.rs.simple_roots))


def from_word(rs: RootSystem, indices) -> WeylElem:
    """Product of simple reflections for a sequence of 1-based indices."""
    out = identity(rs)
    for i in indices:
        out = multiply(out, simple_reflection(rs, i))
    return out


def all_reduced_words(u: WeylElem) -> frozenset[tuple[int, ...]]:
    """Every reduced word of ``u`` (1-based indices); raises
    :class:`EnumerationBound` past length ``DEFAULT_WORD_LENGTH_BOUND``."""
    words = reduced_words_over(u, u.rs.simple_roots)
    return frozenset(tuple(i + 1 for i in word) for word in words)


@lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElem:
    """The longest element of the Weyl group."""
    return longest_element_over(rs, rs.simple_roots)


@lru_cache(maxsize=None)
def enumerate_group(rs: RootSystem) -> tuple[WeylElem, ...]:
    """All group elements, breadth-first from the identity; duplicate-free."""
    order = weyl_group_order(rs.spec)
    if order > DEFAULT_GROUP_BOUND:
        raise EnumerationBound(
            f"group of order {order} exceeds bound {DEFAULT_GROUP_BOUND}"
        )
    return group_closure(rs, rs.simple_roots)


def parse_word(text: str, rank: int) -> tuple[int, ...]:
    """Parse ``"s1 s2 s1"``, ``"121"`` or ``"e"`` into simple-reflection indices."""
    body = text.strip()
    if body in ("", "e"):
        return ()
    tokens = body.split()
    indices: list[int] = []
    if len(tokens) == 1 and tokens[0].isdecimal():
        indices = [int(ch) for ch in tokens[0]]
    else:
        for tok in tokens:
            t = tok[1:] if tok.startswith("s") else tok
            if not t.isdecimal():
                raise ValidationError(f"cannot parse word {text!r}")
            indices.append(int(t))
    for i in indices:
        if not 1 <= i <= rank:
            raise ValidationError(f"word {text!r} uses index {i} outside 1..{rank}")
    return tuple(indices)


def format_word(indices) -> str:
    if not indices:
        return "e"
    return " ".join(f"s{i}" for i in indices)
