"""Weyl group elements with exact action, words and length.

An element is represented by its integer matrix acting on fundamental-weight
coordinates; equality and hashing go through the matrix, so words are
non-canonical witnesses.

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
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, EnumerationBound, ValidationError
from .rootsystem import Root, RootSystem, Weight, weyl_group_order

DEFAULT_GROUP_BOUND = 3_628_800  # 10!
DEFAULT_WORD_LENGTH_BOUND = 16


@dataclass(frozen=True)
class WeylElem:
    """A Weyl group element; ``matrix`` acts on fundamental-weight coordinates."""

    rs: RootSystem = field(repr=False)
    matrix: tuple[tuple[int, ...], ...]

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        return multiply(self, other)

    def act(self, mu: Weight) -> Weight:
        if len(mu.coords) != self.rs.rank:
            raise DomainError("weight rank does not match the root system")
        return Weight(tuple(
            sum((row[j] * mu.coords[j] for j in range(self.rs.rank)), Fraction(0))
            for row in self.matrix
        ))

    def act_on_root(self, beta: Root) -> Root:
        wc = self.rs._require(beta)
        image = tuple(
            sum(row[j] * wc[j] for j in range(self.rs.rank)) for row in self.matrix
        )
        root = self.rs._by_weight.get(image)
        if root is None:
            raise DomainError("matrix does not permute the roots")
        return root

    @property
    def is_identity(self) -> bool:
        return self.matrix == _identity_matrix(self.rs.rank)

    def __str__(self) -> str:
        return format_word(canonical_reduced_word(self))

    def __repr__(self) -> str:
        return f"WeylElem({self.rs.spec}, {self})"


@lru_cache(maxsize=None)
def _identity_matrix(rank: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def identity(rs: RootSystem) -> WeylElem:
    return WeylElem(rs, _identity_matrix(rs.rank))


def simple_reflection(rs: RootSystem, i: int) -> WeylElem:
    """The reflection in the ``i``-th simple root (1-based, Bourbaki order)."""
    if not 1 <= i <= rs.rank:
        raise DomainError(f"simple root index {i} out of range 1..{rs.rank}")
    return reflection(rs, rs.simple_roots[i - 1])


@lru_cache(maxsize=None)
def reflection(rs: RootSystem, beta: Root) -> WeylElem:
    """The reflection in an arbitrary root ``beta``; one per root, so the
    memo is bounded by the number of roots."""
    wc = rs._require(beta)
    vec = rs._coroot[beta]
    return WeylElem(rs, tuple(
        tuple((1 if j == k else 0) - wc[j] * vec[k] for k in range(rs.rank))
        for j in range(rs.rank)
    ))


def multiply(u: WeylElem, v: WeylElem) -> WeylElem:
    if u.rs is not v.rs:
        raise DomainError("cannot multiply elements of different root systems")
    n = u.rs.rank
    a, b = u.matrix, v.matrix
    product = tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    return WeylElem(u.rs, product)


@lru_cache(maxsize=None)
def inverse(u: WeylElem) -> WeylElem:
    """Row ``i`` of the inverse is the coroot of ``u(alpha_i)``, since
    ``(u^{-1} mu)_i = <mu, u alpha_i^vee>``."""
    rs = u.rs
    return WeylElem(rs, tuple(rs._coroot[u.act_on_root(a)] for a in rs.simple_roots))


def length(u: WeylElem) -> int:
    """Number of positive roots sent to negative roots."""
    return sum(1 for beta in u.rs.positive_roots if not u.act_on_root(beta).is_positive)


def peel_descents(
    u: WeylElem, simples: tuple[Root, ...]
) -> tuple[tuple[int, ...], WeylElem]:
    """Peel the first left descent of ``u`` in the order of ``simples`` until
    none is left: the peeled word and the inverse of the unpeeled rest, the
    identity exactly when ``u`` is a product of the reflections in ``simples``."""
    word = []
    cur_inv = inverse(u)
    while True:
        for i, beta in enumerate(simples):
            if not cur_inv.act_on_root(beta).is_positive:
                word.append(i)
                cur_inv = multiply(cur_inv, reflection(u.rs, beta))
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
    u: WeylElem, simples: tuple[Root, ...], max_length: int
) -> frozenset[tuple[int, ...]]:
    """Every reduced word of ``u`` over ``simples``, by recursion over left
    descents."""
    n = len(reduced_word_over(u, simples))
    if n > max_length:
        raise EnumerationBound(
            f"element has length {n} > word enumeration bound {max_length}"
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


def all_reduced_words(
    u: WeylElem, max_length: int = DEFAULT_WORD_LENGTH_BOUND
) -> frozenset[tuple[int, ...]]:
    """Every reduced word of ``u`` (1-based indices)."""
    words = reduced_words_over(u, u.rs.simple_roots, max_length)
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
