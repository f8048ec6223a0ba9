"""Weyl group elements with exact action, words and length.

An element is represented by its integer matrix acting on fundamental-weight
coordinates; equality and hashing go through the matrix, so words are
non-canonical witnesses.

The Coxeter-group algorithms (reduced word, all reduced words, longest
element, group closure) take an ordered tuple of simple roots, so the same
code serves the full Weyl group (``rs.simple_roots``, Bourbaki order) and the
integral Weyl group of a weight (``IntegralData.simple_roots``).  Words over
such a tuple are 0-based positions into it.  The canonical reduced word
policy is first-descent-first: repeatedly peel, from the left, the first
simple root in the given order that is a left descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, EnumerationBound, ValidationError
from .rootsystem import Root, RootSystem, Weight, invert_matrix, weyl_group_order

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


def reflection(rs: RootSystem, beta: Root) -> WeylElem:
    """The reflection in an arbitrary root ``beta``."""
    wc = rs._require(beta)
    vec = rs._coroot[beta]
    rows = []
    for j in range(rs.rank):
        row = []
        for k in range(rs.rank):
            entry = (1 if j == k else 0) - wc[j] * vec[k]
            if entry.denominator != 1:
                raise DomainError(f"{beta} does not define an integral reflection")
            row.append(int(entry))
        rows.append(tuple(row))
    return WeylElem(rs, tuple(rows))


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
    matrix = tuple(tuple(int(x) for x in row) for row in invert_matrix(u.matrix))
    return WeylElem(u.rs, matrix)


@lru_cache(maxsize=None)
def length(u: WeylElem) -> int:
    """Number of positive roots sent to negative roots."""
    return sum(1 for beta in u.rs.positive_roots if not u.act_on_root(beta).is_positive)


def reduced_word_over(u: WeylElem, simples: tuple[Root, ...]) -> tuple[int, ...]:
    """Reduced word of ``u`` over ``simples``: peel the first left descent
    in the order of ``simples`` repeatedly."""
    word = []
    cur, cur_inv = u, inverse(u)
    while True:
        for i, beta in enumerate(simples):
            if not cur_inv.act_on_root(beta).is_positive:
                s = reflection(u.rs, beta)
                word.append(i)
                cur = multiply(s, cur)
                cur_inv = multiply(cur_inv, s)
                break
        else:
            break
    if not cur.is_identity:
        raise DomainError("element is not a product of the simple reflections")
    return tuple(word)


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


def group_closure(
    rs: RootSystem, simples: tuple[Root, ...], bound: int
) -> tuple[WeylElem, ...]:
    """Every element generated by the reflections in ``simples``,
    breadth-first from the identity by right multiplication; duplicate-free."""
    gens = [reflection(rs, beta) for beta in simples]
    seen = {identity(rs)}
    out = [identity(rs)]
    frontier = [identity(rs)]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = multiply(w, s)
                if ws not in seen:
                    if len(seen) >= bound:
                        raise EnumerationBound(
                            f"group closure exceeds bound {bound}"
                        )
                    seen.add(ws)
                    out.append(ws)
                    nxt.append(ws)
        frontier = nxt
    return tuple(out)


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
def enumerate_group(
    rs: RootSystem, bound: int = DEFAULT_GROUP_BOUND
) -> tuple[WeylElem, ...]:
    """All group elements, breadth-first from the identity; duplicate-free."""
    order = weyl_group_order(rs.spec)
    if order > bound:
        raise EnumerationBound(f"group of order {order} exceeds bound {bound}")
    return group_closure(rs, rs.simple_roots, bound)


def parse_word(text: str, rank: int) -> tuple[int, ...]:
    """Parse ``"s1 s2 s1"``, ``"121"`` or ``"e"`` into simple-reflection indices."""
    body = text.strip()
    if body in ("", "e"):
        return ()
    tokens = body.split()
    indices: list[int] = []
    if len(tokens) == 1 and tokens[0].isdigit():
        indices = [int(ch) for ch in tokens[0]]
    else:
        for tok in tokens:
            t = tok[1:] if tok.startswith("s") else tok
            if not t.isdigit():
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
