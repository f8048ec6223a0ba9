"""Exact root-system data for the simple and semisimple Cartan types.

Weights are stored in the fundamental-weight basis, so coordinate ``i`` of a
weight ``mu`` is the coroot pairing of the ``i``-th simple root against
``mu``.  Roots are integer vectors in the simple-root basis.  All scalars are
:class:`fractions.Fraction`; no floating point is used anywhere.

The bilinear form is the standard normalized invariant form (long roots of
squared length 2 in each simple component).  Every quantity exposed here
(coroot pairings, reflections, dominance) is invariant under rescaling the
form, so the normalization is unobservable through the public API.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Sequence, Union

from .errors import DomainError, ValidationError

# Admissible ranks per series (min, max); None means unbounded above.
_RANK_RULES = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_COMPONENT_RE = re.compile(r"([A-Ga-g])([0-9]+)")


@dataclass(frozen=True, order=True)
class Root:
    """A root, as integer coordinates in the simple-root basis."""

    coords: tuple[int, ...]

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    @property
    def is_positive(self) -> bool:
        # roots of a root system have uniform coordinate sign
        return all(c >= 0 for c in self.coords)

    @property
    def height(self) -> int:
        return sum(self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True, order=True)
class Weight:
    """A weight, as exact coordinates in the fundamental-weight basis."""

    coords: tuple[Fraction, ...]

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def parse_weight(text: str, rank: int) -> Weight:
    """Parse ``"(-1,1/2)"`` (parentheses optional) into a Weight of given rank."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",")] if body else []
    if len(parts) != rank or any(not p for p in parts):
        raise ValidationError(
            f"weight {text!r} does not have {rank} comma-separated coordinates"
        )
    try:
        coords = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse weight {text!r}: {exc}") from None
    return Weight(coords)


@dataclass(frozen=True)
class RootSystemSpec:
    """A Cartan type: an ordered direct sum of simple components."""

    components: tuple[tuple[str, int], ...]

    @staticmethod
    def parse(text: str) -> "RootSystemSpec":
        parts = [p.strip() for p in text.replace("×", "x").split("x")]
        comps = []
        for part in parts:
            m = _COMPONENT_RE.fullmatch(part)
            if m is None:
                raise ValidationError(f"cannot parse Cartan type {text!r}")
            comps.append((m.group(1).upper(), int(m.group(2))))
        spec = RootSystemSpec(tuple(comps))
        spec.validate()
        return spec

    def validate(self) -> None:
        if not self.components:
            raise ValidationError("empty Cartan type")
        for letter, rank in self.components:
            rule = _RANK_RULES.get(letter)
            if rule is None:
                raise ValidationError(f"unknown series {letter!r}")
            lo, hi = rule
            if rank < lo:
                raise ValidationError(
                    f"type {letter} requires rank >= {lo}, got {letter}{rank}"
                )
            if hi is not None and rank > hi:
                raise ValidationError(
                    f"type {letter} requires rank <= {hi}, got {letter}{rank}"
                )

    @property
    def rank(self) -> int:
        return sum(n for _, n in self.components)

    def __str__(self) -> str:
        return "x".join(f"{letter}{rank}" for letter, rank in self.components)


def positive_root_count(spec: RootSystemSpec) -> int:
    """Closed-form number of positive roots of the given type."""
    counts = {"E": {6: 36, 7: 63, 8: 120}}
    total = 0
    for letter, n in spec.components:
        if letter == "A":
            total += n * (n + 1) // 2
        elif letter in ("B", "C"):
            total += n * n
        elif letter == "D":
            total += n * (n - 1)
        elif letter == "E":
            total += counts["E"][n]
        elif letter == "F":
            total += 24
        elif letter == "G":
            total += 6
    return total


def weyl_group_order(spec: RootSystemSpec) -> int:
    """Order of the Weyl group, from the classical formulas."""
    orders = {"E": {6: 51840, 7: 2903040, 8: 696729600}, "F": 1152, "G": 12}
    total = 1
    for letter, n in spec.components:
        if letter == "A":
            total *= factorial(n + 1)
        elif letter in ("B", "C"):
            total *= 2**n * factorial(n)
        elif letter == "D":
            total *= 2 ** (n - 1) * factorial(n)
        elif letter == "E":
            total *= orders["E"][n]
        else:
            total *= orders[letter]
    return total


def invert_matrix(
    matrix: Sequence[Sequence[int]],
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of an invertible square integer matrix (Gauss-Jordan)."""
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _cartan_block(letter: str, n: int) -> list[list[int]]:
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i: int, j: int, a: int = -1, b: int = -1) -> None:
        m[i][j] = a
        m[j][i] = b

    if letter == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif letter == "B":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -1, -2)  # last simple root is short
    elif letter == "C":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -2, -1)  # last simple root is long
    elif letter == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif letter == "E":
        edge(0, 2)
        edge(2, 3)
        edge(3, 4)
        edge(4, 5)
        if n >= 7:
            edge(5, 6)
        if n == 8:
            edge(6, 7)
        edge(1, 3)
    elif letter == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
    elif letter == "G":
        edge(0, 1, -3, -1)
    return m


class RootSystem:
    """An exact realization of a (semi)simple root system.

    Instances are immutable after construction and safe to share across
    threads; build them through :func:`build_root_system`, which returns a
    cached instance per Cartan type.
    """

    def __init__(self, spec: RootSystemSpec):
        spec.validate()
        self.spec = spec
        self.rank = spec.rank

        # Block-diagonal Cartan matrix: cartan[i][j] = pairing of the i-th
        # simple coroot against the j-th simple root.
        cartan = [[0] * self.rank for _ in range(self.rank)]
        offsets = []
        pos = 0
        for letter, n in spec.components:
            offsets.append((pos, pos + n))
            block = _cartan_block(letter, n)
            for i in range(n):
                for j in range(n):
                    cartan[pos + i][pos + j] = block[i][j]
            pos += n
        self.cartan: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in cartan)
        self.symmetrizer = self._symmetrize(offsets)
        self.simple_roots = tuple(
            Root(tuple(1 if j == i else 0 for j in range(self.rank)))
            for i in range(self.rank)
        )
        self.roots = frozenset(Root(c) for c in self._close_roots())
        self.positive_roots = tuple(
            sorted((r for r in self.roots if r.is_positive),
                   key=lambda r: (r.height, r.coords))
        )
        self.rho = Weight(tuple(Fraction(1) for _ in range(self.rank)))
        self.cartan_inverse = invert_matrix(self.cartan)

        # Per-root caches: fundamental-weight coordinates and the linear
        # functional computing the coroot pairing against a weight.
        self._weight_coords: dict[Root, tuple[int, ...]] = {}
        self._coroot: dict[Root, tuple[Fraction, ...]] = {}
        self._by_weight: dict[tuple[int, ...], Root] = {}
        for root in self.roots:
            wc = tuple(
                sum(self.cartan[i][j] * root.coords[j] for j in range(self.rank))
                for i in range(self.rank)
            )
            halfnorm = (
                sum(c * d * w for c, d, w in
                    zip(root.coords, self.symmetrizer, wc)) / 2
            )
            vec = tuple(
                Fraction(c) * d / halfnorm
                for c, d in zip(root.coords, self.symmetrizer)
            )
            self._weight_coords[root] = wc
            self._coroot[root] = vec
            self._by_weight[wc] = root

    def _symmetrize(self, offsets: Sequence[tuple[int, int]]) -> tuple[Fraction, ...]:
        # d_i = (alpha_i, alpha_i)/2, normalized so long roots get 1 per component
        d: list[Fraction | None] = [None] * self.rank
        for start, stop in offsets:
            d[start] = Fraction(1)
            pending = [start]
            while pending:
                i = pending.pop()
                for j in range(start, stop):
                    if self.cartan[i][j] != 0 and i != j and d[j] is None:
                        d[j] = d[i] * Fraction(self.cartan[i][j], self.cartan[j][i])
                        pending.append(j)
            top = max(d[start:stop])
            for k in range(start, stop):
                d[k] = d[k] / top
        return tuple(d)

    def _close_roots(self) -> set[tuple[int, ...]]:
        seen = {r.coords for r in (
            Root(tuple(1 if j == i else 0 for j in range(self.rank)))
            for i in range(self.rank))}
        frontier = set(seen)
        while frontier:
            nxt = set()
            for c in frontier:
                for i in range(self.rank):
                    p = sum(self.cartan[i][j] * c[j] for j in range(self.rank) if c[j])
                    img = list(c)
                    img[i] -= p
                    t = tuple(img)
                    if t not in seen:
                        seen.add(t)
                        nxt.add(t)
            frontier = nxt
        return seen

    # -- basic queries ----------------------------------------------------

    def weight(self, coords: Iterable[Union[int, str, Fraction]]) -> Weight:
        """Coerce an iterable of rationals into a Weight of this system."""
        w = Weight(tuple(Fraction(c) for c in coords))
        if len(w.coords) != self.rank:
            raise DomainError(f"weight rank {len(w.coords)} != system rank {self.rank}")
        return w

    def root(self, coords: Iterable[int]) -> Root:
        r = Root(tuple(int(c) for c in coords))
        if r not in self.roots:
            raise DomainError(f"{r} is not a root of {self}")
        return r

    def is_root(self, root: Root) -> bool:
        return root in self.roots

    def root_as_weight(self, root: Root) -> Weight:
        """The fundamental-weight coordinates of a root."""
        wc = self._require(root)
        return Weight(tuple(Fraction(x) for x in wc))

    def _require(self, root: Root) -> tuple[int, ...]:
        wc = self._weight_coords.get(root)
        if wc is None:
            raise DomainError(f"{root} is not a root of {self}")
        return wc

    # -- the core operations ----------------------------------------------

    def pairing(self, beta: Root, mu: Weight) -> Fraction:
        """Coroot pairing of the root ``beta`` against the weight ``mu``."""
        vec = self._coroot.get(beta)
        if vec is None:
            raise DomainError(f"{beta} is not a root of {self}")
        if len(mu.coords) != self.rank:
            raise DomainError(f"weight rank {len(mu.coords)} != system rank {self.rank}")
        return sum((v * m for v, m in zip(vec, mu.coords)), Fraction(0))

    def reflect(self, beta: Root, mu: Weight) -> Weight:
        """Reflection of ``mu`` in the hyperplane orthogonal to ``beta``."""
        m = self.pairing(beta, mu)
        wc = self._weight_coords[beta]
        return Weight(tuple(x - m * w for x, w in zip(mu.coords, wc)))

    def to_root_basis(self, mu: Weight) -> tuple[Fraction, ...]:
        """Coordinates of a weight in the simple-root basis."""
        if len(mu.coords) != self.rank:
            raise DomainError(f"weight rank {len(mu.coords)} != system rank {self.rank}")
        return tuple(
            sum((row[j] * mu.coords[j] for j in range(self.rank)), Fraction(0))
            for row in self.cartan_inverse
        )

    def in_root_lattice(self, mu: Weight) -> bool:
        """Is the weight an integer combination of roots?"""
        return all(c.denominator == 1 for c in self.to_root_basis(mu))

    def is_dominant(self, lam: Weight) -> bool:
        """True iff no positive root pairs with ``lam`` to a negative integer.

        This is weaker than classical dominance: negative non-integral
        pairings are allowed.
        """
        for beta in self.positive_roots:
            p = self.pairing(beta, lam)
            if p.denominator == 1 and p < 0:
                return False
        return True

    def __repr__(self) -> str:
        return f"RootSystem({self.spec})"

    def __str__(self) -> str:
        return str(self.spec)


@lru_cache(maxsize=None)
def _build_cached(canonical: str) -> RootSystem:
    return RootSystem(RootSystemSpec.parse(canonical))


def build_root_system(spec: Union[RootSystemSpec, str]) -> RootSystem:
    """Build (or fetch the cached) root system for a Cartan type.

    Accepts a :class:`RootSystemSpec` or a string like ``"A2"``, ``"B3"``,
    ``"A1xA1"``.  Simple roots follow the Bourbaki numbering.
    """
    if isinstance(spec, str):
        spec = RootSystemSpec.parse(spec)
    else:
        spec.validate()
    return _build_cached(str(spec))
