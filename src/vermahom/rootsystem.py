"""Exact root-system data for the simple and semisimple Cartan types.

Weights are stored in the fundamental-weight basis, so coordinate ``i`` of a
weight ``mu`` is the coroot pairing of the ``i``-th simple root against
``mu``.  Roots are integer vectors in the simple-root basis and coroots are
integer vectors in the simple-coroot basis; both come from the Cartan matrix
alone.  Only weights are rational (:class:`fractions.Fraction`); no floating
point is used anywhere.

The parameter layer (:meth:`RootSystem.is_dominant`,
:meth:`~vermahom.weyl.WeylElem.act`, :func:`~vermahom.integral.integral_data`
and :func:`~vermahom.integral.dominant_representative`) and the ascent-set
kernel (the frontier and the certificate walk of :mod:`vermahom.aset`) work
on a weight's integer form instead: its numerators over the lcm of its
denominators, paired with integer coroots by integer dot products, with one
``Fraction`` per coordinate built only for a result.

:meth:`RootSystem.pairing` and :meth:`RootSystem.reflect` still compute in
``Fraction``, and so do their callers: the strong-linkage oracle
(:func:`~vermahom.oracle.bgg_verma_hom`),
:func:`~vermahom.oracle.validate_chain`,
:func:`~vermahom.aset.replay_certificate` and :func:`~vermahom.weyl.orbit`.
The oracle and the replay are the independent references the kernel is
checked against, so they must not share its arithmetic.  Moving them to
integers waits for a benchmark whose run length does not grow with op speed:
the oracle is most of a cold rank-4 linkage op, and a faster oracle
lengthens the run."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import mul
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


@dataclass(frozen=True, order=True, slots=True)
class Weight:
    """A weight, as exact coordinates in the fundamental-weight basis.

    Weights key every memo, so the hash, ``hash(coords)``, is computed once
    at construction and kept in a slot."""

    coords: tuple[Fraction, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.coords))

    def __hash__(self) -> int:
        return self._hash

    def _zip(self, other: "Weight"):
        if len(self.coords) != len(other.coords):
            raise DomainError(
                f"weight ranks {len(self.coords)} and {len(other.coords)} differ")
        return zip(self.coords, other.coords)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in self._zip(other)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in self._zip(other)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def _integer_form(self) -> tuple[list[int], int]:
        """``(nums, den)`` with ``den`` the lcm of the denominators and
        ``self = nums / den`` coordinatewise."""
        den = lcm(*(c.denominator for c in self.coords))
        return [c.numerator * (den // c.denominator) for c in self.coords], den

    @staticmethod
    def _from_integer_form(nums, den: int) -> "Weight":
        """The weight ``nums / den``: one ``Fraction`` per coordinate."""
        return Weight(tuple(Fraction(n, den) for n in nums))

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


def weyl_group_order(spec: RootSystemSpec) -> int:
    """Order of the Weyl group, from the heights of its positive roots
    (:meth:`RootSystem.reflection_group_order`)."""
    rs = build_root_system(spec)
    return rs.reflection_group_order(rs.simple_roots, rs.positive_roots)


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
        pos = 0
        for letter, n in spec.components:
            block = _cartan_block(letter, n)
            for i in range(n):
                for j in range(n):
                    cartan[pos + i][pos + j] = block[i][j]
            pos += n
        self.cartan: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in cartan)
        self.simple_roots = tuple(
            Root(tuple(1 if j == i else 0 for j in range(self.rank)))
            for i in range(self.rank)
        )
        # Each root's coroot in simple-coroot coordinates: the linear
        # functional computing the pairing against a weight.
        self._coroot: dict[Root, tuple[int, ...]] = {
            Root(c): cv for c, cv in self._close_roots().items()
        }
        self.roots = frozenset(self._coroot)
        self.positive_roots = tuple(
            sorted((r for r in self.roots if r.is_positive),
                   key=lambda r: (r.height, r.coords))
        )
        # One fixed order of the roots, the index of a Weyl element's
        # permutation: the positive roots, then their negatives, so index
        # ``k`` is positive iff ``k < len(positive_roots)``.  The coroots and
        # the simple roots' indices by that order give a permutation's matrix.
        self.indexed_roots: tuple[Root, ...] = self.positive_roots + tuple(
            -r for r in self.positive_roots)
        self.root_index: dict[Root, int] = {
            r: k for k, r in enumerate(self.indexed_roots)}
        self._indexed_coroots = tuple(self._coroot[r] for r in self.indexed_roots)
        self._simple_indices = tuple(self.root_index[a] for a in self.simple_roots)
        self.rho = Weight(tuple(Fraction(1) for _ in range(self.rank)))
        self.cartan_inverse = invert_matrix(self.cartan)

        # Each root's fundamental-weight coordinates.
        self._weight_coords: dict[Root, tuple[int, ...]] = {
            root: tuple(
                sum(self.cartan[i][j] * root.coords[j] for j in range(self.rank))
                for i in range(self.rank)
            )
            for root in self.roots
        }

    def _close_roots(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Every root mapped to its coroot: the closure of the simple pairs
        ``(alpha_i, alpha_i^vee)`` under the simple reflections, since the
        coroot of ``s_i beta`` is ``s_i beta^vee``.  A root moves by row ``i``
        of the Cartan matrix, its coroot by column ``i``."""
        n = self.rank
        seen = {r.coords: r.coords for r in self.simple_roots}
        frontier = list(seen)
        while frontier:
            nxt = []
            for c in frontier:
                cv = seen[c]
                for i in range(n):
                    img = list(c)
                    img[i] -= sum(self.cartan[i][j] * c[j] for j in range(n) if c[j])
                    t = tuple(img)
                    if t not in seen:
                        co = list(cv)
                        co[i] -= sum(self.cartan[j][i] * cv[j] for j in range(n) if cv[j])
                        seen[t] = tuple(co)
                        nxt.append(t)
            frontier = nxt
        return seen

    def reflection_group_order(
        self, simple_roots: Sequence[Root], positive_roots: Sequence[Root]
    ) -> int:
        """Order of the group generated by the reflections in ``simple_roots``,
        whose positive roots are ``positive_roots`` in height order: the
        product of ``(h + 1) / h`` over their heights ``h`` over
        ``simple_roots`` (Macdonald, 1972).  A non-simple positive ``b`` pairs
        positively with some simple ``g``, and ``s_g b = b - k g`` is an
        earlier positive root, of height ``ht(b) - k``."""
        height = dict.fromkeys(simple_roots, 1)
        for b in positive_roots:
            if b in height:
                continue
            wc = self._weight_coords[b]
            for g in simple_roots:
                k = sum(x * y for x, y in zip(wc, self._coroot[g]))
                if k > 0:
                    image = Root(tuple(x - k * y for x, y in zip(b.coords, g.coords)))
                    height[b] = height[image] + k
                    break
        return prod(h + 1 for h in height.values()) // prod(height.values())

    # -- basic queries ----------------------------------------------------

    def weight(self, coords: Iterable[Union[int, str, Fraction]]) -> Weight:
        """Coerce an iterable of rationals into a Weight of this system."""
        w = Weight(tuple(Fraction(c) for c in coords))
        if len(w.coords) != self.rank:
            raise DomainError(f"weight rank {len(w.coords)} != system rank {self.rank}")
        return w

    def root(self, coords: Iterable[int]) -> Root:
        r = Root(tuple(int(c) for c in coords))
        self._index(r)
        return r

    def root_as_weight(self, root: Root) -> Weight:
        """The fundamental-weight coordinates of a root."""
        self._index(root)
        return Weight(tuple(Fraction(x) for x in self._weight_coords[root]))

    def _index(self, root: Root) -> int:
        """The position of ``root`` in :attr:`indexed_roots`; a non-root raises."""
        k = self.root_index.get(root)
        if k is None:
            raise DomainError(f"{root} is not a root of {self}")
        return k

    # -- the core operations ----------------------------------------------

    def pairing(self, beta: Root, mu: Weight) -> Fraction:
        """Coroot pairing of the root ``beta`` against the weight ``mu``."""
        vec = self._coroot.get(beta)
        if vec is None:
            raise DomainError(f"{beta} is not a root of {self}")
        if len(mu.coords) != self.rank:
            raise DomainError(f"weight rank {len(mu.coords)} != system rank {self.rank}")
        return sum((m * v for v, m in zip(vec, mu.coords)), Fraction(0))

    def reflect(self, beta: Root, mu: Weight) -> Weight:
        """Reflection of ``mu`` in the hyperplane orthogonal to ``beta``."""
        m = self.pairing(beta, mu)
        wc = self._weight_coords[beta]
        return Weight(tuple(x - m * w for x, w in zip(mu.coords, wc)))

    def _pairing_numerator(self, beta: Root, nums) -> int:
        """The pairing of ``beta`` against the weight ``nums / den``, times
        ``den``: an integer dot product with the coroot."""
        return sum(map(mul, self._coroot[beta], nums))

    def in_root_lattice(self, mu: Weight) -> bool:
        """Is the weight an integer combination of roots?"""
        if len(mu.coords) != self.rank:
            raise DomainError(f"weight rank {len(mu.coords)} != system rank {self.rank}")
        return all(
            sum((r * m for r, m in zip(row, mu.coords)), Fraction(0)).denominator == 1
            for row in self.cartan_inverse
        )

    def is_dominant(self, lam: Weight) -> bool:
        """True iff no positive root pairs with ``lam`` to a negative integer.

        This is weaker than classical dominance: negative non-integral
        pairings are allowed.  Computed on the integer form ``nums / den`` of
        ``lam``: the pairing ``p / den`` is a negative integer iff ``p < 0``
        and ``den`` divides ``p``.
        """
        if len(lam.coords) != self.rank:
            raise DomainError(f"weight rank {len(lam.coords)} != system rank {self.rank}")
        nums, den = lam._integer_form()
        for beta in self.positive_roots:
            p = self._pairing_numerator(beta, nums)
            if p < 0 and p % den == 0:
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
