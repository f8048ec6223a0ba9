"""Decision procedures for nonzero homomorphisms between twisted Verma
modules and between principal series modules.

Both criteria reduce to a finite intersection test over two constructions on
:class:`~vermahom.integral.IntegralData`: the *lower* side of ``x`` at ``mu``
(its ascent set moved by ``x^{-1}``) and the *upper* side (the same at
``wl x`` and ``wl mu``, ``wl`` the longest integral element).  The principal
series criterion intersects an upper side with a lower side closed under the
reflections that generate the weight's stabilizer; the twisted Verma
criterion is the same construction over the full system
``integral_data(rs, rho)``, sides swapped.  A verdict carries the translated
sets, a witness from the intersection when nonempty, and the derived
statement that all higher extension groups vanish exactly when the Hom
space does.  It keeps its two sides and the query, and builds the witness
certificates and the parameter echo from them the first time they are
read, so sweeps that only ask for the verdict pay for neither.

Every translated set comes from an :class:`Engine`: one bounded memo per
(side, integral data, element, weight) above one per (root system, word,
weight) of ascent sets, with an optional persistent cache beneath them that
is asked once per distinct ascent set.  A principal-series side checks its
own twist and weight on a memo miss, so large sweeps (orbit tables,
invariance checks) check each valid side once, while an invalid query, never
stored, raises on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

from .aset import AscentSet, ascent_set, ascent_set_word, check_word
from .cache import AscentSetCache
from .errors import DomainError, PreconditionError
from .integral import (
    IntegralData,
    dominant_representative,
    in_integral_group,
    integral_data,
    reduce_parameters,
    stabilizer_elements,
)
from .rootsystem import RootSystem, Weight
from .weyl import WeylElem, inverse, multiply, orbit
from .weyl import longest_element  # noqa: F401  (bench/tracer.py wraps it here)


@dataclass
class HomVerdict:
    """Outcome of one Hom-existence query.

    ``left_set`` and ``right_set`` are the two translated weight sets whose
    intersection decides the query; ``witness`` is the lexicographically
    smallest common weight when the Hom space is nonzero, else ``None``.
    ``ext_all_vanish`` is always the negation of ``hom_nonzero``: a nonzero
    Hom is itself a nonzero degree-zero extension, and a vanishing Hom forces
    all higher extension groups to vanish.

    ``left_certificate`` and ``right_certificate`` replay the witness on each
    side (``None`` for a zero Hom space).  They are built on first read, from
    the two sides the verdict was decided from, and then kept; so is
    ``parameters``, the echo of the query ``(lam, w1, mu1, w2, mu2)``, where
    ``lam`` is None for the twisted Verma criterion.
    """

    hom_nonzero: bool
    ext_all_vanish: bool
    witness: Optional[Weight]
    left_set: frozenset[Weight]
    right_set: frozenset[Weight]
    _sides: tuple[_Side, _Side] = field(repr=False, compare=False)
    _query: tuple = field(repr=False, compare=False)

    @cached_property
    def parameters(self) -> dict:
        lam, w1, mu1, w2, mu2 = self._query
        twisted = lam is None
        return {
            "kind": "twisted-verma" if twisted else "principal-series",
            "root_system": str(w1.rs.spec),
            **({} if twisted else {"lambda": str(lam)}),
            "w1": str(w1), "mu1": str(mu1), "w2": str(w2), "mu2": str(mu2),
            "notes": [] if not twisted or (mu1 - mu2).is_integral() else [
                "weights differ by a non-integral weight (disjoint lattices)"],
        }

    @cached_property
    def _certificates(self) -> tuple:
        return tuple(None if self.witness is None else
                     _certificate(side, self.witness) for side in self._sides)

    @property
    def left_certificate(self) -> Optional[dict]:
        return self._certificates[0]

    @property
    def right_certificate(self) -> Optional[dict]:
        return self._certificates[1]

    def to_dict(self) -> dict:
        return {
            "hom_nonzero": self.hom_nonzero,
            "ext_all_vanish": self.ext_all_vanish,
            "witness": None if self.witness is None else str(self.witness),
            "left_set": sorted(str(w) for w in self.left_set),
            "right_set": sorted(str(w) for w in self.right_set),
            "parameters": self.parameters,
        }

    def certificates_dict(self) -> Optional[dict]:
        """JSON-ready witness certificates, or None for a zero Hom space."""
        if self.left_certificate is None:
            return None
        def encode(cert):
            out = {
                "base": str(cert["base"]),
                "word": [list(r.coords) for r in cert["word"]],
                "positions": list(cert["positions"]),
            }
            if "stabilizer" in cert:
                out["stabilizer"] = cert["stabilizer"]
            return out
        return {
            "left": encode(self.left_certificate),
            "right": encode(self.right_certificate),
        }


@dataclass(frozen=True)
class _Side:
    """One translated set: the members of ``aset`` (the ascent set of
    ``twist``) moved by ``twist^{-1}``, then saturated by the stabilizer of
    ``stabilized.weight`` if given."""

    elements: frozenset[Weight]
    aset: AscentSet
    twist: WeylElem
    stabilized: Optional[IntegralData] = None

    @cached_property
    def stabilizer(self) -> tuple[WeylElem, ...]:
        """The stabilizer of a saturated side's weight in matrix order: built
        on the side's first certificate read, then kept with the side."""
        return stabilizer_elements(self.stabilized)


def _certificate(side: _Side, witness: Weight) -> Optional[dict]:
    """The lex-minimal certificate of the member of ``side.aset`` that maps
    to ``witness``; saturated sides try stabilizer elements in matrix order."""
    aset = side.aset

    def certify(x: Weight) -> dict:
        return {"base": aset.base, "word": aset.word,
                "positions": aset.certificates[x]}

    if side.stabilized is None:
        return certify(side.twist.act(witness))
    for u in side.stabilizer:
        y = side.twist.act(inverse(u).act(witness))
        if y in aset.elements:
            return {**certify(y), "stabilizer": str(u)}
    return None


def _verdict(left: _Side, right: _Side, query: tuple) -> HomVerdict:
    intersection = left.elements & right.elements
    witness = min(intersection) if intersection else None
    return HomVerdict(witness is not None, witness is None, witness,
                      left.elements, right.elements, (left, right), query)


def _common_system(*elements: WeylElem) -> RootSystem:
    rs = elements[0].rs
    for w in elements[1:]:
        if w.rs is not rs:
            raise DomainError("mixed root systems in one query")
    return rs


# -- translated sets ---------------------------------------------------------


def _lower(data: IntegralData, x: WeylElem, mu: Weight, fetch) -> _Side:
    """The ascent set of ``x`` at ``mu``, moved by ``x^{-1}``; ``fetch`` as
    in :func:`~vermahom.aset.ascent_set`."""
    aset = ascent_set(x, mu, data, word_fn=fetch)
    return _Side(frozenset(map(inverse(x).act, aset.elements)), aset, x)


def _upper(data: IntegralData, x: WeylElem, mu: Weight, fetch) -> _Side:
    """The ascent set of ``wl x`` at ``wl mu``, moved by ``x^{-1} wl``, with
    ``wl`` the longest integral element: since ``wl`` is an involution, the
    lower side of ``wl x`` at ``wl mu``."""
    wl = data.longest_element
    return _lower(data, multiply(wl, x), wl.act(mu), fetch)


def _check_ps(data: IntegralData, w: WeylElem, mu: Weight, slot: str) -> None:
    """The principal-series preconditions on one side's twist and weight."""
    if not in_integral_group(w, data):
        raise DomainError(f"w{slot} is not in the integral Weyl group of lambda")
    if any((a - b).denominator != 1 for a, b in mu._zip(data.weight)):
        raise DomainError(
            f"mu{slot} does not lie in lambda + (weight lattice); the module "
            "vanishes for such parameters"
        )


def _ps_left(data: IntegralData, w1: WeylElem, mu1: Weight, fetch) -> _Side:
    _check_ps(data, w1, mu1, "1")
    return _upper(data, w1, mu1, fetch)


def _ps_right(data: IntegralData, w2: WeylElem, mu2: Weight, fetch) -> _Side:
    """The lower side of ``w2`` at ``mu2``, closed under the reflections in
    ``data.stabilizer_gens``, which generate the stabilizer of a dominant
    weight (Steinberg; Humphreys, *Reflection Groups and Coxeter Groups*,
    1.12): its saturation, without building the group."""
    _check_ps(data, w2, mu2, "2")
    side = _lower(data, w2, mu2, fetch)
    return _Side(orbit(data.rs, side.elements, data.stabilizer_gens),
                 side.aset, side.twist, data)


class Engine:
    """The one way to reach a translated set or a memoized ascent set.

    ``side(builder, data, x, mu)`` memoizes the builders above; they fetch
    through ``ascent_set_word(rs, letters, mu, context=None)``, which runs
    :func:`~vermahom.aset.check_word`, then reads the ascent-set memo, then
    ``cache`` if any, and computes and stores on a cache miss.  The library
    uses the cacheless, process-wide :data:`DEFAULT`; a CLI run with a cache
    builds its own.
    """

    def __init__(self, cache: Optional[AscentSetCache] = None):
        self.cache = cache

        @lru_cache(maxsize=16384)
        def lookup(rs, word, mu):
            got = None if cache is None else cache.get(rs, word, mu)
            if got is None:
                got = ascent_set_word(rs, word, mu)
                if cache is not None:
                    cache.put(rs, word, mu, got)
            return got

        def fetch(rs, letters, mu, context=None):
            return lookup(rs, check_word(rs, letters, mu, context), mu)

        # neither memo may reach the engine: the cycle would keep a dropped
        # engine and its sets alive until the cyclic collector runs
        self.ascent_set_word = fetch
        self.side = lru_cache(maxsize=262144)(
            lambda builder, data, x, mu: builder(data, x, mu, fetch)
        )


DEFAULT = Engine()


def hom_twisted_verma(
    w1: WeylElem,
    mu1: Weight,
    w2: WeylElem,
    mu2: Weight,
    engine: Optional[Engine] = None,
) -> HomVerdict:
    """Does a nonzero map exist from the (w1, mu1) to the (w2, mu2) twisted
    Verma module?

    This is the principal-series construction over the full system
    ``integral_data(rs, rho)``, sides swapped: the left side is the lower side
    of ``w1^{-1}`` at ``mu1`` (the ascent set of ``w1^{-1}`` moved by ``w1``),
    the right side the upper side of ``w2^{-1}`` at ``mu2`` (the ascent set of
    ``w0 w2^{-1}`` at ``w0 mu2``, moved by ``w2 w0``), where ``w0`` is the
    longest element.  If the two weights are not congruent modulo the weight
    lattice, the query is still answered from the formula but the mismatch is
    flagged in the parameter echo.  Sets come from ``engine``, :data:`DEFAULT`
    if None.
    """
    rs = _common_system(w1, w2)
    engine = DEFAULT if engine is None else engine
    data = integral_data(rs, rs.rho)  # full system: every root is integral
    left = engine.side(_lower, data, inverse(w1), mu1)
    right = engine.side(_upper, data, inverse(w2), mu2)
    return _verdict(left, right, (None, w1, mu1, w2, mu2))


def hom_principal_series(
    lam: Weight,
    w1: WeylElem,
    mu1: Weight,
    w2: WeylElem,
    mu2: Weight,
    engine: Optional[Engine] = None,
) -> HomVerdict:
    """Does a nonzero map exist between the principal series with parameters
    (w1 lam, mu1) and (w2 lam, mu2)?

    Requires ``lam`` dominant, ``w1, w2`` in its integral Weyl group and both
    weights congruent to ``lam`` modulo the weight lattice; the left side is
    the upper side of ``w1`` at ``mu1``, the right side the lower side of
    ``w2`` at ``mu2`` saturated by the stabilizer of ``lam``.  Words run over
    the integral simple system with integral-length-reduced expressions.
    Sets come from ``engine``, :data:`DEFAULT` if None.
    """
    rs = _common_system(w1, w2)
    data = integral_data(rs, lam)
    if not data.dominant:
        raise PreconditionError(
            "lambda is not dominant; use normalize_principal_series to move "
            "the parameters to an isomorphic dominant form first"
        )
    engine = DEFAULT if engine is None else engine
    left = engine.side(_ps_left, data, w1, mu1)
    right = engine.side(_ps_right, data, w2, mu2)
    return _verdict(left, right, (lam, w1, mu1, w2, mu2))


def normalize_principal_series(
    lam: Weight, w: WeylElem, mu: Weight
) -> tuple[Weight, WeylElem, Weight]:
    """Move principal-series parameters to an isomorphic dominant form.

    The triple ``(lam, w, mu)`` denotes the series with parameters
    ``(w lam, w mu)``.  Returns ``(lam', w', mu')`` describing an isomorphic
    series with ``lam'`` dominant and ``w'`` in its integral Weyl group, so
    that :func:`hom_principal_series` accepts the result.  Valid inputs are
    returned unchanged, and the operation is idempotent.
    """
    rs = w.rs
    if len(lam.coords) != rs.rank or len(mu.coords) != rs.rank:
        raise DomainError("weight rank does not match the root system")
    if rs.is_dominant(lam):
        # same lam: swap w for the subgroup element inducing the same
        # positive system (w itself for a member): an isomorphic series
        return lam, reduce_parameters(w, lam), mu
    # recompose the true parameters, then dominantize within the integral
    # group orbit; this rewrites the same module over a dominant lam
    xi, nu = w.act(lam), w.act(mu)
    dom, v = dominant_representative(rs, xi)
    return dom, inverse(v), v.act(nu)
