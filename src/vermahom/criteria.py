"""Decision procedures for nonzero homomorphisms between twisted Verma
modules and between principal series modules.

Both criteria reduce to a finite intersection test: translate two ascent
sets by explicit group elements (saturating one side by the weight
stabilizer in the principal-series case) and intersect exactly.  A verdict
carries the translated sets, a witness from the intersection when nonempty,
and the derived statement that all higher extension groups vanish exactly
when the Hom space does.  It keeps the two ascent sets it was decided from
and builds the witness certificates from them the first time they are read,
so sweeps that only ask for the verdict never pay for certificates.

The translated sets are memoized per (system, element, weight), and so are
the precondition checks (dominance of the weight, membership of the twists
in its integral Weyl group), which makes large sweeps (orbit tables,
invariance checks) cheap.  An injected ascent-set function (e.g. the
persistent-cache wrapper) bypasses the translated-set memo; certificates
never call it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

from .aset import AscentSet, ascent_set
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
from .weyl import WeylElem, inverse, longest_element, multiply


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
    the ascent sets the verdict was decided from, and then kept.
    """

    hom_nonzero: bool
    ext_all_vanish: bool
    witness: Optional[Weight]
    left_set: frozenset[Weight]
    right_set: frozenset[Weight]
    parameters: dict
    _certify: Optional[Callable[[], tuple]] = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def _certificates(self) -> tuple:
        return (None, None) if self._certify is None else self._certify()

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
    """One translated set: ``translate`` applied to the members of ``aset``,
    then saturated by the stabilizer of ``stabilized.weight`` if given."""

    elements: frozenset[Weight]
    aset: AscentSet
    translate: WeylElem
    stabilized: Optional[IntegralData] = None


def _certificate(side: _Side, witness: Weight) -> Optional[dict]:
    """The lex-minimal certificate of the member of ``side.aset`` that maps
    to ``witness``; saturated sides try stabilizer elements in matrix order."""
    aset, back = side.aset, inverse(side.translate)

    def certify(x: Weight) -> dict:
        return {"base": aset.base, "word": aset.word,
                "positions": aset.certificates[x]}

    if side.stabilized is None:
        return certify(back.act(witness))
    for u in sorted(stabilizer_elements(side.stabilized), key=lambda g: g.matrix):
        y = back.act(inverse(u).act(witness))
        if y in aset.elements:
            return {**certify(y), "stabilizer": str(u)}
    return None


def _verdict(left: _Side, right: _Side, parameters) -> HomVerdict:
    intersection = left.elements & right.elements
    if not intersection:
        return HomVerdict(False, True, None, left.elements, right.elements,
                          parameters)
    witness = min(intersection)
    return HomVerdict(
        True, False, witness, left.elements, right.elements, parameters,
        lambda: (_certificate(left, witness), _certificate(right, witness)),
    )


def _common_system(*elements: WeylElem) -> RootSystem:
    rs = elements[0].rs
    for w in elements[1:]:
        if w.rs is not rs:
            raise DomainError("mixed root systems in one query")
    return rs


@lru_cache(maxsize=65536)
def _is_dominant(rs: RootSystem, lam: Weight) -> bool:
    return rs.is_dominant(lam)


@lru_cache(maxsize=65536)
def _in_integral_group(w: WeylElem, data: IntegralData) -> bool:
    return in_integral_group(w, data)


@lru_cache(maxsize=65536)
def _congruent(mu: Weight, lam: Weight) -> bool:
    return (mu - lam).is_integral()


# -- translated-set builders -------------------------------------------------


def _twisted_left(rs: RootSystem, w1: WeylElem, mu1: Weight, fn) -> _Side:
    data = integral_data(rs, rs.rho)  # full system: every root is integral
    aset = ascent_set(inverse(w1), mu1, data, word_fn=fn)
    return _Side(frozenset(w1.act(x) for x in aset.elements), aset, w1)


def _twisted_right(rs: RootSystem, w2: WeylElem, mu2: Weight, fn) -> _Side:
    data = integral_data(rs, rs.rho)
    w0 = longest_element(rs)
    aset = ascent_set(multiply(w0, inverse(w2)), w0.act(mu2), data, word_fn=fn)
    translate = multiply(w2, w0)
    return _Side(frozenset(translate.act(x) for x in aset.elements), aset,
                 translate)


def _ps_left(data: IntegralData, w1: WeylElem, mu1: Weight, fn) -> _Side:
    wl = data.longest_element
    aset = ascent_set(multiply(wl, w1), wl.act(mu1), data, word_fn=fn)
    translate = multiply(inverse(w1), wl)
    return _Side(frozenset(translate.act(x) for x in aset.elements), aset,
                 translate)


def _ps_right(data: IntegralData, w2: WeylElem, mu2: Weight, fn) -> _Side:
    w2_inv = inverse(w2)
    aset = ascent_set(w2, mu2, data, word_fn=fn)
    base = [w2_inv.act(x) for x in aset.elements]
    elements = frozenset(
        u.act(x) for u in stabilizer_elements(data) for x in base
    )
    return _Side(elements, aset, w2_inv, data)


_twisted_left_cached = lru_cache(maxsize=65536)(
    lambda rs, w1, mu1: _twisted_left(rs, w1, mu1, None)
)
_twisted_right_cached = lru_cache(maxsize=65536)(
    lambda rs, w2, mu2: _twisted_right(rs, w2, mu2, None)
)
_ps_left_cached = lru_cache(maxsize=65536)(
    lambda data, w1, mu1: _ps_left(data, w1, mu1, None)
)
_ps_right_cached = lru_cache(maxsize=65536)(
    lambda data, w2, mu2: _ps_right(data, w2, mu2, None)
)


def hom_twisted_verma(
    w1: WeylElem,
    mu1: Weight,
    w2: WeylElem,
    mu2: Weight,
    aset_word_fn=None,
) -> HomVerdict:
    """Does a nonzero map exist from the (w1, mu1) to the (w2, mu2) twisted
    Verma module?

    The test intersects the ``w1``-translate of the ascent set of
    ``w1^{-1}`` at ``mu1`` with the ``w2 w0``-translate of the ascent set of
    ``w0 w2^{-1}`` at ``w0 mu2``, where ``w0`` is the longest element.
    Ascent words run over the full simple system.  If the two weights are
    not congruent modulo the weight lattice, the query is still answered
    from the formula but the mismatch is flagged in the parameter echo.
    """
    rs = _common_system(w1, w2)
    if aset_word_fn is None:
        left = _twisted_left_cached(rs, w1, mu1)
        right = _twisted_right_cached(rs, w2, mu2)
    else:
        left = _twisted_left(rs, w1, mu1, aset_word_fn)
        right = _twisted_right(rs, w2, mu2, aset_word_fn)
    notes = []
    if not (mu1 - mu2).is_integral():
        notes.append("weights differ by a non-integral weight (disjoint lattices)")
    parameters = {
        "kind": "twisted-verma",
        "root_system": str(rs.spec),
        "w1": str(w1),
        "mu1": str(mu1),
        "w2": str(w2),
        "mu2": str(mu2),
        "notes": notes,
    }
    return _verdict(left, right, parameters)


def hom_principal_series(
    lam: Weight,
    w1: WeylElem,
    mu1: Weight,
    w2: WeylElem,
    mu2: Weight,
    aset_word_fn=None,
) -> HomVerdict:
    """Does a nonzero map exist between the principal series with parameters
    (w1 lam, mu1) and (w2 lam, mu2)?

    Requires ``lam`` dominant, ``w1, w2`` in its integral Weyl group and both
    weights congruent to ``lam`` modulo the weight lattice; the left ascent
    set is taken at the longest-integral-element translate of ``mu1`` and the
    right side is saturated by the stabilizer of ``lam``.  Words run over the
    integral simple system with integral-length-reduced expressions.
    """
    rs = _common_system(w1, w2)
    if not _is_dominant(rs, lam):
        raise PreconditionError(
            "lambda is not dominant; use normalize_principal_series to move "
            "the parameters to an isomorphic dominant form first"
        )
    data = integral_data(rs, lam)
    for name, w in (("w1", w1), ("w2", w2)):
        if not _in_integral_group(w, data):
            raise DomainError(f"{name} is not in the integral Weyl group of lambda")
    for name, mu in (("mu1", mu1), ("mu2", mu2)):
        if not _congruent(mu, lam):
            raise DomainError(
                f"{name} does not lie in lambda + (weight lattice); the module "
                "vanishes for such parameters"
            )
    if aset_word_fn is None:
        left = _ps_left_cached(data, w1, mu1)
        right = _ps_right_cached(data, w2, mu2)
    else:
        left = _ps_left(data, w1, mu1, aset_word_fn)
        right = _ps_right(data, w2, mu2, aset_word_fn)
    parameters = {
        "kind": "principal-series",
        "root_system": str(rs.spec),
        "lambda": str(lam),
        "w1": str(w1),
        "mu1": str(mu1),
        "w2": str(w2),
        "mu2": str(mu2),
        "notes": [],
    }
    return _verdict(left, right, parameters)


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
        data = integral_data(rs, lam)
        if in_integral_group(w, data):
            return lam, w, mu
        # same lam: swap w for the subgroup element inducing the same
        # positive system, which gives an isomorphic series
        return lam, reduce_parameters(w, lam), mu
    # recompose the true parameters, then dominantize within the integral
    # group orbit; this rewrites the same module over a dominant lam
    xi, nu = w.act(lam), w.act(mu)
    dom, v = dominant_representative(rs, xi)
    return dom, inverse(v), v.act(nu)
