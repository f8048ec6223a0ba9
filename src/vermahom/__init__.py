"""Exact decision procedures for homomorphisms between twisted Verma modules
and between principal series, over root-system and Weyl-group combinatorics.

Everything is computed with exact rational arithmetic.  The public surface
splits into: root systems (:mod:`~vermahom.rootsystem`), Weyl group elements
(:mod:`~vermahom.weyl`), integral subsystems of a weight
(:mod:`~vermahom.integral`), ascent sets (:mod:`~vermahom.aset`), the two
Hom criteria (:mod:`~vermahom.criteria`) and a CLI (:mod:`~vermahom.cli`).
The brute-force validators and sweep checks live in :mod:`vermahom.oracle`
and are not re-exported here.
"""

from .aset import (
    AscentSet,
    ascent_set,
    ascent_set_word,
    inversion_sequence,
    replay_certificate,
)
from .criteria import (
    HomVerdict,
    hom_principal_series,
    hom_twisted_verma,
    normalize_principal_series,
)
from .errors import (
    DomainError,
    EnumerationBound,
    PreconditionError,
    ValidationError,
)
from .integral import (
    IntegralData,
    canonical_integral_word,
    dominant_representative,
    in_integral_group,
    integral_data,
    integral_group_elements,
    integral_length,
    reduce_parameters,
    stabilizer_elements,
)
from .rootsystem import (
    Root,
    RootSystem,
    RootSystemSpec,
    Weight,
    build_root_system,
    parse_weight,
    positive_root_count,
    weyl_group_order,
)
from .weyl import (
    WeylElem,
    canonical_reduced_word,
    enumerate_group,
    format_word,
    from_word,
    identity,
    inverse,
    length,
    longest_element,
    multiply,
    parse_word,
    reflection,
    simple_reflection,
)

__version__ = "0.1.0"

__all__ = [
    "AscentSet",
    "DomainError",
    "EnumerationBound",
    "HomVerdict",
    "IntegralData",
    "PreconditionError",
    "Root",
    "RootSystem",
    "RootSystemSpec",
    "ValidationError",
    "Weight",
    "WeylElem",
    "ascent_set",
    "ascent_set_word",
    "build_root_system",
    "canonical_integral_word",
    "canonical_reduced_word",
    "dominant_representative",
    "enumerate_group",
    "format_word",
    "from_word",
    "hom_principal_series",
    "hom_twisted_verma",
    "identity",
    "in_integral_group",
    "integral_data",
    "integral_group_elements",
    "integral_length",
    "inverse",
    "inversion_sequence",
    "length",
    "longest_element",
    "multiply",
    "normalize_principal_series",
    "parse_weight",
    "parse_word",
    "positive_root_count",
    "reduce_parameters",
    "reflection",
    "replay_certificate",
    "simple_reflection",
    "stabilizer_elements",
    "weyl_group_order",
]
