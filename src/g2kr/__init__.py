"""Exact characters and graded Kirillov-Reshetikhin characters for G2."""

from .characters import (
    Character,
    decompose,
    irreducible_character,
    multiply,
    tensor,
    weyl_dim,
)
from .kr import (
    Family,
    GradedDecomposition,
    compare,
    conjecture_coefficient,
    conjecture_graded_character,
    enumerate_region,
    expand_weights,
    graded_dimensions,
    in_region,
    kr_graded_character,
    wt_gr,
)
from .weights import (
    ALL_ROOTS,
    ALPHA1,
    ALPHA2,
    LONG_ROOTS,
    OMEGA1,
    OMEGA2,
    POSITIVE_ROOTS,
    RHO,
    SHORT_ROOTS,
    Weight,
    dominant_chamber,
    dominant_representative,
    from_root_coords,
    in_root_cone,
    inner,
    is_dominant,
    simple_reflection,
    to_root_coords,
    weyl_orbit,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_ROOTS",
    "ALPHA1",
    "ALPHA2",
    "Character",
    "Family",
    "GradedDecomposition",
    "LONG_ROOTS",
    "OMEGA1",
    "OMEGA2",
    "POSITIVE_ROOTS",
    "RHO",
    "SHORT_ROOTS",
    "Weight",
    "class_keys",
    "class_members",
    "class_size_formula",
    "compare",
    "conjecture_coefficient",
    "conjecture_graded_character",
    "decompose",
    "dominant_chamber",
    "dominant_representative",
    "enumerate_region",
    "expand_weights",
    "from_root_coords",
    "graded_dimensions",
    "in_region",
    "in_root_cone",
    "inner",
    "irreducible_character",
    "is_dominant",
    "kr_graded_character",
    "multiply",
    "representative",
    "shift_vector",
    "simple_reflection",
    "tensor",
    "to_root_coords",
    "verify_partition",
    "weyl_dim",
    "weyl_orbit",
    "wt_gr",
]

#: The names of `__all__` not imported above, those of `equivalence`: served
#: on first access by `__getattr__`, so that importing the package (every
#: CLI process does) does not load `equivalence`.
_EQUIVALENCE_NAMES = frozenset(__all__).difference(globals())


def __getattr__(name):
    if name in _EQUIVALENCE_NAMES:
        from . import equivalence

        return getattr(equivalence, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _EQUIVALENCE_NAMES)
