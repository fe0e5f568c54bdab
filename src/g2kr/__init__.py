"""Exact characters and graded Kirillov-Reshetikhin characters for G2."""

__version__ = "0.1.0"

#: Each public name, listed once under the submodule that defines it.  The
#: names and the submodules themselves are served on first access by
#: `__getattr__`, so importing the package (every CLI process does) loads
#: no submodule, and a process loads only the modules it uses.
_NAMES = {
    "characters": ("Character", "decompose", "irreducible_character",
                   "multiply", "tensor", "weyl_dim"),
    "equivalence": ("class_size_formula", "representative", "shift_vector",
                    "verify_partition"),
    "kr": ("Family", "GradedDecomposition", "compare",
           "conjecture_coefficient", "conjecture_graded_character",
           "enumerate_region", "expand_weights", "graded_dimensions",
           "kr_graded_character", "wt_gr"),
    "weights": ("ALL_ROOTS", "ALPHA1", "ALPHA2", "LONG_ROOTS", "OMEGA1",
                "OMEGA2", "POSITIVE_ROOTS", "RHO", "SHORT_ROOTS", "Weight",
                "dominant_chamber", "dominant_representative",
                "from_root_coords", "in_root_cone", "inner", "is_dominant",
                "simple_reflection", "to_root_coords", "weyl_orbit"),
}

__all__ = sorted(name for names in _NAMES.values() for name in names)

_MODULE_OF = {name: module for module, names in _NAMES.items()
              for name in names}


def __getattr__(name):
    if name in _NAMES:
        from importlib import import_module  # kept out of a bare import

        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(__getattr__(_MODULE_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_NAMES))
