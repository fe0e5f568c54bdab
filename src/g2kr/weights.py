"""Exact arithmetic on the G2 weight lattice.

Weights are stored in fundamental-weight coordinates: (a, b) means
a*omega1 + b*omega2.  The simple root alpha1 is short and alpha2 is long,
so in these coordinates

    alpha1 = (2, -1),   alpha2 = (-3, 2),
    omega1 = 2*alpha1 + alpha2,   omega2 = 3*alpha1 + 2*alpha2,

and the change of basis between weight and root coordinates is a
determinant-one integer matrix (for G2 the weight lattice equals the root
lattice).  omega2 is the highest root, i.e. V(omega2) is the adjoint
module; some sources misprint omega2 = 2*alpha1 + 3*alpha2, which is
inconsistent with 3*alpha1 + 2*alpha2 being the highest long root.

The invariant bilinear form is normalised so that short roots have squared
length 2; its Gram matrix in fundamental-weight coordinates is
[[2, 3], [3, 6]].  With this normalisation every quantity in the package
(inner products, Weyl-dimension factors) is an exact integer.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial


_tuple_new = tuple.__new__


def _pair(w, name: str = "a weight") -> tuple[int, int]:
    """The coordinates (a, b) of w; ValueError naming it unless w is a
    Weight, a tuple or a list of two ints (bool excluded): a set or a dict
    would make its iteration order the coordinates."""
    if not isinstance(w, (tuple, list)) or len(w) != 2:
        raise ValueError(f"{name} must be a pair of ints, got {w!r}")
    a, b = w
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"{name} must have int coordinates, got {w!r}")
    return a, b


def _as_weight(w, name: str) -> Weight:
    """w as a Weight; ValueError naming it as `_pair` does."""
    return w if type(w) is Weight else _tuple_new(Weight, _pair(w, name))


class Weight(namedtuple("Weight", "a b")):
    """Lattice point a*omega1 + b*omega2; a and b are ints (bool excluded)."""

    __slots__ = ()

    def __new__(cls, a, b):
        if type(a) is int is type(b):
            return _tuple_new(cls, (a, b))
        raise ValueError(f"a weight is two ints, got ({a!r}, {b!r})")

    # `_replace` builds through `_make`, so both get the check too.
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    # A pair of ints on either side is a weight: tuple concatenation would
    # be a silent bug, so (1, 0) + Weight(1, 0) is Weight(2, 0).
    def __add__(self, other):
        other = _as_weight(other, "a weight operand")
        return Weight(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_weight(other, "a weight operand")
        return Weight(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _as_weight(other, "a weight operand") - self

    def __neg__(self):
        return Weight(-self.a, -self.b)

    # Tuple repetition semantics would be a silent bug here, so integer
    # multiples are scalar multiples.
    def __mul__(self, k):
        return Weight(k * self.a, k * self.b)

    __rmul__ = __mul__


ZERO = Weight(0, 0)
OMEGA1 = Weight(1, 0)
OMEGA2 = Weight(0, 1)
RHO = Weight(1, 1)

ALPHA1 = Weight(2, -1)
ALPHA2 = Weight(-3, 2)


PositiveRoot = namedtuple("PositiveRoot", "weight long")


#: The six positive roots in height order: alpha1, alpha2, alpha1+alpha2,
#: 2alpha1+alpha2, 3alpha1+alpha2, 3alpha1+2alpha2.
POSITIVE_ROOTS = (
    PositiveRoot(ALPHA1, False),
    PositiveRoot(ALPHA2, True),
    PositiveRoot(ALPHA1 + ALPHA2, False),
    PositiveRoot(2 * ALPHA1 + ALPHA2, False),
    PositiveRoot(3 * ALPHA1 + ALPHA2, True),
    PositiveRoot(3 * ALPHA1 + 2 * ALPHA2, True),
)

SHORT_ROOTS = tuple(r.weight for r in POSITIVE_ROOTS if not r.long)
LONG_ROOTS = tuple(r.weight for r in POSITIVE_ROOTS if r.long)
ALL_ROOTS = tuple(r.weight for r in POSITIVE_ROOTS) + tuple(
    -r.weight for r in POSITIVE_ROOTS
)


def to_root_coords(w: Weight) -> tuple[int, int]:
    """Coordinates (p, q) with w = p*alpha1 + q*alpha2, for any pair of
    ints w; ValueError otherwise, as `_pair` says."""
    a, b = _pair(w)
    return (2 * a + 3 * b, a + 2 * b)


def from_root_coords(p: int, q: int) -> Weight:
    """Inverse of :func:`to_root_coords`."""
    return Weight(2 * p - 3 * q, 2 * q - p)


def height(w: Weight) -> int:
    """Sum of the root coordinates (the usual height for w in Q+)."""
    p, q = to_root_coords(w)
    return p + q


def in_root_cone(w: Weight) -> bool:
    """True iff w is a nonnegative integer combination of simple roots."""
    p, q = to_root_coords(w)
    return p >= 0 and q >= 0


def is_dominant(w: Weight) -> bool:
    """True iff both coordinates of the pair of ints w are nonnegative."""
    a, b = _pair(w)
    return a >= 0 and b >= 0


def inner(v: Weight, w: Weight) -> int:
    """Weyl-invariant form with (alpha1, alpha1) = 2, for any two pairs of
    ints; ValueError otherwise, as `_pair` says."""
    return _inner(*_pair(v), *_pair(w))


def _inner(va: int, vb: int, wa: int, wb: int) -> int:
    """`inner` of (va, vb) and (wa, wb), for ints, unchecked."""
    return 2 * va * wa + 3 * (va * wb + vb * wa) + 6 * vb * wb


def simple_reflection(i: int, w: Weight) -> Weight:
    """Reflection in the hyperplane orthogonal to alpha_i, i in {1, 2}."""
    a, b = _pair(w)
    if type(i) is int:
        if i == 1:
            return Weight(-a, a + b)
        if i == 2:
            return Weight(a + 3 * b, -b)
    raise ValueError(f"simple reflection index i must be 1 or 2, got {i!r}")


#: Weight(a, b) from the pair (a, b) of ints, without the type check of
#: `Weight.__new__`.
_weight = partial(_tuple_new, Weight)


def weyl_orbit(w: Weight) -> frozenset[Weight]:
    """Orbit of w under the (order 12, dihedral) Weyl group.

    The images of w = (a, b) under 1, s1, s2 s1, s1 s2 s1, s2 s1 s2 s1 and
    s1 s2 s1 s2 s1 are (a, b), (-a, a+b), (2a+3b, -a-b), (-2a-3b, a+2b),
    (a+3b, -a-2b) and (-a-3b, b); the orbit is those and their negatives
    (the longest element is -1).  ValueError unless w is a pair of ints,
    as `_pair` says.
    """
    a, b = _pair(w)
    c = a + b
    d = c + b
    e = d + b
    f = c + d
    return frozenset(map(_weight, (
        (a, b), (-a, c), (f, -c), (-f, d), (e, -d), (-e, b),
        (-a, -b), (a, -c), (-f, c), (f, -d), (-e, d), (e, -b),
    )))


def dominant_chamber(w: Weight) -> tuple[int, int, int]:
    """(a, b, sign): the dominant weight (a, b) in the Weyl orbit of w, and
    the sign det(x) of the Weyl group element x with x(w) = (a, b).

    On a wall (a or b zero) x is not unique and the sign is that of the
    reflections taken.  At most 6 reflections are needed (the length of
    the longest element).  ValueError unless w is a pair of ints, as
    `_pair` says.
    """
    return _chamber(*_pair(w))


def _chamber(a: int, b: int) -> tuple[int, int, int]:
    """`dominant_chamber` of (a, b), for ints, unchecked."""
    sign = 1
    while a < 0 or b < 0:
        # s1 or s2, as in `simple_reflection`
        a, b = (-a, a + b) if a < 0 else (a + 3 * b, -b)
        sign = -sign
    return a, b, sign


def dominant_representative(w: Weight) -> Weight:
    """The unique dominant weight in the Weyl orbit of w."""
    a, b, _ = dominant_chamber(w)
    return Weight(a, b)


def coroot_coefficients(root: Weight) -> tuple[int, int]:
    """Write the coroot of a root as c1*h1 + c2*h2 (integer c1, c2)."""
    p, q = to_root_coords(root)
    norm = inner(root, root)
    if not norm or (2 * p) % norm or (6 * q) % norm:
        raise ValueError(f"{root} is not a root of G2")
    return 2 * p // norm, 6 * q // norm


def pairing(w: Weight, i: int) -> int:
    """Evaluation w(h_i) against the simple coroots, i in {1, 2}."""
    a, b = _pair(w)
    if type(i) is int:
        if i == 1:
            return a
        if i == 2:
            return b
    raise ValueError(f"coroot index i must be 1 or 2, got {i!r}")
