"""Characters of irreducible G2 modules and the character ring.

Weight multiplicities come from Racah's formula on the dominant chamber,
dimensions from the Weyl product formula.  The two are independent
computations and the test suite plays them against each other, and
against Freudenthal's recursion, which it keeps as an oracle.  Tensor
products are decomposed by the Brauer-Klimyk rule (Humphreys,
Introduction to Lie Algebras and Representation Theory, 24): each weight
nu of the smaller factor puts +-mult(nu) on the highest weight obtained by
reflecting big + nu + rho into the dominant chamber, minus rho.
`decompose(multiply(...))` is an independent route to the same result and
the tests keep it as the oracle.

Everything is exact integer arithmetic.  Every division is checked to be
exact, and every multiplicity that must be positive is checked, by an
explicit ArithmeticError, so the checks hold under `python -O` as well.
The inner loops run on plain (a, b) int pairs; the Weyl group action
(`simple_reflection`, and `_chamber` of `dominant_chamber`) and the form
(`_inner` of `inner`) come from `weights`, the kernels without the pair
check.  A whole character is its dominant part written to the Weyl
orbits by `_weight_rows`, on sorted int keys, with no `Weight` per term.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import prod
from operator import floordiv, mod

from .weights import (
    OMEGA1,
    OMEGA2,
    POSITIVE_ROOTS,
    RHO,
    Weight,
    _as_weight,
    _chamber,
    _inner,
    _weight,
    height,
    inner,
    simple_reflection,
)


class Character:
    """Finite-support integer function on the weight lattice.

    Stored sparsely: only nonzero multiplicities are kept, so structural
    equality is equality of characters.  Instances are immutable; all
    arithmetic returns new objects.  Keys are pairs of ints, and
    multiplicities and scale factors ints (bool excluded); anything else
    raises ValueError naming it.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[Weight, int] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for w, m in items:
                if type(w) is not Weight:
                    w = _as_weight(w, "character key")
                if type(m) is not int:
                    raise ValueError(
                        f"character multiplicity must be an int, got {m!r}"
                    )
                data[w] = data.get(w, 0) + m
        self._terms = {w: m for w, m in data.items() if m}

    @classmethod
    def _wrap(cls, terms: dict[Weight, int]) -> "Character":
        # terms must have Weight keys and no zero values; it is not copied.
        c = cls.__new__(cls)
        c._terms = terms
        return c

    def items(self):
        return self._terms.items()

    def support(self):
        return self._terms.keys()

    def __getitem__(self, w) -> int:
        return self._terms.get(_as_weight(w, "character key"), 0)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return isinstance(other, Character) and self._terms == other._terms

    def __add__(self, other):
        merged = dict(self._terms)
        for w, m in other.items():
            merged[w] = merged.get(w, 0) + m
        return Character(merged)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __mul__(self, other):
        return multiply(self, other)

    def scaled(self, k: int) -> "Character":
        if type(k) is not int:
            raise ValueError(f"scale factor must be an int, got {k!r}")
        return Character({w: k * m for w, m in self._terms.items()})

    def mass(self) -> int:
        """Total multiplicity, i.e. the dimension of the module."""
        return sum(self._terms.values())

    def is_weyl_invariant(self) -> bool:
        return all(
            self._terms.get(simple_reflection(i, w), 0) == m
            for w, m in self._terms.items()
            for i in (1, 2)
        )

    def __repr__(self):
        inside = ", ".join(
            f"({w.a},{w.b}): {m}" for w, m in sorted(self._terms.items())
        )
        return f"Character({{{inside}}})"


def multiply(c1: Character, c2: Character) -> Character:
    """Product in the character ring (convolution of supports)."""
    out: dict[Weight, int] = {}
    for w1, m1 in c1.items():
        for w2, m2 in c2.items():
            w = w1 + w2
            out[w] = out.get(w, 0) + m1 * m2
    return Character(out)


def _highest_weight(lam, name: str) -> Weight:
    """lam as a dominant Weight; ValueError naming the argument otherwise."""
    lam = _as_weight(lam, name)
    if lam.a < 0 or lam.b < 0:
        raise ValueError(
            f"highest weight {name} ({lam.a},{lam.b}) is not dominant"
        )
    return lam


#: (<omega1, alpha>, <omega2, alpha>, <rho, alpha>) for each positive root
#: alpha, so <lam + rho, alpha> = a*c1 + b*c2 + c3 for lam = (a, b); and
#: the product of the <rho, alpha>, the Weyl formula's denominator.
_WEYL_ROWS = tuple(tuple(inner(w, root.weight) for w in (OMEGA1, OMEGA2, RHO))
                   for root in POSITIVE_ROOTS)
_WEYL_DENOMINATOR = prod(c for _, _, c in _WEYL_ROWS)


def weyl_dim(lam: Weight) -> int:
    """dim V(lam) by the Weyl product formula (exact integers)."""
    lam = _highest_weight(lam, "lam")
    a, b = lam
    num = 1
    for c1, c2, c3 in _WEYL_ROWS:
        num *= a * c1 + b * c2 + c3
    q, r = divmod(num, _WEYL_DENOMINATOR)
    if r:
        raise ArithmeticError(
            f"Weyl dimension product for {lam} does not divide exactly"
        )
    return q


def _weyl_group() -> tuple[tuple[Weight, Weight], ...]:
    """The 12 Weyl group elements, each as the pair (w(omega1), w(omega2)):
    the closure of the identity under the simple reflections."""
    group, new = set(), {(OMEGA1, OMEGA2)}
    while new:
        group |= new
        new = {(simple_reflection(i, u), simple_reflection(i, v))
               for u, v in new for i in (1, 2)} - group
    return tuple(sorted(group))


#: w(x, y) = x * w(omega1) + y * w(omega2) for each (w(omega1), w(omega2)).
_WEYL_GROUP = _weyl_group()

#: Racah's formula: m(mu) = sum of c * m(mu + (da, db)) over these, one
#: for each w != 1: (da, db) = rho - w(rho) and c = -det(w).
_SHIFTS = tuple(sorted(
    (1 - u.a - v.a, 1 - u.b - v.b, u.b * v.a - u.a * v.b)
    for u, v in _WEYL_GROUP if (u, v) != (OMEGA1, OMEGA2)
))
#: At x >= _INNER_A and y >= _INNER_B every shifted point is dominant.
_INNER_A = -min(da for da, _, _ in _SHIFTS)
_INNER_B = -min(db for _, db, _ in _SHIFTS)


@lru_cache(maxsize=None)
def _wall_terms(x: int, y: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """Racah's terms at a dominant (x, y) near a wall: each shifted point
    reflected into the dominant chamber (multiplicities are Weyl
    invariant), equal points merged, zero coefficients dropped."""
    terms: dict[tuple[int, int], int] = {}
    for da, db, c in _SHIFTS:
        na, nb = x + da, y + db
        if na < 0 or nb < 0:
            na, nb, _ = _chamber(na, nb)
        terms[na, nb] = terms.get((na, nb), 0) + c
    return tuple((w, c) for w, c in terms.items() if c)


@lru_cache(maxsize=None)
def _dominant_multiplicities(a: int, b: int) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of V(a, b); do not mutate.

    The dominant weights mu of V(a, b) are the dominant mu with
    (a, b) - mu in Q+.  For mu != (a, b) the coefficient of e^(mu + rho)
    in the Weyl character formula gives Racah's formula
    m(mu) = -sum over w != 1 of det(w) * m(mu + rho - w(rho)).  Each
    mu + rho - w(rho) has a dominant representative strictly above mu, so
    solving in order of decreasing |mu + rho|^2 makes every term a lookup
    of a weight already solved (or outside the support, 0).
    """
    lp, lq = 2 * a + 3 * b, a + 2 * b  # root coordinates of (a, b)
    top = _inner(a + 1, b + 1, a + 1, b + 1)
    candidates = sorted(
        (top - _inner(x + 1, y + 1, x + 1, y + 1), x, y)
        for x in range(lp // 2 + 1)
        for y in range((lq - x) // 2 + 1)
        if 2 * x + 3 * y <= lp and x + 2 * y <= lq
    )
    mult: dict[Weight, int] = {}
    get = mult.get
    for _, x, y in candidates:
        if x == a and y == b:
            m = 1
        elif x >= _INNER_A and y >= _INNER_B:
            m = 0
            for da, db, c in _SHIFTS:
                k = get((x + da, y + db))
                if k:
                    m += c * k
        else:
            m = 0
            for w, c in _wall_terms(x, y):
                k = get(w)
                if k:
                    m += c * k
        if m <= 0:
            raise ArithmeticError(
                f"Racah's formula gives multiplicity {m} at ({x},{y}) "
                f"in V({a},{b})"
            )
        mult[Weight(x, y)] = m
    return mult


def _weight_rows(dominant: dict[Weight, int]) -> tuple:
    """The support of a Weyl-invariant character, given its dominant part,
    as the columns a, b (iterators) and mult (a list) of its rows sorted by
    (a, b), to be read in step; zero multiplicities are dropped.

    Weights are packed into ints: no orbit coordinate of a dominant (x, y)
    exceeds 2x + 3y in absolute value, so with off the largest of those and
    span = 2 off + 1, the key (a + off) * span + b + off is injective and
    ordered as (a, b).  Each Weyl group element is linear, so it sends
    (x, y) to the key x * k1 + y * k2 + base for two ints k1, k2.  The
    columns are C-level maps over the sorted keys, with no Python step per
    row, and share the coordinates of one list of the ints -off..off.
    """
    weights = [w for w, m in dominant.items() if m]
    mults = [m for m in dominant.values() if m]
    off = max((2 * x + 3 * y for x, y in weights), default=0)
    span = 2 * off + 1
    base = off * span + off
    packed: dict[int, int] = {}
    for (p1, q1), (p2, q2) in _WEYL_GROUP:
        k1, k2 = p1 * span + q1, p2 * span + q2
        # a wall weight's images coincide and write the same value
        packed.update(zip([x * k1 + y * k2 + base for x, y in weights], mults))
    coordinate = list(range(-off, off + 1)).__getitem__
    keys = sorted(packed)
    mults = list(map(packed.__getitem__, keys))  # packed is freed here
    return (map(coordinate, map(floordiv, keys, repeat(span))),
            map(coordinate, map(mod, keys, repeat(span))), mults)


def _rows_character(weights, mults) -> Character:
    """The Character of rows given as the columns weights (int pairs) and
    mults (nonzero)."""
    return Character._wrap(dict(zip(map(_weight, weights), mults)))


@lru_cache(maxsize=None)
def _irreducible_character(lam: Weight) -> Character:
    a, b, mults = _weight_rows(_dominant_multiplicities(*lam))
    return _rows_character(zip(a, b), mults)


def irreducible_character(lam) -> Character:
    """Character of the irreducible module with highest weight lam."""
    return _irreducible_character(_highest_weight(lam, "lam"))


def decompose(c: Character) -> dict[Weight, int]:
    """Write a Weyl-invariant character as a sum of irreducible ones.

    Peels repeatedly at the height-maximal dominant support weight.  A
    Weyl-invariant character is determined by its dominant part, so only
    dominant weights are tracked, and each peel subtracts the dominant
    multiplicities of one irreducible.  Raises ValueError if the input is not
    Weyl-invariant or not a nonnegative integer combination of
    irreducible characters.
    """
    if not c.is_weyl_invariant():
        raise ValueError("decompose expects a Weyl-invariant character")
    remaining = {w: m for w, m in c.items() if w.a >= 0 and w.b >= 0}
    out: dict[Weight, int] = {}
    while remaining:
        mu = max(remaining, key=lambda w: (height(w), w))
        m = remaining[mu]
        if m < 0:
            raise ValueError("not a nonnegative sum of irreducible characters")
        out[mu] = m
        for w, k in _dominant_multiplicities(*mu).items():
            left = remaining.get(w, 0) - m * k
            if left:
                remaining[w] = left
            else:
                remaining.pop(w, None)
    return out


def tensor(lam, mu) -> dict[Weight, int]:
    """Decomposition of V(lam) (x) V(mu) into irreducibles (Brauer-Klimyk).

    Runs over the weights of the factor of smaller dimension.  Raises
    ArithmeticError if a multiplicity comes out negative.
    """
    lam = _highest_weight(lam, "lam")
    mu = _highest_weight(mu, "mu")
    big, small = (lam, mu) if weyl_dim(lam) >= weyl_dim(mu) else (mu, lam)
    a, b = big.a + 1, big.b + 1  # big + rho
    out: dict[tuple[int, int], int] = {}
    for (na, nb), m in irreducible_character(small).items():
        x, y, sign = _chamber(a + na, b + nb)
        if x and y:  # a point on a wall has a stabiliser and cancels
            w = (x - 1, y - 1)
            out[w] = out.get(w, 0) + sign * m
    parts: dict[Weight, int] = {}
    for (x, y), m in out.items():
        if m < 0:
            raise ArithmeticError(
                f"Brauer-Klimyk gives multiplicity {m} for ({x},{y}) in "
                f"V({lam.a},{lam.b}) (x) V({mu.a},{mu.b})"
            )
        if m:
            parts[Weight(x, y)] = m
    return parts
