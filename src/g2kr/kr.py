"""Graded Kirillov-Reshetikhin characters for G2, in two independent forms.

Four families, labelled by untwisted/twisted and by the fundamental node:
U1 and U2 for the current algebra, T1 and T2 for the twisted current
algebra.  Each sums one irreducible V(wt(r)) in grade gr(r) over the
lattice points r of a region.  U2 and T1 are "ladders": r = n in 0..m,
and grade n carries exactly V((m-n)*omega).  U1 and T2 sum over Z+^4:

    U1: wt(r) = (m - r1 - 3r2 - 3r3)*omega1 + (r2 + r3 - r4)*omega2,
        gr(r) = r1 + r2 + 2r3 + 2r4;
    T2: wt(r) = (r1 + r2 - r3)*omega1 + (m - r1 - r2 - r4)*omega2,
        gr(r) = r1 + 2r2 + 2r3 + 3r4.

Each family is defined once, in the `_REGIONS` table: the region's
affine constraints, the affine (wt, gr) map and the shift vector, and
the generating function's labels, terms, coefficients and class
representatives (a ladder has no classes).  The region's points, both
forms of the graded character and the equivalence classes are all read
off it.  In (r, m) the region is a unimodular simplicial cone: the
table lists exactly its rank + 1 facets, and `_generators` inverts their
matrix to give its generators.  The points of region(m) are the sums of
generators whose degrees add up to m, so |region(m)| is a coefficient of
a product of geometric series (`_region_size`).  One generator, the
slack, adds 1 to m and nothing to r, so region(m) is region(m - 1) and
its face u = 0 (`_faces`).  The graded character never visits region
points one by one in Python.
(wt, gr) is packed into one int key, linear in the point in m-free form,
so a generator moves every key by one constant, and a face is a cascade
of C-level maps over the other generators.  `_region_counts` sweeps m with
one Counter that grows by each face; `kr_graded_character` keeps its
last m.  The key is grade-major, so the sorted keys are in (grade, a, b)
order, the order of the output, and a key's residue mod radix**2 names
its weight: `_grades` is the one decoder, and yields a grade at a time,
each distinct weight decoded once.  The CLI renders the grades as they
come; `_decode` collects them, and `conjecture_differences` decodes only
to report a difference.

The second form is the generating function: the label (j, k, s) carries
coefficient(m, j, k) copies of one irreducible, and the coefficients
count the points of equivalence classes inside the region (see the
equivalence module); `compare` checks the two forms against each other
exactly; for a ladder that checks its labels against its cone, with no
oracle from outside the paper.  Quad indices must be four ints and m, j,
k nonnegative ints (bool excluded); anything else raises ValueError.
The character ring (`characters`) is loaded only by the functions that
use it, `_weight_basis` (and so `expand_weights`) and
`graded_dimensions`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque, namedtuple
from collections.abc import Iterable, Iterator
from enum import Enum
from functools import cache
from itertools import chain, repeat
from operator import add, mod, mul, sub

from .weights import OMEGA1, OMEGA2, Weight, _as_weight, _weight

QuadIndex = tuple[int, int, int, int]


class Family(Enum):
    """Module family: (un)twisted current algebra times fundamental node."""

    U1 = "u1"
    U2 = "u2"
    T1 = "t1"
    T2 = "t2"

    @property
    def fundamental(self) -> Weight:
        """The fundamental weight omega_i the family is built on."""
        return OMEGA1 if self in (Family.U1, Family.T1) else OMEGA2

    @property
    def quad_indexed(self) -> bool:
        """True for U1 and T2, the families with equivalence classes."""
        return _REGIONS[self].shift is not None


#: One family, the one definition of its region and of its generating
#: function:
#:   family          U1, U2, T1 or T2;
#:   constraints     (c, d) pairs; the region is {r in Z^rank : c.r + d*m
#:                   >= 0 for each pair}, of rank 1 for a ladder, else 4;
#:                   exactly rank + 1 facet rows, no implied one;
#:   wt_gr           (c, d) rows of wt = (a, b) and gr: a = c.r + d*m, then
#:                   b, then gr;
#:   shift           wt and gr are constant along this vector; None for a
#:                   ladder, whose (wt, gr) is injective: it has no classes;
#:   coefficient     (m, j, k) -> the generating-function coefficient,
#:                   before clamping at 0;
#:   labels          m -> the labels (j, k, top), with s in 0..top;
#:   term            (m, j, k) -> (a, b, base): the label (j, k, s) carries
#:                   V(a, b) in grade base + s;
#:   representative  (m, j, k, s) -> the canonical region point of the
#:                   class labelled (j, k, s); None for a ladder.
_Region = namedtuple(
    "_Region",
    "family constraints wt_gr shift coefficient labels term representative",
)


def _u1_representative(m: int, j: int, k: int, s: int) -> QuadIndex:
    r4, r1 = divmod(j - 2 * k, 3)  # j - 2k = r1 + 3*r4, 0 <= r1 <= 2
    return (r1, k + r4 - s, s, r4)


#: A ladder's region in (n, m): 0 <= n <= m.
_LADDER = (((1,), 0), ((-1,), 1))

_REGIONS = {
    region.family: region
    for region in (
        # U1 sums over the region A1, T2 over A2.
        _Region(
            Family.U1,
            # r1, r3, r4, r2 - r4 >= 0 and 2r1 + 3r2 + 3r3 <= m
            (((1, 0, 0, 0), 0), ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0),
             ((0, 1, 0, -1), 0), ((-2, -3, -3, 0), 1)),
            (((-1, -3, -3, 0), 1), ((0, 1, 1, -1), 0), ((1, 1, 2, 2), 0)),
            (3, -1, 0, -1),
            lambda m, j, k: (
                1 + (j - 2 * k) // 3 + min(0, (m + k - 2 * j) // 3)
            ),
            lambda m: ((j, k, k) for k in range(m // 3 + 1)
                       for j in range(2 * k, m - k + 1)),
            lambda m, j, k: (m - j - k, k, j - k),
            _u1_representative,
        ),
        _Region(
            Family.T2,
            # r2, r3, r4, r1 - r3 >= 0 and r1 + r2 + r3 + r4 <= m
            (((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0),
             ((1, 0, -1, 0), 0), ((-1, -1, -1, -1), 1)),
            (((1, 1, -1, 0), 0), ((-1, -1, 0, -1), 1), ((1, 2, 2, 3), 0)),
            (1, 0, 1, -1),
            lambda m, j, k: 1 + min(k, m - j - k),
            lambda m: ((j, k, j) for j in range(m + 1)
                       for k in range(m - j + 1)),
            lambda m, j, k: (j, k, 3 * m - 2 * j - 3 * k),
            lambda m, j, k, s: (j - s, s, 0, m - j - k),
        ),
        # U2 and T1: the point n carries V((m - n)*omega) in grade n, the
        # label (n, 0, 0).
        _Region(
            Family.U2,
            _LADDER,
            (((0,), 0), ((-1,), 1), ((1,), 0)),
            None,
            lambda m, j, k: 1,
            lambda m: ((j, 0, 0) for j in range(m + 1)),
            lambda m, j, k: (0, m - j, j),
            None,
        ),
        _Region(
            Family.T1,
            _LADDER,
            (((-1,), 1), ((0,), 0), ((1,), 0)),
            None,
            lambda m, j, k: 1,
            lambda m: ((j, 0, 0) for j in range(m + 1)),
            lambda m, j, k: (m - j, 0, j),
            None,
        ),
    )
}


def _region(family) -> _Region:
    """Table entry of a quad-indexed family, given as a Family or its name;
    ValueError for a ladder, which has no quad indices or classes."""
    family = Family(family)
    if not family.quad_indexed:
        raise ValueError(
            f"family {family.value} is ladder-indexed, not quad-indexed"
        )
    return _REGIONS[family]


def _check_m(m, name: str = "m") -> None:
    """Raise ValueError unless m is a nonnegative int (bool excluded)."""
    if type(m) is bool or not isinstance(m, int):
        raise ValueError(f"{name} must be an int, got {m!r}")
    if m < 0:
        raise ValueError(f"{name} must be nonnegative, got {m}")


def _check_quad(m, r) -> QuadIndex:
    """r as a tuple, after `_check_m(m)`; ValueError unless r is exactly
    four ints (bool excluded).  Negative coordinates are legal: (wt, gr)
    is an affine map on Z^4."""
    _check_m(m)
    quad = tuple(r) if isinstance(r, (tuple, list)) else ()
    if len(quad) != 4 or not all(type(x) is int for x in quad):
        raise ValueError(f"a quad index is four ints, got {r!r}")
    return quad


def _affine(rows, m: int, r) -> list[int]:
    """c.r + d*m for each (c, d) of rows, for an index r of any rank."""
    return [sum(map(mul, c, r)) + d * m for c, d in rows]


def _check_grade(grade) -> int:
    """grade; ValueError unless it is an int (bool excluded)."""
    if type(grade) is not int:
        raise ValueError(f"grade must be an int, got {grade!r}")
    return grade


class GradedDecomposition:
    """Map grade -> {dominant weight -> multiplicity}, canonical sparse form.

    No zero multiplicities and no empty grades are stored, so `==` is
    equality of graded characters in the irreducible basis.
    """

    __slots__ = ("_grades",)

    def __init__(self):
        self._grades: dict[int, dict[Weight, int]] = {}

    @classmethod
    def _wrap(cls, grades: dict[int, dict[Weight, int]]):
        # grades must hold Weight keys, no zero multiplicity and no empty
        # grade; it is not copied.
        g = cls.__new__(cls)
        g._grades = grades
        return g

    def add(self, grade: int, weight: Weight, mult: int = 1) -> None:
        """Add mult copies of V(weight) in grade.  ValueError naming the
        argument unless grade and mult are ints (bool excluded) and weight
        is a pair of ints."""
        _check_grade(grade)
        if type(mult) is not int:
            raise ValueError(f"multiplicity must be an int, got {mult!r}")
        weight = _as_weight(weight, "weight")
        if mult == 0:
            return
        component = self._grades.setdefault(grade, {})
        m = component.get(weight, 0) + mult
        if m:
            component[weight] = m
        else:
            del component[weight]
            if not component:
                del self._grades[grade]

    def grades(self) -> list[int]:
        return sorted(self._grades)

    def component(self, grade: int) -> dict[Weight, int]:
        """{weight: multiplicity} of grade; ValueError as `add`."""
        return dict(self._grades.get(_check_grade(grade), {}))

    def multiplicity(self, grade: int, weight: Weight) -> int:
        """The multiplicity of V(weight) in grade; ValueError as `add`."""
        component = self._grades.get(_check_grade(grade), {})
        return component.get(_as_weight(weight, "weight"), 0)

    def _by_grade(self) -> tuple:
        """(weights, grades) in the form of `_grades`: the distinct weights,
        and (grade, its weights sorted, their multiplicities) by grade."""
        grades = ((g, sorted(c), c) for g, c in sorted(self._grades.items()))
        return set().union(*self._grades.values()), (
            (g, ws, list(map(c.__getitem__, ws))) for g, ws, c in grades)

    def items(self) -> Iterable[tuple[int, Weight, int]]:
        """All (grade, weight, multiplicity) triples, sorted."""
        for grade in sorted(self._grades):
            component = self._grades[grade]
            for weight in sorted(component):
                yield grade, weight, component[weight]

    def __bool__(self):
        return bool(self._grades)

    def __eq__(self, other):
        return (
            isinstance(other, GradedDecomposition)
            and self._grades == other._grades
        )

    def __repr__(self):
        return f"GradedDecomposition({self._grades!r})"


def wt_gr(family: Family, m: int, r) -> tuple[Weight, int]:
    """(weight, grade) of a quad index for the quad-indexed families."""
    a, b, grade = _affine(_region(family).wt_gr, m, _check_quad(m, r))
    return Weight(a, b), grade


def _det(rows) -> int:
    """The determinant of a square matrix of int tuples, by Laplace
    expansion along its first row, skipping the zeros of that row."""
    if not rows:
        return 1
    first, *rest = rows
    return sum(
        (-1) ** i * c * _det([row[:i] + row[i + 1:] for row in rest])
        for i, c in enumerate(first) if c
    )


@cache
def _generators(region: _Region) -> tuple[tuple[tuple, int], ...]:
    """The rank + 1 generators (r, d) of the region as a cone in (r, m), in
    the order of its facet rows.  The points of region(m) are the sums of
    generators, with repeats, whose degrees d add up to m: each point once.

    The constraints, as the rows (*c, d) of a matrix F on (r, m), must be
    exactly rank + 1 facets with det F = +-1.  Then F^-1 = det F * adj F
    is an integer matrix (no division), and F * F^-1 = I puts each column
    on all facets but one, at 1 on that one: the cone is unimodular and
    simplicial, and the columns are its generators.  One of them must be
    the slack (0, ..., 0, 1), one more m at the same r, and each must have
    degree d >= 1, or region(m) is infinite.  Any other table raises
    ValueError naming the reason.
    """
    name = region.family.value
    facets = [(*c, d) for c, d in region.constraints]
    size = len(facets[0])
    if len(facets) != size:
        raise ValueError(f"the {name} region lists {len(facets)} "
                         f"constraints, not its rank + 1 = {size} facets")
    det = _det(facets)
    if det not in (1, -1):
        raise ValueError(
            f"the {name} region is not a unimodular simplicial cone in (r, m)"
        )
    # column j of det F * adj F: its entry i is det F * (-1)^(i + j) times
    # the minor of F without row j and column i
    generators = []
    for j in range(size):
        others = facets[:j] + facets[j + 1:]
        *r, d = (det * (-1) ** (i + j)
                 * _det([row[:i] + row[i + 1:] for row in others])
                 for i in range(size))
        generators.append((tuple(r), d))
    slack = ((0,) * (size - 1), 1)
    if slack not in generators:
        raise ValueError(f"the {name} region has no slack facet: no "
                         f"generator {(*slack[0], 1)} of one more m")
    for r, d in generators:
        if d < 1:
            raise ValueError(f"the {name} region is infinite: its generator "
                             f"{(*r, d)} has degree {d} < 1")
    return tuple(generators)


def _faces(region: _Region, top: int, origin, move) -> Iterator[list]:
    """face(m) for m = 0, ..., top: the points of region(m) on the slack's
    facet u = 0, each as origin moved by the other generators of its sum;
    move(r) moves one by the generator with r part r.

    The slack moves no r, so region(m) is region(m - 1) and face(m),
    disjoint: region(m) is face(0) + ... + face(m).  A face is a cascade
    over the other generators: the face with the first k of them is the
    one with the first k - 1 at m plus the one with the first k at m - d_k
    moved by generator k.  Int keys move by C-level maps, with no Python
    step per point.
    """
    stages = [(move(r), deque(maxlen=d))
              for r, d in _generators(region) if any(r)]
    for m in range(top + 1):
        face = [origin] if m == 0 else []
        for step, earlier in stages:  # earlier: the stage at m - d .. m - 1
            if len(earlier) == earlier.maxlen:
                face = [*face, *map(step, earlier[0])]
            earlier.append(face)
        yield face


def _region_size(region: _Region, m: int) -> int:
    """|region(m)|: the x^m coefficient of the product of 1/(1 - x^d) over
    the degrees d of the generators, an O(m) recurrence per generator."""
    series = [1] + [0] * m
    for _, d in _generators(region):
        for n in range(d, m + 1):
            series[n] += series[n - d]
    return series[m]


# No command calls it; benchmarks/test_benchmark.py imports it.
def enumerate_region(family: Family, m: int) -> list[QuadIndex]:
    """All quad indices of the family's region, in lexicographic order."""
    region = _region(family)
    _check_m(m)
    faces = _faces(region, m, (0, 0, 0, 0),
                   lambda r: lambda point: tuple(map(add, point, r)))
    return sorted(chain.from_iterable(faces))


#: How (wt, gr) = (a, b, grade) is packed into one int key.  With drift
#: the d column of the family's wt_gr rows, the m-free values are
#: (a, b, grade) - m*drift, and the key is (grade'*radix + a')*radix + b'
#: of the m-free (a', b', grade').  The key is injective on the box of
#: m-free values from low to low + radix - 1 in each coordinate, which
#: `_packing` builds around the region's points, and on that box the
#: order of the keys is the order of (grade, a, b).  A region point r has
#: key row . r at every m.
_Packing = namedtuple("_Packing", "radix low drift row")


def _packing(region: _Region, top: int) -> _Packing:
    """The packing whose box holds the m-free (wt, gr) of the points of
    region(m) for every m <= top.

    Such a point is a sum of generators (r, d) whose degrees add up to at
    most top, the slack's included, and the slack adds 0.  So each m-free
    value lies between the least and the greatest of top*v/d over the
    generators' values v, rounded inwards to ints.  The box may be loose.
    """
    values = [(_affine(region.wt_gr, 0, r), d)
              for r, d in _generators(region)]
    low = [min(-(-v[n] * top // d) for v, d in values) for n in range(3)]
    high = [max(v[n] * top // d for v, d in values) for n in range(3)]
    radix = 1 + max(map(sub, high, low))
    drift = [d for _, d in region.wt_gr]
    # the packed combination (grade*radix + a)*radix + b, coordinate-wise
    linear = [c for c, _ in region.wt_gr]
    row = tuple((g * radix + a) * radix + b for a, b, g in zip(*linear))
    return _Packing(radix, low, drift, row)


def _key(packing: _Packing, m: int, a: int, b: int, grade: int) -> int:
    """The key of (wt, gr) = (a, b, grade) at m, for a value in the box."""
    radix, _, (da, db, dg), _ = packing
    return ((grade - m * dg) * radix + a - m * da) * radix + b - m * db


def _grades(counts, packing: _Packing, m: int) -> tuple:
    """The one decoder of keys: counts a grade at a time, (weights, grades).

    The key is grade-major and a grade spans radix**2 keys, so a key's
    residue mod radix**2 names its weight, the same in every grade: weights
    maps each residue to its Weight, decoded once.  grades yields (grade,
    its weights in (a, b) order, their counts) for each grade in order,
    lists built by C-level maps over the grade's sorted keys, with no
    Python step per key.  counts is read here, not by grades."""
    radix, low, drift, _ = packing
    square = radix * radix
    base = _key(packing, 0, *low)
    oa, ob, og = (lo + m * d for lo, d in zip(low, drift))
    keys = sorted(counts)
    mults = list(map(counts.__getitem__, keys))
    weights = {}
    for residue in set(map(mod, keys, repeat(square))):
        a, b = divmod((residue - base) % square, radix)
        weights[residue] = _weight((a + oa, b + ob))

    def grades():
        lo = 0
        while lo < len(keys):
            grade = (keys[lo] - base) // square
            hi = bisect_left(keys, base + (grade + 1) * square, lo)
            residues = map(mod, keys[lo:hi], repeat(square))
            yield (grade + og, list(map(weights.__getitem__, residues)),
                   mults[lo:hi])
            lo = hi

    return weights.values(), grades()


def _closed_form(family: Family, m: int) -> tuple:
    """`_grades` of the closed form at m; the count is freed once read."""
    (_, (packing, counts)), = deque(_region_counts(family, m), maxlen=1)
    return _grades(counts, packing, m)


def _decode(grades) -> GradedDecomposition:
    """The decomposition of grades in the form of `_grades`."""
    return GradedDecomposition._wrap({grade: dict(zip(weights, mults))
                                      for grade, weights, mults in grades})


def kr_graded_character(family: Family, m: int) -> GradedDecomposition:
    """Closed-form graded character in the irreducible basis.

    Counts the packed (wt, gr) keys of the region points with C-level
    updates, one per face of region(m) (`_region_counts`).
    """
    _check_m(m)
    return _decode(_closed_form(family, m)[1])


def _region_counts(family: Family, top: int) -> Iterator[tuple]:
    """The closed form of the family for m = 0, ..., top, in packed form.

    Yields (m, (packing, counts)) for each m: counts is the Counter of the
    keys of region(m) under the packing of region(top).  It is one Counter
    that grows by face(m) at each m (`_faces`), so use it before the next.
    """
    region = _REGIONS[Family(family)]
    _check_m(top, "top")
    packing = _packing(region, top)
    counts = Counter()
    # the faces of the packed keys: row . r for a point r
    faces = _faces(region, top, 0,
                   lambda r: sum(map(mul, packing.row, r)).__add__)
    for m, face in enumerate(faces):
        counts.update(face)
        yield m, (packing, counts)


def conjecture_coefficient(family, m, j, k, negatives=None):
    """Multiplicity factor of the generating function at (j, k).

    Defined for arbitrary j, k >= 0 and clamped below at zero; a strictly
    negative pre-clamp value is logged and, when a `negatives` list is
    supplied, recorded as (family, m, j, k, value).  m, j and k must be
    nonnegative ints (bool excluded).
    """
    region = _region(family)
    for name, value in (("m", m), ("j", j), ("k", k)):
        _check_m(value, name)
    return _clamped(region, m, j, k, negatives)


def _clamped(region: _Region, m: int, j: int, k: int, negatives) -> int:
    """The coefficient at (j, k) clamped at 0, for checked arguments; a
    negative one is logged and recorded as `conjecture_coefficient` says."""
    raw = region.coefficient(m, j, k)
    if raw < 0:
        import logging  # only this path logs; most processes never load it

        logging.getLogger(__name__).warning(
            "negative pre-clamp coefficient %d for %s at m=%d, j=%d, k=%d",
            raw, region.family.value, m, j, k,
        )
        if negatives is not None:
            negatives.append((region.family, m, j, k, raw))
        return 0
    return raw


def _terms(region: _Region, m: int, negatives=None) -> Iterator[tuple]:
    """The generating function at m: (a, b, base, top, coefficient) for
    each label (j, k, top) with a positive `conjecture_coefficient`; it
    puts that many copies of V(a, b) in each grade base..base + top."""
    for j, k, top in region.labels(m):
        coeff = _clamped(region, m, j, k, negatives)
        if coeff:
            yield (*region.term(m, j, k), top, coeff)


def conjecture_graded_character(
    family: Family, m: int, negatives: list | None = None
) -> GradedDecomposition:
    """Generating-function form of the graded character: the sum of the
    terms of the table's labels (see `_terms`)."""
    _check_m(m)
    grades: dict[int, dict[Weight, int]] = {}
    terms = _terms(_REGIONS[Family(family)], m, negatives)
    for a, b, base, top, coeff in terms:
        weight = Weight(a, b)
        for grade in range(base, base + top + 1):
            component = grades.setdefault(grade, {})
            component[weight] = component.get(weight, 0) + coeff
    return GradedDecomposition._wrap(grades)


def conjecture_differences(
    family: Family, m: int, count: tuple, negatives: list | None = None
) -> list[tuple[int, Weight, int, int]]:
    """compare(closed form, generating function) of the family at m, for
    the closed form held as the count that `_region_counts` yields for m.

    The labels' bands of keys go into one plain dict, compared with the
    count (a Counter's own == walks both sides in Python).  A negative
    coefficient, a term outside the packing's box, a key two labels share
    or a difference take `conjecture_graded_character`'s route instead.
    """
    packing, counts = count
    region = _REGIONS[Family(family)]
    radix, (la, lb, lg), drift, _ = packing
    ma, mb, mg = (m * d for d in drift)  # (a, b, gr) - m*drift is m-free
    square = radix * radix  # one grade up
    bands, cells = [], 0
    for j, k, top in region.labels(m):
        coeff = region.coefficient(m, j, k)
        if coeff <= 0:
            if coeff:
                break
            continue
        a, b, base = region.term(m, j, k)
        if not (la <= a - ma < la + radix and lb <= b - mb < lb + radix
                and lg <= base - mg and base + top - mg < lg + radix):
            break
        first = ((base - mg) * radix + a - ma) * radix + b - mb
        bands.append(zip(range(first, first + (top + 1) * square, square),
                         repeat(coeff)))
        cells += top + 1
    else:
        packed = dict(chain.from_iterable(bands))
        if len(packed) == cells and packed == counts:
            return []
    return compare(_decode(_grades(counts, packing, m)[1]),
                   conjecture_graded_character(family, m, negatives))


def compare(
    a: GradedDecomposition, b: GradedDecomposition
) -> list[tuple[int, Weight, int, int]]:
    """All (grade, weight, mult_a, mult_b) where the two decompositions differ.

    Empty list iff a and b agree as functions (grade, weight) -> multiplicity.
    """
    if a == b:
        return []
    cells = sorted({(g, w) for g, w, _ in chain(a.items(), b.items())})
    return [(g, w, ma, mb) for g, w in cells
            if (ma := a.multiplicity(g, w)) != (mb := b.multiplicity(g, w))]


def _weight_basis(weights, grades) -> Iterator[tuple[int, list, list]]:
    """The weight basis of grades, given and yielded one grade at a time as
    (grade, weights, mults) in the form of `_grades`, whose distinct
    component weights are weights: a grade sums the dominant multiplicities
    of its components, found once per weight, in sorted order, before the
    first grade, and `characters._weight_rows` expands the total into its
    weights (int pairs) in (a, b) order.  Only the yielded lists outlive a
    grade's expansion.  Raises ValueError, before the first grade, for a
    component weight that is not dominant."""
    from .characters import (_dominant_multiplicities, _highest_weight,
                             _weight_rows)

    dominant = {w: _dominant_multiplicities(*_highest_weight(w, "component"))
                for w in sorted(weights)}

    def expanded(weights, mults):
        total: dict[Weight, int] = {}
        for weight, mult in zip(weights, mults):
            for w, k in dominant[weight].items():
                total[w] = total.get(w, 0) + mult * k
        a, b, mults = _weight_rows(total)
        return list(zip(a, b)), mults

    return ((grade, *expanded(ws, ms)) for grade, ws, ms in grades)


def expand_weights(g: GradedDecomposition) -> dict:
    """Expand each grade through the irreducible characters, in grade
    order: grade -> `characters.Character`, as `_weight_basis`.  Raises
    ValueError for a component weight that is not dominant."""
    from .characters import _rows_character

    return {grade: _rows_character(weights, mults)
            for grade, weights, mults in _weight_basis(*g._by_grade())}


def graded_dimensions(g: GradedDecomposition) -> list[tuple[int, int]]:
    """(grade, total dimension) pairs, sorted by grade."""
    from .characters import weyl_dim

    _, grades = g._by_grade()
    return [(grade, sum(map(mul, mults, map(weyl_dim, weights))))
            for grade, weights, mults in grades]
