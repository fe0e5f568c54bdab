"""Graded Kirillov-Reshetikhin characters for G2, in two independent forms.

Four families, labelled by untwisted/twisted and by the fundamental node:
U1 and U2 for the current algebra, T1 and T2 for the twisted current
algebra.  U2 and T1 are "ladders": grade n carries exactly V((m-n)*omega).
U1 and T2 sum one irreducible V(wt(r)) in grade gr(r) over the lattice
points r of a region in Z+^4:

    U1: wt(r) = (m - r1 - 3r2 - 3r3)*omega1 + (r2 + r3 - r4)*omega2,
        gr(r) = r1 + r2 + 2r3 + 2r4;
    T2: wt(r) = (r1 + r2 - r3)*omega1 + (m - r1 - r2 - r4)*omega2,
        gr(r) = r1 + 2r2 + 2r3 + 3r4.

Each family is defined once, in the `_REGIONS` table: the region's
affine constraints, the affine (wt, gr) map and the shift vector, and the
generating function's labels, terms, coefficients and class
representatives.  Membership, enumeration, both forms of the graded
character and the equivalence classes are all read off it.  The graded
character never visits region points one by one.  (wt, gr) is packed
into one int key, affine in the point, so along each run of r4 through
the region the keys are an arithmetic progression, and C-level maps over
r3 hand the runs of one (r1, r2) slab to a single Counter.  `_count`
counts one region(m) whole, for a single m (`kr_graded_character`, a
class check given no count).  `_region_counts` sweeps m by peeling
(`_peel`): region(m) is region(m - p) moved by a unit vector e_i, whose
keys all move by one constant, plus the face r_i = 0, which has O(m)
slabs where the region has O(m^2).  The packed form stays inside this
module: `conjecture_differences` and `_packed_check` (the class check's
view of it) decode it only to report a difference.

The second form is the generating function: the label (j, k, s) carries
coefficient(m, j, k) copies of one irreducible, and the coefficients
count the points of equivalence classes inside the region (see the
equivalence module); `compare` checks the two forms against each other
exactly.  Quad indices must be four ints and m, j, k nonnegative ints
(bool excluded); anything else raises ValueError.  The character ring
(`characters`) is loaded only by the two functions that use it,
`expand_weights` and `graded_dimensions`.
"""

from __future__ import annotations

from collections import Counter, deque, namedtuple
from collections.abc import Iterable, Iterator
from enum import Enum
from itertools import chain, repeat

from .weights import OMEGA1, OMEGA2, Weight, weyl_orbit

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
        """True for the two families summed over a region of Z+^4."""
        return self in _REGIONS


#: One quad-indexed family, the one definition of its region and of its
#: generating function:
#:   family          U1 or T2;
#:   constraints     (c, d) pairs; the region is {r in Z^4 : c.r + d*m >= 0
#:                   for each pair};
#:   wt_gr           (c, d) rows of wt = (a, b) and gr: a = c.r + d*m, then
#:                   b, then gr;
#:   shift           wt and gr are constant along this vector;
#:   coefficient     (m, j, k) -> the generating-function coefficient,
#:                   before clamping at 0;
#:   labels          m -> the labels (j, k, top), with s in 0..top;
#:   term            (m, j, k) -> (a, b, base): the label (j, k, s) carries
#:                   V(a, b) in grade base + s;
#:   representative  (m, j, k, s) -> the canonical region point of the
#:                   class labelled (j, k, s).
_Region = namedtuple(
    "_Region",
    "family constraints wt_gr shift coefficient labels term representative",
)


def _u1_representative(m: int, j: int, k: int, s: int) -> QuadIndex:
    r4, r1 = divmod(j - 2 * k, 3)  # j - 2k = r1 + 3*r4, 0 <= r1 <= 2
    return (r1, k + r4 - s, s, r4)


_NONNEGATIVE = (((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0),
                ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0))

_REGIONS = {
    region.family: region
    for region in (
        # U1 sums over the region A1, T2 over A2.
        _Region(
            Family.U1,
            _NONNEGATIVE + (((0, 1, 0, -1), 0), ((-2, -3, -3, 0), 1)),
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
            _NONNEGATIVE + (((1, 0, -1, 0), 0), ((-1, -1, -1, -1), 1)),
            (((1, 1, -1, 0), 0), ((-1, -1, 0, -1), 1), ((1, 2, 2, 3), 0)),
            (1, 0, 1, -1),
            lambda m, j, k: 1 + min(k, m - j - k),
            lambda m: ((j, k, j) for j in range(m + 1)
                       for k in range(m - j + 1)),
            lambda m, j, k: (j, k, 3 * m - 2 * j - 3 * k),
            lambda m, j, k, s: (j - s, s, 0, m - j - k),
        ),
    )
}


def _region(family) -> _Region:
    """Table entry of a quad-indexed family, given as a Family or its name."""
    if not isinstance(family, Family):
        family = Family(family)
    region = _REGIONS.get(family)
    if region is None:
        raise ValueError(
            f"family {family.value} is ladder-indexed, not quad-indexed"
        )
    return region


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
    """c.r + d*m for each (c, d) of rows."""
    r1, r2, r3, r4 = r
    return [
        c1 * r1 + c2 * r2 + c3 * r3 + c4 * r4 + d * m
        for (c1, c2, c3, c4), d in rows
    ]


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
        return dict(self._grades.get(grade, {}))

    def multiplicity(self, grade: int, weight: Weight) -> int:
        return self._grades.get(grade, {}).get(weight, 0)

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


def _span(values, lower, upper) -> range:
    """The t with values[n] + s*t >= 0 for each (n, s) in lower and
    values[n] - s*t >= 0 for each (n, s) in upper (every s > 0)."""
    return range(
        max([-(values[n] // s) for n, s in lower]),
        min([values[n] // s for n, s in upper]) + 1,
    )


def _signed(pairs) -> tuple[list, list]:
    """(n, s) pairs with s != 0 as the (lower, upper) lists of `_span`."""
    pairs = list(pairs)
    return (
        [(n, s) for n, s in pairs if s > 0],
        [(n, -s) for n, s in pairs if s < 0],
    )


def _slabs(region: _Region, m: int, rows=()) -> Iterator[tuple]:
    """The region as slabs of fixed (r1, r2), in lexicographic order.

    Yields ((r1, r2), r3s, (n, dn), keys): r3s is the range of r3, and for
    r3 in r3s the region points are (r1, r2, r3, r4) for the n + dn*r3
    values of r4 from 0 on.  keys holds (v, dv, step) for each (c, d) of
    rows: the row is v + dv*r3 at r4 = 0 and grows by step with r4.

    r_i is bounded by the constraints nonzero at i with no positive later
    coefficient: the later coordinates are >= 0, so dropping them loosens
    such a constraint.  Each constraint is exact at its last nonzero
    coordinate, so the loops give the region and nothing else.
    """
    constraints = region.constraints
    b1, b2, b3, (lower, upper) = (
        _signed(
            (n, c[i]) for n, (c, _) in enumerate(constraints)
            if max(c[i + 1:], default=0) <= 0
        )
        for i in range(4)
    )
    # r4 >= 0 and one bound r4 <= (affine in r3): a run's length is affine
    if [constraints[n] for n, _ in lower] != [((0, 0, 0, 1), 0)] or (
        [s for _, s in upper] != [1]
    ):
        raise ValueError("r4 needs r4 >= 0 and one unit bound")
    ((top, _),) = upper
    rows = constraints + tuple(rows)
    c1, c2, c3, c4 = ([c[i] for c, _ in rows] for i in range(4))
    key_rows = range(len(constraints), len(rows))
    v0 = [d * m for _, d in rows]
    for r1 in _span(v0, *b1):
        v1 = [v + r1 * c for v, c in zip(v0, c1)]
        for r2 in _span(v1, *b2):
            v2 = [v + r2 * c for v, c in zip(v1, c2)]
            keys = [(v2[k], c3[k], c4[k]) for k in key_rows]
            yield (r1, r2), _span(v2, *b3), (v2[top] + 1, c3[top]), keys


def enumerate_region(family: Family, m: int) -> list[QuadIndex]:
    """All quad indices of the family's region, in lexicographic order."""
    region = _region(family)
    _check_m(m)
    return [
        (r1, r2, r3, r4)
        for (r1, r2), r3s, (n, dn), _ in _slabs(region, m)
        for r3 in r3s
        for r4 in range(n + dn * r3)
    ]


def in_region(family: Family, m: int, r) -> bool:
    """Membership test for the family's region."""
    region = _region(family)
    return min(_affine(region.constraints, m, _check_quad(m, r))) >= 0


def _ladder(family: Family, m: int) -> GradedDecomposition:
    g = GradedDecomposition()
    fund = family.fundamental
    for r in range(m + 1):
        g.add(m - r, r * fund, 1)
    return g


#: How (wt, gr) = (a, b, grade) is packed into one int key.  With drift
#: the d column of the family's wt_gr rows, the m-free values are
#: (a, b, grade) - m*drift, and the key is (a'*radix + b')*radix + grade'
#: of the m-free (a', b', grade').  The key is injective on the box of
#: m-free values from low to low + radix - 1 in each coordinate, which
#: `_packing` builds around the region's points.  A region point r has
#: key row . r at every m, so moving the points of a count by e_i adds
#: row[i] to each key.
_Packing = namedtuple("_Packing", "radix low drift row")


def _packing(region: _Region, m: int) -> _Packing:
    """The packing whose box holds the m-free (wt, gr) of the points of
    region(m).

    Each (wt, gr) row is affine on a slab, so its extremes over the slab
    lie at the ends of its first and last run.
    """
    linear = [c for c, _ in region.wt_gr]
    columns = [], [], []
    for _, r3s, (n, dn), keys in _slabs(region, m, [(c, 0) for c in linear]):
        if r3s:
            first, last = r3s[0], r3s[-1]
            ends = n - 1 + dn * first, n - 1 + dn * last
            for column, (v, dv, step) in zip(columns, keys):
                v, w = v + dv * first, v + dv * last
                column += v, w, v + step * ends[0], w + step * ends[1]
    low = [min(column, default=0) for column in columns]
    radix = 1 + max(max(column, default=0) - lo
                    for column, lo in zip(columns, low))
    drift = [d for _, d in region.wt_gr]
    # the packed combination (a*radix + b)*radix + grade, coordinate-wise
    row = tuple((a * radix + b) * radix + g for a, b, g in zip(*linear))
    return _Packing(radix, low, drift, row)


def _key(packing: _Packing, m: int, a: int, b: int, grade: int) -> int:
    """The key of (wt, gr) = (a, b, grade) at m, for a value in the box."""
    radix, _, (da, db, dg), _ = packing
    return ((a - m * da) * radix + b - m * db) * radix + grade - m * dg


def _decode(counts, packing: _Packing, m: int) -> GradedDecomposition:
    """The decomposition with multiplicity n at the (wt, gr) at m of each
    key -> n of counts; zero multiplicities are dropped."""
    radix, (la, lb, lg), (da, db, dg), _ = packing
    base = (la * radix + lb) * radix + lg
    oa, ob = la + m * da, lb + m * db
    grades: dict[int, dict[Weight, int]] = {}
    weights: dict[int, Weight] = {}
    for key, n in counts.items():
        if n:
            ab, grade = divmod(key - base, radix)
            weight = weights.get(ab)
            if weight is None:
                a, b = divmod(ab, radix)
                weight = weights[ab] = Weight(a + oa, b + ob)
            component = grades.get(grade)
            if component is None:
                component = grades[grade] = {}
            component[weight] = n
    og = lg + m * dg
    return GradedDecomposition._wrap(
        {grade + og: component for grade, component in grades.items()}
    )


def _runs(v, dv, step, r3s, run) -> Iterator[Iterable[int]]:
    """The keys v + dv*r3 + step*r4 for r4 in range(n + dn*r3), (n, dn) =
    run, one iterable for each r3 in r3s.

    Along each run of r4 the keys are an arithmetic progression, and over
    r3 the runs' ends are too: C-level maps over them make the runs, with
    no Python step per point or per run.
    """
    k, t = len(r3s), r3s.start
    n, dn = run
    v, n = v + t * dv, n + t * dn
    starts = _progression(v, dv, k)
    if step:
        ends = _progression(v + n * step, dv + dn * step, k)
        return map(range, starts, ends, repeat(step))
    return map(repeat, starts, _progression(n, dn, k))


def _progression(start: int, step: int, n: int) -> Iterable[int]:
    """start, start + step, ... (n terms; none if n <= 0)."""
    if step:
        return range(start, start + n * step, step)
    return repeat(start, n)


def kr_graded_character(family: Family, m: int) -> GradedDecomposition:
    """Closed-form graded character in the irreducible basis.

    Counts the packed (wt, gr) keys of the region points in one C-level
    pass, with no Python step per point or per run of r4 (`_count`).
    """
    family = Family(family)
    _check_m(m)
    if not family.quad_indexed:
        return _ladder(family, m)
    packing, counts = _count(_REGIONS[family], m)
    return _decode(counts, packing, m)


def _count(region: _Region, m: int) -> tuple:
    """(packing, counts) of region(m) counted whole: counts is one Counter
    of the keys of its points under the packing of region(m)."""
    packing = _packing(region, m)
    return packing, Counter(_keys(region, m, packing.row))


def _keys(region: _Region, m: int, row) -> Iterable[int]:
    """row . r for each point r of region(m), as C-level maps over the
    runs of each slab: no Python step per point or per run."""
    return chain.from_iterable(chain.from_iterable(
        _runs(v, dv, step, r3s, run)
        for _, r3s, run, ((v, dv, step),) in _slabs(region, m, ((row, 0),))
    ))


def _peel(region: _Region):
    """(i, p) for the first slab coordinate r_i (r1, then r2) that peels
    off the region with step p, or None if neither does.

    r_i peels with step p when r_i >= 0 is a constraint, column i is 0 in
    every other constraint with d = 0, and column i is -p*d, for one
    integer p >= 1, in every constraint with d != 0.  Adding e_i to a
    point then changes every other constraint as m -> m - p does, so
    {r in region(m) : r_i >= 1} = region(m - p) + e_i for every m, and the
    rest of region(m) is its face r_i = 0, which has O(m) slabs where the
    region has O(m^2).
    """
    constraints = region.constraints
    for i in (0, 1):
        floor = (tuple(int(n == i) for n in range(4)), 0)
        others = [(c[i], d) for c, d in constraints if (c, d) != floor]
        if len(others) == len(constraints) or any(
            c for c, d in others if not d
        ):
            continue
        steps = {-c // d if c % d == 0 else 0 for c, d in others if d}
        if len(steps) == 1 and (p := steps.pop()) >= 1:
            return i, p
    return None


def _region_counts(family: Family, top: int, start=0) -> Iterator[tuple]:
    """The closed form of U1 or T2 for m = start, ..., top, in packed form.

    Yields (m, (packing, counts)) for each m: counts is a new Counter of
    the keys of region(m) under packing.  Where r_i peels off the region
    with step p (`_peel`), count(m) is count(m - p) with every key moved
    by the key of e_i, plus the count of the face r_i = 0 of region(m), so
    the sweep walks only faces after its first p counts and holds only the
    last p counts.  The moved keys keep the packing of region(top), which
    holds them only while region(m) lies in region(top): every
    constraint's d >= 0.  Any other table is counted whole at each m under
    its own packing, as a single m is (`_count`).
    """
    region = _region(family)
    _check_m(top, "top")
    peel = _peel(region)
    if peel is None or min(d for _, d in region.constraints) < 0:
        for m in range(start, top + 1):
            yield m, _count(region, m)
        return
    i, p = peel
    packing = _packing(region, top)
    row, shift = packing.row, packing.row[i]
    face = region._replace(constraints=(
        *region.constraints, (tuple(-int(n == i) for n in range(4)), 0)
    ))
    earlier = deque(maxlen=p)  # the counts of m - p, ..., m - 1
    for m in range(start, top + 1):
        if len(earlier) < p:
            counts = Counter(_keys(region, m, row))
        else:
            moved = earlier[0]
            counts = Counter()
            # the moved keys are distinct: set them, with no dict between
            dict.update(counts, zip(map(shift.__add__, moved),
                                    moved.values()))
            counts.update(_keys(face, m, row))
        earlier.append(counts)
        yield m, (packing, counts)


def _packed_check(region: _Region, m: int, graded=None) -> tuple:
    """How to check a dict of packed (wt, gr) keys against the closed form
    at m, graded: a GradedDecomposition, the count that `_region_counts`
    yields for m, or by default region(m) counted afresh.

    Returns (row, differences): row . r is the key of the (wt, gr) of a
    point r of region(m), and differences(sizes), for sizes a dict key ->
    size over such keys, lists (key, (a, b, grade), size, count) for each
    (wt, gr) = (a, b, grade) where sizes and graded differ, in the order
    of `compare`.
    """
    if graded is None:
        graded = _count(region, m)
    if isinstance(graded, GradedDecomposition):
        packing, counts = _packing(region, m), None
    else:
        packing, counts = graded

    def differences(sizes) -> list:
        if sizes == counts:  # a plain dict first: dict equality, in C
            return []
        closed = graded if counts is None else _decode(counts, packing, m)
        return [
            (_key(packing, m, a, b, grade), (a, b, grade), size, n)
            for grade, (a, b), size, n in compare(
                _decode(sizes, packing, m), closed
            )
        ]

    return packing.row, differences


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
    """Generating-function form of the graded character.

    For U2/T1 the expression is the same ladder as the closed form.  For
    U1/T2 it sums the terms of the table's labels (see `_terms`).
    """
    family = Family(family)
    _check_m(m)
    if not family.quad_indexed:
        return _ladder(family, m)
    return _nested(_terms(_REGIONS[family], m, negatives))


def _nested(terms) -> GradedDecomposition:
    """The decomposition of the (a, b, base, top, multiplicity) terms."""
    grades: dict[int, dict[Weight, int]] = {}
    for a, b, base, top, coeff in terms:
        weight = Weight(a, b)
        for grade in range(base, base + top + 1):
            component = grades.setdefault(grade, {})
            component[weight] = component.get(weight, 0) + coeff
    return GradedDecomposition._wrap(grades)


def _packed(terms, packing: _Packing, m: int):
    """{key: multiplicity} of the (a, b, base, top, multiplicity) terms at
    m, each V(a, b) in the grades base..base + top, or None where a dict
    of keys cannot stand for them: a term leaves the packing's box (its
    (wt, gr) is then no region point's), or two terms share a (wt, gr)."""
    radix, low, drift, _ = packing
    la, lb, lg = (lo + m * d for lo, d in zip(low, drift))
    bands, cells = [], 0
    for a, b, base, top, coeff in terms:
        if not (la <= a < la + radix and lb <= b < lb + radix
                and lg <= base and base + top < lg + radix):
            return None
        first = _key(packing, m, a, b, base)
        band = range(first, first + top + 1)
        bands.append(zip(band, repeat(coeff)))
        cells += len(band)
    counts = dict(chain.from_iterable(bands))
    return counts if len(counts) == cells else None


def conjecture_differences(
    family: Family, m: int, count: tuple, negatives: list | None = None
) -> list[tuple[int, Weight, int, int]]:
    """compare(closed form, generating function) of U1 or T2 at m, for the
    closed form held as the count that `_region_counts` yields for m.

    The two forms are compared as dicts of keys (a plain dict first: a
    Counter's own == walks both sides in Python); they are decoded to
    GradedDecompositions only when they differ, to list the differences.
    """
    packing, counts = count
    terms = list(_terms(_region(family), m, negatives))
    if _packed(terms, packing, m) == counts:
        return []
    return compare(_decode(counts, packing, m), _nested(terms))


def compare(
    a: GradedDecomposition, b: GradedDecomposition
) -> list[tuple[int, Weight, int, int]]:
    """All (grade, weight, mult_a, mult_b) where the two decompositions differ.

    Empty list iff a and b agree as functions (grade, weight) -> multiplicity.
    """
    if a == b:
        return []
    keys = {(g, w) for g, w, _ in a.items()} | {(g, w) for g, w, _ in b.items()}
    diffs = []
    for grade, weight in sorted(keys):
        ma = a.multiplicity(grade, weight)
        mb = b.multiplicity(grade, weight)
        if ma != mb:
            diffs.append((grade, weight, ma, mb))
    return diffs


def expand_weights(g: GradedDecomposition) -> dict:
    """Expand each grade through the irreducible characters, in grade
    order: grade -> `characters.Character`.

    A Weyl-invariant character is fixed by its dominant part, so a grade
    sums only the dominant multiplicities of its components, and then
    writes each dominant weight's multiplicity to its Weyl orbit.  Each
    orbit is computed once per call.  Raises ValueError for a component
    weight that is not dominant.
    """
    from .characters import (
        Character,
        _dominant_multiplicities,
        _highest_weight,
    )

    parts: dict[Weight, dict[Weight, int]] = {}
    orbits: dict[Weight, frozenset[Weight]] = {}
    out = {}
    for grade in g.grades():
        total: dict[Weight, int] = {}
        for weight, mult in g.component(grade).items():
            part = parts.get(weight)
            if part is None:
                part = parts[weight] = _dominant_multiplicities(
                    *_highest_weight(weight, "component")
                )
            for w, k in part.items():
                total[w] = total.get(w, 0) + mult * k
        terms: dict[Weight, int] = {}
        for w, k in total.items():
            if k:
                orbit = orbits.get(w)
                if orbit is None:
                    orbit = orbits[w] = weyl_orbit(w)
                terms.update(zip(orbit, repeat(k)))
        out[grade] = Character._wrap(terms)
    return out


def graded_dimensions(g: GradedDecomposition) -> list[tuple[int, int]]:
    """(grade, total dimension) pairs, sorted by grade."""
    from .characters import weyl_dim

    return [
        (
            grade,
            sum(m * weyl_dim(w) for w, m in g.component(grade).items()),
        )
        for grade in g.grades()
    ]
