"""Equivalence classes on the quad-index regions.

Two quad indices are equivalent when they share the same (weight, grade)
pair, which happens exactly when they differ by an integer multiple of a
family-specific shift vector.  The region and the shift vector come from
the family's table in the kr module, the one definition of each region:
a class is the interval of steps along the shift that the region's
constraints leave, read off in closed form.  The canonical
representatives r_{j,k,s} below enumerate the classes exactly once, and
their sizes are the generating-function coefficients of the same table.
`verify_partition` machine-checks all of that for a given m: a kernel
certificate valid for every m makes the classes the (wt, gr) fibres, and
one counting pass over the keys does the rest, listing no class.
Rebuilding the graded character from representatives weighted by the
coefficients gives a route independent of full region enumeration.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import Iterator

from .kr import (
    Family,
    GradedDecomposition,
    QuadIndex,
    _affine,
    _check_m,
    _graded,
    _region,
    _signed,
    _span,
    compare,
    in_region,
    kr_graded_character,
)


def shift_vector(family: Family) -> QuadIndex:
    """Generator of the equivalence: wt and gr are constant along it."""
    return _region(family).shift


def validate_key(family: Family, m: int, j: int, k: int, s: int) -> None:
    """Raise ValueError naming the violated inequality, if any.

    m, j, k and s must be nonnegative ints (bool excluded).
    """
    _validate(_region(family), m, j, k, s)


def _validate(region, m, j, k, s) -> None:
    if not type(m) is type(j) is type(k) is type(s) is int or min(j, k, s) < 0:
        for name, value in (("m", m), ("j", j), ("k", k), ("s", s)):
            _check_m(value, name)
    if region.family is Family.U1:
        if k > m // 3:
            raise ValueError(f"k <= floor(m/3) fails: k={k}, m={m}")
        if not 2 * k <= j <= m - k:
            raise ValueError(f"2k <= j <= m-k fails: j={j}, k={k}, m={m}")
        if s > k:
            raise ValueError(f"s <= k fails: s={s}, k={k}")
    else:
        if j + k > m:
            raise ValueError(f"j + k <= m fails: j={j}, k={k}, m={m}")
        if s > j:
            raise ValueError(f"s <= j fails: s={s}, j={j}")
    if region.coefficient(m, j, k) <= 0:
        raise ValueError(f"zero-coefficient key: j={j}, k={k}, m={m}")


def representative(family: Family, m: int, j: int, k: int, s: int) -> QuadIndex:
    """Canonical region point of the class labelled (j, k, s)."""
    region = _region(family)
    _validate(region, m, j, k, s)
    return _representative(region, m, j, k, s)


def _representative(region, m, j, k, s) -> QuadIndex:
    # (j, k, s) is a valid key, as `class_keys` yields them
    if region.family is Family.U1:
        r4, r1 = divmod(j - 2 * k, 3)  # j - 2k = r1 + 3*r4, 0 <= r1 <= 2
        return (r1, k + r4 - s, s, r4)
    return (j - s, s, 0, m - j - k)


def class_size_formula(family: Family, m: int, j: int, k: int, s: int) -> int:
    """Closed form for the number of region points in the class."""
    region = _region(family)
    _validate(region, m, j, k, s)
    return region.coefficient(m, j, k)


def class_members(family: Family, m: int, r) -> list[QuadIndex]:
    """Region points on the shift line through r, in increasing step order.

    Every constraint of the region is affine in the step t along the
    shift, so the class is the interval of t that the constraints leave.
    """
    region = _region(family)
    _check_m(m)
    r = tuple(r)
    if not in_region(region.family, m, r):
        raise ValueError(
            f"{r} is not in the {region.family.value} region for m={m}"
        )
    # each constraint's rate of change along the shift, split by sign
    bounds = _signed(enumerate(_affine(region.constraints, 0, region.shift)))
    steps = _span(_affine(region.constraints, m, r), *bounds)
    (r1, r2, r3, r4), (s1, s2, s3, s4) = r, region.shift
    return [
        (r1 + t * s1, r2 + t * s2, r3 + t * s3, r4 + t * s4) for t in steps
    ]


def class_keys(family: Family, m: int) -> Iterator[tuple[int, int, int]]:
    """All valid (j, k, s) keys for the family at this m."""
    region = _region(family)
    if region.family is Family.U1:
        # (j, k, largest s)
        pairs = (
            (j, k, k)
            for k in range(m // 3 + 1)
            for j in range(2 * k, m - k + 1)
        )
    else:
        pairs = ((j, k, j) for j in range(m + 1) for k in range(m - j + 1))
    for j, k, top in pairs:
        if region.coefficient(m, j, k) > 0:
            for s in range(top + 1):
                yield j, k, s


@cache
def _certificate(region) -> tuple[str, ...]:
    # The signed 3x3 minors of the linear part of (wt, gr) span its kernel
    # over Q; equal to +-shift, a primitive vector, they make the integer
    # kernel Z*shift for every m.
    a, b, c, d = zip(*(row for row, _ in region.wt_gr))
    minors = (_det3(b, c, d), -_det3(a, c, d), _det3(a, b, d), -_det3(a, b, c))
    shift = region.shift
    if minors in (shift, tuple(-x for x in shift)) and gcd(*shift) == 1:
        return ()
    return (f"kernel certificate fails: signed minors {minors} of the "
            f"(wt, gr) rows are not +-shift {shift} with gcd 1",)


def _det3(u, v, w) -> int:
    # u . (v x w), indices mod 3
    return sum(u[i] * (v[i - 2] * w[i - 1] - v[i - 1] * w[i - 2])
               for i in range(3))


def verify_partition(family: Family, m: int, graded=None) -> list[str]:
    """Check that the representative classes are the (wt, gr) fibres.

    Empty report iff the kernel certificate holds, the representatives lie
    in the region with pairwise distinct (wt, gr), and the keys weighted by
    `class_size_formula` give graded (default `kr_graded_character(family,
    m)`), which counts region points per (wt, gr).  Then the classes of all
    keys partition the region into its fibres, with the formula's sizes.
    """
    region = _region(family)
    _check_m(m)
    failures = list(_certificate(region))
    rows, bound = region.constraints + region.wt_gr, len(region.constraints)
    owners = {}
    for key in class_keys(family, m):
        rep = _representative(region, m, *key)
        values = _affine(rows, m, rep)
        point = tuple(values[bound:])
        if min(values[:bound]) < 0:
            failures.append(f"m={m} key {key}: {rep} is outside the region")
        elif owners.setdefault(point, key) != key:
            failures.append(f"m={m} keys {owners[point]} and {key} share "
                            f"(wt, gr) {point}")
    if graded is None:
        graded = kr_graded_character(region.family, m)
    sizes = {p: region.coefficient(m, j, k) for p, (j, k, _) in owners.items()}
    for grade, (a, b), size, n in compare(_graded(sizes), graded):
        point = (a, b, grade)
        failures.append(
            f"m={m} key {owners[point]}: coefficient {size} != region count "
            f"{n} at (wt, gr) {point}" if size else
            f"m={m}: no key has (wt, gr) {point}; region count {n}"
        )
    return failures


def rebuild_graded_character(family: Family, m: int) -> GradedDecomposition:
    """Graded character from representatives weighted by class sizes.

    Independent of `kr_graded_character`: it never enumerates the region,
    only the class keys and the closed-form sizes.
    """
    region = _region(family)
    _check_m(m)
    counts: dict[tuple[int, int, int], int] = {}
    for j, k, s in class_keys(family, m):
        rep = _representative(region, m, j, k, s)
        key = tuple(_affine(region.wt_gr, m, rep))
        counts[key] = counts.get(key, 0) + region.coefficient(m, j, k)
    return _graded(counts)
