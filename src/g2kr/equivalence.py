"""Equivalence classes on the quad-index regions.

Two quad indices are equivalent when they share the same (weight, grade)
pair, which happens exactly when they differ by an integer multiple of a
family-specific shift vector.  The region and the shift vector come from
the family's table in the kr module, the one definition of each region:
a class is the interval of steps along the shift that the region's
constraints leave, read off in closed form.  The class keys (j, k, s)
are the generating function's labels, and the canonical representatives
r_{j,k,s} and the class sizes (the coefficients) come from the same
table.  `verify_partition` machine-checks for a given m that these keys
label each class exactly once: a kernel certificate valid for every m
makes the classes the (wt, gr) fibres, and one counting pass over the
keys does the rest, listing no class and enumerating no region point.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from math import gcd

from .kr import (
    Family,
    QuadIndex,
    _affine,
    _check_m,
    _check_quad,
    _packed_check,
    _region,
    _signed,
    _span,
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
    return region.representative(m, j, k, s)


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
    r = _check_quad(m, r)
    values = _affine(region.constraints, m, r)
    if min(values) < 0:
        raise ValueError(
            f"{r} is not in the {region.family.value} region for m={m}"
        )
    # each constraint's rate of change along the shift, split by sign
    bounds = _signed(enumerate(_affine(region.constraints, 0, region.shift)))
    steps = _span(values, *bounds)
    (r1, r2, r3, r4), (s1, s2, s3, s4) = r, region.shift
    return [
        (r1 + t * s1, r2 + t * s2, r3 + t * s3, r4 + t * s4) for t in steps
    ]


def class_keys(family: Family, m: int) -> Iterator[tuple[int, int, int]]:
    """All valid (j, k, s) keys for the family at this m."""
    _check_m(m)
    region = _region(family)
    for j, k, top in region.labels(m):
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
    `class_size_formula` give graded, which counts region points per
    (wt, gr).  Then the classes of all keys partition the region into its
    fibres, with the formula's sizes.  graded is the closed form at m: a
    GradedDecomposition, the count that `kr._region_counts` yields for m,
    or by default the region counted afresh.
    """
    region = _region(family)
    _check_m(m)
    row, differences = _packed_check(region, m, graded)
    # One pass over the keys: each representative is checked against the
    # constraints, and its (wt, gr) is the dot product with row.
    failures = list(_certificate(region))
    bounds = [(*c, d * m) for c, d in region.constraints]
    p1, p2, p3, p4 = row
    owners, sizes = {}, {}
    for key in class_keys(region.family, m):
        rep = region.representative(m, *key)
        r1, r2, r3, r4 = rep
        for c1, c2, c3, c4, e in bounds:
            if c1 * r1 + c2 * r2 + c3 * r3 + c4 * r4 + e < 0:
                failures.append(
                    f"m={m} key {key}: {rep} is outside the region"
                )
                break
        else:
            point = p1 * r1 + p2 * r2 + p3 * r3 + p4 * r4
            owner = owners.setdefault(point, key)
            if owner == key:
                sizes[point] = region.coefficient(m, key[0], key[1])
            else:
                failures.append(
                    f"m={m} keys {owner} and {key} share (wt, gr) "
                    f"{tuple(_affine(region.wt_gr, m, rep))}"
                )
    for point, wt_gr, size, n in differences(sizes):
        failures.append(
            f"m={m} key {owners[point]}: coefficient {size} != region "
            f"count {n} at (wt, gr) {wt_gr}" if size else
            f"m={m}: no key has (wt, gr) {wt_gr}; region count {n}"
        )
    return failures
