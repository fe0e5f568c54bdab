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
makes the classes the (wt, gr) fibres, and one pass over the keys does
the rest in r-space.  Each representative must be the least point of its
class, the class must have the coefficient's size, and the sizes must
add up to |region(m)|; no class is listed and no region point visited.
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
    _det,
    _region,
    _region_size,
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
    # constraint n is values[n] + rate*t at step t: a positive rate bounds
    # t below, a negative one above
    pairs = list(zip(values, _affine(region.constraints, 0, region.shift)))
    steps = range(max([-(v // rate) for v, rate in pairs if rate > 0]),
                  min([v // -rate for v, rate in pairs if rate < 0]) + 1)
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
    columns = list(zip(*(row for row, _ in region.wt_gr)))
    minors = tuple((-1) ** i * _det(columns[:i] + columns[i + 1:])
                   for i in range(4))
    shift = region.shift
    if minors in (shift, tuple(-x for x in shift)) and gcd(*shift) == 1:
        return ()
    return (f"kernel certificate fails: signed minors {minors} of the "
            f"(wt, gr) rows are not +-shift {shift} with gcd 1",)


def verify_partition(family: Family, m: int) -> list[str]:
    """Check that the keys label the (wt, gr) fibres of region(m), each once.

    Empty report iff the kernel certificate holds, each key's
    representative is a region point that is the least point of its
    shift-line class, the class has `class_size_formula` points, no two
    keys share a representative, and the coefficients add up to
    |region(m)|.
    The certificate makes the classes the fibres, so the keys' classes
    are then distinct fibres that cover the region: its partition, with
    the formula's sizes.  A failed certificate is reported alone.
    """
    region = _region(family)
    _check_m(m)
    failures = list(_certificate(region))
    if failures:
        return failures
    points = _region_size(region, m)
    # Constraint n is value + rate*t at step t along the shift.  A region
    # point is the least of its class when some positive rate takes its
    # value below 0 at t = -1, and the class then has 1 + min(value //
    # -rate) points over the negative rates.  A zero rate only bounds.
    rates = _affine(region.constraints, 0, region.shift)
    rows = [(*c, d * m) for c, d in region.constraints]
    lower = [(row, rate) for row, rate in zip(rows, rates) if rate >= 0]
    upper = [(row, -rate) for row, rate in zip(rows, rates) if rate < 0]
    owners, total = {}, 0
    for key in class_keys(region.family, m):
        j, k, s = key
        rep = region.representative(m, j, k, s)
        owner = owners.setdefault(rep, key)
        if owner is not key:  # a key listed twice shares it too
            failures.append(
                f"m={m} keys {owner} and {key} share the representative {rep}"
            )
        coefficient = region.coefficient(m, j, k)
        total += coefficient
        r1, r2, r3, r4 = rep
        outside = least = False
        for (c1, c2, c3, c4, e), rate in lower:
            value = c1 * r1 + c2 * r2 + c3 * r3 + c4 * r4 + e
            if value < rate:
                least = True
                outside = outside or value < 0
        # a class has fewer steps than region(m) has points; a negative
        # value, a point outside, leaves steps negative
        steps = points
        for (c1, c2, c3, c4, e), rate in upper:
            reach = (c1 * r1 + c2 * r2 + c3 * r3 + c4 * r4 + e) // rate
            if reach < steps:
                steps = reach
        if outside or steps < 0:
            failures.append(f"m={m} key {key}: {rep} is outside the region")
        elif not least:
            failures.append(
                f"m={m} key {key}: {rep} is not the least point of its class"
            )
        elif steps + 1 != coefficient:
            failures.append(f"m={m} key {key}: coefficient {coefficient} "
                            f"!= class size {steps + 1}")
    if total != points:
        failures.append(f"m={m}: the coefficients add up to {total}, "
                        f"region({m}) has {points} points")
    return failures
