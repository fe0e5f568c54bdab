"""The benchmark's own G2 arithmetic, written independently of ``g2kr``.

The output checks and the workload generator use these functions, so a
defect in the library cannot make its own output look correct.  Weights
are plain ``(a, b)`` pairs meaning a*omega1 + b*omega2 with alpha1 short,
the convention of the CLI output.
"""

from __future__ import annotations

from functools import lru_cache


def weyl_dim(a: int, b: int) -> int:
    """dim V(a*omega1 + b*omega2) by the classical G2 product formula."""
    num = (a + 1) * (b + 1) * (a + b + 2) * (a + 2 * b + 3) * (a + 3 * b + 4) * (
        2 * a + 3 * b + 5
    )
    return num // 120


def reflect(i: int, a: int, b: int) -> tuple[int, int]:
    """Simple reflection s_i of the weight (a, b)."""
    return (-a, a + b) if i == 1 else (a + 3 * b, -b)


def _orbit_size(c: int, d: int) -> int:
    # Stabiliser of a dominant weight: trivial, one reflection, or everything.
    if c and d:
        return 12
    if c or d:
        return 6
    return 1


@lru_cache(maxsize=None)
def dominant_weights(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """The dominant weights of V(a, b).

    They are exactly the dominant nu with lam - nu a nonnegative sum of
    simple roots.  In root coordinates (p, q) a weight (a, b) is
    (2a + 3b, a + 2b).
    """
    p, q = 2 * a + 3 * b, a + 2 * b
    return tuple(
        (c, d)
        for c in range(p // 2 + 1)
        for d in range((q - c) // 2 + 1)
        if 2 * c + 3 * d <= p
    )


@lru_cache(maxsize=None)
def support_size(a: int, b: int) -> int:
    """Number of distinct weights of V(a, b): the Weyl orbits of its
    dominant weights."""
    return sum(_orbit_size(c, d) for c, d in dominant_weights(a, b))


def region_points(family: str, m: int):
    """Yield (grade, weight) for every lattice point of a quad-indexed region.

    U1: r >= 0, r4 <= r2, 2r1 + 3r2 + 3r3 <= m;
    T2: r >= 0, r3 <= r1, r1 + r2 + r3 + r4 <= m.
    """
    if family == "u1":
        for r1 in range(m // 2 + 1):
            for r2 in range((m - 2 * r1) // 3 + 1):
                for r3 in range((m - 2 * r1 - 3 * r2) // 3 + 1):
                    for r4 in range(r2 + 1):
                        yield (
                            r1 + r2 + 2 * r3 + 2 * r4,
                            (m - r1 - 3 * r2 - 3 * r3, r2 + r3 - r4),
                        )
    elif family == "t2":
        for r1 in range(m + 1):
            for r2 in range(m - r1 + 1):
                for r3 in range(min(r1, m - r1 - r2) + 1):
                    for r4 in range(m - r1 - r2 - r3 + 1):
                        yield (
                            r1 + 2 * r2 + 2 * r3 + 3 * r4,
                            (r1 + r2 - r3, m - r1 - r2 - r4),
                        )
    else:
        raise ValueError(f"{family} is not quad-indexed")


def region_count(family: str, m: int) -> int:
    """Number of lattice points of the region, innermost index summed out."""
    total = 0
    if family == "u1":
        for r1 in range(m // 2 + 1):
            for r2 in range((m - 2 * r1) // 3 + 1):
                total += ((m - 2 * r1 - 3 * r2) // 3 + 1) * (r2 + 1)
    elif family == "t2":
        for r1 in range(m + 1):
            for r2 in range(m - r1 + 1):
                for r3 in range(min(r1, m - r1 - r2) + 1):
                    total += m - r1 - r2 - r3 + 1
    else:
        raise ValueError(f"{family} is not quad-indexed")
    return total


def kr_components(family: str, m: int):
    """(grade, weight) of every irreducible summand, with repetition.

    U2 and T1 are ladders: grade n carries V((m - n) * omega) for omega2
    resp. omega1.  U1 and T2 carry one summand per region point.
    """
    if family == "u2":
        return [(m - r, (0, r)) for r in range(m + 1)]
    if family == "t1":
        return [(m - r, (r, 0)) for r in range(m + 1)]
    return list(region_points(family, m))


def kr_summands(family: str, m: int) -> int:
    """Total multiplicity in the irreducible basis: m + 1 for ladders."""
    if family in ("u2", "t1"):
        return m + 1
    return region_count(family, m)


def kr_dimension(family: str, m: int) -> int:
    """Total dimension of the KR module (sum of the summands' dimensions)."""
    return sum(weyl_dim(*w) for _, w in kr_components(family, m))
