"""Characters of irreducible G2 modules and the character ring.

Weight multiplicities come from Freudenthal's recursion, dimensions from
the Weyl product formula.  The two are independent computations and the
test suite plays them against each other.  Everything is exact integer
arithmetic; every division in the recursion is asserted to be exact.
"""

from __future__ import annotations

from functools import lru_cache

from .weights import (
    POSITIVE_ROOTS,
    RHO,
    Weight,
    dominant_representative,
    height,
    in_root_cone,
    inner,
    is_dominant,
    simple_reflection,
    to_root_coords,
    weyl_orbit,
)


class Character:
    """Finite-support integer function on the weight lattice.

    Stored sparsely: only nonzero multiplicities are kept, so structural
    equality is equality of characters.  Instances are immutable; all
    arithmetic returns new objects.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[Weight, int] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for w, m in items:
                w = Weight(*w)
                data[w] = data.get(w, 0) + m
        self._terms = {w: m for w, m in data.items() if m}

    def items(self):
        return self._terms.items()

    def support(self):
        return self._terms.keys()

    def __getitem__(self, w) -> int:
        return self._terms.get(Weight(*w), 0)

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


def weyl_dim(lam: Weight) -> int:
    """dim V(lam) by the Weyl product formula (exact integers)."""
    lam = Weight(*lam)
    if not is_dominant(lam):
        raise ValueError(f"highest weight must be dominant, got {lam}")
    shifted = lam + RHO
    num = den = 1
    for root in POSITIVE_ROOTS:
        num *= inner(shifted, root.weight)
        den *= inner(RHO, root.weight)
    q, r = divmod(num, den)
    assert r == 0, "Weyl dimension product must divide exactly"
    return q


def _dominant_candidates(lam: Weight) -> list[Weight]:
    # Dominant mu with lam - mu in Q+; all of these are weights of V(lam).
    lp, lq = to_root_coords(lam)
    out = []
    for a in range(lp // 2 + 1):
        for b in range((lq - a) // 2 + 1):
            if 2 * a + 3 * b <= lp and a + 2 * b <= lq:
                out.append(Weight(a, b))
    return out


def _freudenthal(lam: Weight) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of V(lam)."""
    candidates = _dominant_candidates(lam)
    # Decreasing |mu+rho|^2 guarantees every multiplicity referenced on the
    # right-hand side is already known.
    candidates.sort(key=lambda mu: (-inner(mu + RHO, mu + RHO), mu))
    candidate_set = set(candidates)
    top = inner(lam + RHO, lam + RHO)
    mult: dict[Weight, int] = {}
    for mu in candidates:
        if mu == lam:
            mult[mu] = 1
            continue
        total = 0
        for root in POSITIVE_ROOTS:
            alpha = root.weight
            nu = mu + alpha
            while True:
                m = mult.get(dominant_representative(nu), 0)
                if m == 0:
                    # Weight strings are unbroken, so the rest of this
                    # string lies outside the support too.
                    assert dominant_representative(nu) not in candidate_set
                    break
                total += m * inner(nu, alpha)
                nu = nu + alpha
        denom = top - inner(mu + RHO, mu + RHO)
        q, r = divmod(2 * total, denom)
        assert denom > 0 and r == 0, "Freudenthal recursion must divide exactly"
        assert q > 0
        mult[mu] = q
    return mult


@lru_cache(maxsize=None)
def _irreducible_character(lam: Weight) -> Character:
    terms: dict[Weight, int] = {}
    for mu, m in _freudenthal(lam).items():
        for w in weyl_orbit(mu):
            terms[w] = m
    return Character(terms)


def irreducible_character(lam) -> Character:
    """Character of the irreducible module with highest weight lam."""
    lam = Weight(*lam)
    if not is_dominant(lam):
        raise ValueError(f"highest weight must be dominant, got {lam}")
    return _irreducible_character(lam)


def decompose(c: Character) -> dict[Weight, int]:
    """Write a Weyl-invariant character as a sum of irreducible ones.

    Peels repeatedly at the height-maximal support weight.  Raises
    ValueError if the input is not Weyl-invariant or not a nonnegative
    integer combination of irreducible characters.
    """
    if not c.is_weyl_invariant():
        raise ValueError("decompose expects a Weyl-invariant character")
    remaining = dict(c.items())
    out: dict[Weight, int] = {}
    while remaining:
        mu = max(remaining, key=lambda w: (height(w), w))
        m = remaining[mu]
        if not is_dominant(mu) or m < 0:
            raise ValueError("not a nonnegative sum of irreducible characters")
        out[mu] = m
        for w, k in irreducible_character(mu).items():
            left = remaining.get(w, 0) - m * k
            if left:
                remaining[w] = left
            else:
                remaining.pop(w, None)
    return out


def tensor(lam, mu) -> dict[Weight, int]:
    """Decomposition of V(lam) (x) V(mu) into irreducibles."""
    product = multiply(irreducible_character(lam), irreducible_character(mu))
    return decompose(product)


def character_in_cone(c: Character, top: Weight) -> bool:
    """True iff every support weight lies in top - Q+."""
    return all(in_root_cone(top - w) for w in c.support())
