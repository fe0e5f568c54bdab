import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2kr import characters
from g2kr.cli import main
from g2kr.characters import (
    Character,
    _dominant_multiplicities,
    decompose,
    irreducible_character,
    multiply,
    tensor,
    weyl_dim,
)
from g2kr.kr import GradedDecomposition, _weight_basis, expand_weights
from g2kr.weights import (
    ALL_ROOTS,
    OMEGA1,
    OMEGA2,
    POSITIVE_ROOTS,
    RHO,
    SHORT_ROOTS,
    Weight,
    in_root_cone,
    inner,
    simple_reflection,
    weyl_orbit,
)

ZERO = Weight(0, 0)

dominants = st.builds(Weight, st.integers(0, 3), st.integers(0, 2))


def test_character_canonical_form():
    c = Character({Weight(1, 0): 2, Weight(0, 0): 0})
    assert len(c) == 1
    assert c[Weight(0, 0)] == 0
    assert Character([(Weight(1, 0), 1), (Weight(1, 0), -1)]) == Character()
    # tuple keys become Weights and merge with equal Weight keys
    t = Character([((1, 0), 2), (Weight(1, 0), -1), ((0, 0), 1)])
    assert t == Character({Weight(1, 0): 1, ZERO: 1})
    assert [type(w) for w in t.support()] == [Weight, Weight]
    assert t and c and not Character() and not Character({(1, 0): 0})
    assert repr(t) == "Character({(0,0): 1, (1,0): 1})"
    assert repr(Character()) == "Character({})"


@pytest.mark.parametrize(
    "key, message",
    [((1, 0, 2), r"pair of ints, got \(1, 0, 2\)"),
     ((1,), r"pair of ints, got \(1,\)"),
     (5, "pair of ints, got 5"),
     ((1.0, 2), r"int coordinates, got \(1\.0, 2\)"),
     ((True, 0), r"int coordinates, got \(True, 0\)")],
    ids=["three", "one", "int", "float", "bool"],
)
def test_character_key_must_be_an_int_pair(key, message):
    # a ValueError naming the key, at construction and at lookup
    with pytest.raises(ValueError, match="character key must .*" + message):
        Character({key: 1})
    with pytest.raises(ValueError, match="character key must .*" + message):
        Character({(1, 0): 1})[key]


@pytest.mark.parametrize(
    "terms, message",
    [({(1, 0): 1.5, (0, 0): True}, r"got 1\.5"),
     ({(0, 0): True}, "got True"),
     ([((1, 0), 2), ((1, 0), 1.0)], r"got 1\.0"),
     ({(1, 0): "1"}, "got '1'")],
    ids=["float", "bool", "float-pair", "str"],
)
def test_character_multiplicity_must_be_an_int(terms, message):
    # the character ring stays integer-only: no float or bool enters it
    with pytest.raises(ValueError,
                       match="character multiplicity must be an int, "
                       + message):
        Character(terms)


@pytest.mark.parametrize(
    "k, message",
    [(0.5, r"got 0\.5"), (True, "got True"), (2.0, r"got 2\.0")],
    ids=["half", "bool", "float"],
)
def test_scale_factor_must_be_an_int(k, message):
    c = Character({(1, 0): 2, (0, 0): 1})
    with pytest.raises(ValueError,
                       match="scale factor must be an int, " + message):
        c.scaled(k)
    assert c.scaled(-3) == Character({(1, 0): -6, (0, 0): -3})


def test_fundamental_characters_match_root_data():
    c1 = irreducible_character(OMEGA1)
    assert c1.mass() == 7
    assert c1[ZERO] == 1
    assert set(c1.support()) == {ZERO} | set(SHORT_ROOTS) | {
        -r for r in SHORT_ROOTS
    }
    assert all(m == 1 for _, m in c1.items())

    c2 = irreducible_character(OMEGA2)
    assert c2.mass() == 14
    assert c2[ZERO] == 2
    assert set(c2.support()) == {ZERO} | set(ALL_ROOTS)
    assert all(c2[r] == 1 for r in ALL_ROOTS)


def test_trivial_character():
    assert irreducible_character(ZERO) == Character({ZERO: 1})


def test_rejects_non_dominant():
    with pytest.raises(ValueError):
        irreducible_character(Weight(-1, 1))
    with pytest.raises(ValueError):
        weyl_dim(Weight(0, -2))
    with pytest.raises(ValueError):
        tensor(Weight(-1, 0), OMEGA1)
    with pytest.raises(ValueError):
        tensor(OMEGA1, Weight(2, -1))


# Dimensions below were evaluated by hand from the Weyl product over the six
# positive roots with Gram matrix [[2,3],[3,6]] and rho = (1,1).
@pytest.mark.parametrize(
    "lam, dim",
    [
        (Weight(0, 0), 1),
        (Weight(1, 0), 7),
        (Weight(0, 1), 14),
        (Weight(2, 0), 27),
        (Weight(1, 1), 64),
        (Weight(3, 0), 77),
        (Weight(0, 2), 77),
        (Weight(0, 3), 273),
    ],
)
def test_weyl_dim_frozen_values(lam, dim):
    assert weyl_dim(lam) == dim


@given(dominants)
@settings(deadline=None)
def test_mass_agrees_with_weyl_dim(lam):
    # Racah's formula and the product formula are independent routes
    assert irreducible_character(lam).mass() == weyl_dim(lam)


@given(dominants)
@settings(deadline=None)
def test_character_invariance_and_support(lam):
    c = irreducible_character(lam)
    assert c.is_weyl_invariant()
    assert c[lam] == 1
    for w in c.support():
        assert in_root_cone(lam - w)
        for i in (1, 2):
            assert c[simple_reflection(i, w)] == c[w]


def test_multiply_identity_and_mass():
    e0 = Character({ZERO: 1})
    c = irreducible_character(OMEGA2)
    assert multiply(e0, c) == c
    d = irreducible_character(OMEGA1)
    assert multiply(c, d).mass() == c.mass() * d.mass()
    assert multiply(c, d) == multiply(d, c)
    assert c * d == multiply(c, d)


def test_multiply_associative():
    a = irreducible_character(OMEGA1)
    b = irreducible_character(OMEGA2)
    c = Character({Weight(1, -1): 2, ZERO: 1})
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_tensor_fixtures():
    assert tensor(OMEGA1, ZERO) == {OMEGA1: 1}
    assert tensor(OMEGA1, OMEGA1) == {
        Weight(2, 0): 1,
        Weight(0, 1): 1,
        Weight(1, 0): 1,
        ZERO: 1,
    }
    # derived from the square of V(omega2)+C by removing 2 V(omega2) + C
    assert tensor(OMEGA2, OMEGA2) == {
        Weight(0, 2): 1,
        Weight(3, 0): 1,
        Weight(2, 0): 1,
        Weight(0, 1): 1,
        ZERO: 1,
    }
    assert 14 * 14 == 77 + 77 + 27 + 14 + 1
    # omega2 + nu + rho lies on a wall for nu = -omega1 and omega2 - omega1;
    # for nu = omega2 - 2omega1 it reflects onto omega2 + rho with sign -1
    # and cancels nu = 0
    assert tensor(OMEGA1, OMEGA2) == {
        Weight(1, 1): 1,
        Weight(2, 0): 1,
        Weight(1, 0): 1,
    }
    assert 7 * 14 == 64 + 27 + 7


def test_weyl_dim_rejects_an_inexact_product(monkeypatch):
    # the product over three of the six positive roots only, over their
    # denominator 1 * 3 * 4
    monkeypatch.setattr(characters, "_WEYL_ROWS", characters._WEYL_ROWS[:3])
    monkeypatch.setattr(characters, "_WEYL_DENOMINATOR", 12)
    assert weyl_dim((1, 1)) == 8
    with pytest.raises(ArithmeticError, match=r"Weyl dimension product for "
                       r"Weight\(a=1, b=0\) does not divide exactly"):
        weyl_dim((1, 0))


def test_weyl_dim_rows_match_the_inner_products():
    # each root's row gives <lam + rho, alpha> as the form does
    assert characters._WEYL_ROWS == tuple(
        (inner(OMEGA1, root.weight), inner(OMEGA2, root.weight),
         inner(RHO, root.weight)) for root in POSITIVE_ROOTS
    )
    for a in range(61):
        for b in range(61):
            num = den = 1
            for root in POSITIVE_ROOTS:
                num *= inner((a + 1, b + 1), root.weight)
                den *= inner(RHO, root.weight)
            assert num % den == 0
            assert weyl_dim((a, b)) == weyl_dim(Weight(a, b)) == num // den


def test_weyl_dim_rejects_a_tampered_row(monkeypatch):
    # alpha1's row (1, 0, 1) with <rho, alpha1> = 2: V(1,0)'s product is
    # 3 * 3 * 5 * 7 * 9 * 12, which the denominator 3240 does not divide
    rows = ((1, 0, 2), *characters._WEYL_ROWS[1:])
    assert characters._WEYL_ROWS[0] == (1, 0, 1)
    monkeypatch.setattr(characters, "_WEYL_ROWS", rows)
    assert characters._WEYL_DENOMINATOR == 3240
    with pytest.raises(ArithmeticError, match=r"Weyl dimension product for "
                       r"Weight\(a=1, b=0\) does not divide exactly"):
        weyl_dim((1, 0))


def test_tensor_rejects_a_negative_multiplicity(monkeypatch):
    # every reflection's sign flipped: every component comes out negative,
    # and the first one reached, visiting V(1,0)'s weights in (a, b) order,
    # is named
    chamber = characters._chamber  # `dominant_chamber` less its check
    irreducible_character(OMEGA1)  # cached before the fault
    monkeypatch.setattr(characters, "_chamber",
                        lambda a, b: (*chamber(a, b)[:2], -chamber(a, b)[2]))
    with pytest.raises(ArithmeticError, match=r"Brauer-Klimyk gives "
                       r"multiplicity -1 for \(0,0\) in V\(1,0\) \(x\) "
                       r"V\(1,0\)"):
        tensor(OMEGA1, OMEGA1)


@given(dominants, dominants)
@settings(deadline=None, max_examples=25)
def test_tensor_properties(lam, mu):
    parts = tensor(lam, mu)
    assert parts == tensor(mu, lam)
    assert parts.get(lam + mu) == 1
    assert sum(m * weyl_dim(w) for w, m in parts.items()) == weyl_dim(
        lam
    ) * weyl_dim(mu)


def test_tensor_matches_decompose_oracle():
    # Brauer-Klimyk against peeling the product in the character ring
    box = [Weight(a, b) for a in range(4) for b in range(4)]
    for lam in box:
        for mu in box:
            product = multiply(irreducible_character(lam),
                               irreducible_character(mu))
            assert tensor(lam, mu) == decompose(product), (lam, mu)


def test_tensor_deep_factor_both_orders():
    # every weight of V(omega1) added to a weight deep in the dominant
    # chamber stays dominant, so each gives one component of multiplicity 1
    big = Weight(25, 25)
    expected = {big + w: 1 for w in irreducible_character(OMEGA1).support()}
    assert len(expected) == 7
    assert tensor(OMEGA1, big) == expected
    assert tensor(big, OMEGA1) == expected
    assert sum(m * weyl_dim(w) for w, m in expected.items()) == 7 * weyl_dim(
        big
    )


@pytest.mark.parametrize("bad", [(True, 0), (0, False), (1.5, 0), (0, "1"),
                                 (1,), 3, None])
def test_highest_weight_must_be_an_int_pair(bad):
    with pytest.raises(ValueError, match="lam"):
        weyl_dim(bad)
    with pytest.raises(ValueError, match="lam"):
        irreducible_character(bad)
    with pytest.raises(ValueError, match="lam"):
        tensor(bad, OMEGA1)
    with pytest.raises(ValueError, match="mu"):
        tensor(OMEGA1, bad)


def test_decompose_irreducible_is_singleton():
    assert decompose(irreducible_character(OMEGA2)) == {OMEGA2: 1}


@given(
    st.dictionaries(
        st.builds(Weight, st.integers(0, 2), st.integers(0, 2)),
        st.integers(1, 3),
        min_size=0,
        max_size=3,
    )
)
@settings(deadline=None, max_examples=40)
def test_decompose_roundtrip(combo):
    total = Character()
    for lam, m in combo.items():
        total = total + irreducible_character(lam).scaled(m)
    assert decompose(total) == combo


def test_decompose_rejects_corrupted_input():
    # Weyl-invariant but not a nonnegative sum of irreducible characters:
    # the orbit of omega1 without the zero weight
    c = Character({w: 1 for w in weyl_orbit(OMEGA1)})
    with pytest.raises(ValueError, match="nonnegative sum"):
        decompose(c)


def test_decompose_rejects_non_invariant_input():
    # an explicit check, so python -O raises the same error
    with pytest.raises(ValueError, match="Weyl-invariant"):
        decompose(Character({OMEGA1: 1}))


def signed_orbit_sum(w):
    """Sum over the Weyl group of det(g) e(g(w)), for regular dominant w.

    Group elements are generated as words in the simple reflections; the
    sign is the word-length parity, well defined because the orbit of a
    regular weight is free.
    """
    signs = {w: 1}
    frontier = [w]
    while frontier:
        fresh = []
        for v in frontier:
            for i in (1, 2):
                u = simple_reflection(i, v)
                if u not in signs:
                    signs[u] = -signs[v]
                    fresh.append(u)
        frontier = fresh
    assert len(signs) == 12
    return Character(signs)


@given(dominants)
@settings(deadline=None, max_examples=20)
def test_weyl_character_formula_identity(lam):
    # the identity behind Racah's formula, checked in the character ring
    # (independent of the product formula and of Freudenthal's recursion):
    # ch V(lam) * (sum_g det(g) e(g(rho))) = sum_g det(g) e(g(lam + rho))
    numerator = signed_orbit_sum(lam + RHO)
    denominator = signed_orbit_sum(RHO)
    assert multiply(irreducible_character(lam), denominator) == numerator


#: Each positive root as (a, b, fa, fb), where (nu, root) = fa*nu.a + fb*nu.b.
_ROOTS = tuple(
    (r.weight.a, r.weight.b, inner(OMEGA1, r.weight), inner(OMEGA2, r.weight))
    for r in POSITIVE_ROOTS
)


def _freudenthal(a: int, b: int) -> dict[Weight, int]:
    """Multiplicities of all weights of V(a, b).

    The dominant weights mu of V(a, b) are the dominant mu with
    (a, b) - mu in Q+; they are solved in order of decreasing
    |mu + rho|^2, and each result is written to the whole Weyl orbit of mu
    at once.  Every weight mu + k*alpha (k >= 1) of a root string lies in
    the orbit of a dominant weight solved earlier, so the string walk is a
    plain lookup; weight strings are unbroken, so it stops at the first
    weight outside the support.
    """
    lp, lq = 2 * a + 3 * b, a + 2 * b  # root coordinates of (a, b)
    top = inner((a + 1, b + 1), (a + 1, b + 1))
    candidates = sorted(
        (top - inner((x + 1, y + 1), (x + 1, y + 1)), x, y)
        for x in range(lp // 2 + 1)
        for y in range((lq - x) // 2 + 1)
        if 2 * x + 3 * y <= lp and x + 2 * y <= lq
    )
    mult: dict[Weight, int] = {}
    for denom, x, y in candidates:
        if x == a and y == b:
            m = 1
        else:
            total = 0
            for ra, rb, fa, fb in _ROOTS:
                na, nb = x + ra, y + rb
                k = mult.get((na, nb))
                while k:
                    total += k * (fa * na + fb * nb)
                    na += ra
                    nb += rb
                    k = mult.get((na, nb))
            if denom <= 0:
                raise ArithmeticError(
                    f"Freudenthal denominator {denom} at ({x},{y}) "
                    f"in V({a},{b})"
                )
            m, r = divmod(2 * total, denom)
            if r or m <= 0:
                raise ArithmeticError(
                    f"Freudenthal recursion gives {2 * total}/{denom} "
                    f"at ({x},{y}) in V({a},{b})"
                )
        for w in weyl_orbit((x, y)):
            mult[w] = m
    return mult


def test_racah_matches_freudenthal_oracle():
    # Freudenthal's recursion (Casimir, root strings) against Racah's
    # formula (Weyl character formula, dominant chamber): a+b <= 20 puts
    # every wall case (x < 4 or y < 2) into some V(a, b)
    for a in range(21):
        for b in range(21 - a):
            oracle = _freudenthal(a, b)
            assert dict(irreducible_character((a, b)).items()) == oracle
            assert _dominant_multiplicities(a, b) == {
                w: m for w, m in oracle.items() if w.a >= 0 and w.b >= 0
            }, (a, b)


def _orbit_rows(dominant):
    """The test oracle of `characters._weight_rows`: each dominant weight's
    nonzero multiplicity written to its `weyl_orbit`, then sorted."""
    terms = {}
    for w, m in dominant.items():
        if m:
            terms.update(dict.fromkeys(weyl_orbit(w), m))
    return [(a, b, m) for (a, b), m in sorted(terms.items())]


def test_weyl_group_is_closed_from_the_reflections():
    # each element (g(omega1), g(omega2)) maps (x, y) to
    # x * g(omega1) + y * g(omega2); the images are the orbit, walls too
    group = characters._WEYL_GROUP
    assert len(set(group)) == len(group) == 12
    for x in range(-7, 8):
        for y in range(-7, 8):
            images = {x * u + y * v for u, v in group}
            assert images == weyl_orbit((x, y)), (x, y)


def _weight_rows(dominant):
    """The (a, b, mult) rows of `characters._weight_rows`' columns."""
    return list(zip(*characters._weight_rows(dominant)))


def test_weight_rows_match_the_orbit_oracle():
    for a in range(15):
        for b in range(15 - a):
            dominant = _dominant_multiplicities(a, b)
            rows = _weight_rows(dominant)
            assert rows == _orbit_rows(dominant), (a, b)
            assert sum(m for _, _, m in rows) == weyl_dim((a, b))
    # zero multiplicities are dropped, negative ones kept
    assert _weight_rows({}) == []
    assert _weight_rows({ZERO: 0}) == []
    mixed = {Weight(0, 2): -3, Weight(1, 0): 0, ZERO: 5}
    assert _weight_rows(mixed) == _orbit_rows(mixed)


graded_parts = st.lists(
    st.tuples(st.integers(0, 3), dominants, st.integers(-2, 2)),
    max_size=6,
)


@given(graded_parts)
# V(1,0) - V(0,0): the zero weight's multiplicities cancel to 0, and
# `expected` holds no zero
@example([(0, OMEGA1, 1), (0, ZERO, -1), (2, OMEGA2, 1)])
@settings(deadline=None, max_examples=40)
def test_expand_weights_matches_the_orbit_oracle(parts):
    g = GradedDecomposition()
    for grade, weight, mult in parts:
        g.add(grade, weight, mult)
    rows = {grade: [(*w, k) for w, k in zip(weights, mults)]
            for grade, weights, mults in _weight_basis(*g._by_grade())}
    expanded = expand_weights(g)
    assert list(rows) == list(expanded) == g.grades()
    for grade in g.grades():
        # each component expanded by the oracle, then summed
        total = {}
        for weight, mult in g.component(grade).items():
            for a, b, k in _orbit_rows(_dominant_multiplicities(*weight)):
                total[a, b] = total.get((a, b), 0) + mult * k
        expected = [(a, b, m) for (a, b), m in sorted(total.items()) if m]
        assert rows[grade] == expected
        assert sorted((a, b, m) for (a, b), m in expanded[grade].items()) == (
            expected
        )


@pytest.fixture
def fresh_racah_caches():
    caches = (characters._irreducible_character,
              characters._dominant_multiplicities, characters._wall_terms)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


#: A script that flips the sign of Racah's term at shift (da, db), and
#: prints the failure text for V(a, b): python SCRIPT da db a b.
_FLIPPED_SIGN = """
import sys
from g2kr import characters
da, db, a, b = map(int, sys.argv[1:])
characters._SHIFTS = tuple(
    (x, y, -c if (x, y) == (da, db) else c) for x, y, c in characters._SHIFTS
)
try:
    characters.irreducible_character((a, b))
except ArithmeticError as exc:
    print(exc)
"""

_FLIPPED_CASES = [
    # the s1 term, failing at a wall point (x < 4)
    ((2, -1), (1, 0),
     "Racah's formula gives multiplicity -1 at (0,0) in V(1,0)"),
    # failing at an interior point (x >= 4, y >= 2)
    ((6, -2), (5, 5),
     "Racah's formula gives multiplicity -2 at (4,3) in V(5,5)"),
    # a multiplicity of zero fails too
    ((-3, 2), (0, 1),
     "Racah's formula gives multiplicity 0 at (0,0) in V(0,1)"),
]


@pytest.mark.parametrize("shift, lam, text", _FLIPPED_CASES,
                         ids=["wall", "interior", "zero"])
def test_racah_failure_text(monkeypatch, capsys, fresh_racah_caches, shift,
                            lam, text):
    monkeypatch.setattr(characters, "_SHIFTS", tuple(
        (da, db, -c if (da, db) == shift else c)
        for da, db, c in characters._SHIFTS
    ))
    with pytest.raises(ArithmeticError) as info:
        irreducible_character(lam)
    assert str(info.value) == text
    # through the CLI: exit 1 and one error line, not a traceback
    assert main(["char", *map(str, lam)]) == 1
    assert capsys.readouterr() == ("", f"error: {text}\n")


@pytest.mark.parametrize("shift, lam, text", _FLIPPED_CASES,
                         ids=["wall", "interior", "zero"])
def test_racah_failure_text_optimized(child_env, shift, lam, text):
    # an explicit check, so python -O raises the same error
    result = subprocess.run(
        [sys.executable, "-O", "-c", _FLIPPED_SIGN, *map(str, shift + lam)],
        capture_output=True, text=True, env=child_env, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == text + "\n"
