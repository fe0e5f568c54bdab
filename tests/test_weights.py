import pytest
from hypothesis import given
from hypothesis import strategies as st

from g2kr.characters import Character, irreducible_character, tensor, weyl_dim
from g2kr.kr import GradedDecomposition
from g2kr.weights import (
    ALL_ROOTS,
    ALPHA1,
    ALPHA2,
    LONG_ROOTS,
    OMEGA1,
    OMEGA2,
    POSITIVE_ROOTS,
    RHO,
    SHORT_ROOTS,
    ZERO,
    Weight,
    coroot_coefficients,
    dominant_chamber,
    dominant_representative,
    from_root_coords,
    height,
    in_root_cone,
    inner,
    is_dominant,
    pairing,
    simple_reflection,
    to_root_coords,
    weyl_orbit,
)

weights = st.builds(Weight, st.integers(-30, 30), st.integers(-30, 30))


def test_root_coords_fixtures():
    assert to_root_coords(OMEGA1) == (2, 1)
    assert to_root_coords(Weight(0, 0)) == (0, 0)
    # forced by the Cartan matrix with alpha1 short; 3a1+2a2 is the
    # highest long root, hence equals omega2
    assert to_root_coords(OMEGA2) == (3, 2)
    assert 3 * ALPHA1 + 2 * ALPHA2 == OMEGA2
    # a pair of ints is a weight too
    assert to_root_coords((1, 2)) == (8, 5) and height((1, 2)) == 13
    assert in_root_cone((-1, 1)) and not in_root_cone((-2, 1))


@given(weights)
def test_root_coords_roundtrip(w):
    assert from_root_coords(*to_root_coords(w)) == w


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_root_coords_onto(p, q):
    assert to_root_coords(from_root_coords(p, q)) == (p, q)


def test_positive_roots_split_by_length():
    assert set(SHORT_ROOTS) == {ALPHA1, ALPHA1 + ALPHA2, 2 * ALPHA1 + ALPHA2}
    assert set(LONG_ROOTS) == {ALPHA2, 3 * ALPHA1 + ALPHA2, 3 * ALPHA1 + 2 * ALPHA2}
    for root in SHORT_ROOTS:
        assert inner(root, root) == 2
    for root in LONG_ROOTS:
        assert inner(root, root) == 6
    # closed under the root-cone check
    for root, _ in POSITIVE_ROOTS:
        assert in_root_cone(root)


def test_reflection_fixtures():
    assert simple_reflection(1, OMEGA1) == OMEGA1 - ALPHA1 == Weight(-1, 1)
    assert simple_reflection(2, OMEGA1) == OMEGA1
    with pytest.raises(ValueError):
        simple_reflection(3, OMEGA1)


@given(weights, st.sampled_from([1, 2]))
def test_reflection_involution(w, i):
    assert simple_reflection(i, simple_reflection(i, w)) == w


@given(weights, weights, st.sampled_from([1, 2]))
def test_inner_invariance(v, w, i):
    assert inner(simple_reflection(i, v), simple_reflection(i, w)) == inner(v, w)
    assert inner(v, w) == inner(w, v)


def test_inner_gram_matrix():
    assert inner(ALPHA1, ALPHA1) == 2
    assert inner(ALPHA2, ALPHA2) == 6
    assert inner(ALPHA1, ALPHA2) == -3
    assert inner(OMEGA1, OMEGA2) == 3
    assert inner(OMEGA1, OMEGA1) == 2
    assert inner(OMEGA2, OMEGA2) == 6
    assert inner((1, 0), (0, 1)) == inner(OMEGA1, OMEGA2)


def test_twelve_alternating_reflections_close():
    # dihedral of order 12: (s1 s2)^6 = identity
    for start in (OMEGA1, OMEGA2, Weight(2, 5), Weight(-3, 1)):
        w = start
        for _ in range(6):
            w = simple_reflection(2, simple_reflection(1, w))
        assert w == start


def test_orbit_fixtures():
    assert weyl_orbit(Weight(0, 0)) == {Weight(0, 0)}
    orbit1 = weyl_orbit(OMEGA1)
    assert len(orbit1) == 6
    assert orbit1 == set(SHORT_ROOTS) | {-r for r in SHORT_ROOTS}
    orbit2 = weyl_orbit(OMEGA2)
    assert len(orbit2) == 6
    assert orbit2 == set(LONG_ROOTS) | {-r for r in LONG_ROOTS}
    assert len(weyl_orbit(OMEGA1 + OMEGA2)) == 12
    assert set(ALL_ROOTS) == orbit1 | orbit2
    assert len(ALL_ROOTS) == 12


def test_orbit_matches_reflection_words():
    # the closed form against the images under 1, s1, s2 s1, ..., s1 s2 s1
    # s2 s1 and their negatives, on a grid with non-dominant weights
    for a in range(-7, 8):
        for b in range(-7, 8):
            half = [Weight(a, b)]
            for i in (1, 2, 1, 2, 1):
                half.append(simple_reflection(i, half[-1]))
            expected = set(half) | {-v for v in half}
            orbit = weyl_orbit((a, b))
            assert orbit == expected
            assert all(type(v) is Weight for v in orbit)


@given(weights)
def test_orbit_structure(w):
    orbit = weyl_orbit(w)
    assert 12 % len(orbit) == 0
    dominants = [v for v in orbit if is_dominant(v)]
    assert dominants == [dominant_representative(w)]
    for v in orbit:
        for i in (1, 2):
            assert simple_reflection(i, v) in orbit


def test_dominant_chamber_fixtures():
    # -rho = w0(rho) and the longest element has length 6
    assert dominant_chamber((-1, -1)) == (1, 1, 1)
    assert dominant_chamber(simple_reflection(1, RHO)) == (1, 1, -1)
    assert dominant_chamber((2, 5)) == (2, 5, 1)


@given(weights)
def test_dominant_chamber_sign(w):
    a, b, sign = dominant_chamber(w)
    assert Weight(a, b) == dominant_representative(w)
    assert dominant_chamber(tuple(w)) == (a, b, sign)
    if a and b:  # off the walls the sign is det of the unique element
        for i in (1, 2):
            assert dominant_chamber(simple_reflection(i, w)) == (a, b, -sign)


def _chamber_by_reflections(w):
    """`dominant_chamber` through `simple_reflection`: its oracle."""
    sign = 1
    while w[0] < 0 or w[1] < 0:
        w = simple_reflection(1 if w[0] < 0 else 2, w)
        sign = -sign
    return (*w, sign)


def test_dominant_chamber_matches_reflection_oracle():
    # the point and the sign, on a grid with every chamber and wall
    for a in range(-12, 13):
        for b in range(-12, 13):
            assert dominant_chamber((a, b)) == _chamber_by_reflections(
                Weight(a, b))


@pytest.mark.parametrize(
    "w",
    [(1.0, 2), (1.5, 0), (True, -1), (0, False), (2, "1"), (None, 0)],
    ids=["float", "float-half", "bool", "bool-b", "str", "none"],
)
def test_weyl_helpers_reject_non_int_coordinates(w):
    # checked once per call, by the one pair check `weights._pair`
    for function in (weyl_orbit, dominant_chamber, to_root_coords, height,
                     in_root_cone, is_dominant, lambda v: inner(v, RHO),
                     lambda v: inner(RHO, v),
                     lambda v: simple_reflection(1, v),
                     lambda v: pairing(v, 2)):
        with pytest.raises(ValueError, match=r"a weight must have int "
                           r"coordinates, got \("):
            function(w)


# the public entry points that take a weight, each on the bad argument
_WEIGHT_ENTRY_POINTS = {
    "Weight + w": lambda w: RHO + w, "w + Weight": lambda w: w + RHO,
    "Weight - w": lambda w: RHO - w, "w - Weight": lambda w: w - RHO,
    "to_root_coords": to_root_coords, "height": height,
    "in_root_cone": in_root_cone, "is_dominant": is_dominant,
    "inner(w, RHO)": lambda w: inner(w, RHO),
    "inner(RHO, w)": lambda w: inner(RHO, w),
    "simple_reflection": lambda w: simple_reflection(1, w),
    "weyl_orbit": weyl_orbit, "dominant_chamber": dominant_chamber,
    "dominant_representative": dominant_representative,
    "pairing": lambda w: pairing(w, 1),
    "coroot_coefficients": coroot_coefficients,
    "Character": lambda w: Character([(w, 1)]),
    "Character[w]": lambda w: Character()[w],
    "irreducible_character": irreducible_character, "weyl_dim": weyl_dim,
    "tensor(w, OMEGA1)": lambda w: tensor(w, OMEGA1),
    "tensor(OMEGA1, w)": lambda w: tensor(OMEGA1, w),
    "GradedDecomposition.add": lambda w: GradedDecomposition().add(0, w),
}


@pytest.mark.parametrize("entry", _WEIGHT_ENTRY_POINTS)
@pytest.mark.parametrize(
    "make",
    [lambda: {1, 0}, lambda: {1: 0, 0: 1}, lambda: (x for x in (1, 0))],
    ids=["set", "dict", "generator"],
)
def test_other_iterables_of_two_ints_are_not_weights(entry, make):
    # iteration order is no coordinate order: {1, 0} iterates as (0, 1),
    # so unpacked, weyl_dim({1, 0}) would be dim V(omega2) = 14, not 7
    with pytest.raises(ValueError, match="must be a pair of ints, got "):
        _WEIGHT_ENTRY_POINTS[entry](make())


@given(weights)
def test_weight_helpers_accept_int_pairs(w):
    # a pair of ints is a weight here, as it is to `inner` and `weyl_orbit`
    for function in (to_root_coords, height, in_root_cone, is_dominant,
                     weyl_orbit, dominant_chamber):
        assert function((w.a, w.b)) == function(w)


def test_dominance():
    assert is_dominant(Weight(0, 0))
    assert is_dominant(Weight(2, 1))
    assert not is_dominant(Weight(-1, 1))
    assert is_dominant((0, 3)) and not is_dominant((2, -1))


def test_coroot_coefficients():
    # coroots of the simple roots are the h_i themselves
    assert coroot_coefficients(ALPHA1) == (1, 0)
    assert coroot_coefficients(ALPHA2) == (0, 1)
    # lambda(h_gamma) = 2*inner(lambda, gamma)/inner(gamma, gamma)
    for root, _ in POSITIVE_ROOTS:
        c1, c2 = coroot_coefficients(root)
        for lam in (OMEGA1, OMEGA2, Weight(2, 3)):
            num = 2 * inner(lam, root)
            assert num % inner(root, root) == 0
            assert lam.a * c1 + lam.b * c2 == num // inner(root, root)
    for not_a_root in (Weight(1, 1), ZERO):
        with pytest.raises(ValueError, match="is not a root of G2"):
            coroot_coefficients(not_a_root)


def test_pairing_index_out_of_range():
    assert (pairing(RHO, 1), pairing(RHO, 2)) == (1, 1)
    with pytest.raises(ValueError, match="must be 1 or 2, got 3"):
        pairing(RHO, 3)


@pytest.mark.parametrize(
    "a, b",
    [(True, 0), (0, False), (1.0, 0), ("1", 0), (0, None)],
    ids=["bool", "bool-b", "float", "str", "none"],
)
def test_weight_coordinates_must_be_ints(a, b):
    with pytest.raises(ValueError, match="a weight is two ints"):
        Weight(a, b)
    # `_make` and `_replace` go through the same check
    with pytest.raises(ValueError, match="a weight is two ints"):
        Weight._make((a, b))
    with pytest.raises(ValueError, match="a weight is two ints"):
        Weight(0, 0)._replace(a=a, b=b)


def test_unchecked_constructor_builds_the_same_weight():
    from g2kr.weights import _weight

    w = _weight((3, -2))
    assert type(w) is Weight and w == Weight(3, -2) == (3, -2)
    assert Weight._make([3, -2]) == w and w._replace(b=5) == Weight(3, 5)
    # a scalar multiple is one only by an int
    with pytest.raises(ValueError, match="a weight is two ints"):
        w * 1.5


@given(weights, weights)
def test_sum_and_difference_with_int_pairs(v, w):
    # an int pair on either side is a weight, never a tuple to concatenate
    total = Weight(v.a + w.a, v.b + w.b)
    difference = Weight(v.a - w.a, v.b - w.b)
    for pair in (w, (w.a, w.b), [w.a, w.b]):
        for result, expected in ((v + pair, total), (pair + v, total),
                                 (v - pair, difference),
                                 (pair - v, -difference)):
            assert type(result) is Weight and result == expected


@pytest.mark.parametrize(
    "operand",
    [5, None, "ab", (1, 2, 3), (1.0, 0), (True, 0), (0, "1")],
    ids=["int", "none", "str", "triple", "float", "bool", "str-b"],
)
def test_sum_and_difference_reject_other_operands(operand):
    for operation in (lambda w: w + operand, lambda w: operand + w,
                      lambda w: w - operand, lambda w: operand - w):
        with pytest.raises(ValueError, match="a weight operand must"):
            operation(RHO)
