import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2kr.equivalence import (
    class_keys,
    class_members,
    class_size_formula,
    rebuild_graded_character,
    representative,
    shift_vector,
    validate_key,
    verify_partition,
)
from g2kr.kr import Family, enumerate_region, kr_graded_character, wt_gr

QUAD = (Family.U1, Family.T2)


def test_shift_vectors():
    assert shift_vector(Family.U1) == (3, -1, 0, -1)
    assert shift_vector(Family.T2) == (1, 0, 1, -1)
    with pytest.raises(ValueError):
        shift_vector(Family.U2)


@pytest.mark.parametrize("family", QUAD)
@given(r=st.tuples(*[st.integers(0, 10)] * 4), m=st.integers(0, 40), ell=st.integers(-3, 3))
@settings(deadline=None, max_examples=60)
def test_wt_gr_constant_along_shift(family, r, m, ell):
    shift = shift_vector(family)
    shifted = tuple(a + ell * d for a, d in zip(r, shift))
    if min(shifted) < 0:
        return
    assert wt_gr(family, m, shifted) == wt_gr(family, m, r)


def test_representative_fixtures():
    assert representative(Family.U1, 3, 3, 0, 0) == (0, 1, 0, 1)
    assert representative(Family.U1, 7, 0, 0, 0) == (0, 0, 0, 0)
    assert representative(Family.T2, 1, 1, 0, 0) == (1, 0, 0, 0)
    assert representative(Family.T2, 5, 2, 1, 1) == (1, 1, 0, 2)


def test_representative_weight_and_grade():
    for m in range(11):
        for j, k, s in class_keys(Family.U1, m):
            rep = representative(Family.U1, m, j, k, s)
            assert wt_gr(Family.U1, m, rep) == (
                wt_gr(Family.U1, m, rep)[0],
                j - k + s,
            )
            weight, grade = wt_gr(Family.U1, m, rep)
            assert weight.a == m - j - k and weight.b == k
        for j, k, s in class_keys(Family.T2, m):
            rep = representative(Family.T2, m, j, k, s)
            weight, grade = wt_gr(Family.T2, m, rep)
            assert (weight.a, weight.b) == (j, k)
            assert grade == 3 * m - 2 * j - 3 * k + s


def test_invalid_keys_rejected():
    with pytest.raises(ValueError, match="floor"):
        representative(Family.U1, 3, 1, 2, 0)
    with pytest.raises(ValueError, match="2k <= j <= m-k"):
        representative(Family.U1, 3, 1, 1, 0)
    with pytest.raises(ValueError, match="s <= k"):
        representative(Family.U1, 3, 3, 0, 1)
    with pytest.raises(ValueError, match="zero-coefficient"):
        representative(Family.U1, 1, 1, 0, 0)
    with pytest.raises(ValueError, match="j \\+ k <= m"):
        representative(Family.T2, 2, 2, 1, 0)
    with pytest.raises(ValueError, match="s <= j"):
        representative(Family.T2, 3, 1, 1, 2)
    with pytest.raises(ValueError, match="ladder"):
        representative(Family.T1, 3, 1, 0, 0)
    with pytest.raises(ValueError, match="negative"):
        class_size_formula(Family.U1, 3, -1, 0, 0)


@pytest.mark.parametrize("bad", [6.0, True, "6", None])
@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize(
    "key_function", [validate_key, representative, class_size_formula]
)
def test_key_arguments_must_be_ints(key_function, position, bad):
    # (m, j, k, s) = (6, 2, 0, 0) is a valid U1 key
    args = [6, 2, 0, 0]
    args[position] = bad
    name = "mjks"[position]
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        key_function("u1", *args)


@pytest.mark.parametrize("bad", [6.0, True, "6", None])
def test_class_members_m_must_be_an_int(bad):
    with pytest.raises(ValueError, match="m must be an int"):
        class_members("u1", bad, (2, 0, 0, 0))


def test_class_members_fixtures():
    assert class_members(Family.U1, 6, (0, 1, 0, 1)) == [
        (0, 1, 0, 1),
        (3, 0, 0, 0),
    ]
    assert class_members(Family.U1, 3, (0, 1, 0, 1)) == [(0, 1, 0, 1)]
    for family in QUAD:
        assert class_members(family, 4, (0, 0, 0, 0)) == [(0, 0, 0, 0)]
    with pytest.raises(ValueError, match="not in the"):
        class_members(Family.U1, 3, (5, 0, 0, 0))


def test_class_members_mutual():
    for family, m in [(Family.U1, 9), (Family.T2, 5)]:
        for r in enumerate_region(family, m):
            members = class_members(family, m, r)
            assert r in members
            for other in members:
                assert class_members(family, m, other) == members


@pytest.mark.parametrize("family, m", [(Family.U1, 8), (Family.T2, 5)])
def test_class_members_against_brute_force(family, m):
    # oracle: group the whole region by (weight, grade)
    groups = {}
    for r in enumerate_region(family, m):
        groups.setdefault(wt_gr(family, m, r), []).append(r)
    for r in enumerate_region(family, m):
        assert class_members(family, m, r) == sorted(
            groups[wt_gr(family, m, r)]
        )


def test_class_size_fixtures():
    assert class_size_formula(Family.U1, 6, 3, 0, 0) == 2
    assert class_size_formula(Family.U1, 3, 3, 0, 0) == 1
    assert class_size_formula(Family.T2, 1, 0, 0, 0) == 1
    # members of the class of (1,0,0,2): itself and (2,0,1,1)
    assert class_size_formula(Family.T2, 4, 1, 1, 0) == 2


@pytest.mark.parametrize("family", QUAD)
def test_partition_sweep(family):
    for m in range(31):
        assert verify_partition(family, m) == []


@pytest.mark.parametrize("family", QUAD)
def test_class_sizes_sum_to_region(family):
    for m in range(31):
        total = sum(
            class_size_formula(family, m, j, k, s)
            for j, k, s in class_keys(family, m)
        )
        assert total == len(enumerate_region(family, m))


@pytest.mark.parametrize("family", QUAD)
def test_two_route_equality(family):
    for m in range(31):
        assert rebuild_graded_character(family, m) == kr_graded_character(
            family, m
        )


@pytest.mark.parametrize("family", QUAD)
def test_family_names_accepted(family):
    name = family.value
    assert shift_vector(name) == shift_vector(family)
    assert list(class_keys(name, 6)) == list(class_keys(family, 6))
    assert representative(name, 6, 3, 1, 1) == (
        representative(family, 6, 3, 1, 1)
    )
    assert class_members(name, 6, (1, 1, 0, 1)) == (
        class_members(family, 6, (1, 1, 0, 1))
    )
    assert verify_partition(name, 6) == []
    assert rebuild_graded_character(name, 6) == kr_graded_character(family, 6)
