import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2kr import equivalence
from g2kr.cli import main
from g2kr.equivalence import (
    _certificate,
    class_keys,
    class_members,
    class_size_formula,
    representative,
    shift_vector,
    validate_key,
    verify_partition,
)
from g2kr.kr import (
    _REGIONS,
    Family,
    Weight,
    conjecture_graded_character,
    enumerate_region,
    kr_graded_character,
    wt_gr,
)

QUAD = (Family.U1, Family.T2)


def listing_partition(family, m):
    """The listing route, the oracle of `verify_partition`: every key's
    class_members against a set of the whole region.

    Empty iff the classes are pairwise disjoint, cover the region and have
    the coefficients as sizes.  Keys, representatives and coefficients are
    looked up at call time, so injected faults reach this route too.
    """
    failures = []
    coefficient = _REGIONS[family].coefficient
    region = set(enumerate_region(family, m))
    seen = {}
    for j, k, s in equivalence.class_keys(family, m):
        try:
            rep = equivalence.representative(family, m, j, k, s)
            members = class_members(family, m, rep)
        except ValueError as exc:
            failures.append(f"key ({j},{k},{s}): {exc}")
            continue
        if len(members) != coefficient(m, j, k):
            failures.append(f"key ({j},{k},{s}): {len(members)} members")
        for point in members:
            if seen.setdefault(point, (j, k, s)) != (j, k, s):
                failures.append(f"{point} in {seen[point]} and ({j},{k},{s})")
    if region != seen.keys():
        failures.append(f"{len(region - seen.keys())} points uncovered")
    return failures


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


@pytest.mark.parametrize("family", ["u1", "t2"])
@pytest.mark.parametrize(
    "key_function", [validate_key, representative, class_size_formula]
)
def test_key_functions_reject_negative_m(key_function, family):
    # a negative m is named as such, before any inequality of the key
    with pytest.raises(ValueError, match="^m must be nonnegative, got -3$"):
        key_function(family, -3, 0, 0, 0)


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
        assert listing_partition(family, m) == []


@pytest.mark.parametrize("family", QUAD)
def test_class_keys_are_the_valid_keys(family):
    # the table's labels against the inequalities of `validate_key`
    for m in range(13):
        valid = set()
        for key in itertools.product(range(m + 1), repeat=3):
            try:
                validate_key(family, m, *key)
            except ValueError:
                continue
            valid.add(key)
        keys = list(class_keys(family, m))
        assert len(keys) == len(set(keys))
        assert set(keys) == valid


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
    # representatives x class sizes rebuild the generating-function form
    for m in range(31):
        assert verify_partition(
            family, m, conjecture_graded_character(family, m)
        ) == []


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


@pytest.mark.parametrize(
    "family, minors", [(Family.U1, (-3, 1, 0, 1)), (Family.T2, (1, 0, 1, -1))]
)
def test_kernel_certificate(family, minors):
    region = _REGIONS[family]
    assert _certificate(region) == ()
    assert minors in (region.shift, tuple(-c for c in region.shift))
    # the minors do not depend on m: only the linear part of (wt, gr) counts
    moved = tuple((c, d + 5) for c, d in region.wt_gr)
    assert _certificate(region._replace(wt_gr=moved)) == ()
    assert _certificate(region._replace(shift=(0, 0, 0, 0))) == (
        f"kernel certificate fails: signed minors {minors} of the (wt, gr) "
        "rows are not +-shift (0, 0, 0, 0) with gcd 1",
    )


def test_kernel_certificate_needs_primitive_shift():
    # doubling the grade row doubles the minors: a shift equal to them is
    # still not the generator of the integer kernel
    region = _REGIONS[Family.T2]
    wt_a, wt_b, (c, d) = region.wt_gr
    doubled = region._replace(
        wt_gr=(wt_a, wt_b, (tuple(2 * x for x in c), d)), shift=(2, 0, 2, -2)
    )
    assert _certificate(doubled) == (
        "kernel certificate fails: signed minors (2, 0, 2, -2) of the "
        "(wt, gr) rows are not +-shift (2, 0, 2, -2) with gcd 1",
    )


def run_classes(capsys, fmt, max_m):
    code = main(["verify", "classes", "--max-m", str(max_m), "--format", fmt])
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "field, value, minors, listing_fails",
    [
        # a wrong grade row: the shift-line classes stop being (wt, gr)
        # fibres; the listing route never reads (wt, gr) and misses it
        ("wt_gr", (((-1, -3, -3, 0), 1), ((0, 1, 1, -1), 0),
                   ((1, 1, 2, 3), 0)), (-3, 2, -1, 1), False),
        # a shift in the kernel but not its generator: the counting pass
        # never reads the shift, the listing route sees half-size classes
        ("shift", (6, -2, 0, -2), (-3, 1, 0, 1), True),
    ],
    ids=["wt_gr", "shift"],
)
def test_mutated_table_fails_certificate(monkeypatch, capsys, field, value,
                                         minors, listing_fails):
    region = _REGIONS[Family.U1]._replace(**{field: value})
    monkeypatch.setitem(_REGIONS, Family.U1, region)
    message = (f"kernel certificate fails: signed minors {minors} of the "
               f"(wt, gr) rows are not +-shift {region.shift} with gcd 1")
    assert verify_partition(Family.U1, 4) == [message]
    assert (listing_partition(Family.U1, 6) != []) == listing_fails
    code, out = run_classes(capsys, "json", 4)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    # the family's existing entries fail; no entry is added
    assert payload["checks"] == [
        {"check": "classes", "family": "u1", "m": m, "ok": False,
         "failures": [message]} for m in range(5)
    ] + [{"check": "classes", "family": "t2", "m": m, "ok": True}
         for m in range(5)]
    code, out = run_classes(capsys, "table", 4)
    assert code == 1
    assert "classes u1 (m <= 4): FAIL at m = 0, 1, 2, 3, 4\n" in out
    assert out.count(f"    {message}\n") == 5
    assert "classes t2 (m <= 4): ok\n" in out


def _representatives(monkeypatch, moved):
    # moved: {(m, j, k, s): point} replaces those U1 representatives
    region = _REGIONS[Family.U1]

    def representative(m, j, k, s):
        if (m, j, k, s) in moved:
            return moved[m, j, k, s]
        return region.representative(m, j, k, s)

    monkeypatch.setitem(_REGIONS, Family.U1,
                        region._replace(representative=representative))


def _outside(monkeypatch):
    # (4,0,0) at m=6 is (1,1,0,1), its whole class; one shift further
    # breaks only 2r1 + 3r2 + 3r3 <= m and keeps the (wt, gr)
    _representatives(monkeypatch, {(6, 4, 0, 0): (4, 0, 0, 0)})


def _shared(monkeypatch):
    # (4,0,0) gets the representative of (3,0,0)
    _representatives(monkeypatch, {(6, 4, 0, 0): (0, 1, 0, 1)})


def _coefficient(monkeypatch):
    region = _REGIONS[Family.U1]

    def coefficient(m, j, k):
        return region.coefficient(m, j, k) + ((m, j, k) == (6, 3, 0))

    monkeypatch.setitem(_REGIONS, Family.U1,
                        region._replace(coefficient=coefficient))


def _dropped(monkeypatch):
    original = equivalence.class_keys

    def class_keys(family, m):
        keys = original(family, m)
        if family not in (Family.U1, "u1") or m != 6:
            return keys
        return (key for key in keys if key != (5, 1, 1))

    monkeypatch.setattr(equivalence, "class_keys", class_keys)


FAULTS = [
    (_outside, [
        "m=6 key (4, 0, 0): (4, 0, 0, 0) is outside the region",
        "m=6: no key has (wt, gr) (2, 0, 4); region count 1",
    ]),
    (_shared, [
        "m=6 keys (3, 0, 0) and (4, 0, 0) share (wt, gr) (3, 0, 3)",
        "m=6: no key has (wt, gr) (2, 0, 4); region count 1",
    ]),
    (_coefficient, [
        "m=6 key (3, 0, 0): coefficient 3 != region count 2 at (wt, gr) "
        "(3, 0, 3)",
    ]),
    (_dropped, ["m=6: no key has (wt, gr) (0, 1, 5); region count 1"]),
]


@pytest.mark.parametrize("inject, expected", FAULTS,
                         ids=[f.__name__[1:] for f, _ in FAULTS])
def test_injected_faults(monkeypatch, capsys, inject, expected):
    inject(monkeypatch)
    assert verify_partition(Family.U1, 6) == expected
    assert listing_partition(Family.U1, 6) != []
    for m in (5, 7):
        assert verify_partition(Family.U1, m) == []
    code, out = run_classes(capsys, "json", 7)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [c for c in payload["checks"] if not c["ok"]] == [
        {"check": "classes", "family": "u1", "m": 6, "ok": False,
         "failures": expected}
    ]
    code, out = run_classes(capsys, "table", 7)
    assert code == 1
    assert "".join(f"    {line}\n" for line in expected) in out
    assert "classes u1 (m <= 7): FAIL at m = 6\n" in out


def test_partition_compares_the_given_graded_character():
    graded = kr_graded_character(Family.U1, 6)
    graded.add(3, Weight(3, 0), 1)
    assert verify_partition(Family.U1, 6, graded) == [
        "m=6 key (3, 0, 0): coefficient 2 != region count 3 at (wt, gr) "
        "(3, 0, 3)"
    ]


def _listed_class_keys(family, m):
    # class_keys is a generator: its check runs at the first key drawn
    return list(class_keys(family, m))


@pytest.mark.parametrize("bad", [6.0, True, "6", None, -1])
@pytest.mark.parametrize("function", [verify_partition, _listed_class_keys])
def test_partition_routes_check_m(function, bad):
    for family in ("u1", "t2"):
        with pytest.raises(ValueError, match="m must be"):
            function(family, bad)
