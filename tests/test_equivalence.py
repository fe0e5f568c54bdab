import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2kr import kr
from g2kr.cli import main
from g2kr.equivalence import (
    _certificate,
    class_size_formula,
    representative,
    shift_vector,
    verify_partition,
)
from g2kr.kr import (
    _REGIONS,
    Family,
    GradedDecomposition,
    _region_counts,
    compare,
    conjecture_differences,
    conjecture_graded_character,
    enumerate_region,
    kr_graded_character,
    wt_gr,
)

QUAD = (Family.U1, Family.T2)


def keys(family, m):
    """The keys (j, k, s) of the table's labels of positive coefficient,
    read at call time."""
    region = _REGIONS[family]
    return [(j, k, s) for j, k, top in region.labels(m)
            if region.coefficient(m, j, k) > 0 for s in range(top + 1)]


def listing_partition(family, m):
    """The listing route, the oracle of `verify_partition`: the region's
    points grouped by (wt, gr), and each key's fibre looked up there.

    Empty iff the fibres of the keys' representatives are pairwise
    distinct, cover the region, have the coefficients as sizes and start
    at their representatives.  Keys, representatives and coefficients
    are looked up at call time, so injected faults reach this route too;
    no shift line is walked.
    """
    failures = []
    coefficient = _REGIONS[family].coefficient
    fibres = {}
    for r in enumerate_region(family, m):  # in lexicographic order
        fibres.setdefault(wt_gr(family, m, r), []).append(r)
    covered = []
    for j, k, s in keys(family, m):
        try:
            rep = representative(family, m, j, k, s)
        except ValueError as exc:
            failures.append(f"key ({j},{k},{s}): {exc}")
            continue
        members = fibres.get(wt_gr(family, m, rep), [])
        if rep not in members:
            failures.append(f"key ({j},{k},{s}): {rep} is outside the region")
            continue
        if len(members) != coefficient(m, j, k):
            failures.append(f"key ({j},{k},{s}): {len(members)} members")
        if members[0] != rep:
            failures.append(f"key ({j},{k},{s}): class starts at {members[0]}")
        covered += members
    if len(covered) != len(set(covered)):
        failures.append("a region point lies in two classes")
    if len(set(covered)) != sum(map(len, fibres.values())):
        failures.append("the classes do not cover the region")
    return failures


def shift_class(family, m, r):
    """Brute force: the region points r + t * shift_vector(family), t in Z,
    sorted.  Membership is read off the table's constraints."""
    rows, shift = _REGIONS[family].constraints, shift_vector(family)
    line = set()
    for step in (1, -1):
        point = tuple(r)
        while min(kr._affine(rows, m, point)) >= 0:
            line.add(point)
            point = tuple(c + step * d for c, d in zip(point, shift))
    return sorted(line)


def test_shift_vectors():
    assert shift_vector(Family.U1) == (3, -1, 0, -1)
    assert shift_vector(Family.T2) == (1, 0, 1, -1)
    with pytest.raises(ValueError):
        shift_vector(Family.U2)


@pytest.mark.parametrize("family", [Family.U2, Family.T1])
def test_class_ops_reject_ladder_families(family):
    for call in (
        lambda: shift_vector(family),
        lambda: representative(family, 3, 0, 0, 0),
        lambda: class_size_formula(family, 3, 0, 0, 0),
        lambda: verify_partition(family, 3),
    ):
        with pytest.raises(ValueError, match="ladder-indexed"):
            call()


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
        for j, k, s in keys(Family.U1, m):
            rep = representative(Family.U1, m, j, k, s)
            assert wt_gr(Family.U1, m, rep) == (
                wt_gr(Family.U1, m, rep)[0],
                j - k + s,
            )
            weight, grade = wt_gr(Family.U1, m, rep)
            assert weight.a == m - j - k and weight.b == k
        for j, k, s in keys(Family.T2, m):
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
    "key_function", [representative, class_size_formula]
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
    "key_function", [representative, class_size_formula]
)
def test_key_functions_reject_negative_m(key_function, family):
    # a negative m is named as such, before any inequality of the key
    with pytest.raises(ValueError, match="^m must be nonnegative, got -3$"):
        key_function(family, -3, 0, 0, 0)


def test_class_members_fixtures():
    # the shift lines through hand-checked points, and their keys' sizes
    assert shift_class(Family.U1, 6, (0, 1, 0, 1)) == [
        (0, 1, 0, 1),
        (3, 0, 0, 0),
    ]
    assert representative(Family.U1, 6, 3, 0, 0) == (0, 1, 0, 1)
    assert class_size_formula(Family.U1, 6, 3, 0, 0) == 2
    assert shift_class(Family.U1, 3, (0, 1, 0, 1)) == [(0, 1, 0, 1)]
    assert shift_class(Family.T2, 4, (1, 0, 0, 2)) == [
        (1, 0, 0, 2),
        (2, 0, 1, 1),
    ]
    for family in QUAD:
        assert shift_class(family, 4, (0, 0, 0, 0)) == [(0, 0, 0, 0)]


@pytest.mark.parametrize("family, m", [(Family.U1, 8), (Family.T2, 5)])
def test_class_members_against_brute_force(family, m):
    # the shift line through each point is its (weight, grade) fibre
    groups = {}
    for r in enumerate_region(family, m):
        groups.setdefault(wt_gr(family, m, r), []).append(r)
    for r in enumerate_region(family, m):
        assert shift_class(family, m, r) == groups[wt_gr(family, m, r)]


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
    # the table's labels against the inequalities that `class_size_formula`
    # checks
    for m in range(13):
        valid = set()
        for key in itertools.product(range(m + 1), repeat=3):
            try:
                class_size_formula(family, m, *key)
            except ValueError:
                continue
            valid.add(key)
        listed = keys(family, m)
        assert len(listed) == len(set(listed))
        assert set(listed) == valid


@pytest.mark.parametrize("family", QUAD)
def test_class_sizes_sum_to_region(family):
    for m in range(31):
        total = sum(
            class_size_formula(family, m, j, k, s)
            for j, k, s in keys(family, m)
        )
        assert total == len(enumerate_region(family, m))


def rebuilt_graded_character(family, m):
    """V(wt_gr(representative)) times the class size, summed over the keys."""
    rebuilt = GradedDecomposition()
    for key in keys(family, m):
        weight, grade = wt_gr(family, m, representative(family, m, *key))
        rebuilt.add(grade, weight, class_size_formula(family, m, *key))
    return rebuilt


@pytest.mark.parametrize("family", QUAD)
def test_two_route_equality(family):
    # representatives x class sizes rebuild the generating-function form
    for m in range(31):
        assert rebuilt_graded_character(family, m) == (
            conjecture_graded_character(family, m)
        ), m


@pytest.mark.parametrize("family", QUAD)
def test_family_names_accepted(family):
    name = family.value
    assert shift_vector(name) == shift_vector(family)
    assert representative(name, 6, 3, 1, 1) == (
        representative(family, 6, 3, 1, 1)
    )
    assert class_size_formula(name, 6, 3, 1, 1) == (
        class_size_formula(family, 6, 3, 1, 1)
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
    out, err = capsys.readouterr()
    assert err == ""
    return code, out


@pytest.mark.parametrize(
    "field, value, minors, listing_fails",
    [
        # a wrong grade row: the shift-line classes stop being (wt, gr)
        # fibres; the listing route groups by it and sees singletons
        ("wt_gr", (((-1, -3, -3, 0), 1), ((0, 1, 1, -1), 0),
                   ((1, 1, 2, 3), 0)), (-3, 2, -1, 1), True),
        # a shift in the kernel but not its generator: the listing route
        # never reads the shift, and the keys still label the fibres
        ("shift", (6, -2, 0, -2), (-3, 1, 0, 1), False),
        # no shift: no class would be bounded, so the certificate is
        # reported alone
        ("shift", (0, 0, 0, 0), (-3, 1, 0, 1), False),
    ],
    ids=["wt_gr", "shift", "zero_shift"],
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


def _below(monkeypatch):
    # (3,0,0) gets (0,1,0,1) - shift, one step below its least point: only
    # r1 >= 0 breaks, a constraint that rises along the shift
    _representatives(monkeypatch, {(6, 3, 0, 0): (-3, 2, 0, 2)})


def _crossed(monkeypatch):
    # (3,0,0) gets (0,0,0,1): only r2 >= r4 breaks, a constraint that is
    # constant along the shift
    _representatives(monkeypatch, {(6, 3, 0, 0): (0, 0, 0, 1)})


def _shared(monkeypatch):
    # (4,0,0) gets the representative of (3,0,0), a class of 2 points
    _representatives(monkeypatch, {(6, 4, 0, 0): (0, 1, 0, 1)})


def _non_canonical(monkeypatch):
    # (3,0,0) gets the other point of its class, (0,1,0,1) + shift: the
    # same (wt, gr), but not the least point
    _representatives(monkeypatch, {(6, 3, 0, 0): (3, 0, 0, 0)})


def _coefficient(monkeypatch):
    region = _REGIONS[Family.U1]

    def coefficient(m, j, k):
        return region.coefficient(m, j, k) + ((m, j, k) == (6, 3, 0))

    monkeypatch.setitem(_REGIONS, Family.U1,
                        region._replace(coefficient=coefficient))


def _labels(monkeypatch, change):
    # change maps the U1 labels (j, k, top) at m = 6 to the labels listed
    # instead; both partition routes read them
    region = _REGIONS[Family.U1]

    def labels(m):
        return change(region.labels(m)) if m == 6 else region.labels(m)

    monkeypatch.setitem(_REGIONS, Family.U1, region._replace(labels=labels))


def _dropped(monkeypatch):
    # the label (5,1) keeps s = 0 only: its key (5,1,1) goes
    _labels(monkeypatch, lambda labels: (
        (j, k, 0) if (j, k) == (5, 1) else (j, k, top)
        for j, k, top in labels
    ))


def _repeated(monkeypatch):
    # the label (5,1) listed twice: both of its keys repeat
    _labels(monkeypatch, lambda labels: itertools.chain(labels, [(5, 1, 1)]))


FAULTS = [
    (_outside, ["m=6 key (4, 0, 0): (4, 0, 0, 0) is outside the region"]),
    (_below, ["m=6 key (3, 0, 0): (-3, 2, 0, 2) is outside the region"]),
    (_crossed, ["m=6 key (3, 0, 0): (0, 0, 0, 1) is outside the region"]),
    (_shared, [
        "m=6 keys (3, 0, 0) and (4, 0, 0) share the representative "
        "(0, 1, 0, 1)",
        "m=6 key (4, 0, 0): coefficient 1 != class size 2",
    ]),
    (_non_canonical, [
        "m=6 key (3, 0, 0): (3, 0, 0, 0) is not the least point of its class",
    ]),
    (_coefficient, [
        "m=6 key (3, 0, 0): coefficient 3 != class size 2",
        "m=6: the coefficients add up to 17, region(6) has 16 points",
    ]),
    (_dropped, ["m=6: the coefficients add up to 15, region(6) has 16 points"]),
    (_repeated, [
        "m=6 keys (5, 1, 0) and (5, 1, 0) share the representative "
        "(0, 2, 0, 1)",
        "m=6 keys (5, 1, 1) and (5, 1, 1) share the representative "
        "(0, 1, 1, 1)",
        "m=6: the coefficients add up to 18, region(6) has 16 points",
    ]),
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


def _counted(monkeypatch, family, *fields):
    # the family's table with the named functions wrapped: calls[field]
    # lists the arguments of each call
    region = _REGIONS[family]
    calls = {field: [] for field in fields}

    def counted(field):
        function = getattr(region, field)

        def wrapper(*args):
            calls[field].append(args)
            return function(*args)

        return wrapper

    monkeypatch.setitem(_REGIONS, family, region._replace(
        **{field: counted(field) for field in fields}))
    return calls


def test_partition_reads_each_coefficient_once(monkeypatch):
    # the coefficient does not depend on s: one call per label, not one
    # per key
    family, m = Family.T2, 12
    labels = list(_REGIONS[family].labels(m))
    calls = _counted(monkeypatch, family, "coefficient")
    assert verify_partition(family, m) == []
    assert calls["coefficient"] == [(m, j, k) for j, k, _ in labels]


@pytest.mark.parametrize("family", list(Family))
def test_conjecture_compare_reads_each_label_once(monkeypatch, family):
    # one pass over the labels: a coefficient per label, a term per label
    # of positive coefficient, and no `_terms` stream when the forms agree
    m, region = 12, _REGIONS[family]
    labels = [(m, j, k) for j, k, _ in region.labels(m)]
    positive = [label for label in labels if region.coefficient(*label) > 0]
    *_, (_, count) = _region_counts(family, m)
    calls = _counted(monkeypatch, family, "coefficient", "term")

    def terms(*args):
        raise AssertionError("the generating function was streamed")

    monkeypatch.setattr(kr, "_terms", terms)
    assert conjecture_differences(family, m, count) == []
    assert calls == {"coefficient": labels, "term": positive}


def _faulty(region, m, label, s, fault):
    """The table with one fault at the label (j, k, top) of region(m): its
    coefficient +-1 or -1, its grade +1, the label dropped or repeated, or
    the representative of its key (j, k, s) moved by +-shift."""
    here = label[:2]

    def coefficient(n, j, k):
        c = region.coefficient(n, j, k)
        if (n, j, k) != (m, *here):
            return c
        return {"coefficient+1": c + 1, "coefficient-1": c - 1,
                "negative": -1}[fault]

    def term(n, j, k):
        a, b, base = region.term(n, j, k)
        return a, b, base + ((n, j, k) == (m, *here))

    def labels(n):
        listed = list(region.labels(n))
        if n == m and fault == "dropped":
            listed.remove(label)
        elif n == m:
            listed.append(label)
        return listed

    def representative(n, j, k, t):
        r = region.representative(n, j, k, t)
        if (n, j, k, t) != (m, *here, s):
            return r
        step = 1 if fault == "shift+1" else -1
        return tuple(x + step * d for x, d in zip(r, region.shift))

    if fault in ("dropped", "repeated"):
        return region._replace(labels=labels)
    if fault in ("shift+1", "shift-1"):
        return region._replace(representative=representative)
    if fault == "grade+1":
        return region._replace(term=term)
    return region._replace(coefficient=coefficient)


@given(family=st.sampled_from(QUAD), m=st.integers(0, 8),
       fault=st.sampled_from(["coefficient+1", "coefficient-1", "negative",
                              "grade+1", "dropped", "repeated", "shift+1",
                              "shift-1"]),
       data=st.data())
@settings(deadline=None, max_examples=150)
def test_fast_paths_against_oracles(family, m, fault, data):
    # one fault at one label: each per-label kernel agrees with its oracle
    region = _REGIONS[family]
    label = data.draw(st.sampled_from(list(region.labels(m))))
    s = data.draw(st.integers(0, label[2]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(_REGIONS, family, _faulty(region, m, label, s, fault))
        assert (verify_partition(family, m) == []) == (
            listing_partition(family, m) == []
        )
        *_, (_, count) = _region_counts(family, m)
        negatives, expected = [], []
        assert conjecture_differences(family, m, count, negatives) == compare(
            kr_graded_character(family, m),
            conjecture_graded_character(family, m, expected),
        )
        assert negatives == expected


@pytest.mark.parametrize("bad", [6.0, True, "6", None, -1])
@pytest.mark.parametrize("function", [verify_partition, enumerate_region])
def test_partition_routes_check_m(function, bad):
    for family in ("u1", "t2"):
        with pytest.raises(ValueError, match="m must be"):
            function(family, bad)
