import collections
import functools
import itertools
import logging
import operator
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2kr import kr
from g2kr.characters import Character, irreducible_character, tensor
from g2kr.equivalence import shift_vector, verify_partition
from g2kr.kr import (
    _REGIONS,
    Family,
    GradedDecomposition,
    _decode,
    _region_counts,
    compare,
    conjecture_coefficient,
    conjecture_differences,
    conjecture_graded_character,
    enumerate_region,
    expand_weights,
    graded_dimensions,
    kr_graded_character,
    wt_gr,
)
from g2kr.weights import OMEGA1, OMEGA2, Weight, in_root_cone, is_dominant

ZERO = Weight(0, 0)
QUAD = (Family.U1, Family.T2)
LADDER = (Family.U2, Family.T1)


def member(family, m, r):
    """Membership by the table's constraints, read at call time."""
    return min(kr._affine(_REGIONS[family].constraints, m, r)) >= 0


def brute_region(family, m):
    """Independent oracle: filter a bounding box by the raw inequalities."""
    out = []
    for r in itertools.product(range(m + 1), repeat=4):
        r1, r2, r3, r4 = r
        if family is Family.U1:
            ok = r4 <= r2 and 2 * r1 + 3 * r2 + 3 * r3 <= m
        else:
            ok = r3 <= r1 and r1 + r2 + r3 + r4 <= m
        if ok:
            out.append(r)
    return out


def test_wt_gr_fixtures():
    assert wt_gr(Family.U1, 3, (0, 1, 0, 1)) == (ZERO, 3)
    assert wt_gr(Family.U1, 5, (0, 0, 0, 0)) == (Weight(5, 0), 0)
    assert wt_gr(Family.T2, 4, (0, 0, 0, 0)) == (Weight(0, 4), 0)
    assert wt_gr(Family.T2, 1, (1, 0, 0, 0)) == (OMEGA1, 1)


@pytest.mark.parametrize("family", LADDER)
def test_quad_ops_reject_ladder_families(family):
    with pytest.raises(ValueError):
        wt_gr(family, 3, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        enumerate_region(family, 3)


def test_region_fixtures():
    assert enumerate_region(Family.U1, 0) == [(0, 0, 0, 0)]
    assert enumerate_region(Family.U1, 1) == [(0, 0, 0, 0)]
    assert enumerate_region(Family.U1, 2) == [(0, 0, 0, 0), (1, 0, 0, 0)]
    assert set(enumerate_region(Family.U1, 3)) == {
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 1),
    }
    assert set(enumerate_region(Family.T2, 1)) == {
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
    }


@pytest.mark.parametrize("family", QUAD)
@pytest.mark.parametrize("m", range(9))
def test_region_against_brute_force(family, m):
    mine = enumerate_region(family, m)
    assert mine == sorted(mine)  # lexicographic order
    assert mine == brute_region(family, m)
    for r in mine:
        assert member(family, m, r)
        weight, grade = wt_gr(family, m, r)
        assert is_dominant(weight)
        assert grade >= 0


@pytest.mark.parametrize("family", QUAD)
@pytest.mark.parametrize("m", range(9, 31))
def test_region_points_in_region_and_dominant(family, m):
    # test_region_against_brute_force covers m < 9; the enumerator itself
    # carries no per-point check
    mine = enumerate_region(family, m)
    assert mine == sorted(mine)
    for r in mine:
        assert member(family, m, r)
        assert is_dominant(wt_gr(family, m, r)[0])


@pytest.mark.parametrize("family", list(Family))
def test_family_names_accepted(family):
    name = family.value
    assert kr_graded_character(name, 4) == kr_graded_character(family, 4)
    assert conjecture_graded_character(name, 4) == (
        conjecture_graded_character(family, 4)
    )
    if family.quad_indexed:
        assert enumerate_region(name, 4) == enumerate_region(family, 4)
        assert wt_gr(name, 4, (0, 1, 0, 1)) == wt_gr(family, 4, (0, 1, 0, 1))
        assert conjecture_coefficient(name, 4, 1, 1) == (
            conjecture_coefficient(family, 4, 1, 1)
        )


def test_unknown_family_name_rejected():
    for call in (
        lambda: kr_graded_character("u3", 2),
        lambda: conjecture_graded_character("x", 2),
        lambda: enumerate_region("x", 2),
        lambda: wt_gr("x", 2, (0, 0, 0, 0)),
        lambda: conjecture_coefficient("x", 2, 0, 0),
    ):
        with pytest.raises(ValueError):
            call()


def test_graded_decomposition_canonical():
    g = GradedDecomposition()
    g.add(0, OMEGA1, 2)
    g.add(0, OMEGA1, -2)
    assert not g
    g.add(1, OMEGA2, 3)
    g.add(1, OMEGA2, 0)
    assert g.grades() == [1]
    assert g.component(1) == {OMEGA2: 3}
    assert g.multiplicity(0, OMEGA1) == 0
    assert repr(g) == "GradedDecomposition({1: {Weight(a=0, b=1): 3}})"
    assert repr(GradedDecomposition()) == "GradedDecomposition({})"
    g.add(2, (1, 0))  # a pair of ints is stored as its Weight
    assert [type(w) for _, w, _ in g.items()] == [Weight, Weight]


@pytest.mark.parametrize(
    "grade, weight, mult, message",
    [
        (0.5, Weight(1, 0), 1.5, "grade must be an int, got 0.5"),
        (True, OMEGA1, 1, "grade must be an int, got True"),
        (0, OMEGA1, 1.5, "multiplicity must be an int, got 1.5"),
        (0, OMEGA1, False, "multiplicity must be an int, got False"),
        (0, OMEGA1, None, "multiplicity must be an int, got None"),
        (0, (1.0, 0), 1, "weight must have int coordinates, got (1.0, 0)"),
        (0, (True, 0), 1, "weight must have int coordinates, got (True, 0)"),
        (0, (1, 0, 0), 1, "weight must be a pair of ints, got (1, 0, 0)"),
        (0, 1, 1, "weight must be a pair of ints, got 1"),
    ],
    ids=["float-grade", "bool-grade", "float-mult", "bool-mult", "none-mult",
         "float-weight", "bool-weight", "three-weight", "int-weight"],
)
def test_graded_decomposition_add_checks_its_arguments(grade, weight, mult,
                                                       message):
    g = GradedDecomposition()
    with pytest.raises(ValueError, match=re.escape(message)):
        g.add(grade, weight, mult)
    assert not g


@pytest.mark.parametrize(
    "grade, weight, message",
    [
        (0.5, OMEGA1, "grade must be an int, got 0.5"),
        ("x", OMEGA1, "grade must be an int, got 'x'"),
        (True, OMEGA1, "grade must be an int, got True"),
        (None, OMEGA1, "grade must be an int, got None"),
        (0, {0, 1}, "weight must be a pair of ints, got {0, 1}"),
        (0, {0: 1, 1: 0}, "weight must be a pair of ints, got {0: 1, 1: 0}"),
        (0, (x for x in (0, 1)), "weight must be a pair of ints"),
        (0, 0.5, "weight must be a pair of ints, got 0.5"),
        (0, "ab", "weight must be a pair of ints, got 'ab'"),
        (0, (1.0, 0), "weight must have int coordinates, got (1.0, 0)"),
    ],
    ids=["float-grade", "str-grade", "bool-grade", "none-grade", "set-weight",
         "dict-weight", "generator-weight", "float-weight", "str-weight",
         "float-coordinate"],
)
def test_graded_decomposition_lookups_check_their_arguments(grade, weight,
                                                            message):
    # the checks of `add`: a lookup that names no grade or weight raises
    g = GradedDecomposition()
    g.add(0, OMEGA2, 3)
    with pytest.raises(ValueError, match=re.escape(message)):
        g.multiplicity(grade, weight)
    if weight is OMEGA1:  # a bad grade
        with pytest.raises(ValueError, match=re.escape(message)):
            g.component(grade)


def test_graded_decomposition_lookups_take_a_list_as_a_tuple():
    g = GradedDecomposition()
    g.add(0, [0, 1], 3)
    assert g.multiplicity(0, [0, 1]) == g.multiplicity(0, (0, 1)) == 3
    assert g.multiplicity(0, [1, 0]) == g.multiplicity(1, (0, 1)) == 0
    assert g.component(0) == {OMEGA2: 3}


def test_kr_fixtures():
    g = kr_graded_character(Family.U1, 2)
    assert g.component(0) == {Weight(2, 0): 1}
    assert g.component(1) == {OMEGA1: 1}
    assert g.grades() == [0, 1]

    g = kr_graded_character(Family.U2, 1)
    assert g.component(0) == {OMEGA2: 1}
    assert g.component(1) == {ZERO: 1}

    g = kr_graded_character(Family.T2, 1)
    assert [g.component(n) for n in range(4)] == [
        {OMEGA2: 1},
        {OMEGA1: 1},
        {OMEGA1: 1},
        {ZERO: 1},
    ]

    # m = 0 is the trivial module for every family
    for family in Family:
        g = kr_graded_character(family, 0)
        assert g.grades() == [0]
        assert g.component(0) == {ZERO: 1}


def test_u1_m3_matches_fixture():
    g = kr_graded_character(Family.U1, 3)
    expected = GradedDecomposition()
    for grade, weight in [
        (0, Weight(3, 0)),
        (1, Weight(2, 0)),
        (1, OMEGA2),
        (2, OMEGA2),
        (3, ZERO),
    ]:
        expected.add(grade, weight, 1)
    assert g == expected


@pytest.mark.parametrize("family", LADDER)
@pytest.mark.parametrize("m", range(31))
def test_ladder_property(family, m):
    g = kr_graded_character(family, m)
    fund = family.fundamental
    assert g.grades() == list(range(m + 1))
    for n in g.grades():
        assert g.component(n) == {(m - n) * fund: 1}


def test_conjecture_coefficient_values():
    assert conjecture_coefficient(Family.U1, 3, 3, 0) == 1
    assert conjecture_coefficient(Family.U1, 3, 2, 0) == 0  # zero term
    assert conjecture_coefficient(Family.U1, 6, 3, 0) == 2
    assert conjecture_coefficient(Family.T2, 1, 0, 1) == 1
    with pytest.raises(ValueError):
        conjecture_coefficient(Family.U2, 3, 1, 1)


def test_conjecture_coefficient_records_negatives(caplog):
    # outside the summation ranges the raw value can go negative; it must be
    # clamped, logged, and recorded
    negatives = []
    with caplog.at_level(logging.WARNING, logger="g2kr.kr"):
        assert conjecture_coefficient(Family.U1, 1, 4, 0, negatives) == 0
    assert negatives == [(Family.U1, 1, 4, 0, -1)]
    assert "negative pre-clamp" in caplog.text


def test_negative_coefficient_warning_reaches_stderr(child_env):
    # kr imports logging only when it warns; in a fresh interpreter with no
    # handler configured the warning still reaches stderr, through
    # logging's last-resort handler
    script = (
        "import sys\n"
        "from g2kr.kr import Family, conjecture_coefficient\n"
        "print('logging' in sys.modules)\n"
        "print(conjecture_coefficient(Family.U1, 1, 4, 0))\n"
    )
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, env=child_env,
                            check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "0"]
    assert result.stderr == (
        "negative pre-clamp coefficient -1 for u1 at m=1, j=4, k=0\n"
    )


@pytest.mark.parametrize("bad", [3.0, True, "3", None, -3])
@pytest.mark.parametrize("position", range(3))
def test_conjecture_coefficient_arguments_checked(position, bad):
    # (m, j, k) = (3, 3, 0) is a cell of U1 at m = 3
    args = [3, 3, 0]
    args[position] = bad
    with pytest.raises(ValueError, match=f"{'mjk'[position]} must be"):
        conjecture_coefficient(Family.U1, *args)


def test_conjecture_fixtures():
    # ladder families: the labels agree with the cone
    for family in LADDER:
        for m in (0, 1, 5):
            assert conjecture_graded_character(family, m) == kr_graded_character(
                family, m
            )
    g = conjecture_graded_character(Family.T2, 1)
    assert g == kr_graded_character(Family.T2, 1)


@pytest.mark.parametrize("family", list(Family))
def test_conjecture_matches_theorem_sweep(family):
    negatives = []
    for m in range(31):
        assert (
            compare(
                kr_graded_character(family, m),
                conjecture_graded_character(family, m, negatives),
            )
            == []
        )
    assert negatives == []


def per_point(family, m):
    """Oracle: one wt_gr and one GradedDecomposition.add per region point."""
    oracle = GradedDecomposition()
    for r in enumerate_region(family, m):
        weight, grade = wt_gr(family, m, r)
        oracle.add(grade, weight, 1)
    return oracle


def swept(family, top):
    """The count of `_region_counts` at each m of 0..top, decoded; its
    rows come a grade at a time in strictly increasing (grade, a, b) order,
    the order of the output, and its weights are the rows' distinct ones."""
    decoded = []
    for m, (packing, counts) in _region_counts(family, top):
        weights, grades = kr._grades(counts, packing, m)
        rows = [(grade, *w, n) for grade, ws, ns in grades
                for w, n in zip(ws, ns)]
        cells = [row[:3] for row in rows]
        assert cells == sorted(set(cells)), m
        assert sorted(weights) == sorted({(a, b) for _, a, b in cells}), m
        decoded.append(_decode(kr._grades(counts, packing, m)[1]))
    return decoded


@pytest.mark.parametrize("family", QUAD)
def test_closed_form_matches_per_point_oracle(family):
    oracles = [per_point(family, m) for m in range(41)]
    for m, oracle in enumerate(oracles):
        fast = kr_graded_character(family, m)
        assert fast == oracle, m
        assert list(fast.items()) == list(oracle.items())
        assert all(type(w) is Weight for _, w, _ in fast.items())
        # one Weight per distinct (a, b), shared by its grades
        weights = [w for _, w, _ in fast.items()]
        assert len(set(map(id, weights))) == len(set(weights))
    # the count swept over m, to tops where the packing's box is tiny and
    # to 30 and 40
    for top in (0, 1, 30, 40):
        assert swept(family, top) == oracles[:top + 1], top


@pytest.mark.parametrize(
    "family, moved",
    [
        # b = r2 + r3 - r4 - m goes negative on the whole region
        (Family.U1, {1: ((0, 1, 1, -1), -1)}),
        # grades far above 3m
        (Family.T2, {2: ((5, 11, 7, 3), 9)}),
        # a with a negative drift: the m-free values move up the box
        (Family.T2, {0: ((1, 1, -1, 2), -2)}),
        # (wt, gr) constant along r4: points that differ in r4 share a key
        (Family.U1, {1: ((0, 1, 1, 0), 0), 2: ((1, 1, 2, 0), 0)}),
    ],
    ids=["u1-b-negative", "t2-gr-large", "t2-a-drift", "u1-r4-kernel"],
)
def test_mutated_table_still_packs(monkeypatch, family, moved):
    # the packing's box comes from the generators' values, never from the
    # family
    region = _REGIONS[family]
    wt_gr_rows = tuple(moved.get(n, row) for n, row in enumerate(region.wt_gr))
    monkeypatch.setitem(_REGIONS, family, region._replace(wt_gr=wt_gr_rows))
    oracles = [per_point(family, m) for m in range(13)]
    for top in (0, 1, 5, 12):
        assert swept(family, top) == oracles[:top + 1], top
    assert [kr_graded_character(family, m) for m in range(13)] == oracles


def _with_constraints(monkeypatch, family, m_row=None, dropped=(), added=()):
    # the family's table with its m row (the one with d != 0) replaced by
    # m_row, the rows dropped left out and the rows added appended
    region = _REGIONS[family]
    rows = [m_row if d and m_row else (c, d)
            for c, d in region.constraints if (c, d) not in dropped]
    mutated = region._replace(constraints=(*rows, *added))
    monkeypatch.setitem(_REGIONS, family, mutated)
    return mutated


_NOT_A_CONE = "is not a unimodular simplicial cone in (r, m)"


def _row_count(count):
    return f"lists {count} constraints, not its rank + 1 = 5 facets"


@pytest.mark.parametrize(
    "family, moved, reason",
    [
        # layers two points thick: the cone's lattice is not unimodular
        (Family.T2, {"m_row": ((-1, -1, -1, -1), 2)}, _NOT_A_CONE),
        (Family.U1, {"m_row": ((-2, -3, -3, 0), 2)}, _NOT_A_CONE),
        # 3r1 + 3r2 + 3r3 <= 2m
        (Family.U1, {"m_row": ((-3, -3, -3, 0), 2)}, _NOT_A_CONE),
        # a sixth facet r3 >= 2r2 - m: six rows for five facets
        (Family.T2, {"added": [((0, -2, 1, 0), 1)]}, _row_count(6)),
        # r1 + r2 + r3 + r4 <= -m: region(m) shrinks as m grows
        (Family.T2, {"m_row": ((-1, -1, -1, -1), -1)},
         "has no slack facet: no generator (0, 0, 0, 0, 1) of one more m"),
        # r1 + r2 >= m in place of r1 >= r3: region(m) = {(m - t, t, 0, 0)
        # : t >= 0} moves with m, a cone of dimension 2
        (Family.T2, {"dropped": [((1, 0, -1, 0), 0)],
                     "added": [((1, 1, 0, 0), -1)]}, _NOT_A_CONE),
        # r4 left out of the m row: every r4 >= 0 is in region(m)
        (Family.T2, {"m_row": ((-1, -1, -1, 0), 1)},
         "is infinite: its generator (0, 0, 0, 1, 0) has degree 0 < 1"),
        # r2 >= 0 back in U1: implied by r4 >= 0 and r2 - r4 >= 0
        (Family.U1, {"added": [((0, 1, 0, 0), 0)]}, _row_count(6)),
        # r4 >= 0 left out of T2: four rows for five facets
        (Family.T2, {"dropped": [((0, 0, 0, 1), 0)]}, _row_count(4)),
    ],
    ids=["t2-thick", "u1-thick", "u1-three-halves", "t2-r3-floor",
         "t2-shrinking", "t2-moving", "t2-r4-free", "u1-implied-row",
         "t2-four-rows"],
)
def test_derivation_refuses_table(monkeypatch, family, moved, reason):
    mutated = _with_constraints(monkeypatch, family, **moved)
    message = f"the {family.value} region {reason}"
    with pytest.raises(ValueError) as refused:
        kr._generators(mutated)
    assert str(refused.value) == message
    for count in (
        lambda: kr_graded_character(family, 3),
        lambda: enumerate_region(family, 3),
        lambda: next(_region_counts(family, 3)),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            count()


def test_derived_generators_count_another_cone(monkeypatch):
    # r1 + r2 + r3 + 2r4 <= m is still a unimodular cone: it is counted,
    # from the generators it gives, as the membership test filters a box
    family = Family.T2
    mutated = _with_constraints(monkeypatch, family,
                                m_row=((-1, -1, -1, -2), 1))
    assert kr._generators(mutated)[2] == ((0, 0, 0, 1), 2)
    for m in range(9):
        box = itertools.product(range(m + 1), repeat=4)
        assert enumerate_region(family, m) == [
            r for r in box if member(family, m, r)
        ], m
    oracles = [per_point(family, m) for m in range(9)]
    assert swept(family, 8) == oracles
    assert [kr_graded_character(family, m) for m in range(9)] == oracles


@pytest.mark.parametrize("family", list(Family))
def test_generators_invert_the_facet_matrix(family):
    # F * G = I: each generator is 1 on its own facet and 0 on the others,
    # so it lies in the region; `_generators` does not check that itself
    region = _REGIONS[family]
    generators = kr._generators(region)
    size = len(generators)
    assert [kr._affine(region.constraints, d, r) for r, d in generators] == [
        [int(i == j) for i in range(size)] for j in range(size)
    ]


def _moved(value, delta):
    """(path, copy) for each copy of the nested int tuple value with the
    one int at path moved by delta."""
    if type(value) is int:
        yield (), value + delta
        return
    for n, item in enumerate(value):
        for path, moved in _moved(item, delta):
            yield (n, *path), (*value[:n], moved, *value[n + 1:])


def _unit_faults(region):
    """(name, table) for each table with one int of the region's
    constraints, wt_gr or shift moved by +1 or -1: every such fault, read
    off the table itself."""
    for field in ("constraints", "wt_gr", "shift"):
        value = getattr(region, field)
        for delta in (1, -1) if value is not None else ():
            for path, moved in _moved(value, delta):
                yield (f"{field}{list(path)} {delta:+d}",
                       region._replace(**{field: moved}))


@pytest.mark.parametrize("family", list(Family))
def test_every_unit_fault_of_the_table_fails_verify(monkeypatch, family):
    # each fault is refused by `_generators`, or fails the compare of the
    # two forms or the class check at some m <= 8; none passes
    outcomes, passed = collections.Counter(), []
    for name, faulty in _unit_faults(_REGIONS[family]):
        monkeypatch.setitem(_REGIONS, family, faulty)
        try:
            kr._generators(faulty)
        except ValueError:
            outcomes["refused"] += 1
            continue
        if any(conjecture_differences(family, m, count)
               for m, count in _region_counts(family, 8)) or (
                   family.quad_indexed
                   and any(verify_partition(family, m) for m in range(9))):
            outcomes["fail"] += 1
        else:
            passed.append(name)
    assert passed == []
    assert outcomes["fail"] and outcomes["refused"], outcomes


#: The generators (r, d) of ROADMAP item 2, checked by hand, with the
#: (a, b, grade) of each at m = d: U1 for r1, r3, r4, v = r2 - r4 and
#: u = m - 2r1 - 3r2 - 3r3; T2 for r2, r3, r4, w = r1 - r3 and
#: u = m - r1 - r2 - r3 - r4; a ladder for n and u = m - n.
_GENERATORS = {
    Family.U1: [((1, 0, 0, 0), 2, (1, 0, 1)), ((0, 0, 1, 0), 3, (0, 1, 2)),
                ((0, 1, 0, 1), 3, (0, 0, 3)), ((0, 1, 0, 0), 3, (0, 1, 1)),
                ((0, 0, 0, 0), 1, (1, 0, 0))],
    Family.T2: [((0, 1, 0, 0), 1, (1, 0, 2)), ((1, 0, 1, 0), 2, (0, 1, 3)),
                ((0, 0, 0, 1), 1, (0, 0, 3)), ((1, 0, 0, 0), 1, (1, 0, 1)),
                ((0, 0, 0, 0), 1, (0, 1, 0))],
    Family.U2: [((1,), 1, (0, 0, 1)), ((0,), 1, (0, 1, 0))],
    Family.T1: [((1,), 1, (0, 0, 1)), ((0,), 1, (1, 0, 0))],
}


def nested_count(family, m):
    """|region(m)| by nested loops over the raw inequalities."""
    if family in LADDER:  # n in 0..m
        return m + 1
    if family is Family.U1:  # r4 in 0..r2, 2r1 + 3r2 + 3r3 <= m
        return sum(r2 + 1 for r1 in range(m // 2 + 1)
                   for r2 in range((m - 2 * r1) // 3 + 1)
                   for _ in range((m - 2 * r1 - 3 * r2) // 3 + 1))
    # r3 <= r1, and r2 + r4 <= m - r1 - r3 in (n + 1)(n + 2)/2 ways
    return sum((m - r1 - r3 + 1) * (m - r1 - r3 + 2) // 2
               for r1 in range(m + 1) for r3 in range(min(r1, m - r1) + 1))


@pytest.mark.parametrize("family", list(Family))
def test_derived_generators_are_the_hand_checked_table(family):
    table, region = _GENERATORS[family], _REGIONS[family]
    assert kr._generators(region) == tuple((r, d) for r, d, _ in table)
    for r, d, wt_gr_at_d in table:
        assert tuple(kr._affine(region.wt_gr, d, r)) == wt_gr_at_d
    # |region(m)| is the x^m coefficient of the product of 1/(1 - x^d)
    for m in range(41):
        size = kr._region_size(region, m)
        assert size == nested_count(family, m), m
        if family.quad_indexed:  # a ladder has no quad indices to list
            points = enumerate_region(family, m)
            assert len(set(points)) == len(points) == size, m


def slack(family, m, r):
    """u, the constraint whose facet is a region's face: m less the
    m-weighted sum of r."""
    r1, r2, r3, r4 = r
    if family is Family.U1:
        return m - 2 * r1 - 3 * r2 - 3 * r3
    return m - r1 - r2 - r3 - r4


@pytest.mark.parametrize("family", QUAD, ids=["u1", "t2"])
def test_region_is_a_moved_region_and_a_face(family):
    # region(m) is region(m - 1) moved by the slack generator, which keeps
    # r, and the face u = 0, disjoint
    faces = kr._faces(_REGIONS[family], 12, (0, 0, 0, 0),
                      lambda r: lambda point: tuple(map(operator.add,
                                                        point, r)))
    earlier = set()
    for m, face in enumerate(faces):
        points = set(brute_region(family, m))
        assert len(set(face)) == len(face), m
        assert set(face) == {r for r in points if slack(family, m, r) == 0}
        assert earlier.isdisjoint(face) and earlier | set(face) == points
        earlier = points


@pytest.mark.parametrize("family", [Family.T2, Family.U1], ids=["t2", "u1"])
def test_sweep_walks_faces_not_regions(monkeypatch, family):
    # a sweep to 40 moves each key of region(40) once: its faces hold
    # exactly |region(40)| keys, where counting each region(m) afresh would
    # take |region(0)| + ... + |region(40)|
    size = nested_count(family, 40)
    faces, sizes = kr._faces, []

    def counted(*args):
        for face in faces(*args):
            sizes.append(len(face))
            yield face

    monkeypatch.setattr(kr, "_faces", counted)
    assert [m for m, _ in _region_counts(family, 40)] == list(range(41))
    assert len(sizes) == 41 and sum(sizes) == size


def _aliased(region, radix):
    # one radix step moved from b to a: the same grade-major key, unchecked
    def term(m, j, k):
        a, b, base = region.term(m, j, k)
        return (a + 1, b - radix, base) if (j, k) == (1, 1) else (a, b, base)

    return region._replace(term=term)


def _repeated(region, radix):
    # a label listed twice: a dict of keys would hold one copy of it
    return region._replace(
        labels=lambda m: itertools.chain(region.labels(m), [(0, 0, 0)])
    )


@pytest.mark.parametrize("fault", [_aliased, _repeated],
                         ids=["aliased", "repeated"])
def test_packed_compare_sees_faults_keys_hide(monkeypatch, fault):
    family, m = Family.T2, 6
    *_, (_, count) = _region_counts(family, m)
    packing, real = count[0], _REGIONS[family]
    region = fault(real, packing.radix)
    if fault is _aliased:  # the fault hides in a key, whatever the layout
        assert kr._key(packing, m, *region.term(m, 1, 1)) == kr._key(
            packing, m, *real.term(m, 1, 1))
    monkeypatch.setitem(_REGIONS, family, region)
    expected = compare(kr_graded_character(family, m),
                       conjecture_graded_character(family, m))
    assert expected != []
    assert conjecture_differences(family, m, count) == expected


@pytest.mark.parametrize("family", QUAD)
def test_shift_in_kernel_of_wt_gr(family):
    # at m = 0 the affine (wt, gr) map is linear
    shift = shift_vector(family)
    assert wt_gr(family, 0, shift) == (ZERO, 0)
    assert wt_gr(family, 0, tuple(-2 * c for c in shift)) == (ZERO, 0)


@pytest.mark.parametrize("function", [wt_gr])
@pytest.mark.parametrize("family", QUAD)
@pytest.mark.parametrize(
    "m, r, message",
    [
        (3, (True, 0, 0, 0), "a quad index is four ints"),
        (3, [0.0, 0, 0, 0], "a quad index is four ints"),
        (3, (1.5, 0, 0, 0), "a quad index is four ints"),
        (3, (0, 0, 0), "a quad index is four ints"),
        (3, (0, 0, 0, 0, 0), "a quad index is four ints"),
        (3, True, "a quad index is four ints"),
        (3, "0000", "a quad index is four ints"),
        (-3, (0, 0, 0, 0), "m must be nonnegative"),
        (3.0, (0, 0, 0, 0), "m must be an int"),
        (True, (0, 0, 0, 0), "m must be an int"),
    ],
    ids=["bool-coordinate", "float-list", "fraction", "three", "five",
         "bool", "str", "negative-m", "float-m", "bool-m"],
)
def test_quad_index_boundary(function, family, m, r, message):
    with pytest.raises(ValueError, match=message):
        function(family, m, r)


def test_quad_index_legal_forms():
    # a list is accepted, and a negative coordinate is a point of Z^4
    assert wt_gr(Family.U1, 3, [0, 1, 0, 1]) == (ZERO, 3)
    assert wt_gr(Family.U1, 3, (-1, 0, 0, 0)) == (Weight(4, 0), -1)


def test_compare_lists_every_difference_sorted():
    a = kr_graded_character(Family.T2, 5)
    b = conjecture_graded_character(Family.T2, 5)
    assert compare(a, b) == []
    b.add(0, Weight(0, 5), 2)        # mult 1 -> 3
    b.add(7, Weight(1, 1), -1)       # drop a term
    b.add(2, Weight(9, 9), 4)        # new term in an existing grade
    b.add(40, Weight(0, 0), 1)       # new grade
    a.add(40, Weight(1, 0), 5)
    keys = {(g, w) for g, w, _ in [*a.items(), *b.items()]}
    expected = [
        (g, w, a.multiplicity(g, w), b.multiplicity(g, w))
        for g, w in sorted(keys)
        if a.multiplicity(g, w) != b.multiplicity(g, w)
    ]
    assert len(expected) == 5
    assert compare(a, b) == expected
    assert compare(b, a) == [(g, w, mb, ma) for g, w, ma, mb in expected]


def test_compare_reports_differences():
    a = kr_graded_character(Family.U1, 2)
    assert compare(a, a) == []
    b = kr_graded_character(Family.U2, 2)
    diffs = compare(a, b)
    assert diffs
    assert (0, Weight(2, 0), 1, 0) in diffs
    assert (0, Weight(0, 2), 0, 1) in diffs


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("m", range(31))
def test_support_in_translated_root_cone(family, m):
    top = m * family.fundamental
    for grade, weight, mult in kr_graded_character(family, m).items():
        assert mult > 0
        assert in_root_cone(top - weight)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("m", range(31))
def test_grade_zero_is_highest(family, m):
    g = kr_graded_character(family, m)
    assert g.component(0) == {m * family.fundamental: 1}


@pytest.mark.parametrize("m", [0, 3, 6, 9, 12, 30])
def test_u1_top_grade_for_multiples_of_three(m):
    g = kr_graded_character(Family.U1, m)
    top = max(g.grades())
    assert top == m
    assert g.component(top) == {ZERO: 1}
    assert wt_gr(Family.U1, m, (0, m // 3, 0, m // 3)) == (ZERO, m)


def test_expand_weights_masses():
    g = kr_graded_character(Family.U2, 1)
    expanded = expand_weights(g)
    assert [expanded[n].mass() for n in sorted(expanded)] == [14, 1]

    g = kr_graded_character(Family.T2, 1)
    expanded = expand_weights(g)
    assert [expanded[n].mass() for n in sorted(expanded)] == [14, 7, 7, 1]

    assert expand_weights(GradedDecomposition()) == {}


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("m", range(4))
def test_expanded_masses_agree_with_graded_dimensions(family, m):
    # two routes per grade: total Racah mass vs sum of Weyl dimensions
    g = kr_graded_character(family, m)
    expanded = expand_weights(g)
    assert [(n, expanded[n].mass()) for n in sorted(expanded)] == (
        graded_dimensions(g)
    )


@pytest.mark.parametrize(
    "family, m", [(family, m) for family in Family for m in range(13)]
)
def test_expand_weights_matches_character_sums(family, m):
    # dominant parts and orbits against the whole-character ring sum
    for g in (kr_graded_character(family, m),
              conjecture_graded_character(family, m)):
        expected = {}
        for grade in g.grades():
            total = Character()
            for weight, mult in g.component(grade).items():
                total = total + irreducible_character(weight).scaled(mult)
            expected[grade] = total
        expanded = expand_weights(g)
        assert list(expanded) == g.grades()
        assert expanded == expected
        assert all(type(w) is Weight for c in expanded.values()
                   for w in c.support())


def test_expand_weights_rejects_non_dominant_component():
    g = GradedDecomposition()
    g.add(0, Weight(-1, 1))
    with pytest.raises(ValueError,
                       match=r"component \(-1,1\) is not dominant"):
        expand_weights(g)


def test_expand_weights_drops_cancelled_weights():
    # multiplicities of a hand-made decomposition may cancel
    g = GradedDecomposition()
    g.add(0, Weight(1, 0), 1)
    g.add(0, Weight(0, 0), -1)
    g.add(1, Weight(0, 0), 2)
    expanded = expand_weights(g)
    short_roots = irreducible_character(Weight(1, 0)) - Character({ZERO: 1})
    assert expanded[0] == short_roots
    assert ZERO not in expanded[0].support()
    assert expanded[1] == Character({Weight(0, 0): 2})


def test_graded_dimensions():
    assert graded_dimensions(kr_graded_character(Family.U1, 1)) == [(0, 7)]
    assert graded_dimensions(kr_graded_character(Family.U2, 1)) == [
        (0, 14),
        (1, 1),
    ]
    assert graded_dimensions(kr_graded_character(Family.U1, 3)) == [
        (0, 77),
        (1, 41),
        (2, 14),
        (3, 1),
    ]


def test_q_systems_on_dimensions():
    # an oracle from outside the paper: the KR dimensions satisfy the
    # G2^(1) and D4^(3) Q-systems (Kirillov-Reshetikhin 1987; Hatayama,
    # Kuniba, Okado, Takagi, Tsuboi 2002), with S, L, A, B the families
    # U1, U2, T1, T2 and X_0 = 1.  For U2 and T1 it is the only check from
    # outside: `verify conjecture` checks their labels against their cone.
    def dims(family, top):
        graded = (kr_graded_character(family, m) for m in range(top + 1))
        return [sum(d for _, d in graded_dimensions(g)) for g in graded]

    S, L = dims(Family.U1, 24), dims(Family.U2, 9)
    A, B = dims(Family.T1, 10), dims(Family.T2, 10)
    # with X_0 = 1 and the m = 1 dimensions, the systems fix every X_m
    assert (S[:2], L[:2], A[:2], B[:2]) == ([1, 7], [1, 15], [1, 8], [1, 29])
    for m in range(1, 9):
        assert L[m] ** 2 == L[m + 1] * L[m - 1] + S[3 * m], m
    for k in range(8):
        if k:
            assert S[3 * k] ** 2 == S[3 * k + 1] * S[3 * k - 1] + L[k] ** 3, k
        assert (
            S[3 * k + 1] ** 2 == S[3 * k + 2] * S[3 * k] + L[k] ** 2 * L[k + 1]
        ), k
        assert (
            S[3 * k + 2] ** 2
            == S[3 * k + 3] * S[3 * k + 1] + L[k] * L[k + 1] ** 2
        ), k
    for m in range(1, 10):
        assert A[m] ** 2 == A[m + 1] * A[m - 1] + B[m], m
        assert B[m] ** 2 == B[m + 1] * B[m - 1] + A[m] ** 3, m


def test_q_systems_in_the_character_ring():
    # the same six identities on characters: each ungraded KR character
    # in the irreducible basis, multiplied by Brauer-Klimyk over component
    # pairs with one `tensor` per distinct pair.  Unlike dimensions, this
    # sees a component replaced by another of the same dimension.
    def ungraded(family, top):
        out = []
        for m in range(top + 1):
            total = {}
            for _, weight, mult in kr_graded_character(family, m).items():
                total[weight] = total.get(weight, 0) + mult
            out.append(total)
        return out

    @functools.cache
    def tensor_once(lam, mu):
        return tensor(lam, mu)

    def times(*factors):
        product = {ZERO: 1}
        for factor in factors:
            out = {}
            for lam, a in product.items():
                for mu, b in factor.items():
                    for nu, c in tensor_once(*sorted((lam, mu))).items():
                        out[nu] = out.get(nu, 0) + a * b * c
            product = out
        return product

    def plus(x, y):
        out = dict(x)
        for nu, c in y.items():
            out[nu] = out.get(nu, 0) + c
        return {nu: c for nu, c in out.items() if c}

    def failures(S, L, A, B):
        """The (name, index) of each failing X^2 = Y Z + (product)."""
        cases = [
            (("L", m), L[m], (L[m + 1], L[m - 1]), (S[3 * m],))
            for m in range(1, 6)
        ]
        for k in range(5):
            if k:
                cases.append((("S", 3 * k), S[3 * k],
                              (S[3 * k + 1], S[3 * k - 1]), (L[k],) * 3))
            cases.append((("S", 3 * k + 1), S[3 * k + 1],
                          (S[3 * k + 2], S[3 * k]), (L[k], L[k], L[k + 1])))
            cases.append((("S", 3 * k + 2), S[3 * k + 2],
                          (S[3 * k + 3], S[3 * k + 1]),
                          (L[k], L[k + 1], L[k + 1])))
        for m in range(1, 7):
            cases.append((("A", m), A[m], (A[m + 1], A[m - 1]), (B[m],)))
            cases.append((("B", m), B[m], (B[m + 1], B[m - 1]), (A[m],) * 3))
        return [
            name
            for name, x, yz, rest in cases
            if times(x, x) != plus(times(*yz), times(*rest))
        ]

    S, L = ungraded(Family.U1, 15), ungraded(Family.U2, 6)
    A, B = ungraded(Family.T1, 7), ungraded(Family.T2, 7)
    assert failures(S, L, A, B) == []
    # V(0,2) and V(3,0) both have dimension 77: the dimension check cannot
    # tell them apart, the ring can
    assert L[2] == {Weight(0, 2): 1, OMEGA2: 1, ZERO: 1}
    L[2] = {Weight(3, 0): 1, OMEGA2: 1, ZERO: 1}
    assert failures(S, L, A, B) == [
        ("L", 1), ("L", 2), ("L", 3), ("S", 4), ("S", 5), ("S", 6), ("S", 7),
        ("S", 8),
    ]


@given(st.sampled_from(QUAD), st.integers(0, 12))
@settings(deadline=None, max_examples=30)
def test_multiplicities_count_region_points(family, m):
    g = kr_graded_character(family, m)
    counted = {}
    for r in enumerate_region(family, m):
        weight, grade = wt_gr(family, m, r)
        counted[(grade, weight)] = counted.get((grade, weight), 0) + 1
    assert counted == {(g_, w): mult for g_, w, mult in g.items()}


def test_negative_m_rejected():
    with pytest.raises(ValueError):
        kr_graded_character(Family.U1, -1)
    with pytest.raises(ValueError):
        conjecture_graded_character(Family.T2, -2)
    with pytest.raises(ValueError):
        enumerate_region(Family.U1, -1)


@pytest.mark.parametrize("m", [2.0, True, "3", None])
@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("build", [kr_graded_character,
                                   conjecture_graded_character])
def test_non_int_m_rejected(build, family, m):
    with pytest.raises(ValueError, match="m must be an int"):
        build(family, m)
