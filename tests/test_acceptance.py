"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact; the timing bounds are the stated ones.
"""

import time

from g2kr import chevalley
from g2kr.characters import (
    Character,
    _irreducible_character,
    decompose,
    irreducible_character,
    multiply,
    tensor,
    weyl_dim,
)
from g2kr.equivalence import (
    class_size_formula,
    representative,
    verify_partition,
)
from g2kr.kr import (
    _REGIONS,
    Family,
    GradedDecomposition,
    compare,
    conjecture_graded_character,
    enumerate_region,
    kr_graded_character,
    wt_gr,
)
from g2kr.weights import OMEGA1, OMEGA2, SHORT_ROOTS, Weight, in_root_cone

ZERO = Weight(0, 0)
SWEEP = range(31)


def _report(n, text):
    print(f"[PASS] criterion {n:2d}: {text}")


def _keys(family, m):
    # the keys (j, k, s) of the table's labels of positive coefficient
    region = _REGIONS[family]
    return [(j, k, s) for j, k, top in region.labels(m)
            if region.coefficient(m, j, k) > 0 for s in range(top + 1)]


def test_criterion_01_basic_characters():
    _irreducible_character.cache_clear()
    start = time.perf_counter()
    c1 = irreducible_character(OMEGA1)
    c2 = irreducible_character(OMEGA2)
    elapsed = time.perf_counter() - start
    assert c1.mass() == 7
    assert set(c1.support()) == {ZERO} | set(SHORT_ROOTS) | {
        -r for r in SHORT_ROOTS
    }
    assert c2.mass() == 14
    assert c2[ZERO] == 2
    assert elapsed < 1e-3
    _report(1, f"dim V(w1)=7 with weight set 0,+-short; dim V(w2)=14 with "
               f"m0=2 ({elapsed * 1e6:.0f} us)")


def test_criterion_02_dimension_oracle_agreement():
    start = time.perf_counter()
    checked = 0
    for a in range(7):
        for b in range(7 - a):
            lam = Weight(a, b)
            assert irreducible_character(lam).mass() == weyl_dim(lam)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 28
    assert elapsed < 1.0
    _report(2, f"Racah mass == Weyl dimension for all {checked} "
               f"dominant weights with a+b<=6 ({elapsed:.3f} s)")


def test_criterion_03_tensor_fixtures():
    assert tensor(OMEGA1, OMEGA1) == {
        Weight(2, 0): 1,
        OMEGA2: 1,
        OMEGA1: 1,
        ZERO: 1,
    }
    # (V(omega2) + C)^(x2) recombination
    k = irreducible_character(OMEGA2) + Character({ZERO: 1})
    square = decompose(multiply(k, k))
    assert square == {
        Weight(0, 2): 1,
        Weight(3, 0): 1,
        Weight(2, 0): 1,
        OMEGA2: 3,
        ZERO: 2,
    }
    total = sum(m * weyl_dim(w) for w, m in square.items())
    assert total == 225 == 15 * 15
    _report(3, "V(w1)^2 and (V(w2)+C)^2 decompose as fixed, total dim 225")


def test_criterion_04_small_kr_fixtures():
    expected = {
        (Family.U1, 1): [(0, OMEGA1, 1)],
        (Family.U1, 2): [(0, Weight(2, 0), 1), (1, OMEGA1, 1)],
        (Family.U1, 3): [
            (0, Weight(3, 0), 1),
            (1, OMEGA2, 1),
            (1, Weight(2, 0), 1),
            (2, OMEGA2, 1),
            (3, ZERO, 1),
        ],
        (Family.U2, 1): [(0, OMEGA2, 1), (1, ZERO, 1)],
    }
    for (family, m), triples in expected.items():
        want = GradedDecomposition()
        for grade, weight, mult in triples:
            want.add(grade, weight, mult)
        assert kr_graded_character(family, m) == want
    _report(4, "U1 m=1,2,3 and U2 m=1 graded characters equal the fixtures")


def test_criterion_05_conjecture_equivalence_sweep():
    start = time.perf_counter()
    negatives = []
    for family in Family:
        for m in SWEEP:
            diffs = compare(
                kr_graded_character(family, m),
                conjecture_graded_character(family, m, negatives),
            )
            assert diffs == [], (family, m, diffs)
    elapsed = time.perf_counter() - start
    assert negatives == []
    assert elapsed < 10.0
    _report(5, f"theorem == conjecture for all 4 families, m<=30; no "
               f"pre-clamp negatives ({elapsed:.2f} s)")


def test_criterion_06_partition_sweep():
    for family in (Family.U1, Family.T2):
        for m in SWEEP:
            assert verify_partition(family, m) == [], (family, m)
            total = sum(
                class_size_formula(family, m, j, k, s)
                for j, k, s in _keys(family, m)
            )
            assert total == len(enumerate_region(family, m)), (family, m)
    _report(6, "representative classes partition both regions for m<=30, "
               "class sizes sum to the region size")


def test_criterion_07_two_route_equality():
    for family in (Family.U1, Family.T2):
        for m in SWEEP:
            rebuilt = GradedDecomposition()
            for key in _keys(family, m):
                weight, grade = wt_gr(family, m,
                                      representative(family, m, *key))
                rebuilt.add(grade, weight,
                            class_size_formula(family, m, *key))
            assert rebuilt == conjecture_graded_character(family, m), (
                family, m)
    _report(7, "representatives x class sizes rebuild the graded character "
               "exactly for m<=30")


def test_criterion_08_support_invariant():
    for family in Family:
        for m in SWEEP:
            top = m * family.fundamental
            for grade, weight, mult in kr_graded_character(family, m).items():
                assert mult > 0
                assert in_root_cone(top - weight), (family, m, grade, weight)
    _report(8, "every component weight lies in m*w_i - Q+ for all families, "
               "m<=30")


def test_criterion_09_chevalley_suite():
    start = time.perf_counter()
    assert chevalley.verify_structure() == []
    assert chevalley.verify_killing() == []
    assert chevalley.verify_all()["adjoint-weights"] == []
    assert chevalley.verify_kr1_relations() == []
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(9, f"Jacobi on 364 triples i<j<k, Killing root lengths and "
               f"nondegeneracy, adjoint weights = ch V(w2), module relations "
               f"({elapsed:.2f} s)")


def test_criterion_10_ladder_property():
    for family in (Family.U2, Family.T1):
        fund = family.fundamental
        for m in SWEEP:
            g = kr_graded_character(family, m)
            assert g.grades() == list(range(m + 1))
            for n in g.grades():
                assert g.component(n) == {(m - n) * fund: 1}, (family, m, n)
    _report(10, "U2 and T1 carry exactly {(m-n)*w_i: 1} at grade n for m<=30")
