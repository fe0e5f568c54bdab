import io
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from math import gcd

import pytest

from g2kr import chevalley
from g2kr.characters import irreducible_character
from g2kr.cli import main
from g2kr.chevalley import (
    DIM,
    H1,
    H2,
    HIGHEST,
    K_ZERO,
    X_MINUS,
    X_PLUS,
    ZERO14,
    BASIS_NAMES,
    BASIS_WEIGHTS,
    BracketTable,
    basis_vector,
    bracket,
    build_bracket_table,
    cartan,
    killing_form,
    kr1_action,
    kr1_highest_vector,
    verify_all,
    verify_killing,
    verify_kr1_relations,
    verify_structure,
    x_minus,
    x_plus,
)
from g2kr.weights import (
    ALL_ROOTS,
    OMEGA2,
    POSITIVE_ROOTS,
    Weight,
    pairing,
    simple_reflection,
)


def vec_of(index, coeff=1):
    return tuple(coeff if k == index else 0 for k in range(DIM))


def test_simple_sl2_triples():
    # [x+_{alpha_i}, x-_{alpha_i}] = h_i
    assert bracket(x_plus(0), x_minus(0)) == vec_of(H1)
    assert bracket(x_plus(1), x_minus(1)) == vec_of(H2)


def test_bracket_of_simple_root_vectors():
    # alpha1-string through alpha2 has length 4, so the constant is +-1
    out = bracket(x_plus(0), x_plus(1))
    assert out == vec_of(X_PLUS[2]) or out == vec_of(X_PLUS[2], -1)
    assert any(out)


def test_cartan_eigenvalue_on_short_simple():
    # alpha1 = 2*omega1 - omega2, so alpha1(h2) = -1
    assert bracket(cartan(2), x_plus(0)) == vec_of(X_PLUS[0], -1)
    assert bracket(cartan(2), x_plus(1)) == vec_of(X_PLUS[1], 2)
    assert bracket(cartan(1), x_plus(0)) == vec_of(X_PLUS[0], 2)


def test_structure_constant_magnitudes_from_root_strings():
    # oracle: |N_{alpha,beta}| = p+1 with p the largest k such that
    # beta - k*alpha is a root
    t = build_bracket_table()
    roots = set(ALL_ROOTS)
    for i in list(X_PLUS) + list(X_MINUS):
        for j in list(X_PLUS) + list(X_MINUS):
            alpha, beta = BASIS_WEIGHTS[i], BASIS_WEIGHTS[j]
            gamma = alpha + beta
            if gamma not in roots:
                continue
            p = 0
            while beta - (p + 1) * alpha in roots:
                p += 1
            constants = [c for _, c in t.rows[i][j]]
            assert len(constants) == 1
            assert abs(constants[0]) == p + 1


def test_structure_verification_is_clean():
    assert verify_structure() == []


def test_antisymmetry_and_jacobi_spot():
    x, y, z = x_plus(2), x_minus(3), cartan(1)
    assert bracket(x, y) == tuple(-v for v in bracket(y, x))
    jac = [
        bracket(bracket(x, y), z),
        bracket(bracket(y, z), x),
        bracket(bracket(z, x), y),
    ]
    assert tuple(sum(c) for c in zip(*jac)) == ZERO14


def test_killing_fixtures():
    assert killing_form(cartan(1), x_plus(0)) == 0
    # different root spaces pair to zero
    assert killing_form(x_plus(0), x_minus(1)) == 0
    assert killing_form(x_plus(2), x_minus(3)) == 0
    short = [
        killing_form(x_plus(i), x_minus(i))
        for i, r in enumerate(POSITIVE_ROOTS)
        if not r.long
    ]
    assert len(set(short)) == 1 and short[0] != 0
    # invariance spot check: <[x,y],z> = <x,[y,z]>
    x, y, z = x_plus(0), x_minus(2), x_plus(2)
    assert killing_form(bracket(x, y), z) == killing_form(x, bracket(y, z))


def test_killing_verification_is_clean():
    assert verify_killing() == []


def _dense_ad(rows, i):
    """ad b_i as a dense 14x14 integer matrix: entry (k, l) is the b_k
    coefficient of [b_i, b_l]."""
    ad = [[0] * DIM for _ in range(DIM)]
    for l in range(DIM):
        for k, c in rows[i][l]:
            ad[k][l] += c
    return ad


def test_trace_form_is_the_trace_of_dense_ad_products():
    # the oracle of `_trace_form`: tr(ad_i . ad_j) from dense matrices, on
    # the real table and on 30 seeded fault tables (one to three constants
    # added anywhere, no partner: the form is a trace for any rows), 23 of
    # which change the form
    good = build_bracket_table()
    assert good.killing == chevalley._trace_form(good.rows)
    tables = [good.rows]
    rng = random.Random(3)
    for _ in range(30):
        rows = [list(row) for row in good.rows]
        for _ in range(rng.randint(1, 3)):
            i, j, k = (rng.randrange(DIM) for _ in range(3))
            cell = dict(rows[i][j])
            cell[k] = cell.get(k, 0) + rng.choice((-2, -1, 1, 2))
            rows[i][j] = tuple(kc for kc in sorted(cell.items()) if kc[1])
        tables.append(rows)
    changed = 0
    for rows in tables:
        ad = [_dense_ad(rows, i) for i in range(DIM)]
        dense = tuple(
            tuple(
                sum(ad[i][k][l] * ad[j][l][k]
                    for k in range(DIM) for l in range(DIM))
                for j in range(DIM)
            )
            for i in range(DIM)
        )
        assert chevalley._trace_form(rows) == dense
        assert dense == tuple(zip(*dense))  # tr(AB) = tr(BA)
        changed += dense != good.killing
    assert changed == 23


def _adjoint_weights() -> list[Weight]:
    """Weights of the basis under ad(h1), ad(h2).

    Raises ArithmeticError if a basis vector is not an eigenvector.  The
    table's own weights: the oracle of the `adjoint-weights` check, which
    takes BASIS_WEIGHTS since the eigenvalue check of `verify_structure`
    pins these cells.
    """
    rows, names = chevalley.build_bracket_table().rows, BASIS_NAMES
    out = []
    for j in range(DIM):
        coeffs = []
        for hidx in (H1, H2):
            cell = rows[hidx][j]
            if any(c for k, c in cell if k != j):
                raise ArithmeticError(
                    f"{names[j]} is not an ad({names[hidx]}) eigenvector"
                )
            coeffs.append(dict(cell).get(j, 0))
        out.append(Weight(coeffs[0], coeffs[1]))
    return out


def test_adjoint_weights_match_adjoint_character():
    assert _adjoint_weights() == list(BASIS_WEIGHTS)
    counted = Counter(_adjoint_weights())
    assert counted == dict(irreducible_character(OMEGA2).items())
    assert counted[Weight(0, 0)] == 2
    assert verify_all()["adjoint-weights"] == []


def test_kr1_action_formula():
    y = basis_vector(3)
    v = (y, 5)
    x = x_plus(0)
    assert kr1_action(x, 0, v) == (bracket(x, y), 0)
    assert kr1_action(x, 1, v) == (ZERO14, killing_form(x, y))
    assert kr1_action(x, 2, v) == K_ZERO
    assert kr1_action(x, 7, v) == K_ZERO
    # on every pair of basis elements, and on a sum with a grade-one part
    for i in range(DIM):
        x = basis_vector(i)
        for j in range(DIM):
            y = basis_vector(j)
            assert kr1_action(x, 0, (y, 0)) == (bracket(x, y), 0)
            assert kr1_action(x, 1, (y, 0)) == (ZERO14, killing_form(x, y))
        y = tuple(range(DIM))
        assert kr1_action(x, 0, (y, 3)) == (bracket(x, y), 0)
        assert kr1_action(x, 1, (y, 3)) == (ZERO14, killing_form(x, y))


def test_highest_vector_is_highest_root_vector():
    y, a = kr1_highest_vector()
    assert y == basis_vector(X_PLUS[HIGHEST])
    assert a == 0
    # its weight is omega2
    assert bracket(cartan(1), y) == tuple(pairing(OMEGA2, 1) * c for c in y)
    assert bracket(cartan(2), y) == tuple(pairing(OMEGA2, 2) * c for c in y)


def test_grade_one_generator():
    v = kr1_highest_vector()
    top = kr1_action(x_minus(HIGHEST), 1, v)
    assert top != K_ZERO
    assert top[0] == ZERO14  # lands in the grade-one line
    for i in range(6):
        assert kr1_action(x_plus(i), 0, top) == K_ZERO


def test_kr1_relations_report_empty():
    assert verify_kr1_relations() == []


def test_lowering_powers_annihilate_highest_vector():
    # (x-_alpha)^{w2(h_alpha)+1} kills the cyclic vector, for every
    # positive root alpha
    from g2kr.weights import coroot_coefficients

    for idx, (root, _) in enumerate(POSITIVE_ROOTS):
        c1, c2 = coroot_coefficients(root)
        power = pairing(OMEGA2, 1) * c1 + pairing(OMEGA2, 2) * c2
        w = kr1_highest_vector()
        for _ in range(power):
            w = kr1_action(x_minus(idx), 0, w)
        assert w != K_ZERO, root  # the string really has that length
        assert kr1_action(x_minus(idx), 0, w) == K_ZERO, root


def test_grade_masses_match_ladder_character():
    # the module splits as a 14-dimensional grade-0 piece (the adjoint
    # copy, spanned by the basis) and a one-dimensional grade-1 line
    from g2kr.kr import Family, expand_weights, kr_graded_character

    expanded = expand_weights(kr_graded_character(Family.U2, 1))
    assert [expanded[n].mass() for n in sorted(expanded)] == [DIM, 1]


def _use_table(monkeypatch, rows, killing=None):
    """Serve rows as the table, with the given Killing matrix or, as the
    product would compute it, the trace form of rows."""
    rows = tuple(map(tuple, rows))
    if killing is None:
        killing = chevalley._trace_form(rows)
    table = BracketTable(rows, tuple(map(tuple, killing)))
    monkeypatch.setattr(chevalley, "build_bracket_table", lambda: table)


def _scaled_rows(factor, *cells):
    """The good table's sparse rows with the brackets at cells scaled."""
    rows = [list(row) for row in build_bracket_table().rows]
    for i, j in cells:
        rows[i][j] = tuple((k, factor * c) for k, c in rows[i][j])
    return rows


def _module_axiom_failures():
    """The current-algebra module axiom, checked on K by sparse columns.

    [x (x) t^p, y (x) t^q] = [x,y] (x) t^{p+q} as operators, on all 15
    basis vectors of K and all depths p+q <= 2.  With `kr1_action` as
    defined this is antisymmetry + Jacobi (p = q = 0) and antisymmetry +
    Killing invariance (p + q = 1) again, and invariance of a trace form
    follows from antisymmetry and Jacobi, so it is the oracle of
    `verify_structure` rather than a check of the library.
    """
    t = chevalley.build_bracket_table()
    failures = []
    # action[p][i][w] lists the nonzero (u, c) of (b_i (x) t^p) applied to
    # basis vector w of K (w < DIM: the adjoint copy; w = DIM: the line C):
    # `kr1_action`'s formula as sparse columns, for p = 0, 1, 2.
    action = (
        tuple(row + ((),) for row in t.rows),
        tuple(
            tuple(((DIM, c),) if c else () for c in krow) + ((),)
            for krow in t.killing
        ),
        (((),) * (DIM + 1),) * DIM,
    )
    for i in range(DIM):
        for j in range(DIM):
            z = t.rows[i][j]
            for p in range(3):
                for q in range(3 - p):
                    xi, xj = action[p][i], action[q][j]
                    zpq = action[p + q]
                    for w in range(DIM + 1):
                        # x_i x_j w - x_j x_i w - [x_i, x_j] w
                        diff = [0] * (DIM + 1)
                        for u, c in xj[w]:
                            for e, d in xi[u]:
                                diff[e] += c * d
                        for u, c in xi[w]:
                            for e, d in xj[u]:
                                diff[e] -= c * d
                        for l, c in z:
                            for e, d in zpq[l][w]:
                                diff[e] -= c * d
                        if any(diff):
                            failures.append(
                                "module axiom fails at "
                                f"({BASIS_NAMES[i]} (x) t^{p}, "
                                f"{BASIS_NAMES[j]} (x) t^{q})"
                            )
    return failures


def _implied_failures():
    """The grading, weight orthogonality and relations (i)-(v) of K.

    Given antisymmetry and the Cartan eigenvalues, Jacobi at (h, b_j, b_k)
    is the root-space grading and Killing invariance at (h, b_j, b_k) is
    weight orthogonality (see the `chevalley` module docstring).  Each
    relation at the highest vector v is one entry of those two or of the
    eigenvalue check: (i) x+ (x) t^0 and t^1 kill v, (ii) h1, h2 (x) t^0
    and t^1 act by omega2 and 0, (iii) x-_{a1} kills v, (iv) so does
    (x-_{a2})^2 and (v) x-_{a2} (x) t.  Invariance of a trace form follows
    from antisymmetry and Jacobi, so this is the oracle of
    `verify_structure`, not a check of the library.
    """
    t = chevalley.build_bracket_table()
    rows, kil, names = t.rows, t.killing, BASIS_NAMES
    failures = []
    for i in range(DIM):
        for j in range(DIM):
            delta = BASIS_WEIGHTS[i] + BASIS_WEIGHTS[j]
            for k, c in rows[i][j]:
                if c and BASIS_WEIGHTS[k] != delta:
                    failures.append(
                        f"grading fails at ({names[i]}, {names[j]})"
                    )
            if kil[i][j] and delta != Weight(0, 0):
                failures.append(
                    f"<{names[i]}, {names[j]}> nonzero across weight spaces"
                )

    v = chevalley.kr1_highest_vector()
    for idx, (root, _) in enumerate(POSITIVE_ROOTS):
        for power in range(2):
            if kr1_action(x_plus(idx), power, v) != K_ZERO:
                failures.append(
                    f"(x+{chevalley._root_label(root)} (x) t^{power}) "
                    "does not annihilate the highest vector"
                )
    for hi in (1, 2):
        c = pairing(OMEGA2, hi)
        scaled = (tuple(c * y for y in v[0]), c * v[1])
        for power, want in enumerate((scaled, K_ZERO)):
            if kr1_action(cartan(hi), power, v) != want:
                failures.append(
                    f"(h{hi} (x) t^{power}) acts with the wrong eigenvalue"
                )
    if kr1_action(x_minus(0), 0, v) != K_ZERO:
        failures.append("x-_{a1} does not annihilate the highest vector")
    w1 = kr1_action(x_minus(1), 0, v)
    if kr1_action(x_minus(1), 0, w1) != K_ZERO:
        failures.append("(x-_{a2})^2 does not annihilate the highest vector")
    if kr1_action(x_minus(1), 1, v) != K_ZERO:
        failures.append("(x-_{a2} (x) t) does not annihilate the highest vector")
    return failures


def _ordered_failures():
    """Antisymmetry on every ordered pair and Jacobi on every ordered
    triple of basis elements: the oracle of `verify_structure`, which
    checks each of these identities once."""
    rows, names = chevalley.build_bracket_table().rows, BASIS_NAMES
    failures = []
    for i in range(DIM):
        for j in range(DIM):
            if rows[i][j] != tuple((k, -c) for k, c in rows[j][i]):
                failures.append(
                    f"antisymmetry fails at ({names[i]}, {names[j]})"
                )
    # Jacobi identity on every ordered triple of basis elements.
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                total = [0] * DIM
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    # += [[b_x, b_y], b_z]
                    for l, c in rows[x][y]:
                        for u, d in rows[l][z]:
                            total[u] += c * d
                if any(total):
                    failures.append(
                        "Jacobi fails at "
                        f"({names[i]}, {names[j]}, {names[k]})"
                    )
    return failures


def _identity_lines(failures):
    """(antisymmetry lines, Jacobi lines) of a list of failures."""
    return tuple(
        [f for f in failures if f.startswith(kind)]
        for kind in ("antisymmetry", "Jacobi")
    )


def _unordered(lines):
    """The set of unordered name pairs of antisymmetry lines."""
    return {frozenset(f[f.index("(") + 1:-1].split(", ")) for f in lines}


def test_each_identity_once_agrees_with_ordered_oracle(monkeypatch):
    # seeded tables: the real one with a random set of basis vectors
    # negated (still a Lie algebra), then in 4 of 5 cases a constant added
    # at (i, j, k), with or without its antisymmetric partner, and every
    # fifth fault at a diagonal cell (no partner there); `verify_structure`
    # has antisymmetry or Jacobi lines exactly when the ordered oracle
    # does, names the same unordered pairs, prints only lines the oracle
    # prints and, on an antisymmetric table, fails Jacobi exactly when the
    # oracle does
    assert _ordered_failures() == []
    good = build_bracket_table()
    rng = random.Random(4)
    kinds = {"clean": 0, "jacobi-only": 0, "antisymmetry": 0, "diagonal": 0}
    for n in range(320):
        sign = [rng.choice((-1, 1)) for _ in range(DIM)]
        rows = [
            [tuple((k, sign[i] * sign[j] * sign[k] * c) for k, c in cell)
             for j, cell in enumerate(row)]
            for i, row in enumerate(good.rows)
        ]
        fault = None
        if n % 5:
            i, j, k = (rng.randrange(DIM) for _ in range(3))
            if n % 5 == 1:
                j = i
            delta = rng.choice((-2, -1, 1, 2))
            partner = i != j and rng.random() < 0.5
            fault = (i, j, k, delta, partner)
            for a, b, d in ((i, j, delta), (j, i, -delta))[:1 + partner]:
                cell = dict(rows[a][b])
                cell[k] = cell.get(k, 0) + d
                rows[a][b] = tuple(kc for kc in sorted(cell.items()) if kc[1])
        _use_table(monkeypatch, rows)
        oracle = _ordered_failures()
        anti, jacobi = _identity_lines(verify_structure())
        oracle_anti, oracle_jacobi = _identity_lines(oracle)
        assert bool(anti or jacobi) == bool(oracle), fault
        assert _unordered(anti) == _unordered(oracle_anti), fault
        assert set(anti + jacobi) <= set(oracle), fault
        if not anti:
            assert bool(jacobi) == bool(oracle_jacobi), fault
        if not oracle:
            kinds["clean"] += 1
        elif anti:
            kinds["antisymmetry"] += 1
            kinds["diagonal"] += fault[0] == fault[1]
        else:
            kinds["jacobi-only"] += 1
    # the clean tables are the 64 unfaulted ones; 78 faults sit at a
    # diagonal cell
    assert kinds == {"clean": 64, "jacobi-only": 90, "antisymmetry": 166,
                     "diagonal": 78}


def _failed_entries():
    """The `chevalley-*` entries that `g2kr verify chevalley` fails; it
    must exit 1."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["verify", "chevalley", "--format", "json"]) == 1
    checks = json.loads(out.getvalue())["checks"]
    return {e["check"] for e in checks if not e["ok"]}


def _failure_counts():
    """Failures per `verify_all()` check, and the two oracles'.

    Every fault table here must also fail `g2kr verify chevalley`, at the
    entries of the checks that have failures.
    """
    counts = {name: len(failures) for name, failures in verify_all().items()}
    failing = {f"chevalley-{name}" for name, c in counts.items() if c}
    assert _failed_entries() == failing
    counts["module-axiom"] = len(_module_axiom_failures())
    counts["implied"] = len(_implied_failures())
    return counts


def test_module_axiom_is_implied_by_jacobi(monkeypatch):
    # the oracle is clean on the real table; on a seeded sample of faults
    # that keep the root-space grading (one structure constant moved, with
    # or without its antisymmetric partner, and the Killing form the trace
    # of the faulted rows), every fault it flags is flagged by
    # `verify_structure` alone
    assert _module_axiom_failures() == []
    good = build_bracket_table()
    cells = [(i, j) for i in range(DIM) for j in range(DIM) if good.rows[i][j]]
    rng = random.Random(1)
    flagged = 0
    for _ in range(150):
        rows = [list(row) for row in good.rows]
        delta = rng.choice((-2, -1, 1, 2))
        partner = rng.random() < 0.5
        i, j = fault = rng.choice(cells)
        k = rng.choice(good.rows[i][j])[0]
        for a, b, d in ((i, j, delta), (j, i, -delta))[:1 + partner]:
            cell = dict(rows[a][b])
            cell[k] += d
            rows[a][b] = tuple(kc for kc in sorted(cell.items()) if kc[1])
        _use_table(monkeypatch, rows)
        if _module_axiom_failures():
            flagged += 1
            assert verify_structure(), (fault, delta)
    assert flagged == 150


def test_grading_and_orthogonality_are_implied(monkeypatch):
    # the oracle is clean on the real table; on a seeded sample of faults
    # that may break the grading or orthogonality (a constant added at any
    # (i, j, k), or an existing constant moved to another k, each with or
    # without its antisymmetric partner, and the Killing form the trace of
    # the faulted rows), every fault it flags is flagged by
    # `verify_structure` alone
    assert _implied_failures() == []
    good = build_bracket_table()
    cells = [(i, j) for i in range(DIM) for j in range(DIM) if good.rows[i][j]]
    rng = random.Random(1)
    flagged = 0
    for _ in range(300):
        rows = [list(row) for row in good.rows]
        delta = rng.choice((-2, -1, 1, 2))
        partner = rng.random() < 0.5
        if rng.random() < 0.5:  # an existing constant moved to another k
            i, j = rng.choice(cells)
            k, c = rng.choice(good.rows[i][j])
            moves = ((k, -c), (rng.randrange(DIM), c))
        else:  # a constant added at (i, j, k)
            i, j = rng.randrange(DIM), rng.randrange(DIM)
            moves = ((rng.randrange(DIM), delta),)
        fault = (i, j, delta, moves)
        for a, b, sign in ((i, j, 1), (j, i, -1))[:1 + partner]:
            cell = dict(rows[a][b])
            for k, d in moves:
                cell[k] = cell.get(k, 0) + sign * d
            rows[a][b] = tuple(kc for kc in sorted(cell.items()) if kc[1])
        _use_table(monkeypatch, rows)
        if _implied_failures():
            flagged += 1
            assert verify_structure(), fault
    assert flagged == 268


def test_eigenvalue_check_pins_the_table_weights(monkeypatch):
    # seeded faults, every fourth in the h1 or h2 row: a constant changed
    # (added at k = j in an empty cell), moved to another k, or the cell
    # zeroed, each with or without its antisymmetric partner; whenever the
    # table-reading oracle raises or its weights differ from ch V(omega2),
    # `verify_structure` has an eigenvalue line, and without one the
    # oracle's weights are BASIS_WEIGHTS
    good = build_bracket_table()
    adjoint = Counter(dict(irreducible_character(OMEGA2).items()))
    rng = random.Random(5)
    kinds = Counter()
    for n in range(240):
        rows = [list(row) for row in good.rows]
        i = rng.choice((H1, H2)) if n % 4 == 0 else rng.randrange(DIM)
        change = rng.choice(("value", "move", "zero"))
        if change == "value":
            j = rng.randrange(DIM)
        else:
            j = rng.choice([j for j in range(DIM) if good.rows[i][j]])
        cell = dict(rows[i][j])
        if change == "value":
            k = rng.choice(sorted(cell)) if cell else j
            cell[k] = cell.get(k, 0) + rng.choice((-2, -1, 1, 2))
        elif change == "move":
            k = rng.choice(sorted(cell))
            to = rng.choice([u for u in range(DIM) if u != k])
            cell[to] = cell.get(to, 0) + cell.pop(k)
        else:
            cell = {}
        rows[i][j] = tuple(kc for kc in sorted(cell.items()) if kc[1])
        partner = i != j and rng.random() < 0.5
        if partner:
            rows[j][i] = tuple((k, -c) for k, c in rows[i][j])
        fault = (i, j, change, partner, rows[i][j])
        _use_table(monkeypatch, rows)
        try:
            weights = _adjoint_weights()
        except ArithmeticError:
            weights = None
        eigenvalue = [f for f in verify_structure() if "eigenvalue" in f]
        if weights is None or Counter(weights) != adjoint:
            assert eigenvalue, fault
        if not eigenvalue:
            assert weights == list(BASIS_WEIGHTS), fault
        kinds["h row"] += i in (H1, H2) or (partner and j in (H1, H2))
        kinds["raises" if weights is None
              else "differs" if Counter(weights) != adjoint
              else "permuted" if weights != list(BASIS_WEIGHTS)
              else "same"] += 1
    # each of the 97 faults that touch an h row makes the oracle raise or
    # differ: a check that read the weights back would fail all of them
    assert kinds == {"h row": 97, "raises": 42, "differs": 55, "same": 143}


def test_doubled_structure_constant_is_caught(monkeypatch):
    # [x+a1, x+a2] and its antisymmetric partner doubled
    i, j = X_PLUS[0], X_PLUS[1]
    _use_table(monkeypatch, _scaled_rows(2, (i, j), (j, i)))
    assert _failure_counts() == {
        "structure": 11,
        "killing": 2,
        "kr-relations": 0,
        "adjoint-weights": 0,
        "module-axiom": 162,
        "implied": 0,
    }
    assert verify_structure()[0].startswith("Jacobi fails at (x+[1,0], x+[0,1],")
    assert any(
        f.startswith("module axiom fails") for f in _module_axiom_failures()
    )


def test_flipped_cartan_bracket_is_caught(monkeypatch):
    # [h1, x+a1] and its antisymmetric partner negated
    _use_table(monkeypatch, _scaled_rows(-1, (H1, X_PLUS[0]), (X_PLUS[0], H1)))
    assert _failure_counts() == {
        "structure": 15,
        "killing": 1,
        "kr-relations": 0,
        "adjoint-weights": 0,
        "module-axiom": 216,
        "implied": 0,
    }
    assert verify_structure()[:2] == [
        "[h1, x+[1,0]] has wrong eigenvalue",
        "Jacobi fails at (x+[1,0], x+[0,1], h1)",
    ]


def test_non_eigenvector_is_reported_not_raised(monkeypatch, capsys):
    # [h1, x+a1] = 2*x+a2 and its antisymmetric partner: the table-reading
    # oracle raises, and `verify chevalley` reports the fault through the
    # eigenvalue check of `structure` (exit 1), not `adjoint-weights`
    rows = [list(row) for row in build_bracket_table().rows]
    rows[H1][X_PLUS[0]] = ((X_PLUS[1], 2),)
    rows[X_PLUS[0]][H1] = ((X_PLUS[1], -2),)
    _use_table(monkeypatch, rows)
    with pytest.raises(ArithmeticError, match="not an ad"):
        _adjoint_weights()
    assert _failure_counts() == {
        "structure": 19,
        "killing": 1,
        "kr-relations": 0,
        "adjoint-weights": 0,
        "module-axiom": 236,
        "implied": 2,
    }
    assert verify_structure()[0] == "[h1, x+[1,0]] has wrong eigenvalue"
    # the bad cell breaks the grading too; `structure` reports that through
    # the eigenvalue check and Jacobi, not as grading lines of its own
    assert _implied_failures() == [
        "grading fails at (x+[1,0], h1)",
        "grading fails at (h1, x+[1,0])",
    ]
    assert main(["verify", "chevalley", "--format", "json"]) == 1
    entries = json.loads(capsys.readouterr().out)["checks"]
    assert {"check": "chevalley-adjoint-weights", "ok": True} in entries
    structure, = (e for e in entries if e["check"] == "chevalley-structure")
    assert not structure["ok"]
    assert structure["failures"][0] == "[h1, x+[1,0]] has wrong eigenvalue"


def test_tripled_coroot_bracket_is_caught(monkeypatch):
    # [x+g, x-g] for g = a1+a2 and its antisymmetric partner tripled
    i, j = X_PLUS[2], X_MINUS[2]
    _use_table(monkeypatch, _scaled_rows(3, (i, j), (j, i)))
    assert _failure_counts() == {
        "structure": 15,
        "killing": 1,
        "kr-relations": 0,
        "adjoint-weights": 0,
        "module-axiom": 148,
        "implied": 0,
    }
    assert verify_structure()[:2] == [
        "[x+[1,1], x-[1,1]] is not the coroot",
        "Jacobi fails at (x+[1,0], x+[0,1], x-[1,1])",
    ]
    # the Killing form, the trace of these rows, sees the fault too
    assert verify_killing() == [
        "<x+, x-> not a single nonzero value on short roots"
    ]


def test_altered_killing_entry_is_caught(monkeypatch):
    # `verify_killing` on a given matrix, not the trace form of the rows
    good = build_bracket_table()
    killing = [list(row) for row in good.killing]
    killing[X_PLUS[0]][X_MINUS[0]] += 1
    _use_table(monkeypatch, good.rows, killing)
    assert verify_killing() == [
        "<x+, x-> not a single nonzero value on short roots"
    ]
    assert _failed_entries() == {"chevalley-killing"}


def test_zero_killing_row_is_degenerate(monkeypatch):
    # `verify_killing` on a given matrix, not the trace form of the rows
    good = build_bracket_table()
    killing = [list(row) for row in good.killing]
    killing[X_PLUS[3]] = [0] * DIM
    _use_table(monkeypatch, good.rows, killing)
    assert verify_killing() == [
        "<x+, x-> not a single nonzero value on short roots",
        "killing form is degenerate",
    ]
    assert _failed_entries() == {"chevalley-killing"}


def test_zero_highest_vector_spans_nothing(monkeypatch):
    monkeypatch.setattr(chevalley, "kr1_highest_vector", lambda: K_ZERO)
    assert verify_kr1_relations() == [
        "(x-_{theta} (x) t) kills the highest vector",
        "degree-zero span of the highest vector has dimension 0, expected 14",
    ]
    assert _failed_entries() == {"chevalley-kr-relations"}


def test_wrong_adjoint_character_fails_only_adjoint_weights(monkeypatch):
    # ch V(omega2) served with its zero weight at multiplicity 1: the table
    # is sound, and only the comparison of BASIS_WEIGHTS with the character
    # sees the fault
    from g2kr import characters

    real = characters.irreducible_character

    def faulty(lam):
        terms = dict(real(lam).items())
        if lam == OMEGA2:
            terms[Weight(0, 0)] = 1
        return characters.Character(terms)

    monkeypatch.setattr(characters, "irreducible_character", faulty)
    assert _failed_entries() == {"chevalley-adjoint-weights"}
    failure, = verify_all()["adjoint-weights"]
    assert failure.startswith("adjoint weights {")
    assert "Weight(a=0, b=0): 2" in failure
    assert failure.endswith("} differ from ch V(omega2)")


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([], 0),
        ([[0, 0, 0]], 0),
        ([[2, 4, 6], [3, 6, 9], [1, 0, 1]], 2),
        ([[0, 3, 6], [2, 4, 6], [4, 2, 0]], 2),
        ([[2, 1, 0], [0, 3, 1], [6, 0, 5]], 3),
        ([[6, 10], [15, 25], [9, 15]], 1),
    ],
)
def test_rank_by_integer_elimination(rows, rank):
    pivots = {}
    for row in rows:
        chevalley._reduce_into(row, pivots)
    assert len(pivots) == chevalley._rank(rows) == rank
    earlier = []
    for p, row in pivots.items():
        # a primitive integer row, led by its pivot, zero at earlier pivots
        assert all(type(x) is int for x in row) and gcd(*row) == 1
        assert row[p] and not any(row[:p])
        assert [row[q] for q in earlier] == [0] * len(earlier)
        earlier.append(p)


def test_rank_of_the_killing_form():
    killing = build_bracket_table().killing
    assert chevalley._rank(killing) == DIM
    assert chevalley._rank(killing[:-1] + killing[:1]) == DIM - 1


def test_construction_failures_raise_arithmetic_error():
    # explicit exceptions, so that python -O keeps these checks
    with pytest.raises(ArithmeticError, match="non-exact division"):
        chevalley._exact_div({(0, 0): 2, (0, 1): 3}, 2)
    base = {(0, 1): 1, (2, 3): 2}
    with pytest.raises(ArithmeticError, match="non-integer"):
        chevalley._ratio(
            {ij: 3 * x for ij, x in base.items()},
            {ij: 2 * x for ij, x in base.items()},
        )
    skewed = {**base, (2, 3): 5}
    with pytest.raises(ArithmeticError, match="not proportional"):
        chevalley._ratio(skewed, base)
    with pytest.raises(ArithmeticError, match="zero root vector"):
        chevalley._ratio(base, {})


@pytest.mark.parametrize(
    "index, moved, message",
    [
        # [x+a1, x-a1] becomes [x+a1, x+a2]: off the Cartan subalgebra
        (X_MINUS[0], X_PLUS[1], "bad Cartan bracket"),
        # [x+a1, x+theta] becomes [x+a1, x+a2], of weight 4a1+2a2
        (X_PLUS[HIGHEST], X_PLUS[1], "bracket off lattice"),
    ],
    ids=["cartan", "lattice"],
)
def test_extraction_rejects_a_misplaced_matrix(monkeypatch, index, moved,
                                               message):
    # one basis matrix replaced by another: the table cannot be extracted
    matrices = chevalley._build_representation()
    matrices[index] = matrices[moved]
    monkeypatch.setattr(chevalley, "_build_representation", lambda: matrices)
    with pytest.raises(ArithmeticError, match=message):
        build_bracket_table.__wrapped__()


def test_cartan_index_out_of_range():
    with pytest.raises(ValueError, match="must be 1 or 2, got 3"):
        cartan(3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: basis_vector(14), r"basis index i must be .*, got 14"),
        (lambda: basis_vector(-1), r"basis index i must be .*, got -1"),
        (lambda: basis_vector(True), "basis index i .*, got True"),
        (lambda: x_plus(-1), r"root_index must be an int in 0\.\.5, got -1"),
        (lambda: x_plus(6), r"root_index must be an int in 0\.\.5, got 6"),
        (lambda: x_minus(True), "root_index .*, got True"),
        (lambda: cartan(True), "coroot index i must be 1 or 2, got True"),
        (lambda: pairing(OMEGA2, True), "coroot index i .*, got True"),
        (lambda: simple_reflection(True, OMEGA2),
         "simple reflection index i .*, got True"),
        (lambda: kr1_action(x_plus(0), -1, K_ZERO),
         "power must be a nonnegative int, got -1"),
        (lambda: kr1_action(x_plus(0), False, K_ZERO),
         "power .*, got False"),
    ],
    ids=["basis-14", "basis-neg", "basis-bool", "x-plus-neg", "x-plus-6",
         "x-minus-bool", "cartan-bool", "pairing-bool", "reflection-bool",
         "power-neg", "power-bool"],
)
def test_helpers_reject_bad_indices(call, message):
    # each index is checked: no zero vector, wrapped index, bare
    # IndexError or bool passed off as 1 or 0
    with pytest.raises(ValueError, match=message):
        call()


_ONE = basis_vector(0)


@pytest.mark.parametrize(
    "vector",
    [_ONE[:13], _ONE + (0,), (0.5,) + _ONE[1:], (True,) + _ONE[1:],
     set(range(DIM)), "0" * DIM, dict.fromkeys(range(DIM), 0), iter(_ONE),
     None],
    ids=["short", "long", "float", "bool", "set", "str", "dict", "iterator",
         "none"],
)
def test_vectors_are_checked(vector):
    # no zero-padding, IndexError, float result, bool as 1 or iteration
    # order of a set: a ValueError that names the argument
    for call, name in [
        (lambda: bracket(vector, _ONE), "x"),
        (lambda: bracket(_ONE, vector), "y"),
        (lambda: killing_form(vector, _ONE), "x"),
        (lambda: killing_form(_ONE, vector), "y"),
        (lambda: kr1_action(vector, 0, K_ZERO), "x"),
        (lambda: kr1_action(_ONE, 2, (vector, 0)), "the vector of v"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be a tuple or a "
                                             f"list of 14 ints, got "):
            call()


@pytest.mark.parametrize(
    "v",
    [_ONE, (_ONE,), (_ONE, 0, 0), (_ONE, True), (_ONE, 0.0), (_ONE, None),
     {_ONE: 0}, None],
    ids=["vector", "one", "three", "bool", "float", "none", "dict",
         "not-a-pair"],
)
def test_kr1_action_checks_its_module_element(v):
    for power in (0, 1, 2):
        with pytest.raises(ValueError,
                           match=r"^v must be a pair \(vector, int\), got "):
            kr1_action(_ONE, power, v)


def test_vectors_may_be_lists():
    x, y = x_plus(0), x_minus(0)
    assert bracket(list(x), list(y)) == bracket(x, y) == cartan(1)
    assert killing_form(list(x), list(y)) == killing_form(x, y)
    assert kr1_action(list(x), 0, [list(y), 3]) == (cartan(1), 0)
