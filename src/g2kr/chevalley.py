"""A concrete Chevalley basis for G2 and the graded module on V(omega2)+C.

Basis order: x+_gamma for the six positive roots in height order, then
x-_gamma in the same order, then the simple coroots h1, h2 (14 elements,
integer structure constants throughout).  The table is held once, in one
sparse integer form (the nonzero (k, c) of each bracket), and ranks use
fraction-free integer elimination: no value is ever a fraction.

Sign convention.  The constants are extracted from the 7-dimensional
fundamental representation, built on an admissible lattice so that all
matrix entries are integers.  Root vectors above the simple ones are fixed
by the bracket chains

    x_{a1+a2}   = [x_{a1}, x_{a2}],
    x_{2a1+a2}  = [x_{a1}, x_{a1+a2}] / 2,
    x_{3a1+a2}  = [x_{a1}, x_{2a1+a2}] / 3,
    x_{3a1+2a2} = [x_{a2}, x_{3a1+a2}],

i.e. the constant on each chain pair is +(p+1) where p is the length of
the descending root string; the negative root vectors are normalised so
that [x+_gamma, x-_gamma] is exactly the coroot of gamma.  All checked
statements are independent of this convention.

The module K = V(omega2) + C carries the graded current-algebra action

    (x (x) t^r)(y, a) = (delta_{r,0} [x, y], delta_{r,1} <x, y>)

with <,> the Killing form, V(omega2) realised as the adjoint copy of the
algebra itself and C the grade-one piece.  That this is a module, i.e.
[x (x) t^p, y (x) t^q] = [x,y] (x) t^{p+q} as operators, follows from
antisymmetry with Jacobi (p = q = 0) and with Killing invariance
(p + q = 1); at p + q >= 2 both sides vanish.  <,> is the trace form
tr(ad x . ad y) of the table's own rows (`_trace_form`): symmetric for
every table, and invariant once antisymmetry and Jacobi make ad a
homomorphism.  So the module axiom follows from antisymmetry and Jacobi.

The same checks imply the root-space grading and weight orthogonality.
Given antisymmetry and the Cartan eigenvalues, Jacobi at (h, b_j, b_k)
reads (w_j + w_k - w_l)(h) c_l = 0 for each term c_l b_l of [b_j, b_k],
and invariance at (h, b_j, b_k) reads (w_j + w_k)(h) <b_j, b_k> = 0.
Neither is checked a second time here.

The basis weights are not read back from the table either.  With no
eigenvalue failure each cell [h_i, b_j] is exactly BASIS_WEIGHTS[j](h_i)
b_j, so the table's weights are BASIS_WEIGHTS; with one, `structure`
fails and so does the whole run.  The `adjoint-weights` check therefore
compares BASIS_WEIGHTS, as a multiset, with ch V(omega2): it ties the
root data of `weights` to Racah's formula.

Nor is any identity checked twice: antisymmetry once per pair i <= j,
Jacobi once per triple i < j < k.  The Jacobi sum J is cyclic, and on an
antisymmetric table J(j, i, k) = -J(i, j, k) and J(i, i, k) = 0, so every
ordered triple is +- a checked one or zero; a table that is not
antisymmetric fails anyway.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import gcd

from .weights import (
    OMEGA2,
    POSITIVE_ROOTS,
    ZERO,
    Weight,
    coroot_coefficients,
    pairing,
    to_root_coords,
)

DIM = 14
ZERO14 = (0,) * DIM

X_PLUS = tuple(range(6))
X_MINUS = tuple(range(6, 12))
H1, H2 = 12, 13

#: Index of the highest root 3*alpha1 + 2*alpha2 within the positive roots.
HIGHEST = 5

_POS_WEIGHTS = tuple(r.weight for r in POSITIVE_ROOTS)
_ROOT_INDEX = {w: i for i, w in enumerate(_POS_WEIGHTS)}

BASIS_WEIGHTS: tuple[Weight, ...] = (
    _POS_WEIGHTS + tuple(-w for w in _POS_WEIGHTS) + (ZERO, ZERO)
)


def _root_label(w: Weight) -> str:
    p, q = to_root_coords(w)
    return f"[{p},{q}]"


BASIS_NAMES = tuple(
    [f"x+{_root_label(w)}" for w in _POS_WEIGHTS]
    + [f"x-{_root_label(w)}" for w in _POS_WEIGHTS]
    + ["h1", "h2"]
)


# --- sparse 7x7 integer matrices on the representation space --------------
# A matrix is the dict {(row, col): entry} of its nonzero entries.

def _lincomb(*terms):
    """The matrix sum of c * m over the (c, m) terms."""
    out = {}
    for c, m in terms:
        for ij, x in m.items():
            out[ij] = out.get(ij, 0) + c * x
    return {ij: x for ij, x in out.items() if x}


def _comm(a, b):
    """The commutator ab - ba."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for (i, k), u in x.items():
            for (l, j), v in y.items():
                if k == l:
                    out[i, j] = out.get((i, j), 0) + sign * u * v
    return {ij: c for ij, c in out.items() if c}


def _exact_div(m, d):
    out = {}
    for ij, x in m.items():
        q, r = divmod(x, d)
        if r:
            raise ArithmeticError("chevalley construction: non-exact division")
        out[ij] = q
    return out


def _ratio(m, base):
    """The integer c with m == c * base; ArithmeticError unless one exists."""
    if not base:
        raise ArithmeticError("chevalley construction: zero root vector")
    ij = min(base)
    q, r = divmod(m.get(ij, 0), base[ij])
    if r:
        raise ArithmeticError("chevalley construction: non-integer constant")
    if m != _lincomb((q, base)):
        raise ArithmeticError(
            "chevalley construction: bracket not proportional to root vector"
        )
    return q


def _build_representation():
    """The 14 basis elements as sparse 7x7 integer matrices.

    The representation space has weight basis v0..v6 with weights
    omega1, omega1-a1, omega1-a1-a2, 0, -omega1+a1+a2, -omega1+a1, -omega1;
    the simple generators act along the alpha-strings with the usual
    divided-power integer entries.
    """
    e1 = {(0, 1): 1, (2, 3): 2, (3, 4): 1, (5, 6): 1}
    f1 = {(1, 0): 1, (3, 2): 1, (4, 3): 2, (6, 5): 1}
    e2 = {(1, 2): 1, (4, 5): 1}
    f2 = {(2, 1): 1, (5, 4): 1}

    h1 = _comm(e1, f1)
    h2 = _comm(e2, f2)

    pos = [e1, e2]
    pos.append(_comm(e1, e2))
    pos.append(_exact_div(_comm(e1, pos[2]), 2))
    pos.append(_exact_div(_comm(e1, pos[3]), 3))
    pos.append(_comm(e2, pos[4]))

    raw = [f1, f2]
    raw.append(_comm(f1, f2))
    raw.append(_comm(f1, raw[2]))
    raw.append(_comm(f1, raw[3]))
    raw.append(_comm(f2, raw[4]))

    neg = [f1, f2]
    for idx in range(2, 6):
        c1, c2 = coroot_coefficients(_POS_WEIGHTS[idx])
        c = _ratio(_comm(pos[idx], raw[idx]), _lincomb((c1, h1), (c2, h2)))
        neg.append(_exact_div(raw[idx], c))

    return pos + neg + [h1, h2]


def _coroot(c1, c2):
    """The sparse basis coefficients of c1*h1 + c2*h2."""
    return tuple((k, c) for k, c in ((H1, c1), (H2, c2)) if c)


def _extract_table(matrices):
    """rows[i][j]: the nonzero (k, c) of [b_i, b_j] = sum c*b_k, by k."""
    h1, h2 = matrices[H1], matrices[H2]
    rows = []
    for i in range(DIM):
        row = []
        for j in range(DIM):
            b = _comm(matrices[i], matrices[j])
            delta = BASIS_WEIGHTS[i] + BASIS_WEIGHTS[j]
            if not b:
                row.append(())
            elif delta == ZERO:
                # Cartan subalgebra: both h1 and h2 act diagonally with
                # entries 1, 0 on v0 and -1, 1 on v1, so this 2x2 solve
                # is exact.
                c1 = b.get((0, 0), 0)
                c2 = b.get((1, 1), 0) + c1
                if b != _lincomb((c1, h1), (c2, h2)):
                    raise ArithmeticError("chevalley: bad Cartan bracket")
                row.append(_coroot(c1, c2))
            else:
                sign = 1 if delta in _ROOT_INDEX else -1
                root = delta if sign == 1 else -delta
                if root not in _ROOT_INDEX:
                    raise ArithmeticError("chevalley: bracket off lattice")
                k = _ROOT_INDEX[root] + (0 if sign == 1 else 6)
                row.append(((k, _ratio(b, matrices[k])),))
        rows.append(tuple(row))
    return tuple(rows)


#: Structure constants and Killing form on the 14-element basis:
#: `rows[i][j]` lists the nonzero (k, c) of [b_i, b_j] = sum c*b_k in
#: increasing k, and `killing[i][j]` is <b_i, b_j>.
BracketTable = namedtuple("BracketTable", "rows killing")


def _trace_form(rows):
    """The Killing matrix of the sparse rows: entry (i, j) is
    tr(ad b_i . ad b_j), the sum over l and k of [b_i, b_l]_k [b_j, b_k]_l,
    taken once for each i <= j as tr(AB) = tr(BA) for any rows.
    """
    form = [[0] * DIM for _ in range(DIM)]
    for i, j in combinations_with_replacement(range(DIM), 2):
        form[i][j] = form[j][i] = sum(
            c * d for l in range(DIM) for k, c in rows[i][l]
            for u, d in rows[j][k] if u == l)
    return tuple(map(tuple, form))


@lru_cache(maxsize=None)
def build_bracket_table() -> BracketTable:
    """Build (once) the verified structure-constant table."""
    rows = _extract_table(_build_representation())
    return BracketTable(rows, _trace_form(rows))


def _check_index(value, name: str, size: int) -> None:
    """Raise ValueError unless value is an int in 0..size-1 (bool excluded)."""
    if type(value) is not int or not 0 <= value < size:
        raise ValueError(
            f"{name} must be an int in 0..{size - 1}, got {value!r}"
        )


def basis_vector(i: int) -> tuple[int, ...]:
    """Coefficients of the i-th basis element."""
    _check_index(i, "basis index i", DIM)
    return tuple(1 if k == i else 0 for k in range(DIM))


def x_plus(root_index: int) -> tuple[int, ...]:
    """Positive root vector by position in the height-ordered root list."""
    _check_index(root_index, "root_index", len(X_PLUS))
    return basis_vector(X_PLUS[root_index])


def x_minus(root_index: int) -> tuple[int, ...]:
    _check_index(root_index, "root_index", len(X_MINUS))
    return basis_vector(X_MINUS[root_index])


def cartan(i: int) -> tuple[int, ...]:
    if type(i) is not int or i not in (1, 2):
        raise ValueError(f"coroot index i must be 1 or 2, got {i!r}")
    return basis_vector(H1 if i == 1 else H2)


def _vector(x, name: str):
    """x; ValueError naming it unless x is a tuple or a list of DIM ints
    (bool excluded): a set or a dict would make its iteration order the
    coordinates, and a short one would be zero-padded."""
    if (not isinstance(x, (tuple, list)) or len(x) != DIM
            or any(type(c) is not int for c in x)):
        raise ValueError(
            f"{name} must be a tuple or a list of {DIM} ints, got {x!r}"
        )
    return x


def bracket(x, y) -> tuple[int, ...]:
    """Lie bracket of two elements given by basis coefficients."""
    return _bracket(_vector(x, "x"), _vector(y, "y"))


def _bracket(x, y) -> tuple[int, ...]:
    """`bracket` of two vectors already checked."""
    rows = build_bracket_table().rows
    acc = [0] * DIM
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    for k, c in rows[i][j]:
                        acc[k] += xi * yj * c
    return tuple(acc)


def killing_form(x, y) -> int:
    """Trace form tr(ad x . ad y); exact integer."""
    return _killing_form(_vector(x, "x"), _vector(y, "y"))


def _killing_form(x, y) -> int:
    """`killing_form` of two vectors already checked."""
    killing = build_bracket_table().killing
    return sum(
        xi * yj * killing[i][j]
        for i, xi in enumerate(x)
        if xi
        for j, yj in enumerate(y)
        if yj
    )


# --- verification: Lie algebra axioms --------------------------------------

def verify_structure() -> list[str]:
    """Antisymmetry (i <= j), Cartan actions, coroots, Jacobi (i < j < k)."""
    rows, names = build_bracket_table().rows, BASIS_NAMES
    failures = []
    for i, j in combinations_with_replacement(range(DIM), 2):
        if rows[i][j] != tuple((k, -c) for k, c in rows[j][i]):
            failures.append(f"antisymmetry fails at ({names[i]}, {names[j]})")
    # Cartan eigenvalues.
    for hidx, hi in ((H1, 1), (H2, 2)):
        for j in range(DIM):
            expected = pairing(BASIS_WEIGHTS[j], hi)
            if rows[hidx][j] != (((j, expected),) if expected else ()):
                failures.append(f"[h{hi}, {names[j]}] has wrong eigenvalue")
    # [x+_gamma, x-_gamma] must be exactly the coroot.
    for idx, root in enumerate(_POS_WEIGHTS):
        want = _coroot(*coroot_coefficients(root))
        if rows[X_PLUS[idx]][X_MINUS[idx]] != want:
            failures.append(f"[x+{_root_label(root)}, x-{_root_label(root)}]"
                            " is not the coroot")
    for i, j, k in combinations(range(DIM), 3):
        total = [0] * DIM
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            # += [[b_x, b_y], b_z]
            for l, c in rows[x][y]:
                for u, d in rows[l][z]:
                    total[u] += c * d
        if any(total):
            failures.append(
                f"Jacobi fails at ({names[i]}, {names[j]}, {names[k]})"
            )
    return failures


def verify_killing() -> list[str]:
    """Root-length uniformity and nondegeneracy of the Killing form.

    Symmetry and invariance are properties of the trace form, given the
    antisymmetry and Jacobi that `verify_structure` checks (see the module
    docstring).  These two are not: they hold because G2 is simple.
    """
    kil = build_bracket_table().killing
    failures = []
    for long, kind in ((False, "short"), (True, "long")):
        values = {
            kil[X_PLUS[i]][X_MINUS[i]]
            for i, r in enumerate(POSITIVE_ROOTS)
            if r.long == long
        }
        if len(values) != 1 or 0 in values:
            failures.append(
                f"<x+, x-> not a single nonzero value on {kind} roots"
            )
    if _rank(kil) != DIM:
        failures.append("killing form is degenerate")
    return failures


# --- exact rank / span utilities -------------------------------------------

def _rank(rows) -> int:
    pivots: dict[int, list[int]] = {}
    for row in rows:
        _reduce_into(row, pivots)
    return len(pivots)


def _reduce_into(vec, pivots) -> bool:
    """Reduce vec against the echelon rows; add it if independent.

    Fraction-free: each step cross-multiplies vec and a pivot row so the
    pivot entry cancels, and a new pivot row is divided by the gcd of its
    entries, so every value stays a small integer.
    """
    v = list(vec)
    for p, row in pivots.items():
        if v[p]:
            g = gcd(row[p], v[p])
            a, b = row[p] // g, v[p] // g
            v = [a * x - b * y for x, y in zip(v, row)]
    g = gcd(*v)
    if g:
        pivots[next(i for i, c in enumerate(v) if c)] = [x // g for x in v]
    return bool(g)


# --- the graded module K = V(omega2) + C -----------------------------------

KElement = tuple[tuple[int, ...], int]

K_ZERO: KElement = (ZERO14, 0)


def kr1_highest_vector() -> KElement:
    """The cyclic vector: the highest-root vector inside the adjoint copy."""
    return (basis_vector(X_PLUS[HIGHEST]), 0)


def kr1_action(x, power: int, v: KElement) -> KElement:
    """(x (x) t^power) applied to (y, a); zero for power >= 2."""
    _vector(x, "x")
    if type(power) is not int or power < 0:
        raise ValueError(f"power must be a nonnegative int, got {power!r}")
    if not (isinstance(v, (tuple, list)) and len(v) == 2
            and type(v[1]) is int):
        raise ValueError(f"v must be a pair (vector, int), got {v!r}")
    y = _vector(v[0], "the vector of v")
    if power == 0:
        return (_bracket(x, y), 0)
    if power == 1:
        return (ZERO14, _killing_form(x, y))
    return K_ZERO


def verify_kr1_relations() -> list[str]:
    """Check that the highest vector v generates the m=1, node-2 module K.

    Covers the grade-one generator (x-_theta (x) t).v being nonzero and
    the degree-zero span of v being the whole adjoint copy.  The other
    defining relations at v (annihilation by the positive part, the
    Cartan eigenvalues, the simple-root lowering relations) are each one
    entry of the grading, the eigenvalue check or weight orthogonality,
    and the module axiom is antisymmetry and Jacobi again: all are left to
    `verify_structure` (see the module docstring).
    """
    failures = []
    v = kr1_highest_vector()

    if kr1_action(basis_vector(X_MINUS[HIGHEST]), 1, v) == K_ZERO:
        failures.append("(x-_{theta} (x) t) kills the highest vector")

    # The degree-zero action generates the whole adjoint copy from v.
    pivots: dict[int, list[int]] = {}
    frontier = [v[0]]
    _reduce_into(v[0], pivots)
    while frontier and len(pivots) < DIM:
        fresh = []
        for y in frontier:
            for i in range(DIM):
                z = _bracket(basis_vector(i), y)
                if any(z) and _reduce_into(z, pivots):
                    fresh.append(z)
        frontier = fresh
    if len(pivots) != DIM:
        failures.append(
            f"degree-zero span of the highest vector has dimension "
            f"{len(pivots)}, expected {DIM}"
        )

    return failures


def verify_all() -> dict[str, list[str]]:
    """All chevalley-side verifications, keyed by check name."""
    from .characters import irreducible_character

    checks = {
        "structure": verify_structure(),
        "killing": verify_killing(),
        "kr-relations": verify_kr1_relations(),
    }
    adjoint = dict(Counter(BASIS_WEIGHTS))
    expected = dict(irreducible_character(OMEGA2).items())
    checks["adjoint-weights"] = (
        []
        if adjoint == expected
        else [f"adjoint weights {adjoint} differ from ch V(omega2)"]
    )
    return checks
