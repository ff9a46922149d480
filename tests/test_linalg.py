"""Exact rank, determinant and inverse against a plain Fraction Gauss-Jordan reference."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import random_instance, transpose
from qbfun import complete_diagram, diagram_to_matrices, exact_diagram, linalg
from qbfun.errors import ShapeError, SingularMatrixError
from qbfun.invariants import assemble, block_structure
from qbfun.poly import MultiPolynomial, VarTable


def ref_rank(a):
    rows = [[Fraction(x) for x in row] for row in a]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = [x / rows[rank][col] for x in rows[rank]]
        rows[rank] = pivot_row
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], pivot_row)]
        rank += 1
    return rank


def ref_det(a):
    rows = [[Fraction(x) for x in row] for row in a]
    n, det = len(rows), Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, n):
            factor = rows[i][col] / rows[col][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return det


def random_entry(rng, fractions):
    if rng.random() < 0.5:
        return 0
    if fractions and rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-4, 4)


def random_matrix(rng, m, n, fractions=False):
    """Sparse random matrix, sometimes with zero rows/columns or repeated rows."""
    a = [[random_entry(rng, fractions) for _ in range(n)] for _ in range(m)]
    if m and rng.random() < 0.3:
        a[rng.randrange(m)] = [0] * n
    if n and rng.random() < 0.3:
        col = rng.randrange(n)
        for row in a:
            row[col] = 0
    if m >= 2 and rng.random() < 0.4:
        i, j = rng.sample(range(m), 2)
        scale = rng.choice((1, -2, Fraction(1, 3))) if fractions else rng.choice((1, -2, 3))
        a[i] = [scale * x for x in a[j]]
    return linalg.mat(a)


def check_against_reference(a):
    assert linalg.rank(a) == ref_rank(a)
    if a and len(a) == len(a[0]):
        assert linalg.det(a) == ref_det(a)
        if ref_det(a) != 0:
            inv = linalg.inverse(a)
            assert all(isinstance(x, Fraction) for row in inv for x in row)
            assert linalg.mat_mul(a, inv) == linalg.identity(len(a))
        else:
            with pytest.raises(SingularMatrixError):
                linalg.inverse(a)


@pytest.mark.parametrize("fractions", [False, True])
def test_rank_and_det_match_reference_on_random_matrices(fractions):
    rng = random.Random(91 + fractions)
    for _ in range(400):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        check_against_reference(random_matrix(rng, m, n, fractions))


def test_square_matrices_of_every_rank():
    rng = random.Random(93)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        a = linalg.mat_mul(left, right) if k else linalg.zeros(n, n)
        check_against_reference(a)
        seen.add((n, linalg.rank(a)))
    assert len(seen) > 15


def test_tall_and_wide_matrices():
    rng = random.Random(94)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(6, 12), rng.randint(1, 3), fractions=rng.random() < 0.5)
        check_against_reference(a)
        check_against_reference(transpose(a))
        assert linalg.rank(a) == linalg.rank(transpose(a))


def test_pivots_out_of_column_order():
    """Rows of a triangular matrix in every order: row i leads in column perm[i]."""
    rng = random.Random(97)
    for perm in permutations(range(4)):
        upper = [[rng.randint(1, 5) if i == j else rng.randint(-3, 3) * (j > i) for j in range(4)] for i in range(4)]
        a = linalg.mat(upper[k] for k in perm)
        check_against_reference(a)
        sign = (-1) ** sum(x > y for i, x in enumerate(perm) for y in perm[i + 1 :])
        assert linalg.det(a) == sign * upper[0][0] * upper[1][1] * upper[2][2] * upper[3][3]


@pytest.mark.parametrize("fractions", [False, True])
def test_elimination_against_settled_pivots(fractions):
    """Rows eliminated against the pivots of other rows count the rank of both, and leave those pivots as they were."""
    rng = random.Random(98 + fractions)
    for _ in range(200):
        n = rng.randint(1, 7)
        a = random_matrix(rng, rng.randint(0, 6), n, fractions)
        b = [list(row) for row in random_matrix(rng, rng.randint(0, 6), n, fractions)]
        if a and b and rng.random() < 0.4:
            # a row of b in the span of a's rows
            b[0] = [x + rng.choice((1, -2, Fraction(1, 3))) * y for x, y in zip(a[-1], a[0])]
        base = linalg._eliminate(dict(enumerate(row)) for row in a)[0]
        frozen = {k: dict(p) for k, p in base.items()}
        new = linalg._eliminate((dict(enumerate(row)) for row in b), base)[0]
        assert base == frozen
        assert not new.keys() & base.keys()
        assert len(base) + len(new) == ref_rank(list(a) + b)


def test_empty_shapes():
    assert linalg.rank(()) == 0
    assert linalg.rank(((), (), ())) == 0
    assert linalg.rank(linalg.zeros(4, 3)) == 0
    assert linalg.det(()) == 1


def test_ragged_rows_are_rejected():
    with pytest.raises(ShapeError):
        linalg.rank(((1, 2), (3,)))


def test_rank_keeps_integers_exact():
    big = 10**30
    a = ((big, big + 1), (big + 1, big + 2))
    assert linalg.rank(a) == 2
    assert linalg.rank(((big, 2 * big), (1, 2))) == 1
    assert linalg.rank(((Fraction(1, 3), Fraction(2, 3)), (1, 2))) == 1


def test_floats_are_refused_not_rounded():
    """An entry without numerator and denominator (a float) is an error, never read as a nearby rational."""
    for call in (linalg.rank, linalg.det, linalg.inverse):
        with pytest.raises(ShapeError):
            call(((1.5, 0), (0, 1)))


def test_block_matrices_of_lace_diagrams():
    """The 0/1 matrices rank_parameter assembles, for every pair i < j."""
    rng = random.Random(95)
    checked = 0
    for _ in range(25):
        q, n, invs = random_instance(rng, rmax=7, nmax=5)
        diagrams = [complete_diagram(q, n)] + [exact_diagram(q, n, idx) for idx in invs]
        for d in diagrams:
            rep = diagram_to_matrices(q, n, d)
            for i in range(1, q.r):
                for j in range(i + 1, q.r + 1):
                    a = assemble(block_structure(q, i, j), rep)
                    check_against_reference(a)
                    checked += 1
    assert checked > 500


def test_mat_mul_sums_left_to_right():
    rng = random.Random(96)
    for _ in range(50):
        m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, m, k, fractions=True)
        b = random_matrix(rng, k, n, fractions=True)
        want = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)) for i in range(m))
        assert linalg.mat_mul(a, b) == want
    table = VarTable(("x", "y"))
    x, y = (MultiPolynomial.variable(table, v) for v in ("x", "y"))
    a = ((x, y), (y, x))
    got = linalg.mat_mul(a, a)
    assert got == ((x * x + y * y, x * y + y * x), (y * x + x * y, y * y + x * x))
    assert all(isinstance(e, MultiPolynomial) for row in got for e in row)
    with pytest.raises(ShapeError):
        linalg.mat_mul(((1, 2),), ((1, 2),))
