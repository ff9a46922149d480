"""Exact linear algebra over integers and rationals.

Matrices are immutable tuples of row tuples.  Determinants use
fraction-free (Bareiss) elimination and ranks fraction-free elimination
on sparse rows: integer inputs stay integer all the way through, and
rational rows are lifted to integers by clearing their denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, mul

from .errors import ShapeError, SingularMatrixError


def mat(rows):
    # from a list, not a generator: tuple() then allocates the exact size instead of
    # resizing a guess, which would strand the block on another size's free list
    return tuple([tuple(row) for row in rows])


def zeros(m, n):
    return tuple((0,) * n for _ in range(m))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    """Matrix product; entries only need + and * (ints, Fractions, polynomials)."""
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    if ra and cb and not ca:
        raise ShapeError("inner dimension 0 with nonzero outer dimensions has no generic zero entry")
    bt = list(zip(*b)) if b else []
    # reduce(add, map(mul, ...)) is the left-to-right sum row[0]*col[0] + row[1]*col[1] + ...;
    # tuples are made from lists for the reason given in mat()
    return tuple([tuple([reduce(add, map(mul, row, col)) for col in bt]) for row in a])


def mat_chain(mats):
    """Product of a nonempty sequence of matrices, left to right."""
    acc = mats[0]
    for m in mats[1:]:
        acc = mat_mul(acc, m)
    return acc


def _int_rows(a):
    """Copy rows as integer lists; returns (rows, scale) with det(input) = det(rows)/scale."""
    scale = 1
    rows = []
    for row in a:
        if all(isinstance(x, int) for x in row):
            rows.append(list(row))
            continue
        lifted, den = _lift(row)
        scale *= den
        rows.append(lifted)
    return rows, scale


def _lift(row):
    """(row times the lcm of its denominators, that lcm) for rational entries."""
    fracs = [Fraction(x) for x in row]
    den = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [int(f * den) for f in fracs], den


def det(a):
    """Exact determinant via Bareiss elimination.  Returns int when possible."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeError("determinant of a non-square matrix")
    if n == 0:
        return 1
    rows, scale = _int_rows(a)
    d = _det_bareiss(rows)
    if scale == 1:
        return d
    result = Fraction(d, scale)
    return int(result) if result.denominator == 1 else result


def _det_bareiss(a):
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def rank(a):
    """Exact rank of a dense matrix; see sparse_rank."""
    if len(set(map(len, a))) > 1:
        raise ShapeError("rank of a ragged matrix")
    return sparse_rank(dict(compress(enumerate(row), row)) for row in a)


def sparse_rank(rows):
    """Exact rank of the rows {column: entry}, by fraction-free elimination.

    Zero entries are ignored and the given dicts are left unchanged.  Each
    row is reduced against the pivot rows found so far, keyed by their
    leading column, until it vanishes or leads in a new column.  A step
    cross-multiplies by the two leading entries over their gcd and divides
    the result by the gcd of its entries, so only nonzero entries are
    touched and integers stay small.  A row is lifted to integers only if
    it holds an entry that is not an int.
    """
    pivots = {}
    for row in rows:
        v = {j: x for j, x in row.items() if x}
        if not all(map(isinstance, v.values(), repeat(int))):
            v = dict(zip(v, _lift(v.values())[0]))
        while v:
            lead = min(v)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = v
                break
            g = gcd(p[lead], v[lead])
            mp, mv = v[lead] // g, p[lead] // g
            if mv != 1:
                for j in v:
                    v[j] *= mv
            for j, y in p.items():
                x = v.get(j, 0) - mp * y
                if x:
                    v[j] = x
                else:
                    del v[j]
            c = gcd(*v.values())
            if c > 1:
                for j in v:
                    v[j] //= c
    return len(pivots)


def inverse(a):
    """Exact inverse over Fraction via Gauss-Jordan."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeError("inverse of a non-square matrix")
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if aug[i][col] != 0:
                piv = i
                break
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)
