"""Exact linear algebra over integers and rationals.

Matrices are immutable tuples of row tuples.  One fraction-free
elimination on sparse rows {column: entry} is behind rank, det and
inverse: integer inputs stay integer all the way through, and rational
rows are lifted to integers by clearing their denominators.  The inverse
comes as an integer matrix and one integer scale (scaled_inverse), so
callers that only sum its entries stay in ints; only inverse, which
divides by the scale, and det at a non-integral value build Fractions:
they import fractions in their bodies, so importing this module does not
load it.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, compress, repeat
from math import gcd, lcm, prod
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


def mat_mul(a, b):
    """Matrix product; entries only need + and * (ints, Fractions, polynomials).

    A left factor with no rows, which keeps no column count, gives ().
    """
    if not a:
        return ()
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0]) if b else 0
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    if cb and not ca:
        raise ShapeError("inner dimension 0 with nonzero outer dimensions has no generic zero entry")
    bt = list(zip(*b))
    # reduce(add, map(mul, ...)) is the left-to-right sum row[0]*col[0] + row[1]*col[1] + ...;
    # tuples are made from lists for the reason given in mat()
    return tuple([tuple([reduce(add, map(mul, row, col)) for col in bt]) for row in a])


def mat_chain(mats):
    """Product of a nonempty sequence of matrices, left to right."""
    return reduce(mat_mul, mats)


def _lift(row):
    """(row times the lcm of its denominators, that lcm) for int and Fraction entries."""
    try:
        den = lcm(*(x.denominator for x in row))
    except AttributeError:
        raise ShapeError("exact linear algebra takes ints and Fractions, not floats") from None
    return [x.numerator * (den // x.denominator) for x in row], den


def _step(v, p, j):
    """Clear column j of the row v against the pivot row p, in place.

    v becomes (m * v - k * p) / c, where m and k are p[j] and v[j] over
    their gcd and c is the gcd of the entries left (1 if none); returns (m, c).
    """
    g = gcd(p[j], v[j])
    m, k = p[j] // g, v[j] // g
    if m != 1:
        for t in v:
            v[t] *= m
    for t, y in p.items():
        x = v.get(t, 0) - k * y
        if x:
            v[t] = x
        else:
            del v[t]
    c = gcd(*v.values()) or 1
    if c > 1:
        for t in v:
            v[t] //= c
    return m, c


def _eliminate(rows, base=None):
    """Fraction-free forward elimination of the rows {column: entry}.

    Each row is reduced by _step against the pivot rows found so far,
    keyed by their leading column, until it vanishes or leads in a new
    column.  Returns (pivots, num, den), the pivots in input order: num /
    den is the product of the lifts and of the steps' m / c.  The given
    dicts are left unchanged, and a row is lifted to integers only if it
    holds an entry that is not an int.

    base, if given, holds pivot rows found before, keyed the same way:
    the rows are reduced against them too, and only the new pivots are
    returned, so the rank of base's rows and the given rows together is
    len(base) + len(pivots).  base is read and never changed, nor is any
    row in it.
    """
    pivots = {}
    num = den = 1
    for row in rows:
        v = {j: x for j, x in row.items() if x}
        if not all(map(isinstance, v.values(), repeat(int))):
            lifted, d = _lift(v.values())
            v, num = dict(zip(v, lifted)), num * d
        while v:
            lead = min(v)
            p = pivots.get(lead)
            if p is None and base:
                p = base.get(lead)
            if p is None:
                pivots[lead] = v
                break
            m, c = _step(v, p, lead)
            num, den = num * m, den * c
    return pivots, num, den


def rank(a):
    """Exact rank of a dense matrix; see sparse_rank."""
    if len(set(map(len, a))) > 1:
        raise ShapeError("rank of a ragged matrix")
    return sparse_rank(dict(compress(enumerate(row), row)) for row in a)


def sparse_rank(rows):
    """Exact rank of the rows {column: entry}: the number of pivots of _eliminate."""
    return len(_eliminate(rows)[0])


def det(a):
    """Exact determinant from the forward elimination.  Returns int when possible.

    The pivot rows, sorted by leading column, are triangular, so
    det(a) = sign * (product of the leading entries) * den / num, where
    sign is that of the permutation taking input order to column order.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeError("determinant of a non-square matrix")
    pivots, num, den = _eliminate(dict(enumerate(row)) for row in a)
    if len(pivots) < n:
        return 0
    inversions = sum(x > y for x, y in combinations(pivots, 2))
    top = (-1) ** inversions * prod(p[j] for j, p in pivots.items()) * den
    if top % num == 0:
        return top // num
    import fractions

    return fractions.Fraction(top, num)


def scaled_inverse(a):
    """(L, W) with W = L * a^-1 an integer matrix, by elimination of the rows of [a | I].

    a is singular exactly when some pivot leads in a column of I.
    Otherwise back-substitution from the last pivot up leaves pivot i as
    c_i * (e_i | row i of the inverse) for some integer c_i; L is the
    positive lcm of the c_i.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeError("inverse of a non-square matrix")
    pivots = _eliminate({**dict(enumerate(row)), n + i: 1} for i, row in enumerate(a))[0]
    if any(j >= n for j in pivots):
        raise SingularMatrixError("matrix is singular")
    for i in reversed(range(n)):
        for k in [k for k in pivots[i] if i < k < n]:
            _step(pivots[i], pivots[k], k)
    scale = lcm(*(pivots[i][i] for i in range(n)))
    return scale, tuple(
        tuple([pivots[i].get(n + k, 0) * (scale // pivots[i][i]) for k in range(n)]) for i in range(n)
    )


def inverse(a):
    """Exact inverse with Fraction entries: W / L for (L, W) = scaled_inverse(a)."""
    scale, scaled = scaled_inverse(a)
    import fractions

    return tuple(tuple([fractions.Fraction(x, scale) for x in row]) for row in scaled)
