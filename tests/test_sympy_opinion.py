"""A third opinion from sympy on small determinants and b-function factoring.

Skipped where sympy is not installed; qbfun itself never imports it.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from conftest import instance, random_instance  # noqa: E402
from qbfun import block_spec, enumerate_invariants, oracle_b_function  # noqa: E402
from qbfun import oracle  # noqa: E402
from qbfun.invariants import assemble  # noqa: E402
from qbfun.oracle import _factor_b, _symbolic_rep, poly_det, variable_table  # noqa: E402
from qbfun.poly import MultiPolynomial, VarTable  # noqa: E402


def to_sympy(entry, symbols):
    if not isinstance(entry, MultiPolynomial):
        return sympy.Rational(Fraction(entry).numerator, Fraction(entry).denominator)
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x ** k for x, k in zip(symbols, e)))
            for e, c in entry.monomials()
        )
    )


def sympy_det(rows, symbols):
    return sympy.Matrix([[to_sympy(e, symbols) for e in row] for row in rows]).det(method="berkowitz").expand()


def test_poly_det_of_small_block_matrices_matches_sympy():
    rng = random.Random(81)
    checked = 0
    while checked < 40:
        q, n, invs = random_instance(rng, rmax=4, nmax=3)
        table = variable_table(q, n)
        symbols = sympy.symbols(table.names)
        for idx in invs:
            spec = block_spec(q, n, idx)
            if sum(spec.row_dims(n)) > 3:
                continue
            rows = assemble(spec, _symbolic_rep(q, n, table))
            assert sympy.expand(to_sympy(poly_det(rows), symbols) - sympy_det(rows, symbols)) == 0
            checked += 1


def test_poly_det_of_random_polynomial_matrices_matches_sympy():
    rng = random.Random(82)
    table = VarTable(("x", "y", "z"))
    symbols = sympy.symbols(table.names)
    for _ in range(30):
        size = rng.randint(1, 3)
        rows = []
        for _ in range(size):
            row = []
            for _ in range(size):
                if rng.random() < 0.25:
                    row.append(0)
                    continue
                monomials = [
                    (tuple(rng.randint(0, 2) for _ in range(3)), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 3))
                ]
                row.append(MultiPolynomial.from_monomials(table, monomials))
            rows.append(row)
        assert sympy.expand(to_sympy(poly_det(rows), symbols) - sympy_det(rows, symbols)) == 0


def sympy_roots(coeffs):
    s = sympy.Symbol("s")
    poly = sympy.Poly(
        sum(sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * s ** k for k, c in coeffs.items()), s
    )
    return sympy.roots(poly)


def roots_of(b):
    return {sympy.Integer(-form.constant): mult for form, mult in b.factors}


def test_factor_b_roots_match_sympy_on_random_products():
    rng = random.Random(83)
    for _ in range(40):
        constants = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
        lead = rng.choice([1, -1, 2, 6, Fraction(3, 2), Fraction(-5, 4)])
        coeffs = [lead]
        for c in constants:  # multiply by (s + c); coeffs[k] is the coefficient of s^k
            coeffs = [c * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
        coeffs = {k: a for k, a in enumerate(coeffs) if a}
        b, got_lead = _factor_b(coeffs, len(constants))
        assert roots_of(b) == sympy_roots(coeffs)
        assert got_lead == lead


def test_factor_b_roots_match_sympy_on_oracle_output(monkeypatch):
    """The coefficients the operator identity hands to _factor_b, factored twice."""
    seen = []

    def recording(coeffs, expected_degree):
        result = _factor_b(coeffs, expected_degree)
        seen.append((dict(coeffs), result[0]))
        return result

    monkeypatch.setattr(oracle, "_factor_b", recording)
    cases = [instance("1->2", (m, m)) for m in (1, 2, 3)]
    cases += [instance(text, (1, 2, 2)) for text in ("1->2<-3", "1<-2->3", "1->2->3")]
    for q, n in cases:
        for idx in enumerate_invariants(q, n):
            oracle_b_function(q, n, idx)
    assert len(seen) >= len(cases)
    for coeffs, b in seen:
        assert roots_of(b) == sympy_roots(coeffs)


def test_rank_matches_sympy():
    """linalg.rank and det against sympy on random points, their block matrices and Fraction entries."""
    from qbfun import MatrixRep, linalg
    from qbfun.invariants import block_structure

    rng = random.Random(84)
    checked = squares = 0
    while checked < 150:
        q, n, _ = random_instance(rng, rmax=5, nmax=3)
        rep = MatrixRep.random(q, n, rng, -1, 1)
        for i in range(1, q.r):
            j = rng.randint(i + 1, q.r)
            rows = assemble(block_structure(q, i, j), rep)
            if rng.random() < 0.5:
                rows = tuple(tuple(Fraction(x, rng.randint(1, 4)) for x in row) for row in rows)
            matrix = sympy.Matrix([[to_sympy(x, ()) for x in row] for row in rows])
            assert linalg.rank(rows) == matrix.rank()
            if matrix.is_square:
                want = matrix.det()
                assert linalg.det(rows) == Fraction(int(want.p), int(want.q))
                squares += 1
            checked += 1
    assert squares > 20
