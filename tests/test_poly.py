"""The packed-monomial kernel against a tuple-exponent / Fraction reference.

The reference restates the textbook representation in a few lines: a dict
from exponent tuples to Fraction coefficients, with lexicographic order on
the tuples.  Every ring operation of ``MultiPolynomial`` must agree with it
on seeded random sparse polynomials, and the guard bits must stop an
exponent at 2^15 - 1 instead of carrying into the next variable.
"""

import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import constant_value
from qbfun.errors import BudgetExceededError, DiagnosticError, QbfunError, ShapeError
from qbfun.poly import MAX_EXPONENT, Accumulator, MultiPolynomial, VarTable

NAMES = ("x", "y", "z")
TABLE = VarTable(NAMES)
X, Y, Z = (MultiPolynomial.variable(TABLE, name) for name in NAMES)
CASES = 300


# -- the reference ------------------------------------------------------------

def ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(u + v for u, v in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return ref_clean(out)


def ref_pow(a, k):
    out = {(0,) * len(NAMES): Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_derivative(a, v):
    out = {}
    for e, c in a.items():
        if e[v]:
            out[e[:v] + (e[v] - 1,) + e[v + 1:]] = c * e[v]
    return out


def ref_eval(a, values):
    total = Fraction(0)
    for e, c in a.items():
        term = c
        for value, k in zip(values, e):
            term *= Fraction(value) ** k
        total += term
    return total


def ref_div(a, b):
    """Divide lex leaders until the remainder is zero; raise if a leader does not divide."""
    lead_b = max(b)
    rem, quot = dict(a), {}
    while rem:
        lead = max(rem)
        exp = tuple(u - v for u, v in zip(lead, lead_b))
        if min(exp) < 0:
            raise DiagnosticError("not exact")
        coef = rem[lead] / b[lead_b]
        quot[exp] = coef
        rem = ref_add(rem, {tuple(u + v for u, v in zip(exp, e)): -coef * c for e, c in b.items()})
    return quot


def ref_str(a):
    if not a:
        return "0"
    parts = []
    for e in sorted(a, reverse=True):
        c = a[e]
        body = "*".join(f"{NAMES[i]}^{k}" if k > 1 else NAMES[i] for i, k in enumerate(e) if k)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


def packed(ref):
    return MultiPolynomial.from_monomials(TABLE, ref.items())


def unpacked(poly):
    return dict(poly.monomials())


# -- random inputs ------------------------------------------------------------------

def random_coefficient(rng, integral=False):
    if integral or rng.random() < 0.6:
        return rng.randint(-6, 6)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def random_reference(rng, integral=False, nonzero=False):
    while True:
        terms = {
            tuple(rng.randint(0, 3) for _ in NAMES): random_coefficient(rng, integral)
            for _ in range(rng.randint(0, 6))
        }
        terms = ref_clean(terms)
        if terms or not nonzero:
            return terms


# -- properties -------------------------------------------------------------------

def test_ring_operations_match_reference():
    rng = random.Random(71)
    for _ in range(CASES):
        a, b, k = random_reference(rng), random_reference(rng), rng.randint(0, 3)
        pa, pb = packed(a), packed(b)
        assert unpacked(pa) == a
        assert unpacked(pa + pb) == ref_add(a, b)
        assert unpacked(pa - pb) == ref_add(a, {e: -c for e, c in b.items()})
        assert unpacked(pa * pb) == ref_mul(a, b)
        assert unpacked(pa ** k) == ref_pow(a, k)
        assert unpacked(pa * Fraction(3, 2)) == ref_mul(a, {(0, 0, 0): Fraction(3, 2)})


def test_derivative_eval_and_str_match_reference():
    rng = random.Random(72)
    for _ in range(CASES):
        a = random_reference(rng)
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in NAMES]
        pa = packed(a)
        for v in range(len(NAMES)):
            assert unpacked(pa.derivative(v)) == ref_derivative(a, v)
        assert pa.eval_at(values) == ref_eval(a, values)
        assert str(pa) == ref_str(a)


def test_packed_order_is_lex_order():
    rng = random.Random(73)
    for _ in range(CASES):
        a = random_reference(rng, nonzero=True)
        pa = packed(a)
        assert [e for e, _ in pa.monomials()] == sorted(a)
        lead = max(pa.terms)
        assert pa.table._unpack(lead) == max(a)
        assert pa.terms[lead] == a[max(a)]


def test_exact_division_matches_reference():
    rng = random.Random(74)
    for _ in range(CASES):
        a, b, r = random_reference(rng), random_reference(rng, nonzero=True), random_reference(rng)
        pa, pb = packed(a), packed(b)
        assert (pa * pb).exact_div(pb) == pa
        dividend = ref_add(ref_mul(a, b), r)
        try:
            expected = ref_div(dividend, b)
        except DiagnosticError:
            with pytest.raises(DiagnosticError):
                packed(dividend).exact_div(pb)
        else:
            assert unpacked(packed(dividend).exact_div(pb)) == expected


def test_integer_inputs_keep_integer_coefficients():
    rng = random.Random(75)
    for _ in range(CASES):
        pa, pb = packed(random_reference(rng, True)), packed(random_reference(rng, True))
        for poly in (pa + pb, pa - pb, pa * pb, pa ** 2, pa.derivative(0), (pa * pb).exact_div(pb or 1)):
            assert all(type(c) is int for c in poly.terms.values())


def test_quotient_coefficients_are_fractions_only_when_not_integral():
    two = (X * 4 + Y * 6).exact_div(2 * X + 3 * Y)
    assert two == 2 and type(constant_value(two)) is int
    half = (X * 2).exact_div(X * 4)
    assert half == Fraction(1, 2) and type(constant_value(half)) is Fraction


def test_scalars_are_exact_rationals_only():
    """Ints and Fractions act as constants; a float, a Decimal or a string is refused, never rounded."""
    for bad in (lambda: X * 1.5, lambda: X + Decimal("0.5"), lambda: X * "2", lambda: 1.5 * X, lambda: X - 0.5):
        with pytest.raises(TypeError):
            bad()
    assert (MultiPolynomial.const(TABLE, 1) == 1.0) is False
    assert (MultiPolynomial.const(TABLE, 1) == 1) is True
    (key,) = X.terms
    assert (X * Fraction(1, 2)).terms == {key: Fraction(1, 2)}
    assert (X * Fraction(4, 2)).terms == {key: 2} and type((X * Fraction(4, 2)).terms[key]) is int
    assert (X == 0) is False and (MultiPolynomial.zero(TABLE) == 0) is True
    assert (X * 0).is_zero() and (X * True).terms == X.terms


def test_non_divisible_pairs_raise():
    for dividend, divisor in ((X * Y + 1, X), (X, X + 1), (X, Y), (X * Y ** 2, Y ** 3), (Z, Y * Z)):
        with pytest.raises(DiagnosticError):
            dividend.exact_div(divisor)
    with pytest.raises(DiagnosticError):
        X.exact_div(MultiPolynomial.zero(TABLE))


# -- the guard bits ------------------------------------------------------------------

@pytest.mark.parametrize("v", range(len(NAMES)))
def test_largest_exponent_multiplies_exactly(v):
    var = MultiPolynomial.variable(TABLE, NAMES[v])
    top = var ** MAX_EXPONENT
    exps = [0, 0, 0]
    exps[v] = MAX_EXPONENT
    assert top.monomials() == [(tuple(exps), 1)]
    others = [MultiPolynomial.variable(TABLE, name) ** MAX_EXPONENT for name in NAMES if name != NAMES[v]]
    full = top * others[0] * others[1]
    assert full.monomials() == [((MAX_EXPONENT,) * 3, 1)]
    assert (top * 3).derivative(v).monomials() == [(tuple(e - (i == v) for i, e in enumerate(exps)), 3 * MAX_EXPONENT)]


@pytest.mark.parametrize("v", range(len(NAMES)))
def test_one_step_past_the_largest_exponent_raises(v):
    var = MultiPolynomial.variable(TABLE, NAMES[v])
    top = var ** MAX_EXPONENT
    with pytest.raises(BudgetExceededError) as info:
        top * var
    assert isinstance(info.value, QbfunError) and info.value.actual == MAX_EXPONENT + 1
    with pytest.raises(BudgetExceededError):
        var ** (MAX_EXPONENT + 1)
    with pytest.raises(BudgetExceededError):
        top * (var + 1)  # the overflowing product is not the leading one
    exps = [0, 0, 0]
    exps[v] = MAX_EXPONENT + 1
    with pytest.raises(BudgetExceededError):
        MultiPolynomial.from_monomials(TABLE, [(tuple(exps), 1)])


def test_exact_division_guards_its_products():
    dividend = X * Y ** MAX_EXPONENT
    assert dividend.exact_div(X) == Y ** MAX_EXPONENT
    with pytest.raises(BudgetExceededError):
        dividend.exact_div(X + Y)  # the quotient's first step adds y^1 to y^MAX


def test_key_format_stays_inside_poly():
    """Only qbfun.poly reads packed keys; other modules go through monomials()."""
    src = Path(__file__).resolve().parent.parent / "src" / "qbfun"
    readers = [path.name for path in sorted(src.glob("*.py")) if path.name != "poly.py" and ".terms" in path.read_text()]
    assert readers == []


# -- the ratio of proportional polynomials ---------------------------------------------

def test_ratio_reads_an_integer_or_a_fraction():
    rng = random.Random(77)
    for _ in range(CASES // 3):
        p = packed(random_reference(rng, nonzero=True))
        for beta in (1, 3, -7, Fraction(2, 3), Fraction(-5, 4)):
            ratio = (p * beta).ratio(p)
            assert ratio == beta and type(ratio) is type(beta)
    assert (X * 4 + Y * 6).ratio(X * 2 + Y * 3) == 2
    assert (X * 2 + 1).ratio(X * 4 + 2) == Fraction(1, 2)


def test_ratio_is_none_unless_proportional():
    p = X * 2 + Y * 3 - 1
    for other in (
        X * 4 + Y * 6 - 3,  # the same support, coefficients not proportional
        X * 4 + Y * 6,  # a key of p missing
        Y * 6 - 2 + Z,  # as many keys, but x is missing and z is extra
        X * 4 + Y * 6 - 2 + Z,  # an extra key
        MultiPolynomial.zero(TABLE),
    ):
        assert other.ratio(p) is None
        assert p.ratio(other) is None
    with pytest.raises(ShapeError):
        p.ratio(MultiPolynomial.variable(VarTable(("x", "y", "w")), "x"))


def test_ratio_agrees_with_exact_division_on_the_gate_family_walks():
    """On every layer Q_k of the gate family's walks, ratio reads the beta_k that exact division does.

    constant_value(exact_div(...)) is the reference.  The walks of the oracle workload: f(d/dx) f^{s+1} per invariant, and
    prod_i f_i(d/dx) prod_i f_i^{s_i+1} per instance with several invariants
    (on two and three vertices; on four, most outgrow the state budget).
    """
    from conftest import oracle_family
    from qbfun import Budget, enumerate_invariants
    from qbfun.oracle import _operator_layers, expand_invariant, variable_table

    checked = 0
    for q, n in oracle_family():
        table = variable_table(q, n)
        fs = [expand_invariant(q, n, idx, table) for idx in enumerate_invariants(q, n)]
        walks = [(f, [f]) for f in fs]
        if len(fs) > 1 and q.r <= 3:
            operator = MultiPolynomial.const(table, 1)
            for f in fs:
                operator = operator * f
            walks.append((operator, fs))
        for operator, invariants in walks:
            for kvec, layer in _operator_layers(operator, invariants, (1,) * len(invariants), Budget()).items():
                power = MultiPolynomial.const(table, 1)
                for f, k in zip(invariants, kvec):
                    power = power * f ** (k - 1)
                beta = layer.ratio(power)
                assert beta is not None and beta == constant_value(layer.exact_div(power))
                checked += 1
    assert checked > 2000


# -- the accumulator ------------------------------------------------------------------

def test_accumulator_matches_sum_of_products():
    rng = random.Random(76)
    for _ in range(CASES // 3):
        pairs = [(random_reference(rng), random_reference(rng)) for _ in range(rng.randint(0, 4))]
        acc = Accumulator(TABLE)
        expected, ref = MultiPolynomial.zero(TABLE), {}
        for a, b in pairs:
            acc.add_product(packed(a), packed(b))
            expected = expected + packed(a) * packed(b)
            ref = ref_add(ref, ref_mul(a, b))
        total = acc.result()
        assert total == expected
        assert unpacked(total) == ref
        assert acc.result().is_zero()  # result() leaves the accumulator empty


def test_accumulator_total_cancellation_is_zero():
    a, b = X * 3 + Y * Z - 2, X - Z ** 2
    acc = Accumulator(TABLE)
    acc.add_product(a, b)
    acc.add_product(-a, b)
    assert acc.num_terms() == 0
    total = acc.result()
    assert total.is_zero() and total == 0 and total.num_terms() == 0


def test_accumulator_held_counts_the_cancelled_keys():
    """held() is the key count the budgets read: every key summed, cancelled or not."""
    a, b = X * 3 + Y * Z - 2, X - Z ** 2
    acc = Accumulator(TABLE)
    acc.add_product(a, b)
    assert acc.held() == acc.num_terms() == (a * b).num_terms()
    acc.add_product(-a, b)
    assert acc.held() == (a * b).num_terms() and acc.num_terms() == 0
    acc.result()
    assert acc.held() == 0


def test_accumulator_keeps_fraction_coefficients():
    acc = Accumulator(TABLE)
    acc.add_product(X * Fraction(1, 2), Y * Fraction(2, 3))
    acc.add_product(X, Y * Fraction(-1, 3) + Fraction(1, 4))
    assert acc.result().monomials() == [((1, 0, 0), Fraction(1, 4))]


def test_accumulator_rejects_another_table():
    other = MultiPolynomial.variable(VarTable(("x", "y", "w")), "x")
    acc = Accumulator(TABLE)
    for a, b in ((X, other), (other, X)):
        with pytest.raises(ShapeError):
            acc.add_product(a, b)


def test_accumulator_guards_every_key_summed():
    top = X ** MAX_EXPONENT
    acc = Accumulator(TABLE)
    acc.add_product(top, X + 1)
    acc.add_product(-top, X)  # the overflowing key cancels, yet was summed
    with pytest.raises(BudgetExceededError) as info:
        acc.result()
    assert info.value.what == "exponent" and info.value.actual == MAX_EXPONENT + 1


def test_accumulator_limit_stops_after_one_left_term():
    a = sum((X ** k for k in range(5)), MultiPolynomial.zero(TABLE))
    b = Y + 1
    acc = Accumulator(TABLE)
    acc.add_product(a, b, limit=10)  # exactly at the limit is fine
    assert acc.num_terms() == 10
    acc = Accumulator(TABLE)
    with pytest.raises(BudgetExceededError) as info:
        acc.add_product(a, b, limit=3)
    assert info.value.what == "state terms"
    assert (info.value.actual, info.value.limit) == (4, 3)


def test_tables_with_the_same_names_are_equal():
    twin = VarTable(NAMES)
    assert twin is not TABLE and twin == TABLE and hash(twin) == hash(TABLE)
    assert VarTable(("x", "y", "w")) != TABLE and VarTable(NAMES[:2]) != TABLE
    assert MultiPolynomial.variable(twin, "y") == Y
    assert MultiPolynomial.variable(VarTable(("w",)), "w") != MultiPolynomial.variable(VarTable(("x",)), "x")


def test_copied_polynomials_equal_and_add_to_their_originals():
    from qbfun import DimVector, parse_quiver
    from qbfun.oracle import apply_bernstein_multi

    result = apply_bernstein_multi(parse_quiver("1->2"), DimVector((2, 2)), (1,))
    for clone in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert clone == result
        b, copied = result.b, clone.b
        assert copied.table is not b.table and copied == b
        assert copied + b == 2 * b and b + copied == 2 * b and (copied - b).is_zero()
        acc = Accumulator(b.table)
        acc.add_product(copied, b)
        acc.add_product(b, copied)
        assert acc.result() == 2 * b * b


def test_guard_is_the_top_bit_of_every_field():
    """The guard, built in one step, equals the sum of each field's top bit."""
    from qbfun.poly import FIELD_BITS

    for width in range(41):
        table = VarTable(f"v{k}" for k in range(width))
        assert table.guard == sum(1 << (shift + FIELD_BITS - 1) for shift in table.shifts), width
