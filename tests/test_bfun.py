import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

import reference
from conftest import ALT5, EQUI5, A7, divides, instance, random_instance, reference_chains
from qbfun import (
    DimVector,
    FSet,
    FactoredBFunction,
    LinearForm,
    RankParameter,
    a_function,
    b_from_fset,
    b_multivariate,
    b_one_variable,
    enumerate_invariants,
    evaluate_bracket_product,
    f_set,
    invariant_index,
    parse_quiver,
    superpose,
)
from qbfun.bfun import fset_of_invariant, invariant_fsets, merge_columns
from qbfun.errors import ShapeError


def one_var(constants: dict) -> FactoredBFunction:
    return FactoredBFunction.one_variable(Counter(constants))


def multi(num_labels, *factors) -> FactoredBFunction:
    counts = Counter()
    for support, constant, mult in factors:
        coeffs = tuple(1 if i in support else 0 for i in range(1, num_labels + 1))
        counts[LinearForm(coeffs, constant)] += mult
    return FactoredBFunction.from_counter(num_labels, counts)


def test_b_one_variable_first_example():
    q, n = instance(*EQUI5)
    assert b_one_variable(q, n, invariant_index(q, 1, 5)) == one_var({1: 1, 2: 1, 4: 1, 5: 3, 6: 2})
    assert b_one_variable(q, n, invariant_index(q, 3, 4)) == one_var({1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})


def test_b_one_variable_second_example():
    q, n = instance(*ALT5)
    assert b_one_variable(q, n, invariant_index(q, 1, 4)) == one_var(
        {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 1, 7: 1}
    )
    assert b_one_variable(q, n, invariant_index(q, 2, 5)) == one_var(
        {1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 1, 7: 1}
    )


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_b_one_variable_two_vertex_determinant(m):
    q = parse_quiver("1->2")
    n = DimVector((m, m))
    assert b_one_variable(q, n, invariant_index(q, 1, 2)) == one_var({c: 1 for c in range(1, m + 1)})


def test_b_one_variable_eight_vertex_example():
    q, n = instance("1->2->3<-4->5->6<-7<-8", (1, 2, 2, 2, 3, 3, 3, 2))
    assert b_one_variable(q, n, invariant_index(q, 1, 8)) == one_var({1: 1, 2: 5, 3: 3})


RANK_34 = RankParameter(((2, 0, 0, 0, 0), (5, 0, 0, 0), (6, 6, 0), (6, 0), (2,)))
RANK_15 = RankParameter(((2, 2, 2, 2, 2), (5, 2, 2, 2), (6, 2, 2), (6, 2), (2,)))
RANK_14 = RankParameter(((2, 2, 5, 9, 9), (5, 3, 7, 7), (7, 4, 4), (4, 0), (2,)))
RANK_25 = RankParameter(((2, 0, 5, 7, 9), (5, 5, 7, 9), (7, 2, 4), (4, 2), (2,)))


def test_f_set_from_rank_tables():
    assert f_set(RANK_15).ranges == ((4, 5), (5, 6), (5, 6), (1, 2))
    assert f_set(RANK_34).ranges == (None, None, (1, 6), None)
    assert f_set(RANK_14).ranges == ((4, 5), (5, 7), (1, 4), None)
    assert f_set(RANK_25).ranges == (None, (3, 7), (3, 4), (1, 2))


def test_f_set_all_diagonal_is_empty():
    diagonal = RankParameter(((2, 0, 0), (3, 0), (4,)))
    assert f_set(diagonal).ranges == (None, None)


def test_b_from_fset_matches_formula():
    q, n = instance(*EQUI5)
    assert b_from_fset(f_set(RANK_34)) == b_one_variable(q, n, invariant_index(q, 3, 4))
    assert b_from_fset(f_set(RANK_15)) == b_one_variable(q, n, invariant_index(q, 1, 5))
    qa, na = instance(*ALT5)
    assert b_from_fset(f_set(RANK_14)) == b_one_variable(qa, na, invariant_index(qa, 1, 4))


def test_b_from_empty_fset_is_one():
    assert b_from_fset(FSet(3, (None, None))).factors == ()


def test_superpose_single_column_example():
    """Four one-column ranges merged by equal constant terms."""
    fsets = [
        FSet(2, ((3, 5),)),
        FSet(2, ((4, 5),)),
        FSet(2, (None,)),
        FSet(2, ((1, 5),)),
    ]
    forms = superpose(fsets)
    assert forms == (
        LinearForm((0, 0, 0, 1), 1),
        LinearForm((0, 0, 0, 1), 2),
        LinearForm((1, 0, 0, 1), 3),
        LinearForm((1, 1, 0, 1), 4),
        LinearForm((1, 1, 0, 1), 5),
    )


def test_superpose_column_three_of_first_example():
    fsets = [FSet(2, ((1, 6),)), FSet(2, ((5, 6),))]
    forms = superpose(fsets)
    assert [f.constant for f in forms] == [1, 2, 3, 4, 5, 6]
    assert [f.support for f in forms] == [(1,), (1,), (1,), (1,), (1, 2), (1, 2)]


def test_b_multivariate_first_example():
    """Labels in sorted order: 1 = (1,5), 2 = (3,4)."""
    q, n = instance(*EQUI5)
    expected = multi(
        2,
        ((1,), 1, 1),
        ((1,), 2, 1),
        ((1,), 4, 1),
        ((1,), 5, 2),
        ((1,), 6, 1),
        ((2,), 1, 1),
        ((2,), 2, 1),
        ((2,), 3, 1),
        ((2,), 4, 1),
        ((1, 2), 5, 1),
        ((1, 2), 6, 1),
    )
    assert b_multivariate(q, n) == expected


def test_b_multivariate_second_example():
    q, n = instance(*ALT5)
    expected = multi(
        2,
        ((1,), 1, 1),
        ((1,), 2, 1),
        ((1,), 4, 1),
        ((1,), 5, 1),
        ((2,), 1, 1),
        ((2,), 2, 1),
        ((2,), 3, 1),
        ((2,), 4, 1),
        ((1, 2), 3, 1),
        ((1, 2), 4, 1),
        ((1, 2), 5, 1),
        ((1, 2), 6, 1),
        ((1, 2), 7, 1),
    )
    assert b_multivariate(q, n) == expected


def test_b_multivariate_seven_vertex_example():
    """Labels: 1 = (1,6), 2 = (2,7), 3 = (4,5)."""
    q, n = instance(*A7)
    expected = multi(
        3,
        ((1,), 1, 1),
        ((1,), 2, 1),
        ((1,), 3, 1),
        ((2,), 1, 1),
        ((2,), 3, 1),
        ((3,), 1, 1),
        ((1, 2), 2, 1),
        ((1, 2), 3, 2),
        ((1, 2), 4, 2),
        ((1, 2), 5, 1),
        ((1, 3), 2, 1),
        ((1, 2, 3), 3, 1),
        ((1, 2, 3), 4, 1),
    )
    assert b_multivariate(q, n) == expected


def test_b_multivariate_no_invariants_is_constant_one():
    q = parse_quiver("1->2")
    assert b_multivariate(q, DimVector((1, 2))).factors == ()


def test_evaluate_bracket_product_basics():
    b = multi(1, ((1,), 1, 1))  # [s1 + 1]
    assert evaluate_bracket_product(b, (2,), (0,)) == 2  # 1 * 2
    assert evaluate_bracket_product(b, (0,), (7,)) == 1
    with pytest.raises(ShapeError):
        evaluate_bracket_product(b, (1, 1), (0,))


def test_linear_form_value_is_exact():
    """Ints and Fractions give a Fraction, polynomials a polynomial; a float is refused."""
    from qbfun.poly import MultiPolynomial, VarTable

    form = LinearForm((2, 0, 1), 3)
    for s in ((1, 5, 2), (Fraction(1, 3), 0, Fraction(-1, 2))):
        value = form.value(s)
        assert type(value) is Fraction and value == 2 * Fraction(s[0]) + Fraction(s[2]) + 3
    table = VarTable(("s1", "s2", "s3"))
    s1, s2, s3 = (MultiPolynomial.variable(table, name) for name in table.names)
    assert form.value((s1, s2, s3)) == s1 * 2 + s3 + 3
    for s in ((0.5, 0, 0), (1, 2, 0.1)):
        with pytest.raises(ShapeError):
            form.value(s)
    with pytest.raises(ShapeError):
        evaluate_bracket_product(multi(1, ((1,), 1, 1)), (2,), (0.5,))


@pytest.mark.parametrize("inexact", [0.5, Decimal("0.5"), "2", 1j, None])
def test_linear_form_value_refuses_every_inexact_scalar_alike(inexact):
    """Only ints, Fractions and polynomials: a float, a Decimal and a str meet the same ShapeError."""
    for form in (LinearForm((1,), 2), LinearForm((0, 1), 2)):
        with pytest.raises(ShapeError, match="evaluated exactly"):
            form.value((inexact,) * len(form.coeffs))


def test_bracket_specialization_matches_one_variable():
    q, n = instance(*EQUI5)
    b = b_multivariate(q, n)
    invs = enumerate_invariants(q, n)
    for i, idx in enumerate(invs, start=1):
        bi = b_one_variable(q, n, idx)
        for sigma in (0, 1, 2):
            m = tuple(1 if k == i else 0 for k in range(1, len(invs) + 1))
            s = tuple(Fraction(sigma) if k == i else Fraction(0) for k in range(1, len(invs) + 1))
            assert evaluate_bracket_product(b, m, s) == evaluate_bracket_product(bi, (1,), (sigma,))


def test_fset_of_invariant_agrees_with_rank_route():
    from qbfun import diagram_to_matrices, exact_diagram, fset_of_invariant, rank_parameter

    rng = random.Random(30)
    for _ in range(30):
        q, n, invs = random_instance(rng)
        for idx in invs:
            rep = diagram_to_matrices(q, n, exact_diagram(q, n, idx))
            assert fset_of_invariant(q, n, idx) == f_set(rank_parameter(q, n, rep))


def test_specialize_label_random():
    rng = random.Random(31)
    for _ in range(40):
        q, n, invs = random_instance(rng)
        b = b_multivariate(q, n)
        for i, idx in enumerate(invs, start=1):
            assert b.specialize_label(i) == b_one_variable(q, n, idx)


def test_degree_matches_block_dimension_bookkeeping():
    """deg b = sum over columns of the walk level = total connection count."""
    from qbfun import exact_diagram

    rng = random.Random(32)
    for _ in range(25):
        q, n, invs = random_instance(rng)
        for idx in invs:
            assert b_one_variable(q, n, idx).degree() == sum(exact_diagram(q, n, idx).edge_counts())


def test_all_constants_positive_random():
    rng = random.Random(33)
    for _ in range(40):
        q, n, invs = random_instance(rng)
        for form, _ in b_multivariate(q, n).factors:
            assert form.constant >= 1
        for idx in invs:
            for form, _ in b_one_variable(q, n, idx).factors:
                assert form.constant >= 1


def test_a_function_first_example():
    """Label 1 = (1,5) has 6 own arrows, label 2 = (3,4) has 4; 2 shared."""
    q, n = instance(*EQUI5)
    a = a_function(q, n)
    table = {form.support: count for form, count in a.factors}
    assert table == {(1,): 6, (2,): 4, (1, 2): 2}
    assert dict(a.monomial((1, 0))) == {
        LinearForm((1, 0), 0): 6,
        LinearForm((1, 1), 0): 2,
    }
    assert dict(a.monomial((1, 1))) == {
        LinearForm((1, 0), 0): 6,
        LinearForm((0, 1), 0): 4,
        LinearForm((1, 1), 0): 4,
    }


def test_a_function_second_example():
    q, n = instance(*ALT5)
    a = a_function(q, n)
    table = {form.support: count for form, count in a.factors}
    assert table == {(1,): 4, (2,): 4, (1, 2): 5}


def test_a_function_homogeneity():
    """a_{eps_i} is homogeneous of degree deg f_i."""
    rng = random.Random(34)
    for _ in range(25):
        q, n, invs = random_instance(rng)
        a = a_function(q, n)
        for i, idx in enumerate(invs, start=1):
            degree = sum(count for _, count in a.eps_exponents(i))
            assert degree == b_one_variable(q, n, idx).degree()


def test_localization_divisibility_worked_examples():
    """Local b-functions of the worked slices divide the matching one-variable b."""
    from qbfun import restricted_invariant_shape

    cases = [
        (EQUI5, (3, 4), (1, 5), {1: 1, 2: 1, 4: 1, 5: 2, 6: 1}),
        (EQUI5, (1, 5), (3, 4), {1: 1, 2: 1, 3: 1, 4: 1}),
        (ALT5, (1, 4), (2, 5), {1: 1, 2: 1, 3: 1, 4: 1}),
    ]
    for (text, dims), slice_pq, f_pq, expected in cases:
        q, n = instance(text, dims)
        shape = restricted_invariant_shape(
            q, n, invariant_index(q, *slice_pq), invariant_index(q, *f_pq)
        )
        local = shape.local_b()
        assert local == one_var(expected)
        full = b_one_variable(q, n, invariant_index(q, *f_pq))
        assert divides(local, full)


def test_merge_columns_matches_the_reference():
    """The one sweep yields what the column-by-column merge yielded.

    All F-sets of each chain of reference_chains() together, each one
    alone, and the empty list; F-sets of different lengths still raise.
    """
    for q, n in reference_chains():
        fsets = invariant_fsets(q, n)
        for group in [fsets, *([fs] for fs in fsets), []]:
            assert list(merge_columns(group)) == list(reference.merge_columns(group)), (str(q), n.entries)
    q, n = instance(*EQUI5)
    short = fset_of_invariant(parse_quiver("1->2"), DimVector((2, 2)), invariant_index(parse_quiver("1->2"), 1, 2))
    for merge in (merge_columns, reference.merge_columns):
        with pytest.raises(ShapeError):
            list(merge([*invariant_fsets(q, n), short]))


def test_factors_need_a_nonempty_support():
    """A factor whose coefficients are all zero is refused, as one with constant 0 is."""
    with pytest.raises(ShapeError):
        FactoredBFunction(2, ((LinearForm((0, 0), 3), 1),))
    with pytest.raises(ShapeError):
        FactoredBFunction(2, ((LinearForm((1, 0), 0), 1),))
    form = LinearForm((0, 1, 1), 4)
    assert FactoredBFunction(3, ((form, 2),)).factors == ((form, 2),)
    assert form.sort_key() == (2, (2, 3), 4)


def test_one_variable_matches_the_from_counter_build():
    """Seeded constant counts, empty included: the same factors as from_counter sorted them."""
    rng = random.Random(2514)
    for _ in range(400):
        constants = Counter({rng.randint(1, 40): rng.randint(1, 6) for _ in range(rng.randint(0, 12))})
        assert FactoredBFunction.one_variable(constants) == reference.one_variable(constants)


@pytest.mark.parametrize(
    "constants",
    [{3: 0}, {3: -2}, {0: 1}, {-1: 1}, {2: 1, 0: 2}, {5: 1, 2: 0}, {4: 2, -3: 0}, {1: 1, 7: -1}],
)
def test_one_variable_refuses_what_the_from_counter_build_refused(constants):
    """A zero or negative multiplicity, or a constant below 1, raises the same ShapeError."""
    with pytest.raises(ShapeError) as want:
        reference.one_variable(Counter(constants))
    with pytest.raises(ShapeError, match=re.escape(str(want.value))):
        FactoredBFunction.one_variable(Counter(constants))


def test_b_from_fset_matches_a_per_member_count():
    """Every F-set of reference_chains(), and F-sets with no range or every range."""
    checked = 0
    for q, n in reference_chains():
        fsets = invariant_fsets(q, n)
        fsets.append(FSet(q.r, (None,) * (q.r - 1)))
        fsets.append(FSet(q.r, tuple((1, n.at(k)) for k in range(2, q.r + 1))))
        for fs in fsets:
            assert b_from_fset(fs) == reference.b_from_fset(fs)
            checked += 1
    assert checked > 700
