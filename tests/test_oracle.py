import random
from collections import Counter
from fractions import Fraction
from itertools import product
from time import perf_counter

import pytest

import reference
from conftest import A7, ALT5, EQUI5, ORACLE_OVER_BUDGET, instance, oracle_family, random_instance
from qbfun import (
    Budget,
    DimVector,
    apply_bernstein_multi,
    a_function_check,
    b_multivariate,
    b_one_variable,
    dual_invariant,
    enumerate_invariants,
    evaluate_bracket_product,
    expand_invariant,
    grad_log_check,
    invariant_index,
    oracle_b_function,
    parse_quiver,
)
from qbfun.bfun import FactoredBFunction
from qbfun.errors import BudgetExceededError, OracleIdentityError, QuiverParseError
from qbfun.oracle import MAX_OPERATOR_DEGREE, _bernstein_b, _factor_b, apply_bernstein, grad_log_invariant, variable_table
from qbfun.poly import MultiPolynomial, VarTable


def b_value(b, sigma):
    return evaluate_bracket_product(b, (1,) * b.num_labels, (sigma,) * b.num_labels)


def test_expand_two_by_two_determinant():
    q = parse_quiver("1->2")
    n = DimVector((2, 2))
    f = expand_invariant(q, n, invariant_index(q, 1, 2))
    assert f.num_terms() == 2
    assert f.total_degree() == 2
    names = f.table.names
    term_strs = str(f)
    assert "x1_1_1" in term_strs and "x1_2_2" in term_strs
    assert names == ("x1_1_1", "x1_1_2", "x1_2_1", "x1_2_2")


def test_expand_path_product():
    q = parse_quiver("1->2->3")
    n = DimVector((1, 2, 1))
    f = expand_invariant(q, n, invariant_index(q, 1, 3))
    # x2_1_1*x1_1_1 + x2_1_2*x1_2_1
    assert f.num_terms() == 2
    assert f.total_degree() == 2


def test_expand_two_sources_one_sink():
    q = parse_quiver("1->2<-3")
    n = DimVector((1, 2, 1))
    f = expand_invariant(q, n, invariant_index(q, 1, 3))
    assert f.num_terms() == 2
    assert f.total_degree() == 2


def test_dual_invariant_degree_matches():
    rng = random.Random(51)
    for _ in range(10):
        q, n, invs = random_instance(rng, rmax=4, nmax=2)
        table = variable_table(q, n)
        for idx in invs:
            try:
                f = expand_invariant(q, n, idx, table)
            except BudgetExceededError:
                continue
            fstar = dual_invariant(q, n, idx, table)
            assert fstar.total_degree() == f.total_degree()


def test_bernstein_single_variable():
    q = parse_quiver("1->2")
    n = DimVector((1, 1))
    result = oracle_b_function(q, n, invariant_index(q, 1, 2))
    assert result.b == b_one_variable(q, n, invariant_index(q, 1, 2))
    assert [f.constant for f, _ in result.b.factors] == [1]


@pytest.mark.parametrize("m", [2, 3])
def test_bernstein_classical_determinant(m):
    q = parse_quiver("1->2")
    n = DimVector((m, m))
    result = oracle_b_function(q, n, invariant_index(q, 1, 2))
    assert result.b == b_one_variable(q, n, invariant_index(q, 1, 2))
    assert result.constant == 1


@pytest.mark.parametrize("text", ["1->2->3", "1->2<-3", "1<-2->3", "1<-2<-3"])
def test_bernstein_three_vertices(text):
    q = parse_quiver(text)
    n = DimVector((1, 2, 1))
    (idx,) = enumerate_invariants(q, n)
    result = oracle_b_function(q, n, idx)
    assert result.b == b_one_variable(q, n, idx)


def test_bernstein_oriented_asymmetric_dims():
    q = parse_quiver("1->2<-3")
    for dims in ((1, 2, 2), (2, 2, 1), (1, 2, 2)):
        n = DimVector(dims)
        for idx in enumerate_invariants(q, n):
            result = oracle_b_function(q, n, idx)
            assert result.b == b_one_variable(q, n, idx)


def test_bernstein_roots_are_negative_rationals():
    rng = random.Random(52)
    done = 0
    while done < 8:
        q, n, invs = random_instance(rng, rmax=3, nmax=3)
        for idx in invs:
            try:
                result = oracle_b_function(q, n, idx)
            except BudgetExceededError:
                continue
            for form, _ in result.b.factors:
                assert form.constant >= 1
            done += 1


def test_bernstein_multi_zero_shift_is_one():
    q, n = instance("1->2->3->4", (1, 2, 2, 1))
    result = apply_bernstein_multi(q, n, (0, 0))
    assert result.ok and result.b == 1


def test_bernstein_multi_single_label_square():
    """l = 1 at shift 2: the double bracket telescopes to b(s) b(s+1).

    Composing with b_{f^2}(s) = b_(2)(2s), this is the square-power
    identity f*^2(d/dx) f^{s+2} = b(s) b(s+1) f^s.
    """
    q = parse_quiver("1->2")
    n = DimVector((2, 2))
    result = apply_bernstein_multi(q, n, (2,))
    assert result.ok and result.constant == 1
    b = b_multivariate(q, n)
    b1 = b_one_variable(q, n, invariant_index(q, 1, 2))
    for sigma in (0, 1, 2, 3):
        lhs = evaluate_bracket_product(b, (2,), (Fraction(sigma),))
        rhs = b_value(b1, sigma) * b_value(b1, sigma + 1)
        assert lhs == rhs


def test_bernstein_multi_two_labels():
    q, n = instance("1->2->3->4", (1, 2, 2, 1))
    assert len(enumerate_invariants(q, n)) == 2
    for shifts in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2)):
        result = apply_bernstein_multi(q, n, shifts)
        assert result.ok, shifts
        assert result.constant == 1


def test_grad_log_single_cell():
    q = parse_quiver("1->2")
    n = DimVector((1, 1))
    grads = grad_log_invariant(q, n, invariant_index(q, 1, 2))
    assert grads[0] == ((Fraction(1),),)


def test_grad_log_equioriented_truncated_identities():
    """The gradient at the generic point is the exact diagram's matrices."""
    q, n = instance(*EQUI5)
    idx = invariant_index(q, 1, 5)
    grads = grad_log_invariant(q, n, idx)

    def e_block(m, k, h):
        return tuple(tuple(1 if i == j and i < h else 0 for j in range(k)) for i in range(m))

    assert grads[0] == e_block(5, 2, 2)
    assert grads[1] == e_block(6, 5, 2)
    assert grads[2] == e_block(6, 6, 2)
    assert grads[3] == e_block(2, 6, 2)


def test_grad_log_check_worked_examples():
    for text, dims in (EQUI5, ALT5):
        q, n = instance(text, dims)
        for idx in enumerate_invariants(q, n):
            assert grad_log_check(q, n, idx).ok


def test_grad_log_check_random():
    rng = random.Random(53)
    for _ in range(20):
        q, n, invs = random_instance(rng, rmax=6, nmax=5)
        for idx in invs:
            assert grad_log_check(q, n, idx).ok


def test_grad_log_in_ints_matches_the_fraction_inverse_route():
    """Every invariant of the criterion-5 family and of the worked examples: the same Fraction matrices."""
    instances = oracle_family() + [instance(text, dims) for text, dims in (EQUI5, ALT5, A7)]
    checked = 0
    for q, n in instances:
        for idx in enumerate_invariants(q, n):
            got = grad_log_invariant(q, n, idx)
            assert got == reference.grad_log_invariant(q, n, idx), (q, n, idx)
            assert all(type(x) is Fraction for g in got for row in g for x in row)
            checked += 1
    assert checked > 900


def test_factor_b_reads_ints_and_fractions_alike():
    """_factor_b divides by the leading coefficient with % and //: a Fraction or negative lead, or a refusal."""
    b = FactoredBFunction.one_variable(Counter({1: 1, 2: 1}))  # (s+1)(s+2) = s^2 + 3s + 2
    for lead in (1, 3, -2, Fraction(1, 2), Fraction(-3, 4)):
        coeffs = {0: 2 * lead, 1: 3 * lead, 2: lead}
        got, constant = _factor_b(coeffs, 2)
        assert got == b and constant == lead and type(constant) is type(lead)
    got, constant = _factor_b({0: Fraction(4), 1: Fraction(6), 2: Fraction(2)}, 2)
    assert got == b and constant == 2
    with pytest.raises(OracleIdentityError, match="monic b-function has non-integer coefficients"):
        _factor_b({0: 2, 1: 3, 2: 2}, 2)
    with pytest.raises(OracleIdentityError, match="monic b-function has non-integer coefficients"):
        _factor_b({0: Fraction(1, 3), 1: 1, 2: Fraction(1, 2)}, 2)


def test_a_function_check_worked_examples():
    for text, dims in (EQUI5, ALT5):
        q, n = instance(text, dims)
        verdict = a_function_check(q, n)
        assert verdict.ok, verdict.details


def test_a_function_check_single_determinant():
    """A_2 with n = (k, k): the monomial is s1^k."""
    for k in (1, 2, 3):
        q = parse_quiver("1->2")
        n = DimVector((k, k))
        verdict = a_function_check(q, n)
        assert verdict.ok
        from qbfun import a_function

        a = a_function(q, n)
        assert [(form.support, count) for form, count in a.factors] == [((1,), k)]


def test_budgets_abort_with_structured_error():
    q = parse_quiver("1->2")
    n = DimVector((3, 3))
    idx = invariant_index(q, 1, 2)
    with pytest.raises(BudgetExceededError):
        expand_invariant(q, n, idx, budget=Budget(invariant_terms=2))
    with pytest.raises(BudgetExceededError):
        expand_invariant(q, n, idx, budget=Budget(matrix_size=2))
    with pytest.raises(BudgetExceededError):
        oracle_b_function(q, n, idx, Budget(state_terms=3))


def test_operator_degree_limit_stops_multi_before_the_operator_is_built():
    """sum m_i * deg f_i past MAX_OPERATOR_DEGREE raises with its own what; the criterion-5 box stays inside it."""
    q, n = instance("1->2->3->4", (1, 2, 2, 1))
    degrees = [expand_invariant(q, n, idx).total_degree() for idx in enumerate_invariants(q, n)]
    shifts = (MAX_OPERATOR_DEGREE // degrees[0] + 1, 0)
    with pytest.raises(BudgetExceededError) as info:
        apply_bernstein_multi(q, n, shifts)
    assert info.value.what == "operator degree"
    assert (info.value.actual, info.value.limit) == (shifts[0] * degrees[0], MAX_OPERATOR_DEGREE)
    widest = 0
    for q, n in oracle_family():
        table = variable_table(q, n)
        widest = max(widest, sum(2 * expand_invariant(q, n, idx, table).total_degree() for idx in enumerate_invariants(q, n)))
    assert widest == 18 < MAX_OPERATOR_DEGREE  # m in {0,1,2}^k


def test_budget_parsing():
    assert Budget.parse("500") == Budget(state_terms=500)
    assert Budget.parse("100,900") == Budget(invariant_terms=100, state_terms=900)
    assert Budget.parse("100,900,4") == Budget(100, 900, 4)


def test_budget_parsing_rejects_non_positive_and_junk():
    for text in ("-5", "0,0,0", "100,0", "abc", "1,2,3,4", ""):
        with pytest.raises(QuiverParseError):
            Budget.parse(text)


def test_generic_point_degree_equals_oracle_degree():
    """Expanded degree agrees with the factor count of the b-function."""
    rng = random.Random(54)
    done = 0
    while done < 10:
        q, n, invs = random_instance(rng, rmax=3, nmax=3)
        for idx in invs:
            try:
                f = expand_invariant(q, n, idx)
            except BudgetExceededError:
                continue
            assert f.total_degree() == b_one_variable(q, n, idx).degree()
            done += 1


@pytest.mark.parametrize(
    "text,dims", sorted(ORACLE_OVER_BUDGET), ids=[f"{t}:{''.join(map(str, d))}" for t, d in sorted(ORACLE_OVER_BUDGET)]
)
def test_oracle_family_exclusions_exceed_the_state_budget(text, dims):
    """Each chain left out of the oracle gate family fails only on the budget.

    Its (1,4) invariant outgrows the default state-terms budget; every other
    invariant still agrees with the closed formula.  Once the operator
    routine fits these, they belong back in the family.
    """
    q, n = instance(text, dims)
    for idx in enumerate_invariants(q, n):
        if (idx.p, idx.q) == (1, 4):
            with pytest.raises(BudgetExceededError) as info:
                oracle_b_function(q, n, idx)
            assert info.value.what == "state terms"
        else:
            assert oracle_b_function(q, n, idx).b == b_one_variable(q, n, idx)


@pytest.mark.parametrize(
    "text,dims",
    [("1->2->3<-4", (2, 3, 3, 1)), ("1->2<-3<-4", (1, 3, 3, 2)), ("1<-2->3->4", (1, 3, 3, 2)), ("1<-2<-3->4", (2, 3, 3, 1))],
)
def test_state_budget_stops_while_the_state_is_built(text, dims):
    """The state-terms check runs as contributions merge, not after a whole derivative.

    On these chains no single contribution is large, so the abort comes
    within twice the budget instead of at the full next state (133,875 terms).
    """
    q, n = instance(text, dims)
    with pytest.raises(BudgetExceededError) as info:
        oracle_b_function(q, n, invariant_index(q, 1, 4))
    assert info.value.what == "state terms"
    assert info.value.actual < 2 * info.value.limit


@pytest.mark.parametrize(
    "text,dims",
    [("1->2->3->4", (2, 3, 3, 2)), ("1->2<-3->4", (2, 3, 3, 2)), ("1<-2->3<-4", (2, 3, 3, 2)), ("1<-2<-3<-4", (2, 3, 3, 2))],
)
def test_state_budget_stops_inside_a_large_product(text, dims):
    """The state-terms check also runs between the terms of one product.

    On these chains a single layer contribution has more than 100k terms,
    so a check after each whole product overshoots to 126k-142k terms.
    """
    q, n = instance(text, dims)
    with pytest.raises(BudgetExceededError) as info:
        oracle_b_function(q, n, invariant_index(q, 1, 4))
    assert info.value.what == "state terms"
    assert info.value.actual < 2 * info.value.limit


def test_dual_invariant_budgets_abort_with_structured_error():
    """dual_invariant stops at the same matrix-size and invariant-terms budgets as expand_invariant."""
    q = parse_quiver("1->2")
    n = DimVector((3, 3))
    idx = invariant_index(q, 1, 2)
    with pytest.raises(BudgetExceededError) as info:
        dual_invariant(q, n, idx, budget=Budget(matrix_size=2))
    assert info.value.what == "matrix size"
    with pytest.raises(BudgetExceededError) as info:
        dual_invariant(q, n, idx, budget=Budget(invariant_terms=2))
    assert info.value.what == "invariant terms"


def test_dual_invariant_is_the_determinant_in_paired_variables():
    """f* is the reversed quiver's block determinant with entry (j, i) of edge a set to x_a_i_j, and f* = f.

    Checked on seeded chains and on every invariant the oracle serves: the
    criterion-5 family and the chains it leaves out.  The reversed quiver
    has the same (p, q) invariants, with the inverse characters; the oracle
    relies on all three facts and does not check them at run time.
    """
    from qbfun.invariants import MatrixRep, assemble, block_spec, is_invariant
    from reference import character_exponents
    from qbfun.oracle import poly_det

    rng = random.Random(61)
    instances = [random_instance(rng, rmax=4, nmax=2)[:2] for _ in range(12)]
    instances += oracle_family() + [instance(text, dims) for text, dims in sorted(ORACLE_OVER_BUDGET)]
    for q, n in instances:
        dq = q.dual()
        table = variable_table(q, n)
        paired = MatrixRep.build(
            dq,
            n,
            [
                [
                    [MultiPolynomial.variable(table, f"x{a}_{i}_{j}") for i in range(1, n.at(q.head(a)) + 1)]
                    for j in range(1, n.at(q.tail(a)) + 1)
                ]
                for a in q.edges()
            ],
        )
        for idx in enumerate_invariants(q, n):
            assert is_invariant(dq, n, idx.p, idx.q)
            didx = invariant_index(dq, idx.p, idx.q)
            assert character_exponents(dq, n, didx) == tuple(-e for e in character_exponents(q, n, idx))
            f = expand_invariant(q, n, idx, table)
            assert dual_invariant(q, n, idx, table) == f
            assert poly_det(assemble(block_spec(dq, n, didx), paired)) == f


def test_grad_log_check_fails_on_the_wrong_diagram(monkeypatch):
    """The verdict compares the matrices: the empty diagram is not grad log f."""
    import qbfun.oracle
    from conftest import empty_diagram

    q, n = instance("1->2->3", (1, 2, 1))
    idx = invariant_index(q, 1, 3)
    assert grad_log_check(q, n, idx).ok
    monkeypatch.setattr(qbfun.oracle, "exact_diagram", lambda q, n, idx: empty_diagram(q, n))
    assert not grad_log_check(q, n, idx).ok


def test_engine_bracket_product_matches_the_reference(monkeypatch):
    """apply_bernstein_multi's engine side equals the bracket product expanded with its own base loop.

    Every criterion-5 instance with k >= 2 invariants, at every shift in
    {0,1,2}^k; the operator walk is stubbed out, so only the expansions
    and the engine side run.
    """
    import qbfun.oracle

    monkeypatch.setattr(qbfun.oracle, "_bernstein_b", lambda operator, fs, m, budget: {})
    checked = 0
    for q, n in oracle_family():
        k = len(enumerate_invariants(q, n))
        if k < 2:
            continue
        b = b_multivariate(q, n)
        stable = VarTable(f"s{i}" for i in range(1, k + 1))
        for m in product((0, 1, 2), repeat=k):
            assert apply_bernstein_multi(q, n, m).engine == reference.bracket_product_poly(b, m, stable), (str(q), n.entries, m)
            checked += 1
    assert checked == 2628


def test_bernstein_multi_with_no_invariants_is_one():
    """No invariants: the empty operator on an empty variable table gives b = 1."""
    result = apply_bernstein_multi(parse_quiver("1"), DimVector((3,)), ())
    assert result.ok and result.b == 1 and result.engine == 1 and result.constant == 1


def test_oracle_stops_at_the_matrix_size_before_building_a_variable_table():
    """At the dimension-sum limit the matrix-size budget fires at once, in one and several variables."""
    q, n = parse_quiver("1->2"), DimVector((512, 512))
    idx = invariant_index(q, 1, 2)
    for run in (lambda: oracle_b_function(q, n, idx), lambda: apply_bernstein_multi(q, n, (1,))):
        start = perf_counter()
        with pytest.raises(BudgetExceededError) as info:
            run()
        assert perf_counter() - start < 1
        assert (info.value.what, info.value.actual, info.value.limit) == ("matrix size", 512, 6)


def test_bernstein_multi_library_shifts_still_shape_errors():
    """Library callers of apply_bernstein_multi keep the ShapeError for shifts that do not fit."""
    from qbfun.errors import ShapeError

    q, n = instance("1->2->3->4", (1, 2, 2, 1))
    for m in ((1,), (1, -1), (1, 2, 3)):
        with pytest.raises(ShapeError):
            apply_bernstein_multi(q, n, m)


def doubled_lead(g):
    """g with its lex-leading coefficient doubled."""
    return g + MultiPolynomial.from_monomials(g.table, g.monomials()[-1:])


@pytest.mark.parametrize("text", ["1->2->3", "1->2<-3", "1<-2->3", "1<-2<-3"])
def test_bernstein_rejects_a_perturbed_operator(text):
    """A wrong operator fails the layer check; a rescaled one only rescales the constant.

    Doubling the leading coefficient of an f* with several terms breaks
    f*(d/dx) f^{s+1} = b(s) f^s; for a single-term f* it doubles b.
    """
    broken = 0
    for dims in product((1, 2), repeat=3):
        q, n = instance(text, dims)
        table = variable_table(q, n)
        for idx in enumerate_invariants(q, n):
            f = expand_invariant(q, n, idx, table)
            fstar = dual_invariant(q, n, idx, table)
            if fstar.num_terms() == 1:
                result = apply_bernstein(doubled_lead(fstar), f)
                assert result.b == b_one_variable(q, n, idx)
                assert result.constant == 2 * apply_bernstein(fstar, f).constant
            else:
                with pytest.raises(OracleIdentityError):
                    apply_bernstein(doubled_lead(fstar), f)
                broken += 1
    assert broken >= 4


def test_bernstein_multi_rejects_a_perturbed_operator():
    """Both duals on this chain have several terms, so doubling their leads breaks every shifted identity.

    Since f_i* = f_i, prod_i doubled_lead(f_i)^{m_i} is the operator
    apply_bernstein_multi would build from perturbed duals.
    """
    q, n = instance("1->2->3->4", (1, 2, 2, 1))
    table = variable_table(q, n)
    fs = [expand_invariant(q, n, idx, table) for idx in enumerate_invariants(q, n)]
    for shifts in ((1, 0), (0, 1), (1, 1), (2, 1)):
        assert apply_bernstein_multi(q, n, shifts).ok
        operator = MultiPolynomial.const(table, 1)
        for f, mi in zip(fs, shifts):
            operator = operator * doubled_lead(f) ** mi
        with pytest.raises(OracleIdentityError):
            _bernstein_b(operator, fs, shifts, Budget())


def test_layers_below_the_shifts_must_vanish():
    """An operator that leaves some f_i^{s_i + m_i} underived fails the layer check.

    f1*(d/dx) applied to f1^{s1+1} f2^{s2+1} keeps f2 at power s2 + 1, and
    the identity operator keeps f1 at s1 + 1; neither lowers every power.
    """
    q, n = instance("1->2->3->4", (1, 2, 2, 1))
    table = variable_table(q, n)
    invs = enumerate_invariants(q, n)
    f1, f2 = (expand_invariant(q, n, idx, table) for idx in invs)
    fstar1 = dual_invariant(q, n, invs[0], table)
    with pytest.raises(OracleIdentityError, match="below the shifts"):
        _bernstein_b(fstar1, [f1, f2], (1, 1), Budget())
    with pytest.raises(OracleIdentityError, match="below the shifts"):
        _bernstein_b(MultiPolynomial.const(table, 1), [f1], (1,), Budget())
    assert _bernstein_b(fstar1, [f1, f2], (1, 0), Budget()) == dict(apply_bernstein_multi(q, n, (1, 0)).b.monomials())


@pytest.mark.parametrize(
    "text,dims,pq,actual", [("1->2", (5, 5), (1, 2), 20028), ("1->2->3->4", (2, 3, 3, 2), (1, 4), 20020)]
)
def test_state_terms_count_the_layers_with_s_expanded(text, dims, pq, actual):
    """A state term is a term of FF_k Q_k: |FF_k| counts only the nonzero coefficients of FF_k."""
    q, n = instance(text, dims)
    with pytest.raises(BudgetExceededError) as info:
        oracle_b_function(q, n, invariant_index(q, *pq))
    assert (info.value.what, info.value.actual, info.value.limit) == ("state terms", actual, 20000)


@pytest.mark.parametrize(
    "text,dims,pq,what",
    [
        ("1->2->3", (4, 8, 4), (1, 3), "determinant terms"),
        ("1->2->3", (5, 10, 5), (1, 3), "determinant terms"),
        ("1->2->3", (6, 12, 6), (1, 3), "determinant terms"),
        ("1->2->3->4->5->6->7", (2, 4, 4, 4, 4, 4, 2), (1, 7), "determinant terms"),
        ("1->2->3->4->5->6->7->8", (3, 6, 8, 8, 8, 8, 6, 3), (1, 8), "entry terms"),
    ],
)
def test_expansion_budget_stops_while_the_determinant_is_built(text, dims, pq, what, capsys):
    """An invariant far past the budgets exits 4 while its expansion is built, not after.

    Each of these has 40,320 to over 10^8 terms; building all of them took
    from 0.25 s to over a minute.  The entry count is checked vertex by
    vertex before a path product is formed, and the determinant's layers
    after each term of every product, so the partial count stays below
    twice the limit.
    """
    from qbfun.cli import cli_main

    argv = ["verify", "--quiver", text, "--dims", ",".join(map(str, dims)), "--pq", "{},{}".format(*pq)]
    start = perf_counter()
    assert cli_main(argv) == 4
    assert perf_counter() - start < 1
    assert f"budget exceeded: {what}" in capsys.readouterr().err
    q, n = instance(text, dims)
    with pytest.raises(BudgetExceededError) as info:
        expand_invariant(q, n, invariant_index(q, *pq))
    assert info.value.what == what
    assert info.value.limit < info.value.actual < 2 * info.value.limit
