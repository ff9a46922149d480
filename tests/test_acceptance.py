"""Acceptance gate: one test per criterion, run with `pytest -v -s`.

Each test prints a single PASS line when its criterion holds; a failed
assertion shows up as the usual pytest failure for that criterion.
Random instances are drawn once from a fixed seed and shared.
"""

import random
from collections import Counter
from functools import lru_cache
from itertools import product

from conftest import ALT5, EQUI5, A7, divides, instance, oracle_family, random_instance, random_quiver, strand_multiset, without
from qbfun import (
    Budget,
    DimVector,
    FactoredBFunction,
    LinearForm,
    a_function,
    a_function_check,
    apply_bernstein_multi,
    b_from_fset,
    b_multivariate,
    b_one_variable,
    block_spec,
    diagram_to_matrices,
    enumerate_invariants,
    evaluate_invariant,
    exact_diagram,
    f_set,
    grad_log_check,
    invariant_index,
    oracle_b_function,
    rank_parameter,
    restricted_invariant_shape,
    slice_representation,
    summand_ext,
)
from qbfun.errors import BudgetExceededError
from qbfun.oracle import expand_invariant, grad_log_invariant, variable_table
from reference import hom_ext_dims, interval_rep


def one_var(constants: dict) -> FactoredBFunction:
    return FactoredBFunction.one_variable(Counter(constants))


def multi(num_labels, *factors) -> FactoredBFunction:
    counts = Counter()
    for support, constant, mult in factors:
        coeffs = tuple(1 if i in support else 0 for i in range(1, num_labels + 1))
        counts[LinearForm(coeffs, constant)] += mult
    return FactoredBFunction.from_counter(num_labels, counts)


@lru_cache(maxsize=1)
def shared_instances():
    """200 random (orientation, dimensions, invariants) triples, r <= 7, n_i <= 6."""
    rng = random.Random(20250811)
    return tuple(random_instance(rng, rmax=7, nmax=6) for _ in range(200))


def test_criterion_01_one_variable_golden_set():
    q, n = instance(*EQUI5)
    assert b_one_variable(q, n, invariant_index(q, 3, 4)) == one_var(
        {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}
    )
    assert b_one_variable(q, n, invariant_index(q, 1, 5)) == one_var(
        {1: 1, 2: 1, 4: 1, 5: 3, 6: 2}
    )
    qa, na = instance(*ALT5)
    assert b_one_variable(qa, na, invariant_index(qa, 1, 4)) == one_var(
        {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 1, 7: 1}
    )
    assert b_one_variable(qa, na, invariant_index(qa, 2, 5)) == one_var(
        {1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 1, 7: 1}
    )
    print("PASS criterion 1: one-variable b-functions match both worked five-vertex examples")


def test_criterion_02_rank_parameter_golden_set():
    expected = {
        (EQUI5, (3, 4)): ((2, 0, 0, 0, 0), (5, 0, 0, 0), (6, 6, 0), (6, 0), (2,)),
        (EQUI5, (1, 5)): ((2, 2, 2, 2, 2), (5, 2, 2, 2), (6, 2, 2), (6, 2), (2,)),
        (ALT5, (1, 4)): ((2, 2, 5, 9, 9), (5, 3, 7, 7), (7, 4, 4), (4, 0), (2,)),
        (ALT5, (2, 5)): ((2, 0, 5, 7, 9), (5, 5, 7, 9), (7, 2, 4), (4, 2), (2,)),
    }
    for ((text, dims), pq), rows in expected.items():
        q, n = instance(text, dims)
        rep = diagram_to_matrices(q, n, exact_diagram(q, n, invariant_index(q, *pq)))
        assert rank_parameter(q, n, rep).rows == rows
    print("PASS criterion 2: rank-parameter tables reproduced entrywise from exact diagrams")


def test_criterion_03_cross_validation_two_routes():
    total = 0
    for q, n, invs in shared_instances():
        for idx in invs:
            rep = diagram_to_matrices(q, n, exact_diagram(q, n, idx))
            via_ranks = b_from_fset(f_set(rank_parameter(q, n, rep)))
            assert via_ranks == b_one_variable(q, n, idx)
            total += 1
    assert len(shared_instances()) >= 200
    print(f"PASS criterion 3: closed formula = rank-parameter route on {total} invariants over 200 instances")


def test_criterion_03_cross_validation_on_long_chains():
    rng = random.Random(30)
    total = 0
    for _ in range(40):
        q = random_quiver(rng, 20, 30)
        n = DimVector(tuple(rng.randint(1, 8) for _ in range(q.r)))
        for idx in enumerate_invariants(q, n):
            rep = diagram_to_matrices(q, n, exact_diagram(q, n, idx))
            assert b_from_fset(f_set(rank_parameter(q, n, rep))) == b_one_variable(q, n, idx)
            total += 1
    assert total == 244
    print(f"PASS criterion 3: closed formula = rank-parameter route on {total} invariants of 40 chains with r=20..30")


def test_criterion_04_multivariate_golden_set():
    q, n = instance(*EQUI5)
    assert b_multivariate(q, n) == multi(
        2,
        ((1,), 1, 1), ((1,), 2, 1), ((1,), 4, 1), ((1,), 5, 2), ((1,), 6, 1),
        ((2,), 1, 1), ((2,), 2, 1), ((2,), 3, 1), ((2,), 4, 1),
        ((1, 2), 5, 1), ((1, 2), 6, 1),
    )
    qa, na = instance(*ALT5)
    assert b_multivariate(qa, na) == multi(
        2,
        ((1,), 1, 1), ((1,), 2, 1), ((1,), 4, 1), ((1,), 5, 1),
        ((2,), 1, 1), ((2,), 2, 1), ((2,), 3, 1), ((2,), 4, 1),
        ((1, 2), 3, 1), ((1, 2), 4, 1), ((1, 2), 5, 1), ((1, 2), 6, 1), ((1, 2), 7, 1),
    )
    q7, n7 = instance(*A7)
    assert b_multivariate(q7, n7) == multi(
        3,
        ((1,), 1, 1), ((1,), 2, 1), ((1,), 3, 1),
        ((2,), 1, 1), ((2,), 3, 1),
        ((3,), 1, 1),
        ((1, 2), 2, 1), ((1, 2), 3, 2), ((1, 2), 4, 2), ((1, 2), 5, 1),
        ((1, 3), 2, 1),
        ((1, 2, 3), 3, 1), ((1, 2, 3), 4, 1),
    )
    print("PASS criterion 4: bracket products match both five-vertex displays and the seven-vertex example")


def test_criterion_05_oracle_gate():
    budget = Budget()
    # the classical identity for n x n determinants, n <= 3
    for m in (1, 2, 3):
        q, n = instance("1->2", (m, m))
        idx = invariant_index(q, 1, 2)
        result = oracle_b_function(q, n, idx, budget)
        assert result.b == one_var({c: 1 for c in range(1, m + 1)})
        assert result.constant == 1
    required = {("1->2->3", (1, 2, 1)), ("1->2<-3", (1, 2, 1)), ("1->2<-3", (1, 2, 2))}
    seen = set()
    checked = 0
    for q, n in oracle_family():
        for idx in enumerate_invariants(q, n):
            table = variable_table(q, n)
            try:
                f = expand_invariant(q, n, idx, table, budget)
            except BudgetExceededError:
                continue
            assert f.num_terms() <= budget.invariant_terms
            result = oracle_b_function(q, n, idx, budget)
            assert result.b == b_one_variable(q, n, idx), (str(q), n.entries, (idx.p, idx.q))
            seen.add((str(q), n.entries))
            checked += 1
    for text, dims in required:
        assert (text, dims) in seen
    print(f"PASS criterion 5: operator identity matches the closed formula on {checked} small invariants")


def test_criterion_06_specialization_property():
    total = 0
    for q, n, invs in shared_instances():
        b = b_multivariate(q, n)
        for i, idx in enumerate(invs, start=1):
            assert b.specialize_label(i) == b_one_variable(q, n, idx)
            total += 1
    print(f"PASS criterion 6: unit-shift specialization recovers all {total} one-variable b-functions")


def test_criterion_07_grad_log_verification():
    for text, dims in (EQUI5, ALT5):
        q, n = instance(text, dims)
        for idx in enumerate_invariants(q, n):
            assert grad_log_check(q, n, idx).ok
    # truncated-identity pattern at the generic point of the equioriented example
    q, n = instance(*EQUI5)
    grads = grad_log_invariant(q, n, invariant_index(q, 1, 5))

    def e_block(mm, kk, h):
        return tuple(tuple(1 if i == j and i < h else 0 for j in range(kk)) for i in range(mm))

    assert grads[0] == e_block(5, 2, 2)
    assert grads[1] == e_block(6, 5, 2)
    assert grads[2] == e_block(6, 6, 2)
    assert grads[3] == e_block(2, 6, 2)

    rng = random.Random(77)
    checked = 0
    while checked < 50:
        q, n, invs = random_instance(rng, rmax=6, nmax=5)
        for idx in invs:
            assert grad_log_check(q, n, idx).ok
            checked += 1
    print(f"PASS criterion 7: gradient-log equals the exact diagram on both examples and {checked} random invariants")


def test_criterion_08_a_function_golden_set():
    # labels are sorted: in the equioriented example label 1 = (1,5), label 2 = (3,4)
    q, n = instance(*EQUI5)
    a = a_function(q, n)
    assert {form.support: count for form, count in a.factors} == {(1,): 6, (2,): 4, (1, 2): 2}
    assert dict(a.monomial((0, 1))) == {LinearForm((0, 1), 0): 4, LinearForm((1, 1), 0): 2}
    assert dict(a.monomial((1, 0))) == {LinearForm((1, 0), 0): 6, LinearForm((1, 1), 0): 2}
    assert dict(a.monomial((1, 1))) == {
        LinearForm((1, 0), 0): 6,
        LinearForm((0, 1), 0): 4,
        LinearForm((1, 1), 0): 4,
    }
    qa, na = instance(*ALT5)
    aa = a_function(qa, na)
    assert {form.support: count for form, count in aa.factors} == {(1,): 4, (2,): 4, (1, 2): 5}
    assert a_function_check(q, n).ok
    assert a_function_check(qa, na).ok
    print("PASS criterion 8: a-function monomials match and the symbolic check corroborates them")


def test_criterion_09_slice_golden_set():
    q, n = instance(*EQUI5)
    s34 = slice_representation(q, n, invariant_index(q, 3, 4))
    assert s34.group_factors() == (2, 5, 6, 2)
    assert s34.w_summands() == ((5, 2), (6, 5), (2, 6))
    s15 = slice_representation(q, n, invariant_index(q, 1, 5))
    assert s15.group_factors() == (2, 3, 4, 4)
    assert s15.w_summands() == ((4, 3), (4, 4))
    qa, na = instance(*ALT5)
    s14 = slice_representation(qa, na, invariant_index(qa, 1, 4))
    assert s14.group_factors() == (2, 3, 4, 2)
    assert s14.w_summands() == ((2, 4), (4, 2))

    rng = random.Random(99)
    pairs_checked = 0
    while pairs_checked < 50:
        q, n, invs = random_instance(rng, rmax=6, nmax=4)
        idx = invs[rng.randrange(len(invs))]
        intervals = sorted(strand_multiset(exact_diagram(q, n, idx)))
        u = intervals[rng.randrange(len(intervals))]
        w = intervals[rng.randrange(len(intervals))]
        _, ext = hom_ext_dims(q, interval_rep(q, u), interval_rep(q, w))
        assert summand_ext(q, u, w) == ext
        pairs_checked += 1
    print(f"PASS criterion 9: slice representations match and {pairs_checked} random Ext pairs agree with cokernels")


def test_criterion_10_localization_divisibility():
    cases = [
        (EQUI5, (3, 4), (1, 5), {1: 1, 2: 1, 4: 1, 5: 2, 6: 1}),
        (EQUI5, (1, 5), (3, 4), {1: 1, 2: 1, 3: 1, 4: 1}),
        (ALT5, (1, 4), (2, 5), {1: 1, 2: 1, 3: 1, 4: 1}),
    ]
    for (text, dims), slice_pq, f_pq, local_constants in cases:
        q, n = instance(text, dims)
        invs = enumerate_invariants(q, n)
        label = 1 + [(i.p, i.q) for i in invs].index(f_pq)
        shape = restricted_invariant_shape(q, n, invariant_index(q, *slice_pq), invariant_index(q, *f_pq))
        local = shape.local_b()
        assert local == one_var(local_constants)
        assert divides(local, b_multivariate(q, n).specialize_label(label))
    print("PASS criterion 10: worked local b-functions reproduced and divide the specialized bracket product")


def test_criterion_11_minimality_property():
    removals = 0
    golden = [instance(*EQUI5), instance(*ALT5)]
    everything = [(q, n, enumerate_invariants(q, n)) for q, n in golden]
    everything.extend(shared_instances())
    for q, n, invs in everything:
        for idx in invs:
            spec = block_spec(q, n, idx)
            d = exact_diagram(q, n, idx)
            assert evaluate_invariant(spec, diagram_to_matrices(q, n, d)) != 0
            for a in q.edges():
                for pair in d.edge(a):
                    shrunk = diagram_to_matrices(q, n, without(d, a, pair))
                    assert evaluate_invariant(spec, shrunk) == 0
                    removals += 1
    print(f"PASS criterion 11: every one of {removals} single-connection removals kills its invariant")


def test_criterion_12_positive_integer_constants():
    checked = 0
    for q, n, invs in shared_instances():
        for form, _ in b_multivariate(q, n).factors:
            assert isinstance(form.constant, int) and form.constant >= 1
            checked += 1
        for idx in invs:
            for form, _ in b_one_variable(q, n, idx).factors:
                assert isinstance(form.constant, int) and form.constant >= 1
                checked += 1
    print(f"PASS criterion 12: all {checked} emitted factors have positive integer constants")


def test_criterion_13_multivariate_box_of_shifts():
    """The several-variable identity on a fixed sample of the box of shifts.

    Every criterion-5 instance with k >= 2 invariants, at every shift in
    {0,1,2}^k but 0 and (1,...,1): 2,140 points, of which a fixed sample of
    300 runs through apply_bernstein_multi at the default budget.  Each
    sampled point agrees with the bracket product or exceeds the budget;
    none may disagree.  The over-budget count is pinned.
    """
    points = []
    for q, n in oracle_family():
        k = len(enumerate_invariants(q, n))
        if k < 2:
            continue
        for m in product((0, 1, 2), repeat=k):
            if set(m) not in ({0}, {1}):
                points.append((q, n, m))
    assert len(points) == 2140
    agreed, over_budget = 0, []
    for q, n, m in random.Random(2027).sample(points, 300):
        try:
            result = apply_bernstein_multi(q, n, m)
        except BudgetExceededError:
            over_budget.append((str(q), n.entries, m))
            continue
        assert result.ok, (str(q), n.entries, m)
        agreed += 1
    assert (agreed, len(over_budget)) == (255, 45), over_budget
    print(f"PASS criterion 13: {agreed} sampled box shifts agree with the bracket product, {len(over_budget)} exceed the budget")
