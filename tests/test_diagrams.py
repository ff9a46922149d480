import random
from collections import Counter

import pytest

import reference
from conftest import (
    ALT5,
    EQUI5,
    doctored_diagram,
    empty_diagram,
    instance,
    random_instance,
    reference_chains,
    strand_diagrams,
    strand_multiset,
    without,
)
from test_acceptance import shared_instances
from qbfun import (
    Interval,
    LaceDiagram,
    block_spec,
    complete_diagram,
    diagram_to_matrices,
    enumerate_invariants,
    evaluate_invariant,
    exact_diagram,
    invariant_index,
    strands,
)
from qbfun.bfun import FSet, invariant_fsets
from qbfun.diagrams import _fset_layout, arrow
from qbfun.errors import ShapeError
from qbfun.invariants import MatrixRep
from reference import interval_vector


def test_complete_diagram_edge_counts():
    q, n = instance(*EQUI5)
    assert complete_diagram(q, n).edge_counts() == (2, 5, 6, 2)
    qa, na = instance(*ALT5)
    assert complete_diagram(qa, na).edge_counts() == (2, 5, 4, 2)
    q2, n2 = instance("1->2", (1, 1))
    assert complete_diagram(q2, n2).edge_counts() == (1,)


def test_exact_diagram_edge_counts_first_example():
    q, n = instance(*EQUI5)
    assert exact_diagram(q, n, invariant_index(q, 3, 4)).edge_counts() == (0, 0, 6, 0)
    assert exact_diagram(q, n, invariant_index(q, 1, 5)).edge_counts() == (2, 2, 2, 2)


def test_exact_diagram_edge_counts_second_example():
    q, n = instance(*ALT5)
    assert exact_diagram(q, n, invariant_index(q, 1, 4)).edge_counts() == (2, 3, 4, 0)
    assert exact_diagram(q, n, invariant_index(q, 2, 5)).edge_counts() == (0, 5, 2, 2)


def test_exact_diagram_connection_sets_alternating():
    """Dot-level connection sets of both diagrams (dot 1 = bottom)."""
    q, n = instance(*ALT5)
    d14 = exact_diagram(q, n, invariant_index(q, 1, 4))
    assert d14.edge(1) == {(1, 1), (2, 2)}
    assert d14.edge(2) == {(5, 7), (4, 6), (3, 5)}  # top-aligned top blocks
    assert d14.edge(3) == {(1, 1), (2, 2), (3, 3), (4, 4)}
    assert d14.edge(4) == frozenset()
    d25 = exact_diagram(q, n, invariant_index(q, 2, 5))
    assert d25.edge(1) == frozenset()
    assert d25.edge(2) == {(5, 7), (4, 6), (3, 5), (2, 4), (1, 3)}
    assert d25.edge(3) == {(1, 1), (2, 2)}
    assert d25.edge(4) == {(4, 2), (3, 1)}


def test_matrices_of_complete_diagram_are_truncated_identities():
    q, n = instance(*EQUI5)
    rep = diagram_to_matrices(q, n, complete_diagram(q, n))

    def e_matrix(m, k):
        return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(m))

    assert rep.matrix(1) == e_matrix(5, 2)
    assert rep.matrix(2) == e_matrix(6, 5)
    assert rep.matrix(3) == e_matrix(6, 6)
    assert rep.matrix(4) == e_matrix(2, 6)


def test_matrices_of_exact_diagram_include_identity_block():
    q, n = instance(*EQUI5)
    rep = diagram_to_matrices(q, n, exact_diagram(q, n, invariant_index(q, 3, 4)))
    assert rep.matrix(3) == tuple(tuple(1 if i == j else 0 for j in range(6)) for i in range(6))
    assert all(all(x == 0 for x in row) for row in rep.matrix(1))


def test_diagram_matrices_equal_the_checked_build():
    """diagram_to_matrices builds its record unchecked; MatrixRep.build of the same matrices checks and agrees."""
    for q, n, invs in shared_instances():
        for d in (complete_diagram(q, n), *(exact_diagram(q, n, idx) for idx in invs)):
            rep = diagram_to_matrices(q, n, d)
            assert rep == MatrixRep.build(q, tuple(n), rep.matrices)
    q, n = instance(*EQUI5)
    with pytest.raises(ShapeError):
        diagram_to_matrices(q, (2, 5, 6, 6, 3), complete_diagram(q, n))
    short, n2 = instance("1->2", (2, 5))
    for longer in (q, instance("1->2->3", (2, 5, 1))[0]):
        with pytest.raises(ShapeError):
            diagram_to_matrices(longer, n2, complete_diagram(short, n2))


def test_empty_diagram_gives_zero_matrices():
    q, n = instance(*EQUI5)
    rep = diagram_to_matrices(q, n, empty_diagram(q, n))
    for a in q.edges():
        assert all(all(x == 0 for x in row) for row in rep.matrix(a))


def test_strands_of_exact_diagrams():
    q, n = instance(*EQUI5)
    counts = strand_multiset(exact_diagram(q, n, invariant_index(q, 1, 5)))
    assert counts == Counter(
        {Interval(1, 5): 2, Interval(2, 2): 3, Interval(3, 3): 4, Interval(4, 4): 4}
    )
    counts = strand_multiset(exact_diagram(q, n, invariant_index(q, 3, 4)))
    assert counts == Counter(
        {Interval(3, 4): 6, Interval(1, 1): 2, Interval(2, 2): 5, Interval(5, 5): 2}
    )


def test_strands_trivial_cases():
    q, n = instance("1->2", (1, 1))
    assert strand_multiset(complete_diagram(q, n)) == Counter({Interval(1, 2): 1})
    assert strand_multiset(empty_diagram(q, n)) == Counter({Interval(1, 1): 1, Interval(2, 2): 1})


def test_strand_dimensions_sum_to_n():
    rng = random.Random(21)
    for _ in range(25):
        q, n, invs = random_instance(rng)
        for idx in invs:
            total = [0] * q.r
            for s in strands(exact_diagram(q, n, idx)):
                for v, x in enumerate(interval_vector(q.r, s.interval)):
                    total[v] += x
            assert tuple(total) == n.entries


def test_diagram_validation():
    with pytest.raises(ShapeError):
        LaceDiagram((2, 2), (frozenset({(1, 1), (1, 2)}),))  # dot 1 used twice on the left
    with pytest.raises(ShapeError):
        LaceDiagram((1, 1), (frozenset({(1, 2)}),))  # out of range


def test_complete_diagram_is_generic():
    """No fundamental invariant vanishes at the all-connections point."""
    rng = random.Random(22)
    for _ in range(20):
        q, n, invs = random_instance(rng)
        rep = diagram_to_matrices(q, n, complete_diagram(q, n))
        for idx in invs:
            assert evaluate_invariant(block_spec(q, n, idx), rep) != 0


def test_exact_diagram_minimality_worked_examples():
    for text, dims in (EQUI5, ALT5):
        q, n = instance(text, dims)
        for idx in enumerate_invariants(q, n):
            spec = block_spec(q, n, idx)
            d = exact_diagram(q, n, idx)
            assert evaluate_invariant(spec, diagram_to_matrices(q, n, d)) != 0
            for a in q.edges():
                for pair in d.edge(a):
                    shrunk = diagram_to_matrices(q, n, without(d, a, pair))
                    assert evaluate_invariant(spec, shrunk) == 0


def test_connection_count_equals_invariant_degree():
    """One arrow per linear factor of the one-variable b-function."""
    from qbfun import b_one_variable

    rng = random.Random(23)
    for _ in range(25):
        q, n, invs = random_instance(rng)
        for idx in invs:
            d = exact_diagram(q, n, idx)
            assert sum(d.edge_counts()) == b_one_variable(q, n, idx).degree()


def test_fset_layout_matches_the_bundle_reference():
    """Exact and complete diagrams, laid out from F-sets, equal the bundle-by-bundle build they replaced.

    Every chain of reference_chains() (seeded r <= 12 and dims <= 8, both
    orientations, r = 1 and 2), every invariant; the labelled exact
    diagram carries the same diagram.
    """
    from qbfun.render import labeled_exact_diagram

    checked = 0
    for q, n in reference_chains():
        assert complete_diagram(q, n) == reference.complete_diagram(q, n), (str(q), n.entries)
        for idx in enumerate_invariants(q, n):
            d = exact_diagram(q, n, idx)
            assert d == reference.exact_diagram(q, n, idx), (str(q), n.entries, idx)
            assert labeled_exact_diagram(q, n, idx).diagram == d
            checked += 1
    assert checked > 300


def test_strands_match_the_dot_by_dot_reference():
    """One strand sweep gives the strands and multiset the dot-by-dot walk gave.

    Complete and exact diagrams of every reference chain, and seeded
    doctored diagrams (crossing pairs, empty edges, isolated dots).
    """
    checked = 0
    for q, n, d in strand_diagrams():
        want = reference.strands(d)
        assert strands(d) == want, (str(q), d)
        assert strand_multiset(d) == Counter(s.interval for s in want)
        checked += 1
    assert checked > 800


def test_arrow_and_fset_layout_match_the_one_arrow_reference():
    """arrow on every edge and constant, and the layout of every F-set and the complete one."""
    checked = 0
    for q, n in reference_chains():
        for a in q.edges():
            for c in range(1, n.at(a + 1) + 1):
                assert arrow(q, n, a, c) == reference.arrow(q, n, a, c)
        complete = FSet(q.r, tuple((n.at(k) - min(n.at(k - 1), n.at(k)) + 1, n.at(k)) for k in range(2, q.r + 1)))
        for fs in [complete, *invariant_fsets(q, n)]:
            assert _fset_layout(q, n, fs) == reference._fset_layout(q, n, fs), (str(q), n.entries, fs)
            checked += 1
        for a in (0, q.r):
            with pytest.raises(ShapeError, match=f"edge {a} out of range"):
                arrow(q, n, a, 1)
    assert checked > 500


def raised(build, columns, connections) -> str:
    with pytest.raises(ShapeError) as info:
        build(columns, connections)
    return str(info.value)


@pytest.mark.parametrize(
    "columns, connections, message",
    [
        ((2, 2), ([(0, 1)],), "edge 1: connection (0,1) out of range"),
        ((2, 2), ([(3, 1)],), "edge 1: connection (3,1) out of range"),
        ((2, 2), ([(1, 0)],), "edge 1: connection (1,0) out of range"),
        ((2, 2), ([(2, 3)],), "edge 1: connection (2,3) out of range"),
        ((2, 2), ([(1, 1), (1, 2)],), "edge 1: a dot is connected twice on one side"),
        ((2, 2), ([(1, 2), (2, 2)],), "edge 1: a dot is connected twice on one side"),
        # both faults on one edge: whichever pair comes first decides
        ((3, 3, 3), ([], [(1, 1), (1, 2), (4, 3)]), "edge 2: a dot is connected twice on one side"),
        ((3, 3, 3), ([], [(4, 3), (1, 1), (1, 2)]), "edge 2: connection (4,3) out of range"),
        ((3, 3, 3), ([(1, 1)], [(2, 2), (3, 0), (2, 3)]), "edge 2: connection (3,0) out of range"),
        ((3, 3, 3), ([(1, 1)], [(2, 2), (2, 3), (3, 0)]), "edge 2: a dot is connected twice on one side"),
        ((2, 2, 2), ([(1, 1)],), "need one connection set per edge"),
    ],
)
def test_invalid_diagrams_raise_the_pairwise_errors(columns, connections, message):
    """The exact text of the pair-by-pair check, for the pairs in the given order."""
    assert raised(reference.PairwiseLaceDiagram, columns, connections) == message
    assert raised(LaceDiagram, columns, connections) == message


def test_invalid_diagrams_raise_as_the_pairwise_check_on_seeded_faults():
    """A bad pair put into a doctored edge: same error as the pair-by-pair check, as a list and as a frozenset."""
    rng = random.Random(2513)
    checked = 0
    while checked < 300:
        q, n, d = doctored_diagram(rng)
        if q.r < 2:
            continue
        a = rng.randint(1, q.r - 1)
        left, right = d.columns[a - 1], d.columns[a]
        bad = rng.choice(
            [(0, rng.randint(1, right)), (left + 1, 1), (1, right + rng.randint(1, 3)), (rng.randint(1, left), 1), (1, rng.randint(1, right))]
        )
        pairs = sorted(d.edge(a))
        pairs.insert(rng.randint(0, len(pairs)), bad)
        for edge in (pairs, frozenset(pairs)):
            conns = d.connections[: a - 1] + (edge,) + d.connections[a:]
            try:
                reference.PairwiseLaceDiagram(d.columns, conns)
            except ShapeError as exc:
                assert raised(LaceDiagram, d.columns, conns) == str(exc)
                checked += 1
            else:
                assert LaceDiagram(d.columns, conns).connections == conns
