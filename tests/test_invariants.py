import random
from fractions import Fraction

import pytest

from conftest import ALT5, EQUI5, A7, instance, random_instance, random_invertible, random_quiver
from qbfun import (
    DimVector,
    MatrixRep,
    block_spec,
    enumerate_invariants,
    evaluate_invariant,
    fset_of_invariant,
    invariant_index,
    is_invariant,
    parse_quiver,
    sinks_sources,
)
from qbfun.diagrams import complete_diagram, diagram_to_matrices, exact_diagram
from qbfun.errors import NotAnInvariantError, ShapeError
from qbfun.invariants import _walk, act, block_structure
from qbfun import linalg
from reference import character_exponents, nbar, segment_indices

A8 = ("1->2->3<-4->5->6<-7<-8", (1, 2, 2, 2, 3, 3, 3, 2))


def pairs(invs):
    return [(idx.p, idx.q) for idx in invs]


def test_alpha_beta_indices():
    q, _ = instance(*A8)
    idx = invariant_index(q, 1, 8)
    assert segment_indices(q, idx) == (1, 3)
    qe, _ = instance(*EQUI5)
    alpha, beta = segment_indices(qe, invariant_index(qe, 3, 4))
    assert beta == alpha - 1


def test_nbar_values():
    q, n = instance(*A8)
    idx = invariant_index(q, 1, 8)
    assert nbar(q, n, idx, 0) == n.at(3) - n.at(1)
    assert nbar(q, n, idx, 1) == n.at(4) - n.at(3) + n.at(1)
    assert nbar(q, n, idx, -1) == n.at(1)
    alpha, beta = segment_indices(q, idx)
    with pytest.raises(ShapeError):
        nbar(q, n, idx, beta - alpha + 1)


def test_nbar_degenerate_is_np():
    q, n = instance(*EQUI5)
    idx = invariant_index(q, 1, 5)
    alpha, beta = segment_indices(q, idx)
    assert beta - alpha == -1
    assert nbar(q, n, idx, -1) == n.at(1)


def test_enumerate_equioriented_five():
    q, n = instance(*EQUI5)
    assert pairs(enumerate_invariants(q, n)) == [(1, 5), (3, 4)]


def test_enumerate_alternating_five():
    q, n = instance(*ALT5)
    assert pairs(enumerate_invariants(q, n)) == [(1, 4), (2, 5)]


def test_enumerate_two_vertices_empty():
    q = parse_quiver("1->2")
    assert enumerate_invariants(q, DimVector((1, 2))) == ()


def test_enumerate_seven_vertex_example():
    q, n = instance(*A7)
    assert pairs(enumerate_invariants(q, n)) == [(1, 6), (2, 7), (4, 5)]


def test_enumerate_eight_vertex_example():
    q, n = instance(*A8)
    assert (1, 8) in pairs(enumerate_invariants(q, n))


def test_block_spec_alternating():
    q, n = instance(*ALT5)
    spec = block_spec(q, n, invariant_index(q, 1, 4))
    assert spec.row_blocks == (2, 4)
    assert spec.col_blocks == (1, 3)
    assert spec.entries == {(2, 1): (1,), (2, 3): (2,), (4, 3): (3,)}
    spec = block_spec(q, n, invariant_index(q, 2, 5))
    assert spec.entries == {(2, 3): (2,), (4, 3): (3,), (4, 5): (4,)}


def test_block_spec_eight_vertex_composites():
    q, n = instance(*A8)
    spec = block_spec(q, n, invariant_index(q, 1, 8))
    assert spec.row_blocks == (3, 6)
    assert spec.col_blocks == (1, 4, 8)
    assert spec.entries == {
        (3, 1): (2, 1),
        (3, 4): (3,),
        (6, 4): (5, 4),
        (6, 8): (6, 7),
    }


def test_block_spec_single_run():
    q, n = instance(*EQUI5)
    spec = block_spec(q, n, invariant_index(q, 3, 4))
    assert spec.entries == {(4, 3): (3,)}


def test_block_spec_rejects_non_invariants():
    q, n = instance(*EQUI5)
    with pytest.raises(NotAnInvariantError):
        block_spec(q, n, invariant_index(q, 1, 2))


def test_evaluate_at_generic_point_is_one_equioriented():
    q, n = instance(*EQUI5)
    rep = diagram_to_matrices(q, n, complete_diagram(q, n))
    for idx in enumerate_invariants(q, n):
        assert evaluate_invariant(block_spec(q, n, idx), rep) == 1


def test_evaluate_exact_diagram_is_unit():
    rng = random.Random(11)
    for _ in range(15):
        q, n, invs = random_instance(rng, rmax=6, nmax=5)
        for idx in invs:
            rep = diagram_to_matrices(q, n, exact_diagram(q, n, idx))
            assert evaluate_invariant(block_spec(q, n, idx), rep) in (1, -1)


def test_evaluate_zero_rep():
    q, n = instance(*EQUI5)
    rep = MatrixRep.zero(q, n)
    for idx in enumerate_invariants(q, n):
        assert evaluate_invariant(block_spec(q, n, idx), rep) == 0


def test_character_exponents_goldens():
    q, n = instance(*EQUI5)
    assert character_exponents(q, n, invariant_index(q, 1, 5)) == (-1, 0, 0, 0, 1)
    assert character_exponents(q, n, invariant_index(q, 3, 4)) == (0, 0, -1, 1, 0)
    qa, na = instance(*ALT5)
    assert character_exponents(qa, na, invariant_index(qa, 1, 4)) == (-1, 1, -1, 1, 0)


def test_relative_invariance_under_group_action():
    """f(g.A) = prod det(g_i)^{sigma_i} f(A), exactly, over random data."""
    rng = random.Random(12)
    trials = 0
    while trials < 20:
        q, n, invs = random_instance(rng, rmax=5, nmax=4)
        rep = MatrixRep.random(q, n, rng)
        g = [random_invertible(rng, n.at(v)) for v in q.vertices()]
        moved = act(q, g, rep)
        for idx in invs:
            spec = block_spec(q, n, idx)
            sigma = character_exponents(q, n, idx)
            chi = Fraction(1)
            for v in q.vertices():
                if sigma[v - 1]:
                    chi *= Fraction(linalg.det(g[v - 1])) ** sigma[v - 1]
            assert evaluate_invariant(spec, moved) == chi * evaluate_invariant(spec, rep)
            trials += 1


def test_unimodular_action_fixes_invariants():
    rng = random.Random(13)
    q, n, invs = random_instance(rng, rmax=5, nmax=4)
    for _ in range(5):
        rep = MatrixRep.random(q, n, rng)
        g = []
        for v in q.vertices():
            while True:
                cand = random_invertible(rng, n.at(v))
                if linalg.det(cand) == 1:
                    break
            g.append(cand)
        moved = act(q, g, rep)
        for idx in invs:
            spec = block_spec(q, n, idx)
            assert evaluate_invariant(spec, moved) == evaluate_invariant(spec, rep)


def test_distinct_invariants_have_distinct_fsets():
    rng = random.Random(14)
    for _ in range(25):
        q, n, invs = random_instance(rng)
        fsets = [fset_of_invariant(q, n, idx) for idx in invs]
        assert len(set(fsets)) == len(fsets)


def test_block_structure_is_square_for_invariants():
    rng = random.Random(15)
    for _ in range(25):
        q, n, invs = random_instance(rng)
        for idx in invs:
            spec = block_structure(q, idx.p, idx.q)
            assert sum(spec.row_dims(n)) == sum(spec.col_dims(n))


def paper_index_conditions(q, n, p, qq):
    """The paper's four index conditions for (p, q), in its alpha/beta/nbar notation."""
    idx = invariant_index(q, p, qq)
    nu = sinks_sources(q)
    alpha, beta = segment_indices(q, idx)
    if beta == alpha - 1:
        return all(n.at(t) > n.at(p) for t in range(p + 1, qq)) and n.at(qq) == n.at(p)
    if any(n.at(t) <= n.at(p) for t in range(p + 1, nu[alpha] + 1)):
        return False
    for kappa in range(beta - alpha):
        level = nbar(q, n, idx, kappa)
        if any(n.at(t) <= level for t in range(nu[alpha + kappa] + 1, nu[alpha + kappa + 1] + 1)):
            return False
    level = nbar(q, n, idx, beta - alpha)
    return all(n.at(t) > level for t in range(nu[beta] + 1, qq)) and n.at(qq) == level


def segment_columns(q, idx, kappa):
    """Columns whose level is nbar(kappa): segment kappa of the sink/source sequence between p and q."""
    nu = sinks_sources(q)
    alpha, beta = segment_indices(q, idx)
    start = idx.p + 1 if kappa == -1 else nu[alpha + kappa] + 1
    end = idx.q if kappa == beta - alpha else nu[alpha + kappa + 1]
    return range(start, end + 1)


def test_walk_matches_paper_index_conditions():
    rng = random.Random(16)
    found = 0
    for _ in range(400):
        q = random_quiver(rng, 2, 10)
        n = DimVector(tuple(rng.randint(1, 6) for _ in range(q.r)))
        for p in range(1, q.r):
            partners = [qq for qq in range(p + 1, q.r + 1) if is_invariant(q, n, p, qq)]
            assert len(partners) <= 1
            for qq in range(p + 1, q.r + 1):
                assert is_invariant(q, n, p, qq) == paper_index_conditions(q, n, p, qq)
        for idx in enumerate_invariants(q, n):
            level = dict(_walk(q, n, idx.p))
            assert sorted(level) == list(range(idx.p + 1, idx.q + 1))
            alpha, beta = segment_indices(q, idx)
            for kappa in range(-1, beta - alpha + 1):
                for t in segment_columns(q, idx, kappa):
                    assert level[t] == nbar(q, n, idx, kappa)
            found += 1
    assert found > 100
