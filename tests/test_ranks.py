import copy
import hashlib
import pickle
import random
from itertools import product
from operator import add

import pytest
import reference
from conftest import A7, ALT5, EQUI5, divides, instance, random_instance, random_quiver, strand_diagrams, strand_multiset
from qbfun import (
    DimVector,
    Interval,
    MatrixRep,
    b_one_variable,
    complete_diagram,
    diagram_to_matrices,
    enumerate_invariants,
    euler_form,
    exact_diagram,
    invariant_index,
    is_invariant,
    rank_parameter,
    restricted_invariant_shape,
    slice_representation,
    summand_ext,
)
from qbfun import ranks
from qbfun.diagrams import LaceDiagram
from qbfun.errors import DiagnosticError, NotAnInvariantError, ShapeError
from qbfun.quiver import parse_quiver
from qbfun.ranks import SliceRep, _slice_side
from reference import hom_ext_dims, interval_rep, interval_vector


def exact_rep(q, n, p, qq):
    return diagram_to_matrices(q, n, exact_diagram(q, n, invariant_index(q, p, qq)))


def test_rank_tables_first_example():
    q, n = instance(*EQUI5)
    assert rank_parameter(q, n, exact_rep(q, n, 3, 4)).rows == (
        (2, 0, 0, 0, 0),
        (5, 0, 0, 0),
        (6, 6, 0),
        (6, 0),
        (2,),
    )
    assert rank_parameter(q, n, exact_rep(q, n, 1, 5)).rows == (
        (2, 2, 2, 2, 2),
        (5, 2, 2, 2),
        (6, 2, 2),
        (6, 2),
        (2,),
    )


def test_rank_tables_second_example():
    q, n = instance(*ALT5)
    assert rank_parameter(q, n, exact_rep(q, n, 1, 4)).rows == (
        (2, 2, 5, 9, 9),
        (5, 3, 7, 7),
        (7, 4, 4),
        (4, 0),
        (2,),
    )
    assert rank_parameter(q, n, exact_rep(q, n, 2, 5)).rows == (
        (2, 0, 5, 7, 9),
        (5, 5, 7, 9),
        (7, 2, 4),
        (4, 2),
        (2,),
    )


def test_rank_parameter_of_zero_rep():
    q, n = instance(*EQUI5)
    N = rank_parameter(q, n, MatrixRep.zero(q, n))
    for i, j, value in N:
        assert value == (n.at(i) if i == j else 0)


def test_exact_below_complete_in_closure_order():
    rng = random.Random(41)
    for _ in range(20):
        q, n, invs = random_instance(rng)
        generic = rank_parameter(q, n, diagram_to_matrices(q, n, complete_diagram(q, n)))
        for idx in invs:
            held = rank_parameter(q, n, diagram_to_matrices(q, n, exact_diagram(q, n, idx)))
            # the closure order: componentwise <= on the rank parameters, entry by entry
            assert [(i, j) for i, j, _ in held] == [(i, j) for i, j, _ in generic]
            assert all(x <= y for (_, _, x), (_, _, y) in zip(held, generic)), (str(q), str(n), idx)


def test_hom_ext_of_interval_with_itself():
    rng = random.Random(42)
    for _ in range(20):
        q = random_quiver(rng)
        i = rng.randint(1, q.r)
        j = rng.randint(i, q.r)
        rep = interval_rep(q, Interval(i, j))
        assert hom_ext_dims(q, rep, rep) == (1, 0)


def test_hom_ext_zero_dimensional():
    q = parse_quiver("1->2")
    zero = MatrixRep((0, 0), (tuple(),))
    assert hom_ext_dims(q, zero, zero) == (0, 0)


def test_every_row_of_every_edge_matrix_is_shape_checked():
    q = parse_quiver("1->2")
    with pytest.raises(ShapeError):
        MatrixRep.build(q, (2, 2), [[[1, 2], [3]]])
    for bad in (MatrixRep((1, 1), (((1, 2),),)), MatrixRep((2, 2), (((1,),),))):
        good = MatrixRep.zero(q, bad.dims)
        with pytest.raises(ShapeError):
            hom_ext_dims(q, bad, good)
        with pytest.raises(ShapeError):
            hom_ext_dims(q, good, bad)


def test_ringel_formula_random_intervals():
    rng = random.Random(43)
    for _ in range(50):
        q = random_quiver(rng)
        a = Interval(*sorted((rng.randint(1, q.r), rng.randint(1, q.r))))
        b = Interval(*sorted((rng.randint(1, q.r), rng.randint(1, q.r))))
        hom, ext = hom_ext_dims(q, interval_rep(q, a), interval_rep(q, b))
        assert hom - ext == euler_form(q, interval_vector(q.r, a), interval_vector(q.r, b))


def test_summand_ext_matches_cokernel_on_strand_pairs():
    """The adjacency count equals the honest Ext of the difference map."""
    rng = random.Random(44)
    pairs_checked = 0
    while pairs_checked < 50:
        q, n, invs = random_instance(rng, rmax=6, nmax=4)
        idx = invs[rng.randrange(len(invs))]
        intervals = sorted(strand_multiset(exact_diagram(q, n, idx)))
        for u in intervals:
            for w in intervals:
                _, ext = hom_ext_dims(q, interval_rep(q, u), interval_rep(q, w))
                assert summand_ext(q, u, w) == ext
                pairs_checked += 1


def test_summand_ext_nested_pair_is_zero():
    """A strand nested inside another has no slice arrow despite the shared edge."""
    q, n = instance(*EQUI5)
    assert summand_ext(q, Interval(4, 4), Interval(1, 5)) == 0
    hom, ext = hom_ext_dims(q, interval_rep(q, Interval(4, 4)), interval_rep(q, Interval(1, 5)))
    assert (hom, ext) == (0, 0)


def test_slice_representations_worked_examples():
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


def test_slice_dimension_identity():
    """dim W = dim Rep - dim orbit = Ext(A, A) of the exact diagram point."""
    rng = random.Random(45)
    for _ in range(20):
        q, n, invs = random_instance(rng, rmax=6, nmax=5)
        for idx in invs:
            rep = diagram_to_matrices(q, n, exact_diagram(q, n, idx))
            hom, ext = hom_ext_dims(q, rep, rep)
            srep = slice_representation(q, n, idx)
            assert srep.slice_dimension() == ext
            assert hom == sum(m * m for m in srep.group_factors())


def test_restriction_of_self_is_constant():
    q, n = instance(*EQUI5)
    idx = invariant_index(q, 3, 4)
    assert restricted_invariant_shape(q, n, idx, idx).constant


def test_restricted_shapes_worked_examples():
    q, n = instance(*EQUI5)
    shape = restricted_invariant_shape(q, n, invariant_index(q, 3, 4), invariant_index(q, 1, 5))
    assert str(shape.quiver) == "1->2->3->4"
    assert shape.dims.entries == (2, 5, 6, 2)
    assert (shape.index.p, shape.index.q) == (1, 4)

    shape = restricted_invariant_shape(q, n, invariant_index(q, 1, 5), invariant_index(q, 3, 4))
    assert str(shape.quiver) == "1->2"
    assert shape.dims.entries == (4, 4)

    qa, na = instance(*ALT5)
    shape = restricted_invariant_shape(qa, na, invariant_index(qa, 1, 4), invariant_index(qa, 2, 5))
    assert str(shape.quiver) == "1<-2<-3"
    assert shape.dims.entries == (2, 4, 2)


def test_restricted_b_divides_specialized_multivariate():
    from qbfun import b_multivariate

    rng = random.Random(46)
    done = 0
    while done < 15:
        q, n, invs = random_instance(rng, rmax=6, nmax=5)
        if len(invs) < 2:
            continue
        b = b_multivariate(q, n)
        for si, idx_slice in enumerate(invs, start=1):
            for fi, idx_f in enumerate(invs, start=1):
                if fi == si:
                    continue
                shape = restricted_invariant_shape(q, n, idx_slice, idx_f)
                if shape.constant:
                    continue
                assert divides(shape.local_b(), b.specialize_label(fi))
        done += 1


def per_pair_rank_parameter(q, rep):
    """Each N_ij as the rank of its own freshly multiplied block matrix."""
    from qbfun import linalg
    from qbfun.invariants import assemble, block_structure

    rows = []
    for i in range(1, q.r + 1):
        row = [rep.dims[i - 1]]
        row += [linalg.rank(assemble(block_structure(q, i, j), rep)) for j in range(i + 1, q.r + 1)]
        rows.append(tuple(row))
    return tuple(rows)


def test_shared_products_match_per_pair_ranks_on_random_points():
    rng = random.Random(47)
    for _ in range(40):
        q, n, invs = random_instance(rng, rmax=7, nmax=4)
        reps = [MatrixRep.random(q, n, rng), MatrixRep.random(q, n, rng, 0, 1)]
        reps.append(diagram_to_matrices(q, n, exact_diagram(q, n, invs[0])))
        for rep in reps:
            assert rank_parameter(q, n, rep).rows == per_pair_rank_parameter(q, rep)


def sparse_point(q, n, rng):
    """Entries in {-2, -1, 1, 3} at density 0.3, with about a third of the rows zero."""
    def row(cols):
        if rng.random() < 0.3:
            return (0,) * cols
        return tuple(rng.choice((-2, -1, 1, 3)) if rng.random() < 0.3 else 0 for _ in range(cols))

    mats = (tuple(row(n.at(q.tail(a))) for _ in range(n.at(q.head(a)))) for a in q.edges())
    return MatrixRep(n.entries, tuple(mats))


def test_rank_parameters_of_random_points_are_pinned():
    """Over 6,000 seeded points on chains with r = 1..14, every third chain alternating.

    Each chain gives the exact-diagram point of its first invariant, if it
    has one, and three sparse integer points.  The digest was taken from
    the per-pair elimination of freshly assembled block rows, before the
    walk kept settled pivots.
    """
    from qbfun import QuiverA

    rng = random.Random(18)
    digest = hashlib.sha256()
    count = chains = 0
    while count < 6000:
        r = rng.randint(1, 14)
        if chains % 3:
            directions = tuple(rng.choice((1, -1)) for _ in range(r - 1))
        else:
            first = rng.choice((1, -1))
            directions = tuple(first * (-1) ** e for e in range(r - 1))
        q = QuiverA(r, directions)
        n = DimVector(tuple(rng.randint(1, 3) for _ in range(r)))
        reps = [exact_rep(q, n, idx.p, idx.q) for idx in enumerate_invariants(q, n)[:1]]
        reps += [sparse_point(q, n, rng) for _ in range(3)]
        for rep in reps:
            digest.update(repr((directions, rep.dims, rank_parameter(q, n, rep).rows)).encode())
        count += len(reps)
        chains += 1
    assert count == 6002
    assert digest.hexdigest() == "2f8a894843e4d19cd48e16670c354f285acde7e41ddadb2f8a8ca270d5b87b3d"


def direct_sum(q, x, y):
    """The point x + y, with block-diagonal edge matrices."""
    mats = []
    for a in q.edges():
        tx, ty = x.dims[q.tail(a) - 1], y.dims[q.tail(a) - 1]
        mats.append([[*row, *[0] * ty] for row in x.matrix(a)] + [[*[0] * tx, *row] for row in y.matrix(a)])
    return MatrixRep.build(q, tuple(map(add, x.dims, y.dims)), mats)


def test_run_walk_matches_per_pair_ranks():
    """Long chains, zero dimensions, r = 1 and 2, and a Fraction point."""
    from conftest import random_invertible
    from qbfun import DimVector, QuiverA, enumerate_invariants
    from qbfun.invariants import act

    rng = random.Random(51)
    points = []
    for _ in range(3):
        q = random_quiver(rng, 20, 30)
        n = DimVector(tuple(rng.randint(1, 10) for _ in range(q.r)))
        points += [(q, exact_rep(q, n, idx.p, idx.q)) for idx in enumerate_invariants(q, n)[:2]]
    q = QuiverA(8, (1,) * 7)
    n = DimVector(tuple(12 if v % 2 else 14 for v in q.vertices()))
    points += [(q, exact_rep(q, n, idx.p, idx.q)) for idx in enumerate_invariants(q, n)]
    points.append((QuiverA(1, ()), MatrixRep((3,), ())))
    for text in ("1->2", "1<-2"):
        q = parse_quiver(text)
        points += [(q, MatrixRep.random(q, (2, 3), rng)), (q, MatrixRep.zero(q, (2, 3)))]
    q, n = instance(*ALT5)
    g = [random_invertible(rng, n.at(v)) for v in q.vertices()]
    points.append((q, act(q, g, exact_rep(q, n, 1, 4))))
    for q, rep in points:
        assert rank_parameter(q, rep.dims, rep).rows == per_pair_rank_parameter(q, rep)

    # Every interval point of every orientation with r = 2..5, directly.
    checked = 0
    for r in range(2, 6):
        for directions in product((1, -1), repeat=r - 1):
            q = QuiverA(r, directions)
            for i in q.vertices():
                for j in range(i, r + 1):
                    rep = interval_rep(q, Interval(i, j))
                    assert rank_parameter(q, rep.dims, rep).rows == per_pair_rank_parameter(q, rep)
                    checked += 1
    assert checked == 350

    # An interval point inside a direct sum: ranks add up.
    for _ in range(10):
        q = random_quiver(rng, 1, 6)
        full = interval_rep(q, Interval(1, q.r))
        full_rows = per_pair_rank_parameter(q, full)
        for i in q.vertices():
            for j in range(i, q.r + 1):
                rep = interval_rep(q, Interval(i, j))
                walk = rank_parameter(q, rep.dims, rep).rows
                both = per_pair_rank_parameter(q, direct_sum(q, full, rep))
                assert tuple(tuple(map(add, x, y)) for x, y in zip(walk, full_rows)) == both

    # Alternating chains R,L,R,... and L,R,L,...: every leftward run shares its sink with the run before it.
    for r in range(2, 10):
        for first in (1, -1):
            q = QuiverA(r, tuple(first * (-1) ** e for e in range(r - 1)))
            n = DimVector(tuple(rng.randint(1, 4) for _ in range(r)))
            reps = [MatrixRep.random(q, n, rng), MatrixRep.random(q, n, rng, 0, 1), MatrixRep.random(q, n, rng, -1, 1)]
            reps += [exact_rep(q, n, idx.p, idx.q) for idx in enumerate_invariants(q, n)]
            for rep in reps:
                assert rank_parameter(q, n, rep).rows == per_pair_rank_parameter(q, rep)


def test_rank_parameter_rejects_mismatched_shapes():
    q2, q3 = parse_quiver("1->2"), parse_quiver("1->2<-3")
    with pytest.raises(ShapeError):
        rank_parameter(q2, (1, 2, 1), MatrixRep.zero(q3, (1, 2, 1)))
    with pytest.raises(ShapeError):
        rank_parameter(q3, (1, 2), MatrixRep.zero(q2, (1, 2)))
    with pytest.raises(ShapeError):
        rank_parameter(q2, (1, 2), MatrixRep((1, 2), (((1, 0),),)))


def test_path_products_match_plain_chains_in_any_order():
    """Every block of the stretch table is the plain product along its run's path."""
    from qbfun import linalg
    from qbfun.invariants import block_structure
    from qbfun.ranks import _edge_rows, _stretch

    rng = random.Random(48)
    for _ in range(20):
        q, n, _ = random_instance(rng, rmax=7, nmax=4)
        base = [sum(n.entries[: v - 1]) for v in range(1, q.r + 1)]
        for rep in (MatrixRep.random(q, n, rng), sparse_point(q, n, rng)):
            mats = _edge_rows(q, rep)
            for t in q.vertices():
                stretch = _stretch(q, mats, t)
                turn = next((j for j in range(t + 1, q.r) if q.directions[j - 1] != q.directions[t - 1]), q.r)
                assert len(stretch) == turn - t
                for j, block in enumerate(stretch, start=t + 1):
                    entries = block_structure(q, t, j).entries
                    ((sigma, tau),) = entries
                    r0, c0 = base[sigma - 1], base[tau - 1]
                    dense = tuple(
                        tuple(block.get(r0 + r, {}).get(c0 + c, 0) for c in range(n.at(tau)))
                        for r in range(n.at(sigma))
                    )
                    assert dense == linalg.mat_chain([rep.matrix(e) for e in entries[(sigma, tau)]])


def test_rank_parameter_is_invariant_under_the_group_action():
    """g acts through inverse, so the ranks are taken of Fraction matrices."""
    from conftest import random_invertible
    from qbfun.invariants import act

    rng = random.Random(49)
    for _ in range(25):
        q, n, invs = random_instance(rng, rmax=6, nmax=4)
        for rep in (MatrixRep.random(q, n, rng), diagram_to_matrices(q, n, exact_diagram(q, n, invs[0]))):
            g = [random_invertible(rng, n.at(v)) for v in q.vertices()]
            moved = act(q, g, rep)
            assert rank_parameter(q, n, moved) == rank_parameter(q, n, rep)


def test_restricted_shapes_do_not_depend_on_call_order():
    rng = random.Random(50)
    for _ in range(15):
        q, n, invs = random_instance(rng, rmax=7, nmax=5)
        pairs = [(s, f) for s in invs for f in invs]
        by_slice = {(s, f): restricted_invariant_shape(q, n, s, f) for s, f in pairs}
        rng.shuffle(pairs)
        for s, f in pairs:
            assert restricted_invariant_shape(q, n, s, f) == by_slice[(s, f)]


def all_pairs_slice(q, n, idx):
    """The slice as summand_ext on every ordered pair of strand intervals gives it."""
    vertices = tuple(sorted(strand_multiset(exact_diagram(q, n, idx)).items()))
    arrows = {}
    for a, (u, _) in enumerate(vertices, start=1):
        for b, (w, _) in enumerate(vertices, start=1):
            e = summand_ext(q, u, w)
            if e:
                arrows[(a, b)] = e
    return SliceRep(vertices, arrows)


def test_slice_arrows_match_all_pairs_on_random_chains():
    """Only touching or overlapping intervals are walked; the arrows are those of all pairs."""
    rng = random.Random(52)
    total = 0
    for rmin, rmax, count in ((2, 7, 80), (20, 30, 24)):
        for _ in range(count):
            q = random_quiver(rng, rmin, rmax)
            n = DimVector(tuple(rng.randint(1, 10) for _ in range(q.r)))
            for idx in enumerate_invariants(q, n):
                assert slice_representation(q, n, idx) == all_pairs_slice(q, n, idx)
                total += 1
    assert total == 177


def test_slices_reject_a_non_invariant_with_a_cold_or_warm_cache():
    q, n = instance(*EQUI5)
    good, bad = invariant_index(q, 3, 4), invariant_index(q, 1, 2)
    assert not is_invariant(q, n, 1, 2)
    for warm in (False, True):
        if warm:
            slice_representation(q, n, good)
        with pytest.raises(NotAnInvariantError):
            slice_representation(q, n, bad)
        if warm:
            slice_representation(q, n, good)
        for idx_slice, idx_f in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(NotAnInvariantError):
                restricted_invariant_shape(q, n, idx_slice, idx_f)
        assert restricted_invariant_shape(q, n, good, good).constant


def restriction_digest(chains):
    """(pairs, non-constant pairs, sha256) over every ordered pair of each chain's invariants."""
    h = hashlib.sha256()
    pairs = nonconstant = 0
    for q, n, invs in chains:
        for s in invs:
            for f in invs:
                shape = restricted_invariant_shape(q, n, s, f)
                local = None
                if not shape.constant:
                    nonconstant += 1
                    local = (str(shape.quiver), shape.dims.entries, (shape.index.p, shape.index.q))
                h.update(repr((str(q), n.entries, (s.p, s.q), (f.p, f.q), shape.constant, local)).encode())
                pairs += 1
    return pairs, nonconstant, h.hexdigest()


def test_restrictions_of_two_chain_families_are_pinned():
    """Each restriction's chain, pairs, constancy and local quiver, dims and pair, as the path search gave them."""
    from test_acceptance import shared_instances

    worked = [instance(*example) for example in (EQUI5, ALT5, A7)]
    first = [(q, n, enumerate_invariants(q, n)) for q, n in worked] + list(shared_instances())
    assert restriction_digest(first) == (
        515,
        220,
        "1b00f7a3653def12be6fd9f51fc5229f7ec7c73c92e47be405903477a91234fc",
    )
    rng = random.Random(17)
    assert restriction_digest([random_instance(rng, rmax=14, nmax=8) for _ in range(100)]) == (
        580,
        368,
        "80beedd4d5d7b7573cb8cce65790eeb870d98a1bd59af47a7930018ba654b844",
    )


@pytest.mark.parametrize(
    "example, slice_pq, f_pq, edges, message",
    [
        (ALT5, (1, 4), (2, 5), {2: {(1, 3), (2, 4), (3, 1)}}, "edge 2: transferred arrows join 2 pairs of strands"),
        (EQUI5, (3, 4), (1, 5), {2: set()}, "edge 4: transferred arrows from .* do not continue the path"),
        (EQUI5, (3, 4), (1, 5), {3: {(1, 2), (2, 1)}}, "edge 3: transferred arrows return to .*; not a simple path"),
        (ALT5, (1, 4), (2, 5), {2: {(3, 1)}}, "without a slice arrow"),
        (EQUI5, (3, 4), (1, 5), {2: set(), 4: set()}, "do not bound a local invariant"),
        (EQUI5, (3, 4), (1, 5), {1: {(1, 1)}}, r"counts \(1, 2, 2\) do not match the local exact diagram \(2, 2, 2\)"),
    ],
)
def test_each_restriction_diagnostic_fires_on_a_doctored_diagram(monkeypatch, example, slice_pq, f_pq, edges, message):
    """The exact diagram of f given other connections on some edges is refused, never read as a shape."""
    q, n = instance(*example)
    idx_slice, idx_f = invariant_index(q, *slice_pq), invariant_index(q, *f_pq)
    assert not restricted_invariant_shape(q, n, idx_slice, idx_f).constant
    real = ranks.exact_diagram
    d = real(q, n, idx_f)
    doctored = LaceDiagram(d.columns, tuple(frozenset(edges.get(a, d.edge(a))) for a in q.edges()))
    monkeypatch.setattr(ranks, "exact_diagram", lambda q, n, idx: doctored if idx is idx_f else real(q, n, idx))
    with pytest.raises(DiagnosticError, match=message):
        restricted_invariant_shape(q, n, idx_slice, idx_f)


def test_slice_side_matches_the_strand_record_reference(monkeypatch):
    """The slice side of any diagram: its multiset, and its dot map read back as intervals.

    Complete and exact diagrams of every reference chain and seeded
    doctored ones, each handed to both sides as the exact diagram.
    """
    for q, n, d in strand_diagrams():
        monkeypatch.setattr(ranks, "exact_diagram", lambda *args: d)
        monkeypatch.setattr(reference, "exact_diagram", lambda *args: d)
        got, vertices, where = _slice_side(q, n, None)
        want, counts, intervals = reference._slice_side(q, n, None)
        assert got is d and want is d
        assert vertices == tuple(sorted(counts.items()))
        read_back = {(v, dot): vertices[k][0] for v, row in enumerate(where, start=1) for dot, k in enumerate(row) if dot}
        assert read_back == intervals, (str(q), d)


def test_local_b_from_the_restriction_walk_matches_the_closed_formula():
    """Every non-constant restriction's local b, also on copies that keep only the fields."""
    rng = random.Random(53)
    checked = 0
    for _ in range(40):
        q, n, invs = random_instance(rng, rmax=12, nmax=8)
        for s in invs:
            for f in invs:
                shape = restricted_invariant_shape(q, n, s, f)
                if shape.constant:
                    continue
                closed = b_one_variable(shape.quiver, shape.dims, shape.index)
                assert shape.local_b() == closed
                for clone in (copy.copy(shape), pickle.loads(pickle.dumps(shape)), type(shape)(*shape._key)):
                    assert clone == shape and repr(clone) == repr(shape)
                    assert clone.local_b() == closed
                checked += 1
    assert checked > 100


def test_restriction_paths_of_the_readme_slices_are_pinned():
    """path: the local vertices' positions in the slice's vertices, in path order."""
    for example, slice_pq, f_pq, path in ((EQUI5, (3, 4), (1, 5), (1, 2, 3, 4)), (ALT5, (1, 4), (2, 5), (1, 3, 4))):
        q, n = instance(*example)
        idx_slice = invariant_index(q, *slice_pq)
        shape = restricted_invariant_shape(q, n, idx_slice, invariant_index(q, *f_pq))
        assert shape.path == path
        assert restricted_invariant_shape(q, n, idx_slice, idx_slice).path is None


def test_restriction_paths_follow_slice_arrows():
    """Every non-constant restriction's path carries its dims and one slice arrow along each local edge."""
    rng = random.Random(54)
    checked = 0
    for _ in range(40):
        q, n, invs = random_instance(rng, rmax=12, nmax=8)
        for s in invs:
            srep = slice_representation(q, n, s)
            for f in invs:
                shape = restricted_invariant_shape(q, n, s, f)
                if shape.constant:
                    assert shape.path is None
                    continue
                path = shape.path
                assert len(path) == shape.quiver.r and len(set(path)) == len(path)
                assert shape.dims.entries == tuple(srep.vertices[v - 1][1] for v in path)
                for a, (u, w) in enumerate(zip(path, path[1:]), start=1):
                    tail, head = (u, w) if shape.quiver.delta(a) == 1 else (w, u)
                    assert srep.arrows.get((tail, head)) == 1
                checked += 1
    assert checked > 100


def test_slice_ext_check_fires_on_a_doctored_diagram(monkeypatch):
    """Strands [1,2] and [2,2] on 1->2 have Ext count -1: no slice is read off them."""
    q, n = instance("1->2", (1, 2))
    doctored = LaceDiagram((1, 2), (frozenset({(1, 1)}),))
    monkeypatch.setattr(ranks, "exact_diagram", lambda *args: doctored)
    message = r"Ext count -1 for \[2,2\], \[1,2\]; not a valid summand pair"
    with pytest.raises(DiagnosticError, match=message):
        slice_representation(q, n, invariant_index(q, 1, 2))
    with pytest.raises(DiagnosticError, match=message):
        summand_ext(q, Interval(2, 2), Interval(1, 2))
