import copy
import pickle
import random

import pytest

from conftest import random_quiver
from qbfun import DimVector, Interval, euler_form, parse_quiver, sinks_sources
from qbfun.errors import QuiverParseError, ShapeError
from qbfun.invariants import _walk, block_structure
from qbfun.quiver import LEFT, RIGHT, QuiverA, interval_euler_form
import reference
from reference import interval_vector


def test_parse_arrow_form():
    q = parse_quiver("1->2<-3->4->5")
    assert q.r == 5
    assert q.directions == (RIGHT, LEFT, RIGHT, RIGHT)
    assert str(q) == "1->2<-3->4->5"


def test_parse_compact_form():
    q = parse_quiver("R,L,R,R")
    assert q == parse_quiver("1->2<-3->4->5")


def test_parse_round_trip_random():
    rng = random.Random(1)
    for _ in range(50):
        q = random_quiver(rng)
        assert parse_quiver(str(q)) == q


def _parsed(parse, text):
    """The quiver parse makes of text, or its exception's class and message."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


def test_compact_form_parses_like_the_regex_parser():
    """Seeded random strings: the same QuiverA, or the same exception with the same message.

    Half the strings are letters and commas, each part padded with
    whitespace or left empty; the others are drawn from every character
    the two forms use.
    """
    rng = random.Random(29)
    blanks = ("", "", " ", "\t", "\u3000", " \t")
    alphabet = list("RLrl,-><12") + [" ", "\t", "\u3000", ""]
    parsed = failed = 0
    for _ in range(3000):
        if rng.random() < 0.5:
            letters = (rng.choice("RLrlRL ") if rng.random() < 0.9 else "" for _ in range(rng.randint(1, 8)))
            text = ",".join(rng.choice(blanks) + letter + rng.choice(blanks) for letter in letters)
        else:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        want = _parsed(reference.parse_quiver, text)
        assert _parsed(parse_quiver, text) == want, repr(text)
        if isinstance(want, QuiverA):
            parsed += 1
        else:
            assert want[0] is QuiverParseError, repr(text)
            failed += 1
    assert parsed > 500 and failed > 500, (parsed, failed)


@pytest.mark.parametrize("bad", ["", "1->3", "2->3", "1=>2", "1->1", "R,Q", "1->", "1->\uff12", "\uff11<-2", "1->\u0662"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(QuiverParseError):
        parse_quiver(bad)


@pytest.mark.parametrize("text,vertex,token", [("1 2 2", 1, "2"), ("1->2 3 3", 2, "3"), ("1 3 2", 1, "3"), ("1<-2->3 4 5", 3, "4")])
def test_arrow_form_refuses_a_number_at_an_arrow_position(text, vertex, token):
    """Vertex, arrow, vertex, ...: a number between two vertices is not read as a leftward edge."""
    with pytest.raises(QuiverParseError, match=f"expected -> or <- after vertex {vertex}, got '{token}'"):
        parse_quiver(text)
    assert _parsed(reference.parse_quiver, text) == _parsed(parse_quiver, text)


def test_heads_and_tails():
    q = parse_quiver("1->2<-3")
    assert (q.tail(1), q.head(1)) == (1, 2)
    assert (q.tail(2), q.head(2)) == (3, 2)
    assert q.delta(1) == 1 and q.delta(2) == -1


def test_sinks_sources_eight_vertices():
    q = parse_quiver("1->2->3<-4->5->6<-7<-8")
    assert sinks_sources(q) == (1, 3, 4, 6, 8)


def test_sinks_sources_trivial_and_alternating():
    assert sinks_sources(parse_quiver("1->2")) == (1, 2)
    assert sinks_sources(parse_quiver("1<-2")) == (1, 2)
    assert sinks_sources(parse_quiver("R,L,R,L")) == (1, 2, 3, 4, 5)


def test_sinks_sources_alternate_and_are_stable():
    rng = random.Random(2)
    for _ in range(50):
        q = random_quiver(rng)
        nu = sinks_sources(q)
        assert nu[0] == 1 and nu[-1] == q.r
        assert all(a < b for a, b in zip(nu, nu[1:]))
        interior = nu[1:-1]
        for v in interior:
            assert v in q.turns and q.delta(v - 1) != q.delta(v)
        # a sink's left edge points right, a source's left
        kinds = [q.delta(v - 1) == RIGHT for v in interior]
        assert all(x != y for x, y in zip(kinds, kinds[1:]))
        assert sinks_sources(q) == nu


def test_dual_flips_and_is_involutive():
    assert parse_quiver("R,R,R").dual().directions == (LEFT, LEFT, LEFT)
    assert parse_quiver("R,L").dual().directions == (LEFT, RIGHT)
    rng = random.Random(3)
    for _ in range(30):
        q = random_quiver(rng)
        assert q.dual().dual() == q
        assert set(sinks_sources(q)) == set(sinks_sources(q.dual()))


def test_euler_form_on_intervals():
    rng = random.Random(4)
    for _ in range(40):
        q = random_quiver(rng)
        i = rng.randint(1, q.r)
        j = rng.randint(i, q.r)
        char = interval_vector(q.r, Interval(i, j))
        assert euler_form(q, char, char) == 1


def test_euler_form_adjacent_intervals():
    q = parse_quiver("1->2->3")
    u = interval_vector(3, Interval(1, 1))
    w = interval_vector(3, Interval(2, 3))
    # the edge 1 -> 2 runs from the end of [1,1] into the start of [2,3]
    assert euler_form(q, u, w) == -1


def test_euler_form_zero_and_bilinear():
    rng = random.Random(5)
    for _ in range(30):
        q = random_quiver(rng)
        n = tuple(rng.randint(0, 4) for _ in range(q.r))
        m1 = tuple(rng.randint(0, 4) for _ in range(q.r))
        m2 = tuple(rng.randint(0, 4) for _ in range(q.r))
        zero = (0,) * q.r
        assert euler_form(q, n, zero) == 0
        s = tuple(a + b for a, b in zip(m1, m2))
        assert euler_form(q, n, s) == euler_form(q, n, m1) + euler_form(q, n, m2)


def test_euler_form_length_mismatch():
    q = parse_quiver("1->2->3")
    with pytest.raises(ShapeError):
        euler_form(q, (1, 2), (1, 2, 3))


def test_dim_vector_validation():
    with pytest.raises(QuiverParseError):
        DimVector((1, 0, 2))
    assert DimVector.parse("2,5,6,6,2").entries == (2, 5, 6, 6, 2)
    assert DimVector.parse("3,1").at(1) == 3
    assert DimVector.parse(" 2 ,\t5").entries == (2, 5)
    for bad in ("+1", " +1,2", "1_0", "\uff11", "2,\u0662", "2,-1", "-1", "1 2", ""):
        with pytest.raises(QuiverParseError):
            DimVector.parse(bad)


def test_interval_validation_and_order():
    with pytest.raises(QuiverParseError):
        Interval(3, 2)
    assert Interval(1, 2) < Interval(1, 3) < Interval(2, 2)
    assert 2 in Interval(1, 3) and 4 not in Interval(1, 3)


def _seeded_chains():
    """r = 1 and eight seeded chains with 2 <= r <= 25."""
    rng = random.Random(25)
    yield QuiverA(1, ())
    for _ in range(8):
        yield random_quiver(rng, 2, 25)


def test_interval_euler_form_matches_euler_form():
    for q in _seeded_chains():
        intervals = [Interval(i, j) for i in q.vertices() for j in range(i, q.r + 1)]
        vectors = {iv: interval_vector(q.r, iv) for iv in intervals}
        for u in intervals:
            for w in intervals:
                assert interval_euler_form(q, u, w) == euler_form(q, vectors[u], vectors[w]), (str(q), u, w)
        outside = Interval(1, q.r + 1)
        for pair in ((outside, intervals[0]), (intervals[0], outside)):
            with pytest.raises(ShapeError):
                interval_euler_form(q, *pair)


def _reference_entries(q, lo, hi):
    """block_structure(q, lo, hi).entries from delta alone: one block per maximal run of like edges."""
    entries, start = {}, lo
    while start < hi:
        end = start + 1
        while end < hi and q.delta(end) == q.delta(start):
            end += 1
        if q.delta(start) == RIGHT:
            entries[(end, start)] = tuple(range(end - 1, start - 1, -1))
        else:
            entries[(start, end)] = tuple(range(start, end))
        start = end
    return entries


def _reference_levels(q, n, p):
    """The walk's levels from p, with the level flipped where delta changes."""
    c, levels = n.at(p), []
    for t in range(p + 1, q.r + 1):
        levels.append((t, c))
        if n.at(t) <= c:
            break
        if t < q.r and q.delta(t - 1) != q.delta(t):
            c = n.at(t) - c
    return levels


def test_sinks_sources_matches_delta_reference():
    """The cached turns, and all that reads them, against delta; also on pickled and copied quivers."""
    rng = random.Random(12)
    chains = [*_seeded_chains(), *(random_quiver(rng, r, r) for r in range(1, 13) for _ in range(3))]
    assert {q.r for q in chains} >= set(range(1, 13))
    for original in chains:
        n = DimVector(tuple(rng.randint(1, 6) for _ in range(original.r)))
        for q in (original, pickle.loads(pickle.dumps(original)), copy.copy(original), copy.deepcopy(original)):
            inner = [v for v in range(2, q.r) if q.delta(v - 1) != q.delta(v)]
            expected = (1,) if q.r == 1 else (1, *inner, q.r)
            assert sinks_sources(q) == expected
            assert q.turns == set(inner)
            for v in range(0, q.r + 2):
                interior = 1 < v < q.r
                # interior sinks and sources: the turns whose left edge points right, and left
                is_sink = v in q.turns and q.delta(v - 1) == RIGHT
                is_source = v in q.turns and q.delta(v - 1) == LEFT
                assert is_sink == (interior and q.delta(v - 1) == RIGHT and q.delta(v) == LEFT)
                assert is_source == (interior and q.delta(v - 1) == LEFT and q.delta(v) == RIGHT)
            for i in q.vertices():
                for j in range(i + 1, q.r + 1):
                    assert block_structure(q, i, j).entries == _reference_entries(q, i, j), (str(q), i, j)
                assert list(_walk(q, n, i)) == _reference_levels(q, n, i), (str(q), str(n), i)
