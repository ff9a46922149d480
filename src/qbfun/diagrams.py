"""Lace diagrams: columns of dots joined edgewise by partial matchings.

Dots in column v are numbered 1..n_v from the bottom.  A connection on
edge a is a pair (d_left, d_right): dot d_left of column a joined to dot
d_right of column a + 1, whatever the arrow direction.  Rightward edges
align columns at the bottom, leftward edges at the top, so the diagrams
drawn here pair dots of equal height under that convention.
"""

from __future__ import annotations

from . import linalg
from .bfun import FSet, fset_of_invariant
from .errors import ShapeError
from .invariants import InvariantIndex, MatrixRep
from .quiver import RIGHT, DimVector, Interval, QuiverA, check_dims
from .record import Record, setfield


class LaceDiagram(Record):
    __slots__ = ("columns", "connections")

    def __init__(self, columns: tuple[int, ...], connections: tuple[frozenset, ...]):
        if len(connections) != max(len(columns) - 1, 0):
            raise ShapeError("need one connection set per edge")
        for a, pairs in enumerate(connections, start=1):
            if not pairs:
                continue
            left, right = columns[a - 1], columns[a]
            left_seen, right_seen = set(), set()
            for dl, dr in pairs:
                if not (1 <= dl <= left and 1 <= dr <= right):
                    raise ShapeError(f"edge {a}: connection ({dl},{dr}) out of range")
                if dl in left_seen or dr in right_seen:
                    raise ShapeError(f"edge {a}: a dot is connected twice on one side")
                left_seen.add(dl)
                right_seen.add(dr)
        setfield(self, "columns", columns)
        setfield(self, "connections", connections)

    @property
    def r(self) -> int:
        return len(self.columns)

    def edge(self, a: int) -> frozenset:
        return self.connections[a - 1]

    def edge_counts(self) -> tuple[int, ...]:
        return tuple(len(pairs) for pairs in self.connections)


def arrow(q: QuiverA, n: DimVector, a: int, c: int) -> tuple[int, int]:
    """The arrow on edge a that carries the column-(a+1) constant c.

    A bundle of L arrows on edge a carries the constants
    n_{a+1}-L+1..n_{a+1}, one each.  On a rightward edge the bundle sits
    at the bottom with constants increasing downwards; on a leftward edge
    it sits at the top with constants increasing upwards.
    """
    return _arrows(q.delta(a), n.at(a), n.at(a + 1), range(c, c + 1))[0]


def _arrows(direction: int, left: int, right: int, constants) -> list[tuple[int, int]]:
    """arrow for each of the constants, on an edge of this direction between columns of sizes left and right."""
    if direction == RIGHT:
        return [(right - c + 1, right - c + 1) for c in constants]
    return [(left - right + c, c) for c in constants]


def _fset_layout(q: QuiverA, n: DimVector, fs: FSet) -> LaceDiagram:
    """The diagram of an F-set: constant c of column k on arrow(q, n, k - 1, c), each edge's bundle at once."""
    dims, directions = n.entries, q.directions
    conns = [frozenset()] * len(fs.ranges)
    for a, rng in enumerate(fs.ranges):
        if rng is not None:
            conns[a] = frozenset(_arrows(directions[a], dims[a], dims[a + 1], range(rng[0], rng[1] + 1)))
    return LaceDiagram(dims, tuple(conns))


def complete_diagram(q: QuiverA, n: DimVector) -> LaceDiagram:
    """All possible height-preserving connections on every edge.

    The layout of the F-set whose column k is n_k - min(n_{k-1}, n_k) + 1..n_k.
    The represented point is a generic one: no fundamental invariant
    vanishes on it.
    """
    check_dims(q, n)
    ranges = tuple((n.at(k) - min(n.at(k - 1), n.at(k)) + 1, n.at(k)) for k in range(2, q.r + 1))
    return _fset_layout(q, n, FSet(q.r, ranges))


def exact_diagram(q: QuiverA, n: DimVector, idx: InvariantIndex) -> LaceDiagram:
    """Canonical minimal diagram of the closed orbit inside {f_{(p,q)} != 0}: the layout of its F-set.

    Edge t-1 carries a bundle of c strands for each level (t, c) of the
    walk from p to q.  Past an interior sink or source v the bundle moves
    to the complementary dots of column v, since c becomes n_v - c.
    """
    return _fset_layout(q, n, fset_of_invariant(q, n, idx))


def diagram_to_matrices(q: QuiverA, n, d: LaceDiagram) -> MatrixRep:
    """0/1 edge matrices: connected dots map basis vector to basis vector."""
    check_dims(q, n)
    cols = tuple(n)
    if d.columns != cols:
        raise ShapeError("diagram column sizes do not match the dimension vector")
    mats = []
    for a, (direction, pairs) in enumerate(zip(q.directions, d.connections), start=1):
        if direction == RIGHT:  # rows are column a + 1's dots
            m = [[0] * cols[a - 1] for _ in range(cols[a])]
            for dl, dr in pairs:
                m[dr - 1][dl - 1] = 1
        else:
            m = [[0] * cols[a] for _ in range(cols[a - 1])]
            for dl, dr in pairs:
                m[dl - 1][dr - 1] = 1
        mats.append(m)
    # each shape follows from cols, so the record needs no MatrixRep.check
    return MatrixRep(cols, tuple(linalg.mat(m) for m in mats))


class Strand(Record):
    """A maximal connected path of dots; spans the interval of its columns."""

    __slots__ = ("interval", "dots")

    def __init__(self, interval: Interval, dots: tuple[int, ...]):
        setfield(self, "interval", interval)
        setfield(self, "dots", dots)


def _strand_sweep(d: LaceDiagram):
    """The strands of d: per column, the dots that are strands of their own; and each longer strand.

    A longer strand is (first column, last column, dots).  Each edge's
    connections are one dict from left dot to right dot, and the dots of
    a column with a left neighbour one set.  A dot in neither that set
    nor its column's dict is a strand of its own; a longer strand starts
    at every other dot outside the set.
    """
    right_of = [dict(pairs) for pairs in d.connections]
    right_of.append({})  # the last column has no edge to its right
    alone, longer = [], []
    joined = set()
    for col, (size, step) in enumerate(zip(d.columns, right_of), start=1):
        alone.append(set(range(1, size + 1)).difference(joined, step))
        for dot in step.keys() - joined:
            dots, v, cur = [dot], col, step[dot]
            while cur is not None:
                dots.append(cur)
                cur = right_of[v].get(cur)
                v += 1
            longer.append((col, v, dots))
        joined = set(step.values())
    return alone, longer


def strands(d: LaceDiagram) -> tuple[Strand, ...]:
    """All maximal strands, sorted by (interval, dots)."""
    alone, longer = _strand_sweep(d)
    found = [(i, j, tuple(dots)) for i, j, dots in longer]
    found += [(col, col, (dot,)) for col, dots in enumerate(alone, start=1) for dot in dots]
    found.sort()
    return tuple(Strand(Interval(i, j), dots) for i, j, dots in found)
