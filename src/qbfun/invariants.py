"""Enumeration and evaluation of the fundamental relative invariants.

For a dimension vector n on a type-A quiver, the fundamental relative
invariants of the GL(n)-action on the representation space are labelled
by pairs (p, q).  Each is the determinant of a block matrix assembled
from the edge matrices of the subquiver between p and q: rows are
indexed by the sinks of that subquiver, columns by its sources, and the
nonzero blocks are the path products along its monotone runs.
"""

from __future__ import annotations

from itertools import accumulate

from . import linalg
from .errors import NotAnInvariantError, ShapeError
from .quiver import RIGHT, DimVector, QuiverA, check_dims
from .record import Record, setfield


class InvariantIndex(Record, order=True):
    """A pair 1 <= p < q <= r: the label of an invariant, ordered by (p, q).

    The level walk from p (``_walk``) is the one description of the
    columns between p and q; the index holds no second one.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        setfield(self, "p", p)
        setfield(self, "q", q)


def _check_pair(q: QuiverA, p: int, qq: int) -> None:
    if not 1 <= p < qq <= q.r:
        raise ShapeError(f"need 1 <= p < q <= {q.r}, got ({p}, {qq})")


def invariant_index(q: QuiverA, p: int, qq: int) -> InvariantIndex:
    """Build the InvariantIndex (p, q) after checking 1 <= p < q <= r."""
    _check_pair(q, p, qq)
    return InvariantIndex(p, qq)


def _walk(q: QuiverA, n: DimVector, p: int):
    """Yield (t, c) for t = p+1, p+2, ...: the level c carried into column t.

    The level starts at n_p and becomes n_t - c after each interior sink
    or source t.  The walk stops after the first column with n_t <= c;
    (p, t) is an invariant exactly when n_t == c there, so each p has at
    most one partner, and the walk from an invariant's p yields the
    levels into its columns p+1..q.
    """
    c, turns = n.at(p), q.turns
    for t in range(p + 1, q.r + 1):
        yield t, c
        if n.at(t) <= c:
            return
        if t in turns:
            c = n.at(t) - c


def _partner(q: QuiverA, n: DimVector, p: int):
    """The q with (p, q) an invariant, or None; needs p < r."""
    *_, (t, c) = _walk(q, n, p)
    return t if n.at(t) == c else None


def is_invariant(q: QuiverA, n: DimVector, p: int, qq: int) -> bool:
    """Whether the level walk from p ends at q.

    This is the paper's four index conditions: n_t > c strictly between
    p and q, and n_q = c, with c the alternating sum nbar in force.
    """
    check_dims(q, n)
    _check_pair(q, p, qq)
    return _partner(q, n, p) == qq


def enumerate_invariants(q: QuiverA, n: DimVector) -> tuple[InvariantIndex, ...]:
    """All invariant labels, sorted by (p, q): one walk per p.  May be empty."""
    check_dims(q, n)
    found = []
    for p in range(1, q.r):
        qq = _partner(q, n, p)
        if qq is not None:
            found.append(invariant_index(q, p, qq))
    return tuple(found)


def check_invariant(q: QuiverA, n: DimVector, idx: InvariantIndex) -> list[tuple[int, int]]:
    """Raise unless idx labels an invariant; return its walk's levels (t, c), t = p+1..q."""
    check_dims(q, n)
    _check_pair(q, idx.p, idx.q)
    levels = list(_walk(q, n, idx.p))
    t, c = levels[-1]
    if t != idx.q or n.at(t) != c:
        raise NotAnInvariantError(idx.p, idx.q)
    return levels


class BlockMatrixSpec(Record):
    """Block layout of the map from source spaces to sink spaces of Q^{(p,q)}.

    row_blocks / col_blocks are the sink / source vertices of the
    subquiver in increasing order.  entries maps (sink, source) to the
    ordered tuple of edges whose matrices multiply (sink-adjacent factor
    first) to give that block; absent pairs are zero blocks.
    """

    __slots__ = ("row_blocks", "col_blocks", "entries")

    def __init__(self, row_blocks: tuple[int, ...], col_blocks: tuple[int, ...], entries: dict):
        setfield(self, "row_blocks", row_blocks)
        setfield(self, "col_blocks", col_blocks)
        setfield(self, "entries", entries)

    def row_dims(self, n: DimVector) -> tuple[int, ...]:
        return tuple(n.at(v) for v in self.row_blocks)

    def col_dims(self, n: DimVector) -> tuple[int, ...]:
        return tuple(n.at(v) for v in self.col_blocks)

    def offsets(self, dims) -> tuple[dict, dict]:
        """First row of each sink block and first column of each source block at dims."""
        return tuple(
            dict(zip(blocks, accumulate((dims[v - 1] for v in blocks), initial=0)))
            for blocks in (self.row_blocks, self.col_blocks)
        )


def block_structure(q: QuiverA, lo: int, hi: int) -> BlockMatrixSpec:
    """Block layout for any pair lo < hi, one block per monotone run between the turns; not always square."""
    if not 1 <= lo < hi <= q.r:
        raise ShapeError(f"need 1 <= i < j <= {q.r}, got ({lo}, {hi})")
    cuts = [lo, *(v for v in range(lo + 1, hi) if v in q.turns), hi]
    entries = {}
    for start, end in zip(cuts, cuts[1:]):
        if q.directions[start - 1] == RIGHT:
            entries[(end, start)] = tuple(range(end - 1, start - 1, -1))
        else:
            entries[(start, end)] = tuple(range(start, end))
    sinks, sources = zip(*entries)
    return BlockMatrixSpec(tuple(sorted(set(sinks))), tuple(sorted(set(sources))), entries)


def block_spec(q: QuiverA, n: DimVector, idx: InvariantIndex) -> BlockMatrixSpec:
    """Validated square block spec whose determinant is f_{(p,q)}."""
    check_invariant(q, n, idx)
    spec = block_structure(q, idx.p, idx.q)
    if sum(spec.row_dims(n)) != sum(spec.col_dims(n)):
        raise ShapeError(f"block matrix for ({idx.p},{idx.q}) is not square")
    return spec


class MatrixRep(Record):
    """A point of the representation space: one exact matrix per edge.

    dims may contain zeros (interval representations); matrices[a-1] has
    shape dims[h(a)-1] x dims[t(a)-1].
    """

    __slots__ = ("dims", "matrices")

    def __init__(self, dims: tuple[int, ...], matrices: tuple[tuple, ...]):
        if len(matrices) != len(dims) - 1:
            raise ShapeError("need one matrix per edge")
        setfield(self, "dims", dims)
        setfield(self, "matrices", matrices)

    def matrix(self, a: int):
        return self.matrices[a - 1]

    def check(self, q: QuiverA) -> "MatrixRep":
        """Raise ShapeError unless dims fit q and every edge matrix, row by row, has the shape above; returns self."""
        if len(self.dims) != q.r:
            raise ShapeError(f"{len(self.dims)} dimensions for a quiver with {q.r} vertices")
        dims = self.dims
        for a, (d, m) in enumerate(zip(q.directions, self.matrices), start=1):
            rows, cols = (dims[a], dims[a - 1]) if d == RIGHT else (dims[a - 1], dims[a])
            if len(m) != rows or any(len(row) != cols for row in m):
                raise ShapeError(f"edge {a}: matrix is not {rows}x{cols}")
        return self

    @classmethod
    def build(cls, q: QuiverA, dims, mats) -> "MatrixRep":
        return cls(tuple(dims), tuple(linalg.mat(m) for m in mats)).check(q)

    @classmethod
    def zero(cls, q: QuiverA, n) -> "MatrixRep":
        dims = tuple(n)
        mats = [linalg.zeros(dims[q.head(a) - 1], dims[q.tail(a) - 1]) for a in q.edges()]
        return cls.build(q, dims, mats)

    @classmethod
    def random(cls, q: QuiverA, n, rng, lo: int = -3, hi: int = 3) -> "MatrixRep":
        dims = tuple(n)
        mats = [
            [[rng.randint(lo, hi) for _ in range(dims[q.tail(a) - 1])] for _ in range(dims[q.head(a) - 1])]
            for a in q.edges()
        ]
        return cls.build(q, dims, mats)


def act(q: QuiverA, g, rep: MatrixRep) -> MatrixRep:
    """Group action: edge matrix X_a becomes g_{h(a)} X_a g_{t(a)}^{-1}."""
    g = [linalg.mat(gi) for gi in g]
    inv = [linalg.inverse(gi) for gi in g]
    mats = [
        linalg.mat_mul(linalg.mat_mul(g[q.head(a) - 1], rep.matrix(a)), inv[q.tail(a) - 1])
        for a in q.edges()
    ]
    return MatrixRep.build(q, rep.dims, mats)


def assemble(spec: BlockMatrixSpec, rep: MatrixRep):
    """Instantiate the block matrix at a concrete representation."""
    dims = rep.dims
    row_off, col_off = spec.offsets(dims)
    total_rows = sum(dims[v - 1] for v in spec.row_blocks)
    total_cols = sum(dims[v - 1] for v in spec.col_blocks)
    out = [[0] * total_cols for _ in range(total_rows)]
    for (sigma, tau), path in spec.entries.items():
        block = linalg.mat_chain([rep.matrix(e) for e in path])
        r0, c0 = row_off[sigma], col_off[tau]
        for i, row in enumerate(block):
            out[r0 + i][c0 : c0 + len(row)] = row
    return linalg.mat(out)


def evaluate_invariant(spec: BlockMatrixSpec, rep: MatrixRep):
    """Exact determinant of the instantiated block matrix."""
    y = assemble(spec, rep)
    rows, cols = linalg.shape(y)
    if rows != cols:
        raise ShapeError(f"instantiated block matrix is {rows}x{cols}, not square")
    return linalg.det(y)
