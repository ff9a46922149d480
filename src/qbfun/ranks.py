"""Rank parameters, slice representations and restrictions to normal slices.

The rank parameter of a point collects the ranks of the sink/source maps
of every subinterval; componentwise comparison of rank parameters is the
orbit closure order.  At the distinguished point of an invariant's open
set, the isotropy group and normal slice are read off the strands of the
exact lace diagram.
"""

from __future__ import annotations

from collections import Counter

from . import linalg
from .bfun import FactoredBFunction, b_one_variable
from .diagrams import _strand_sweep, exact_diagram
from .errors import DiagnosticError, NotAnInvariantError, ShapeError
from .invariants import InvariantIndex, MatrixRep, check_invariant, invariant_index
from .quiver import RIGHT, DimVector, Interval, QuiverA, _interval_euler, interval_euler_form
from .record import Record, setfield


class RankParameter(Record):
    """Upper-triangular array N_{ij}; rows[i-1] holds (N_ii, ..., N_ir)."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple):
        setfield(self, "rows", rows)

    @property
    def r(self) -> int:
        return len(self.rows)

    def N(self, i: int, j: int) -> int:
        if not 1 <= i <= j <= self.r:
            raise ShapeError(f"need 1 <= i <= j <= {self.r}")
        return self.rows[i - 1][j - i]

    def __iter__(self):
        for i in range(1, self.r + 1):
            for j in range(i, self.r + 1):
                yield (i, j, self.N(i, j))


def rank_parameter(q: QuiverA, n, rep: MatrixRep) -> RankParameter:
    """N_ij = rank of the sink/source map of the subquiver [i, j]; N_ii = n_i.

    The block matrix of [i, j] has one block per monotone run of the
    path, the product along the run, and neighbouring runs share a sink
    or a source.  For a fixed i only the last run changes as j grows.
    So the rows of the runs before it are eliminated once, into the
    settled pivots, and each step eliminates only the live rows against
    them: the last run's block, joined with the previous run's block
    when the last run points left and the two share its sink.  The
    blocks are read from the path products along each monotone stretch,
    built once per call.
    """
    dims = rep.dims
    if dims != tuple(n):
        raise ShapeError("representation dimensions do not match the quiver or the dimension vector")
    mats = _edge_rows(q, rep.check(q))
    d = q.directions
    # every run of [i, j] but the first starts at a turn
    turns = {t: _stretch(q, mats, t) for t in q.turns}
    rows = []
    for i in q.vertices():
        row = [dims[i - 1]]
        settled, new, shared = {}, {}, None
        t, stretch = i, turns[i] if i in turns else _stretch(q, mats, i)
        while True:
            last = None
            for block in stretch:
                if block is not last:
                    live = block.values() if shared is None else _joined(shared, block)
                    new, last = linalg._eliminate(live, settled)[0], block
                row.append(len(settled) + len(new))
            t += len(stretch)
            if t == q.r:
                break
            # a run opens at t: a rightward one settles the rows before it
            if d[t - 1] == RIGHT:
                settled.update(new)
                shared = None
            else:
                shared = block
            stretch = turns[t]
        rows.append(tuple(row))
    return RankParameter(tuple(rows))


def _edge_rows(q: QuiverA, rep: MatrixRep):
    """Edge matrices as {row: {column: entry}}, nonzero rows and entries only.

    Row and column keys number the coordinates of all vertices in one
    sequence, vertex v's from n_1 + ... + n_{v-1} on.  So a product keeps
    its factors' keys, blocks of different sinks share no row key, and
    column keys order the sources as invariants.assemble does.
    """
    base = [sum(rep.dims[: v - 1]) for v in q.vertices()]
    mats = []
    for a, (d, m) in enumerate(zip(q.directions, rep.matrices)):
        r0, c0 = (base[a + 1], base[a]) if d == RIGHT else (base[a], base[a + 1])
        mats.append({r0 + r: {c0 + c: x for c, x in enumerate(row) if x} for r, row in enumerate(m) if any(row)})
    return mats


def _stretch(q: QuiverA, mats, t: int):
    """The path products from t along its monotone stretch, in the form of _edge_rows.

    The stretch ends at the next turn or at r.  Entry k is the block of the
    run from t to t + k + 1: the product from its source to its sink, one
    product per edge onto the one before.  Once a product vanishes, the
    entries after it are that same empty block, so rank_parameter sees the
    live rows unchanged.
    """
    blocks = []
    for j in range(t, q.r):
        a = mats[j - 1]
        if blocks and not blocks[-1]:
            a = blocks[-1]
        elif blocks:
            a = _sparse_mul(a, blocks[-1]) if q.directions[t - 1] == RIGHT else _sparse_mul(blocks[-1], a)
        blocks.append(a)
        if j + 1 in q.turns:
            break
    return blocks


def _sparse_mul(x, y):
    """Product of two matrices in the form of _edge_rows."""
    out = {}
    for r, row in x.items():
        acc = {}
        for k, a in row.items():
            for c, b in y.get(k, {}).items():
                acc[c] = acc.get(c, 0) + a * b
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def _joined(x, y):
    """The rows of the blocks x and y, those of a sink both share joined."""
    rows = dict(x)
    for k, row in y.items():
        rows[k] = {**rows[k], **row} if k in rows else row
    return rows.values()


def summand_ext(q: QuiverA, u: Interval, w: Interval) -> int:
    """dim Ext between interval summands of one locally closed orbit's point.

    Such summands pairwise satisfy dim Hom = delta, so Ext is delta minus
    the Euler form.  For distinct intervals this is 1 exactly when they
    are disjoint and an arrow runs from an end of u to the adjacent end
    of w, and 0 otherwise (nested or overlapping pairs contribute 0).
    """
    return _checked_ext((1 if u == w else 0) - interval_euler_form(q, u, w), u, w)


def _checked_ext(e: int, u: Interval, w: Interval) -> int:
    """e, unless it is no Ext count of two summands of one locally closed orbit's point."""
    if e not in (0, 1):
        raise DiagnosticError(f"Ext count {e} for {u}, {w}; not a valid summand pair")
    return e


class SliceRep(Record):
    """Isotropy factors and normal-slice summands at a locally closed orbit.

    vertices: (interval, multiplicity) sorted by interval.  arrows maps
    ordered vertex positions (1-based) to the Ext count; the arrow
    (u -> w) contributes the matrix space M(mult_w, mult_u) to the slice.
    """

    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices: tuple, arrows: dict):
        setfield(self, "vertices", vertices)
        setfield(self, "arrows", arrows)

    def group_factors(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.vertices)

    def w_summands(self) -> tuple:
        """Matrix-space shapes (rows, cols) = (mult of target, mult of source)."""
        out = []
        for (src, dst), count in sorted(self.arrows.items()):
            shape = (self.vertices[dst - 1][1], self.vertices[src - 1][1])
            out.extend([shape] * count)
        return tuple(out)

    def slice_dimension(self) -> int:
        return sum(rows * cols for rows, cols in self.w_summands())


class NormalSlice(Record):
    """The slice at the orbit of the invariant index: its exact diagram, dot map and SliceRep, built once."""

    __slots__ = ("index", "diagram", "where", "rep")

    def __init__(self, index: InvariantIndex, diagram, where: list, rep: SliceRep):
        setfield(self, "index", index)
        setfield(self, "diagram", diagram)
        setfield(self, "where", where)
        setfield(self, "rep", rep)


def normal_slice(q: QuiverA, n: DimVector, idx: InvariantIndex) -> NormalSlice:
    """Local quiver of the exact diagram's strand decomposition.

    Only intervals that overlap or touch (w.i <= u.j + 1 and w.j >= u.i - 1)
    can have nonzero Ext: any other pair shares no vertex and no edge, so
    its Euler form is 0.  The vertices are sorted by (i, j), so the walk
    over w stops at the first w.i > u.j + 1.
    """
    d, vertices, where = _slice_side(q, n, idx)
    spans = [(iv.i, iv.j) for iv, _ in vertices]
    rights = q._rights
    arrows = {}
    for a, (ui, uj) in enumerate(spans, start=1):
        for b, (wi, wj) in enumerate(spans, start=1):
            if wi > uj + 1:
                break
            if wj >= ui - 1:
                # summand_ext on the endpoints: the intervals are distinct, and all fit in r
                e = (a == b) - _interval_euler(rights, ui, uj, wi, wj)
                if e:
                    arrows[(a, b)] = _checked_ext(e, vertices[a - 1][0], vertices[b - 1][0])
    return NormalSlice(idx, d, where, SliceRep(vertices, arrows))


def slice_representation(q: QuiverA, n: DimVector, idx: InvariantIndex) -> SliceRep:
    """The SliceRep of normal_slice."""
    return normal_slice(q, n, idx).rep


def _slice_side(q: QuiverA, n: DimVector, idx: InvariantIndex):
    """Exact diagram, sorted (interval, multiplicity) pairs and dot map of idx.

    The dot map's row v - 1 holds, at each dot of column v, the position
    in the sorted pairs of its strand's interval (entry 0 is unused).
    """
    d = exact_diagram(q, n, idx)
    alone, longer = _strand_sweep(d)
    counts = Counter((i, j) for i, j, _ in longer)
    for col, dots in enumerate(alone, start=1):
        if dots:
            counts[(col, col)] = len(dots)
    spans = sorted(counts)
    position = {span: k for k, span in enumerate(spans)}
    where = [[position.get((col, col))] * (size + 1) for col, size in enumerate(d.columns, start=1)]
    for i, j, dots in longer:
        k = position[(i, j)]
        for v, dot in enumerate(dots, start=i - 1):
            where[v][dot] = k
    return d, tuple((Interval(i, j), counts[(i, j)]) for i, j in spans), where


class RestrictedInvariant(Record):
    """Restriction of one invariant to the slice of another's orbit.

    Either constant, or a path-shaped local quiver with dimension vector,
    invariant index and path: the local vertices' 1-based positions in the
    slice's vertices, in path order.  local_b is the b-function of the restriction.
    """

    __slots__ = ("constant", "quiver", "dims", "index", "path")

    def __init__(self, constant: bool, quiver: QuiverA = None, dims: DimVector = None, index=None, path=None):
        setfield(self, "constant", constant)
        setfield(self, "quiver", quiver)
        setfield(self, "dims", dims)
        setfield(self, "index", index)
        setfield(self, "path", path)

    def local_b(self) -> FactoredBFunction | None:
        """b_one_variable of the local invariant."""
        return None if self.constant else b_one_variable(self.quiver, self.dims, self.index)


def restricted_invariant_shape(q: QuiverA, n: DimVector, idx_slice: InvariantIndex, idx_f: InvariantIndex):
    """Shape of f_{idx_f} restricted to the slice at the orbit of idx_slice."""
    return restrict(q, n, normal_slice(q, n, idx_slice), idx_f)


def restrict(q: QuiverA, n: DimVector, s: NormalSlice, idx_f: InvariantIndex) -> RestrictedInvariant:
    """Shape of f_{idx_f} restricted to the slice s.

    The connections of the exact diagram of idx_f that are absent from
    the exact diagram of the slice invariant are transferred to the
    slice's local quiver: a connection joins the strands of the slice
    invariant's diagram that contain its endpoints.  Read edge by edge
    from left to right, each edge that moves connections must join one
    pair of strand intervals whose left one ends the path so far, so that
    they trace out a path of local vertices joined by slice arrows,
    carrying the exact diagram of the local invariant between the path's
    ends; anything else is surfaced as a diagnostic error.
    """
    if idx_f == s.index:
        return RestrictedInvariant(constant=True)
    d_slice, where, vertices, arrows = s.diagram, s.where, s.rep.vertices, s.rep.arrows
    d_f = exact_diagram(q, n, idx_f)

    walk, directions, got = [], [], []
    for a, f_pairs in enumerate(d_f.connections, start=1):
        if not f_pairs:
            continue
        moved = f_pairs - d_slice.connections[a - 1]
        if not moved:
            continue
        left_row, right_row = where[a - 1], where[a]
        ends = {(left_row[dl], right_row[dr]) for dl, dr in moved}
        if len(ends) != 1:
            raise DiagnosticError(f"edge {a}: transferred arrows join {len(ends)} pairs of strands")
        ((left, right),) = ends
        if not walk:
            walk.append(left)
        elif left != walk[-1]:
            raise DiagnosticError(f"edge {a}: transferred arrows from {vertices[left][0]} do not continue the path")
        if right in walk:
            raise DiagnosticError(f"edge {a}: transferred arrows return to {vertices[right][0]}; not a simple path")
        d = q.directions[a - 1]
        tail, head = (left, right) if d == RIGHT else (right, left)
        if arrows.get((tail + 1, head + 1)) != 1:
            raise DiagnosticError(f"transferred arrows {vertices[tail][0]} -> {vertices[head][0]} without a slice arrow")
        walk.append(right)
        directions.append(d)
        got.append(len(moved))
    if not walk:
        return RestrictedInvariant(constant=True)

    local_q = QuiverA(len(walk), tuple(directions))
    local_n = DimVector(tuple(vertices[v][1] for v in walk))
    local_idx = invariant_index(local_q, 1, len(walk))
    try:
        levels = check_invariant(local_q, local_n, local_idx)
    except NotAnInvariantError:
        raise DiagnosticError("transferred arrows do not bound a local invariant") from None
    # the local exact diagram carries c connections on the edge into each level (t, c)
    expected = tuple(c for _, c in levels)
    if expected != tuple(got):
        raise DiagnosticError(
            f"transferred arrow counts {tuple(got)} do not match the local exact diagram {expected}"
        )
    return RestrictedInvariant(False, local_q, local_n, local_idx, tuple(v + 1 for v in walk))
