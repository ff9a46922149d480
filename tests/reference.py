"""Reference implementations that the faster library code must agree with.

These are the cell-by-cell ASCII renderer (with the column layout it
was written against), the column-by-column superposition, the CLI
entry that sends every argv through ``build_parser().parse_args``, the
quiver parser that matches the compact form with a regular expression, the
bundle-by-bundle complete and exact diagrams, the bracket product
expanded with its own base loop, the one-arrow-at-a-time layout
(``arrow`` and ``_fset_layout``), the lace diagram checked pair by pair,
the dot-by-dot strand walk and the slice side read off ``Strand``
records, the one-variable b-function built through ``from_counter``
from a count of every F-set member, and the b-function document built
from ``_form_to_json``.  ``qbfun.render``,
``qbfun.bfun.merge_columns``, ``qbfun.cli.cli_main``, ``qbfun.quiver.parse_quiver``, the F-set layout
of ``qbfun.diagrams``, ``qbfun.bfun.evaluate_bracket_product`` at
symbolic ``s_i``, the shared strand sweep of ``qbfun.diagrams.strands``
and ``qbfun.ranks._slice_side``, ``FactoredBFunction.one_variable`` and
``qbfun.bfun.b_from_fset`` and ``qbfun.jsonio.bfun_to_json`` replaced them; they are kept unchanged so the
tests can require equal output from the new code.  The bundle-by-bundle
diagrams lay out their arrows with the ``arrow`` kept here, and
``b_from_fset`` counts into the ``one_variable`` kept here.

The last functions here left the library because only the tests called
them, and they are kept with the same bodies: the members of an F-set
column, the 0/1 interval vectors and interval representations, the
(Hom, Ext) dimensions as kernel and cokernel of the difference map (the
independent side of the slice-dimension identity), the character
exponents of an invariant, and the paper's alternating sums ``nbar``,
which read the segment indices alpha and beta off ``segment_indices``.

``parse_quiver`` keeps the regex parser's body but for one rule, which
the library shares: a token at an arrow position that is not an arrow is
refused.

``grad_log_invariant`` is the oracle's gradient-log contraction on the
Fraction entries of ``linalg.inverse``, kept with the body it had before
``qbfun.oracle.grad_log_invariant`` moved onto the integer matrix of
``linalg.scaled_inverse``.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from collections import Counter

from qbfun import linalg
from qbfun.bfun import FactoredBFunction, FSet, LinearForm
from qbfun.cli import _COMMANDS, _EXIT_CODES, build_parser
from qbfun.diagrams import LaceDiagram, Strand
from qbfun.errors import DiagnosticError, QuiverParseError, ShapeError
from qbfun.invariants import InvariantIndex, MatrixRep, assemble, block_spec, block_structure, check_invariant
from qbfun.jsonio import _form_to_json
from qbfun.oracle import generic_point
from qbfun.poly import MultiPolynomial, VarTable
from qbfun.quiver import LEFT, RIGHT, DimVector, Interval, QuiverA, check_dims, sinks_sources
from qbfun.record import setfield
from qbfun.render import LabeledDiagram


def column_offsets(q, columns) -> tuple[int, ...]:
    """Vertical offset of each column's bottom dot under the alignment rule."""
    offsets = [0]
    for a in q.edges():
        if q.delta(a) == RIGHT:
            offsets.append(offsets[-1])
        else:
            offsets.append(offsets[-1] + columns[a - 1] - columns[a])
    base = min(offsets)
    return tuple(off - base for off in offsets)


def render_ascii(ld: LabeledDiagram) -> str:
    q, d = ld.quiver, ld.diagram
    offsets = column_offsets(q, d.columns)
    height = max(off + size for off, size in zip(offsets, d.columns))
    nrows = 2 * height  # dot rows interleaved with label rows
    gutters = []
    for a in q.edges():
        widest = max(
            (len(ld.labels[(a, pair)].label_text()) for pair in d.edge(a) if (a, pair) in ld.labels),
            default=0,
        )
        gutters.append(max(widest + 2, 5))
    col_x = [0]
    for w in gutters:
        col_x.append(col_x[-1] + 1 + w)
    width = col_x[-1] + 1
    canvas = [[" "] * width for _ in range(nrows)]

    def dot_row(col, dot):
        return nrows - 1 - 2 * (offsets[col - 1] + dot - 1)

    for col in range(1, q.r + 1):
        for dot in range(1, d.columns[col - 1] + 1):
            canvas[dot_row(col, dot)][col_x[col - 1]] = "*"
    for a in q.edges():
        x0, x1 = col_x[a - 1], col_x[a]
        for pair in sorted(d.edge(a)):
            dl, _ = pair
            row = dot_row(a, dl)
            for x in range(x0 + 1, x1):
                canvas[row][x] = "-"
            if q.delta(a) == RIGHT:
                canvas[row][x1 - 1] = ">"
            else:
                canvas[row][x0 + 1] = "<"
            form = ld.labels.get((a, pair))
            if form is not None:
                text = form.label_text()
                for k, ch in enumerate(text[: x1 - x0 - 1]):
                    canvas[row - 1][x0 + 1 + k] = ch
    lines = ["".join(line).rstrip() for line in canvas]
    while lines and not lines[0]:
        lines.pop(0)
    return "\n".join(lines) + "\n"


def merge_columns(fsets):
    """Merge the columns of several F-sets into multi-variable linear forms.

    Yields (k, form) for columns k = 2..r, each column's forms ordered by
    constant term.  At each column, forms with equal constant term are
    combined by summing their label variables; empty columns are ignored.
    The F-sets carry the labels 1..l in order.
    On edge k-1 of a diagram a constant names exactly one arrow, so this
    is also the merge of the F-sets' exact diagrams arrow by arrow.
    """
    fsets = tuple(fsets)
    if not fsets:
        return
    r = fsets[0].r
    if any(fs.r != r for fs in fsets):
        raise ShapeError("all F-sets must share the column count")
    for k in range(2, r + 1):
        by_constant = {}
        for label, fs in enumerate(fsets, start=1):
            for c in members(fs, k):
                by_constant.setdefault(c, []).append(label)
        for c in sorted(by_constant):
            coeffs = [0] * len(fsets)
            for label in by_constant[c]:
                if coeffs[label - 1]:
                    raise DiagnosticError(
                        f"label {label} contributes twice to constant {c} at column {k}"
                    )
                coeffs[label - 1] = 1
            yield k, LinearForm(tuple(coeffs), c)


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def parse_quiver(text: str) -> QuiverA:
    """Parse either arrow form ("1->2<-3") or compact form ("R,L").

    The arrow form must list vertices 1..r in order, with one arrow between
    each two.  The compact form gives one letter per edge, R for rightward
    and L for leftward.
    """
    text = text.strip()
    if not text:
        raise QuiverParseError("empty quiver string")
    compact = re.fullmatch(r"[RLrl](?:\s*,\s*[RLrl])*", text)
    if compact:
        dirs = tuple(RIGHT if tok.strip().upper() == "R" else LEFT for tok in text.split(","))
        return QuiverA(len(dirs) + 1, dirs)
    tokens = re.findall(r"\d+|->|<-", text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise QuiverParseError(f"cannot parse quiver string {text!r}")
    if len(tokens) < 1 or len(tokens) % 2 == 0:
        raise QuiverParseError(f"cannot parse quiver string {text!r}")
    dirs = []
    for pos, tok in enumerate(tokens):
        if pos % 2 == 0:
            if not tok.isdigit() or int(tok) != pos // 2 + 1:
                raise QuiverParseError(f"vertices must be numbered 1..r in order, got {tok!r}")
        elif tok == "->" or tok == "<-":
            dirs.append(RIGHT if tok == "->" else LEFT)
        else:
            raise QuiverParseError(f"expected -> or <- after vertex {pos // 2 + 1}, got {tok!r}")
    return QuiverA(len(dirs) + 1, tuple(dirs))


def _bundle(q: QuiverA, n: DimVector, a: int, size: int) -> frozenset:
    top = n.at(a + 1)
    return frozenset(arrow(q, n, a, c) for c in range(top - size + 1, top + 1))


def complete_diagram(q: QuiverA, n: DimVector) -> LaceDiagram:
    """All possible height-preserving connections on every edge.

    The represented point is a generic one: no fundamental invariant
    vanishes on it.
    """
    check_dims(q, n)
    return LaceDiagram(tuple(n), tuple(_bundle(q, n, a, min(n.at(a), n.at(a + 1))) for a in q.edges()))


def exact_diagram(q: QuiverA, n: DimVector, idx: InvariantIndex) -> LaceDiagram:
    """Canonical minimal diagram of the closed orbit inside {f_{(p,q)} != 0}.

    Edge t-1 carries a bundle of c strands for each level (t, c) of the
    walk from p to q.  Past an interior sink or source v the bundle moves
    to the complementary dots of column v, since c becomes n_v - c.
    """
    conns = [frozenset() for _ in q.edges()]
    for t, c in check_invariant(q, n, idx):
        conns[t - 2] = _bundle(q, n, t - 1, c)
    return LaceDiagram(tuple(n), tuple(conns))


def bracket_product_poly(b: FactoredBFunction, m, table: VarTable) -> MultiPolynomial:
    """Expand the bracket product at integer lengths m as a polynomial in s1..sl."""
    if len(m) != b.num_labels:
        raise ShapeError(f"need {b.num_labels} bracket lengths")
    svars = [MultiPolynomial.variable(table, f"s{i}") for i in range(1, b.num_labels + 1)]
    out = MultiPolynomial.const(table, 1)
    for form, mult in b.factors:
        base = MultiPolynomial.const(table, form.constant)
        for i, c in enumerate(form.coeffs):
            if c:
                base = base + svars[i] * c
        length = sum(m[i - 1] for i in form.support)
        factor = MultiPolynomial.const(table, 1)
        for t in range(length):
            factor = factor * (base + t)
        out = out * factor ** mult
    return out


class PairwiseLaceDiagram(LaceDiagram):
    """qbfun's LaceDiagram with the constructor that checks every connection pair by pair."""

    __slots__ = ()

    def __init__(self, columns: tuple[int, ...], connections: tuple[frozenset, ...]):
        if len(connections) != max(len(columns) - 1, 0):
            raise ShapeError("need one connection set per edge")
        for a, pairs in enumerate(connections, start=1):
            left_seen, right_seen = set(), set()
            for dl, dr in pairs:
                if not (1 <= dl <= columns[a - 1] and 1 <= dr <= columns[a]):
                    raise ShapeError(f"edge {a}: connection ({dl},{dr}) out of range")
                if dl in left_seen or dr in right_seen:
                    raise ShapeError(f"edge {a}: a dot is connected twice on one side")
                left_seen.add(dl)
                right_seen.add(dr)
        setfield(self, "columns", columns)
        setfield(self, "connections", connections)


def arrow(q: QuiverA, n: DimVector, a: int, c: int) -> tuple[int, int]:
    """The arrow on edge a that carries the column-(a+1) constant c.

    A bundle of L arrows on edge a carries the constants
    n_{a+1}-L+1..n_{a+1}, one each.  On a rightward edge the bundle sits
    at the bottom with constants increasing downwards; on a leftward edge
    it sits at the top with constants increasing upwards.
    """
    if q.delta(a) == RIGHT:
        b = n.at(a + 1) - c + 1
        return (b, b)
    return (n.at(a) - n.at(a + 1) + c, c)


def _fset_layout(q: QuiverA, n: DimVector, fs: FSet) -> LaceDiagram:
    """The diagram of an F-set: constant c of column k on arrow(q, n, k - 1, c)."""
    conns = [
        frozenset([arrow(q, n, a, c) for c in range(rng[0], rng[1] + 1)]) if rng else frozenset()
        for a, rng in enumerate(fs.ranges, start=1)
    ]
    return LaceDiagram(tuple(n), tuple(conns))


def strands(d: LaceDiagram) -> tuple[Strand, ...]:
    """All maximal strands, sorted by (interval, dots)."""
    right_of = {}
    has_left = set()
    for a, pairs in enumerate(d.connections, start=1):
        for dl, dr in pairs:
            right_of[(a, dl)] = dr
            has_left.add((a + 1, dr))
    found = []
    for col in range(1, d.r + 1):
        for dot in range(1, d.columns[col - 1] + 1):
            if (col, dot) in has_left:
                continue
            dots = [dot]
            v, cur = col, dot
            while (v, cur) in right_of:
                cur = right_of[(v, cur)]
                v += 1
                dots.append(cur)
            found.append(Strand(Interval(col, v), tuple(dots)))
    return tuple(sorted(found, key=lambda s: (s.interval, s.dots)))


def _slice_side(q: QuiverA, n: DimVector, idx: InvariantIndex):
    """Exact diagram, strand multiset and (column, dot) -> strand interval of idx."""
    d = exact_diagram(q, n, idx)
    found = strands(d)
    where = {(s.interval.i + k, dot): s.interval for s in found for k, dot in enumerate(s.dots)}
    return d, Counter(s.interval for s in found), where


def one_variable(constants: Counter) -> FactoredBFunction:
    counts = Counter({LinearForm((1,), c): e for c, e in constants.items()})
    return FactoredBFunction.from_counter(1, counts)


def b_from_fset(fs: FSet) -> FactoredBFunction:
    """Product of (s + c) over every member of every column range."""
    constants = Counter()
    for k in range(2, fs.r + 1):
        for c in members(fs, k):
            constants[c] += 1
    return one_variable(constants)


def bfun_to_json(b: FactoredBFunction) -> dict:
    return {
        "variables": b.num_labels,
        "factors": [
            dict(_form_to_json(form), multiplicity=mult) for form, mult in b.factors
        ],
    }


def members(fs: FSet, k: int):
    rng = fs.column(k)
    return range(rng[0], rng[1] + 1) if rng else range(0)


def interval_vector(r: int, iv: Interval) -> tuple[int, ...]:
    """0/1 characteristic vector of [i, j] as a length-r dimension vector."""
    if iv.j > r:
        raise ShapeError(f"interval {iv} does not fit in {r} vertices")
    return (0,) * (iv.i - 1) + (1,) * (iv.j - iv.i + 1) + (0,) * (r - iv.j)


def interval_rep(q: QuiverA, iv: Interval) -> MatrixRep:
    """The indecomposable supported on [i, j]: identity maps inside, zeros outside."""
    dims = interval_vector(q.r, iv)
    mats = []
    for a in q.edges():
        if iv.i <= a <= iv.j - 1:
            mats.append([[1]])
        else:
            mats.append([[0] * dims[q.tail(a) - 1] for _ in range(dims[q.head(a) - 1])])
    return MatrixRep.build(q, dims, mats)


def hom_ext_dims(q: QuiverA, rep_a: MatrixRep, rep_b: MatrixRep) -> tuple[int, int]:
    """(dim Hom, dim Ext) as kernel and cokernel of the difference map.

    The map sends a vertex-wise collection phi to
    (phi_{h(a)} A_a - B_a phi_{t(a)})_a; each rep carries its own
    dimension vector, zeros allowed.
    """
    na, nb = rep_a.check(q).dims, rep_b.check(q).dims
    col_index = {}
    for v in range(1, q.r + 1):
        for u in range(nb[v - 1]):
            for w in range(na[v - 1]):
                col_index[(v, u, w)] = len(col_index)
    rows = []
    for a in q.edges():
        h, t = q.head(a), q.tail(a)
        A_a, B_a = rep_a.matrix(a), rep_b.matrix(a)
        for u in range(nb[h - 1]):
            for w in range(na[t - 1]):
                row = {col_index[(h, u, v)]: A_a[v][w] for v in range(na[h - 1]) if A_a[v][w]}
                row.update((col_index[(t, v, w)], -B_a[u][v]) for v in range(nb[t - 1]) if B_a[u][v])
                rows.append(row)
    rk = linalg.sparse_rank(rows)
    hom = len(col_index) - rk
    ext = len(rows) - rk
    return hom, ext


def character_exponents(q: QuiverA, n: DimVector, idx: InvariantIndex) -> tuple[int, ...]:
    """Exponent of det(g_v) in the character of f_{(p,q)}.

    +1 on sinks of the subquiver, -1 on its sources, 0 elsewhere; under
    the action, every sink row-block of the matrix picks up g_sigma on
    the left and every source column-block loses g_tau on the right.
    """
    check_invariant(q, n, idx)
    spec = block_structure(q, idx.p, idx.q)
    sigma = [0] * q.r
    for v in spec.row_blocks:
        sigma[v - 1] = 1
    for v in spec.col_blocks:
        sigma[v - 1] = -1
    return tuple(sigma)


def segment_indices(q: QuiverA, idx: InvariantIndex) -> tuple[int, int]:
    """The paper's segment indices (alpha, beta) of (p, q): the positions of p and q in nu.

    With nu the sink/source sequence, nu(alpha-1) <= p < nu(alpha) and
    nu(beta) < q <= nu(beta+1).  beta == alpha - 1 exactly when no sink
    or source lies strictly between p and q.
    """
    nu = sinks_sources(q)
    return bisect_right(nu, idx.p), bisect_left(nu, idx.q) - 1


def nbar(q: QuiverA, n: DimVector, idx: InvariantIndex, kappa: int) -> int:
    """Alternating sum n_{nu(alpha+kappa)} - n_{nu(alpha+kappa-1)} + ... -/+ n_p.

    kappa = -1 is the empty alternation and returns n_p; it is the value
    in force when no sink or source separates p from q.  This is the
    paper's notation; the engine reads the same values off the level walk.
    """
    alpha, beta = segment_indices(q, idx)
    if not -1 <= kappa <= beta - alpha:
        raise ShapeError(f"kappa = {kappa} out of range -1..{beta - alpha}")
    nu = sinks_sources(q)
    vertices = (*nu[alpha + kappa : alpha - 1 : -1], idx.p)  # nu(alpha+kappa), ..., nu(alpha), p
    return sum(n.at(v) * (-1) ** k for k, v in enumerate(vertices))


def grad_log_invariant(q, n, idx):
    """Exact value of grad log f_{(p,q)} at the generic point.

    Differentiates the block determinant by the chain rule: the entries
    are path products, so the derivative in one edge entry contracts the
    inverse of the block matrix with the partial products on both sides.
    Returns one Fraction matrix per edge, shaped like the edge matrices.
    """
    spec = block_spec(q, n, idx)
    rep = generic_point(q, n)
    y_inv = linalg.inverse(assemble(spec, rep))
    dims = rep.dims
    row_off, col_off = spec.offsets(dims)
    import fractions

    grads = [
        [[fractions.Fraction(0)] * dims[q.tail(a) - 1] for _ in range(dims[q.head(a) - 1])]
        for a in q.edges()
    ]
    for (sigma, tau), path in spec.entries.items():
        mats = [rep.matrix(e) for e in path]
        pre = [linalg.identity(dims[sigma - 1])]
        for mmat in mats:
            pre.append(linalg.mat_mul(pre[-1], mmat))
        suf = [None] * (len(mats) + 1)
        suf[len(mats)] = linalg.identity(dims[tau - 1])
        for t in range(len(mats) - 1, -1, -1):
            suf[t] = linalg.mat_mul(mats[t], suf[t + 1])
        w = tuple(
            tuple(y_inv[col_off[tau] + i][row_off[sigma] + j] for j in range(dims[sigma - 1]))
            for i in range(dims[tau - 1])
        )
        for t, e in enumerate(path):
            left = pre[t]  # sink space x head(e) space
            right = suf[t + 1]  # tail(e) space x source space
            m_mat = linalg.mat_mul(linalg.mat_mul(right, w), left)
            g = grads[e - 1]
            for jj in range(len(m_mat)):
                for kk in range(len(m_mat[0])):
                    g[kk][jj] += m_mat[jj][kk]
    return tuple(linalg.mat(g) for g in grads)
