"""ASCII and SVG rendering of (optionally labeled) lace diagrams.

Columns are laid out left to right with the pairwise alignment rule:
rightward edges share a bottom line, leftward edges share a top line.
Labels sit on the line above their arrow.  Output is a pure function of
the diagram, so renders are byte-identical across runs.
"""

from __future__ import annotations

from .bfun import fset_of_invariant, invariant_fsets, merge_columns
from .diagrams import LaceDiagram, arrow
from .errors import ShapeError
from .quiver import RIGHT, DimVector, QuiverA
from .record import Record, setfield


class LabeledDiagram(Record):
    """A lace diagram on a given orientation, with optional per-arrow labels."""

    __slots__ = ("quiver", "diagram", "labels")

    def __init__(self, quiver: QuiverA, diagram: LaceDiagram, labels: dict = None):
        if labels is None:
            labels = {}
        if quiver.r != diagram.r:
            raise ShapeError("diagram and quiver sizes differ")
        for (a, pair), _ in labels.items():
            if pair not in diagram.edge(a):
                raise ShapeError(f"label attached to missing connection {pair} on edge {a}")
        setfield(self, "quiver", quiver)
        setfield(self, "diagram", diagram)
        setfield(self, "labels", labels)
        setfield(self, "_key", (quiver, diagram, labels))


def column_offsets(q: QuiverA, columns) -> tuple[int, ...]:
    """Vertical offset of each column's bottom dot under the alignment rule."""
    offsets = [0]
    for a in q.edges():
        if q.delta(a) == RIGHT:
            offsets.append(offsets[-1])
        else:
            offsets.append(offsets[-1] + columns[a - 1] - columns[a])
    base = min(offsets)
    return tuple(off - base for off in offsets)


def _labeled(q: QuiverA, n: DimVector, fsets) -> LabeledDiagram:
    """Lay out each merged form of the F-sets on the arrow its constant names."""
    conns = [set() for _ in q.edges()]
    labels = {}
    for k, form in merge_columns(fsets):
        pair = arrow(q, n, k - 1, form.constant)
        conns[k - 2].add(pair)
        labels[(k - 1, pair)] = form
    return LabeledDiagram(q, LaceDiagram(tuple(n.entries), tuple(frozenset(c) for c in conns)), labels)


def labeled_exact_diagram(q: QuiverA, n: DimVector, idx) -> LabeledDiagram:
    """The exact diagram of idx, each arrow labelled s + constant."""
    return _labeled(q, n, [fset_of_invariant(q, n, idx)])


def superposed_diagram(q: QuiverA, n: DimVector) -> LabeledDiagram:
    """Union of all exact diagrams; each arrow carries its merged form."""
    return _labeled(q, n, invariant_fsets(q, n))


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


_SVG_COL_SPACING = 90
_SVG_ROW_SPACING = 22
_SVG_MARGIN = 30


def _escape(text: str) -> str:
    """SVG text content: html.escape(text, quote=False), without importing html."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(ld: LabeledDiagram) -> str:
    """SVG 1.1 document: one circle per dot, one line per connection."""
    q, d = ld.quiver, ld.diagram
    offsets = column_offsets(q, d.columns)
    height = max(off + size for off, size in zip(offsets, d.columns))

    def xy(col, dot):
        x = _SVG_MARGIN + (col - 1) * _SVG_COL_SPACING
        y = _SVG_MARGIN + (height - (offsets[col - 1] + dot - 1) - 1) * _SVG_ROW_SPACING
        return x, y

    w = 2 * _SVG_MARGIN + (q.r - 1) * _SVG_COL_SPACING
    h = 2 * _SVG_MARGIN + (height - 1) * _SVG_ROW_SPACING
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{w}" height="{h}">',
        '<defs><marker id="arrow" markerWidth="8" markerHeight="8" refX="6" refY="3" orient="auto">'
        '<path d="M0,0 L6,3 L0,6 z"/></marker></defs>',
    ]
    for a in q.edges():
        for pair in sorted(d.edge(a)):
            dl, dr = pair
            xa, ya = xy(a, dl)
            xb, yb = xy(a + 1, dr)
            if q.delta(a) == RIGHT:
                x1, y1, x2, y2 = xa + 4, ya, xb - 4, yb
            else:
                x1, y1, x2, y2 = xb - 4, yb, xa + 4, ya
            parts.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" marker-end="url(#arrow)"/>'
            )
            form = ld.labels.get((a, pair))
            if form is not None:
                tx = (xa + xb) // 2
                ty = min(ya, yb) - 4
                parts.append(
                    f'<text x="{tx}" y="{ty}" font-size="10" text-anchor="middle">{_escape(form.label_text())}</text>'
                )
    for col in range(1, q.r + 1):
        for dot in range(1, d.columns[col - 1] + 1):
            x, y = xy(col, dot)
            parts.append(f'<circle cx="{x}" cy="{y}" r="3"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
