"""ASCII and SVG rendering of (optionally labeled) lace diagrams.

Columns are laid out left to right with the pairwise alignment rule:
rightward edges share a bottom line, leftward edges share a top line.
Labels sit on the line above their arrow.  Output is a pure function of
the diagram, so renders are byte-identical across runs.
"""

from __future__ import annotations

from .bfun import fset_of_invariant, invariant_fsets, merge_columns
from .diagrams import LaceDiagram, _arrows
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


def column_offsets(q: QuiverA, columns) -> tuple[int, ...]:
    """Vertical offset of each column's bottom dot under the alignment rule."""
    offsets = [0]
    for direction, left, right in zip(q.directions, columns, columns[1:]):
        offsets.append(offsets[-1] if direction == RIGHT else offsets[-1] + left - right)
    base = min(offsets)
    return tuple(off - base for off in offsets)


def _labeled(q: QuiverA, n: DimVector, fsets) -> LabeledDiagram:
    """Lay out each merged form of the F-sets on the arrow its constant names, each edge's arrows at once."""
    by_edge = {}
    for k, form in merge_columns(fsets):
        by_edge.setdefault(k - 1, []).append(form)
    dims, conns, labels = n.entries, [frozenset()] * len(q.directions), {}
    for a, forms in by_edge.items():
        pairs = _arrows(q.directions[a - 1], dims[a - 1], dims[a], [form.constant for form in forms])
        conns[a - 1] = frozenset(pairs)
        for pair, form in zip(pairs, forms):
            labels[(a, pair)] = form
    return LabeledDiagram(q, LaceDiagram(dims, tuple(conns)), labels)


def labeled_exact_diagram(q: QuiverA, n: DimVector, idx) -> LabeledDiagram:
    """The exact diagram of idx, each arrow labelled s + constant."""
    return _labeled(q, n, [fset_of_invariant(q, n, idx)])


def superposed_diagram(q: QuiverA, n: DimVector) -> LabeledDiagram:
    """Union of all exact diagrams; each arrow carries its merged form."""
    return _labeled(q, n, invariant_fsets(q, n))


def render_ascii(ld: LabeledDiagram) -> str:
    """Dot rows interleaved with label rows, drawn on one byte canvas.

    Each row is width cells and a newline.  A column of dots is one
    strided slice write; an arrow and its label are one slice write each.
    The writes never overlap: dots sit at the column positions, and each
    edge's arrows and labels fill the gutter between two columns, one
    dot row (and the label row above it) per left dot.
    """
    q, d = ld.quiver, ld.diagram
    offsets = column_offsets(q, d.columns)
    height = max(off + size for off, size in zip(offsets, d.columns))
    texts = {key: form.label_text().encode() for key, form in ld.labels.items()}
    widest = [0] * len(d.connections)
    for (a, _), text in texts.items():
        widest[a - 1] = max(widest[a - 1], len(text))
    col_x = [0]
    for w in widest:
        col_x.append(col_x[-1] + 1 + max(w + 2, 5))
    stride = col_x[-1] + 2  # the cells of one row and its newline
    canvas = bytearray((b" " * (stride - 1) + b"\n") * (2 * height))
    bottom = (2 * height - 1) * stride  # start of the lowest dot row; dot k of a column sits 2(k-1) rows up
    step = 2 * stride
    for x, off, size in zip(col_x, offsets, d.columns):
        at = bottom - step * off + x
        canvas[at - step * (size - 1) : at + 1 : step] = b"*" * size
    for a, pairs in enumerate(d.connections, start=1):
        if not pairs:
            continue
        x0 = col_x[a - 1] + 1
        gutter = col_x[a] - x0
        shaft = b"-" * (gutter - 1)
        drawn = shaft + b">" if q.directions[a - 1] == RIGHT else b"<" + shaft
        row0 = bottom - step * (offsets[a - 1] - 1) + x0
        for pair in pairs:
            at = row0 - step * pair[0]
            canvas[at : at + gutter] = drawn
            text = texts.get((a, pair))
            if text is not None:
                canvas[at - stride : at - stride + len(text)] = text
    lines = canvas.decode().split("\n")
    lines.pop()  # the empty text after the last newline
    # lstrip drops the top label row when no label sits on it
    return "\n".join([line.rstrip() for line in lines]).lstrip("\n") + "\n"


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
