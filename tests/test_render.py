import html
import random
import xml.etree.ElementTree as ET
from collections import Counter

import reference
from conftest import ALT5, EQUI5, empty_diagram, instance, random_instance, reference_chains
from qbfun import a_function, b_multivariate, complete_diagram, enumerate_invariants, exact_diagram, invariant_index
from qbfun.render import (
    LabeledDiagram,
    _escape,
    column_offsets,
    labeled_exact_diagram,
    render_ascii,
    render_svg,
    superposed_diagram,
)


def test_column_offsets_alternating():
    q, n = instance(*ALT5)
    # bottom-aligned on right edges, top-aligned on left edges
    assert column_offsets(q, n.entries) == (2, 2, 0, 0, 2)


def test_ascii_tiny_golden():
    q, n = instance("1->2", (1, 1))
    art = render_ascii(LabeledDiagram(q, complete_diagram(q, n)))
    assert art == "*---->*\n"


def test_ascii_counts_and_determinism():
    q, n = instance(*EQUI5)
    ld = LabeledDiagram(q, exact_diagram(q, n, invariant_index(q, 3, 4)))
    art = render_ascii(ld)
    assert art.count(">") == 6
    assert art.count("*") == sum(n.entries)
    assert art == render_ascii(ld)


def test_ascii_leftward_arrows():
    q, n = instance("1<-2", (2, 2))
    art = render_ascii(LabeledDiagram(q, complete_diagram(q, n)))
    assert art.count("<") == 2
    assert ">" not in art


def test_ascii_empty_diagram_has_only_dots():
    q, n = instance(*EQUI5)
    art = render_ascii(LabeledDiagram(q, empty_diagram(q, n)))
    assert art.count("*") == sum(n.entries)
    assert "-" not in art


def test_ascii_superposed_labels_first_example():
    q, n = instance(*EQUI5)
    art = render_ascii(superposed_diagram(q, n))
    for text in ("s1+s2+5", "s1+s2+6", "s2+4", "s1+1"):
        assert text in art


def test_superposed_labels_on_shared_edge():
    """Edge 3 of the first example carries s1+1..4 and s1+s2+5,6 (label 1 = (1,5))."""
    q, n = instance(*EQUI5)
    ld = superposed_diagram(q, n)
    texts = sorted(
        form.label_text() for (a, _), form in ld.labels.items() if a == 3
    )
    assert texts == ["s1+s2+5", "s1+s2+6", "s2+1", "s2+2", "s2+3", "s2+4"]


def test_superposed_bracket_multiset_matches_engine():
    """The labels of the superposed diagram are exactly the b-function factors."""
    from collections import Counter

    from qbfun import b_multivariate

    for text, dims in (EQUI5, ALT5):
        q, n = instance(text, dims)
        ld = superposed_diagram(q, n)
        from_diagram = Counter(ld.labels.values())
        from_engine = Counter()
        for form, mult in b_multivariate(q, n).factors:
            from_engine[form] += mult
        assert from_diagram == from_engine


def test_svg_well_formed_and_line_count():
    q, n = instance(*EQUI5)
    idx = invariant_index(q, 3, 4)
    doc = render_svg(labeled_exact_diagram(q, n, idx))
    root = ET.fromstring(doc)
    ns = "{http://www.w3.org/2000/svg}"
    lines = root.findall(f"{ns}line")
    assert len(lines) == 6
    circles = root.findall(f"{ns}circle")
    assert len(circles) == sum(n.entries)
    texts = root.findall(f"{ns}text")
    assert len(texts) == 6  # labels present because they were provided


def test_svg_lines_sit_between_their_columns():
    q, n = instance(*EQUI5)
    doc = render_svg(LabeledDiagram(q, exact_diagram(q, n, invariant_index(q, 3, 4))))
    root = ET.fromstring(doc)
    ns = "{http://www.w3.org/2000/svg}"
    assert not root.findall(f"{ns}text")  # no labels provided
    for line in root.findall(f"{ns}line"):
        x1, x2 = float(line.get("x1")), float(line.get("x2"))
        assert 30 + 2 * 90 <= min(x1, x2) and max(x1, x2) <= 30 + 3 * 90


def test_svg_deterministic():
    q, n = instance(*ALT5)
    ld = superposed_diagram(q, n)
    assert render_svg(ld) == render_svg(ld)


def test_svg_escape_is_html_escape_without_quotes():
    q, n = instance(*EQUI5)
    labels = [form.label_text() for form in superposed_diagram(q, n).labels.values()]
    assert labels
    others = ["a&b", "<s>", "x > y", "&amp;", '"quoted"', "it's", "&<>\"'", "", "s1+s2+5"]
    for text in labels + others:
        assert _escape(text) == html.escape(text, quote=False)


def test_superposition_matches_per_diagram_routes_random():
    """The one merge reproduces the exact diagrams, their union and the label grouping by arrow."""
    rng = random.Random(17)
    for _ in range(150):
        q, n, invs = random_instance(rng, rmax=9, nmax=7)
        diagrams = [exact_diagram(q, n, idx) for idx in invs]
        for idx, d in zip(invs, diagrams):
            assert labeled_exact_diagram(q, n, idx).diagram == d
        ld = superposed_diagram(q, n)
        for a in q.edges():
            assert ld.diagram.edge(a) == frozenset().union(*(d.edge(a) for d in diagrams))
        # the a-function as the per-arrow grouping of the exact diagrams by label support
        usage = {}
        for label, d in enumerate(diagrams, start=1):
            for a in q.edges():
                for pair in d.edge(a):
                    usage.setdefault((a, pair), set()).add(label)
        assert {key: set(form.support) for key, form in ld.labels.items()} == usage
        by_support = Counter(tuple(sorted(s)) for s in usage.values())
        assert {form.support: e for form, e in a_function(q, n).factors} == by_support
        assert Counter(ld.labels.values()) == Counter(dict(b_multivariate(q, n).factors))


def test_render_ascii_matches_the_reference():
    """The byte canvas draws what the cell-by-cell renderer drew.

    Every chain of reference_chains(), with its complete, empty and
    superposed diagrams and every exact diagram, labelled and not.
    """
    drawn = 0
    for q, n in reference_chains():
        assert column_offsets(q, n.entries) == reference.column_offsets(q, n.entries)
        diagrams = [LabeledDiagram(q, complete_diagram(q, n)), LabeledDiagram(q, empty_diagram(q, n)), superposed_diagram(q, n)]
        for idx in enumerate_invariants(q, n):
            diagrams += [labeled_exact_diagram(q, n, idx), LabeledDiagram(q, exact_diagram(q, n, idx))]
        for ld in diagrams:
            assert render_ascii(ld) == reference.render_ascii(ld), (str(q), n.entries)
        drawn += len(diagrams)
    assert drawn > 1000
