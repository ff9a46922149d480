import copy
import enum
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import reference
from conftest import ALT5, EQUI5, instance, random_instance, reference_chains
from qbfun import (
    b_multivariate,
    b_one_variable,
    complete_diagram,
    diagram_to_matrices,
    enumerate_invariants,
    exact_diagram,
    f_set,
    fset_of_invariant,
    invariant_index,
    rank_parameter,
    slice_representation,
)
from qbfun.jsonio import (
    afun_to_json,
    afun_from_json,
    bfun_from_json,
    bfun_to_json,
    diagram_from_json,
    diagram_to_json,
    format_afun_text,
    format_bfun_text,
    fset_from_json,
    fset_to_json,
    quiver_from_json,
    quiver_to_json,
    rank_from_json,
    rank_to_json,
    slice_from_json,
    slice_to_json,
)
from qbfun import cli, jsonio
from qbfun.bfun import FactoredBFunction, a_function
from qbfun.errors import QuiverParseError


def through_json(value, dump, load):
    return load(json.loads(json.dumps(dump(value))))


def test_round_trips_on_worked_examples():
    for text, dims in (EQUI5, ALT5):
        q, n = instance(text, dims)
        assert through_json(q, quiver_to_json, quiver_from_json) == q
        b = b_multivariate(q, n)
        assert through_json(b, bfun_to_json, bfun_from_json) == b
        a = a_function(q, n)
        assert through_json(a, afun_to_json, afun_from_json) == a
        for idx in (invariant_index(q, 1, 5) if q.r == 5 and text == EQUI5[0] else invariant_index(q, 1, 4),):
            d = exact_diagram(q, n, idx)
            assert through_json(d, diagram_to_json, diagram_from_json) == d
            N = rank_parameter(q, n, diagram_to_matrices(q, n, d))
            assert through_json(N, rank_to_json, rank_from_json) == N
            fs = f_set(N)
            assert through_json(fs, fset_to_json, fset_from_json) == fs
            s = slice_representation(q, n, idx)
            assert through_json(s, slice_to_json, slice_from_json) == s


def test_round_trips_random():
    rng = random.Random(61)
    for _ in range(15):
        q, n, invs = random_instance(rng)
        b = b_multivariate(q, n)
        assert through_json(b, bfun_to_json, bfun_from_json) == b
        for idx in invs:
            d = exact_diagram(q, n, idx)
            assert through_json(d, diagram_to_json, diagram_from_json) == d
            fs = fset_of_invariant(q, n, idx)
            assert through_json(fs, fset_to_json, fset_from_json) == fs
        d = complete_diagram(q, n)
        assert through_json(d, diagram_to_json, diagram_from_json) == d


def test_bfun_json_schema_shape():
    q, n = instance(*EQUI5)
    data = bfun_to_json(b_multivariate(q, n))
    assert data["variables"] == 2
    joint = [item for item in data["factors"] if item["support"] == ["m1", "m2"]]
    assert {"coeffs": {"s1": 1, "s2": 1}, "constant": 5, "support": ["m1", "m2"], "multiplicity": 1} in joint


def test_text_formats():
    q, n = instance(*EQUI5)
    assert (
        format_bfun_text(b_one_variable(q, n, invariant_index(q, 1, 5)))
        == "(s+1)(s+2)(s+4)(s+5)^3(s+6)^2"
    )
    multi_text = format_bfun_text(b_multivariate(q, n))
    assert "[s1+s2+5]_{m1+m2}" in multi_text
    afun_text = format_afun_text(a_function(q, n))
    assert "(s1+s2)^{2*(m1+m2)}" in afun_text


DECODERS = sorted(name for name in vars(jsonio) if name.endswith("_from_json") and not name.startswith("_"))

BFUN_DOC = {"variables": 1, "factors": [{"coeffs": {"s1": 1}, "constant": 2, "support": ["m1"], "multiplicity": 1}]}
AFUN_DOC = {"variables": 1, "factors": [{"coeffs": {"s1": 1}, "constant": 2, "support": ["m1"], "connections": 2}]}
FSET_DOC = {"size": 3, "columns": [{"k": 2, "range": [1, 2]}, {"k": 3, "range": None}]}
DIAGRAM_DOC = {"columns": [1, 1], "edges": [{"edge": 1, "pairs": [[1, 1]]}]}
SLICE_DOC = {
    "vertices": [{"interval": [1, 1], "mult": 2}, {"interval": [2, 2], "mult": 3}],
    "arrows": [{"from": 1, "to": 2, "count": 1}],
}

# (decoder, id, a document it decodes, the path to one of its ints, a value that is no plain int
# there, or one below the least count): the program's numbers are exact ints, never floats or bools
SPOILED = [
    ("bfun_from_json", "float-constant", BFUN_DOC, ("factors", 0, "constant"), 1.5),
    ("bfun_from_json", "bool-variables", BFUN_DOC, ("variables",), True),
    ("bfun_from_json", "float-multiplicity", BFUN_DOC, ("factors", 0, "multiplicity"), 1.0),
    ("bfun_from_json", "float-coefficient", BFUN_DOC, ("factors", 0, "coeffs", "s1"), 1.0),
    ("afun_from_json", "float-connections", AFUN_DOC, ("factors", 0, "connections"), 0.5),
    ("fset_from_json", "float-range", FSET_DOC, ("columns", 0, "range", 0), 1.5),
    ("fset_from_json", "bool-k", FSET_DOC, ("columns", 0, "k"), True),
    ("diagram_from_json", "float-column", DIAGRAM_DOC, ("columns", 1), 1.0),
    ("diagram_from_json", "float-pair", DIAGRAM_DOC, ("edges", 0, "pairs", 0, 1), 1.0),
    ("rank_from_json", "float-size", {"size": 1, "rows": [[2]]}, ("size",), 1.0),
    ("slice_from_json", "float-mult", SLICE_DOC, ("vertices", 0, "mult"), 1.5),
    ("slice_from_json", "zero-mult", SLICE_DOC, ("vertices", 0, "mult"), 0),
    ("slice_from_json", "negative-count", SLICE_DOC, ("arrows", 0, "count"), -4),
    ("slice_from_json", "zero-count", SLICE_DOC, ("arrows", 0, "count"), 0),
]


def factor(constant, *labels, count=("multiplicity", 1)):
    """One factor of a b-function document (an a-function one with count=("connections", e))."""
    return {
        "coeffs": {f"s{i}": 1 for i in labels},
        "constant": constant,
        "support": [f"m{i}" for i in labels],
        count[0]: count[1],
    }


# (decoder, id, a document of well-typed values that encodes no value, or a value a second
# way): a range is null or two ints, a column is listed once, factors strictly increase
NOT_CANONICAL = [
    ("fset_from_json", "three-entry-range", {"size": 3, "columns": [{"k": 2, "range": [1, 2, 3]}, {"k": 3, "range": None}]}),
    ("fset_from_json", "one-entry-range", {"size": 3, "columns": [{"k": 2, "range": [1]}, {"k": 3, "range": None}]}),
    ("fset_from_json", "column-listed-twice", {"size": 3, "columns": [{"k": 2, "range": [1, 2]}, {"k": 2, "range": [3, 4]}]}),
    ("bfun_from_json", "repeated-factor", {"variables": 1, "factors": [factor(2, 1), factor(2, 1)]}),
    ("bfun_from_json", "factors-out-of-order", {"variables": 1, "factors": [factor(3, 1), factor(2, 1)]}),
    ("bfun_from_json", "supports-out-of-order", {"variables": 2, "factors": [factor(1, 1, 2), factor(2, 1)]}),
    ("afun_from_json", "repeated-form", {"variables": 1, "factors": [factor(0, 1, count=("connections", 1))] * 2}),
]


def spoiled(document, path, value):
    document = copy.deepcopy(document)
    inner = document
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return document


MALFORMED = [
    pytest.param(decoder, document, id=f"{decoder}-{name}")
    for decoder in DECODERS
    for name, document in (("object", {}), ("array", []), ("string", "x"))
] + [pytest.param(decoder, spoiled(document, path, value), id=f"{decoder}-{name}") for decoder, name, document, path, value in SPOILED] + [
    pytest.param(decoder, document, id=f"{decoder}-{name}") for decoder, name, document in NOT_CANONICAL
]


@pytest.mark.parametrize("decoder, document", MALFORMED)
def test_decoders_reject_malformed_documents(decoder, document):
    with pytest.raises(QuiverParseError):
        getattr(jsonio, decoder)(document)


def test_the_spoiled_documents_decode_before_they_are_spoiled():
    """Each document above is refused for its one spoiled field; with its own int there, it decodes."""
    for decoder, _, document, path, _ in SPOILED:
        getattr(jsonio, decoder)(copy.deepcopy(document))


def test_the_canonical_encodings_decode():
    """The canonical documents of the values NOT_CANONICAL spells twice or out of order decode to them."""
    squared = jsonio.bfun_from_json({"variables": 1, "factors": [factor(2, 1, count=("multiplicity", 2))]})
    assert squared == FactoredBFunction.one_variable(Counter({2: 2}))
    both = jsonio.bfun_from_json({"variables": 1, "factors": [factor(2, 1), factor(3, 1)]})
    assert both == FactoredBFunction.one_variable(Counter({2: 1, 3: 1}))
    two = jsonio.bfun_from_json({"variables": 2, "factors": [factor(2, 1), factor(1, 1, 2)]})
    assert [form.support for form, _ in two.factors] == [(1,), (1, 2)]


def test_rank_decoder_checks_the_triangle():
    for data in ({"size": 1, "rows": ["x"]}, {"size": 2, "rows": [[1, 1], [1, 1]]}, {"size": 3, "rows": [[1]]}):
        with pytest.raises(QuiverParseError):
            rank_from_json(data)


# Each decoder below indexes a list by a number read from the document; an index
# below the range would wrap to the end of the list, so it is refused.

def test_fset_decoder_refuses_columns_outside_the_range():
    column = {"k": 3, "range": [1, 2]}
    assert fset_from_json({"size": 3, "columns": [column]}).column(3) == (1, 2)
    for k in (1, 0, -1, 4):
        with pytest.raises(QuiverParseError, match="column k"):
            fset_from_json({"size": 3, "columns": [dict(column, k=k)]})


def test_diagram_decoder_refuses_edges_outside_the_range():
    edge = {"edge": 1, "pairs": [[1, 1]]}
    assert diagram_from_json({"columns": [1, 1, 1], "edges": [edge]}).edge(1) == {(1, 1)}
    for a in (0, -1, 3):
        with pytest.raises(QuiverParseError, match="edge"):
            diagram_from_json({"columns": [1, 1, 1], "edges": [dict(edge, edge=a)]})


def bfun_document(key):
    form = {"coeffs": {key: 1}, "constant": 1, "support": ["m1"]}
    return {"variables": 2, "factors": [dict(form, multiplicity=1)]}


def test_bfun_decoder_refuses_labels_below_s1():
    assert bfun_from_json(bfun_document("s2")).factors[0][0].coeffs == (0, 1)
    for key in ("s0", "s-1"):
        with pytest.raises(QuiverParseError, match="labels start at s1"):
            bfun_from_json(bfun_document(key))


def test_afun_decoder_refuses_labels_below_s1():
    def document(key):
        factor = bfun_document(key)["factors"][0]
        del factor["multiplicity"]
        return {"variables": 2, "factors": [dict(factor, connections=1)]}

    assert afun_from_json(document("s2")).factors[0][0].coeffs == (0, 1)
    for key in ("s0", "s-1"):
        with pytest.raises(QuiverParseError, match="labels start at s1"):
            afun_from_json(document(key))


def test_slice_decoder_refuses_arrows_outside_the_vertices():
    vertices = [{"interval": [1, 1], "mult": 2}, {"interval": [2, 2], "mult": 3}]
    assert slice_from_json({"vertices": vertices, "arrows": [{"from": 1, "to": 2, "count": 1}]}).w_summands() == ((3, 2),)
    for src, dst in ((0, 1), (1, 0), (-1, 2), (1, 3)):
        with pytest.raises(QuiverParseError, match="slice arrows"):
            slice_from_json({"vertices": vertices, "arrows": [{"from": src, "to": dst, "count": 1}]})


# -- the writer ---------------------------------------------------------------------

def chain_requests(quiver, dims, invs, verify=False):
    common = ["--quiver", quiver, "--dims", dims]
    out = [["invariants", *common], ["bfun-multi", *common], ["afun", *common]]
    out += [["diagram", *common, flag] for flag in ("--complete", "--superposed")]
    for idx in invs:
        pq = f"{idx.p},{idx.q}"
        out += [[cmd, *common, "--pq", pq] for cmd in ("bfun", "diagram", "ranks", "slice")]
    if verify:
        out.append(["verify", *common, "--grad", "--afun"])
    return out


README_REQUESTS = [
    ["invariants", "--quiver", "1->2<-3->4<-5", "--dims", "2,5,7,4,2"],
    ["bfun", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2", "--pq", "1,5"],
    ["bfun-multi", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2"],
    ["afun", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2"],
    ["diagram", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2", "--superposed"],
    ["diagram", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2", "--pq", "3,4"],
    ["diagram", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2", "--complete"],
    ["ranks", "--quiver", "1->2<-3->4<-5", "--dims", "2,5,7,4,2", "--pq", "1,4"],
    ["slice", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2", "--pq", "3,4"],
    ["verify", "--quiver", "1->2<-3", "--dims", "1,2,2", "--grad", "--afun", "--multi", "1"],
    # an empty invariant list, and a one-vertex quiver with no labels at all
    ["invariants", "--quiver", "1->2", "--dims", "1,2"],
    ["bfun-multi", "--quiver", "1", "--dims", "3"],
    ["afun", "--quiver", "1", "--dims", "3"],
]


def test_cli_prints_the_stdlib_bytes(monkeypatch, capsys):
    """Each answer the CLI prints is json.dumps(document, indent=2), byte for byte.

    The documents are the ones cli hands to the writer, tuples included:
    the README examples, the edge cases of empty labels, and every
    subcommand on seeded random chains.
    """
    seen = []

    def record(data):
        seen.append(data)
        return jsonio.dumps(data)

    monkeypatch.setattr(cli, "dumps", record)
    rng = random.Random(62)
    requests = list(README_REQUESTS)
    for k in range(12):
        q, n, invs = random_instance(rng, rmax=4 if k < 4 else 8, nmax=2 if k < 4 else 6)
        requests += chain_requests(str(q), str(n), invs, verify=k < 4)
    for argv in requests:
        assert cli.cli_main(list(argv)) == 0, argv
        assert capsys.readouterr().out == json.dumps(seen[-1], indent=2) + "\n", argv
    assert len(seen) == len(requests)


class Name(str):
    pass


class Level(enum.IntEnum):
    LOW = 1


def nested(depth):
    """A list nested depth levels deep; the levels alternate a scalar and a dict beside the inner list."""
    data = [1, "leaf"]
    for d in range(depth - 1):
        data = [data, d] if d % 2 else [{"k": [d]}, data]
    return data


EDGE_DOCUMENTS = [
    [],
    {},
    [[], {}, [[]], {"a": {}}],
    {"empty": [], "nested": {"x": [{}], "y": [[], [[]]]}},
    [1, -2, 0, 10**40, -(10**40)],
    {"big": 10**40, "neg": -7, "zero": 0},
    [True, False, None, 1, 0],
    {"t": True, "f": False, "n": None},
    (1, (2, 3), ()),
    'plain "quoted" back\\slash',
    ["tab\there", "line\nbreak", "\x00\x1f\x7f", "é ∑ 𝔸 漢字", ""],
    {"ключ \"q\"\\": "значение", " ": ["\u2028"]},
    "top-level string",
    42,
    None,
    # subclasses of str and int are written as their base types
    [Name('sub"class'), Level.LOW, {"k": Level.LOW, Name("s"): Name("x")}],
    Level.LOW,
    # deeper than any document of the CLI
    nested(200),
]


@pytest.mark.parametrize("data", EDGE_DOCUMENTS, ids=range(len(EDGE_DOCUMENTS)))
def test_writer_matches_the_stdlib_on_edge_documents(data):
    assert jsonio.dumps(data) == json.dumps(data, indent=2)


@pytest.mark.parametrize(
    "data", [1.5, [Fraction(1, 2)], {1: "int key"}, {"a": [0.0]}], ids=["float", "fraction", "int-key", "nested-float"]
)
def test_writer_rejects_what_the_cli_never_emits(data):
    with pytest.raises(TypeError):
        jsonio.dumps(data)


def test_bfun_documents_match_the_form_by_form_reference():
    """Key order included: one- and several-variable b-functions of every reference chain, and a coefficient 2."""
    from qbfun.bfun import FactoredBFunction, LinearForm

    docs = [FactoredBFunction(1, ((LinearForm((2,), 3), 1),)), FactoredBFunction(1, ())]
    for q, n in reference_chains():
        docs.append(b_multivariate(q, n))
        docs.extend(b_one_variable(q, n, idx) for idx in enumerate_invariants(q, n))
    for b in docs:
        assert json.dumps(bfun_to_json(b)) == json.dumps(reference.bfun_to_json(b))
    assert len(docs) > 500
