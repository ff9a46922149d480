import json
import random

import pytest

from conftest import ALT5, EQUI5, instance, random_instance
from qbfun import (
    b_multivariate,
    b_one_variable,
    complete_diagram,
    diagram_to_matrices,
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
from qbfun import jsonio
from qbfun.bfun import a_function
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


@pytest.mark.parametrize("document", [{}, [], "x"], ids=["object", "array", "string"])
@pytest.mark.parametrize("decoder", DECODERS)
def test_decoders_reject_malformed_documents(decoder, document):
    with pytest.raises(QuiverParseError):
        getattr(jsonio, decoder)(document)


def test_rank_decoder_checks_the_triangle():
    for data in ({"size": 1, "rows": ["x"]}, {"size": 2, "rows": [[1, 1], [1, 1]]}, {"size": 3, "rows": [[1]]}):
        with pytest.raises(QuiverParseError):
            rank_from_json(data)
