"""JSON codecs and text formatting for the public types.

Every serializer has an inverse and round-trips exactly.  b-function
coefficient keys are always "s1", "s2", ...; the text formatter prints a
bare "s" in the one-variable case.  Every decoder raises QuiverParseError
on a malformed document.  dumps writes every document the CLI prints.
"""

from __future__ import annotations

from functools import wraps
from operator import ge
from _json import encode_basestring_ascii  # the C encoder json.encoder re-exports, without loading json

from .bfun import AFunction, FactoredBFunction, FSet, LinearForm
from .diagrams import LaceDiagram
from .errors import QuiverParseError
from .quiver import Interval, QuiverA, parse_ints, parse_quiver
from .ranks import RankParameter, SliceRep


def _decoder(fn):
    """Report any failure to decode a document as a QuiverParseError."""

    @wraps(fn)
    def decode(data):
        try:
            return fn(data)
        except QuiverParseError:
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise QuiverParseError(f"malformed document for {fn.__name__}: {exc!r}") from exc

    return decode


def _int(x, least=None):
    """x when it is a plain int (a bool or a float is not), and at least `least` when one is given."""
    if type(x) is not int:
        raise QuiverParseError(f"expected an integer, got {x!r}")
    if least is not None and x < least:
        raise QuiverParseError(f"expected an integer >= {least}, got {x!r}")
    return x


def _ints(items) -> tuple:
    """tuple(items), each of them checked by _int.

    Built from the list, not as tuple(map(_int, items)): a tuple built from
    an iterator starts at 10 slots and is resized, which leaves the tuple
    free lists of other sizes filling up; on the geometry benchmark that
    raised peak RSS by about 3 MB.
    """
    items = tuple(items)
    for x in items:
        _int(x)
    return items


# -- writer ----------------------------------------------------------------

def dumps(data) -> str:
    """The bytes of json.dumps(data, indent=2), for the types the CLI emits.

    dicts with str keys, lists, tuples, str, int, bool and None; anything
    else (floats among them) raises TypeError.  Unlike the stdlib's
    indenting encoder, it builds no self-referencing closures, so a
    document leaves no cyclic garbage behind.
    """
    out = []
    _write(data, "\n", out.append)
    return "".join(out)


# The scalars of exactly these types; subclasses take the isinstance route of _scalar.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _scalar(o) -> str:
    write = _SCALARS.get(type(o))
    if write is not None:
        return write(o)
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write(o, newline, put):
    """Append o's text to put; one level in starts a line with newline plus two spaces.

    Containers write their scalar items inline, and a list of plain ints
    in one join.
    """
    if isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            write = _SCALARS.get(type(v))
            if write is None:
                put(sep + encode_basestring_ascii(k) + ": ")
                _write(v, inner, put)
            else:
                put(sep + encode_basestring_ascii(k) + ": " + write(v))
            sep = "," + inner
        put(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = newline + "  "
        if type(o[0]) is int and all(type(x) is int for x in o):
            put("[" + inner + ("," + inner).join(map(int.__repr__, o)) + newline + "]")
            return
        sep = "[" + inner
        for x in o:
            write = _SCALARS.get(type(x))
            if write is None:
                put(sep)
                _write(x, inner, put)
            else:
                put(sep + write(x))
            sep = "," + inner
        put(newline + "]")
    else:
        put(_scalar(o))


# -- quiver ----------------------------------------------------------------

def quiver_to_json(q: QuiverA) -> str:
    return str(q)


@_decoder
def quiver_from_json(text: str) -> QuiverA:
    return parse_quiver(text)


# -- b-functions -------------------------------------------------------------

def _form_to_json(form: LinearForm) -> dict:
    return {
        "coeffs": {f"s{i}": c for i, c in enumerate(form.coeffs, start=1) if c},
        "constant": form.constant,
        "support": [f"m{i}" for i in form.support],
    }


def _form_from_json(data: dict, num_labels: int) -> LinearForm:
    coeffs = [0] * num_labels
    for key, c in data["coeffs"].items():
        if int(key[1:]) < 1:
            raise QuiverParseError(f"coefficient key {key!r}; labels start at s1")
        coeffs[int(key[1:]) - 1] = _int(c)
    return LinearForm(tuple(coeffs), _int(data["constant"]))


def _factors_from_json(data: dict, count: str) -> tuple:
    """(num_labels, factors) of a b- or a-function document, each factor (form, item[count]).

    The forms must be strictly increasing in LinearForm.sort_key, the one
    order that from_counter, one_variable and a_function give, so a
    repeated or out-of-order factor is refused.
    """
    num_labels = _int(data["variables"], 0)
    factors = tuple((_form_from_json(item, num_labels), _int(item[count])) for item in data["factors"])
    keys = [form.sort_key() for form, _ in factors]
    if any(map(ge, keys, keys[1:])):
        raise QuiverParseError("factors must be distinct and in canonical order")
    return num_labels, factors


def bfun_to_json(b: FactoredBFunction) -> dict:
    """One dict per factor; with one label, every form has the coefficient of s1 and support m1."""
    if b.num_labels == 1:
        # written out, not through _form_to_json: encoding every one-variable answer through it
        # made the geometry benchmark about 5% and the engine benchmark about 2% slower
        factors = [
            {"coeffs": {"s1": form.coeffs[0]}, "constant": form.constant, "support": ["m1"], "multiplicity": mult}
            for form, mult in b.factors
        ]
    else:
        factors = [dict(_form_to_json(form), multiplicity=mult) for form, mult in b.factors]
    return {"variables": b.num_labels, "factors": factors}


@_decoder
def bfun_from_json(data: dict) -> FactoredBFunction:
    return FactoredBFunction(*_factors_from_json(data, "multiplicity"))


def format_bfun_text(b: FactoredBFunction) -> str:
    """One variable: (s+1)(s+2)^3.  Several: [s1+s2+5]_{m1+m2}^2."""
    if not b.factors:
        return "1"
    parts = []
    for form, mult in b.factors:
        power = f"^{mult}" if mult > 1 else ""
        if b.num_labels == 1:
            parts.append(f"(s+{form.constant}){power}")
        else:
            length = "+".join(f"m{i}" for i in form.support)
            parts.append(f"[{form.label_text()}]_{{{length}}}{power}")
    return "".join(parts) if b.num_labels == 1 else " ".join(parts)


# -- a-functions --------------------------------------------------------------

def afun_to_json(a: AFunction) -> dict:
    return {
        "variables": a.num_labels,
        "factors": [
            dict(_form_to_json(form), connections=count) for form, count in a.factors
        ],
    }


@_decoder
def afun_from_json(data: dict) -> AFunction:
    return AFunction(*_factors_from_json(data, "connections"))


def format_afun_text(a: AFunction) -> str:
    """Symbolic monomial, e.g. s1^{4*m1} * (s1+s2)^{2*(m1+m2)}."""
    if not a.factors:
        return "1"
    parts = []
    for form, count in a.factors:
        base = form.label_text()
        if len(form.support) > 1:
            base = f"({base})"
        length = "+".join(f"m{i}" for i in form.support)
        exponent = length if count == 1 else f"{count}*({length})"
        parts.append(f"{base}^{{{exponent}}}")
    return " * ".join(parts)


# -- F-sets -------------------------------------------------------------------

def fset_to_json(fs: FSet) -> dict:
    return {
        "size": fs.r,
        "columns": [
            {"k": k, "range": list(fs.column(k)) if fs.column(k) else None}
            for k in range(2, fs.r + 1)
        ],
    }


@_decoder
def fset_from_json(data: dict) -> FSet:
    size = _int(data["size"])
    ranges = [None] * (size - 1)
    seen = set()
    for item in data["columns"]:
        k = _int(item["k"])
        if not 2 <= k <= size:
            raise QuiverParseError(f"column k = {k!r} outside 2..{size}")
        if k in seen:
            raise QuiverParseError(f"column k = {k!r} listed twice")
        seen.add(k)
        if item["range"] is not None:
            rng = _ints(item["range"])
            if len(rng) != 2:
                raise QuiverParseError(f"column range {item['range']!r} must be null or two integers")
            ranges[k - 2] = rng
    return FSet(size, tuple(ranges))


# -- rank parameters -----------------------------------------------------------

def rank_to_json(N: RankParameter) -> dict:
    return {"size": N.r, "rows": [list(row) for row in N.rows]}


@_decoder
def rank_from_json(data: dict) -> RankParameter:
    rows = tuple(_ints(row) for row in data["rows"])
    if _int(data["size"]) != len(rows) or any(len(row) != len(rows) - i for i, row in enumerate(rows)):
        raise QuiverParseError("rank parameter rows must be integer rows of lengths size, size-1, ..., 1")
    return RankParameter(rows)


# -- lace diagrams ---------------------------------------------------------------

def diagram_to_json(d: LaceDiagram) -> dict:
    return {
        "columns": list(d.columns),
        "edges": [
            {"edge": a, "pairs": sorted([list(p) for p in d.edge(a)])}
            for a in range(1, d.r)
        ],
    }


@_decoder
def diagram_from_json(data: dict) -> LaceDiagram:
    columns = _ints(data["columns"])
    conns = [frozenset() for _ in range(len(columns) - 1)]
    for item in data["edges"]:
        if not 1 <= _int(item["edge"]) < len(columns):
            raise QuiverParseError(f"edge {item['edge']!r} outside 1..{len(columns) - 1}")
        conns[item["edge"] - 1] = frozenset(_ints(p) for p in item["pairs"])
    return LaceDiagram(columns, tuple(conns))


# -- slice representations ---------------------------------------------------------

def slice_to_json(s: SliceRep) -> dict:
    return {
        "vertices": [{"interval": [iv.i, iv.j], "mult": m} for iv, m in s.vertices],
        "arrows": [
            {"from": src, "to": dst, "count": count}
            for (src, dst), count in sorted(s.arrows.items())
        ],
    }


@_decoder
def slice_from_json(data: dict) -> SliceRep:
    vertices = tuple(
        (Interval(_int(item["interval"][0]), _int(item["interval"][1])), _int(item["mult"], 1))
        for item in data["vertices"]
    )
    arrows = {(_int(item["from"]), _int(item["to"])): _int(item["count"], 1) for item in data["arrows"]}
    if any(not 1 <= v <= len(vertices) for pair in arrows for v in pair):
        raise QuiverParseError(f"slice arrows must join vertices 1..{len(vertices)}")
    return SliceRep(vertices, arrows)


# -- misc -------------------------------------------------------------------------

def parse_pq(text: str) -> tuple[int, int]:
    try:
        p, q = parse_ints(text)
    except ValueError as exc:
        raise QuiverParseError(f"cannot parse pair {text!r}; expected 'p,q'") from exc
    return p, q
