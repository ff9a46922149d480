"""Spans around calls into qbfun's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every ``qbfun`` module
namespace that holds it (and the ``MultiPolynomial`` methods for ``poly.*``)
with a wrapper that records a span: name, start, end, parent and self time
(its duration minus the time covered by child spans).  Functions that run
more than about 10^4 times per pass are not given spans of their own: their
count and time are aggregated into the enclosing span.  Spans are kept in
memory and written out once, after the traced pass.  Wrappers record only
inside a request, so the benchmark's own answer checks are never counted.
"""

from __future__ import annotations

import gzip
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, function, layer name, aggregated per parent span)
FUNCTIONS = (
    ("quiver", "sinks_sources", "quiver.sinks_sources", True),
    ("quiver", "euler_form", "quiver.euler_form", True),
    ("invariants", "enumerate_invariants", "invariants.enumerate_invariants", False),
    ("invariants", "is_invariant", "invariants.is_invariant", True),
    ("invariants", "invariant_index", "invariants.invariant_index", True),
    ("invariants", "assemble", "invariants.assemble", True),
    ("diagrams", "exact_diagram", "diagrams.exact_diagram", False),
    ("diagrams", "strands", "diagrams.strands", False),
    ("bfun", "b_one_variable", "bfun.b_one_variable", False),
    ("bfun", "b_multivariate", "bfun.b_multivariate", False),
    ("bfun", "a_function", "bfun.a_function", False),
    ("bfun", "fset_of_invariant", "bfun.fset_of_invariant", False),
    ("bfun", "superpose", "bfun.superpose", False),
    ("ranks", "rank_parameter", "ranks.rank_parameter", False),
    ("ranks", "summand_ext", "ranks.summand_ext", True),
    ("ranks", "slice_representation", "ranks.slice_representation", False),
    ("ranks", "restricted_invariant_shape", "ranks.restricted_invariant_shape", False),
    ("linalg", "rank", "linalg.rank", True),
    ("linalg", "mat_mul", "linalg.mat_mul", True),
    ("linalg", "inverse", "linalg.inverse", False),
    ("oracle", "poly_det", "oracle.poly_det", False),
    ("oracle", "expand_invariant", "oracle.expand_invariant", False),
    ("oracle", "dual_invariant", "oracle.dual_invariant", False),
    ("oracle", "oracle_b_function", "oracle.oracle_b_function", False),
    ("oracle", "apply_bernstein", "oracle.apply_bernstein", False),
    ("oracle", "apply_bernstein_multi", "oracle.apply_bernstein_multi", False),
    ("oracle", "grad_log_check", "oracle.grad_log_check", False),
    ("oracle", "a_function_check", "oracle.a_function_check", False),
    ("render", "superposed_diagram", "render.superposed_diagram", False),
    ("render", "render_svg", "render.render_svg", False),
    ("render", "render_ascii", "render.render_ascii", False),
    ("cli", "build_parser", "cli.build_parser", False),
    ("cli", "cli_main", "cli.cli_main", False),
)

# MultiPolynomial methods; each alias (__rmul__, __radd__) gets the same wrapper.
POLY_METHODS = (
    (("__mul__", "__rmul__"), "poly.mul", True),
    (("__add__", "__radd__"), "poly.add", True),
    (("derivative",), "poly.derivative", True),
    (("exact_div",), "poly.exact_div", False),
)

# (name, unit, better): the per-layer metrics a traced run reports, per pass.
PER_LAYER = (
    ("invariants.enumerate_invariants.calls", "count", "lower"),
    ("invariants.enumerate_invariants.self_ms", "ms", "lower"),
    ("invariants.is_invariant.calls", "count", "lower"),
    ("invariants.is_invariant.self_ms", "ms", "lower"),
    ("invariants.invariant_index.calls", "count", "lower"),
    ("invariants.found_ratio", "ratio", "higher"),
    ("quiver.sinks_sources.calls", "count", "lower"),
    ("quiver.sinks_sources.self_ms", "ms", "lower"),
    ("cli.cli_main.self_ms", "ms", "lower"),
    ("cli.build_parser.self_ms", "ms", "lower"),
    ("jsonio.encode.self_ms", "ms", "lower"),
    ("bfun.b_one_variable.self_ms", "ms", "lower"),
    ("bfun.b_multivariate.self_ms", "ms", "lower"),
    ("bfun.a_function.self_ms", "ms", "lower"),
    ("bfun.fset_of_invariant.calls", "count", "lower"),
    ("bfun.superpose.self_ms", "ms", "lower"),
    ("render.superposed_diagram.self_ms", "ms", "lower"),
    ("render.render_svg.self_ms", "ms", "lower"),
    ("render.render_ascii.self_ms", "ms", "lower"),
    ("diagrams.exact_diagram.calls", "count", "lower"),
    ("diagrams.exact_diagram.self_ms", "ms", "lower"),
    ("diagrams.exact_diagram.distinct_ratio", "ratio", "higher"),
    ("diagrams.strands.calls", "count", "lower"),
    ("diagrams.strands.self_ms", "ms", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.self_ms", "ms", "lower"),
    ("linalg.rank.entries", "count", "lower"),
    ("linalg.mat_mul.calls", "count", "lower"),
    ("linalg.mat_mul.self_ms", "ms", "lower"),
    ("invariants.assemble.self_ms", "ms", "lower"),
    ("ranks.rank_parameter.calls", "count", "lower"),
    ("ranks.rank_parameter.self_ms", "ms", "lower"),
    ("quiver.euler_form.calls", "count", "lower"),
    ("quiver.euler_form.self_ms", "ms", "lower"),
    ("ranks.summand_ext.calls", "count", "lower"),
    ("ranks.slice_representation.self_ms", "ms", "lower"),
    ("ranks.restricted_invariant_shape.calls", "count", "lower"),
    ("ranks.restricted_invariant_shape.self_ms", "ms", "lower"),
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.self_ms", "ms", "lower"),
    ("poly.mul.term_products", "count", "lower"),
    ("poly.mul.fill_ratio", "ratio", "higher"),
    ("poly.add.self_ms", "ms", "lower"),
    ("poly.derivative.self_ms", "ms", "lower"),
    ("poly.exact_div.calls", "count", "lower"),
    ("poly.exact_div.self_ms", "ms", "lower"),
    ("oracle.poly_det.self_ms", "ms", "lower"),
    ("oracle.expand_invariant.calls", "count", "lower"),
    ("oracle.invariant_terms", "count", "lower"),
    ("oracle.apply_bernstein.self_ms", "ms", "lower"),
    ("oracle.apply_bernstein.total_ms", "ms", "lower"),
    ("oracle.apply_bernstein_multi.total_ms", "ms", "lower"),
    ("oracle.grad_log_check.total_ms", "ms", "lower"),
    ("oracle.a_function_check.total_ms", "ms", "lower"),
    ("linalg.inverse.self_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
)

# Every encoder and text formatter of jsonio counts as one layer.
JSONIO_ENCODE = "jsonio.encode"


def _jsonio_encoders(jsonio) -> list[str]:
    return [
        name
        for name in vars(jsonio)
        if not name.startswith("_") and (name.endswith("_to_json") or name.startswith("format_"))
    ]


class Tracer:
    def __init__(self):
        self.stats = {}  # layer name -> [calls, total_s, self_s]
        self.extra = {}  # derived counters, e.g. term products
        self.distinct_diagrams = set()
        self.spans = []  # finished span records
        self._stack = []  # open frames: [child_s, span_id]
        self._next_id = 0
        self._agg = {}  # span id -> {layer name: [count, seconds]}
        self._request = None
        self._restore = []
        self.t0 = perf_counter()

    # -- recording --------------------------------------------------------
    def _count(self, key, k):
        self.extra[key] = self.extra.get(key, 0) + k

    def _wrap(self, fn, name, aggregate, hook=None):
        tracer = self
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if aggregate:
                frame = [0.0, parent[1]]
            else:
                tracer._next_id += 1
                frame = [0.0, tracer._next_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s = duration - frame[0]
                parent[0] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += self_s
                if aggregate:
                    agg = tracer._agg.setdefault(parent[1], {}).setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += duration
                else:
                    tracer.spans.append((frame[1], parent[1], tracer._request, name, start, end, self_s))
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def request(self, argv):
        """Root span of one request; every span inside carries its id."""
        self._next_id += 1
        rid = self._next_id
        self._request = rid
        frame = [0.0, rid]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((rid, None, rid, "request " + " ".join(argv), start, end, end - start - frame[0]))
            self._request = None

    # -- installation -------------------------------------------------------
    def install(self):
        """Wrap the traced functions in every loaded qbfun module that holds them."""
        modules = [m for name, m in sys.modules.items() if name == "qbfun" or name.startswith("qbfun.")]
        wrappers = {}
        for mod_name, attr, name, aggregate in FUNCTIONS:
            fn = getattr(sys.modules[f"qbfun.{mod_name}"], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name, aggregate, HOOKS.get(name)))
        jsonio = sys.modules["qbfun.jsonio"]
        for attr in _jsonio_encoders(jsonio):
            fn = getattr(jsonio, attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, JSONIO_ENCODE, False))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        poly_cls = sys.modules["qbfun.poly"].MultiPolynomial
        for attrs, name, aggregate in POLY_METHODS:
            fn = vars(poly_cls)[attrs[0]]
            wrapped = self._wrap(fn, name, aggregate, HOOKS.get(name))
            for attr in attrs:
                self._restore.append((poly_cls, attr, vars(poly_cls)[attr]))
                setattr(poly_cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output ---------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer counts and times of everything recorded, times in ms."""

        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0]

        def ms(name, which):
            return 1000.0 * self.stats.get(name, [0, 0.0, 0.0])[which]

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in self.stats:
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.total_ms"] = ms(name, 1)
            out[f"{name}.self_ms"] = ms(name, 2)
        out["invariants.found_ratio"] = ratio(self.extra.get("invariants.found", 0), calls("invariants.is_invariant"))
        out["diagrams.exact_diagram.distinct_ratio"] = ratio(
            len(self.distinct_diagrams), calls("diagrams.exact_diagram")
        )
        out["linalg.rank.entries"] = self.extra.get("linalg.rank.entries", 0)
        products = self.extra.get("poly.mul.term_products", 0)
        out["poly.mul.term_products"] = products
        out["poly.mul.fill_ratio"] = ratio(self.extra.get("poly.mul.output_terms", 0), products)
        out["oracle.invariant_terms"] = self.extra.get("oracle.invariant_terms", 0)
        return out

    def write_spans(self, path):
        """One JSON object per span, times in seconds from the tracer's start."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for sid, parent, rid, name, start, end, self_s in self.spans:
                record = {
                    "id": sid,
                    "parent": parent,
                    "request": rid,
                    "name": name,
                    "start": round(start - self.t0, 7),
                    "end": round(end - self.t0, 7),
                    "self": round(self_s, 7),
                }
                agg = self._agg.get(sid)
                if agg:
                    record["aggregated"] = {k: [c, round(s, 7)] for k, (c, s) in agg.items()}
                handle.write(json.dumps(record) + "\n")


# -- counters read off arguments and results -------------------------------------

def _found(tracer, args, result):
    if result is True:
        tracer._count("invariants.found", 1)


def _exact_diagram(tracer, args, result):
    tracer.distinct_diagrams.add(args)


def _rank_entries(tracer, args, result):
    a = args[0]
    tracer._count("linalg.rank.entries", len(a) * (len(a[0]) if a else 0))


def _mul_terms(tracer, args, result):
    left, right = args
    right_terms = len(right.terms) if hasattr(right, "terms") else 1
    tracer._count("poly.mul.term_products", len(left.terms) * right_terms)
    if hasattr(result, "terms"):
        tracer._count("poly.mul.output_terms", len(result.terms))


def _invariant_terms(tracer, args, result):
    tracer._count("oracle.invariant_terms", result.num_terms())


HOOKS = {
    "invariants.is_invariant": _found,
    "diagrams.exact_diagram": _exact_diagram,
    "linalg.rank": _rank_entries,
    "poly.mul": _mul_terms,
    "oracle.expand_invariant": _invariant_terms,
    "oracle.dual_invariant": _invariant_terms,
}
