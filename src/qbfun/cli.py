"""Command-line front end.

Exit codes: 0 success, 1 verification failure (a failed check, or an
operator identity that does not close), 2 parse and input errors
(including a --pq or --dims that does not fit the quiver, and a --multi
that does not fit its invariants), 3 mathematical errors (e.g. a pair
that labels no invariant), 4 oracle budget exceeded, 5 a file could not
be written.
"""

from __future__ import annotations

import functools
import sys
from collections import namedtuple
from types import SimpleNamespace

from .bfun import a_function, b_multivariate, b_one_variable, f_set
from .diagrams import complete_diagram, diagram_to_matrices, exact_diagram
from .errors import (
    BudgetExceededError,
    DiagnosticError,
    NotAnInvariantError,
    OracleIdentityError,
    QuiverParseError,
    ShapeError,
)
from .invariants import enumerate_invariants, invariant_index
from .jsonio import (
    afun_to_json,
    bfun_to_json,
    diagram_to_json,
    dumps,
    format_afun_text,
    format_bfun_text,
    fset_to_json,
    parse_pq,
    rank_to_json,
    slice_to_json,
)
from .oracle import (
    Budget,
    apply_bernstein_multi,
    a_function_check,
    grad_log_check,
    oracle_b_function,
)
from .quiver import DimVector, parse_quiver
from .ranks import normal_slice, rank_parameter, restrict
from .render import LabeledDiagram, render_ascii, render_svg, superposed_diagram, labeled_exact_diagram


class Option(namedtuple("Option", "name dest help required choices default flag group")):
    """One option of a subcommand: a flag stores True, any other option takes one value.

    dest is the field it sets, named as argparse names it.  An option with
    choices takes one of them; a group member belongs to its subcommand's
    one mutually exclusive group, of which exactly one member must be given.
    """

    __slots__ = ()

    def __new__(cls, name, help=None, required=False, choices=None, default=None, flag=False, group=False):
        dest = name[2:].replace("-", "_")
        return super().__new__(cls, name, dest, help, required, choices, default, flag, group)


_QUIVER = Option("--quiver", "orientation, e.g. '1->2<-3' or 'R,L'", required=True)
_DIMS = Option("--dims", "dimension vector, e.g. '2,5,6,6,2'", required=True)
_FORMAT = Option("--format", choices=("json", "text"), default="json")

# Each subcommand's help and options, in the order its help lists them: the
# one statement of the command-line syntax, which build_parser and _read_argv both read.
_OPTIONS = {
    "invariants": ("enumerate the invariant index pairs", (_QUIVER, _DIMS, _FORMAT)),
    "bfun": (
        "one-variable b-function of one invariant",
        (_QUIVER, _DIMS, _FORMAT, Option("--pq", "invariant pair, e.g. '1,5'", required=True)),
    ),
    "bfun-multi": ("several-variable b-function", (_QUIVER, _DIMS, _FORMAT)),
    "afun": ("a-function monomial", (_QUIVER, _DIMS, _FORMAT)),
    "diagram": (
        "lace diagrams (json, ascii, or svg)",
        (
            _QUIVER,
            _DIMS,  # no --format: --render is its one output switch
            Option("--pq", "exact diagram of this invariant", group=True),
            Option("--complete", "complete diagram", flag=True, group=True),
            Option("--superposed", "labeled superposition of all exact diagrams", flag=True, group=True),
            Option("--render", choices=("json", "ascii", "svg"), default="json"),
            Option("--out", "write output to this path (required sink for svg files)"),
        ),
    ),
    "ranks": ("rank parameter and F-set of an invariant's orbit", (_QUIVER, _DIMS, _FORMAT, Option("--pq", required=True))),
    "slice": ("slice representation and restricted invariants", (_QUIVER, _DIMS, _FORMAT, Option("--pq", required=True))),
    "verify": (
        "run the symbolic oracle against the engine",
        (
            _QUIVER,
            _DIMS,
            _FORMAT,
            Option("--pq", "restrict to one invariant"),
            Option("--budget", "term budgets, e.g. '200,20000' or '200,20000,6'"),
            Option("--multi", "also check the several-variable identity at these shifts, e.g. '1,0'"),
            Option("--grad", "also check grad-log against exact diagrams", flag=True),
            Option("--afun", "also check the a-function symbolically", flag=True),
        ),
    ),
}


@functools.cache  # one parser per process: parse_args leaves no state on it
def build_parser() -> "argparse.ArgumentParser":
    import argparse  # only an argv that _read_argv leaves over needs it

    parser = argparse.ArgumentParser(prog="qbfun")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _OPTIONS.items():
        sub = subs.add_parser(command, help=help_text)
        group = sub.add_mutually_exclusive_group(required=True) if any(o.group for o in options) else None
        for o in options:
            kind = {"action": "store_true"} if o.flag else {"choices": o.choices, "default": o.default}
            (group if o.group else sub).add_argument(o.name, required=o.required, help=o.help, **kind)
    parser.commands = subs.choices  # name -> subcommand parser, for cli_main's direct dispatch
    return parser


# command -> option string -> Option, for _read_argv
_BY_NAME = {command: {o.name: o for o in options} for command, (_, options) in _OPTIONS.items()}


def _read_argv(argv):
    """The arguments of a well-formed argv, read off _OPTIONS; None leaves argv to argparse.

    Well formed: a known command, then options of that command, each at
    most once and by its exact option string; every option but a flag is
    followed by a value that does not start with "-" and is among its
    choices; every required option is there, and one member of the group.
    argparse reads such an argv to the same fields.  Every other argv goes
    to argparse, the one source of help and of every parse-error message.
    """
    options = _BY_NAME.get(argv[0]) if argv else None
    if options is None:
        return None
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        o = options.get(token)
        if o is None or token in given:
            return None
        if o.flag:
            given[token] = True
            continue
        value = next(tokens, "-")  # a missing value reads like an option
        if value.startswith("-") or (o.choices is not None and value not in o.choices):
            return None
        given[token] = value
    fields = {"command": argv[0]}
    members = chosen = 0
    for name, o in options.items():
        if o.group:
            members += 1
            chosen += name in given
        elif o.required and name not in given:
            return None
        fields[o.dest] = given.get(name, False if o.flag else o.default)
    if members and chosen != 1:
        return None
    return SimpleNamespace(**fields)


# Largest sum of --dims.  It bounds the vertices, the dots of a diagram and
# the side of every matrix a command builds, so it is checked before any work.
MAX_DIMENSION_SUM = 1024


def _instance(args):
    """Quiver, dimension vector and the --pq index (None without one), validated as input."""
    q = parse_quiver(args.quiver)
    n = DimVector.parse(args.dims)
    if sum(n.entries) > MAX_DIMENSION_SUM:
        raise QuiverParseError(f"--dims sums to {sum(n.entries)}, above the limit {MAX_DIMENSION_SUM}")
    if len(n) != q.r:
        raise QuiverParseError(f"--dims has {len(n)} entries for a quiver with {q.r} vertices")
    if getattr(args, "pq", None) is None:
        return q, n, None
    p, qq = parse_pq(args.pq)
    if not 1 <= p < qq <= q.r:
        raise QuiverParseError(f"--pq needs 1 <= p < q <= {q.r}, got {p},{qq}")
    return q, n, invariant_index(q, p, qq)


def _emit(args, data, text):
    """Print data as JSON or, under --format text, the string text() builds."""
    print(text() if args.format == "text" else dumps(data))


def _cmd_invariants(args):
    q, n, _ = _instance(args)
    pairs = [[idx.p, idx.q] for idx in enumerate_invariants(q, n)]
    _emit(args, pairs, lambda: "\n".join(f"{p},{qq}" for p, qq in pairs) if pairs else "(none)")
    return 0


def _cmd_bfun(args):
    q, n, idx = _instance(args)
    b = b_one_variable(q, n, idx)
    _emit(args, {"pq": [idx.p, idx.q], "b": bfun_to_json(b)}, lambda: format_bfun_text(b))
    return 0


def _cmd_bfun_multi(args):
    q, n, _ = _instance(args)
    labels = [[idx.p, idx.q] for idx in enumerate_invariants(q, n)]
    b = b_multivariate(q, n)
    _emit(args, {"labels": labels, "b": bfun_to_json(b)}, lambda: format_bfun_text(b))
    return 0


def _cmd_afun(args):
    q, n, _ = _instance(args)
    labels = [[idx.p, idx.q] for idx in enumerate_invariants(q, n)]
    a = a_function(q, n)
    _emit(args, {"labels": labels, "a": afun_to_json(a)}, lambda: format_afun_text(a))
    return 0


def _cmd_diagram(args):
    q, n, idx = _instance(args)
    if args.complete:
        ld = LabeledDiagram(q, complete_diagram(q, n))
    elif args.superposed:
        ld = superposed_diagram(q, n)
    else:
        ld = labeled_exact_diagram(q, n, idx)
    if args.render == "json":
        output = dumps(diagram_to_json(ld.diagram))
    elif args.render == "ascii":
        output = render_ascii(ld).rstrip("\n")
    else:
        output = render_svg(ld).rstrip("\n")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
    else:
        print(output)
    return 0


def _cmd_ranks(args):
    q, n, idx = _instance(args)
    N = rank_parameter(q, n, diagram_to_matrices(q, n, exact_diagram(q, n, idx)))
    fs = f_set(N)
    data = {"pq": [idx.p, idx.q], "rank_parameter": rank_to_json(N), "fset": fset_to_json(fs)}
    _emit(args, data, lambda: "\n".join("  ".join(map(str, row)) for row in N.rows))
    return 0


def _cmd_slice(args):
    q, n, idx = _instance(args)
    s = normal_slice(q, n, idx)
    restrictions = []
    for other in enumerate_invariants(q, n):
        shape = restrict(q, n, s, other)
        item = {"pq": [other.p, other.q], "constant": shape.constant}
        if not shape.constant:
            item.update(
                quiver=str(shape.quiver),
                dims=list(shape.dims.entries),
                local_pq=[shape.index.p, shape.index.q],
                b=bfun_to_json(shape.local_b()),
            )
        restrictions.append(item)
    data = {"pq": [idx.p, idx.q], "slice": slice_to_json(s.rep), "restrictions": restrictions}

    def text():
        group = " x ".join(f"GL({m})" for m in s.rep.group_factors())
        w = " + ".join(f"M({a},{b})" for a, b in s.rep.w_summands())
        return f"{group}\nW = {w if w else '0'}"

    _emit(args, data, text)
    return 0


def _shifts(q, n, text):
    """The --multi shifts, validated as input: one non-negative integer per invariant."""
    try:
        shifts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise QuiverParseError(f"cannot parse shifts {text!r}") from exc
    count = len(enumerate_invariants(q, n))
    if len(shifts) != count or min(shifts) < 0:
        raise QuiverParseError(f"--multi needs {count} non-negative integers, one per invariant, got {text!r}")
    return shifts


def _cmd_verify(args):
    q, n, idx = _instance(args)
    budget = Budget.parse(args.budget) if args.budget is not None else Budget()
    shifts = None if args.multi is None else _shifts(q, n, args.multi)
    targets = [idx] if idx is not None else enumerate_invariants(q, n)
    checks = []
    for idx in targets:
        engine = b_one_variable(q, n, idx)
        result = oracle_b_function(q, n, idx, budget)
        checks.append(
            {
                "check": f"bernstein({idx.p},{idx.q})",
                "ok": result.b == engine,
                "engine": format_bfun_text(engine),
                "oracle": format_bfun_text(result.b),
                "normalization": str(result.constant),
            }
        )
        if args.grad:
            verdict = grad_log_check(q, n, idx)
            checks.append({"check": f"grad-log({idx.p},{idx.q})", "ok": verdict.ok})
    if shifts is not None:
        result = apply_bernstein_multi(q, n, shifts, budget)
        checks.append(
            {"check": f"bernstein-multi{shifts}", "ok": result.ok, "normalization": str(result.constant)}
        )
    if args.afun:
        verdict = a_function_check(q, n)
        checks.append({"check": "a-function", "ok": verdict.ok})
    all_ok = all(item["ok"] for item in checks)
    if args.format == "text":
        for item in checks:
            print(("ok   " if item["ok"] else "FAIL ") + item["check"])
    else:
        print(dumps({"ok": all_ok, "checks": checks}))
    return 0 if all_ok else 1


_COMMANDS = {
    "invariants": _cmd_invariants,
    "bfun": _cmd_bfun,
    "bfun-multi": _cmd_bfun_multi,
    "afun": _cmd_afun,
    "diagram": _cmd_diagram,
    "ranks": _cmd_ranks,
    "slice": _cmd_slice,
    "verify": _cmd_verify,
}


# Exit code of each error class, mirrored in the README.
_EXIT_CODES = {
    QuiverParseError: 2,
    NotAnInvariantError: 3,
    ShapeError: 3,
    DiagnosticError: 3,
    OracleIdentityError: 1,
    BudgetExceededError: 4,
    OSError: 5,
}


def cli_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        # A known command goes straight to its own parser: parse_args would hand
        # it the rest of argv and report what it leaves over, in these words.
        # No argv, a help request or an unknown command goes through parse_args.
        parser = build_parser()
        sub = parser.commands.get(argv[0]) if argv else None
        try:
            if sub is None:
                args = parser.parse_args(argv)
            else:
                args, extras = sub.parse_known_args(argv[1:])
                if extras:
                    parser.error(f"unrecognized arguments: {' '.join(extras)}")
                args.command = argv[0]
        except SystemExit as exc:
            return 0 if exc.code == 0 else 2
    try:
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
