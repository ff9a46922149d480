import gc
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import reference
from qbfun import DimVector, cli, enumerate_invariants, parse_quiver
from qbfun.cli import MAX_DIMENSION_SUM, build_parser, cli_main
from qbfun.oracle import MAX_OPERATOR_DEGREE


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_invariants_command(capsys):
    code, out = run(capsys, "invariants", "--quiver", "1->2<-3->4<-5", "--dims", "2,5,7,4,2")
    assert code == 0
    assert json.loads(out) == [[1, 4], [2, 5]]


def test_bfun_command_golden(capsys):
    code, out = run(
        capsys, "bfun", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2", "--pq", "1,5",
        "--format", "text",
    )
    assert code == 0
    assert out.strip() == "(s+1)(s+2)(s+4)(s+5)^3(s+6)^2"


def test_bfun_json_round_trip(capsys):
    code, out = run(capsys, "bfun", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2", "--pq", "3,4")
    assert code == 0
    data = json.loads(out)
    assert data["pq"] == [3, 4]
    assert [f["constant"] for f in data["b"]["factors"]] == [1, 2, 3, 4, 5, 6]


def test_bfun_multi_seven_vertices(capsys):
    code, out = run(
        capsys, "bfun-multi", "--quiver", "1->2<-3->4->5->6<-7", "--dims", "1,3,5,4,4,3,1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == [[1, 6], [2, 7], [4, 5]]
    assert sum(f["multiplicity"] for f in data["b"]["factors"]) == 15
    assert len(data["b"]["factors"]) == 13


def test_afun_command(capsys):
    code, out = run(capsys, "afun", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2", "--format", "text")
    assert code == 0
    assert out.strip() == "s1^{6*(m1)} * s2^{4*(m2)} * (s1+s2)^{2*(m1+m2)}"


def test_diagram_json_and_ascii(capsys):
    code, out = run(
        capsys, "diagram", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2", "--pq", "3,4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["columns"] == [2, 5, 6, 6, 2]
    assert len(data["edges"][2]["pairs"]) == 6
    code, out = run(
        capsys, "diagram", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2", "--pq", "3,4",
        "--render", "ascii",
    )
    assert code == 0 and out.count(">") == 6


def test_diagram_svg_to_file(tmp_path, capsys):
    target = tmp_path / "diagram.svg"
    code, _ = run(
        capsys, "diagram", "--quiver", "1->2<-3->4<-5", "--dims", "2,5,7,4,2", "--superposed",
        "--render", "svg", "--out", str(target),
    )
    assert code == 0
    body = target.read_text()
    assert body.startswith("<svg") and body.count("<line") == 13


def test_ranks_command(capsys):
    code, out = run(capsys, "ranks", "--quiver", "1->2<-3->4<-5", "--dims", "2,5,7,4,2", "--pq", "1,4")
    assert code == 0
    data = json.loads(out)
    assert data["rank_parameter"]["rows"][0] == [2, 2, 5, 9, 9]
    assert data["fset"]["columns"][0] == {"k": 2, "range": [4, 5]}


def test_slice_command(capsys):
    code, out = run(capsys, "slice", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2", "--pq", "3,4")
    assert code == 0
    data = json.loads(out)
    assert [v["mult"] for v in data["slice"]["vertices"]] == [2, 5, 6, 2]
    others = [item for item in data["restrictions"] if not item["constant"]]
    assert len(others) == 1
    assert others[0]["quiver"] == "1->2->3->4"


def test_slice_request_builds_the_slice_diagram_once(monkeypatch, capsys):
    """One slice value per request: the slice invariant's exact diagram is built once, each other one once."""
    from qbfun import ranks

    built = Counter()
    real = ranks.exact_diagram

    def counted(q, n, idx):
        built[(idx.p, idx.q)] += 1
        return real(q, n, idx)

    monkeypatch.setattr(ranks, "exact_diagram", counted)
    for quiver, dims, pq, invariants in (
        ("1->2->3->4->5", "2,5,6,6,2", (3, 4), 2),
        ("1->2<-3->4<-5", "2,5,7,4,2", (1, 4), 2),
        ("R,R,R,R,R,R,R,R,R,R,R,R,R,R,R,R,R,R,R", "12,14," * 9 + "12,14", (9, 11), 9),
    ):
        built.clear()
        code, out = run(capsys, "slice", "--quiver", quiver, "--dims", dims, "--pq", ",".join(map(str, pq)))
        assert code == 0
        assert len(json.loads(out)["restrictions"]) == invariants
        assert built[pq] == 1
        assert set(built.values()) == {1} and len(built) == invariants


def test_verify_command_passes(capsys):
    code, out = run(
        capsys, "verify", "--quiver", "1->2->3", "--dims", "1,2,1", "--multi", "1",
        "--grad", "--afun",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and len(data["checks"]) == 4


def test_exit_code_parse_error(capsys):
    assert cli_main(["invariants", "--quiver", "1=>2", "--dims", "1,1"]) == 2
    capsys.readouterr()
    assert cli_main(["bfun", "--quiver", "1->2", "--dims", "1,1", "--pq", "nope"]) == 2
    capsys.readouterr()


def test_exit_code_not_an_invariant(capsys):
    assert cli_main(["bfun", "--quiver", "1->2", "--dims", "1,2", "--pq", "1,2"]) == 3
    capsys.readouterr()


def test_exit_code_budget(capsys):
    code = cli_main(
        ["verify", "--quiver", "1->2", "--dims", "3,3", "--budget", "2,10,6"]
    )
    assert code == 4
    capsys.readouterr()


def test_exit_code_missing_subcommand(capsys):
    assert cli_main([]) == 2
    capsys.readouterr()


def test_exit_code_unwritable_out(tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    code = cli_main(
        ["diagram", "--quiver", "1->2", "--dims", "1,1", "--complete", "--render", "svg", "--out", str(target)]
    )
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("error:") and err.count("\n") == 1


def test_exit_code_empty_out_path(capsys):
    """An empty --out is a path that cannot be opened, not a request for stdout."""
    code = cli_main(["diagram", "--quiver", "1->2", "--dims", "1,1", "--complete", "--render", "ascii", "--out", ""])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == "" and captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_exit_code_pq_out_of_range(capsys):
    for pq in ("0,9", "2,1", "1,3"):
        assert cli_main(["bfun", "--quiver", "1->2", "--dims", "1,1", "--pq", pq]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_exit_code_dims_wrong_length(capsys):
    for cmd in (["invariants"], ["bfun-multi"], ["bfun", "--pq", "1,2"], ["verify"]):
        assert cli_main([*cmd, "--quiver", "1->2", "--dims", "1,1,1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_exit_code_bad_budget(capsys):
    for budget in ("-5", "0,0,0", "abc", "1,2,3,4"):
        assert cli_main(["verify", "--quiver", "1->2", "--dims", "1,1", "--budget", budget]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_exit_code_oracle_identity_failure(monkeypatch, capsys):
    """An operator identity that does not close is a failed verification: exit 1."""
    import qbfun.cli
    from qbfun.errors import OracleIdentityError

    def broken(*args, **kwargs):
        raise OracleIdentityError("layer 2 is not divisible by the invariant")

    monkeypatch.setattr(qbfun.cli, "oracle_b_function", broken)
    assert cli_main(["verify", "--quiver", "1->2", "--dims", "2,2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_one_process_answers_like_fresh_processes(tmp_path, monkeypatch, capsys):
    """A sequence of requests through one cli_main matches one process per request.

    The parser is built once per process, so each request must still print,
    write and exit as it would alone: help, parse errors and every exit code
    included.  argparse wraps usage text to COLUMNS, so both sides share it.
    """
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    alt = ["--quiver", "1->2<-3->4<-5", "--dims", "2,5,7,4,2"]
    svg = tmp_path / "superposed.svg"
    requests = [
        ["bfun", *alt, "--pq", "1,4"],
        # no --pq here: an attribute left over from the request above would not fit 1->2
        ["invariants", "--quiver", "1->2", "--dims", "2,2", "--format", "text"],
        ["bfun-multi", *alt],
        ["afun", *alt, "--format", "text"],
        ["diagram", *alt, "--pq", "2,5"],
        ["diagram", *alt, "--complete", "--render", "ascii"],
        ["diagram", *alt, "--superposed", "--render", "svg", "--out", str(svg)],
        ["ranks", *alt, "--pq", "1,4"],
        ["slice", "--quiver", "1->2->3->4->5", "--dims", "2,5,6,6,2", "--pq", "3,4"],
        ["verify", "--quiver", "1->2", "--dims", "2,2", "--format", "text"],
        ["--help"],
        ["diagram", *alt, "--pq", "1,4", "--complete"],
        ["bfun", *alt, "--pq", "nope"],
        ["bfun", "--quiver", "1->2", "--dims", "2,2,2", "--pq", "1,2"],
        ["bfun", "--quiver", "1->2", "--dims", "1,2", "--pq", "1,2"],
        ["verify", "--quiver", "1->2", "--dims", "2,2", "--budget", "1"],
        ["diagram", *alt, "--complete", "--render", "svg", "--out", str(tmp_path / "missing" / "x.svg")],
    ]

    def written():
        if not svg.exists():
            return None
        body = svg.read_bytes()
        svg.unlink()
        return body

    def fresh(argv):
        done = subprocess.run(
            [sys.executable, "-m", "qbfun.cli", *argv], capture_output=True, text=True, env=env, cwd=tmp_path
        )
        return done.returncode, done.stdout, done.stderr

    # only one request writes a file, so the fresh processes may run side by side
    with ThreadPoolExecutor(max_workers=2) as pool:
        expected = list(pool.map(fresh, requests))
    svg_body = written()
    assert svg_body is not None
    expected = [(*got, svg_body if argv[-1] == str(svg) else None) for argv, got in zip(requests, expected)]

    for argv, want in zip(requests, expected):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err, written()) == want, argv
    assert [code for code, *_ in expected] == [0] * 11 + [2, 2, 2, 3, 4, 5]

    # the errors above left nothing behind
    assert (cli_main(list(requests[0])), capsys.readouterr().out) == expected[0][:2]


def _one_error_line(err):
    return err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_exit_code_multi_that_does_not_fit(capsys):
    """--multi needs one non-negative integer per invariant; anything else is an input error."""
    for shifts in ("1,-1", "1", "", "1,2,3", "1,x"):
        code = cli_main(["verify", "--quiver", "1->2->3->4", "--dims", "1,2,2,1", "--multi", shifts])
        captured = capsys.readouterr()
        assert code == 2, shifts
        assert captured.out == "" and _one_error_line(captured.err), shifts


def test_exit_code_empty_budget_is_an_input_error(capsys):
    """An empty --budget is parsed, not replaced by the default budget."""
    code = cli_main(["verify", "--quiver", "1->2->3->4", "--dims", "1,2,2,1", "--budget", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and _one_error_line(captured.err)


def test_verify_multi_that_fits_still_runs(capsys):
    code, out = run(capsys, "verify", "--quiver", "1->2->3->4", "--dims", "1,2,2,1", "--multi", "1,0")
    assert code == 0
    assert json.loads(out)["checks"][-1]["check"] == "bernstein-multi(1, 0)"


def test_answers_leave_no_cyclic_garbage(capsys):
    """Each subcommand's answer is freed by reference counting alone.

    With the collector off, a run of successful requests must leave nothing
    for gc.collect() to find; an encoder built of self-referencing closures
    would leave its cells behind on every answer.
    """
    alt = ["--quiver", "1->2<-3->4<-5", "--dims", "2,5,7,4,2"]
    requests = [
        ["invariants", *alt],
        ["bfun", *alt, "--pq", "1,4"],
        ["bfun-multi", *alt],
        ["afun", *alt],
        ["diagram", *alt, "--pq", "2,5"],
        ["diagram", *alt, "--complete", "--render", "ascii"],
        ["diagram", *alt, "--superposed", "--render", "svg"],
        ["ranks", *alt, "--pq", "1,4"],
        ["slice", *alt, "--pq", "1,4"],
        ["verify", "--quiver", "1->2<-3", "--dims", "1,2,2", "--grad", "--afun", "--multi", "1"],
    ]
    build_parser()  # built once per process, and its first build leaves argparse's own cycles
    gc.collect()
    gc.disable()
    try:
        for argv in requests:
            assert cli_main(list(argv)) == 0, argv
            capsys.readouterr()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_importing_the_cli_loads_no_dataclasses_inspect_or_html():
    """The import path of the CLI stays light.

    dataclasses, inspect and html cost more to import than qbfun itself;
    json stays out because jsonio takes its C string encoder from _json.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import qbfun.cli; "
        "print(sorted({'dataclasses', 'inspect', 'html', 'json'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# Junk for the options the fuzz test below mutates.  Every number stays small:
# large dims, budgets or shifts ask for work that no budget bounds.
SMALL_BUDGETS = ("1", "5,5", "1,20000,6", "200,20000,6")
JUNK = ("", " ", "x", "-1", "0", "1,", ",1", "1,,2", "1.5", "1e3", "0x10", "nan", "--", "\uff11,\uff12", "\x00", "1;2", "[1,2]", "1 2", "+1", "1_0", "1,+2")
OPTION_JUNK = {
    "--quiver": ("1->", "->2", "1->2->", "1=>2", "2->1", "1->3", "1<->2", "R,L,X", "R,,L", "1-2", "1->2<-3->", "1 2 2", "1->2 3 3"),
    "--dims": ("1,2,-1", "0,0", "2,5,7,4,2", "9"),
    "--pq": ("1", "1,2,3", "2,1", "0,1", "1,1", "1,99", "99999999999999999999,1"),
    "--budget": ("0", "-5", "1,2,3,4", "abc", *SMALL_BUDGETS),
    "--multi": ("1,-1", "1", "0", "1,1", "1,0,2", "x"),
}
COMMANDS = ("invariants", "bfun", "bfun-multi", "afun", "diagram", "ranks", "slice", "verify")


def _small_chain(rng):
    r = rng.randint(2, 8)
    directions = [rng.choice(("->", "<-")) for _ in range(r - 1)]
    if rng.random() < 0.5:
        quiver = "1" + "".join(f"{d}{v}" for v, d in enumerate(directions, start=2))
    else:
        quiver = ",".join("R" if d == "->" else "L" for d in directions)
    return quiver, ",".join(str(rng.randint(1, 9)) for _ in range(r))


def _valid_argv(rng):
    """A well-formed request of a random subcommand on a chain with r <= 8 and dims <= 9."""
    command = rng.choice(COMMANDS)
    quiver, dims = _small_chain(rng)
    argv = [command, "--quiver", quiver, "--dims", dims]
    invs = enumerate_invariants(parse_quiver(quiver), DimVector.parse(dims))
    idx = rng.choice(invs) if invs else None
    pq = f"{idx.p},{idx.q}" if idx else "1,2"
    if command in ("bfun", "ranks", "slice") or (command == "verify" and rng.random() < 0.5):
        argv += ["--pq", pq]
    if command == "diagram":
        argv += rng.choice((["--pq", pq], ["--complete"], ["--superposed"]))
        argv += ["--render", rng.choice(("json", "ascii", "svg"))]
    if command == "verify":
        if rng.random() < 0.5:
            argv += ["--budget", rng.choice(SMALL_BUDGETS)]
        if rng.random() < 0.3:
            argv += ["--multi", ",".join(str(rng.randint(0, 1)) for _ in invs)]
        argv += [flag for flag in ("--grad", "--afun") if rng.random() < 0.3]
    elif command != "diagram" and rng.random() < 0.3:
        argv += ["--format", rng.choice(("json", "text"))]
    return argv


def _mutated(rng, argv):
    """argv with one or two options given junk or a stray value, dropped or added."""
    argv = list(argv)
    r = argv[argv.index("--dims") + 1].count(",") + 1
    stray = {  # values of the right form that may not fit the rest of the request
        "--quiver": ",".join(rng.choice("RL") for _ in range(rng.choice((r, r, r - 2)) - 1)),
        "--dims": ",".join(str(rng.randint(0, 9)) for _ in range(rng.choice((r, r, r - 1, r + 1)))),
        "--pq": "{},{}".format(*sorted(rng.sample(range(1, r + 2), 2))),
        "--budget": rng.choice(SMALL_BUDGETS),
        "--multi": ",".join(str(rng.randint(0, 2)) for _ in range(rng.randint(1, 3))),
    }
    for _ in range(rng.randint(1, 2)):
        present = [option for option in OPTION_JUNK if option in argv]
        option = rng.choice(present if rng.random() < 0.8 else tuple(OPTION_JUNK))
        value = stray[option] if rng.random() < 0.6 else rng.choice(OPTION_JUNK[option] + JUNK)
        if option in argv and rng.random() < 0.1:
            at = argv.index(option)
            del argv[at : at + 2]
        elif option in argv:
            argv[argv.index(option) + 1] = value
        else:
            argv += [option, value]
    return argv


def test_mutated_requests_exit_with_a_documented_code(capsys):
    """Seeded junk in --quiver, --dims, --pq, --budget and --multi of every subcommand.

    Each request exits 0-4 (5 needs --out, which is not fuzzed), prints no
    traceback, and prints exactly one error: line whenever it fails.
    """
    rng = random.Random(20261019)
    codes = Counter()
    for _ in range(400):
        argv = _mutated(rng, _valid_argv(rng))
        code = cli_main(argv)
        out, err = capsys.readouterr()
        codes[code] += 1
        assert 0 <= code <= 4, argv
        assert "Traceback" not in out + err, argv
        if code:
            assert out == "" and sum("error:" in line for line in err.splitlines()) == 1, argv
        if code in (3, 4):
            assert _one_error_line(err), argv
    assert {0, 2, 3, 4} <= set(codes), codes


def test_diagram_has_no_format_option(capsys):
    """--render is the one output switch of diagram; a --format is an input error."""
    for fmt in ("text", "json"):
        code = cli_main(["diagram", "--quiver", "1->2", "--dims", "1,1", "--complete", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert sum("error:" in line for line in captured.err.splitlines()) == 1
    assert cli_main(["diagram", "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--render" in usage and "--format" not in usage


def test_direct_dispatch_answers_like_parse_args(monkeypatch, capsys):
    """A command sent straight to its own parser prints and exits as through build_parser().parse_args.

    The 400 argvs of the fuzz test above, then no argv, help, an unknown
    command, a subcommand's help, a leftover positional, an unknown option,
    --opt=value forms, an abbreviated option and an option before the command.
    """
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(20261019)
    argvs = [_mutated(rng, _valid_argv(rng)) for _ in range(400)]
    request = ["--quiver", "1->2", "--dims", "2,2", "--pq", "1,2"]
    argvs += [
        [],
        ["-h"],
        ["--help"],
        ["nope"],
        ["bfun", "-h"],
        ["diagram", "--help"],
        ["bfun", *request, "extra"],
        ["bfun", *request, "extra", "more"],
        ["bfun", *request, "--bogus"],
        ["bfun", *request, "--bogus", "x", "-h"],
        ["bfun", "--quiver=1->2", "--dims=2,2", "--pq=1,2"],
        ["bfun", "--qui", "1->2", "--dims", "2,2", "--pq", "1,2"],
        ["--quiver", "1->2", "bfun", "--dims", "2,2", "--pq", "1,2"],
        ["--", "bfun", *request],
        ["bfun", *request, "--", "extra"],
        ["bfun"],
        ["invariants", "--quiver", "1->2", "--dims", "1,1", "--format"],
    ]
    for argv in argvs:
        want = (reference.cli_main(list(argv)), *capsys.readouterr())
        assert (cli_main(list(argv)), *capsys.readouterr()) == want, argv
    assert cli_main(["bfun", *request, "extra"]) == 2
    assert capsys.readouterr().err.endswith("qbfun: error: unrecognized arguments: extra\n")


def test_the_direct_reader_reads_like_argparse(capsys):
    """Whenever cli_main reads an argv itself, argparse reads it to the same fields.

    The 400 fuzzed argvs and the edge argvs above, then the forms the
    reader leaves to argparse: a value that starts with "-" (argparse
    reads "-1" as a value), a repeated option, a choice not offered, two
    or no members of diagram's group, a missing required option or value,
    a flag given a value.  The reader must also take every well-formed
    draw, or the fast path would have decayed into always asking argparse.
    """
    rng = random.Random(20261019)
    argvs = [_mutated(rng, _valid_argv(rng)) for _ in range(400)]
    request = ["--quiver", "1->2", "--dims", "2,2", "--pq", "1,2"]
    argvs += [
        [], ["-h"], ["--help"], ["nope"], ["bfun", "-h"], ["diagram", "--help"],
        ["bfun", *request, "extra"], ["bfun", *request, "--bogus"], ["bfun", "--quiver=1->2", "--dims=2,2", "--pq=1,2"],
        ["bfun", "--qui", "1->2", "--dims", "2,2", "--pq", "1,2"], ["--quiver", "1->2", "bfun", "--dims", "2,2", "--pq", "1,2"],
        ["--", "bfun", *request], ["bfun", *request, "--", "extra"], ["bfun"],
        ["invariants", "--quiver", "1->2", "--dims", "1,1", "--format"],
        ["verify", "--quiver", "1->2", "--dims", "1,1", "--multi", "-1"],
        ["verify", "--quiver", "-1", "--dims", "1,1"],
        ["bfun", *request, "--pq", "1,2"],
        ["bfun", *request, "--format", "xml"],
        ["diagram", "--quiver", "1->2", "--dims", "1,1", "--complete", "--superposed"],
        ["diagram", "--quiver", "1->2", "--dims", "1,1", "--pq", "1,2", "--complete"],
        ["diagram", "--quiver", "1->2", "--dims", "1,1"],
        ["diagram", "--quiver", "1->2", "--dims", "1,1", "--complete", "--out", ""],
        ["verify", "--quiver", "1->2", "--dims", "1,1", "--grad", "yes"],
        ["verify", "--quiver", "1->2", "--dims", "1,1", "--grad", "--afun", "--budget", ""],
        ["ranks", "--dims", "1,1", "--pq", "1,2"],
        ["slice", "--pq", "1,2", "--dims", "1,1", "--quiver", "R"],
    ]
    commands = build_parser().commands
    accepted = 0
    for argv in argvs:
        args = cli._read_argv(list(argv))
        if args is None:
            continue
        accepted += 1
        want, extras = commands[argv[0]].parse_known_args(argv[1:])
        assert extras == [] and vars(args) == {**vars(want), "command": argv[0]}, argv
    assert capsys.readouterr() == ("", "")
    assert accepted > 200, accepted
    for _ in range(400):
        argv = _valid_argv(rng)
        assert cli._read_argv(argv) is not None, argv


def test_importing_the_cli_loads_no_argparse():
    """Only an argv that the direct reader leaves over needs argparse, so the import of the CLI loads neither it nor gettext."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import qbfun.cli; "
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# one well-formed request of each subcommand but verify, the only one that builds a Fraction
REQUESTS_WITHOUT_FRACTIONS = [
    [command, "--quiver", "1->2<-3->4<-5", "--dims", "2,5,7,4,2", *options]
    for command, options in (
        ("invariants", ()),
        ("bfun", ("--pq", "1,4")),
        ("bfun-multi", ()),
        ("afun", ()),
        ("diagram", ("--pq", "1,4", "--render", "ascii")),
        ("diagram", ("--complete", "--render", "svg")),
        ("diagram", ("--superposed",)),
        ("ranks", ("--pq", "1,4")),
        ("slice", ("--pq", "2,5")),
    )
]


_FRACTIONS_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import qbfun.cli
after_import = sorted({"fractions", "decimal", "numbers", "heapq"} & set(sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [qbfun.cli.cli_main(argv) for argv in json.loads(sys.argv[2])]
print(after_import, codes, sorted({"fractions", "decimal", "numbers"} & set(sys.modules)))
"""


def test_only_verify_loads_fractions():
    """A fresh process imports the CLI without fractions, decimal, numbers and heapq, and no request but verify loads the first three."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-I", "-c", _FRACTIONS_PROBE, src, json.dumps(REQUESTS_WITHOUT_FRACTIONS)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"[] {[0] * len(REQUESTS_WITHOUT_FRACTIONS)} []"


def test_signs_underscores_and_wide_digits_are_input_errors(capsys):
    """A number is ASCII digits with blanks around it: int()'s other readings exit 2 with one error line."""
    bad = (
        ["bfun", "--quiver", "1->\uff12", "--dims", "\uff11,1_0", "--pq", " +1,2"],
        ["bfun", "--quiver", "R", "--dims", " 2,+2", "--pq", "1,2"],
        ["bfun", "--quiver", "R", "--dims", "2,2", "--pq", "1,\uff12"],
        ["verify", "--quiver", "R", "--dims", "1,1", "--budget", "1_000"],
        ["verify", "--quiver", "R", "--dims", "1,1", "--multi", "+1"],
    )
    for argv in bad:
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and _one_error_line(captured.err), argv
    assert cli_main(["bfun", "--quiver", " R ", "--dims", " 2 , 2 ", "--pq", " 1, 2"]) == 0
    assert '"pq"' in capsys.readouterr().out


def test_a_number_where_an_arrow_belongs_is_an_input_error(capsys):
    """The arrow form alternates vertex and arrow: a number at an arrow position exits 2 with one error line."""
    for quiver, dims in (("1 2 2", "2,2"), ("1->2 3 3", "2,2,2"), ("1 3 2", "2,2")):
        code = cli_main(["bfun", "--quiver", quiver, "--dims", dims, "--pq", "1,2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and _one_error_line(captured.err), quiver
        assert "expected -> or <-" in captured.err


def test_dimension_sum_above_the_limit_is_an_input_error(capsys):
    """Every command refuses --dims summing past MAX_DIMENSION_SUM before it builds anything."""
    over = f"{MAX_DIMENSION_SUM},1"
    huge = "100000000,100000000"
    for argv in (
        ["invariants"], ["bfun", "--pq", "1,2"], ["bfun-multi"], ["afun"], ["diagram", "--complete", "--render", "ascii"],
        ["diagram", "--superposed", "--render", "svg"], ["ranks", "--pq", "1,2"], ["slice", "--pq", "1,2"],
        ["verify", "--pq", "1,2", "--multi", "1"],
    ):
        for dims in (over, huge):
            code = cli_main([*argv, "--quiver", "1->2", "--dims", dims])
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.out == "" and _one_error_line(captured.err), argv
            assert str(MAX_DIMENSION_SUM) in captured.err
    # the limit itself is allowed
    assert cli_main(["invariants", "--quiver", "1->2", "--dims", f"{MAX_DIMENSION_SUM - 1},1"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_multi_operator_degree_above_the_limit_exits_4(capsys):
    """--multi 400 on one variable asks for a degree-400 operator: refused at once, with its own what."""
    build_parser()
    start = time.perf_counter()
    code = cli_main(["verify", "--quiver", "1->2", "--dims", "1,1", "--multi", "400"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == f"error: budget exceeded: operator degree = 400 > {MAX_OPERATOR_DEGREE}\n"
    assert elapsed < 0.1
    code = cli_main(["verify", "--quiver", "1->2", "--dims", "1,1", "--multi", str(MAX_OPERATOR_DEGREE)])
    assert code == 0 and json.loads(capsys.readouterr().out)["ok"]


def test_verify_at_the_dimension_limit_exits_4_at_once(capsys):
    """verify on a 512,512 split stops on the matrix size, with or without --multi, in under 1 s."""
    build_parser()
    for extra in ([], ["--multi", "1"]):
        start = time.perf_counter()
        code = cli_main(["verify", "--quiver", "1->2", "--dims", "512,512", "--pq", "1,2", *extra])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 4 and captured.out == "", extra
        assert captured.err == "error: budget exceeded: matrix size = 512 > 6\n"
        assert elapsed < 1, extra
