import json

from qbfun.cli import cli_main


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


def test_exit_code_pq_out_of_range(capsys):
    for pq in ("0,9", "2,1", "1,3"):
        assert cli_main(["bfun", "--quiver", "1->2", "--dims", "1,1", "--pq", pq]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_exit_code_dims_wrong_length(capsys):
    for cmd in (["invariants"], ["bfun-multi"], ["bfun", "--pq", "1,2"], ["verify"]):
        assert cli_main([*cmd, "--quiver", "1->2", "--dims", "1,1,1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_exit_code_bad_budget(monkeypatch, capsys):
    for budget in ("-5", "0,0,0", "abc", "1,2,3,4"):
        assert cli_main(["verify", "--quiver", "1->2", "--dims", "1,1", "--budget", budget]) == 2
        assert capsys.readouterr().err.startswith("error:")
    monkeypatch.setenv("QBFUN_BUDGET", "-5")
    assert cli_main(["verify", "--quiver", "1->2", "--dims", "1,1"]) == 2
    capsys.readouterr()


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
