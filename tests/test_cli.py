import json
from fractions import Fraction
from random import Random

import pytest

from cohalab.cli import parse_element, run
from cohalab.coha import SymPoly
from cohalab.polys import Poly
from cohalab.quiver import parse_quiver_file

TWO_LOOP_Q = "vertices 1\narrow a 0 0\narrow b 0 0\nframing 1\nframenames f\n"
POINT_Q = "vertices 1\nframing 1\nframenames f\n"
A2_Q = "vertices 2\narrow a 0 1\nframing 1 1\n"
JORDAN_REP = (
    "rep 3\nmatrix b\n0 0 0\n1 0 0\n0 1 0\nframing 0 1\n1 0 0\n"
)


@pytest.fixture
def two_loop_file(tmp_path):
    path = tmp_path / "twoloop.q"
    path.write_text(TWO_LOOP_Q, encoding="utf-8")
    return str(path)


@pytest.fixture
def point_file(tmp_path):
    path = tmp_path / "point.q"
    path.write_text(POINT_Q, encoding="utf-8")
    return str(path)


def lines_of(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_trees_text(two_loop_file, capsys):
    assert run(["trees", "-q", two_loop_file, "--dim", "3", "--order", "shortlex"]) == 0
    out = lines_of(capsys)
    assert out[0] == "f,af,bf dim=12 partition=[]"
    assert len(out) == 5
    assert out[-1] == "f,bf,bbf dim=9 partition=[2,1]"


def test_trees_json_roundtrip(two_loop_file, capsys):
    assert run(["trees", "-q", two_loop_file, "--dim", "3", "--json"]) == 0
    rows = [json.loads(line) for line in lines_of(capsys)]
    assert rows[0] == {"tree": "f,af,bf", "dim": 12, "partition": "[]"}
    assert [r["dim"] for r in rows] == [12, 11, 10, 10, 9]


def test_series_text(two_loop_file, capsys):
    assert run(["series", "-q", two_loop_file, "--dim", "3"]) == 0
    assert lines_of(capsys) == ["L^12 + L^11 + 2*L^10 + L^9"]


def test_series_json(two_loop_file, capsys):
    assert run(["series", "-q", two_loop_file, "--dim", "3", "--json"]) == 0
    rows = [json.loads(line) for line in lines_of(capsys)]
    assert {r["degree"]: r["coeff"] for r in rows} == {12: 1, 11: 1, 10: 2, 9: 1}


def test_betti(two_loop_file, capsys):
    assert run(["betti", "-q", two_loop_file, "--dim", "3"]) == 0
    assert lines_of(capsys) == ["0:1", "2:1", "4:2", "6:1"]


def test_bijection_tree_to_partition(two_loop_file, capsys):
    assert (
        run(
            [
                "bijection",
                "-q",
                two_loop_file,
                "--tree",
                "f,af,baf",
                "--order",
                "shortlex",
            ]
        )
        == 0
    )
    assert lines_of(capsys) == ["[2]"]


def test_bijection_partition_to_tree_lex(two_loop_file, capsys):
    assert (
        run(
            [
                "bijection",
                "-q",
                two_loop_file,
                "--partition",
                "[2]",
                "--dim",
                "3",
                "--order",
                "lex",
            ]
        )
        == 0
    )
    assert lines_of(capsys) == ["f,af,bf"]


def test_bijection_partition_needs_dim(two_loop_file, capsys):
    assert run(["bijection", "-q", two_loop_file, "--partition", "[2]"]) == 1


def test_shuffle_point(point_file, capsys):
    assert (
        run(["shuffle", "-q", point_file, "--left", "d=1:x", "--right", "d=1:1"]) == 0
    )
    assert lines_of(capsys) == ["d=2: -1"]


def test_shuffle_expression_grammar(point_file):
    fq = parse_quiver_file(POINT_Q)
    p = parse_element(fq, "d=2:x[0,1]*x[0,2] + 2*x[0,1]^2 + 2*x[0,2]^2 - 3")
    assert p.is_symmetric()
    assert p.degree() == 2
    assert parse_element(fq, "d=1:x^1000000").degree() == 1000000
    # unary minus binds looser than ^
    x2 = parse_element(fq, "d=1:x^2")
    assert parse_element(fq, "d=1:-x^2") == -x2 == parse_element(fq, "d=1:0-x^2")
    assert parse_element(fq, "d=1:--x^2") == x2
    y = parse_element(fq, "d=2:x[0,1]^2*x[0,2]^2")
    assert parse_element(fq, "d=2:-x[0,1]^2*x[0,2]^2") == -y
    assert parse_element(fq, "d=2:2*-x[0,1]^2*x[0,2]^2") == y.scale(-2)


def test_formatted_elements_parse_back():
    rng = Random(5)
    for text, dims in [(POINT_Q, [(0,), (1,), (2,), (3,)]), (A2_Q, [(1, 1), (2, 1)])]:
        fq = parse_quiver_file(text)
        for _ in range(100):
            d = rng.choice(dims)
            terms = {
                tuple(rng.randint(0, 3) for _ in range(sum(d))): Fraction(rng.choice([-3, -1, 1, 2]))
                for _ in range(rng.randint(1, 4))
            }
            element = SymPoly(fq, d, Poly(sum(d), terms))
            head = "d=" + ",".join(map(str, d))
            assert parse_element(fq, f"{head}:{element.format()}") == element


def test_classify_cli(two_loop_file, tmp_path, capsys):
    rep = tmp_path / "jordan.rep"
    rep.write_text(JORDAN_REP, encoding="utf-8")
    assert run(["classify", "-q", two_loop_file, "-r", str(rep)]) == 0
    assert lines_of(capsys) == ["f,bf,bbf dim=9 partition=[2,1]"]


def test_classify_unstable_is_domain_error(two_loop_file, tmp_path, capsys):
    rep = tmp_path / "unstable.rep"
    rep.write_text("rep 2\nframing 0 1\n0 0\n", encoding="utf-8")
    assert run(["classify", "-q", two_loop_file, "-r", str(rep)]) == 1
    assert "not stable" in capsys.readouterr().err


def test_charts_multiplicity(two_loop_file, capsys):
    assert (
        run(
            [
                "charts",
                "-q",
                two_loop_file,
                "--target",
                "f,af,baf",
                "--chart",
                "f,bf,abf",
                "--order",
                "shortlex",
                "--multiplicity",
            ]
        )
        == 0
    )
    out = lines_of(capsys)
    assert out[-1] == "multiplicity=2"


def test_charts_multiplicity_lex(two_loop_file, capsys):
    assert (
        run(
            [
                "charts",
                "-q",
                two_loop_file,
                "--target",
                "f,af,bf",
                "--chart",
                "f,bf,abf",
                "--order",
                "lex",
                "--multiplicity",
            ]
        )
        == 0
    )
    assert lines_of(capsys)[-1] == "multiplicity=4"


def test_verify_basis_cli(two_loop_file, capsys):
    assert run(["verify-basis", "-q", two_loop_file, "--dim", "2"]) == 0
    out = lines_of(capsys)
    assert all(line.endswith("PASS") for line in out)


def test_partitions_cli(two_loop_file, capsys):
    assert run(["partitions", "-q", two_loop_file, "--dim", "3"]) == 0
    assert lines_of(capsys) == [
        "[] dim=12",
        "[1] dim=11",
        "[2] dim=10",
        "[1,1] dim=10",
        "[2,1] dim=9",
    ]


def test_check_suite(capsys):
    assert run(["check"]) == 0
    out = lines_of(capsys)
    assert out and all(line.endswith("PASS") for line in out)


def test_deterministic_output(two_loop_file, capsys):
    args = ["trees", "-q", two_loop_file, "--dim", "3"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_bad_quiver_path_is_domain_error(capsys):
    assert run(["trees", "-q", "/nonexistent.q", "--dim", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_dim_is_domain_error(two_loop_file, capsys):
    assert run(["trees", "-q", two_loop_file, "--dim", "1,2"]) == 1


def test_usage_error_exit_code(two_loop_file):
    with pytest.raises(SystemExit) as exc:
        run(["trees", "-q", two_loop_file])  # missing --dim
    assert exc.value.code == 2


def test_weighted_order_cli(two_loop_file, capsys):
    assert (
        run(
            [
                "trees",
                "-q",
                two_loop_file,
                "--dim",
                "2",
                "--order",
                "wshortlex",
                "--weights",
                "a=1,b=2",
            ]
        )
        == 0
    )
    assert len(lines_of(capsys)) == 2


WSHORTLEX = ["trees", "--dim", "2", "--order", "wshortlex"]
BAD_INPUTS = [
    pytest.param(["classify"], "rep a\n", id="rep-header"),
    pytest.param(["classify"], "rep 3\nmatrix b\n0 0 0\n1 0 0\n", id="rep-truncated-matrix"),
    pytest.param(["classify"], "rep 1\nframing 0 1\n", id="rep-framing-without-row"),
    pytest.param(["classify"], "rep 1\nframing 0 1\n1/0\n", id="rep-zero-denominator"),
    pytest.param(["classify"], "rep 1\nframing 0 1\nx\n", id="rep-non-number"),
    pytest.param(["bijection", "--partition", "[x]", "--dim", "3"], None, id="partition"),
    pytest.param(["shuffle", "--left", "d=1:x^x", "--right", "d=1:1"], None, id="exponent"),
    pytest.param(["shuffle", "--left", "d=1:x[0,", "--right", "d=1:1"], None, id="cut-variable"),
    pytest.param(["shuffle", "--left", "d=2:x", "--right", "d=1:1"], None, id="not-symmetric"),
    pytest.param(["verify-basis", "--dim", "2", "--max-degree", "-1"], None, id="max-degree"),
    pytest.param(["classify"], "rep 1\nframing 0 1\n1e999999999\n", id="rep-exponent"),
    pytest.param(WSHORTLEX + ["--weights", "a=1e999999999"], None, id="weight-exponent"),
    pytest.param(
        ["shuffle", "--left", "d=1:" + "9" * 5000, "--right", "d=1:1"], None, id="long-integer"
    ),
    pytest.param(["trees", "--dim", "2", "--weights", "a=2"], None, id="weights-without-order"),
    pytest.param(WSHORTLEX + ["--weights", "a=2,b=1,a=3"], None, id="weight-twice"),
]


@pytest.mark.parametrize("args, rep_text", BAD_INPUTS)
def test_bad_input_is_one_error_line(args, rep_text, two_loop_file, tmp_path, capsys):
    if rep_text is not None:
        rep = tmp_path / "bad.rep"
        rep.write_text(rep_text, encoding="utf-8")
        args = args + ["-r", str(rep)]
    assert run(args + ["-q", two_loop_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
