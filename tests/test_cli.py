import json
from operator import add
from random import Random

import pytest

from cohalab import coha
from cohalab.cli import parse_element, run
from cohalab.coha import CohaError, SymPoly, slice_basis, var_name
from cohalab.polys import Poly
from cohalab.quiver import parse_quiver_file, serialize_quiver_file
from helpers import SHUFFLE_FIXTURES, per_shuffle_product

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
    assert p.coords == {((1, 1),): 1, ((2, 0),): 2, ((0, 0),): -3}
    assert p.degree() == 2
    assert parse_element(fq, "d=1:x^1000000").degree() == 1000000
    # unary minus binds looser than ^
    x2 = parse_element(fq, "d=1:x^2")
    assert x2.coords == {((2,),): 1}
    assert parse_element(fq, "d=1:-x^2").coords == {((2,),): -1}
    assert parse_element(fq, "d=1:-x^2") == parse_element(fq, "d=1:0-x^2")
    assert parse_element(fq, "d=1:--x^2") == x2
    assert parse_element(fq, "d=2:-x[0,1]^2*x[0,2]^2").coords == {((2, 2),): -1}
    assert parse_element(fq, "d=2:2*-x[0,1]^2*x[0,2]^2").coords == {((2, 2),): -2}


def element_text(f: SymPoly) -> str:
    return f"d={','.join(map(str, f.d))}:{f.format()}"


def test_formatted_elements_parse_back():
    rng = Random(5)
    for text, dims in [(POINT_Q, [(0,), (1,), (2,), (3,)]), (A2_Q, [(1, 1), (2, 1)])]:
        fq = parse_quiver_file(text)
        for _ in range(100):
            d = rng.choice(dims)
            sigs = [sig for n in range(4) for sig in slice_basis(d, n)]
            coords = {
                rng.choice(sigs): rng.choice([-3, -1, 1, 2]) for _ in range(rng.randint(1, 4))
            }
            element = SymPoly(fq, d, coords)
            head = "d=" + ",".join(map(str, d))
            assert parse_element(fq, f"{head}:{element.format()}") == element
            # a polynomial that is not block-symmetric formats, but is refused
            poly = element.poly + Poly.monomial(sum(d), tuple(range(sum(d))))
            if max(d) > 1:
                with pytest.raises(CohaError):
                    parse_element(fq, f"{head}:{poly.format(lambda i: var_name(d, i))}")


def random_int_element(fq, d, rng) -> SymPoly:
    coords = {sig: c for n in range(3) for sig in slice_basis(d, n) if (c := rng.randint(-3, 3))}
    return SymPoly(fq, d, coords)


def test_shuffle_cli_matches_per_shuffle_oracle(tmp_path, capsys):
    # every (d, e) pair of the oracle fixtures, text and --json
    rng = Random(154)
    cases = 0
    for name, fq, dims, max_total in SHUFFLE_FIXTURES:
        path = tmp_path / f"{name}.q"
        path.write_text(serialize_quiver_file(fq), encoding="utf-8")
        for d in dims:
            for e in dims:
                if sum(d) + sum(e) > max_total:
                    continue
                f, g = random_int_element(fq, d, rng), random_int_element(fq, e, rng)
                t = tuple(map(add, d, e))
                poly = per_shuffle_product(f, g).format(lambda i: var_name(t, i))
                argv = ["shuffle", "-q", str(path), "--left", element_text(f)]
                argv += ["--right", element_text(g)]
                assert run(argv) == 0 and run(argv + ["--json"]) == 0
                assert capsys.readouterr().out.splitlines() == [
                    f"d={','.join(map(str, t))}: {poly}",
                    json.dumps({"dim": list(t), "poly": poly}, sort_keys=True),
                ]
                cases += 1
    assert cases == 154


VERIFY_BASIS_TABLES = [  # quiver, --dim, rows (n, h, kernel, quotient, partitions)
    (TWO_LOOP_Q, "5", [(1, 0, 1, 1), (1, 0, 1, 1), (2, 0, 2, 2), (3, 0, 3, 3), (5, 0, 5, 5),
                       (7, 2, 5, 5), (10, 3, 7, 7), (13, 6, 7, 7), (18, 12, 6, 6),
                       (23, 19, 4, 4), (30, 29, 1, 1), (37, 37, 0, 0)]),
    ("vertices 1\nframing 7\n", "4", [(1, 0, 1, 1), (1, 0, 1, 1), (2, 0, 2, 2), (3, 0, 3, 3),
                                       (5, 1, 4, 4), (6, 2, 4, 4), (9, 4, 5, 5), (11, 7, 4, 4),
                                       (15, 11, 4, 4), (18, 15, 3, 3), (23, 21, 2, 2),
                                       (27, 26, 1, 1), (34, 33, 1, 1), (39, 39, 0, 0)]),
    ("vertices 2\narrow a 0 1\nframing 2 0\n", "2,2", [(1, 0, 1, 1), (2, 2, 0, 0)]),
]


@pytest.mark.parametrize("text, dim, rows", VERIFY_BASIS_TABLES, ids=["two-loop", "point-w7", "a2"])
def test_verify_basis_tables(text, dim, rows, tmp_path, capsys):
    path = tmp_path / "quiver.q"
    path.write_text(text, encoding="utf-8")
    assert run(["verify-basis", "-q", str(path), "--dim", dim]) == 0
    assert lines_of(capsys) == [
        f"n={n} h={h} kernel={k} quotient={q} partitions={p} PASS"
        for n, (h, k, q, p) in enumerate(rows)
    ]


@pytest.mark.parametrize("as_json", [False, True])
def test_verify_basis_streams_rows(as_json, two_loop_file, monkeypatch, capsys):
    # each degree is printed when it is done: an error at degree 2 leaves
    # the rows of degrees 0 and 1 on stdout
    real = coha.verify_basis

    def failing_at_two(fq, d, n):
        if n == 2:
            raise CohaError("degree 2 failed")
        return real(fq, d, n)

    monkeypatch.setattr(coha, "verify_basis", failing_at_two)
    args = ["verify-basis", "-q", two_loop_file, "--dim", "3"] + ["--json"] * as_json
    assert run(args) == 1
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()
    if as_json:
        assert [json.loads(r)["degree"] for r in rows] == [0, 1]
    else:
        assert [r.split()[0] for r in rows] == ["n=0", "n=1"]
    assert captured.err.splitlines() == ["error: degree 2 failed"]


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


# the d=3 closure pair of the worked example; minors captured from the CLI
CHARTS_D3_MINOR = "c[bf,af]^2 + c[bf,af]*c[abf,af]*c[abf,aabf] - c[abf,af]^2*c[bf,aabf]"


def assert_charts_output(capsys, file, target, order, minors, power):
    """Every minor line and the multiplicity line, in text and in --json."""
    args = ["charts", "-q", file, "--target", target, "--chart", "f,bf,abf"]
    args += ["--order", order, "--multiplicity"]
    assert run(args) == 0
    assert lines_of(capsys) == minors + [f"multiplicity={power}"]
    assert run(args + ["--json"]) == 0
    rows = [json.loads(line) for line in lines_of(capsys)]
    assert rows == [{"minor": m} for m in minors] + [{"multiplicity": power}]


def test_charts_multiplicity(two_loop_file, capsys):
    minors = ["-c[abf,af]", CHARTS_D3_MINOR]
    assert_charts_output(capsys, two_loop_file, "f,af,baf", "shortlex", minors, 2)


def test_charts_multiplicity_lex(two_loop_file, capsys):
    minors = [
        CHARTS_D3_MINOR,
        "-c[f,af]*c[abf,af] + c[bf,af]^2*c[abf,bbf] + c[bf,af]*c[abf,af]*c[abf,babf]"
        " - c[bf,af]*c[abf,af]*c[bf,bbf] - c[abf,af]^2*c[bf,babf]",
    ]
    assert_charts_output(capsys, two_loop_file, "f,af,bf", "lex", minors, 4)


@pytest.mark.parametrize("as_json", [False, True])
def test_charts_refused_multiplicity_prints_only_the_error(as_json, two_loop_file, capsys):
    # the chart has a minor, but the cells differ in dimension
    args = ["charts", "-q", two_loop_file, "--target", "f,af,aaf", "--chart", "f,bf,bbf"]
    assert run(args + ["--json"] * as_json) == 0
    assert capsys.readouterr().out != ""
    assert run(args + ["--multiplicity"] + ["--json"] * as_json) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: multiplicity needs cells of equal dimension\n"


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


TWO_CYCLE_Q = "vertices 2\narrow a 0 1\narrow b 1 0\nframing 1 1\n"
TWO_CYCLE_PARTITIONS = [  # label order, not the shortlex tree order
    ("[][]", 4),
    ("[][1]", 3),
    ("[][1,1]", 2),
    ("[1][]", 3),
    ("[1,1][]", 2),
]


def test_partitions_cli_two_cycle(tmp_path, capsys):
    path = tmp_path / "twocycle.q"
    path.write_text(TWO_CYCLE_Q, encoding="utf-8")
    assert run(["partitions", "-q", str(path), "--dim", "2,2"]) == 0
    assert lines_of(capsys) == [f"{lam} dim={dim}" for lam, dim in TWO_CYCLE_PARTITIONS]
    assert run(["partitions", "-q", str(path), "--dim", "2,2", "--json"]) == 0
    rows = [json.loads(line) for line in lines_of(capsys)]
    assert rows == [{"partition": lam, "dim": dim} for lam, dim in TWO_CYCLE_PARTITIONS]


ONE_LOOP_Q = "vertices 1\narrow a 0 0\nframing 1\nframenames f\n"


@pytest.mark.parametrize("command", ["trees", "partitions"])
def test_deep_single_cell_is_not_bounded_by_recursion(command, tmp_path, capsys):
    # the one-loop quiver with framing 1 has one cell per d, a chain of d paths
    path = tmp_path / "oneloop.q"
    path.write_text(ONE_LOOP_Q, encoding="utf-8")
    assert run([command, "-q", str(path), "--dim", "1500"]) == 0
    (row,) = lines_of(capsys)
    assert row.endswith(" dim=1500" if command == "partitions" else " dim=1500 partition=[]")


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
    pytest.param(["classify"], "rep 1\nmatrix a\n1 2\n", id="rep-matrix-too-wide"),
    pytest.param(["classify"], "rep 1\nframing 0 1\n1 2\n", id="rep-framing-too-wide"),
    pytest.param(["bijection", "--partition", "[x]", "--dim", "3"], None, id="partition"),
    pytest.param(["bijection", "--partition", "[1]]", "--dim", "3"], None, id="partition-close"),
    pytest.param(["bijection", "--partition", "[[1]", "--dim", "3"], None, id="partition-open"),
    pytest.param(["bijection", "--partition", "[1,]", "--dim", "3"], None, id="partition-comma"),
    pytest.param(["bijection", "--partition", "[1,,1]", "--dim", "3"], None, id="partition-gap"),
    pytest.param(["shuffle", "--left", "d=1:x^x", "--right", "d=1:1"], None, id="exponent"),
    pytest.param(["shuffle", "--left", "d=1:x[0,", "--right", "d=1:1"], None, id="cut-variable"),
    pytest.param(["shuffle", "--left", "d=2:x", "--right", "d=1:1"], None, id="not-symmetric"),
    pytest.param(["verify-basis", "--dim", "2", "--max-degree", "-1"], None, id="max-degree"),
    pytest.param(["classify"], "rep 1\nframing 0 1\n1e999999999\n", id="rep-exponent"),
    pytest.param(WSHORTLEX + ["--weights", "a=1e999999999"], None, id="weight-exponent"),
    pytest.param(
        ["shuffle", "--left", "d=1:" + "9" * 5000, "--right", "d=1:1"], None, id="long-integer"
    ),
    pytest.param(
        ["shuffle", "--left", "d=1:" + "(" * 400 + "x" + ")" * 400, "--right", "d=1:1"],
        None,
        id="deep-parentheses",
    ),
    pytest.param(
        ["shuffle", "--left", "d=1:" + "-" * 2000 + "x", "--right", "d=1:1"], None, id="deep-minus"
    ),
    pytest.param(["trees", "--dim", "2", "--weights", "a=2"], None, id="weights-without-order"),
    pytest.param(WSHORTLEX + ["--weights", "a=2,b=1,a=3"], None, id="weight-twice"),
    pytest.param(["trees", "--dim", "1_0"], None, id="dim-underscore"),
    pytest.param(["trees", "--dim", "1"], "vertices 0_1\nframing 1\n", id="vertices-underscore"),
    pytest.param(
        ["trees", "--dim", "1"], "vertices 1\narrow a 0 0_0\nframing 1\n", id="arrow-underscore"
    ),
    pytest.param(["trees", "--dim", "1"], "vertices 1\nframing 1_0\n", id="framing-underscore"),
]


@pytest.mark.parametrize("args, file_text", BAD_INPUTS)
def test_bad_input_is_one_error_line(args, file_text, two_loop_file, tmp_path, capsys):
    # file_text is a rep file, or a quiver file in place of the two-loop one
    quiver_file = two_loop_file
    if file_text is not None:
        path = tmp_path / "bad.in"
        path.write_text(file_text, encoding="utf-8")
        if file_text.startswith("rep"):
            args = args + ["-r", str(path)]
        else:
            quiver_file = str(path)
    assert run(args + ["-q", quiver_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")


def test_decimal_numbers_are_read_exactly(two_loop_file, capsys):
    # parse_number reads 1.5 as Fraction(3, 2), which passes the float gate
    tables = []
    for weight in ("1.5", "3/2"):
        args = ["trees", "--dim", "3", "--order", "wshortlex", "--weights", f"b={weight}"]
        assert run(args + ["-q", two_loop_file]) == 0
        tables.append(lines_of(capsys))
    assert tables[0] == tables[1] and len(tables[0]) == 5


@pytest.mark.parametrize(
    "args, data",
    [
        pytest.param(["trees", "--dim", "1"], b"vertices 1\n\xff\nframing 1\n", id="quiver-utf8"),
        pytest.param(["classify"], b"rep 1\nframing 0 1\n\xff\n", id="rep-utf8"),
        pytest.param(
            ["classify"], b"rep 1\nmatrix a\n1\nmatrix a\n2\nframing 0 1\n1\n", id="rep-matrix-twice"
        ),
        pytest.param(
            ["classify"], b"rep 1\nframing 0 1\n1\nframing 0 1\n1\n", id="rep-framing-twice"
        ),
    ],
)
def test_bad_file_bytes_are_one_error_line(args, data, two_loop_file, tmp_path, capsys):
    path = tmp_path / "bad.in"
    path.write_bytes(data)
    if args == ["classify"]:
        args = args + ["-r", str(path), "-q", two_loop_file]
    else:
        args = args + ["-q", str(path)]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
