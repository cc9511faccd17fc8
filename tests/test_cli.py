import json
import sys

import pytest

from vandercomplex import cochain_dims, format_diagram, torus_two_n
from vandercomplex.checks import product_formula
from vandercomplex.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses a flag value before main runs
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_torus_table(capsys):
    code, out, _ = run(capsys, "torus", "--n", "3", "--x", "1,2,3")
    assert code == 0
    assert "euler (cochain):      12" in out
    assert "determinant:          12" in out
    assert "agree:                yes" in out


def test_torus_json_skip_homology(capsys):
    code, out, _ = run(capsys, "torus", "--n", "5", "--x", "1,2,3,4,5", "--skip-homology", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "torus"
    assert payload["euler_characteristic"] == 34560
    assert payload["homology_dims"] is None
    assert payload["agree"] is True


def test_json_reports_stable_modulo_elapsed(capsys):
    _, out1, _ = run(capsys, "torus", "--n", "3", "--x", "1,2,3", "--json")
    _, out2, _ = run(capsys, "torus", "--n", "3", "--x", "1,2,3", "--json")
    strip = lambda text: [l for l in text.splitlines() if "elapsed_ms" not in l]
    assert strip(out1) == strip(out2)


def test_diagram_command(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(format_diagram(torus_two_n(2)))
    code, out, _ = run(capsys, "diagram", "--file", str(path), "--x", "2,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["euler_characteristic"] == -2
    assert payload["homology_dims"] == [0, 2]


def test_matrix_command(capsys, tmp_path):
    path = tmp_path / "ones2.json"
    path.write_text(json.dumps({"matrix": [[1, 1], [1, 1]]}))
    code, out, _ = run(capsys, "matrix", "--file", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["euler_characteristic"] == 0
    assert payload["determinant"] == 0
    assert payload["agree"] is True


def test_zmap_command(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps({"source": [1, 2], "target": [1, 2], "arcs": [[1, 1], [2, 2]]})
    )
    code, out, _ = run(capsys, "zmap", "--file", str(path), "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["commutes"] is True
    assert payload["induced_dims"][0] == [2, 2]
    assert payload["induced_matrices"][0] == [[1, 0], [0, 1]]


def test_zmap_needs_one_diagram_source(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"source": [2], "target": [2]}))
    code, _, err = run(capsys, "zmap", "--file", str(path))
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "zmap", "--file", str(path), "--n", "1", "--diagram", "x")
    assert code == 1 and "error:" in err


def test_input_error_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "matrix", "--file", str(tmp_path / "missing.json"))
    assert code == 1 and "file not found" in err

    code, _, err = run(capsys, "torus", "--n", "3", "--x", "1,2")
    assert code == 1 and "--x has 2 entries" in err

    code, _, err = run(capsys, "torus", "--n", "3", "--x", "1,two,3")
    assert code == 1 and "comma-separated" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code, _, err = run(capsys, "matrix", "--file", str(bad))
    assert code == 1 and "not valid JSON" in err


def test_unreadable_file_exits_1(capsys, tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00{")
    for path in (tmp_path, binary):
        code, _, err = run(capsys, "matrix", "--file", str(path))
        assert code == 1 and err.startswith("error:") and len(err.splitlines()) == 1


_TORUS2 = json.loads(format_diagram(torus_two_n(2)))
# past the interpreter's 4,300-digit limit on str-to-int conversion
_BIG = "9" * 5000
_DEEP = "[" * 100_000
_BAD_X = {
    "underscore": "1_0,2",
    "arabic-indic-digit": "\u0663,2",
    "fullwidth-digit": "\uff13,2",
    "superscript-digit": "\u00b2,2",
    "empty-entry": "1,,2",
    "double-sign": "+-1,2",
    "5000-digits": "1," + _BIG,
}
# --n, --budget and --seed take ASCII [+-]?[0-9]+ only, like --x
_BAD_INT = {
    "torus-n-arabic-indic-digit": "torus --n \u0663 --x 1,2,3",
    "torus-n-underscore": "torus --n 1_0 --x 1,2,3",
    "budget-arabic-indic-digit": "torus --n 3 --x 1,2,3 --budget \u0661\u0660\u0660",
    "check-seed-arabic-indic-digit": "check --seed \u0667",
}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("matrix", {"matrix": [[1.5, 2], [3, 4]]}),
        ("matrix", {"matrix": [[True, 2], [3, 4]]}),
        ("zmap", {"source": [1, 2], "target": [1, 2], "dots": [2.5]}),
        ("zmap", {"source": [1, 2], "target": [1, 2], "arcs": [[1]]}),
        ("zmap", {"source": [1, 2], "target": [1, 2], "arcs": [5]}),
        ("zmap", {"source": [1.5, 2], "target": [1, 2]}),
        ("diagram", {**_TORUS2, "free_loops": True}),
        ("diagram", {**_TORUS2, "crossings": [
            {"zero": [[4.9, 1], [2, 3]], "one": [[4.9, 2], [1, 3]]}, *_TORUS2["crossings"][1:]]}),
        # nonpositive sizes are refused before any work, not reported later
        pytest.param("matrix --budget 0", {"matrix": [[1, 2], [3, 4]]}, id="budget-zero"),
        pytest.param("matrix --budget -1", {"matrix": [[1, 2], [3, 4]]}, id="budget-negative"),
        pytest.param("torus --n -1 --x 1", None, id="torus-n-negative"),
        # --x takes ASCII [+-]?[0-9]+ entries only, unlike int()
        *(pytest.param(f"torus --n 2 --x {x}", None, id=f"torus-x-{name}") for name, x in _BAD_X.items()),
        *(pytest.param(line, None, id=name) for name, line in _BAD_INT.items()),
        # files the JSON decoder refuses by recursion depth or digit count
        *(pytest.param(command, _DEEP, id=f"{command}-deep-nesting") for command in ("matrix", "zmap", "diagram")),
        pytest.param("matrix", '{"matrix": [[%s]]}' % _BIG, id="matrix-5000-digits"),
        pytest.param("zmap", '{"source": [%s, 1], "target": [1, 1]}' % _BIG, id="zmap-5000-digits"),
        pytest.param("diagram", json.dumps(_TORUS2)[:-1] + ', "free_loops": %s}' % _BIG, id="diagram-5000-digits"),
    ],
)
def test_malformed_numbers_exit_1(capsys, tmp_path, command, payload):
    line = command
    command, *argv = command.split()
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        extra = {"matrix": [], "zmap": ["--n", "2"], "diagram": ["--x", "1,2"]}[command]
        argv += ["--file", str(path), *extra]
    code, out, err = run(capsys, command, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    if argv[-1] in _BAD_X.values():
        assert f"--x must be a comma-separated integer list, got {argv[-1]!r}" in err
    elif line in _BAD_INT.values():
        assert "must be an integer in ASCII digits" in err
    elif argv[0] != "--file":
        assert "must be a positive integer" in err


def test_colors_past_the_digit_limit_print_in_full(capsys):
    # six 701-digit colors give 14,700-digit cochain dimensions
    x = tuple(10**700 + i for i in range(1, 7))
    argv = ["torus", "--n", "6", "--x", ",".join(map(str, x)), "--skip-homology"]
    limit = sys.get_int_max_str_digits()
    text = run(capsys, *argv)
    as_json = run(capsys, *argv, "--json")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        dims = cochain_dims(torus_two_n(6), x)
        for code, out, err in (text, as_json):
            assert code == 0 and err == ""
        assert f"cochain dims:         {dims}" in text[1]
        assert f"determinant:          {product_formula(x)}" in text[1]
        payload = json.loads(as_json[1])
        assert payload["cochain_dims"] == dims and payload["determinant"] == product_formula(x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_budget_error_exits_1(capsys):
    code, _, err = run(capsys, "torus", "--n", "3", "--x", "1,2,3", "--budget", "10")
    assert code == 1 and "budget" in err


@pytest.mark.parametrize("skip", [(), ("--skip-homology",)])
def test_n_over_the_cap_exits_1(capsys, tmp_path, skip):
    path = tmp_path / "ones7.json"
    path.write_text(json.dumps({"matrix": [[1] * 7] * 7}))
    for argv in (["torus", "--n", "7", "--x", "1,2,3,4,5,6,7"], ["matrix", "--file", str(path)]):
        code, out, err = run(capsys, *argv, *skip)
        assert code == 1 and out == ""
        assert err == "error: n=7 exceeds the poset cap 6\n"


def test_internal_error_exits_2(capsys, monkeypatch):
    # a corrupted summand row raises ConsistencyError, which is neither an
    # input error nor a size refusal
    from vandercomplex.summands import summand_table

    assert run(capsys, "torus", "--n", "2", "--x", "1,2")[0] == 0
    table = summand_table(2)
    dims, hom = table.rows[table.ids[0]]
    monkeypatch.setitem(table.rows, table.ids[0], ((dims[0] + 1, *dims[1:]), hom))
    code, out, err = run(capsys, "torus", "--n", "2", "--x", "1,2")
    assert code == 2 and out == ""
    assert err.startswith("error: summand dimensions") and len(err.splitlines()) == 1


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["torus", "--x", "1,2"])  # missing --n
    assert exc.value.code == 1


def test_check_command_runs_clean(capsys):
    code, out, _ = run(capsys, "check")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 10
    assert all(l.startswith("ok") for l in lines)
