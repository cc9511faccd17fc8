import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vandercomplex
from vandercomplex.errors import ValidationError, strict_int


def test_exports_resolve_without_duplicates():
    names = vandercomplex.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(vandercomplex, name)]
    assert missing == []


@pytest.mark.parametrize("value", [7, np.int64(7), np.uint8(7), 7.0])
def test_strict_int_reads_integers_as_plain_ints(value):
    out = strict_int(value, "entry")
    assert out == 7 and type(out) is int


@pytest.mark.parametrize("value", [True, np.bool_(True), 7.5, "7", None])
def test_strict_int_refuses_bools_fractions_and_non_numbers(value):
    with pytest.raises(ValidationError, match=r"^entry must be an integer, got "):
        strict_int(value, "entry")


def _verify_torus(budget):
    return vandercomplex.verify_euler(vandercomplex.torus_two_n(2), (1, 2), budget=budget)


def _skip_torus(budget):
    return vandercomplex.verify_euler(vandercomplex.torus_two_n(2), (1, 2), skip_homology=True, budget=budget)


def _skip_matrix(budget):
    return vandercomplex.matrix_report(vandercomplex.PosIntMatrix(((1, 2), (3, 4))), skip_homology=True, budget=budget)


def _random_diagram(n):
    return vandercomplex.random_diagram(n, random.Random(0))


@pytest.mark.parametrize(
    "call, value, what",
    [
        pytest.param(vandercomplex.build_bruhat, 2.5, "group size", id="build_bruhat-fraction"),
        pytest.param(vandercomplex.build_bruhat, True, "group size", id="build_bruhat-bool"),
        pytest.param(vandercomplex.torus_two_n, "2", "crossing count", id="torus_two_n-str"),
        pytest.param(vandercomplex.mahonian_distribution, None, "group size", id="mahonian-none"),
        pytest.param(_verify_torus, None, "budget", id="verify_euler-budget-none"),
        pytest.param(_verify_torus, 1e9 + 0.5, "budget", id="verify_euler-budget-fraction"),
        pytest.param(_skip_torus, "x", "budget", id="verify_euler-skip-budget-str"),
        pytest.param(_skip_torus, None, "budget", id="verify_euler-skip-budget-none"),
        pytest.param(_skip_matrix, 2.5, "budget", id="matrix_report-skip-budget-fraction"),
        pytest.param(_random_diagram, 2.5, "crossing count", id="random_diagram-fraction"),
        pytest.param(_random_diagram, "3", "crossing count", id="random_diagram-str"),
        pytest.param(_random_diagram, True, "crossing count", id="random_diagram-bool"),
    ],
)
def test_size_arguments_are_strict_ints(call, value, what):
    with pytest.raises(ValidationError, match=rf"^{what} must be an integer, got "):
        call(value)


def _tqft(name, *args):
    return lambda: getattr(vandercomplex.tqft, name)(*args)


def _spec(dim):
    return lambda: vandercomplex.AlgebraSpec(dim)


def _random_matrix(n, max_entry):
    return lambda: vandercomplex.gendet.random_matrix(n, max_entry, random.Random(0))


TWO = vandercomplex.AlgebraSpec(2)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(_tqft("swap_map", -1), "swap factor dimension d must be nonnegative, got -1", id="swap_map-negative"),
        pytest.param(_tqft("swap_map", 2.0), "swap factor dimension d must be an integer, got 2.0", id="swap_map-float"),
        pytest.param(_spec(2.5), "algebra dimension must be an integer, got 2.5", id="AlgebraSpec-fraction"),
        pytest.param(_spec("2"), "algebra dimension must be an integer, got '2'", id="AlgebraSpec-str"),
        pytest.param(_spec(True), "algebra dimension must be an integer, got True", id="AlgebraSpec-bool"),
        pytest.param(_spec(-1), "algebra dimension must be nonnegative, got -1", id="AlgebraSpec-negative"),
        pytest.param(_spec(0), "algebra dimension must be positive, got 0", id="AlgebraSpec-zero"),
        pytest.param(_tqft("connected_map", TWO, True, 1), "input circle count r must be an integer, got True", id="connected_map-bool"),
        pytest.param(_tqft("connected_map", TWO, 1.5, 1), "input circle count r must be an integer, got 1.5", id="connected_map-fraction"),
        pytest.param(_tqft("connected_map", TWO, -1, 1), "input circle count r must be nonnegative, got -1", id="connected_map-negative-r"),
        pytest.param(_tqft("connected_map", TWO, 1, -1), "output circle count l must be nonnegative, got -1", id="connected_map-negative-l"),
        pytest.param(_tqft("connected_map", TWO, 1, 2.0), "output circle count l must be an integer, got 2.0", id="connected_map-float-l"),
        pytest.param(_tqft("tensor_assemble", [vandercomplex.GF2Matrix.identity(2), [[1]]]), "factor 1 must be a GF2Matrix, got list", id="tensor_assemble-list"),
        pytest.param(_random_matrix(2.5, 3), "matrix size n must be an integer, got 2.5", id="random_matrix-fraction"),
        pytest.param(_random_matrix(0, 3), "matrix size n must be positive, got 0", id="random_matrix-zero"),
        pytest.param(_random_matrix(-2, 3), "matrix size n must be nonnegative, got -2", id="random_matrix-negative"),
        pytest.param(_random_matrix(2, 0), "max_entry must be at least 1, got 0", id="random_matrix-max-zero"),
        pytest.param(_random_matrix(2, 2.5), "max_entry must be an integer, got 2.5", id="random_matrix-max-fraction"),
        pytest.param(lambda: vandercomplex.vandermonde_matrix((2, 3), (1, -1)), "s entry must be nonnegative, got -1", id="vandermonde-negative-s"),
        pytest.param(lambda: vandercomplex.vandermonde_matrix((1,), (-1,)), "s entry must be nonnegative, got -1", id="vandermonde-negative-s-at-1"),
        pytest.param(lambda: vandercomplex.vandermonde_matrix(2, (1,)), "x must be an iterable of integers, got int", id="vandermonde-x-int"),
        pytest.param(lambda: vandercomplex.PosIntMatrix(5), "matrix must be an iterable of rows, got int", id="PosIntMatrix-int"),
        pytest.param(lambda: vandercomplex.PosIntMatrix((1, 2)), "matrix row 0 must be an iterable of entries, got int", id="PosIntMatrix-flat"),
        pytest.param(lambda: vandercomplex.det_exact(None), "matrix must be an iterable of rows, got NoneType", id="det_exact-none"),
        pytest.param(lambda: vandercomplex.identity_morphism(5), "color vector must be an iterable of colors, got int", id="identity_morphism-int"),
        pytest.param(lambda: vandercomplex.ZndiagMorphism(5, (1,)), "color vector must be an iterable of colors, got int", id="ZndiagMorphism-source-int"),
        pytest.param(lambda: vandercomplex.ZndiagMorphism((1,), (1,), 5), "arcs must be an iterable of position pairs, got int", id="ZndiagMorphism-arcs-int"),
        pytest.param(lambda: vandercomplex.ZndiagMorphism((1,), (1,), (), 5), "dots must be an iterable of colors, got int", id="ZndiagMorphism-dots-int"),
    ],
)
def test_malformed_arguments_get_one_line_refusals(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = str(Path(vandercomplex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_report_route_imports_no_numpy():
    # With sys.modules["numpy"] = None any numpy import raises ImportError.
    code = """
import sys
sys.modules["numpy"] = None
import vandercomplex as vc
from vandercomplex.cli import main

d = vc.torus_two_n(4)
assert vc.verify_euler(d, (1, 2, 3, 4)).agree
assert vc.verify_euler(d, (1, 2, 3, 4), skip_homology=True).agree
assert vc.matrix_report(vc.PosIntMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 10)))).agree
assert vc.det_exact([[1, 2], [3, 4]]) == -2
assert main(["torus", "--n", "4", "--x", "1,2,3,4"]) == 0
"""
    done = run_python(code)
    assert done.returncode == 0, done.stderr


def test_building_complexes_and_chain_maps_imports_no_numpy(tmp_path):
    # An arc that stays put, one that moves, a cap and a cup.
    morphism = tmp_path / "morphism.json"
    morphism.write_text('{"source": [2, 1, 2], "target": [2, 1, 2], "arcs": [[1, 3], [2, 2]]}')
    code = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import vandercomplex as vc
from vandercomplex.cli import main

d = vc.torus_two_n(3)
cx = vc.build_complex(d, (2, 1, 2))
assert vc.homology(cx).homology_dims == vc.verify_euler(d, (2, 1, 2)).homology_dims
mx = vc.build_matrix_complex(vc.PosIntMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 10))))
assert vc.homology(mx).euler_characteristic == vc.det_exact(((1, 2, 3), (4, 5, 6), (7, 8, 10)))
cm = vc.chain_map(d, vc.parse_morphism(open(PATH).read()), source_complex=cx, target_complex=cx)
assert cm.commutes() and any(any(block.ints) for block in cm.blocks)
qx = vc.cohomology_quotients(cx)
induced = vc.induced_map_from(cm, qx, qx)
assert [h.cols for h in induced] == [q.dim for q in qx]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["zmap", "--n", "3", "--file", PATH, "--json"]) == 0
assert json.loads(out.getvalue())["induced_matrices"] == [h.to_rows() for h in induced]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["check"]) == 0
""".replace("PATH", repr(str(morphism)))
    done = run_python(code)
    assert done.returncode == 0, done.stderr
