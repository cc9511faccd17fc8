import os
import subprocess
import sys
from pathlib import Path

import vandercomplex


def test_exports_resolve_without_duplicates():
    names = vandercomplex.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(vandercomplex, name)]
    assert missing == []


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


def test_building_a_complex_loads_numpy():
    code = """
import sys
import vandercomplex as vc
assert "numpy" not in sys.modules
vc.build_complex(vc.torus_two_n(2), (1, 2))
assert "numpy" in sys.modules
"""
    done = run_python(code)
    assert done.returncode == 0, done.stderr
