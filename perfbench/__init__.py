"""Closed-loop benchmark of the vandercomplex library.

`run.py` is the entry point; `cases.py` holds the workloads, the seeded
case schedule and the correctness gate; `spans.py` holds the opt-in
tracer; `make_pool.py` regenerates `pool.json`, the frozen inputs and
their reference answers.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """Import vandercomplex from this checkout's `src`, never from elsewhere.

    Raises ImportError when the checkout has no sources, so a directory
    holding only the benchmark cannot report a result.
    """
    import sys

    if not (SRC / "vandercomplex" / "__init__.py").is_file():
        raise ImportError(f"no vandercomplex sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vandercomplex

    origin = Path(vandercomplex.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"vandercomplex was imported from {origin}, not from {SRC}")
    return vandercomplex
