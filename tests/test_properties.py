"""Property tests for the three input formats and the command line.

Random JSON, and random near-miss versions of each format, must either
parse or raise ValidationError; the command line must answer every such
file with exit 0, 1 or 2 and at most one line on stderr, never a
traceback.  Examples are derandomized so the suite is repeatable.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vandercomplex import ValidationError, format_diagram, torus_two_n  # noqa: E402
from vandercomplex.cli import main  # noqa: E402
from vandercomplex.gendet import parse_matrix  # noqa: E402
from vandercomplex.linkdiag import parse_diagram  # noqa: E402
from vandercomplex.zndiag import parse_morphism  # noqa: E402

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
small = st.integers(-1, 4) | scalars
vector = st.lists(small, max_size=3)
pairs = st.lists(st.lists(small, max_size=3) | scalars, max_size=3)

square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(1, 4), min_size=n, max_size=n), min_size=n, max_size=n)
)
matrices = (
    values
    | st.fixed_dictionaries({"matrix": square})
    | st.fixed_dictionaries({"matrix": st.lists(vector, max_size=4) | values})
)
two_colors = st.lists(st.integers(1, 3), min_size=2, max_size=2)
morphisms = (
    values
    | st.fixed_dictionaries(
        {"source": vector, "target": vector},
        optional={"arcs": pairs | values, "dots": vector | values},
    )
    | st.fixed_dictionaries(
        {"source": two_colors, "target": two_colors},
        optional={
            "arcs": st.lists(st.sampled_from([[1, 1], [1, 2], [2, 2]]), max_size=2),
            "dots": st.lists(st.integers(1, 3), max_size=2),
        },
    )
)
crossings = st.fixed_dictionaries({"zero": pairs, "one": pairs}) | values
diagrams = (
    values
    | st.fixed_dictionaries({"crossings": st.lists(crossings, max_size=3)}, optional={"free_loops": small})
    | st.sampled_from([json.loads(format_diagram(torus_two_n(n))) for n in (1, 2, 3)])
)
texts = st.text(max_size=20)

PARSERS = {"matrix": parse_matrix, "zmap": parse_morphism, "diagram": parse_diagram}
FORMATS = {"matrix": matrices, "zmap": morphisms, "diagram": diagrams}


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_random_json_parses_or_raises_validation_error(kind):
    @PROPERTY
    @given(FORMATS[kind].map(json.dumps) | texts)
    def check(text):
        try:
            PARSERS[kind](text)
        except ValidationError:
            pass

    check()


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_cli_answers_every_input_in_one_line(kind, tmp_path_factory):
    path = tmp_path_factory.mktemp(kind) / "input.json"

    @PROPERTY
    @given(
        FORMATS[kind].map(json.dumps) | texts,
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.booleans(),
    )
    def check(text, colors, as_json):
        path.write_text(text)
        argv = [kind, "--file", str(path)]
        if kind == "diagram":
            argv += ["--x", ",".join(map(str, colors))]
        if kind == "zmap":
            argv += ["--n", "2"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json"] * as_json)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        assert len(lines) <= 1 and "Traceback" not in err.getvalue()
        if code == 0:
            assert lines == [] and out.getvalue()
        if code == 1:
            assert lines[0].startswith("error:") and out.getvalue() == ""

    check()
