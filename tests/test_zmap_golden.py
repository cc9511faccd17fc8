"""`zmap --json` output pinned bit for bit.

`data/zmap_golden.json` holds the block shapes, induced shapes and induced
matrices (one bit string per row) that the row-by-row quotient reduction
produced for three morphisms on the three-crossing torus closure: an
identity, a cap and a cup between different color vectors with two odd
dots, and a composite whose middle point closes into a component.  The
last two are not invariant under a change of quotient basis, so any
change to how the bases are chosen or reduced shows up as a changed bit.
"""

import json
from pathlib import Path

import pytest

from vandercomplex import ZndiagMorphism, compose
from vandercomplex.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "zmap_golden.json").read_text())


def test_composite_case_is_a_composite():
    # a leaves middle point 1 (color 1) without an arc and so does b, so
    # compose(a, b) closes it into a dot of color 1
    a = ZndiagMorphism((2, 2, 2), (1, 2, 2), ((2, 2), (3, 3)))
    b = ZndiagMorphism((1, 2, 2), (2, 2, 2), ((2, 2), (3, 3)))
    m = GOLDEN["composite_closed_component"]["morphism"]
    c = compose(a, b)
    assert [list(c.source), list(c.target), [list(x) for x in c.arcs], list(c.dots)] == [
        m["source"], m["target"], m["arcs"], m["dots"]
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_zmap_json_matches_golden(capsys, tmp_path, name):
    case = GOLDEN[name]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(case["morphism"]))
    assert main(["zmap", "--file", str(path), "--n", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["commutes"] is True
    assert payload["block_shapes"] == case["block_shapes"]
    assert payload["induced_dims"] == case["induced_dims"]
    got = [["".join(map(str, row)) for row in m] for m in payload["induced_matrices"]]
    assert got == case["induced_matrices"]
