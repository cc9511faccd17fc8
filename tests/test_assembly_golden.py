"""Assembled differentials and chain-map blocks pinned bit for bit.

`data/assembly_golden.json` records, for every differential and every
chain-map block of a fixed set of cases, its shape and the sha256 of its
packed words.  The cases cover link complexes (the three-crossing torus
closure and a random four-crossing diagram with a free loop), matrix
complexes (random 3x3 and 4x4 matrices) and chain maps whose morphisms use
an identity arc, a cross-position arc, a cap, a cup and dots of both
parities.  Any change to the basis order, the cover-edge loop or the
changed-factor maps shows up as a changed digest.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from vandercomplex import (
    ZndiagMorphism,
    build_complex,
    build_matrix_complex,
    chain_map,
    random_diagram,
    torus_two_n,
)
from vandercomplex.gendet import random_matrix

GOLDEN = json.loads((Path(__file__).parent / "data" / "assembly_golden.json").read_text())

# (source, target, arcs, dots) on three crossings; position 1 of the source
# of "cross" is joined to position 2 of the target, source position 2 is
# capped off and target position 1 is filled in by a cup.
MORPHISMS = {
    "identity": ((2, 1, 3), (2, 1, 3), ((1, 1), (2, 2), (3, 3)), ()),
    "cross": ((2, 1, 2), (1, 2, 2), ((1, 2), (3, 3)), (3,)),
    "cap_cup": ((1, 2, 2), (2, 2, 2), ((2, 2), (3, 3)), (1, 1)),
    "even_dot": ((2, 2, 1), (2, 2, 1), ((1, 1), (3, 3)), (2,)),
    "all_cups": ((1, 1, 1), (2, 1, 2), (), (1,)),
}


def _records(matrices) -> list:
    return [
        [m.rows, m.cols, hashlib.sha256(m.words.tobytes()).hexdigest()] for m in matrices
    ]


def _diagrams():
    return {
        "torus3": torus_two_n(3),
        "random3_loop": random_diagram(3, random.Random(5), free_loops=1),
    }


def compute_cases() -> dict:
    """Shapes and digests of every case, keyed by case name."""
    out = {}
    out["torus3_x213"] = _records(build_complex(torus_two_n(3), (2, 1, 3)).differentials)
    d4 = random_diagram(4, random.Random(41), free_loops=1)
    out["random4_loop_x2121"] = _records(build_complex(d4, (2, 1, 2, 1)).differentials)
    rng = random.Random(42)
    for n in (3, 4):
        m = random_matrix(n, 3, rng)
        out[f"matrix{n}"] = _records(build_matrix_complex(m).differentials)
    for dname, d in _diagrams().items():
        for mname, (src, tgt, arcs, dots) in MORPHISMS.items():
            cm = chain_map(d, ZndiagMorphism(src, tgt, arcs, dots))
            out[f"map_{dname}_{mname}"] = _records(cm.blocks)
    return out


@pytest.fixture(scope="module")
def computed():
    return compute_cases()


def test_golden_covers_every_case(computed):
    assert sorted(computed) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_assembly_matches_golden(computed, name):
    assert computed[name] == GOLDEN[name]
