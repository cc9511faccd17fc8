"""Regenerate pool.json: the frozen benchmark inputs and their reference answers.

Usage, from the repository root:

    python3 perfbench/make_pool.py

Every workload samples its cases from these pools, so any seed draws only
inputs whose answers were recorded here.  The references (cochain and
homology dimensions, determinants and induced-map ranks) come from the
library as it stands when this script runs; regenerate only on purpose,
because the correctness gate compares every later commit against them.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, import_library  # noqa: E402

vc = import_library()
from vandercomplex import gendet, zndiag  # noqa: E402

POOL_SEED = 1811_08090
POOL_PATH = Path(__file__).resolve().parent / "pool.json"


def encode_diagram(d) -> dict:
    return {
        "crossings": [[[list(p) for p in c.zero], [list(p) for p in c.one]] for c in d.crossings],
        "free_loops": d.free_loops,
    }


def _diagram(rng, n, torus_share=0.25):
    if rng.random() < torus_share:
        return vc.torus_two_n(n), True
    return vc.random_diagram(n, rng, free_loops=rng.choice((0, 0, 1))), False


def link_entries(seed, n, colors, lo, hi, count, *, homology, fixed_x=None, s_sum=None):
    """Diagrams with colors whose total basis size lies in [lo, hi]."""
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < count:
        d, torus = _diagram(rng, n)
        s = vc.s_vector(d)
        if s_sum is not None and (sum(s) != s_sum or d.free_loops):
            continue
        x = fixed_x or tuple(rng.choice(colors) for _ in range(n))
        dims = vc.cochain_dims(d, x)
        if not lo <= sum(dims) <= hi or (s, x) in seen:
            continue
        seen.add((s, x))
        report = vc.verify_euler(d, x, skip_homology=not homology)
        assert report.agree
        out.append(
            {
                **encode_diagram(d),
                "torus": torus,
                "x": list(x),
                "ref": {
                    "cochain_dims": report.cochain_dims,
                    "homology_dims": report.homology_dims,
                    "det": report.determinant,
                },
            }
        )
    return out


def matrix_entries(seed, n, weights, lo, hi, count, *, homology):
    """Matrices with entries drawn by weight whose basis size lies in [lo, hi]."""
    rng = random.Random(seed)
    values = list(range(1, len(weights) + 1))
    out, seen = [], set()
    while len(out) < count:
        m = gendet.PosIntMatrix(
            tuple(tuple(rng.choices(values, weights)[0] for _ in range(n)) for _ in range(n))
        )
        dims = gendet.matrix_dims(m)
        if not lo <= sum(dims) <= hi or m.entries in seen:
            continue
        seen.add(m.entries)
        report = gendet.matrix_report(m, skip_homology=not homology)
        assert report.agree
        out.append(
            {
                "matrix": [list(r) for r in m.entries],
                "ref": {
                    "cochain_dims": report.cochain_dims,
                    "homology_dims": report.homology_dims,
                    "det": report.determinant,
                },
            }
        )
    return out


def zmap_groups(seed, n, colors, hi, count, pairs):
    """Diagrams with two color vectors and morphism pairs between them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d, torus = _diagram(rng, n)
        if d.free_loops:
            continue
        vectors = [tuple(rng.choice(colors) for _ in range(n)) for _ in range(2)]
        if vectors[0] == vectors[1]:
            continue
        if any(not 60 <= sum(vc.cochain_dims(d, x)) <= hi for x in vectors):
            continue
        complexes = [vc.build_complex(d, x) for x in vectors]
        quotients = [zndiag.cohomology_quotients(cx) for cx in complexes]
        group = {
            **encode_diagram(d),
            "torus": torus,
            "vectors": [list(x) for x in vectors],
            "cochain_dims": [list(cx.level_dims) for cx in complexes],
            "homology_dims": [vc.homology(cx).homology_dims for cx in complexes],
            "pairs": [],
        }
        for _ in range(pairs):
            u, v, w = (rng.randrange(2) for _ in range(3))
            a = zndiag.random_morphism(rng, vectors[u], vectors[v])
            b = zndiag.random_morphism(rng, vectors[v], vectors[w])
            ranks = {}
            for name, m, i, j in (("a", a, u, v), ("b", b, v, w), ("ab", zndiag.compose(a, b), u, w)):
                cm = zndiag.chain_map(d, m, source_complex=complexes[i], target_complex=complexes[j])
                assert cm.commutes()
                induced = zndiag.induced_map_from(cm, quotients[i], quotients[j])
                ranks[name] = [m.rank() for m in induced]
            group["pairs"].append(
                {
                    "u": u,
                    "v": v,
                    "w": w,
                    "a": {"arcs": [list(t) for t in a.arcs], "dots": list(a.dots)},
                    "b": {"arcs": [list(t) for t in b.arcs], "dots": list(b.dots)},
                    "ranks": ranks,
                }
            )
        out.append(group)
    return out


def build_pool() -> dict:
    s = POOL_SEED
    return {
        "torus-homology/n3": link_entries(s + 1, 3, (1, 2, 3), 20, 1500, 40, homology=True),
        "torus-homology/n4": link_entries(s + 2, 4, (1, 2), 400, 3000, 40, homology=True),
        "torus-homology/n5": link_entries(s + 3, 5, (1, 2), 400, 3000, 40, homology=True),
        "torus-homology/heavy": link_entries(
            s + 4, 4, (2,), 0, 10**6, 6, homology=True, fixed_x=(2, 2, 2, 2), s_sum=10
        ),
        "euler-scan/diagram5": link_entries(s + 5, 5, range(1, 10), 10**6, 10**7, 50, homology=False),
        "euler-scan/diagram6": link_entries(s + 6, 6, range(1, 10), 10**7, 10**8, 50, homology=False),
        "euler-scan/matrix5": matrix_entries(s + 7, 5, [1] * 9, 10**5, 10**6, 50, homology=False),
        "euler-scan/matrix6": matrix_entries(s + 8, 6, [1] * 9, 10**6, 10**7, 50, homology=False),
        "matrix-homology/n4": matrix_entries(s + 9, 4, [6, 3, 2], 150, 800, 40, homology=True),
        "matrix-homology/n5": matrix_entries(s + 10, 5, [6, 3, 2], 1500, 4000, 40, homology=True),
        "matrix-homology/n6": matrix_entries(s + 11, 6, [6, 3, 2], 6000, 9000, 24, homology=True),
        "zmap-induced/n3": zmap_groups(s + 12, 3, (1, 2, 3), 600, 30, pairs=4),
        "zmap-induced/n4": zmap_groups(s + 13, 4, (1, 2), 1200, 8, pairs=3),
    }


def main() -> None:
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    pool = {"pool_seed": POOL_SEED, "recorded_at": commit or "unknown", "strata": build_pool()}
    POOL_PATH.write_text(json.dumps(pool, separators=(",", ":")) + "\n")
    for name, entries in pool["strata"].items():
        print(f"{name}: {len(entries)} entries")


if __name__ == "__main__":
    main()
