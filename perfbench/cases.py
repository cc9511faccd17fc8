"""Workloads, the seeded case schedule, case execution and the correctness gate.

Inputs come only from `pool.json`, whose reference answers were recorded
by `make_pool.py`.  A workload is a fixed round composition: each round
draws a given number of pool entries from each of its strata, walking a
seeded permutation of the stratum.  Every round therefore costs about the
same whatever the seed, and a run repeats rounds until its time is up.

Work is never shared between rounds.  Inside a round only the
`zmap-induced` groups share work: a group's complexes and cohomology
quotients are built by its identity cases and reused by its morphism pairs.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "pool.json"

# Round composition per workload: (pool stratum, draws per round).
ROUNDS = {
    "torus-homology": (
        ("torus-homology/n3", 3),
        ("torus-homology/n4", 8),
        ("torus-homology/n5", 3),
        ("torus-homology/heavy", 2),
    ),
    "euler-scan": (
        ("euler-scan/diagram5", 5),
        ("euler-scan/matrix5", 3),
        ("euler-scan/diagram6", 2),
        ("euler-scan/matrix6", 3),
    ),
    "matrix-homology": (
        ("matrix-homology/n4", 3),
        ("matrix-homology/n5", 5),
        ("matrix-homology/n6", 2),
    ),
    "zmap-induced": (
        ("zmap-induced/n3", 3),
        ("zmap-induced/n4", 1),
    ),
}

# The reach slice of torus-homology: complexes past what the dense engine
# builds at the seed commit (n=5 hits the 2 GiB matrix ceiling, n=6 the
# basis budget).  It is fixed, the same in every round and for every seed,
# so the roadmap's "any n <= 6" target stays visible.  A refusal (SizeError)
# is counted in failed_frac and reach.refused; an answer is checked by the
# independent routes, since no reference could be recorded for it.
REACH = ((5, (2, 2, 2, 2, 2)), (6, (2, 2, 2, 2, 2, 2)))

KINDS = {
    "torus-homology": "link",
    "euler-scan/diagram": "link-euler",
    "euler-scan/matrix": "matrix-euler",
    "matrix-homology": "matrix",
    "zmap-induced": "zmap",
}


def kind_of(stratum: str) -> str:
    for prefix, kind in KINDS.items():
        if stratum.startswith(prefix):
            return kind
    raise KeyError(stratum)


@dataclass(frozen=True)
class Case:
    """One closed-loop request: a pool entry, or one step of a zmap group."""

    stratum: str
    entry: int
    step: tuple = ()

    def key(self) -> list:
        return [self.stratum, self.entry, list(self.step)]


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as handle:
        return json.load(handle)["strata"]


def _draw(workload: str, seed: int, stratum: str, position: int, size: int) -> int:
    """Entry at a position of the stratum's draw stream.

    The stream concatenates seeded permutations of the pool, so a run
    draws every entry about equally often: the seed decides the order and
    combination of the inputs, while the mix a run measures stays the pool's.
    """
    cycle, offset = divmod(position, size)
    order = list(range(size))
    random.Random(f"{workload}/{seed}/{stratum}/{cycle}").shuffle(order)
    return order[offset]


def schedule_round(workload: str, seed: int, r: int, pool: dict) -> list[Case]:
    """The cases of round r, a pure function of (workload, seed, r)."""
    cases = []
    for stratum, draws in ROUNDS[workload]:
        for i in range(draws):
            entry = _draw(workload, seed, stratum, r * draws + i, len(pool[stratum]))
            if kind_of(stratum) == "zmap":
                group = pool[stratum][entry]
                cases.append(Case(stratum, entry, ("identity", 0)))
                cases.append(Case(stratum, entry, ("identity", 1)))
                cases.extend(Case(stratum, entry, ("pair", k)) for k in range(len(group["pairs"])))
            else:
                cases.append(Case(stratum, entry))
    if workload == "torus-homology":
        cases.extend(Case("reach", i) for i in range(len(REACH)))
    return cases


def schedule_digest(workload: str, seed: int, pool: dict, rounds: int = 32) -> str:
    """sha256 over the first rounds of the schedule; identifies the case list."""
    keys = [[c.key() for c in schedule_round(workload, seed, r, pool)] for r in range(rounds)]
    return hashlib.sha256(json.dumps(keys).encode()).hexdigest()


# -- independent GF(2) helpers for the gate (Python ints as bit rows) ------


def _bit_rows(matrix) -> list[int]:
    import numpy as np

    packed = np.packbits(matrix.to_bool_array(), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _rank(rows: list[int]) -> int:
    basis: dict[int, int] = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def _product(b_rows: list[int], a_rows: list[int]) -> list[int]:
    out = []
    for row in b_rows:
        acc, j = 0, 0
        while row:
            if row & 1:
                acc ^= a_rows[j]
            row >>= 1
            j += 1
        out.append(acc)
    return out


def torus_product_formula(x) -> int:
    """x_1 ... x_n * prod_{i<j} (x_j - x_i): the Vandermonde determinant."""
    out = 1
    for i, xi in enumerate(x):
        out *= xi
        for xj in x[i + 1 :]:
            out *= xj - xi
    return out


class Runner:
    """Library inputs of one workload, and how to run and check its cases."""

    def __init__(self, vc, workload: str, seed: int, pool: dict):
        if workload not in ROUNDS:
            raise KeyError(workload)
        self.vc = vc
        self.workload = workload
        self.seed = seed
        self.pool = pool
        self.inputs = {}
        for stratum, _ in ROUNDS[workload]:
            self.inputs[stratum] = [self._decode(stratum, e) for e in pool[stratum]]
        if workload == "torus-homology":
            self.inputs["reach"] = [(vc.torus_two_n(n), x) for n, x in REACH]

    def _decode(self, stratum: str, e: dict):
        vc = self.vc
        kind = kind_of(stratum)
        if kind in ("matrix", "matrix-euler"):
            return vc.PosIntMatrix(tuple(tuple(r) for r in e["matrix"]))
        d = vc.LinkDiagram(
            tuple(vc.Crossing(zero=z, one=o) for z, o in e["crossings"]), e["free_loops"]
        )
        if kind != "zmap":
            return d, tuple(e["x"])
        vectors = [tuple(v) for v in e["vectors"]]
        pairs = []
        for p in e["pairs"]:
            u, v, w = vectors[p["u"]], vectors[p["v"]], vectors[p["w"]]
            a = vc.ZndiagMorphism(u, v, tuple(map(tuple, p["a"]["arcs"])), tuple(p["a"]["dots"]))
            b = vc.ZndiagMorphism(v, w, tuple(map(tuple, p["b"]["arcs"])), tuple(p["b"]["dots"]))
            pairs.append((a, b))
        return d, vectors, pairs

    def round(self, r: int) -> list[Case]:
        return schedule_round(self.workload, self.seed, r, self.pool)

    def basis(self, case: Case) -> int:
        """Basis elements of a case: the sum of the cochain dimensions it touches."""
        if case.stratum == "reach":
            return 0
        e = self.pool[case.stratum][case.entry]
        if kind_of(case.stratum) != "zmap":
            return sum(e["ref"]["cochain_dims"])
        dims = [sum(d) for d in e["cochain_dims"]]
        if case.step[0] == "identity":
            return dims[case.step[1]]
        p = e["pairs"][case.step[1]]
        return dims[p["u"]] + dims[p["v"]] + dims[p["w"]]

    # -- timed work ---------------------------------------------------

    def run(self, case: Case, shared: dict):
        """Run one case through the library; `shared` lives for one round."""
        vc = self.vc
        if case.stratum == "reach":
            d, x = self.inputs["reach"][case.entry]
            return vc.verify_euler(d, x)
        kind = kind_of(case.stratum)
        item = self.inputs[case.stratum][case.entry]
        if kind == "link":
            return vc.verify_euler(*item)
        if kind == "link-euler":
            return vc.verify_euler(*item, skip_homology=True)
        if kind == "matrix":
            return vc.matrix_report(item)
        if kind == "matrix-euler":
            return vc.matrix_report(item, skip_homology=True)
        d, vectors, pairs = item

        def prepared(i):
            key = (case.stratum, case.entry, i)
            if key not in shared:
                cx = vc.build_complex(d, vectors[i])
                shared[key] = (cx, vc.cohomology_quotients(cx))
            return shared[key]

        def induced(m, i, j):
            cx, qx = prepared(i)
            cy, qy = prepared(j)
            cm = vc.chain_map(d, m, source_complex=cx, target_complex=cy)
            return cm.commutes(), vc.induced_map_from(cm, qx, qy)

        step, k = case.step
        if step == "identity":
            return {"id": induced(vc.identity_morphism(vectors[k]), k, k)}
        e = self.pool[case.stratum][case.entry]["pairs"][k]
        a, b = pairs[k]
        u, v, w = e["u"], e["v"], e["w"]
        return {
            "a": induced(a, u, v),
            "b": induced(b, v, w),
            "ab": induced(vc.compose(a, b), u, w),
        }

    # -- correctness gate (outside the timed region) ------------------

    def check(self, case: Case, out) -> list[str]:
        """Every disagreement between a case's output and its references."""
        if case.stratum == "reach":
            n, x = REACH[case.entry]
            return self._check_report(out, None, torus_x=x)
        kind = kind_of(case.stratum)
        e = self.pool[case.stratum][case.entry]
        if kind == "zmap":
            return self._check_zmap(case, e, out)
        torus_x = tuple(e["x"]) if e.get("torus") else None
        return self._check_report(out, e["ref"], torus_x=torus_x)

    @staticmethod
    def _check_report(rep, ref, torus_x=None) -> list[str]:
        bad = []
        chi = sum(d if k % 2 == 0 else -d for k, d in enumerate(rep.cochain_dims))
        if rep.euler_characteristic != chi:
            bad.append(f"euler_characteristic {rep.euler_characteristic} != alternating sum {chi}")
        if rep.euler_characteristic != rep.determinant or rep.agree is not True:
            bad.append(f"chi {rep.euler_characteristic} != det {rep.determinant}")
        if rep.homology_dims is not None:
            h = rep.homology_dims
            chi_h = sum(d if k % 2 == 0 else -d for k, d in enumerate(h))
            if chi_h != rep.determinant:
                bad.append(f"chi(H) {chi_h} != det {rep.determinant}")
            if len(h) != len(rep.cochain_dims) or any(
                not 0 <= hk <= ck for hk, ck in zip(h, rep.cochain_dims)
            ):
                bad.append(f"homology {h} outside 0..{rep.cochain_dims}")
        if torus_x is not None and rep.determinant != torus_product_formula(torus_x):
            bad.append(f"det {rep.determinant} != product formula {torus_product_formula(torus_x)}")
        if ref is not None:
            for field, got in (
                ("cochain_dims", list(rep.cochain_dims)),
                ("homology_dims", None if rep.homology_dims is None else list(rep.homology_dims)),
                ("det", rep.determinant),
            ):
                if got != ref[field]:
                    bad.append(f"{field} {got} != reference {ref[field]}")
        return bad

    @staticmethod
    def _check_zmap(case: Case, e: dict, out) -> list[str]:
        bad = []
        for name, (commutes, _) in out.items():
            if commutes is not True:
                bad.append(f"chain map {name} does not commute")
        step, k = case.step
        if step == "identity":
            hom = e["homology_dims"][k]
            mats = out["id"][1]
            if [m.rows for m in mats] != hom or [m.cols for m in mats] != hom:
                bad.append(f"induced identity shapes differ from homology {hom}")
            for level, m in enumerate(mats):
                if _bit_rows(m) != [1 << i for i in range(m.rows)]:
                    bad.append(f"identity morphism induces a non-identity map at level {level}")
            return bad
        pair = e["pairs"][k]
        rows = {name: [_bit_rows(m) for m in out[name][1]] for name in ("a", "b", "ab")}
        for name, mats in rows.items():
            ranks = [_rank(r) for r in mats]
            if ranks != pair["ranks"][name]:
                bad.append(f"induced ranks of {name} {ranks} != reference {pair['ranks'][name]}")
        for level, (ra, rb, rab) in enumerate(zip(rows["a"], rows["b"], rows["ab"])):
            if _product(rb, ra) != rab:
                bad.append(f"functor law fails at level {level}: H(b) H(a) != H(a then b)")
        return bad
