"""Tests of the benchmark itself.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import import_library  # noqa: E402
from perfbench import cases, run, spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def vc():
    return import_library()


@pytest.fixture(scope="module")
def pool():
    return cases.load_pool()


def test_same_seed_same_digest_other_seed_other_digest(pool):
    for workload in cases.ROUNDS:
        a = cases.schedule_digest(workload, 7, pool)
        assert a == cases.schedule_digest(workload, 7, pool)
        assert a != cases.schedule_digest(workload, 8, pool)


def test_draw_stream_covers_the_pool_evenly(pool):
    stratum, draws = cases.ROUNDS["torus-homology"][0]
    size = len(pool[stratum])
    seen = [c.entry for r in range(size) for c in cases.schedule_round("torus-homology", 3, r, pool)
            if c.stratum == stratum]
    counts = [seen.count(i) for i in range(size)]
    assert set(counts) == {draws}


def test_metric_names_and_limits():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layer == list(run.PER_LAYER)
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = e2e + layer + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(cases.ROUNDS)
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        expected = run.END_TO_END.get(m["name"]) or run.PER_LAYER[m["name"]]
        assert m["unit"] == expected
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"]) <= 0.25


def _attributes(vc):
    """Every attribute of every vandercomplex module and of the wrapped classes."""
    snapshot = {}
    for key, mod in list(sys.modules.items()):
        if key == "vandercomplex" or key.startswith("vandercomplex."):
            for attr, value in list(vars(mod).items()):
                snapshot[(key, attr)] = value
                if isinstance(value, type):
                    for name, member in list(vars(value).items()):
                        snapshot[(key, attr, name)] = member
    return snapshot


def test_traced_run_restores_every_patched_attribute(vc, pool):
    runner = cases.Runner(vc, "zmap-induced", 5, pool)
    before = _attributes(vc)
    untraced, traced, tracer = run.measure_traced(runner, rounds=1)
    after = _attributes(vc)
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert traced.failed == untraced.failed == 0
    calls = tracer.call_counts()
    # internal calls went through the wrappers: chain_map reaches
    # from_triplets, and cohomology_quotients reaches QuotientSpace
    assert calls["gf2.from_triplets"] > 0 and calls["gf2.quotient_space"] > 0
    assert calls[spans.CASE_SPAN] == traced.attempted
    self_total = sum(tracer.self_times().values())
    assert self_total == pytest.approx(tracer.root_seconds(), rel=1e-9)


def test_install_patches_aliases_in_importing_modules(vc):
    tracer = spans.Tracer(vc)
    original = vc.bruhat.build_bruhat
    tracer.install()
    try:
        for mod in (vc.bruhat, vc.cochain, vc.gendet, vc):
            assert mod.build_bruhat is not original
            assert mod.build_bruhat.__wrapped__ is original
    finally:
        tracer.restore()
    assert all(mod.build_bruhat is original for mod in (vc.bruhat, vc.cochain, vc.gendet, vc))


def test_gate_flags_a_wrong_reference(vc, pool):
    stratum = "matrix-homology/n4"
    runner = cases.Runner(vc, "matrix-homology", 1, pool)
    case = cases.Case(stratum, 0)
    out = runner.run(case, {})
    assert runner.check(case, out) == []
    entry = pool[stratum][0]
    saved = entry["ref"]["homology_dims"]
    entry["ref"]["homology_dims"] = [saved[0] + 1, *saved[1:]]
    try:
        assert any("homology_dims" in p for p in runner.check(case, out))
    finally:
        entry["ref"]["homology_dims"] = saved


def test_gate_checks_functor_law_and_ranks(vc, pool):
    stratum = "zmap-induced/n3"
    runner = cases.Runner(vc, "zmap-induced", 1, pool)
    shared = {}
    for step in (("identity", 0), ("identity", 1), ("pair", 0)):
        case = cases.Case(stratum, 0, step)
        assert runner.check(case, runner.run(case, shared)) == []
    pair = pool[stratum][0]["pairs"][0]
    saved = pair["ranks"]["ab"]
    pair["ranks"]["ab"] = [r + 1 for r in saved]
    try:
        case = cases.Case(stratum, 0, ("pair", 0))
        assert any("ranks of ab" in p for p in runner.check(case, runner.run(case, shared)))
    finally:
        pair["ranks"]["ab"] = saved


def test_reach_slice_is_fixed_in_every_round(vc, pool):
    runner = cases.Runner(vc, "torus-homology", 1, pool)
    reach = [c for c in runner.round(0) if c.stratum == "reach"]
    assert len(reach) == len(cases.REACH)
    assert [c.entry for c in reach] == [c.entry for c in runner.round(5) if c.stratum == "reach"]


def test_case_times_are_divided_by_the_host_factor_around_them(monkeypatch):
    ref = run.CALIBRATION_REF_S
    tally = run.Tally()
    # the host runs at reference speed, then twice as slow
    tally.calibrations = [ref] * 20 + [2 * ref] * 20
    tally.timeline = [(0.01, 2), (0.02, 3), (0.02, 35), (0.04, 36), (0.5, 37)]
    tally.verified = [0, 1, 2, 3]
    tally.verified_basis = 100
    assert run.reference_seconds(tally) == pytest.approx([0.01, 0.02, 0.01, 0.02, 0.25])
    metrics = run.end_to_end(tally, [0.5])
    assert metrics["cases_per_s"] == pytest.approx(4 / 0.31)
    assert metrics["basis_per_s"] == pytest.approx(100 / 0.31)
    assert metrics["setup_s"] == 0.5
    monkeypatch.setattr(run, "calibrate", lambda: 2 * ref)
    assert run.setup_seconds(1.0) == pytest.approx(0.5)


def test_torus_product_formula():
    assert cases.torus_product_formula((1, 2, 3)) == 12
    assert cases.torus_product_formula((2, 2)) == 0


def test_harness_import_leaves_library_and_numpy_to_setup():
    code = "import sys; import perfbench.run; print('numpy' in sys.modules, 'vandercomplex' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert proc.stdout.split() == ["False", "False"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "euler-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
