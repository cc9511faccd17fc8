"""Benchmark entry point.

    python3 perfbench/run.py --workload torus-homology --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Runs one workload closed loop, one case at a time, in this process, on
the library under `src/` of the checkout that holds this file.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it carries the
provenance.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer metrics of a separate traced run.  A human-readable table goes
to standard error.  Exit status: 0 when every answer checked out, 1 when
any case failed its checks, 2 when the benchmark could not run at all.

End-to-end times are in reference seconds: each case's time is divided by
its host factor, the median time of a fixed calibration loop timed between
the cases around it, over CALIBRATION_REF_S.  The shared hosts this runs
on change speed by up to 2x within minutes, and a wall time moves with
them.  The loop does not call the library, so a change to the library
moves the reported times as it moves the wall times, while a change of
host speed mostly cancels out.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import permutations
from pathlib import Path
from time import perf_counter

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, import_library  # noqa: E402
from perfbench.cases import ROUNDS, Runner, load_pool, schedule_digest  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

SETUP_SAMPLES = 5

# The calibration loop runs CALIBRATION_STEPS steps in CALIBRATION_REF_S
# on the reference host; a run whose loop takes twice as long reports its
# wall times halved.
CALIBRATION_STEPS = 30_000
CALIBRATION_REF_S = 0.004
# Case time between two calibration samples; a case is scaled by the
# median of the calibrations within CALIBRATION_WINDOW samples of it, about
# half a second of case time either side.  SETUP_CALIBRATIONS are taken
# right after a set-up to scale it.
CALIBRATE_EVERY_S = 0.1
CALIBRATION_WINDOW = 5
SETUP_CALIBRATIONS = 20

# An untraced run goes on past --seconds, up to twice as long, until it
# has this many verified cases, so that at least ten lie above case_ms.p90.
MIN_SAMPLES = 100

# Rounds per second of each workload at the seed commit (2-core Xeon,
# Python 3.11, numpy 2.4).  A traced run replays a fixed number of rounds,
# derived from --seconds with these constants and never from the clock, so
# its counts repeat exactly for a given seed and duration.
NOMINAL_ROUNDS_PER_S = {
    "torus-homology": 0.6,
    "euler-scan": 10.0,
    "matrix-homology": 1.05,
    "zmap-induced": 2.45,
}

END_TO_END = {
    "cases_per_s": "1/s",
    "basis_per_s": "1/s",
    "case_ms.p50": "ms",
    "case_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Layer self times reported by name; every other wrapped function's self
# time is summed into other.self_s.
LAYER_SELF = (
    "gf2.rank",
    "gf2.compose_is_zero",
    "gf2.from_triplets",
    "gf2.matmul",
    "gf2.nullspace_basis",
    "gf2.columns",
    "gf2.quotient_space",
    "gf2.coordinates",
    "gf2.mul_vector",
    "cochain.build_complex",
    "cochain.cochain_dims",
    "cochain.verify_d_squared",
    "cochain.homology",
    "cochain.verify_euler",
    "gendet.build_matrix_complex",
    "gendet.matrix_dims",
    "gendet.det_exact",
    "gendet.matrix_report",
    "bruhat.build_bruhat",
    "bruhat.covers",
    "linkdiag.s_vector",
    "zndiag.chain_map",
    "zndiag.commutes",
    "zndiag.cohomology_quotients",
    "zndiag.induced_map_from",
)

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in LAYER_SELF},
    "other.self_s": "s",
    "harness.self_s": "s",
    "gf2.rank.calls": "count",
    "gf2.eliminated_bytes": "B",
    "bruhat.covers.calls": "count",
    "bruhat.covers.calls_per_perm": "ratio",
    "bruhat.build_bruhat.calls": "count",
    "cochain.basis_elems": "count",
    "cochain.diff_nnz": "count",
    "cochain.packed_bytes": "B",
    "cochain.nnz_density": "ratio",
    "zndiag.quotient_reuse": "ratio",
    "failed_frac": "ratio",
    "reach.refused": "count",
    "trace.wall_s": "s",
    "trace.span_s": "s",
    "trace.remainder_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

# Per-layer metrics derived from array shapes or bit counts rather than
# from a clock.
COMPUTED = (
    "gf2.eliminated_bytes",
    "cochain.basis_elems",
    "cochain.diff_nnz",
    "cochain.packed_bytes",
    "cochain.nnz_density",
)


def calibrate() -> float:
    """Wall time of a fixed interpreter loop that never calls the library.

    Half of it is integer additions, half building tuples and looking
    them up in a dict, as the library's Python code does with
    permutations.  Either half alone followed the host's fast and slow
    spells less closely, and so did a numpy sweep on every workload but
    the numpy-heavy torus-homology (see perfbench/README.md).
    """
    t0 = perf_counter()
    acc = 0
    for k in range(CALIBRATION_STEPS):
        acc += k
    perms = list(permutations(range(6)))
    index = {p: i for i, p in enumerate(perms)}
    for p in perms:
        for i in range(5):
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            acc += index[tuple(q)]
    return perf_counter() - t0


def host_factor(calibrations: list[float]) -> float:
    """Host slowness against the reference host: 2.0 means twice as slow."""
    return statistics.median(calibrations) / CALIBRATION_REF_S


class Tally:
    """Outcome of a measured stretch of rounds."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.case_seconds = 0.0
        self.wall_seconds = 0.0
        # (seconds, index of the latest calibration) of every case, and
        # the positions of the verified ones in it
        self.timeline: list[tuple[float, int]] = []
        self.verified: list[int] = []
        self.verified_basis = 0
        self.problems: list[str] = []
        self.calibrations: list[float] = []
        self.calibrated_at = float("-inf")


def setup(workload: str, seed: int):
    """Import, decode the pool, draw the schedule, run one warm-up case.

    The harness modules import neither numpy nor the library when they
    load, so the timed import below pays for both, as a user's would.
    """
    t0 = perf_counter()
    vc = import_library()
    runner = Runner(vc, workload, seed, load_pool())
    digest = schedule_digest(workload, seed, runner.pool)
    runner.run(runner.round(0)[0], {})  # the timed rounds run and check it again
    return runner, digest, perf_counter() - t0


def measure_round(runner: Runner, r: int, tally: Tally, tracer=None, calibrated=False) -> None:
    """Run round r one case at a time; only the library calls are timed.

    If `calibrated`, the calibration loop runs between cases, outside the
    timer, after every CALIBRATE_EVERY_S of case time.
    """
    from vandercomplex.errors import SizeError

    start = perf_counter()
    shared: dict = {}
    for case in runner.round(r):
        if calibrated and tally.case_seconds - tally.calibrated_at >= CALIBRATE_EVERY_S:
            tally.calibrations.append(calibrate())
            tally.calibrated_at = tally.case_seconds
        case_id = tally.attempted
        tally.attempted += 1
        error = out = None
        t0 = perf_counter()
        try:
            if tracer is None:
                out = runner.run(case, shared)
            else:
                with tracer.case(case_id):
                    out = runner.run(case, shared)
        except Exception as exc:  # a crash fails the case and the run goes on
            error = exc
        dt = perf_counter() - t0
        tally.case_seconds += dt
        tally.timeline.append((dt, len(tally.calibrations) - 1))
        if error is not None:
            if case.stratum == "reach" and isinstance(error, SizeError):
                tally.refused += 1
            else:
                tally.failed += 1
                tally.problems.append(f"{case}: {''.join(traceback.format_exception(error))}")
            continue
        problems = runner.check(case, out)
        if problems:
            tally.failed += 1
            tally.problems.extend(f"{case}: {p}" for p in problems)
            continue
        tally.verified.append(len(tally.timeline) - 1)
        tally.verified_basis += runner.basis(case)
    tally.rounds += 1
    tally.wall_seconds += perf_counter() - start


def measure(runner: Runner, seconds: float) -> Tally:
    """Closed loop: whole rounds for `seconds` of case time, longer if samples are short."""
    tally = Tally()
    while tally.case_seconds < seconds or (
        len(tally.verified) < MIN_SAMPLES and tally.case_seconds < 2 * seconds
    ):
        measure_round(runner, tally.rounds, tally, calibrated=True)
    tally.calibrations.append(calibrate())
    return tally


def measure_traced(runner: Runner, rounds: int) -> tuple[Tally, Tally, Tracer]:
    """Each round once untraced and once traced, alternating which goes first."""
    untraced, traced = Tally(), Tally()
    tracer = Tracer(runner.vc)
    for r in range(rounds):
        for use_tracer in (r % 2 == 1, r % 2 == 0):
            if not use_tracer:
                measure_round(runner, r, untraced)
                continue
            tracer.install()
            try:
                measure_round(runner, r, traced, tracer)
            finally:
                tracer.restore()
    return untraced, traced, tracer


def setup_seconds(own: float) -> float:
    """A set-up time in reference seconds, scaled by calibrations taken right after it."""
    return own / host_factor([calibrate() for _ in range(SETUP_CALIBRATIONS)])


def setup_samples(args, own: float) -> list[float]:
    """This process's set-up time plus that of fresh processes doing the same.

    Every sample is in reference seconds.
    """
    samples = [own]
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def reference_seconds(tally: Tally) -> list[float]:
    """Each case's time divided by the host factor of the calibrations around it."""
    c, w = tally.calibrations, CALIBRATION_WINDOW
    return [dt / host_factor(c[max(0, j - w) : j + w + 1]) for dt, j in tally.timeline]


def end_to_end(tally: Tally, setups: list[float]) -> dict:
    """The end-to-end metrics, in reference seconds."""
    scaled = reference_seconds(tally)
    seconds = sum(scaled)
    ms = [1000.0 * scaled[i] for i in tally.verified]
    p = statistics.quantiles(ms, n=10) if len(ms) > 1 else [0.0] * 9
    return {
        "cases_per_s": len(ms) / seconds,
        "basis_per_s": tally.verified_basis / seconds,
        "case_ms.p50": p[4],
        "case_ms.p90": p[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }


def per_layer(tracer: Tracer, traced: Tally, untraced: Tally) -> dict:
    self_s = tracer.self_times()
    calls = tracer.call_counts()
    counts = tracer.counts
    span_s = tracer.root_seconds()
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in LAYER_SELF}
    out["harness.self_s"] = self_s.get("harness.case", 0.0)
    out["other.self_s"] = sum(
        v for k, v in self_s.items() if k not in LAYER_SELF and k != "harness.case"
    )
    out["gf2.rank.calls"] = calls.get("gf2.rank", 0)
    out["gf2.eliminated_bytes"] = counts["gf2.eliminated_bytes"]
    out["bruhat.covers.calls"] = calls.get("bruhat.covers", 0)
    out["bruhat.covers.calls_per_perm"] = (
        calls.get("bruhat.covers", 0) / counts["bruhat.perms"] if counts["bruhat.perms"] else 0.0
    )
    out["bruhat.build_bruhat.calls"] = calls.get("bruhat.build_bruhat", 0)
    out["cochain.basis_elems"] = counts["cochain.basis_elems"]
    out["cochain.diff_nnz"] = counts["cochain.diff_nnz"]
    out["cochain.packed_bytes"] = counts["cochain.packed_bytes"]
    out["cochain.nnz_density"] = (
        counts["cochain.diff_nnz"] / (8 * counts["cochain.packed_bytes"])
        if counts["cochain.packed_bytes"]
        else 0.0
    )
    quotient_builds = calls.get("zndiag.cohomology_quotients", 0)
    out["zndiag.quotient_reuse"] = (
        calls.get("zndiag.induced_map_from", 0) / quotient_builds if quotient_builds else 0.0
    )
    out["failed_frac"] = (traced.failed + traced.refused) / traced.attempted
    out["reach.refused"] = traced.refused
    out["trace.wall_s"] = traced.wall_seconds
    out["trace.span_s"] = span_s
    out["trace.remainder_s"] = traced.wall_seconds - span_s
    out["trace.untraced_s"] = untraced.case_seconds
    out["trace.overhead_s"] = traced.case_seconds - untraced.case_seconds
    out["trace.overhead_frac"] = out["trace.overhead_s"] / untraced.case_seconds
    return out


def provenance(args, digest: str, tally: Tally, extra: dict) -> dict:
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "provenance": {
            "commit": commit or "unknown (not a git checkout)",
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu,
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "schedule_sha256": digest,
        "rounds": tally.rounds,
        "attempted": tally.attempted,
        "verified": len(tally.verified),
        "refused": tally.refused,
        "failed": tally.failed,
        "computed": list(COMPUTED) if args.trace else [],
        **extra,
    }


def report(args, digest: str, tally: Tally, metrics: dict, units: dict, extra: dict) -> int:
    for line in tally.problems:
        print(f"FAILED {line}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    print(f"{args.workload} seed={args.seed} trace={args.trace}", file=sys.stderr)
    for name, value in metrics.items():
        mark = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:<{width}}  {value:>16.6g} {units[name]}{mark}", file=sys.stderr)
    print(json.dumps(provenance(args, digest, tally, extra)))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


def run_one(args) -> int:
    runner, digest, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_seconds(own_setup)}))
        return 0
    if not args.trace:
        setups = setup_samples(args, setup_seconds(own_setup))
        tally = measure(runner, args.seconds)
        extra = {
            "setup_samples_s": setups,
            "host_factor": host_factor(tally.calibrations),
            "calibrations": len(tally.calibrations),
        }
        return report(args, digest, tally, end_to_end(tally, setups), END_TO_END, extra)
    rounds = max(1, round(NOMINAL_ROUNDS_PER_S[args.workload] * args.seconds / 2))
    untraced, traced, tracer = measure_traced(runner, rounds)
    spans_path = ROOT / "perfbench" / "results" / f"spans-{args.workload}.npz"
    tracer.write(spans_path)
    traced.problems += untraced.problems
    traced.failed += untraced.failed
    extra = {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.span_start)}
    return report(args, digest, traced, per_layer(tracer, traced, untraced), PER_LAYER, extra)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for workload in ROUNDS:
        for trace in (0, 1):
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                workload,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                status = max(status, proc.returncode or 1)
                continue
            result = json.loads(lines[-1])
            print(json.dumps({"workload": workload, "trace": trace, **result}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*ROUNDS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except ImportError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
