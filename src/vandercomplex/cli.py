"""Command line entry point.

Subcommands: torus and diagram compare a complex's Euler characteristic
against the exact determinant, matrix does the same for the Bruhat-shaped
matrix complex, zmap reports the chain map and induced cohomology maps of
a strip-diagram morphism, and check runs the property suite.

Exit codes: 0 on success with all agreements true, 2 when a determinant
and an Euler characteristic disagree (mathematically impossible, so an
implementation bug), and 1 for input problems and for a standard output
closed before the report was written (as by `| head -1`).
"""

import argparse
import json
import os
import re
import sys
from time import perf_counter

from .checks import run_all
from .cochain import DEFAULT_DIM_BUDGET, build_complex, verify_euler
from .errors import FormatError, SizeError, ValidationError, VanderComplexError
from .gendet import matrix_report, parse_matrix
from .linkdiag import parse_diagram, torus_two_n
from .zndiag import chain_map, induced_map_from, parse_morphism


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"error: {message}\n")


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    """The argparse type of the integer flags: ASCII digits only, since
    int() alone would also take `1_0`, spaces and non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"must be an integer in ASCII digits, got {text!r}")
    return int(text)


def _parse_colors(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each read as `_integer` reads a flag; int()
    raises ValueError past the interpreter's digit limit."""
    try:
        return tuple(map(_integer, text.split(",")))
    except (argparse.ArgumentTypeError, ValueError):
        raise ValidationError(f"--x must be a comma-separated integer list, got {text!r}") from None


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError:
        raise FormatError(f"{path} is not UTF-8 text") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="vandercomplex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, skip_help="dimensions and Euler characteristic only"):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--budget", type=_integer, default=DEFAULT_DIM_BUDGET,
                       help="cap on the total basis elements of a complex whose "
                            "cohomology or chain maps are computed")
        p.add_argument("--skip-homology", action="store_true", help=skip_help)

    p = sub.add_parser("torus", help="two-strand torus closure with n crossings")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--x", required=True, help="comma-separated color vector")
    common(p)

    p = sub.add_parser("diagram", help="diagram from a file in the diagram format")
    p.add_argument("--file", required=True)
    p.add_argument("--x", required=True, help="comma-separated color vector")
    common(p)

    p = sub.add_parser("matrix", help="Bruhat complex of a positive integer matrix")
    p.add_argument("--file", required=True)
    common(p)

    p = sub.add_parser("zmap", help="chain map and induced maps of a morphism file")
    p.add_argument("--file", required=True, help="morphism file")
    p.add_argument("--n", type=_integer, help="use the n-crossing torus closure")
    p.add_argument("--diagram", help="use a diagram file instead of --n")
    common(p, "chain map and commutation check only, no induced cohomology maps")

    p = sub.add_parser("check", help="run the full property suite")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--seed", type=_integer, default=None, help="override the suite's fixed seed")
    return parser


def _emit_report(report, command: str, as_json: bool) -> int:
    """Print a report in full: the interpreter's limit on int-to-str digits
    (Python 3.10.7 and 3.11 on) is lifted while it prints."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _print_report(report, command, as_json)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _print_report(report, command: str, as_json: bool) -> int:
    payload = {"command": command, **report.to_dict()}
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"command:              {command}")
        print(f"n:                    {report.n}")
        if report.x is not None:
            print(f"x:                    {list(report.x)}")
        if report.s is not None:
            print(f"s:                    {list(report.s)}")
        print(f"cochain dims:         {report.cochain_dims}")
        if report.homology_dims is not None:
            print(f"homology dims:        {report.homology_dims}")
            print(f"euler (homology):     {report.euler_from_homology}")
        print(f"euler (cochain):      {report.euler_characteristic}")
        print(f"determinant:          {report.determinant}")
        print(f"agree:                {'yes' if report.agree else 'NO'}")
        print(f"elapsed_ms:           {report.elapsed_ms:.1f}")
    return 0 if report.agree else 2


def _cmd_torus(args) -> int:
    x = _parse_colors(args.x)
    if len(x) != args.n:
        raise ValidationError(f"--x has {len(x)} entries but --n is {args.n}")
    report = verify_euler(
        torus_two_n(args.n), x,
        skip_homology=args.skip_homology, budget=args.budget,
    )
    return _emit_report(report, "torus", args.json)


def _cmd_diagram(args) -> int:
    d = parse_diagram(_read(args.file))
    x = _parse_colors(args.x)
    if len(x) != d.n:
        raise ValidationError(f"--x has {len(x)} entries but the diagram has {d.n} crossings")
    report = verify_euler(d, x, skip_homology=args.skip_homology, budget=args.budget)
    return _emit_report(report, "diagram", args.json)


def _cmd_matrix(args) -> int:
    m = parse_matrix(_read(args.file))
    report = matrix_report(m, skip_homology=args.skip_homology, budget=args.budget)
    return _emit_report(report, "matrix", args.json)


def _cmd_zmap(args) -> int:
    if (args.n is None) == (args.diagram is None):
        raise ValidationError("zmap needs exactly one of --n or --diagram")
    d = torus_two_n(args.n) if args.n is not None else parse_diagram(_read(args.diagram))
    morphism = parse_morphism(_read(args.file))
    t0 = perf_counter()
    cx = build_complex(d, morphism.source, budget=args.budget)
    cy = cx if morphism.target == morphism.source else build_complex(d, morphism.target, budget=args.budget)
    cm = chain_map(d, morphism, source_complex=cx, target_complex=cy)
    commutes = cm.commutes()
    induced = None
    if commutes and not args.skip_homology:
        induced = induced_map_from(cm)
    elapsed = (perf_counter() - t0) * 1000.0
    payload = {
        "command": "zmap",
        "n": d.n,
        "source": list(morphism.source),
        "target": list(morphism.target),
        "arcs": [list(a) for a in morphism.arcs],
        "dots": list(morphism.dots),
        "commutes": commutes,
        "block_shapes": [[b.rows, b.cols] for b in cm.blocks],
        "induced_dims": [[m.rows, m.cols] for m in induced] if induced is not None else None,
        "induced_matrices": [m.to_rows() for m in induced] if induced is not None else None,
        "elapsed_ms": elapsed,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("command:              zmap")
        print(f"morphism:             {list(morphism.source)} -> {list(morphism.target)}")
        print(f"arcs:                 {[list(a) for a in morphism.arcs]}")
        print(f"dots:                 {list(morphism.dots)}")
        print(f"chain map commutes:   {'yes' if commutes else 'NO'}")
        print(f"block shapes:         {payload['block_shapes']}")
        if induced is not None:
            print(f"induced map shapes:   {payload['induced_dims']}")
        print(f"elapsed_ms:           {elapsed:.1f}")
    return 0 if commutes else 2


def _cmd_check(args) -> int:
    results = run_all() if args.seed is None else run_all(args.seed)
    if args.json:
        print(json.dumps(
            [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results], indent=2,
        ))
    else:
        for r in results:
            print(f"{'ok  ' if r.ok else 'FAIL'}  {r.name:<20} {r.detail}")
    return 0 if all(r.ok for r in results) else 2


_COMMANDS = {
    "torus": _cmd_torus,
    "diagram": _cmd_diagram,
    "matrix": _cmd_matrix,
    "zmap": _cmd_zmap,
    "check": _cmd_check,
}


def _drop_stdout() -> None:
    """Point the file descriptor of standard output at the null device, so
    the interpreter's flush at exit finds no closed pipe; a stream with no
    descriptor is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # io.UnsupportedOperation, or a closed stream
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("n", "budget"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ValidationError(f"--{flag} must be a positive integer, got {value}")
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of standard output is gone: there is no one to tell
        _drop_stdout()
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except (ValidationError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VanderComplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
