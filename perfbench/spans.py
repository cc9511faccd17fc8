"""Opt-in tracer: wraps the library's layer functions from outside.

`Tracer.install()` replaces every public function of the measured modules,
and the public methods of their working classes, with a wrapper that
records one span per call: name, case id, start, end and parent span.  A
wrapped function is patched under every name that any `vandercomplex`
module binds it to, so calls between modules are caught as well.
`Tracer.restore()` puts every original object back.

Spans live in typed arrays in memory and are written out once, by
`write()`.  Self time is a span's duration minus the time its child spans
cover; children of one span never overlap, because everything runs on one
thread, so that is the duration minus the sum of the children's durations.

Per-element accessors (bit get/set, single rows and columns, one quotient
representative) and the leaf predicates `validate_perm`, `inversions` and
`validate_colors` are not wrapped: a span on each would cost more than the
work it measures, so their time stays in their caller's self time.
"""

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from math import factorial
from time import perf_counter

MEASURED_MODULES = ("bruhat", "linkdiag", "cochain", "gf2", "gendet", "zndiag")

# Classes whose public methods are wrapped; other classes are plain values.
WORKING_CLASSES = {
    "bruhat": ("BruhatPoset",),
    "cochain": ("CochainComplex",),
    "gf2": ("GF2Matrix", "QuotientSpace"),
    "zndiag": ("ChainMap",),
}

# Dunder methods that carry real work, under the span name they report as.
DUNDER_NAMES = {
    ("GF2Matrix", "__matmul__"): "matmul",
    ("QuotientSpace", "__init__"): "quotient_space",
}

NOT_WRAPPED = {
    "bruhat.validate_perm",
    "bruhat.inversions",
    "cochain.validate_colors",
    "gf2.get",
    "gf2.row",
    "gf2.column",
    "gf2.copy",
    "gf2.is_zero",
    "gf2.to_rows",
    "gf2.representative",
}

CASE_SPAN = "harness.case"


def _nwords(cols: int) -> int:
    return (cols + 63) >> 6


def _nnz(matrix) -> int:
    """Set bits of a packed GF2Matrix."""
    import numpy as np

    return int(np.bitwise_count(matrix.words).sum())


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = [CASE_SPAN]
        self._name_index = {CASE_SPAN: 0}
        self.span_name = array("i")
        self.span_case = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.case_id = -1
        self.active = False
        self.counts = {
            "gf2.eliminated_bytes": 0,
            "bruhat.perms": 0,
            "cochain.basis_elems": 0,
            "cochain.diff_nnz": 0,
            "cochain.packed_bytes": 0,
        }
        self._patches: list[tuple[object, str, object]] = []
        self._before = self._before_hooks()
        self._after = self._after_hooks()

    # -- patching -------------------------------------------------------

    def targets(self):
        """(span name, owner, attribute, original, kind) for every wrapped callable."""
        out = []
        for short in MEASURED_MODULES:
            mod = sys.modules[f"{self.package.__name__}.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or f"{short}.{attr}" in NOT_WRAPPED:
                    continue
                out.append((f"{short}.{attr}", mod, attr, obj, "function"))
            for cls_name in WORKING_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in vars(cls).items():
                    if attr.startswith("_"):
                        label = DUNDER_NAMES.get((cls_name, attr))
                        if label is None:
                            continue
                    else:
                        label = attr
                    name = f"{short}.{label}"
                    if name in NOT_WRAPPED:
                        continue
                    if isinstance(obj, (classmethod, staticmethod)):
                        out.append((name, cls, attr, obj, type(obj).__name__))
                    elif inspect.isfunction(obj):
                        out.append((name, cls, attr, obj, "method"))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == self.package.__name__ or key.startswith(self.package.__name__ + ".")
        ]
        for name, owner, attr, original, kind in self.targets():
            if kind in ("classmethod", "staticmethod"):
                wrapped = type(original)(self._wrap(name, original.__func__))
                self._patch(owner, attr, wrapped)
            elif kind == "method":
                self._patch(owner, attr, self._wrap(name, original))
            else:
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, alias, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _index(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, name, fn):
        idx = self._index(name)
        before = self._before.get(name)
        after = self._after.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            sid = tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- computed counts ----------------------------------------------

    def _before_hooks(self):
        counts = self.counts

        def eliminated(args):
            m = args[0]
            counts["gf2.eliminated_bytes"] += m.rows * _nwords(m.cols) * 8

        def perms(args):
            counts["bruhat.perms"] += factorial(args[0]) if args and args[0] > 0 else 0

        return {"gf2.rank": eliminated, "gf2.rref": eliminated, "bruhat.build_bruhat": perms}

    def _after_hooks(self):
        counts = self.counts

        def complex_stats(args, cx):
            counts["cochain.basis_elems"] += sum(cx.level_dims)
            for d in cx.differentials:
                counts["cochain.diff_nnz"] += _nnz(d)
                counts["cochain.packed_bytes"] += d.rows * _nwords(d.cols) * 8

        return {"cochain.build_complex": complex_stats, "gendet.build_matrix_complex": complex_stats}

    # -- spans ----------------------------------------------------------

    def _open(self, idx: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(idx)
        self.span_case.append(self.case_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def case(self, case_id: int):
        """Record the library calls of one case under a root span."""
        self.case_id = case_id
        self.active = True
        sid = self._open(0)
        try:
            yield
        finally:
            self._close(sid)
            self.active = False
            self.case_id = -1

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            own = self.span_end[i] - self.span_start[i] - child[i]
            out[name] = out.get(name, 0.0) + own
        return out

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for idx in self.span_name:
            name = self.names[idx]
            out[name] = out.get(name, 0) + 1
        return out

    def root_seconds(self) -> float:
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] < 0
        )

    def write(self, path) -> None:
        """Write every span, column by column, to a compressed .npz file."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            case=np.frombuffer(self.span_case, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
