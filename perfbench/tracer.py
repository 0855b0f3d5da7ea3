"""Spans around the public functions of the `critcurves` modules, recorded
from the benchmark's own files; the package source is not touched.

`Tracer.install` wraps every public function defined in a traced module
and rebinds the wrapper under every name that binds the original in any
`critcurves` module, because modules import each other's functions by
name (`points` and `chains` call `is_critical` and
`brute_force_critical_word` through their own globals).  It also counts
`Fraction` constructions.  `restore` puts every original back.

A span is `[op_id, parent, name, start, end, extra]`; `parent` is the
index of the enclosing span in the same op's list, and index 0 is the
op itself.  Spans are kept in memory for one op and folded into totals
when the op ends, outside its timed region.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from fractions import Fraction

MODULES = ("exact", "orbit", "chains", "points", "triples", "render", "verify", "net")
ROOT = "op"


def _decomposition_letters(dec) -> int:
    return (sum(len(fp.boundary_word) + len(fp.critical_word) for fp in dec.farey_points)
            + sum(len(curve.word) for curve in dec.curves))


def _output_bytes(result) -> int:
    if isinstance(result, str):
        return len(result.encode())
    return len(json.dumps(result, indent=2, sort_keys=True).encode())


# Per-call sizes folded from a span's result: name -> (stat, function).
MEASURES = {
    "exact.farey_sequence": ("members", len),
    "orbit.code_orbit": ("letters", len),
    "chains.decompose": ("letters", _decomposition_letters),
    "render.render_net": ("bytes", _output_bytes),
    "render.render_decomposition": ("bytes", _output_bytes),
    "render.render_pencils": ("bytes", _output_bytes),
    "render.render_triples": ("bytes", _output_bytes),
    "render.segments_csv": ("bytes", _output_bytes),
    "render.decomposition_document": ("bytes", _output_bytes),
}
# Calls whose arguments are remembered, to count repeats within an op.
KEYED = frozenset({"orbit.is_critical", "points.point_context"})
# Time spent in orbit spans below these spans is reported as oracle time.
ORACLE_CALLERS = frozenset({"chains.decompose"})


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        parent = span[1]
        if parent is not None:
            covered[parent] += span[4] - span[3]
    return [span[4] - span[3] - covered[k] for k, span in enumerate(spans)]


class Totals:
    """Span statistics summed over the ops of a traced run."""

    def __init__(self) -> None:
        self.ops = 0
        self.wall_s = 0.0
        self.fractions = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.measured: dict[str, int] = {}
        self.repeats: dict[str, int] = {}
        self.oracle_s: dict[str, float] = {}

    def add_op(self, spans: list, fractions: int) -> None:
        self.ops += 1
        self.wall_s += spans[0][4] - spans[0][3]
        self.fractions += fractions
        seen: set = set()
        below: list[str | None] = []     # nearest oracle-calling ancestor
        for span, own in zip(spans, self_times(spans)):
            name, parent, extra = span[2], span[1], span[5]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            caller = below[parent] if parent is not None else None
            below.append(name if name in ORACLE_CALLERS else caller)
            if name in MEASURES:
                if extra is not None:        # None when the call raised
                    self.measured[name] = self.measured.get(name, 0) + MEASURES[name][1](extra)
            elif name in KEYED:
                key = (name, extra)
                if key in seen:
                    self.repeats[name] = self.repeats.get(name, 0) + 1
                seen.add(key)
            if (caller is not None and name.startswith("orbit.")
                    and not spans[parent][2].startswith("orbit.")):
                self.oracle_s[caller] = self.oracle_s.get(caller, 0.0) + span[4] - span[3]


class Tracer:
    """Install with `with Tracer(package):`; bracket each op with
    `begin_op` and `end_op`.  Outside an op the wrappers only forward."""

    def __init__(self, package) -> None:
        self.package = package
        self.totals = Totals()
        self.spans: list | None = None
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._fractions = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _targets(self) -> dict:
        originals = {}
        for short in MODULES:
            module = importlib.import_module(f"{self.package.__name__}.{short}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    originals[obj] = f"{short}.{attr}"
        return originals

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = self._targets()
        wrappers = {func: self._wrap(name, func) for func, name in originals.items()}
        prefix = self.package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package.__name__ and not mod_name.startswith(prefix):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        original_new = Fraction.__dict__["__new__"]
        self._patches.append((Fraction, "__new__", original_new))
        construct = original_new.__func__
        tracer = self

        def counting_new(cls, *args, **kwargs):
            tracer._fractions += 1
            return construct(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name: str, func):
        tracer = self
        clock = time.perf_counter
        keyed = name in KEYED
        measured = name in MEASURES

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            if spans is None:
                return func(*args, **kwargs)
            stack = tracer._stack
            span = [tracer.op_id, stack[-1], name, 0.0, 0.0, args if keyed else None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if measured:
                span[5] = result
            return result

        return wrapper

    # -- ops --------------------------------------------------------------

    def begin_op(self, op_id: int, start: float) -> None:
        self.op_id = op_id
        self.spans = [[op_id, None, ROOT, start, 0.0, None]]
        self._stack = [0]
        self._fractions = 0

    def end_op(self, end: float) -> None:
        spans, self.spans = self.spans, None
        spans[0][4] = end
        self.totals.add_op(spans, self._fractions)
        self.op_id = None
