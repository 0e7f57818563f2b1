"""Span and count wrappers for the traced benchmark run.

Each layer boundary is a public function looked up by name in the module
that calls it (``optimize.grid_minimize`` is the grid scan as the pipeline
sees it).  While installed, a wrapper records one span per call: its name,
start, end and parent span.  A span belongs to the layer (module) that
defines the wrapped function; its self time is its duration minus the time
covered by its child spans, so the self times of all spans under a root add
up to the root's duration.  Spans stay in memory and are folded into
per-layer totals after each request.

Nothing here is imported by the program: an untraced run calls the
pristine module attributes, which :func:`assert_pristine` checks.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter

MARKER = "_perfbench_span"

#: (caller module, attribute).  The calls resolve the name in the caller's
#: module namespace at call time, so replacing the attribute there traces
#: exactly the calls that module makes.
TARGETS = (
    ("states", "validate"),
    ("optimize", "quantum_discord"),
    ("optimize", "triple_from_matrix"),
    ("optimize", "reduced_states"),
    ("optimize", "canonicalize"),
    ("optimize", "von_neumann_entropy"),
    ("optimize", "classify"),
    ("optimize", "kernel_class_min_entropy"),
    ("optimize", "grid_minimize"),
    ("optimize", "refine_minimum"),
    ("optimize", "conditional_entropy_batch"),
    ("optimize", "conditional_entropy"),
    ("optimize", "theorem1_bounds"),
    ("bounds", "triple_from_matrix"),
    ("bounds", "reduced_states"),
    ("bounds", "von_neumann_entropy"),
    ("bounds", "binary_entropy"),
    ("measurement", "direction_from_angles"),
    ("cli", "main"),
    ("cli", "quantum_discord"),
    ("cli", "stationary_vector"),
    ("cli", "conditional_entropy"),
    ("cli", "conditional_entropy_direct"),
    ("cli", "random_state"),
    ("cli", "triple_from_matrix"),
    ("cli", "matrix_from_triple"),
    ("cli", "bell_diagonal_state"),
    ("cli", "bell_diagonal_discord"),
    ("cli", "kernel_class_min_entropy"),
    ("cli", "sample_bell_diagonal"),
    ("cli", "sample_kernel_class"),
)

LAYERS = ("states", "entropy", "measurement", "closed_forms", "optimize", "bounds", "cli")

#: a report counts as certified when its optimum is non-degenerate with a
#: stationarity residual at most the default refinement tolerance
CERTIFIED_RESIDUAL = 1e-9


class Span:
    __slots__ = ("name", "func", "layer", "parent", "start", "end", "result")

    def __init__(self, name: str, func: str, layer: str, parent: int):
        self.name = name
        self.func = func
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.result = None


class Tracer:
    """Records spans of one request at a time; :meth:`drain` hands them over."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.skipped: list[str] = []

    def _wrap(self, name: str, fn):
        func = fn.__name__
        layer = fn.__module__.rsplit(".", 1)[-1]
        keep_result = func == "quantum_discord"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, func, layer, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if keep_result:
                span.result = result
            elif func == "conditional_entropy_batch":
                span.result = len(result)  # one value per direction
            return result

        setattr(wrapper, MARKER, name)
        return wrapper

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every target for the duration of the block, then restore it.

        Targets missing from the program (a refactor moved the call) are
        skipped and listed in ``skipped``.
        """
        saved = []
        try:
            for ns, attr in TARGETS:
                mod = modules[ns]
                if not hasattr(mod, attr):
                    if f"{ns}.{attr}" not in self.skipped:
                        self.skipped.append(f"{ns}.{attr}")
                    continue
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(f"{ns}.{attr}", original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def drain(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("drain() called inside an open span")
        out = list(self.spans)
        self.spans.clear()
        return out


def assert_pristine(modules: dict) -> None:
    """Raise unless every target attribute is the program's own function."""
    for ns, attr in TARGETS:
        fn = getattr(modules[ns], attr, None)
        if fn is not None and hasattr(fn, MARKER):
            raise RuntimeError(f"{ns}.{attr} is still wrapped in an untraced run")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


class LayerTotals:
    """Per-layer counts and times accumulated over traced requests."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = {}
        self.incl_s: dict[str, float] = {}
        self.batch_dirs = 0
        self.refine_evals = 0
        self.reports = 0
        self.fast_path = 0
        self.certified = 0
        self.degenerate = 0

    def fold(self, spans: list[Span]) -> None:
        in_refine = [False] * len(spans)
        for i, (s, own) in enumerate(zip(spans, self_times(spans))):
            dur = s.end - s.start
            self.self_s[s.layer] = self.self_s.get(s.layer, 0.0) + own
            self.calls[s.func] = self.calls.get(s.func, 0) + 1
            self.incl_s[s.func] = self.incl_s.get(s.func, 0.0) + dur
            in_refine[i] = s.func == "refine_minimum" or (s.parent >= 0 and in_refine[s.parent])
            if s.func == "conditional_entropy" and in_refine[i]:
                self.refine_evals += 1
            if s.func == "conditional_entropy_batch":
                self.batch_dirs += s.result
            if s.func == "quantum_discord" and s.result is not None:
                self._count_report(s.result)

    def _count_report(self, report) -> None:
        self.reports += 1
        self.fast_path += report.method == "closed-form"
        diag = report.diagnostics
        if diag.degenerate:
            self.degenerate += 1
        elif diag.residual is not None and diag.residual <= CERTIFIED_RESIDUAL:
            self.certified += 1

    def per_state(self, states: int, untraced_s: float, traced_s: float) -> dict[str, float]:
        """The per-layer metrics, each divided by the number of states traced."""
        ms = 1e3 / states

        def calls(func: str) -> float:
            return self.calls.get(func, 0) / states

        def incl(func: str) -> float:
            return self.incl_s.get(func, 0.0) * ms

        def ratio(count: int) -> float:  # of quantum_discord reports; 0 when none
            return count / self.reports if self.reports else 0.0

        batch_s = self.incl_s.get("conditional_entropy_batch", 0.0)
        return {
            "states.validate_calls": calls("validate"),
            "states.ms": self.self_s["states"] * ms,
            "entropy.vn_calls": calls("von_neumann_entropy"),
            "entropy.ms": self.self_s["entropy"] * ms,
            "measurement.batch_dirs": self.batch_dirs / states,
            "measurement.batch_ms": batch_s * ms,
            "measurement.batch_ns_per_dir": batch_s * 1e9 / self.batch_dirs if self.batch_dirs else 0.0,
            "measurement.scalar_calls": calls("conditional_entropy"),
            "measurement.scalar_ms": incl("conditional_entropy"),
            "measurement.direct_calls": calls("conditional_entropy_direct"),
            "measurement.direct_ms": incl("conditional_entropy_direct"),
            "measurement.ms": self.self_s["measurement"] * ms,
            "closed_forms.ms": self.self_s["closed_forms"] * ms,
            "closed_forms.fast_path_ratio": ratio(self.fast_path),
            "optimize.grid_ms": incl("grid_minimize"),
            "optimize.refine_ms": incl("refine_minimum"),
            "optimize.refine_evals": self.refine_evals / states,
            "optimize.certified_ratio": ratio(self.certified),
            "optimize.degenerate_ratio": ratio(self.degenerate),
            "optimize.ms": self.self_s["optimize"] * ms,
            "bounds.calls": calls("theorem1_bounds"),
            "bounds.theorem1_ms": incl("theorem1_bounds"),
            "bounds.ms": self.self_s["bounds"] * ms,
            "cli.self_ms": self.self_s["cli"] * ms,
            "trace.self_sum_ms": sum(self.self_s.values()) * ms,
            "trace.untraced_ms": untraced_s * ms,
            "trace.overhead_ms": (traced_s - untraced_s) * ms,
        }


def program_modules() -> dict:
    """The program's modules by layer name (the program must be imported)."""
    return {name: sys.modules[f"qdiscord.{name}"] for name in LAYERS}
