"""Spans and counters around the public functions of each midspec layer.

`instrumented` rebinds every public function of quasipoly, spectral, bounds,
sim and cli to a recording wrapper, in its own module and in every other
midspec module that imported it by name, so that nested calls (find_roots
inside certify_dominance, normalize inside spectral) are caught too.  A few
methods that carry the hot work are wrapped as well: Quasipolynomial
evaluation and Trajectory CSV export.  Spans live in memory and are written
out once, by the caller, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

MODULES = ("quasipoly", "spectral", "bounds", "sim", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int
    nested: bool  # an enclosing span has the same name
    error: str | None = None


class Tracer:
    """Records spans and counters; `invocation` tags spans with the CLI call
    that caused them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.invocation = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        """fn recorded as a span; after(result, args) may update counters."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = any(spans[i].name == name for i in stack)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.invocation, nested)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def count(self, name, fn, amount=lambda args: 1):
        """fn counted without a span, for calls too frequent to time."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += amount(args)
            return fn(*args, **kwargs)

        return counted

    def total(self, name: str) -> float:
        """Wall time covered by spans of this name (outermost ones only)."""
        return sum(s.end - s.start for s in self.spans if s.name == name and not s.nested)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, prefix: str) -> float:
        """Summed self time of the spans whose name starts with prefix: each
        span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return sum(
            s.end - s.start - child[i]
            for i, s in enumerate(self.spans)
            if s.name.startswith(prefix)
        )

    def escaped(self, prefix: str, error: str) -> int:
        """Spans under prefix that raised `error` to a caller outside prefix."""
        spans = self.spans
        return sum(
            1
            for s in spans
            if s.name.startswith(prefix)
            and s.error == error
            and (s.parent is None or not spans[s.parent].name.startswith(prefix))
        )

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return [
        n
        for n in names
        if inspect.isfunction(getattr(module, n))
        and getattr(module, n).__module__ == module.__name__
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Rebind the layers' public functions to tracer wrappers; restore on exit."""
    mods = {name: importlib.import_module(f"midspec.{name}") for name in MODULES}
    quasipoly, sim, cli = mods["quasipoly"], mods["sim"], mods["cli"]
    counts = tracer.counts

    def add(counter, amount):
        def after(result, args):
            counts[counter] += amount(result, args)

        return after

    after = {
        "spectral.find_roots": add("spectral.roots_located", lambda r, a: len(r)),
        "sim.simulate": add("sim.steps", lambda r, a: len(r.times) - 1),
    }
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mname, module in mods.items():
        for fname in _public_functions(module):
            fn = getattr(module, fname)
            key = f"{mname}.{fname}"
            wrapped = tracer.wrap(key, fn, after.get(key))
            for other in mods.values():
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        patch(other, attr, wrapped)

    qp = quasipoly.Quasipolynomial
    patch(qp, "eval_array", tracer.wrap(
        "quasipoly.eval_array", qp.eval_array, add("quasipoly.eval_points", lambda r, a: np.size(a[1]))
    ))
    patch(qp, "__call__", tracer.count("quasipoly.scalar_evals", qp.__call__))
    csv_bytes = add("sim.csv_bytes", lambda r, a: len(r))
    patch(sim.Trajectory, "to_csv", tracer.wrap("sim.csv", sim.Trajectory.to_csv, csv_bytes))
    patch(sim.Trajectory, "plot_csv", tracer.wrap("sim.csv", sim.Trajectory.plot_csv, csv_bytes))
    patch(cli, "_write_atomic", tracer.count(
        "cli.bytes_written", cli._write_atomic, lambda a: len(a[1].encode())
    ))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# (metric, how, key) for the per-layer metrics the spans give.  "total" is the
# time covered by the spans named key, "calls" their number, "count" the
# counter key, "self" the summed self time of the spans under prefix key.
LAYER_METRICS = [
    ("quasipoly.mid_coefficients_s", "total", "quasipoly.mid_coefficients"),
    ("quasipoly.multiplicity_at_s", "total", "quasipoly.multiplicity_at"),
    ("quasipoly.factorization_residual_n2_s", "total", "quasipoly.factorization_residual_n2"),
    ("quasipoly.eval_array_s", "total", "quasipoly.eval_array"),
    ("quasipoly.eval_array_calls", "calls", "quasipoly.eval_array"),
    ("quasipoly.eval_points", "count", "quasipoly.eval_points"),
    ("quasipoly.scalar_evals", "count", "quasipoly.scalar_evals"),
    ("spectral.find_roots_s", "total", "spectral.find_roots"),
    ("spectral.find_roots_calls", "calls", "spectral.find_roots"),
    ("spectral.certify_dominance_s", "total", "spectral.certify_dominance"),
    ("spectral.roots_located", "count", "spectral.roots_located"),
    ("bounds.bound_norm_power_s", "total", "bounds.bound_norm_power"),
    ("bounds.bound_norm_power_calls", "calls", "bounds.bound_norm_power"),
    ("bounds.bound_spectral_radius_curve_s", "total", "bounds.bound_spectral_radius_curve"),
    ("bounds.bound_tissir_hmamed_s", "total", "bounds.bound_tissir_hmamed"),
    ("bounds.bound_mori_kokame_s", "total", "bounds.bound_mori_kokame"),
    ("bounds.lemma3_analytic_bound_s", "total", "bounds.lemma3_analytic_bound"),
    ("sim.simulate_s", "total", "sim.simulate"),
    ("sim.simulate_calls", "calls", "sim.simulate"),
    ("sim.steps", "count", "sim.steps"),
    ("sim.decay_rate_s", "total", "sim.decay_rate"),
    ("sim.csv_s", "total", "sim.csv"),
    ("sim.csv_bytes", "count", "sim.csv_bytes"),
    ("cli.command_s", "total", "cli.main"),
    ("cli.self_s", "self", "cli."),
    ("cli.bytes_written", "count", "cli.bytes_written"),
]


def layer_values(tracer: Tracer) -> dict[str, float]:
    out = {}
    for metric, how, key in LAYER_METRICS:
        if how == "total":
            out[metric] = tracer.total(key)
        elif how == "calls":
            out[metric] = tracer.calls(key)
        elif how == "count":
            out[metric] = tracer.counts[key]
        else:
            out[metric] = tracer.self_time(key)
    out["spectral.localization_errors"] = tracer.escaped("spectral.", "LocalizationError")
    return out


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_seconds(module: str, env: dict) -> float:
    """Cumulative import time of midspec.<module> in a fresh interpreter, as
    `python -X importtime` reports it."""
    target = f"midspec.{module}"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {target}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import {target} failed: {proc.stderr.strip().splitlines()[-1:]}")
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(3) == target:
            return int(m.group(2)) * 1e-6
    raise RuntimeError(f"no importtime line for {target}")
