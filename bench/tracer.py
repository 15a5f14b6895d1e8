"""Outside-in layer tracing for the traced benchmark run.

The tracer replaces module-level entry points of ``puiseux`` by wrappers
from outside the package: every module namespace and class that holds the
original object gets the wrapper, so ``from .x import f`` bindings are
traced too.  A hook whose target no longer exists is reported as missing
and skipped, because refactors are expected to move these functions.

Each traced call pushes a frame.  On return the frame's self time (its
duration minus the time covered by traced calls nested in it) is known, and
a span (name, start, end, parent, op, self) is kept in memory.  Hooks marked
``hot`` are called hundreds to thousands of times per op; their calls are
summed per op instead of kept one by one, so the trace stays small.  Hooks of kind
``count`` only count calls and add no frame, so their time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (hook name, module, attribute path, kind).  Kinds: "span", "hot", "count".
HOOKS = (
    ("textform.parse", "puiseux.textform", "parse_poly", "span"),
    ("textform.parse", "puiseux.textform", "parse_monoid", "span"),
    ("textform.parse", "puiseux.textform", "parse_rat", "span"),
    ("textform.format", "puiseux.textform", "format_poly", "span"),
    ("textform.format", "puiseux.textform", "format_rat", "span"),
    ("textform.format", "puiseux.textform", "format_monoid", "span"),
    ("cli.run", "puiseux.cli", "run_command", "span"),
    ("ppoly.clear", "puiseux.ppoly", "PuiseuxPoly.clear_denominators", "span"),
    ("ppoly.clear", "puiseux.ppoly", "PuiseuxPoly.substitute", "span"),
    ("ppoly.clear", "puiseux.ppoly", "PuiseuxPoly.to_qpoly", "span"),
    ("qpoly.squarefree", "puiseux.qpoly", "squarefree_decompose", "span"),
    ("qpoly.mul", "puiseux.qpoly", "QPoly.__mul__", "hot"),
    ("qpoly.mul", "puiseux.qpoly", "QPoly.__rmul__", "hot"),
    ("intpoly.prime_choice", "puiseux._intpoly", "_choose_prime", "span"),
    ("intpoly.berlekamp", "puiseux._intpoly", "gf_berlekamp", "span"),
    ("intpoly.hensel", "puiseux._intpoly", "zz_hensel_lift", "span"),
    ("intpoly.recombine", "puiseux._intpoly", "zz_factor_squarefree", "span"),
    ("intpoly.trial_div", "puiseux._intpoly", "zz_trial_div", "count"),
    ("cyclotomic.phi", "puiseux.cyclotomic", "cyclotomic_poly", "span"),
    ("cyclotomic.classify", "puiseux.cyclotomic", "classify_cyclotomic", "span"),
    ("cyclotomic.totient_inv", "puiseux.cyclotomic", "inverse_totient", "span"),
    ("engine.walk", "puiseux.engine", "divisors_in_algebra", "span"),
    ("engine.factor", "puiseux.engine", "canonical_factorization", "span"),
    ("monoid.contains", "puiseux.monoid", "NumericalMonoid.contains", "hot"),
    ("monoid.contains", "puiseux.monoid", "PuiseuxMonoid.contains", "hot"),
    ("monoid.apery", "puiseux.monoid", "NumericalMonoid._apery", "span"),
    ("monoid.apery", "puiseux.monoid", "NumericalMonoid.divisors", "span"),
    ("monoid.apery", "puiseux.monoid", "PuiseuxMonoid.divisors_of", "span"),
    ("monoid.apery", "puiseux.monoid", "PuiseuxMonoid.atoms", "span"),
)

# Per-layer metric -> (source, hook name).  "self" sums self time in ms,
# "calls" counts calls; the rest are special counters defined below.
LAYER_METRICS = (
    ("textform.parse_ms", "self", "textform.parse"),
    ("textform.format_ms", "self", "textform.format"),
    ("cli.run_ms", "self", "cli.run"),
    ("cli.import_ms", "import", None),
    ("ppoly.clear_ms", "self", "ppoly.clear"),
    ("qpoly.squarefree_ms", "self", "qpoly.squarefree"),
    ("qpoly.mul_calls", "calls", "qpoly.mul"),
    ("qpoly.mul_ms", "self", "qpoly.mul"),
    ("intpoly.prime_choice_ms", "self", "intpoly.prime_choice"),
    ("intpoly.berlekamp_ms", "self", "intpoly.berlekamp"),
    ("intpoly.modular_factors", "counter", "intpoly.modular_factors"),
    ("intpoly.hensel_ms", "self", "intpoly.hensel"),
    ("intpoly.recombine_ms", "self", "intpoly.recombine"),
    ("intpoly.trial_divisions", "calls", "intpoly.trial_div"),
    ("cyclotomic.phi_ms", "self", "cyclotomic.phi"),
    ("cyclotomic.phi_builds", "counter", "cyclotomic.phi_builds"),
    ("cyclotomic.phi_lookups", "calls", "cyclotomic.phi"),
    ("cyclotomic.classify_ms", "self", "cyclotomic.classify"),
    ("cyclotomic.classify_candidates", "counter", "cyclotomic.classify_candidates"),
    ("cyclotomic.totient_inv_ms", "self", "cyclotomic.totient_inv"),
    ("engine.walk_ms", "self", "engine.walk"),
    ("engine.factor_ms", "self", "engine.factor"),
    ("monoid.contains_calls", "calls", "monoid.contains"),
    ("monoid.contains_ms", "self", "monoid.contains"),
    ("monoid.apery_ms", "self", "monoid.apery"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, object) for 'f' or 'Class.method'; None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        obj = owner.__dict__.get(attr)
    else:
        obj = getattr(owner, attr, None)
    if obj is None:
        return None
    return owner, attr, obj


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.hot: Counter = Counter()  # (op, hook) -> self ns
        self.calls: Counter = Counter()  # (op, hook) -> calls
        self.counters: Counter = Counter()  # (op, counter) -> value
        self.missing: list[str] = []
        self.op = None
        self._stack: list[list] = []  # frames: [name, child_ns, span index]
        self._probes: list = []

    # -- hook installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every hook target in HOOKS."""
        packages = [m for n, m in sys.modules.items() if n.startswith("puiseux") and m]
        for name, module_name, path, kind in HOOKS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}:{path}")
                continue
            owner, attr, original = found
            if isinstance(original, functools.cached_property):
                wrapped = functools.cached_property(self._wrap(name, kind, original.func))
                wrapped.__set_name__(owner, attr)
                setattr(owner, attr, wrapped)
                continue
            wrapper = self._wrap(name, kind, original)
            setattr(owner, attr, wrapper)
            if not isinstance(owner, type):
                for module in packages:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
            if path == "cyclotomic_poly" and hasattr(original, "cache_info"):
                self._probes.append(
                    ("cyclotomic.phi_builds", lambda f=original: f.cache_info().misses)
                )
        if self.missing:
            print("trace: missing hooks: " + ", ".join(self.missing), file=sys.stderr)

    def _wrap(self, name: str, kind: str, fn):
        if kind == "count":

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                self.calls[(self.op, name)] += 1
                return fn(*args, **kwargs)

            return counting

        keep = kind == "span"
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if keep:
                index = len(spans)
                spans.append(None)
            frame = [name, 0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns = duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                op = self.op
                self.calls[(op, name)] += 1
                if keep:
                    spans[index] = (name, start, end, parent[2] if parent else -1, op, self_ns)
                else:
                    self.hot[(op, name)] += self_ns
            if name == "intpoly.berlekamp":
                self.counters[(op, "intpoly.modular_factors")] += len(result)
            elif name == "cyclotomic.phi" and parent is not None and parent[0] == "cyclotomic.classify":
                self.counters[(op, "cyclotomic.classify_candidates")] += 1
            return result

        return traced

    # -- op boundaries ---------------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op
        self._start_probes = [probe() for _, probe in self._probes]

    def end_op(self) -> None:
        for (counter, probe), before in zip(self._probes, self._start_probes):
            self.counters[(self.op, counter)] += probe() - before
        self.op = None

    # -- results -----------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Raw per-hook totals: '<hook>.self_ns', '<hook>.calls', counters."""
        out: Counter = Counter()
        for span in self.spans:
            out[span[0] + ".self_ns"] += span[5]
        for (_, name), ns in self.hot.items():
            out[name + ".self_ns"] += ns
        for (_, name), n in self.calls.items():
            out[name + ".calls"] += n
        for (_, name), n in self.counters.items():
            out[name] += n
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op", "self_ns"],
                    "spans": self.spans,
                    "hot": [[op, name, ns, self.calls[(op, name)]] for (op, name), ns in self.hot.items()],
                    "missing": self.missing,
                },
                fh,
            )


def layer_metrics(totals: dict, ops: int, import_ms: float, missing: int, overhead_pct: float) -> dict:
    """Per-layer metrics as per-op means, from summed tracer totals."""
    out = {}
    for metric, source, hook in LAYER_METRICS:
        if source == "self":
            value = totals.get(hook + ".self_ns", 0) / 1e6 / ops
            unit = "ms"
        elif source == "calls":
            value = totals.get(hook + ".calls", 0) / ops
            unit = "count"
        elif source == "counter":
            value = totals.get(hook, 0) / ops
            unit = "count"
        else:
            value = import_ms
            unit = "ms"
        out[metric] = {"value": value, "unit": unit}
    out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    out["trace.hooks_missing"] = {"value": missing, "unit": "count"}
    return out
