"""Spans and counts at the module boundaries of quartic_nve.

`Tracer.install` replaces the public functions listed in BOUNDARIES, in
every quartic_nve module that holds them, with wrappers that record a span
(name, start, end, parent, op) per call, and counts MPoly constructions by
wrapping `MPoly.__init__`.  Nothing under `src/` changes; `uninstall` puts
the originals back.  A recursive call of a wrapped function runs inside
the outer span instead of opening a new one, so a span marks one crossing
of the boundary.

Spans stay in memory; `summarize` turns them into the per-layer metrics and
`dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

LAYERS = ("jets", "odes", "linsolve", "certify", "mpoly", "potential", "dynamics")
BRANCHES = ("generic", "b_zero", "c_zero")


def branch_of(names) -> str:
    """Branch of a polynomial system from the parameters it still carries."""
    names = set(names)
    if {"b", "c"} <= names:
        return "generic"
    return "b_zero" if "c" in names else "c_zero" if "b" in names else "none"


def _vars(polys) -> set:
    return {v for p in polys for v in p.vars}


def _basis_branch(basis) -> str:
    return branch_of(_vars(list(basis.numerators) + [basis.denominator]))


def _decide_name(args) -> str:
    point = args["specialization"]
    small = all(v == int(v) and abs(v) <= 20 for v in point.values())
    return f"certify.decide.{branch_of(point)}.{'small' if small else 'tall'}"


def _count_q_terms(tracer, name, args, result):
    tracer.counts["certify.q_terms." + name.rsplit(".", 1)[1]] += len(result.terms)


def _count_rk4_steps(tracer, name, args, result):
    tracer.counts["dynamics.rk4_steps"] += len(result.states) - 1


def _count_variational_steps(tracer, name, args, result):
    tracer.counts["dynamics.variational_steps"] += int(round(args["horizon"] / args["dt"]))


# (module, function, span name or a function of the bound arguments, hook
# called with the result)
BOUNDARIES = (
    ("jets", "generate_conditions", "jets.conditions", None),
    ("odes", "specialize_quartic", "odes.derive", None),
    ("odes", "center_and_reduce", "odes.derive", None),
    ("odes", "rational_kernel",
     lambda a: "odes.kernel." + branch_of(_vars(a["ode"].coeffs)), None),
    ("odes", "degeneration_branches",
     lambda a: "odes.degeneration." + _basis_branch(a["basis"]), None),
    ("linsolve", "matrix_kernel", "linsolve.kernel", None),
    ("certify", "build_Q", lambda a: "certify.build_q." + _basis_branch(a["basis"]),
     _count_q_terms),
    ("certify", "extract_forms",
     lambda a: "certify.extract." + branch_of(a["q"].vars), None),
    ("certify", "conic_incompatibility", _decide_name, None),
    ("certify", "verify_quartic_theorem", "certify.verify", None),
    ("mpoly", "resultant", "mpoly.resultant", None),
    ("mpoly", "poly_gcd", "mpoly.gcd", None),
    ("mpoly", "exact_div", "mpoly.exact_div", None),
    ("potential", "parse_potential", "potential.parse", None),
    ("dynamics", "integrate_hamilton", "dynamics.rk4", _count_rk4_steps),
    ("dynamics", "polynomial_degree_test", "dynamics.degree_test", None),
    ("dynamics", "variational_consistency", "dynamics.variational",
     _count_variational_steps),
)

# Re-anchor figures of ROADMAP aim 1 (Python 3.11), printed beside this run's.
REANCHOR = (
    ("certify.build_q_ms.generic", 1060.0, "build_Q generic (ms)"),
    ("odes.kernel_ms.generic", 280.0, "generic kernel (ms)"),
    ("certify.decide_ms.generic.small", 250.0, "generic trial (ms)"),
    ("certify.decide_ms.b_zero.small", 50.0, "b = 0 trial (ms)"),
    ("certify.decide_ms.c_zero.small", 50.0, "c = 0 trial (ms)"),
    ("dynamics.rk4_us_per_step", 44.0, "RK4 (us/step)"),
)


class Tracer:
    """In-memory spans and counters, grouped by operation id.

    The setup phase is the op "setup"; timed operations use their index.
    """

    def __init__(self):
        self.spans: List[list] = []            # [name, start, end, parent, op]
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_counts: Dict = {}
        self.op_walls: Dict = {}
        self.op = "setup"
        self._stack: List[int] = []
        self._inside: set = set()
        self._base: Dict[str, int] = {}
        self._restore: List[tuple] = []

    # -- operations ------------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op
        self._base = dict(self.counts)

    def end_op(self, op, start: float, end: float) -> None:
        self.op_counts[op] = {k: v - self._base.get(k, 0) for k, v in self.counts.items()
                              if v != self._base.get(k, 0)}
        self.op_walls[op] = (start, end)

    def absorb(self, path, op) -> None:
        """Take over the spans and counts a child interpreter wrote to path."""
        with open(path) as fh:
            child = json.load(fh)
        offset = len(self.spans)
        for name, start, end, parent, _ in child["spans"]:
            self.spans.append([name, start, end,
                               None if parent is None else parent + offset, op])
        self.op_counts[op] = child["counts"]

    # -- instrumentation -------------------------------------------------

    def _wrap(self, fn, label, hook):
        tracer = self
        signature = inspect.signature(fn)
        needs_args = callable(label) or hook is not None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fn in tracer._inside:
                return fn(*args, **kwargs)
            bound = None
            if needs_args:
                ba = signature.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
            name = label(bound) if callable(label) else label
            tracer.counts[name] += 1
            index = len(tracer.spans)
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.op]
            tracer.spans.append(record)
            tracer._stack.append(index)
            tracer._inside.add(fn)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._inside.discard(fn)
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, name, bound, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary function wherever a quartic_nve module holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "quartic_nve" or n.startswith("quartic_nve."))]
        for modname, fname, label, hook in BOUNDARIES:
            original = getattr(sys.modules["quartic_nve." + modname], fname)
            wrapper = self._wrap(original, label, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        from quartic_nve.mpoly import MPoly

        original_init = MPoly.__init__
        counts = self.counts

        def counting_init(obj, *args, **kwargs):
            counts["mpoly.objects"] += 1
            original_init(obj, *args, **kwargs)

        self._restore.append((MPoly, "__init__", original_init))
        MPoly.__init__ = counting_init

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


# -- per-layer metrics ---------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(tracer: Tracer, overhead_pct: float) -> Dict[str, float]:
    """Per-layer metrics: each is the median, over the timed ops in which it
    is nonzero, of its per-op value; a layer reached only during setup
    reports the setup value, and a layer never reached reports 0."""
    per_op: Dict[str, Dict] = defaultdict(dict)
    child_time = defaultdict(float)
    for name, start, end, parent, op in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    for index, (name, start, end, parent, op) in enumerate(tracer.spans):
        dur = end - start
        parts = name.split(".")
        key = ".".join([parts[0], parts[1] + "_ms"] + parts[2:])
        ops = per_op[key]
        ops[op] = ops.get(op, 0.0) + dur * 1e3
        self_key = "self_ms." + parts[0]
        per_op[self_key][op] = per_op[self_key].get(op, 0.0) + (dur - child_time[index]) * 1e3
        if parent is None:
            top = per_op["_top_ms"]
            top[op] = top.get(op, 0.0) + dur * 1e3
    for op, counts in tracer.op_counts.items():
        for name, value in counts.items():
            per_op[name][op] = value
    for op, (start, end) in tracer.op_walls.items():
        per_op["_wall_ms"][op] = (end - start) * 1e3

    def value(key: str) -> float:
        ops = per_op.get(key, {})
        timed = [v for op, v in ops.items() if op != "setup" and v]
        return _median(timed) if timed else float(ops.get("setup", 0.0))

    def ratio(num_key: str, den_key: str, scale: float) -> float:
        num, den = per_op.get(num_key, {}), per_op.get(den_key, {})
        timed = [num[op] * scale / den[op] for op in num if op != "setup" and den.get(op)]
        if timed:
            return _median(timed)
        return num["setup"] * scale / den["setup"] if den.get("setup") else 0.0

    walls = per_op["_wall_ms"]
    timed_ops = [op for op in walls if op != "setup"]
    verify = per_op.get("certify.verify_ms", {})
    metrics = {
        "jets.conditions_ms": value("jets.conditions_ms"),
        "odes.derive_ms": value("odes.derive_ms"),
        "linsolve.kernel_calls": value("linsolve.kernel"),
        "linsolve.kernel_ms": value("linsolve.kernel_ms"),
    }
    for b in BRANCHES:
        metrics[f"odes.kernel_ms.{b}"] = value(f"odes.kernel_ms.{b}")
        metrics[f"odes.degeneration_ms.{b}"] = value(f"odes.degeneration_ms.{b}")
        metrics[f"certify.build_q_ms.{b}"] = value(f"certify.build_q_ms.{b}")
        metrics[f"certify.extract_ms.{b}"] = value(f"certify.extract_ms.{b}")
        metrics[f"certify.q_terms.{b}"] = value(f"certify.q_terms.{b}")
        for tier in ("small", "tall"):
            metrics[f"certify.decide_ms.{b}.{tier}"] = value(f"certify.decide_ms.{b}.{tier}")
    metrics.update({
        "mpoly.resultant_calls": value("mpoly.resultant"),
        "mpoly.resultant_ms": value("mpoly.resultant_ms"),
        "mpoly.gcd_calls": value("mpoly.gcd"),
        "mpoly.gcd_ms": value("mpoly.gcd_ms"),
        "mpoly.objects": value("mpoly.objects"),
        "mpoly.exact_div_ms": value("mpoly.exact_div_ms"),
        "potential.parse_ms": value("potential.parse_ms"),
        "dynamics.rk4_steps": value("dynamics.rk4_steps"),
        "dynamics.rk4_us_per_step": ratio("dynamics.rk4_ms", "dynamics.rk4_steps", 1e3),
        "dynamics.degree_test_ms": value("dynamics.degree_test_ms"),
        "dynamics.variational_us_per_step": ratio("dynamics.variational_ms",
                                                  "dynamics.variational_steps", 1e3),
        "cli.process_ms": _median([walls[op] - verify[op] for op in timed_ops if op in verify]),
    })
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = value(f"self_ms.{layer}")
    top = per_op.get("_top_ms", {})
    metrics["trace.overhead_pct"] = overhead_pct
    metrics["trace.uncovered_pct"] = _median(
        [100.0 * (walls[op] - top.get(op, 0.0)) / walls[op] for op in timed_ops if walls[op]])
    return metrics


def reanchor_lines(metrics: Dict[str, float]) -> List[str]:
    lines = [f"{'figure':<24}{'this run':>12}{'re-anchor':>12}{'ratio':>8}"]
    for key, reference, label in REANCHOR:
        if metrics.get(key):
            lines.append(f"{label:<24}{metrics[key]:>12.2f}{reference:>12.2f}"
                         f"{metrics[key] / reference:>8.2f}")
    return lines
