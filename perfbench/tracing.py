"""Span recorders around calmkit's public functions, installed from outside.

Tracer.install() replaces each traced function at every attribute where
calmkit code looks it up (module globals, `from .x import y` copies and
class attributes), so calls between calmkit modules are traced as well as
the benchmark's own calls.  Each call becomes a span (name, start, end,
parent).  Spans are aggregated as they close: a span's self time is its
duration minus the time covered by its child spans.  The first MAX_SPANS
spans are kept verbatim for inspection.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
import time
from collections import defaultdict

import numpy as np

from calmkit import (calmness, cli, core, diagnostics, graphs_cones, losses,
                     oracle, penalties, solvers)

MAX_SPANS = 2000

# (module, function name, span name): wrapped wherever calmkit binds it
FUNCTIONS = [
    (solvers, "pg_solve", "solvers.pg_solve"),
    (diagnostics, "verify_sufficient_descent", "diagnostics.verify_sufficient_descent"),
    (diagnostics, "verify_cost_to_go", "diagnostics.verify_cost_to_go"),
    (diagnostics, "classify_stationarity", "diagnostics.classify_stationarity"),
    (diagnostics, "fit_linear_rate", "diagnostics.fit_linear_rate"),
    (calmness, "check_nnamcq", "calmness.check_nnamcq"),
    (calmness, "check_foscms", "calmness.check_foscms"),
    (calmness, "estimate_calmness_modulus", "calmness.estimate_calmness_modulus"),
    (calmness, "linprog", "calmness.linprog"),
    (calmness, "null_space", "calmness.null_space"),
    (graphs_cones, "limiting_normal_atoms", "graphs_cones.limiting_normal_atoms"),
    (graphs_cones, "tangent_atoms", "graphs_cones.tangent_atoms"),
    (graphs_cones, "directional_limiting_normal_atoms",
     "graphs_cones.directional_limiting_normal_atoms"),
    (oracle, "brute_force_stationary_set", "oracle.brute_force_stationary_set"),
    (oracle, "brute_force_set_valued_solve", "oracle.brute_force_set_valued_solve"),
    (core, "load_problem", "core.load_problem"),
]

# (module, method name, span name): wrapped on every class that defines it
METHODS = [
    (losses, "gradient", "losses.gradient"),
    (losses, "gradient_many", "losses.gradient_many"),
    (losses, "lipschitz_bound", "losses.lipschitz_bound"),
    (penalties, "prox_scalar", "penalties.prox_scalar"),
    (penalties, "prox_coordinate_sets", "penalties.prox_coordinate_sets"),
    (penalties, "prox_distance", "penalties.prox_distance"),
    (penalties, "value", "penalties.value"),
    (penalties, "subdiff_bounds_array", "penalties.subdiff_bounds_array"),
    (penalties, "prox_subdiff", "penalties.prox_subdiff"),
    (core, "write_csv", "core.write_csv"),
    (core, "read_csv", "core.read_csv"),
]

CLI_COMMANDS = ("solve", "diagnose", "certify", "reproduce")
DISCARDED = re.compile(r"^(\d+) candidate cells discarded")


class Tracer:
    def __init__(self):
        self.stack = []                          # [name, start, child time, span id]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)         # counters derived from results
        self.rel_gaps = []
        self.spans = []                          # (name, start, end, parent id)
        self.span_count = 0
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0, self.span_count])
        self.span_count += 1

    def leave(self):
        end = time.perf_counter()
        name, start, child, sid = self.stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if sid < MAX_SPANS:
            parent = self.stack[-1][3] if self.stack else None
            self.spans.append((name, start, end, parent))

    def span(self, name, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if on_return is not None:
                tracer.enter("perfbench.hooks")
                try:
                    on_return(args, kwargs, out)
                finally:
                    tracer.leave()
            return out

        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        hooks = {"solvers.pg_solve": self._on_pg_solve,
                 "calmness.check_nnamcq": self._on_certificate,
                 "calmness.check_foscms": self._on_certificate,
                 "oracle.brute_force_stationary_set": self._on_stationary_set,
                 "oracle.brute_force_set_valued_solve": self._on_set_valued,
                 "losses.lipschitz_bound": self._on_lipschitz}
        modules = [m for name, m in sys.modules.items()
                   if name == "calmkit" or name.startswith("calmkit.")]
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            traced = self.span(name, original, hooks.get(name))
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._set(m, attr, traced)
        for module, attr, name in METHODS:
            for _cls_name, cls in inspect.getmembers(module, inspect.isclass):
                raw = cls.__dict__.get(attr)
                if raw is None or cls.__module__ != module.__name__:
                    continue
                hook = hooks.get(name)
                if isinstance(raw, staticmethod):
                    self._set(cls, attr, staticmethod(self.span(name, raw.__func__, hook)))
                else:
                    self._set(cls, attr, self.span(name, raw, hook))
        # cli.main gets one span name per subcommand
        by_command = {c: self.span("cli.main." + c, cli.main)
                      for c in CLI_COMMANDS + ("other",)}

        def main(argv=None):
            command = argv[0] if argv and argv[0] in CLI_COMMANDS else "other"
            return by_command[command](argv)

        self._set(cli, "main", main)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- result hooks --------------------------------------------------------

    def _on_pg_solve(self, args, kwargs, tr):
        self.counts["solvers.iterations"] += len(tr) - 1

    def _on_certificate(self, args, kwargs, rep):
        self.counts["calmness.combinations"] += rep.pieces_examined

    def _count_points(self, points, box):
        lo, hi = (np.asarray(b, dtype=float) for b in box)
        P = np.asarray(points, dtype=float).reshape(-1, len(lo))
        self.counts["oracle.points"] += len(P)
        self.counts["oracle.out_of_box_points"] += int(np.count_nonzero(
            np.any((P < lo - 1e-9) | (P > hi + 1e-9), axis=1)))

    def _on_stationary_set(self, args, kwargs, S):
        self._count_points(S.points, kwargs.get("box", args[1] if len(args) > 1 else None))
        for w in getattr(S, "warnings", []):
            m = DISCARDED.match(w)
            if m:
                self.counts["oracle.discarded"] += int(m.group(1))

    def _on_set_valued(self, args, kwargs, pts):
        self._count_points(pts, kwargs.get("box", args[3] if len(args) > 3 else None))

    def _on_lipschitz(self, args, kwargs, bound):
        loss = args[0]
        if isinstance(loss, losses.QuadraticLoss) and loss.Q.size:
            exact = float(np.max(np.abs(np.linalg.eigvalsh(loss.Q))))
            if exact > 0:
                self.rel_gaps.append((bound.value - exact) / exact)

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer values keyed by the names listed in BENCHMARK.json."""
        m = {}
        for _module, _attr, name in FUNCTIONS + METHODS:
            m[name + ".calls"] = self.calls[name]
            m[name + ".self_s"] = self.self_s[name]
        for command in CLI_COMMANDS:
            m["cli.main.%s.self_s" % command] = self.self_s["cli.main." + command]
        for key in ("solvers.iterations", "calmness.combinations", "oracle.points",
                    "oracle.out_of_box_points", "oracle.discarded"):
            m[key] = self.counts[key]
        iters = self.counts["solvers.iterations"]
        m["penalties.prox_scalar.calls_per_iter"] = (
            self.calls["penalties.prox_scalar"] / iters if iters else 0.0)
        cert_s = self.total_s["calmness.check_nnamcq"] + self.total_s["calmness.check_foscms"]
        m["calmness.combinations_per_s"] = (
            self.counts["calmness.combinations"] / cert_s if cert_s else 0.0)
        # most negative relative gap: below 0 the "bound" undercuts the true L
        m["losses.lipschitz_rel_gap"] = min(self.rel_gaps) if self.rel_gaps else 0.0
        return m

    def covered_s(self):
        """Wall time inside calmkit spans (the sum of their self times)."""
        return sum(v for k, v in self.self_s.items() if k != "perfbench.hooks")
