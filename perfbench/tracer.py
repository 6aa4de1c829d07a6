"""Outside-in tracer for one phinv process.

Wraps the package's public functions from outside; nothing under src/phinv is
edited. Modules bind imported names at load time, so each function is
replaced in every phinv namespace that holds it (runner.build_eta,
propagator.build_eta, model.build_rho_inverse, ...), not only where it is
defined. Patching phinv.metric.ladder_exp counts lru-cache misses, because the
cached constructors look that name up on every miss.

A span is [name, start, end, parent index]; spans stay in memory and are
aggregated into per-layer metrics when the traced run ends. A layer's self time
is its spans' duration minus the part covered by their child spans. fock and
errors are leaf helpers: their cost stays inside their callers' spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from functools import wraps

# (defining module, public function) -> span name.
SPANS = {
    ("phinv.scenario", "parse_scenario"): "scenario.parse",
    ("phinv.runner", "run_scenario"): "runner.run_scenario",
    ("phinv.runner", "verify_artifacts"): "runner.verify_artifacts",
    ("phinv.model", "integrate_metric"): "model.integrate_metric",
    ("phinv.model", "assemble_solution"): "model.assemble_solution",
    ("phinv.metric", "build_rho"): "metric.build",
    ("phinv.metric", "build_rho_inverse"): "metric.build",
    ("phinv.metric", "build_eta"): "metric.build",
    ("phinv.metric", "ladder_exp"): "metric.ladder_exp",
    ("phinv.propagator", "schrodinger_residual"): "propagator.schrodinger",
    ("phinv.propagator", "invariant_residual"): "propagator.invariant",
    ("phinv.propagator", "dyson_residual"): "propagator.dyson",
    ("phinv.propagator", "hermitian_image_check"): "propagator.hermitian_image",
    ("phinv.propagator", "convergence_probe"): "propagator.convergence_probe",
    ("phinv.propagator", "hermitian_side_check"): "propagator.hermitian_side",
    ("phinv.position", "orthonormality_matrix"): "position.gram",
    ("phinv.position", "cross_representation_residual"): "position.cross_representation",
    ("phinv.position", "canonical_agreement"): "position.canonical",
}
# propagate called by the runner is the short-horizon direct oracle. Inside the
# convergence probe and the Hermitian-side check it only counts RK4 steps, so
# its time stays in those oracles' spans.
PROPAGATE = ("phinv.propagator", "propagate")
DIRECT_ORACLE_SITE = "phinv.runner"
# Their returned H(t) callables are wrapped to count evaluations.
SOURCES = (
    ("phinv.propagator", "hamiltonian_source"),
    ("phinv.propagator", "transformed_generator_source"),
)

SECONDS = {
    "scenario.parse_s": "scenario.parse",
    "model.integrate_metric_s": "model.integrate_metric",
    "model.assemble_solution_s": "model.assemble_solution",
    "metric.build_s": "metric.build",
    "metric.ladder_exp_s": "metric.ladder_exp",
    "propagator.schrodinger_s": "propagator.schrodinger",
    "propagator.invariant_s": "propagator.invariant",
    "propagator.dyson_s": "propagator.dyson",
    "propagator.hermitian_image_s": "propagator.hermitian_image",
    "propagator.direct_oracle_s": "propagator.direct_oracle",
    "propagator.convergence_probe_s": "propagator.convergence_probe",
    "propagator.hermitian_side_s": "propagator.hermitian_side",
    "position.gram_s": "position.gram",
    "position.cross_representation_s": "position.cross_representation",
    "position.canonical_s": "position.canonical",
    "runner.self_s": "runner.run_scenario",
    "cli.overhead_s": "cli.run",
}
# Counts that must repeat exactly from run to run of one config.
EXACT_COUNTS = (
    "metric.ladder_exp_calls",
    "metric.build_calls",
    "propagator.rk4_steps",
    "propagator.h_evals",
    "position.grid_points",
)


def _phinv_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "phinv" or name.startswith("phinv."))]


class Tracer:
    """Span recorder and counter; install() patches, restore() undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.metric_keys: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        return self._span(name, fn)(*args, **kwargs)

    def _span(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def _hook(self, home: str, fname: str, fn):
        counts = self.counts
        sig = inspect.signature(fn)
        if home == "phinv.metric" and fname.startswith("build_"):
            keys = self.metric_keys

            def hook(args, kwargs):
                b = sig.bind(*args, **kwargs).arguments
                g = b["g"]
                counts["metric.build_calls"] += 1
                keys.add((g.vtheta_plus, g.vtheta_zero, g.vtheta_minus, b["dim"]))
            return hook
        if fname == "ladder_exp":
            def hook(args, kwargs):
                counts["metric.ladder_exp_calls"] += 1
            return hook
        if fname == "orthonormality_matrix":
            def hook(args, kwargs):
                counts["position.grid_points"] += len(sig.bind(*args, **kwargs).arguments["grid"].points)
            return hook
        if (home, fname) == PROPAGATE:
            def hook(args, kwargs):
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                a = b.arguments
                counts["propagator.rk4_steps"] += (len(a["times"]) - 1) * a["substeps"]
            return hook
        return None

    def _counted(self, fn, hook):
        @wraps(fn)
        def counted(*args, **kwargs):
            hook(args, kwargs)
            return fn(*args, **kwargs)

        return counted

    def _counted_source(self, fn):
        counts = self.counts

        @wraps(fn)
        def source(*args, **kwargs):
            h_of_t = fn(*args, **kwargs)

            def counted(t):
                counts["propagator.h_evals"] += 1
                return h_of_t(t)
            return counted

        return source

    def _patch_everywhere(self, home: str, fname: str, make_wrapper) -> None:
        """Replace home.fname in every phinv namespace holding it with
        make_wrapper(original, namespace name). A function a later change
        renames or removes is skipped; its layer then reads 0."""
        original = getattr(sys.modules.get(home), fname, None)
        if original is None:
            return
        for module in _phinv_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, make_wrapper(original, module.__name__))

    def install(self) -> "Tracer":
        for (home, fname), name in SPANS.items():
            self._patch_everywhere(home, fname, lambda fn, _site, n=name, h=home, f=fname:
                                   self._span(n, fn, self._hook(h, f, fn)))

        def propagate(fn, site):
            hook = self._hook(*PROPAGATE, fn)
            if site == DIRECT_ORACLE_SITE:
                return self._span("propagator.direct_oracle", fn, hook)
            return self._counted(fn, hook)

        self._patch_everywhere(*PROPAGATE, propagate)
        for home, fname in SOURCES:
            self._patch_everywhere(home, fname, lambda fn, _site: self._counted_source(fn))
        return self

    def restore(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def self_times(self, start: int = 0, stop: int | None = None) -> Counter:
        """Self time per span name over spans[start:stop] (a whole subtree)."""
        spans = self.spans
        stop = len(spans) if stop is None else stop
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans[start:stop]:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for i in range(start, stop):
            name, t0, t1, _ = spans[i]
            out[name] += (t1 - t0) - child[i]
        return out

    def layer_metrics(self, run_span: int, run_end: int, n_verify: int) -> dict:
        """Per-layer numbers of one traced `phinv run` (spans[run_span:run_end],
        rooted at the cli.run span) followed by n_verify traced verify calls."""
        run_self = self.self_times(run_span, run_end)
        verify_self = self.self_times(run_end)
        out = {metric: run_self[name] for metric, name in SECONDS.items()}
        out["runner.verify_artifacts_s"] = verify_self["runner.verify_artifacts"] / n_verify
        for name in EXACT_COUNTS:
            out[name] = self.counts[name]
        half_builds = self.counts["metric.ladder_exp_calls"] / 2
        out["metric.useful_ratio"] = len(self.metric_keys) / half_builds if half_builds else 0.0
        _, t0, t1, _ = self.spans[run_span]
        out["trace.run_s"] = t1 - t0
        return out
