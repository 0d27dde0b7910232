"""Spans recorded around calls into bnfit's modules, for the traced run.

The benchmark installs a wrapper on each name *as bound in the calling
module* (``bnfit.online.batch_family_posteriors`` is a different binding
from ``bnfit.estimation.batch_family_posteriors``), so one inference
routine is attributed to the caller that drives it.  Nothing under
``src/`` is changed: the wrappers exist only inside ``Tracer.installed``
and every name is restored on exit.

Spans stay in memory until the traced pass ends; then the per-layer
metrics are computed from them and they are written out as JSON lines.  A span's self time is its duration minus the time
its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from bnfit.estimation import ROW_MASS_FLOOR


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    phase: str
    child_time: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _cases(args, result) -> dict[str, float]:
    return {"cases": float(args[1].shape[0])}


def _frozen_rows(args, result) -> dict[str, float]:
    parent = args[1].parent
    return {
        "frozen_rows": float(sum(int((p <= ROW_MASS_FLOOR).sum()) for p in parent)),
        "rows": float(sum(p.size for p in parent)),
    }


def _text_bytes(args, result) -> dict[str, float]:
    return {"bytes": float(len(result.encode("utf-8")))}


# (module, name as bound there, span name, optional per-call counter).
# The span name's first component is the layer the call goes into.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("bnfit.estimation", "fit", "estimation.fit", None),
    ("bnfit.estimation", "expected_stats_with_ll", "estimation.estep", None),
    ("bnfit.estimation", "em_eta_step", "estimation.update", _frozen_rows),
    ("bnfit.estimation", "batch_family_posteriors", "inference.estep", _cases),
    ("bnfit.estimation", "log_likelihood_cases", "inference.ll", _cases),
    ("bnfit.inference", "log_likelihood_cases", "inference.ll", _cases),
    ("bnfit.online", "online_em_step", "online.step", None),
    ("bnfit.online", "batch_family_posteriors", "inference.case", None),
    ("bnfit.online", "parent_config_marginals", "inference.parent_marginals", None),
    ("bnfit.spectral", "build_report", "spectral.report", None),
    ("bnfit.spectral", "jacobian", "spectral.jacobian", None),
    ("bnfit.spectral", "phi_apply", "spectral.phi", None),
    ("bnfit.spectral", "expected_stats", "spectral.expected_stats", None),
    ("bnfit.spectral", "eigen_range", "spectral.eig", None),
    ("bnfit.harness", "forward_sample", "harness.sample", None),
    ("bnfit.harness", "obscure", "harness.obscure", None),
    ("bnfit.harness", "evaluate_queries", "harness.eval", None),
    ("bnfit.harness", "query_error", "harness.query", None),
    ("bnfit.harness", "posterior_marginal", "inference.posterior", None),
    ("bnfit.netio", "parse_network", "netio.parse", None),
    ("bnfit.netio", "load_dataset", "netio.parse", None),
    ("bnfit.netio", "serialize_network", "netio.format", _text_bytes),
    ("bnfit.netio", "format_dataset", "netio.format", _text_bytes),
)


@dataclass
class Tracer:
    run_id: str
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)
    _phase: str = ""

    def _wrap(self, span_name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(span_name, time.perf_counter(), 0.0, parent, self.run_id, self._phase)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_time += span.duration
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[(span_name, key)] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, phase: str):
        """Wrap every target name for the duration of the block, tagging
        the spans started inside it with the benchmark phase ``phase``."""
        saved = []
        self._phase = phase
        try:
            for module_name, attr, span_name, count in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._phase = ""

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines; a span's id is its line number."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                row = {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                       "run_id": s.run_id, "phase": s.phase}
                f.write(json.dumps(row) + "\n")

    # -- aggregation --------------------------------------------------------

    def select(self, name: str, phase: str | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (phase is None or s.phase.startswith(phase))
        ]

    def total_s(self, name: str, phase: str | None = None) -> float:
        return sum(s.duration for s in self.select(name, phase))

    def calls(self, name: str, phase: str | None = None) -> int:
        return len(self.select(name, phase))

    def layer_self_s(self, layer: str, phase: str | None = None) -> float:
        return sum(
            s.self_time for s in self.spans
            if s.layer == layer and (phase is None or s.phase.startswith(phase))
        )


def per_layer_metrics(
    tracer: Tracer, fit_iters: int, traced_s: float, untraced_s: float
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass; what each means is in README.md.

    ``fit_iters`` is the pass's fit length; the two times are the wall
    times of the traced pass and of an untraced pass of the same work.
    A layer the workload does not reach reports 0.
    """
    t = tracer

    def ms(name, phase=None):
        return 1000.0 * t.total_s(name, phase)

    def per_call_ms(name, phase=None):
        n = t.calls(name, phase)
        return ms(name, phase) / n if n else 0.0

    def per_case(name):
        cases = t.counts[(name, "cases")]
        return t.total_s(name) / cases if cases else 0.0

    def calls_per_step(phase):
        steps = t.calls("online.step", phase)
        inner = t.calls("inference.case", phase) + t.calls("inference.parent_marginals", phase)
        return inner / steps if steps else 0.0

    evals = max(t.calls("harness.eval"), 1)
    steps = t.select("online.step")
    rows = t.counts[("estimation.update", "rows")]
    ll_per_case = per_case("inference.ll")
    return {
        "inference.estep_ms": (ms("inference.estep"), "ms"),
        "inference.estep_calls": (t.calls("inference.estep"), "count"),
        "inference.estep_over_ll": (per_case("inference.estep") / ll_per_case if ll_per_case else 0.0, "ratio"),
        "inference.ll_ms": (ms("inference.ll"), "ms"),
        "inference.case_ms": (per_call_ms("inference.case"), "ms"),
        "inference.parent_marginals_ms": (per_call_ms("inference.parent_marginals"), "ms"),
        "inference.parent_marginals_calls": (t.calls("inference.parent_marginals"), "count"),
        "inference.posterior_ms": (ms("inference.posterior") / evals, "ms"),
        "inference.posterior_calls": (t.calls("inference.posterior") / evals, "count"),
        "estimation.update_ms": (ms("estimation.update"), "ms"),
        "estimation.frozen_row_frac": (
            t.counts[("estimation.update", "frozen_rows")] / rows if rows else 0.0, "ratio"
        ),
        "online.step_self_ms": (
            1000.0 * sum(s.self_time for s in steps) / len(steps) if steps else 0.0, "ms"
        ),
        "online.inference_calls_per_case": (calls_per_step("stream.inverse_t"), "count"),
        "online.per_row_inference_calls_per_case": (calls_per_step("stream.per_row"), "count"),
        "spectral.phi_calls": (t.calls("spectral.phi"), "count"),
        "spectral.jacobian_s": (t.total_s("spectral.jacobian"), "s"),
        "spectral.eig_ms": (ms("spectral.eig"), "ms"),
        "harness.eval_self_ms": (1000.0 * t.layer_self_s("harness", "eval") / evals, "ms"),
        "harness.queries": (t.calls("harness.query") / evals, "count"),
        "netio.parse_ms": (ms("netio.parse", "setup"), "ms"),
        "netio.format_ms": (ms("netio.format", "setup"), "ms"),
        "netio.bytes": (t.counts[("netio.format", "bytes")], "bytes"),
        "fit_iters": (fit_iters, "count"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }
