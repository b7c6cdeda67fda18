"""Spans, counters and the per-layer metrics derived from them.

Every span wraps one call into a bslab layer from the benchmark's own
files, and spans never nest, so a span's duration is that layer's self
time.  Counters record work at the same call boundaries.  Spans inside the
package itself do not exist yet; quantities only visible from inside (power
iterations, RNG stream use) are therefore not measured.
"""
from __future__ import annotations

import statistics
from contextlib import nullcontext
from time import perf_counter

# (name, unit, better) for every metric a traced run prints
PER_LAYER = (
    ("exact.build_kernel.busy_s", "s", "lower"),
    ("exact.stationary.busy_s", "s", "lower"),
    ("exact.kernel_nnz", "count", "lower"),
    ("exact.kernel_mb", "MB", "lower"),
    ("exact.stationary.residual", "l1", "lower"),
    ("drift.verify_all_bounds.busy_s", "s", "lower"),
    ("drift.configs_per_s", "1/s", "higher"),
    ("drift.sites_per_s", "1/s", "higher"),
    ("montecarlo.run_batches.busy_s", "s", "lower"),
    ("montecarlo.updates", "count", "lower"),
    ("montecarlo.updates_per_s.long", "1/s", "higher"),
    ("montecarlo.updates_per_s.small", "1/s", "higher"),
    ("montecarlo.estimators.busy_s", "s", "lower"),
    ("montecarlo.batch_lag1_autocorr", "ratio", "lower"),
    ("montecarlo.absorbed_replicas", "count", "lower"),
    ("montecarlo.degenerate_estimates", "count", "lower"),
    ("mc.hw_sqrt_wall", "sqrt_s", "lower"),
    ("dynamics.sample_graphical_batch.busy_s", "s", "lower"),
    ("dynamics.graphical_samples_per_s", "1/s", "higher"),
    ("dynamics.rings", "count", "lower"),
    ("blocks.block4_independence_check.busy_s", "s", "lower"),
    ("blocks.independence.samples_per_s", "1/s", "higher"),
    ("blocks.propagation.busy_s", "s", "lower"),
    ("blocks.propagation.applicable_frac", "ratio", "higher"),
    ("blocks.direct.samples_per_s.stick", "1/s", "higher"),
    ("blocks.direct.samples_per_s.two", "1/s", "higher"),
    ("blocks.direct.samples_per_s.four", "1/s", "higher"),
    ("percolation.prob_connect_theta_sweep.busy_s", "s", "lower"),
    ("percolation.fields_per_s", "1/s", "higher"),
    ("checks_failed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# busy-time metrics read straight from one span name
_BUSY = {
    "exact.build_kernel.busy_s": ("exact.build_kernel",),
    "exact.stationary.busy_s": ("exact.stationary",),
    "drift.verify_all_bounds.busy_s": ("drift.verify_all_bounds",),
    "montecarlo.run_batches.busy_s": ("montecarlo.run_batches.long", "montecarlo.run_batches.small"),
    "montecarlo.estimators.busy_s": ("montecarlo.estimators",),
    "dynamics.sample_graphical_batch.busy_s": ("dynamics.sample_graphical_batch",),
    "blocks.block4_independence_check.busy_s": ("blocks.block4_independence_check",),
    "blocks.propagation.busy_s": ("blocks.propagation",),
    "percolation.prob_connect_theta_sweep.busy_s": ("percolation.prob_connect_theta_sweep",),
}

# rate metrics: (counter, span) -> counter / busy time of span
_RATES = {
    "drift.configs_per_s": ("drift.configs", "drift.verify_all_bounds"),
    "drift.sites_per_s": ("drift.sites", "drift.verify_all_bounds"),
    "montecarlo.updates_per_s.long": ("montecarlo.updates.long", "montecarlo.run_batches.long"),
    "montecarlo.updates_per_s.small": ("montecarlo.updates.small", "montecarlo.run_batches.small"),
    "dynamics.graphical_samples_per_s": ("dynamics.samples", "dynamics.sample_graphical_batch"),
    "blocks.independence.samples_per_s": ("blocks.independence.samples", "blocks.block4_independence_check"),
    "blocks.direct.samples_per_s.stick": ("blocks.direct.samples.stick", "blocks.direct.stick"),
    "blocks.direct.samples_per_s.two": ("blocks.direct.samples.two", "blocks.direct.two"),
    "blocks.direct.samples_per_s.four": ("blocks.direct.samples.four", "blocks.direct.four"),
    "percolation.fields_per_s": ("percolation.fields", "percolation.prob_connect_theta_sweep"),
}

# metrics read straight from one counter (work counts and maxima)
_COUNTS = (
    "exact.kernel_nnz",
    "exact.kernel_mb",
    "exact.stationary.residual",
    "montecarlo.batch_lag1_autocorr",
    "montecarlo.absorbed_replicas",
    "montecarlo.degenerate_estimates",
    "dynamics.rings",
)


class _Span:
    __slots__ = ("tracer", "name", "t0", "seconds")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = perf_counter() - self.t0
        busy = self.tracer.busy
        busy[self.name] = busy.get(self.name, 0.0) + self.seconds


class Tracer:
    """Records spans and counters for one traced pass."""

    on = True

    def __init__(self) -> None:
        self.busy: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.timed: dict[str, float] = {}  # timing-derived values, medianed over passes

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        if name not in self.counts or value > self.counts[name]:
            self.counts[name] = value

    def value(self, name: str, value: float) -> None:
        self.timed[name] = value


class _Off:
    """The tracer of untraced passes: every record is a no-op."""

    on = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def add(self, name: str, n: float = 1) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass

    def value(self, name: str, value: float) -> None:
        pass


OFF = _Off()


def _median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*dicts)
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def layer_metrics(tracers: list[Tracer], overhead_frac: float, checks_failed_frac: float) -> dict[str, float]:
    """Every PER_LAYER value from the traced passes of one run.

    Busy times and timing-derived values are medians over the traced
    passes; counts come from the first traced pass (every pass does the
    same work).  A layer the workload does not call reads 0.
    """
    busy = _median_of([t.busy for t in tracers])
    timed = _median_of([t.timed for t in tracers])
    counts = tracers[0].counts
    out: dict[str, float] = {}
    for name, spans in _BUSY.items():
        out[name] = sum(busy.get(s, 0.0) for s in spans)
    for name, (counter, span) in _RATES.items():
        b = busy.get(span, 0.0)
        out[name] = counts.get(counter, 0) / b if b > 0 else 0.0
    for name in _COUNTS:
        out[name] = counts.get(name, 0)
    out["montecarlo.updates"] = counts.get("montecarlo.updates.long", 0) + counts.get(
        "montecarlo.updates.small", 0
    )
    attempted = counts.get("blocks.propagation.attempted", 0)
    out["blocks.propagation.applicable_frac"] = (
        counts.get("blocks.propagation.applicable", 0) / attempted if attempted else 0.0
    )
    out["mc.hw_sqrt_wall"] = timed.get("mc.hw_sqrt_wall", 0.0)
    out["checks_failed_frac"] = checks_failed_frac
    out["trace.overhead_frac"] = overhead_frac
    missing = {name for name, _, _ in PER_LAYER} ^ set(out)
    if missing:
        raise RuntimeError(f"per-layer metric table out of step: {sorted(missing)}")
    return out
