"""Outside-in tracer for meltcal: spans and counters at module boundaries.

The tracer replaces public functions of the meltcal modules with wrappers
that record one span per call, (name, start, end, parent, note), into
in-memory lists.  ``note`` carries a per-call counter read at the same
boundary (rows predicted, whether a log-posterior was finite, an L-BFGS
start's outcome, ...).  ``uninstall`` puts every original attribute back.

``layer_metrics`` turns a span list into the per-layer metrics named in
BENCHMARK.json.  It is pure Python so the parent process can compute
metrics from a written span file without importing numpy.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

# Pipeline stage methods, by span name.  Each stage's "compute" span is the
# call that only happens when the stage's cache is stale.
STAGES = {
    "pipeline.design": "doe.build",
    "pipeline.train": "surrogate.fit",
    "pipeline.validate_surrogate": "surrogate.loocv",
    "pipeline.sa": "sensitivity.sa",
    "pipeline.calibrate": "inference.am",
    "pipeline.validate": "forward.eval",
    "pipeline.report": None,  # always recomputes; not a cache lookup
}

SMALL_BATCH_ROWS = 100  # predict batches up to this size come from MCMC


def _rows(args, kwargs, out):
    x = args[1] if len(args) > 1 else kwargs["x_raw"]
    return len(x) if getattr(x, "ndim", 1) == 2 else 1


def _finite(args, kwargs, out):
    return out != float("-inf")


def _training_set(args, kwargs, out):
    return {"n": out.n, "redraws": len(out.rejections)}


def _chain(args, kwargs, out):
    return {"steps": out.steps, "accept_rate": out.acceptance_rate()}


def _optimizer(args, kwargs, out):
    return {"nfev": int(out.nfev), "success": bool(out.success)}


def _files(args, kwargs, out):
    return len(out)


# (module, attribute, span name, note).  A dotted attribute names a method.
TARGETS = (
    ("meltcal.doe", "build_training_set", "doe.build", _training_set),
    ("meltcal.forward", "evaluate_reduced", "forward.eval", None),
    ("meltcal.surrogate", "fit_gp", "surrogate.fit", None),
    ("meltcal.surrogate", "minimize", "surrogate.minimize", _optimizer),
    ("meltcal.surrogate", "loocv_q2", "surrogate.loocv", None),
    ("meltcal.surrogate", "load_gp", "surrogate.load", None),
    ("meltcal.surrogate", "GpSurrogate.predict", "surrogate.predict", _rows),
    ("meltcal.sensitivity", "sa_on_surrogate", "sensitivity.sa", None),
    ("meltcal.sensitivity", "sobol_indices", "sensitivity.sobol", None),
    ("meltcal.inference", "log_posterior", "inference.logpost", _finite),
    ("meltcal.inference", "adaptive_metropolis", "inference.am", _chain),
    ("meltcal.inference", "summarize", "inference.summarize", None),
    ("meltcal.inference", "save_chain", "inference.save_chain", None),
    ("meltcal.inference", "load_chain", "inference.load_chain", None),
    ("meltcal.pipeline", "emit_plots", "plots.emit", _files),
) + tuple(("meltcal.pipeline", f"Pipeline.{name.split('.')[1]}", name, None)
          for name in STAGES)


def resolve(module: str, attr: str) -> tuple[object, str]:
    """(owner, name) of a TARGETS attribute; owner is a module or class."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Span recorder; ``install`` wraps TARGETS, ``uninstall`` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, note=None):
        """Return ``fn`` wrapped to record one span per call."""
        names, starts, ends, parents, notes = (
            self.names, self.starts, self.ends, self.parents, self.notes)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            notes.append(None)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if note is not None:
                notes[i] = note(args, kwargs, out)
            return out

        return traced

    def _wrap_minimize(self, name, fn, note):
        # The objective is the first argument; wrap it so each NLML+gradient
        # evaluation becomes a child span of the L-BFGS start.
        wrap = self.wrap

        def minimize(fun, *args, **kwargs):
            return fn(wrap("surrogate.nlml", fun), *args, **kwargs)

        return wrap(name, minimize, note)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, note in TARGETS:
            owner, leaf = resolve(module, attr)
            original = owner.__dict__[leaf]
            wrap = self._wrap_minimize if name == "surrogate.minimize" else self.wrap
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, wrap(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> list[list]:
        """Recorded spans as [name, start, end, parent, note] lists."""
        return [list(s) for s in zip(self.names, self.starts, self.ends,
                                     self.parents, self.notes)]


# -- span arithmetic ---------------------------------------------------------

def self_times(spans, kept) -> list[float]:
    """Self time of every span whose name is in ``kept``.

    A kept span's self time is its duration minus the durations of its
    nearest kept descendants; spans not in ``kept`` are transparent (their
    time stays with the nearest kept ancestor).  Spans of one thread nest,
    so child intervals never overlap and subtraction equals the covered
    part of the interval.  Entries for spans not in ``kept`` are 0.0.
    """
    out = [0.0] * len(spans)
    for i, (name, start, end, _, _) in enumerate(spans):
        if name in kept:
            out[i] += end - start
            a = nearest(spans, i, kept)
            if a >= 0:
                out[a] -= end - start
    return out


def nearest(spans, i: int, kept) -> int:
    """Index of the nearest proper ancestor of span ``i`` named in ``kept``."""
    a = spans[i][3]
    while a >= 0 and spans[a][0] not in kept:
        a = spans[a][3]
    return a


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced run's spans.

    A layer that did no work on a workload reports 0 for its metrics.
    """
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(name):
        return sum(dur(i) for i in idx(name))

    def self_total(name, children):
        st = self_times(spans, {name, *children})
        return sum(st[i] for i in idx(name))

    def under(name, ancestor):
        return [i for i in idx(name) if nearest(spans, i, {ancestor}) >= 0]

    m: dict[str, tuple[float, str]] = {}

    # pipeline: a stage's time excludes nested stages, not its own work
    stage_self = self_times(spans, STAGES)
    missed = {a for i, s in enumerate(spans) if s[0] not in STAGES
              for a in [nearest(spans, i, STAGES)]
              if a >= 0 and STAGES[spans[a][0]] == s[0]}
    looked_up = [i for stage, compute in STAGES.items() if compute
                 for i in idx(stage)]
    for stage in STAGES:
        m[f"{stage}_s"] = (sum(stage_self[i] for i in idx(stage)), "s")
    m["pipeline.cache_hits"] = (len(looked_up) - len(missed), "count")
    m["pipeline.cache_misses"] = (len(missed), "count")
    m["pipeline.gp_loads"] = (len(idx("surrogate.load")), "count")
    m["pipeline.chain_io_s"] = (total("inference.save_chain")
                                + total("inference.load_chain"), "s")

    # forward
    evals_ms = sorted(dur(i) * 1e3 for i in idx("forward.eval"))
    m["forward.evals"] = (len(evals_ms), "count")
    m["forward.busy_s"] = (total("forward.eval"), "s")
    m["forward.eval_ms_p50"] = (_quantile(evals_ms, 0.5), "ms")
    m["forward.eval_ms_p90"] = (_quantile(evals_ms, 0.9), "ms")

    # doe: melted rows over forward evaluations made while building
    builds = [spans[i][4] for i in idx("doe.build")]
    attempted = len(under("forward.eval", "doe.build"))
    m["doe.build_self_s"] = (self_total("doe.build", {"forward.eval"}), "s")
    m["doe.redraws"] = (sum(b["redraws"] for b in builds), "count")
    m["doe.melt_ratio"] = (
        sum(b["n"] for b in builds) / attempted if attempted else 0.0, "1")

    # surrogate
    starts = [spans[i][4] for i in idx("surrogate.minimize")]
    nlml_ms = sorted(dur(i) * 1e3 for i in idx("surrogate.nlml"))
    m["surrogate.fit_s"] = (total("surrogate.fit"), "s")
    m["surrogate.starts"] = (len(starts), "count")
    m["surrogate.starts_failed"] = (sum(not s["success"] for s in starts), "count")
    m["surrogate.nfev"] = (sum(s["nfev"] for s in starts), "count")
    m["surrogate.nlml_calls"] = (len(nlml_ms), "count")
    m["surrogate.nlml_ms_p50"] = (_quantile(nlml_ms, 0.5), "ms")
    m["surrogate.loocv_s"] = (total("surrogate.loocv"), "s")
    m["surrogate.load_s"] = (total("surrogate.load"), "s")
    predicts = idx("surrogate.predict")
    small = [i for i in predicts if spans[i][4] <= SMALL_BATCH_ROWS]
    large = [i for i in predicts if spans[i][4] > SMALL_BATCH_ROWS]
    large_s = sum(dur(i) for i in large)
    large_rows = sum(spans[i][4] for i in large)
    m["surrogate.predict_small.calls"] = (len(small), "count")
    m["surrogate.predict_small.us_p50"] = (
        _quantile(sorted(dur(i) * 1e6 for i in small), 0.5), "us")
    m["surrogate.predict_small.busy_s"] = (sum(dur(i) for i in small), "s")
    m["surrogate.predict_large.calls"] = (len(large), "count")
    m["surrogate.predict_large.busy_s"] = (large_s, "s")
    m["surrogate.predict_large.us_per_krow"] = (
        large_s / large_rows * 1e9 if large_rows else 0.0, "us")

    # sensitivity: self time is bootstrap, correlations and sampling
    m["sensitivity.sa_s"] = (total("sensitivity.sa"), "s")
    m["sensitivity.self_s"] = (
        self_total("sensitivity.sa", {"surrogate.predict"}), "s")
    m["sensitivity.rows"] = (
        sum(spans[i][4] for i in under("surrogate.predict", "sensitivity.sa")),
        "count")

    # inference: p50 over in-box calls, which are the ones that predict
    chains = [spans[i][4] for i in idx("inference.am")]
    steps = sum(c["steps"] for c in chains)
    logpost = idx("inference.logpost")
    inbox_us = sorted(dur(i) * 1e6 for i in logpost if spans[i][4])
    am_self = self_total("inference.am", {"inference.logpost"})
    m["inference.am_s"] = (total("inference.am"), "s")
    m["inference.am_overhead_us"] = (am_self / steps * 1e6 if steps else 0.0, "us")
    m["inference.logpost_calls"] = (len(logpost), "count")
    m["inference.logpost_neginf"] = (len(logpost) - len(inbox_us), "count")
    m["inference.logpost_us_p50"] = (_quantile(inbox_us, 0.5), "us")
    m["inference.inbox_ratio"] = (
        len(inbox_us) / len(logpost) if logpost else 0.0, "1")
    m["inference.accept_rate"] = (
        sum(c["accept_rate"] * c["steps"] for c in chains) / steps if steps
        else 0.0, "1")
    m["inference.summarize_s"] = (total("inference.summarize"), "s")

    # plots
    m["plots.emit_s"] = (total("plots.emit"), "s")
    m["plots.files"] = (sum(spans[i][4] for i in idx("plots.emit")), "count")

    m["trace.spans"] = (len(spans), "count")
    return m
