"""Tests of the benchmark's tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from tracer import TARGETS, Tracer, layer_metrics, resolve, self_times  # noqa: E402


def _span(name, start, end, parent, note=None):
    return [name, start, end, parent, note]


# report [0, 10] > calibrate [1, 8] > am [2, 7] > logpost [3, 4], [5, 6.5]
#                > emit [8.5, 9.5]
SPANS = [
    _span("pipeline.report", 0.0, 10.0, -1),
    _span("pipeline.calibrate", 1.0, 8.0, 0),
    _span("inference.am", 2.0, 7.0, 1, {"steps": 4, "accept_rate": 0.5}),
    _span("inference.logpost", 3.0, 4.0, 2, True),
    _span("inference.logpost", 5.0, 6.5, 2, False),
    _span("plots.emit", 8.5, 9.5, 0, 21),
]


def test_self_times_on_hand_built_tree():
    every = {s[0] for s in SPANS}
    assert self_times(SPANS, every) == pytest.approx([2.0, 2.0, 2.5, 1.0, 1.5, 1.0])
    # spans outside the kept set are transparent: their time stays with the
    # nearest kept ancestor
    stages = {"pipeline.report", "pipeline.calibrate"}
    assert self_times(SPANS, stages) == pytest.approx([3.0, 7.0, 0, 0, 0, 0])
    assert self_times(SPANS, {"pipeline.report", "inference.logpost"}) == \
        pytest.approx([7.5, 0, 0, 1.0, 1.5, 0])


def test_layer_metrics_on_hand_built_tree():
    m = {k: v for k, (v, _) in layer_metrics(SPANS).items()}
    assert m["pipeline.report_s"] == pytest.approx(3.0)
    assert m["pipeline.calibrate_s"] == pytest.approx(7.0)
    assert m["pipeline.cache_misses"] == 1 and m["pipeline.cache_hits"] == 0
    assert m["inference.am_overhead_us"] == pytest.approx(2.5 / 4 * 1e6)
    assert m["inference.logpost_calls"] == 2
    assert m["inference.logpost_neginf"] == 1
    assert m["inference.inbox_ratio"] == pytest.approx(0.5)
    assert m["inference.logpost_us_p50"] == pytest.approx(1e6)
    assert m["plots.files"] == 21
    assert m["sensitivity.sa_s"] == 0


def _small_config(out: Path):
    from meltcal.pipeline import McmcConfig, RunConfig

    return RunConfig(out_dir=str(out), seed=3, samples_per_condition=2,
                     sa_n_base=256,
                     mcmc=McmcConfig(steps=600, burn=100, thin=2, adapt_start=100))


def _canonical(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc["provenance"].pop("timestamp")
    return doc


def _attributes():
    return [owner.__dict__[leaf] for owner, leaf in
            (resolve(module, attr) for module, attr, _, _ in TARGETS)]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    from meltcal.pipeline import run_stage

    base = tmp_path_factory.mktemp("runs")
    before = _attributes()
    run_stage(_small_config(base / "plain"), "run-all")
    with Tracer() as tracer:
        run_stage(_small_config(base / "traced"), "run-all")
    return base, before, tracer


def test_wrappers_restored_after_traced_run(runs):
    _, before, tracer = runs
    assert tracer.names, "the traced run recorded no spans"
    after = _attributes()
    assert all(a is b for a, b in zip(before, after))


def test_tracing_is_transparent(runs):
    base, _, tracer = runs
    assert (_canonical(base / "plain" / "report.json")
            == _canonical(base / "traced" / "report.json"))
    m = {k: v for k, (v, _) in layer_metrics(tracer.spans()).items()}
    assert m["inference.logpost_calls"] == 601  # initial state + 600 steps
    assert m["forward.evals"] >= 2 * 13 + 2 * 13  # design + validate
    assert m["surrogate.starts"] == 16  # 8 L-BFGS starts per output
