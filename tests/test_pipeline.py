"""Orchestration: configuration, staging, caching, reports, plots, CLI."""

import ast
import collections
import csv
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import synthetic_dataset, write_dataset
from meltcal import doe, inference, pipeline, plots, surrogate
from meltcal.cli import main as cli_main
from meltcal.domain import (
    CalibrationParams,
    ExperimentalDataset,
    PARAM_NAMES,
    PRIOR_NOMINAL,
    RandomStream,
    bundled_dataset_path,
    load_dataset,
)
from meltcal.forward import evaluate_reduced
from meltcal.pipeline import (
    McmcConfig,
    Pipeline,
    RunConfig,
    emit_plots,
    run_stage,
    validate_at_point,
)
from meltcal.simulator import ExternalModelSpec

NOMINAL = CalibrationParams.from_array(PRIOR_NOMINAL)


def small_config(out_dir: Path, **overrides) -> RunConfig:
    kwargs = dict(out_dir=str(out_dir), samples_per_condition=4, sa_n_base=256,
                  mcmc=McmcConfig(steps=1_500, burn=500, thin=10, adapt_start=100),
                  seed=7)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = small_config(out)
    report = run_stage(cfg, "run-all")
    return cfg, report


def _write_config(cfg: RunConfig, path: Path) -> None:
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")


def _report_sans_timestamp(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc["provenance"].pop("timestamp")
    return doc


def _stderr(result) -> str:
    try:
        return result.stderr
    except ValueError:  # older click merges the streams
        return result.output


def _count_computes(monkeypatch) -> collections.Counter:
    """Counts of each cached stage's computes from now on."""
    counts = collections.Counter()
    for name, stage in pipeline._STAGES.items():
        def compute(*args, _name=name, _compute=stage.compute):
            counts[_name] += 1
            return _compute(*args)

        monkeypatch.setitem(pipeline._STAGES, name,
                            dataclasses.replace(stage, compute=compute))
    return counts


def _edit_source(monkeypatch, module: str) -> None:
    """Stand in for an edit to ``module``'s source: its digest changes."""
    digests = pipeline._source_digests
    monkeypatch.setattr(pipeline, "_source_digests",
                        lambda: {**digests(), module: "edited"})


def _design_failure(tmp_path: Path, doc: dict | str) -> str:
    """stderr of the design command on config ``doc``, a document or its
    JSON text, which must fail and leave no output directory."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    result = CliRunner().invoke(cli_main, ["design", "--config", str(cfg_path),
                                           "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert not (tmp_path / "out").exists()
    return _stderr(result)


class TestRunConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = small_config(tmp_path)
        path = tmp_path / "cfg.json"
        _write_config(cfg, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert RunConfig.from_dict(doc).to_dict() == cfg.to_dict()

    def test_missing_dataset_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            small_config(tmp_path, dataset_path=str(tmp_path / "nope.csv"))

    def test_model_selection_validated(self):
        """``external`` selects the model; no key names it."""
        with pytest.raises(ValueError, match=r"^unknown config keys: model$"):
            RunConfig.from_dict({"model": "table"})

    def test_counts_validated(self, tmp_path):
        with pytest.raises(ValueError):
            small_config(tmp_path, samples_per_condition=1)
        with pytest.raises(ValueError):
            McmcConfig(steps=100, burn=10, thin=1, adapt_start=100)

    def test_memory_bound_counts_retained_states(self):
        """A long chain thinned hard fits: 2000 retained states and 2e8
        one-byte accept flags per chain, about 1 GB for the run, where every
        stored state would be 57.6 GB.  Loaded only, not run."""
        cfg = RunConfig.from_dict({"mcmc": {"steps": 2 * 10**8, "thin": 10**5}})
        assert len(range(cfg.mcmc.burn, cfg.mcmc.steps, cfg.mcmc.thin)) == 2_000
        with pytest.raises(ValueError, match=r"of 199999999750 retained states and "
                           r"4000000000000 accept flags each"):
            McmcConfig(steps=4_000_000_000_000)


class TestValidateAtPoint:
    @pytest.fixture(scope="class")
    def synthetic(self, dataset):
        return synthetic_dataset(dataset, evaluate_reduced, NOMINAL)

    def test_self_consistent_synthetic_data(self, synthetic):
        tab = validate_at_point(NOMINAL, synthetic, evaluate_reduced)
        assert tab["average_length_error_mm"] == pytest.approx(0.0, abs=1e-9)
        assert tab["average_depth_error_mm"] == pytest.approx(0.0, abs=1e-9)

    def test_perturbed_alpha_gives_positive_errors(self, synthetic):
        theta = NOMINAL
        bumped = dataclasses.replace(theta, alpha=theta.alpha + 0.1)
        tab = validate_at_point(bumped, synthetic, evaluate_reduced)
        assert all(r["length_error_mm"] > 0 for r in tab["rows"])


class TestRunCalibration:
    def test_artifacts_written(self, small_run):
        cfg, _ = small_run
        out = Path(cfg.out_dir)
        for name in ("training_set.csv", "gp_length.json", "gp_depth.json",
                     "surrogate_quality.json", "sensitivity.json", "chain.npz",
                     "validation_errors.json", "report.json"):
            assert (out / name).exists(), name

    def test_every_written_file_is_declared(self, tmp_path):
        """run-all leaves the stage table's artifacts, the stages' meta
        files, report.json and the figures with their CSV twins, and
        nothing else."""
        cfg = small_config(tmp_path / "out")
        run_stage(cfg, "run-all")
        out = Path(cfg.out_dir)
        figures = {p.name for p in out.glob("*.svg")}
        figures |= {Path(name).with_suffix(".csv").name for name in figures}
        declared = {a for stage in pipeline._STAGES.values() for a in stage.artifacts}
        declared |= {f"{pipeline._attr(name)}.meta.json" for name in pipeline._STAGES}
        assert {p.name for p in out.iterdir()} - figures == declared | {"report.json"}

    def test_report_averages_recompute_from_rows(self, small_run):
        _, report = small_run
        for point in ("prior_nominal", "posterior_mean"):
            tab = report["validation"][point]
            avg = np.mean([r["length_error_mm"] for r in tab["rows"]])
            assert tab["average_length_error_mm"] == pytest.approx(avg, rel=1e-12)

    def test_in_sample_label_present(self, small_run):
        _, report = small_run
        assert "in-sample" in report["validation"]["note"]

    def test_rerun_is_deterministic(self, small_run, tmp_path):
        cfg, _ = small_run
        cfg2 = dataclasses.replace(cfg, out_dir=str(tmp_path / "again"))
        run_stage(cfg2, "run-all")
        a = _report_sans_timestamp(Path(cfg.out_dir) / "report.json")
        b = _report_sans_timestamp(Path(cfg2.out_dir) / "report.json")
        assert a == b

    def test_report_independent_of_row_order(self, small_run, tmp_path):
        """run-all on a permuted copy of the bundled file, its rows
        renumbered 1..n, writes the bundled run's report."""
        cfg, _ = small_run
        header, *rows = bundled_dataset_path().read_text().splitlines()
        order = RandomStream(11).generator().permutation(len(rows))
        assert list(order) != sorted(order)
        permuted = tmp_path / "permuted.csv"
        permuted.write_text("\n".join(
            [header] + [f"{i}," + rows[k].split(",", 1)[1]
                        for i, k in enumerate(order, start=1)]) + "\n")
        cfg2 = dataclasses.replace(cfg, dataset_path=str(permuted),
                                   out_dir=str(tmp_path / "permuted"))
        run_stage(cfg2, "run-all")
        assert (_report_sans_timestamp(Path(cfg2.out_dir) / "report.json")
                == _report_sans_timestamp(Path(cfg.out_dir) / "report.json"))

    def test_cached_rerun_reproduces_report(self, tmp_path):
        cfg = small_config(tmp_path / "twice")
        run_stage(cfg, "run-all")
        first = _report_sans_timestamp(Path(cfg.out_dir) / "report.json")
        run_stage(cfg, "run-all")  # every stage from cache, the chain reloaded
        assert _report_sans_timestamp(Path(cfg.out_dir) / "report.json") == first

    def test_run_loads_each_artifact_at_most_once(self, tmp_path, monkeypatch):
        calls = {"load_chain": 0, "load_gp": 0}
        for module, name in ((inference, "load_chain"), (surrogate, "load_gp")):
            def counted(*args, _original=getattr(module, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cfg = small_config(tmp_path / "counted")
        run_stage(cfg, "run-all")  # later stages reuse what earlier ones computed
        assert calls == {"load_chain": 0, "load_gp": 0}
        run_stage(cfg, "run-all")  # every stage cached; only the report needs the chain
        assert calls == {"load_chain": 1, "load_gp": 0}

    def test_report_summarizes_the_stored_chain(self, tmp_path, monkeypatch):
        """A cached rerun computes no stage, and its report's posterior is
        summarized anew from the stored chain."""
        cfg = small_config(tmp_path / "out")
        run_stage(cfg, "run-all")
        computed = _count_computes(monkeypatch)
        monkeypatch.setattr(inference, "effective_sample_size", lambda series: 7.0)
        report = run_stage(cfg, "run-all")
        assert not computed
        ess = json.loads((tmp_path / "out" / "report.json").read_text())["posterior"]["ess"]
        assert ess == report["posterior"]["ess"] == [inference.CHAINS * 7.0] * 8

    def test_stage_by_stage_matches_run_all(self, tmp_path):
        whole = small_config(tmp_path / "whole")
        run_stage(whole, "run-all")
        staged = small_config(tmp_path / "staged")
        for stage in ("train", "validate-surrogate", "sa", "calibrate",
                      "validate", "report"):
            run_stage(staged, stage)  # a fresh Pipeline for each stage
        names = sorted(p.name for p in (tmp_path / "whole").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "staged").iterdir())
        for name in names:
            if name != "report.json":
                assert ((tmp_path / "whole" / name).read_bytes()
                        == (tmp_path / "staged" / name).read_bytes()), name
        assert (_report_sans_timestamp(tmp_path / "whole" / "report.json")
                == _report_sans_timestamp(tmp_path / "staged" / "report.json"))

    def test_report_independent_of_blas_threads(self, tmp_path):
        """run-all in fresh processes at OPENBLAS_NUM_THREADS 1, 2 and unset.

        The bundled design (N=130) is large enough for OpenBLAS to split
        the GP fit's factorizations over two threads.
        """
        cfg = small_config(tmp_path / "unused", samples_per_condition=10,
                           sa_n_base=1024, seed=0,
                           mcmc=McmcConfig(steps=3_000, burn=1_000, thin=10,
                                           adapt_start=1_000))
        cfg_path = tmp_path / "cfg.json"
        _write_config(cfg, cfg_path)
        src = str(Path(pipeline.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "2", None):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads_{threads}"
            subprocess.run([sys.executable, "-m", "meltcal.cli", "run-all",
                            "--config", str(cfg_path), "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            reports.append(_report_sans_timestamp(out / "report.json"))
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("sidecar", ["training_set.json"])
    def test_deleted_sidecar_recomputes_its_stage(self, small_run, tmp_path,
                                                  sidecar):
        cfg, _ = small_run
        out = tmp_path / "copy"
        shutil.copytree(cfg.out_dir, out)
        (out / sidecar).unlink()
        run_stage(dataclasses.replace(cfg, out_dir=str(out)), "run-all")
        assert (out / sidecar).exists()
        assert (_report_sans_timestamp(out / "report.json")
                == _report_sans_timestamp(Path(cfg.out_dir) / "report.json"))

    def test_deleting_chain_reuses_gp_bytes(self, small_run):
        cfg, _ = small_run
        out = Path(cfg.out_dir)
        gp_before = (out / "gp_length.json").read_bytes()
        chain_before = (out / "chain.npz").read_bytes()
        (out / "chain.npz").unlink()
        run_stage(cfg, "run-all")
        assert (out / "gp_length.json").read_bytes() == gp_before
        assert (out / "chain.npz").read_bytes() == chain_before

    def test_stale_stage_recomputed_on_config_change(self, small_run, tmp_path):
        cfg, _ = small_run
        out = tmp_path / "reseeded"
        import shutil
        shutil.copytree(cfg.out_dir, out)
        cfg2 = dataclasses.replace(cfg, out_dir=str(out), seed=8)
        p = Pipeline(cfg2)
        ts_a = p.design()
        ts_b = Pipeline(small_config(Path(cfg.out_dir))).design()
        assert not np.array_equal(ts_a.inputs_raw, ts_b.inputs_raw)

    def test_interrupted_save_recomputes_its_stage(self, tmp_path, monkeypatch):
        """A save that stops partway leaves no digest, so the next run
        recomputes the stage instead of loading a mix of two runs' files."""
        out = tmp_path / "out"
        assert Pipeline(small_config(out)).design().n == 52

        def save_csv_then_fail(ts, csv_path, json_path):
            doe.save_training_set(ts, csv_path, tmp_path / "elsewhere.json")
            raise OSError("save interrupted")

        with monkeypatch.context() as m:
            m.setitem(pipeline._STAGES, "design", dataclasses.replace(
                pipeline._STAGES["design"], save=save_csv_then_fail))
            with pytest.raises(OSError, match="save interrupted"):
                Pipeline(small_config(out, samples_per_condition=5)).design()
        assert Pipeline(small_config(out)).design().n == 52


class TestDigests:
    def test_config_digest_ignores_dataset_location(self, tmp_path):
        digests = []
        for sub in ("a", "b/c"):
            path = tmp_path / sub / "table3.csv"
            path.parent.mkdir(parents=True)
            shutil.copyfile(bundled_dataset_path(), path)
            cfg = small_config(tmp_path / "out", dataset_path=str(path))
            digests.append(Pipeline(cfg).config_digest())
        assert digests[0] == digests[1]

        base = load_dataset(bundled_dataset_path())
        first = dataclasses.replace(base.rows[0], length=base.rows[0].length * 1.01)
        edited = tmp_path / "edited.csv"
        write_dataset(ExperimentalDataset(rows=(first,) + base.rows[1:]), edited)
        cfg = small_config(tmp_path / "out", dataset_path=str(edited))
        assert Pipeline(cfg).config_digest() != digests[0]

    def test_integer_float_value_has_the_default_digests(self, tmp_path):
        out = str(tmp_path / "out")
        external = {"command_template": "sim {input} {output}"}
        default = Pipeline(RunConfig.from_dict({"external": external, "out_dir": out}))
        # JSON's 600 reads as the int 600, the default is the float 600.0
        read = Pipeline(RunConfig.from_dict({"external": {**external, "timeout": 600},
                                             "out_dir": out}))
        assert read.cfg.external.timeout == 600.0
        assert read.config_digest() == default.config_digest()
        assert read._stage_digest("design") == default._stage_digest("design")

    def test_design_digest_covers_external_spec(self, tmp_path):
        spec = ExternalModelSpec(command_template="sim {input} {output}",
                                 working_dir=tmp_path)
        other = dataclasses.replace(spec, command_template="sim2 {input} {output}")
        digests = {Pipeline(small_config(tmp_path, external=e))._stage_digest("design")
                   for e in (None, spec, other)}
        assert len(digests) == 3

    def test_external_digests_ignore_start_directory(self, tmp_path, monkeypatch):
        """Where a run starts, or where the simulator runs, is not part of
        what the design computes."""
        doc = {"external": {"command_template": "sim {input} {output}"},
               "out_dir": str(tmp_path / "out")}
        digests = set()
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            monkeypatch.chdir(tmp_path / sub)
            for cfg in (doc, {**doc, "external": {**doc["external"],
                                                  "working_dir": str(tmp_path / sub)}}):
                p = Pipeline(RunConfig.from_dict(cfg))
                digests.add((p._stage_digest("design"), p.config_digest()))
        assert len(digests) == 1

    def test_stage_reads_cover_the_package(self, tmp_path):
        """Every module but the CLI, the figures and the BLAS pin is read by
        some stage, the two forward models through ``model``; no stage reads
        a key that one of its upstream stages reads already."""
        keys = Pipeline(small_config(tmp_path)).keys
        modules = {path.name for path in Path(pipeline.__file__).parent.glob("*.py")}
        assert {key for key in keys if key.endswith(".py")} == modules
        reads = {key for stage in pipeline._STAGES.values() for key in stage.reads}
        assert reads <= set(keys)
        read_modules = {key for key in reads if key.endswith(".py")}
        assert read_modules <= modules
        assert modules - read_modules == {"cli.py", "plots.py", "blas.py", "forward.py",
                                          "simulator.py"}

        def ancestors(name):
            for up in pipeline._STAGES[name].upstream:
                yield up
                yield from ancestors(up)

        for name, stage in pipeline._STAGES.items():
            for up in ancestors(name):
                assert not set(stage.reads) & set(pipeline._STAGES[up].reads), (name, up)

    def test_stage_reads_cover_their_imports(self):
        """Each module a stage reads, pipeline.py aside, imports only package
        modules that the stage or an upstream stage reads, so an edit to any
        code the stage runs changes its digest.  The BLAS pin changes no
        result.  A stage that reads ``model`` reads forward.py or
        simulator.py, by the config, so both count as read there, and no
        other module may import either."""
        package = Path(pipeline.__file__).parent

        def imports(module):
            tree = ast.parse((package / module).read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    names = [node.module] if node.module else [a.name for a in node.names]
                    yield from (f"{name}.py" for name in names)

        def keyed(name):
            stage = pipeline._STAGES[name]
            return set(stage.reads).union(*map(keyed, stage.upstream))

        for name, stage in pipeline._STAGES.items():
            covered = keyed(name) | {"blas.py"}
            modules = [m for m in stage.reads if m.endswith(".py") and m != "pipeline.py"]
            if "model" in stage.reads:
                modules += ["forward.py", "simulator.py"]
            for module in modules:
                assert not set(imports(module)) - covered, (name, module)

    @pytest.mark.parametrize("module, recomputed", [
        ("forward.py", set(pipeline._STAGES)),
        # sa reads inference.py too: sensitivity.py imports its rank transform
        ("inference.py", {"sa", "calibrate", "validate"}),
        ("sensitivity.py", {"sa"}),
        ("simulator.py", set()),  # a reduced model's run runs no simulator
    ])
    def test_source_edit_recomputes_its_stages_once(self, small_run, tmp_path,
                                                    monkeypatch, module, recomputed):
        cfg, _ = small_run
        out = tmp_path / "copy"
        shutil.copytree(cfg.out_dir, out)
        cfg = dataclasses.replace(cfg, out_dir=str(out))
        computed = _count_computes(monkeypatch)
        _edit_source(monkeypatch, module)
        run_stage(cfg, "run-all")
        assert computed == {name: 1 for name in recomputed}
        run_stage(cfg, "run-all")  # the edited source's results are now fresh
        assert computed == {name: 1 for name in recomputed}

    def test_model_source_keys_the_design_unless_external(self, tmp_path,
                                                           monkeypatch):
        """The design keys on the forward model the config chooses: an edit
        to the reduced model keeps every simulator run, and an edit to the
        simulator's adapter keeps the reduced model's design."""
        spec = ExternalModelSpec(command_template="sim {input} {output}")
        configs = {"external": small_config(tmp_path, external=spec),
                   "reduced": small_config(tmp_path)}

        def design_digests():
            return {k: Pipeline(cfg)._stage_digest("design") for k, cfg in configs.items()}

        before = design_digests()
        for module, changed in (("forward.py", "reduced"), ("simulator.py", "external")):
            with monkeypatch.context() as m:
                _edit_source(m, module)
                after = design_digests()
            assert {k for k in after if after[k] != before[k]} == {changed}, module

    def test_train_alone_is_fresh_on_rerun(self, tmp_path, monkeypatch):
        """``train`` run alone, then run again, fits nothing."""
        cfg = small_config(tmp_path / "out")
        run_stage(cfg, "train")

        def fail(*args, **kwargs):
            raise AssertionError("stage recomputed")

        monkeypatch.setattr(surrogate, "fit_gp", fail)
        run_stage(cfg, "train")


class TestEmitPlots:
    def test_pairs_grid_panel_counts(self, small_run):
        cfg, _ = small_run
        svg = (Path(cfg.out_dir) / "posterior_pairs.svg").read_text()
        assert svg.count('stroke="#999"') == 8 + 28

    def test_parity_has_reference_line(self, small_run):
        cfg, _ = small_run
        svg = (Path(cfg.out_dir) / "parity_length.svg").read_text()
        assert "stroke-dasharray" in svg

    def test_every_figure_has_a_csv_twin(self, small_run, tmp_path):
        """Each figure but a trace has its own CSV; posterior_pairs.csv, one
        column per parameter, holds the states each trace plots."""
        cfg, _ = small_run
        out = Path(cfg.out_dir)
        for svg in out.glob("*.svg"):
            if not svg.name.startswith("trace_"):
                assert svg.with_suffix(".csv").exists(), svg.name
        assert not list(out.glob("trace_*.csv"))
        with open(out / "posterior_pairs.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(PARAM_NAMES)
        retained = inference.load_chain(out / "chain.npz").pooled_samples()
        for j, name in enumerate(PARAM_NAMES):
            series = retained[:, j]
            assert [row[j] for row in rows] == [format(v, ".6g") for v in series]
            plots.trace_plot(series, name, tmp_path / "trace.svg")
            assert ((tmp_path / "trace.svg").read_bytes()
                    == (out / f"trace_{name}.svg").read_bytes()), name

    def test_trace_and_acf_per_parameter(self, small_run):
        cfg, _ = small_run
        out = Path(cfg.out_dir)
        for name in PARAM_NAMES:
            assert (out / f"trace_{name}.svg").exists()
            assert (out / f"acf_{name}.svg").exists()

    def test_empty_chain_rejected(self, small_run, tmp_path):
        cfg, report = small_run
        dataset = load_dataset(bundled_dataset_path())
        with pytest.raises(ValueError, match="empty"):
            emit_plots(report, np.empty((0, 8)), dataset, tmp_path)

    def test_returns_each_svg_it_writes_once(self, small_run, tmp_path):
        cfg, report = small_run
        retained = inference.load_chain(Path(cfg.out_dir) / "chain.npz").pooled_samples()
        written = emit_plots(report, retained, Pipeline(cfg).dataset, tmp_path)
        assert len(written) == len(set(written)) == 21
        assert sorted(written) == sorted(tmp_path.glob("*.svg"))

    def test_pairs_scatter_paths_map_the_chain(self, small_run):
        """Each lower-triangle panel, row-major, is one path whose points
        are the thinned pooled states of columns j (x) and i (y), mapped
        from their full range into the panel's 95-pixel box."""
        cfg, _ = small_run
        out = Path(cfg.out_dir)
        svg = (out / "posterior_pairs.svg").read_text()
        assert "<circle" not in svg
        paths = re.findall(r'<path d="([^"]*)" fill="none" stroke="#1f77b4" '
                           r'stroke-width="2.4" stroke-linecap="round"/>', svg)
        assert svg.count("<path") == len(paths) == 28
        retained = inference.load_chain(out / "chain.npz").pooled_samples()
        kept = retained[::max(1, len(retained) // 500)]
        panels = [(i, j) for i in range(8) for j in range(i)]
        for d, (i, j) in zip(paths, panels):
            x0, y0 = 40 + j * (95 + 8), 40 + i * (95 + 8)
            lo_x, lo_y = retained[:, j].min(), retained[:, i].min()
            xs = x0 + (kept[:, j] - lo_x) / (retained[:, j].max() - lo_x) * 95
            ys = y0 + 95 - (kept[:, i] - lo_y) / (retained[:, i].max() - lo_y) * 95
            expected = [("%.6g" % x, "%.6g" % y) for x, y in zip(xs, ys)]
            assert re.findall(r"M(\S+) (\S+?)h0", d) == expected, (i, j)
            assert "".join(f"M{x} {y}h0" for x, y in expected) == d

    def test_parity_circles_map_the_csv(self, small_run):
        """Open circles sit at (measured, prior), filled ones at (measured,
        posterior), on axes that span the data padded by 5%."""
        cfg, _ = small_run
        out = Path(cfg.out_dir)
        for label in ("length", "depth"):
            data = np.loadtxt(out / f"parity_{label}.csv", delimiter=",", skiprows=1)
            lo, hi = data.min(), data.max()
            lo, hi = lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)
            svg = (out / f"parity_{label}.svg").read_text()
            for col, style in ((1, 'fill="none" stroke="#d62728"'), (2, 'fill="#1f77b4"')):
                centres = re.findall(rf'<circle cx="(\S+)" cy="(\S+)" r="3.0" {style}', svg)
                np.testing.assert_allclose(
                    np.array(centres, dtype=float),
                    np.c_[55 + (data[:, 0] - lo) / (hi - lo) * 350,
                          340 - (data[:, col] - lo) / (hi - lo) * 320], atol=1e-2)

    def test_acf_bar_tops_map_the_csv(self, small_run):
        """Bar k rises from the zero line to the lag-k autocorrelation, at
        the centre of its lag's slot."""
        cfg, _ = small_run
        out = Path(cfg.out_dir)
        for name in PARAM_NAMES:
            lags, acf = np.loadtxt(out / f"acf_{name}.csv", delimiter=",",
                                   skiprows=1, ndmin=2).T
            lo = min(0.0, acf.min())
            svg = (out / f"acf_{name}.svg").read_text()
            bars = re.findall(r'<line x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="(\S+)" '
                              r'stroke="#1f77b4" stroke-width="2.0"/>', svg)
            x1, y1, x2, y2 = np.array(bars, dtype=float).T
            zero = 200 - (0 - lo) / (1 - lo) * 180
            np.testing.assert_allclose(x1, x2)
            np.testing.assert_allclose(y1, zero, atol=1e-3)
            np.testing.assert_allclose(
                np.c_[x2, y2], np.c_[55 + (lags + 0.5) / lags.size * 350,
                                     200 - (acf - lo) / (1 - lo) * 180], atol=1e-2)


class TestCli:
    def test_design_succeeds(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg_path = tmp_path / "cfg.json"
        _write_config(cfg, cfg_path)
        result = CliRunner().invoke(cli_main, ["design", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "training_set.csv").exists()

    def test_missing_config_reports_io_error(self):
        result = CliRunner().invoke(cli_main, ["design", "--config", "/nope.json"])
        assert result.exit_code == 1
        err = _stderr(result)
        assert err.startswith("error:io:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("doc, key", [
        ({"seed": 1, "bogus": 2}, "bogus"),
        ({"threads": 2}, "threads"),
        ({"mcmc": {"steps": 2_000, "typo": 1}}, "mcmc.typo"),
        ({"mcmc": 5}, "mcmc"),
        ({"sa_n_base": 100}, "sa_n_base"),
        ({"mcmc": {"steps": 2_000, "burn": 1_900, "thin": 10}}, "mcmc.thin"),
        ({"mcmc": {"adapt_start": 50}}, "mcmc.adapt_start"),
        ({"mcmc": {"burn": 60_000}}, "mcmc.burn"),
        ({"mcmc": {"thin": 0}}, "mcmc.thin"),
        ({"constants": {"density": 7000}}, "constants"),
        pytest.param({"reduced": {"loss_correction": False}},
                     "unknown config keys: reduced", id="doc10-reduced.loss_correction"),
        pytest.param({"likelihood": {"outputs": "length"}},
                     "unknown config keys: likelihood", id="doc11-likelihood.outputs"),
        ({"likelihood": {"include_code_uncertainty": True}},
         "unknown config keys: likelihood"),
        ({"model": "table"}, "unknown config keys: model"),
        ({"run_table_path": "runs.csv"}, "unknown config keys: run_table_path"),
        ({"external": {"command_template": 'sim "{input} {output}'}},
         "cannot be split into words"),
        pytest.param({"mcmc": {"steps": 4_000_000_000_000}},
                     "mcmc.steps 4000000000000 needs", id="doc16-chain-past-memory"),
        pytest.param('{"seed": 1, "seed": 2, "samples_per_condition": 2}',
                     "config repeats key 'seed'", id="repeated-seed"),
        pytest.param('{"mcmc": {"thin": 10, "thin": 20}}',
                     "config repeats key 'thin'", id="repeated-mcmc.thin"),
        pytest.param('{"external": {"command_template": "sim {input} {output}", '
                     '"timeout": 5, "timeout": 6}}',
                     "config repeats key 'timeout'", id="repeated-external.timeout"),
    ])
    def test_malformed_config_reports_config_error(self, tmp_path, doc, key):
        err = _design_failure(tmp_path, doc)
        assert err.startswith("error:config:") and key in err, err

    @pytest.mark.parametrize("doc, key", [
        ({"seed": "x"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"samples_per_condition": True}, "samples_per_condition"),
        ({"sa_n_base": "4096"}, "sa_n_base"),
        ({"mcmc": {"steps": 2e4}}, "mcmc.steps"),
        ({"mcmc": {"thin": None}}, "mcmc.thin"),
        ({"mcmc": {"steps": 10**30}}, "mcmc.steps"),
    ])
    def test_mistyped_config_reports_config_error(self, tmp_path, doc, key):
        err = _design_failure(tmp_path, doc)
        assert err.startswith(f"error:config: {key} must be an integer"), err

    @pytest.mark.parametrize("doc, message", [
        ({"external": {"command_template": "sim {input} {output}", "timeout": math.nan}},
         "external.timeout must be a finite number, got nan"),
        ({"external": {"command_template": "sim {input} {output}", "timeout": math.inf}},
         "external.timeout must be a finite number, got inf"),
        pytest.param({"external": {"command_template": "sim {input} {output}",
                                   "timeout": True}},
                     "external.timeout must be a number, got True",
                     id="doc2-external.timeout-true"),
        ({"external": {"command_template": "sim {input} {output}", "timeout": "5"}},
         "external.timeout must be a number"),
        ({"dataset_path": 5}, "dataset_path must be a string"),
        pytest.param({"external": {"command_template": "sim {input} {output}",
                                   "timeout": -math.inf}},
                     "external.timeout must be a finite number, got -inf",
                     id="doc5-external.timeout--Infinity"),
        pytest.param({"external": {"command_template": "sim {input} {output}",
                                   "timeout": 10**400}},
                     f"external.timeout must be a finite number, got {10**400}",
                     id="doc6-external.timeout-1e400"),
    ])
    def test_mistyped_section_value_reports_config_error(self, tmp_path, doc,
                                                          message):
        err = _design_failure(tmp_path, doc)
        assert err.startswith(f"error:config: {message}"), err

    def test_bad_index_column_reports_dataset_error(self, tmp_path):
        data = tmp_path / "swapped.csv"
        data.write_text("index,power_W,beam_radius_mm,pulse_ms,length_mm,depth_mm\n"
                        "2,530,0.159,4,0.625,0.190\n1,610,0.159,4,0.700,0.250\n")
        err = _design_failure(tmp_path, {"dataset_path": str(data)})
        assert err.startswith("error:dataset:") and str(data) in err, err
        assert "in ascending order" in err, err

    def test_out_flag_beats_config_out_dir(self, tmp_path):
        cfg = small_config(tmp_path / "ignored")
        cfg_path = tmp_path / "cfg.json"
        _write_config(cfg, cfg_path)
        flag_out = tmp_path / "flag_out"
        result = CliRunner().invoke(
            cli_main, ["design", "--config", str(cfg_path), "--out", str(flag_out)])
        assert result.exit_code == 0, result.output
        assert (flag_out / "training_set.csv").exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize("seed", [2**64, -2**63 - 1])
    def test_seed_flag_outside_int64_reports_config_error(self, tmp_path, seed):
        """--seed is checked as a config file's seed is; masked to 64 bits,
        2**64 would run as seed 0."""
        out = tmp_path / "out"
        result = CliRunner().invoke(cli_main, ["design", "--out", str(out),
                                               "--seed", str(seed)])
        assert result.exit_code == 1
        assert _stderr(result) == ("error:config: seed must be an integer from "
                                   f"-2**63 to 2**63 - 1, got {seed}\n")
        assert not out.exists()

    def test_environment_does_not_move_the_output(self, tmp_path):
        """Only the config and --out choose the output directory."""
        cfg = small_config(tmp_path / "out")
        cfg_path = tmp_path / "cfg.json"
        _write_config(cfg, cfg_path)
        result = CliRunner().invoke(cli_main, ["design", "--config", str(cfg_path)],
                                    env={"MELTCAL_OUT": str(tmp_path / "env_out")})
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "training_set.csv").exists()
        assert not (tmp_path / "env_out").exists()

    def test_stage_failure_keeps_its_cause_category(self, tmp_path):
        script = tmp_path / "sim.sh"
        script.write_text("#!/bin/sh\nexit 3\n")
        script.chmod(0o755)
        spec = ExternalModelSpec(command_template=f"{script} {{input}} {{output}}",
                                 working_dir=tmp_path, timeout=10.0)
        cfg_path = tmp_path / "cfg.json"
        _write_config(small_config(tmp_path / "out", external=spec), cfg_path)
        result = CliRunner().invoke(cli_main, ["design", "--config", str(cfg_path)])
        assert result.exit_code == 1
        err = _stderr(result)
        assert err.startswith("error:adapter:") and "status 3" in err, err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("stage, artifact, damage, category, detail", [
        ("sa", "sensitivity.json", lambda data: data[:len(data) // 2], "stage", ""),
        ("calibrate", "chain.npz", lambda data: b"garbage", "stage", ""),
        ("design", "training_set.csv", lambda data: b"bogus\n", "training",
         ": bad header ['bogus']"),
        ("design", "training_set.csv",
         lambda data: data.rstrip(b"\n").rsplit(b",", 1)[0] + b"\n", "training",
         ": row 53 has 12 cells, expected 13"),
        ("design", "training_set.csv",
         lambda data: data.rstrip(b"\n").rsplit(b",", 1)[0] + b",nan\n", "training",
         ": row 53, column 'depth_m': non-finite value 'nan'"),
        ("design", "training_set.csv", lambda data: data.split(b"\n", 1)[0] + b"\n",
         "training", ": no data rows"),
    ], ids=["sa", "calibrate", "design", "design-short-row", "design-nan",
            "design-header-only"])
    def test_unloadable_artifact_names_its_stage_and_file(self, small_run, tmp_path,
                                                          stage, artifact, damage,
                                                          category, detail):
        """A cached artifact that fails to load is a failure of its stage,
        named with the file; a typed cause keeps its category, and its
        message follows the file name."""
        cfg, _ = small_run
        out = tmp_path / "copy"
        shutil.copytree(cfg.out_dir, out)
        path = out / artifact
        path.write_bytes(damage(path.read_bytes()))
        cfg_path = tmp_path / "cfg.json"
        _write_config(dataclasses.replace(cfg, out_dir=str(out)), cfg_path)
        result = CliRunner().invoke(cli_main, [stage, "--config", str(cfg_path)])
        assert result.exit_code == 1
        err = _stderr(result)
        assert err.startswith(f"error:{category}: stage {stage!r}: cannot load"), err
        assert str(path) + detail in err and len(err.strip().splitlines()) == 1, err

    def test_all_subcommands_registered(self):
        result = CliRunner().invoke(cli_main, ["--help"])
        for name in ("design", "train", "validate-surrogate", "sa",
                     "calibrate", "validate", "report", "run-all"):
            assert name in result.output
