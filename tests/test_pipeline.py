"""Orchestration: configuration, staging, caching, reports, plots, CLI."""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from meltcal import doe, inference, pipeline, sensitivity, surrogate
from meltcal.cli import main as cli_main
from meltcal.doe import build_training_set
from meltcal.domain import (
    ExperimentRow,
    ExperimentalDataset,
    PARAM_NAMES,
    RandomStream,
    bundled_dataset_path,
    load_dataset,
    prior_from_table2,
    write_dataset,
)
from meltcal.forward import ExternalModelSpec, reduced_model
from meltcal.inference import adaptive_metropolis, burn_thin
from meltcal.pipeline import (
    McmcConfig,
    Pipeline,
    RunConfig,
    emit_plots,
    run_calibration,
    run_stage,
    validate_at_point,
)

PRIOR = prior_from_table2()


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
    report = run_calibration(cfg)
    return cfg, report


def _report_sans_timestamp(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc["provenance"].pop("timestamp")
    return doc


def _stderr(result) -> str:
    try:
        return result.stderr
    except ValueError:  # older click merges the streams
        return result.output


class TestRunConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = small_config(tmp_path)
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        assert RunConfig.from_json(path).to_dict() == cfg.to_dict()

    def test_missing_dataset_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            small_config(tmp_path, dataset_path=str(tmp_path / "nope.csv"))

    def test_model_selection_validated(self, tmp_path):
        with pytest.raises(ValueError):
            small_config(tmp_path, model="quantum")
        with pytest.raises(ValueError):
            small_config(tmp_path, model="external")

    def test_counts_validated(self, tmp_path):
        with pytest.raises(ValueError):
            small_config(tmp_path, samples_per_condition=1)
        with pytest.raises(ValueError):
            McmcConfig(steps=100, burn=10, thin=1, adapt_start=100)


class TestValidateAtPoint:
    def test_self_consistent_synthetic_data(self, tmp_path):
        model = reduced_model()
        theta = PRIOR.nominal_params()
        base = load_dataset(bundled_dataset_path())
        rows = tuple(ExperimentRow(index=r.index, design=r.design,
                                   length=model(r.design, theta).length,
                                   depth=model(r.design, theta).depth)
                     for r in base)
        synth = ExperimentalDataset(rows=rows)
        tab = validate_at_point(theta, synth, model)
        assert tab["average_length_error_mm"] == pytest.approx(0.0, abs=1e-9)
        assert tab["average_depth_error_mm"] == pytest.approx(0.0, abs=1e-9)

    def test_perturbed_alpha_gives_positive_errors(self):
        model = reduced_model()
        theta = PRIOR.nominal_params()
        base = load_dataset(bundled_dataset_path())
        rows = tuple(ExperimentRow(index=r.index, design=r.design,
                                   length=model(r.design, theta).length,
                                   depth=model(r.design, theta).depth)
                     for r in base)
        synth = ExperimentalDataset(rows=rows)
        bumped = dataclasses.replace(theta, alpha=theta.alpha + 0.1)
        tab = validate_at_point(bumped, synth, model)
        assert all(r["length_error_mm"] > 0 for r in tab["rows"])


class TestRunCalibration:
    def test_artifacts_written(self, small_run):
        cfg, _ = small_run
        out = Path(cfg.out_dir)
        for name in ("training_set.csv", "gp_length.json", "gp_depth.json",
                     "surrogate_quality.json", "sensitivity.json",
                     "sensitivity.csv", "chain.csv", "posterior.json",
                     "validation_errors.json", "report.json"):
            assert (out / name).exists(), name

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
        run_calibration(cfg2)
        a = _report_sans_timestamp(Path(cfg.out_dir) / "report.json")
        b = _report_sans_timestamp(Path(cfg2.out_dir) / "report.json")
        assert a == b

    def test_cached_rerun_reproduces_report(self, tmp_path):
        cfg = small_config(tmp_path / "twice")
        run_calibration(cfg)
        first = _report_sans_timestamp(Path(cfg.out_dir) / "report.json")
        run_calibration(cfg)  # every stage from cache, the chain reloaded
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
        run_calibration(cfg)  # later stages reuse what earlier ones computed
        assert calls == {"load_chain": 0, "load_gp": 0}
        run_calibration(cfg)  # every stage cached; only the report needs the chain
        assert calls == {"load_chain": 1, "load_gp": 0}

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

    @pytest.mark.parametrize("sidecar", ["training_set.json", "chain.json"])
    def test_deleted_sidecar_recomputes_its_stage(self, small_run, tmp_path,
                                                  sidecar):
        cfg, _ = small_run
        out = tmp_path / "copy"
        shutil.copytree(cfg.out_dir, out)
        (out / sidecar).unlink()
        run_calibration(dataclasses.replace(cfg, out_dir=str(out)))
        assert (out / sidecar).exists()
        assert (_report_sans_timestamp(out / "report.json")
                == _report_sans_timestamp(Path(cfg.out_dir) / "report.json"))

    def test_deleting_chain_reuses_gp_bytes(self, small_run):
        cfg, _ = small_run
        out = Path(cfg.out_dir)
        gp_before = (out / "gp_length.json").read_bytes()
        chain_before = (out / "chain.csv").read_bytes()
        (out / "chain.csv").unlink()
        run_calibration(cfg)
        assert (out / "gp_length.json").read_bytes() == gp_before
        assert (out / "chain.csv").read_bytes() == chain_before

    def test_stale_stage_recomputed_on_config_change(self, small_run, tmp_path):
        cfg, _ = small_run
        out = tmp_path / "reseeded"
        import shutil
        shutil.copytree(cfg.out_dir, out)
        cfg2 = dataclasses.replace(cfg, out_dir=str(out), seed=8)
        p = Pipeline(cfg2)
        ts_a, _ = p.design()
        ts_b, _ = Pipeline(small_config(Path(cfg.out_dir))).design()
        assert not np.array_equal(ts_a.inputs_raw, ts_b.inputs_raw)


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

    def test_design_digest_covers_external_spec(self, tmp_path):
        spec = ExternalModelSpec(command_template="sim {input} {output}",
                                 working_dir=tmp_path)
        other = dataclasses.replace(spec, command_template="sim2 {input} {output}")
        digests = {Pipeline(small_config(tmp_path, external=e))._stage_digest("design")
                   for e in (None, spec, other)}
        assert len(digests) == 3

    def test_design_recomputed_when_run_table_changes(self, tmp_path):
        table = tmp_path / "runs.csv"
        cfg = small_config(tmp_path / "out", model="table", run_table_path=str(table))
        ts_a, _ = Pipeline(cfg).design()
        training = tmp_path / "out" / "training_set.csv"
        stamp = training.stat().st_mtime_ns
        Pipeline(cfg).design()  # the table the design wrote is a cache hit
        assert training.stat().st_mtime_ns == stamp

        lines = table.read_text().splitlines()
        col = lines[0].split(",").index("length_mm")
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[col] = format(1.5 * float(row[col]), ".12g")
        table.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        ts_b, _ = Pipeline(cfg).design()
        np.testing.assert_allclose(ts_b.outputs[:, 0], 1.5 * ts_a.outputs[:, 0],
                                   rtol=1e-9)

    def test_table_model_stage_alone_is_fresh_on_rerun(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path / "out", model="table",
                           run_table_path=str(tmp_path / "runs.csv"))
        run_stage(cfg, "train")  # the design first reads the table here

        def fail(*args, **kwargs):
            raise AssertionError("stage recomputed")

        monkeypatch.setattr(surrogate, "fit_gp", fail)
        run_stage(cfg, "train")

    def test_table_model_rerun_resumes_and_replay_reproduces(self, tmp_path,
                                                            monkeypatch):
        table = tmp_path / "runs.csv"
        cfg = small_config(tmp_path / "out", model="table", run_table_path=str(table))
        run_calibration(cfg)
        first = _report_sans_timestamp(tmp_path / "out" / "report.json")
        rows = table.read_text().count("\n")

        # validate added rows to the table; no stage may recompute for that
        def fail(*args, **kwargs):
            raise AssertionError("stage recomputed")

        with monkeypatch.context() as m:
            for module, name in ((doe, "build_training_set"), (surrogate, "fit_gp"),
                                 (sensitivity, "sa_on_surrogate"),
                                 (inference, "adaptive_metropolis"),
                                 (pipeline, "validate_at_point")):
                m.setattr(module, name, fail)
            run_calibration(cfg)
        assert _report_sans_timestamp(tmp_path / "out" / "report.json") == first

        # a new output dir replays every evaluation from the table and
        # sees the values the first run saw
        replay = dataclasses.replace(cfg, out_dir=str(tmp_path / "replay"))
        run_calibration(replay)
        assert table.read_text().count("\n") == rows
        assert _report_sans_timestamp(tmp_path / "replay" / "report.json") == first


class TestEmitPlots:
    def test_pairs_grid_panel_counts(self, small_run):
        cfg, _ = small_run
        svg = (Path(cfg.out_dir) / "posterior_pairs.svg").read_text()
        assert svg.count('stroke="#999"') == 8 + 28

    def test_parity_has_reference_line(self, small_run):
        cfg, _ = small_run
        svg = (Path(cfg.out_dir) / "parity_length.svg").read_text()
        assert "stroke-dasharray" in svg

    def test_every_figure_has_a_csv_twin(self, small_run):
        cfg, _ = small_run
        out = Path(cfg.out_dir)
        for svg in out.glob("*.svg"):
            assert svg.with_suffix(".csv").exists(), svg.name

    def test_trace_and_acf_per_parameter(self, small_run):
        cfg, _ = small_run
        out = Path(cfg.out_dir)
        for name in PARAM_NAMES:
            assert (out / f"trace_{name}.svg").exists()
            assert (out / f"acf_{name}.svg").exists()

    def test_empty_chain_rejected(self, small_run, tmp_path):
        cfg, report = small_run
        chain = adaptive_metropolis(lambda x: -0.5 * float(x @ x), np.zeros(2),
                                    200, 100, RandomStream(0))
        empty = burn_thin(chain, 199, 1)
        empty = dataclasses.replace(empty, samples=empty.samples[:0],
                                    log_post=empty.log_post[:0],
                                    accepted=empty.accepted[:0])
        dataset = load_dataset(bundled_dataset_path())
        with pytest.raises(ValueError, match="empty"):
            emit_plots(report, empty, dataset, tmp_path)


class TestCli:
    def test_design_succeeds(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
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
    ])
    def test_malformed_config_reports_config_error(self, tmp_path, doc, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        result = CliRunner().invoke(cli_main, ["design", "--config", str(cfg_path),
                                               "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        err = _stderr(result)
        assert err.startswith("error:config:") and key in err, err
        assert not (tmp_path / "out").exists()

    def test_env_var_overrides_out_dir(self, tmp_path):
        cfg = small_config(tmp_path / "ignored")
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
        env_out = tmp_path / "env_out"
        result = CliRunner().invoke(cli_main, ["design", "--config", str(cfg_path)],
                                    env={"MELTCAL_OUT": str(env_out)})
        assert result.exit_code == 0, result.output
        assert (env_out / "training_set.csv").exists()

    def test_out_flag_beats_env_var(self, tmp_path):
        cfg = small_config(tmp_path / "ignored")
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
        flag_out = tmp_path / "flag_out"
        result = CliRunner().invoke(
            cli_main, ["design", "--config", str(cfg_path), "--out", str(flag_out)],
            env={"MELTCAL_OUT": str(tmp_path / "env_out2")})
        assert result.exit_code == 0, result.output
        assert (flag_out / "training_set.csv").exists()

    def test_all_subcommands_registered(self):
        result = CliRunner().invoke(cli_main, ["--help"])
        for name in ("design", "train", "validate-surrogate", "sa",
                     "calibrate", "validate", "report", "run-all"):
            assert name in result.output
