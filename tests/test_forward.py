"""Reduced conduction model, external adapter, and run-table replay."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fd_oracle import solve_fd
import forward_reference
from meltcal import forward
from meltcal.domain import (
    CalibrationParams,
    DesignVars,
    MeltPoolSize,
    prior_from_table2,
)
from meltcal.forward import (
    AdapterError,
    ExternalModelSpec,
    NumericsError,
    RunTable,
    _max_extent,
    _RiseField,
    _Source,
    effective_conductivity,
    evaluate_external,
    evaluate_reduced,
    loss_fraction,
    table_model,
    temperature_rise,
)
from meltcal.pipeline import RunConfig
from run_tables import write_run_table

NOMINAL = prior_from_table2().nominal_params()
COND1 = DesignVars(power=530.0, beam_radius=1.59e-4, pulse_duration=4e-3)


class TestTemperatureRise:
    def test_zero_time_is_ambient(self):
        t = temperature_rise(COND1, NOMINAL, 0.0, 0.0, 0.0)
        assert t == forward.AMBIENT_TEMPERATURE

    def test_far_field_is_ambient(self):
        t = temperature_rise(COND1, NOMINAL, 0.0, 1.0,
                             10.0 * COND1.pulse_duration)
        assert abs(t - forward.AMBIENT_TEMPERATURE) < 1e-9

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            temperature_rise(COND1, NOMINAL, -1e-5, 0.0, 1e-3)

    def test_matches_fd_oracle_at_pulse_end(self):
        fd = solve_fd(COND1, NOMINAL, t_end=COND1.pulse_duration,
                      samples=1, cells_per_radius=16)
        t_fd = fd.temperature[0, 0]
        t_an = temperature_rise(COND1, NOMINAL, 0.0, 0.0,
                                COND1.pulse_duration)
        rise_fd = t_fd - forward.AMBIENT_TEMPERATURE
        rise_an = t_an - forward.AMBIENT_TEMPERATURE
        assert abs(rise_an - rise_fd) / rise_fd < 0.02

    def test_monotone_in_r_and_z(self):
        t_p = COND1.pulse_duration
        rs = np.linspace(0.0, 5e-4, 12)
        temps_r = [temperature_rise(COND1, NOMINAL, r, 0.0, t_p)
                   for r in rs]
        temps_z = [temperature_rise(COND1, NOMINAL, 0.0, z, t_p)
                   for z in rs]
        assert all(a >= b for a, b in zip(temps_r, temps_r[1:]))
        assert all(a >= b for a, b in zip(temps_z, temps_z[1:]))

    def test_linear_in_absorbed_power(self):
        """The rise scales everywhere with alpha*P*(1 - loss_fraction)."""
        double = dataclasses.replace(COND1, power=2.0 * COND1.power)
        q1, q2 = (NOMINAL.alpha * d.power * (1.0 - loss_fraction(d, NOMINAL))
                  for d in (COND1, double))
        assert q2 != 2.0 * q1  # the losses do not scale with the power
        for (r, z, t) in [(0.0, 0.0, 4e-3), (2e-4, 0.0, 2e-3),
                          (0.0, 1e-4, 6e-3), (1e-4, 1e-4, 4e-3)]:
            rise1 = temperature_rise(COND1, NOMINAL, r, z, t) \
                - forward.AMBIENT_TEMPERATURE
            rise2 = temperature_rise(double, NOMINAL, r, z, t) \
                - forward.AMBIENT_TEMPERATURE
            assert rise2 / rise1 == pytest.approx(q2 / q1, rel=1e-9)


class TestEffectiveConductivity:
    def test_increasing_in_gamma_t_magnitude(self):
        stronger = dataclasses.replace(NOMINAL, gamma_t=NOMINAL.gamma_t * 1.1)
        assert (effective_conductivity(COND1, stronger)
                > effective_conductivity(COND1, NOMINAL))

    def test_decreasing_in_viscosity(self):
        thicker = dataclasses.replace(NOMINAL, mu_l=NOMINAL.mu_l * 2.0)
        assert (effective_conductivity(COND1, thicker)
                < effective_conductivity(COND1, NOMINAL))


class TestEvaluateReduced:
    def test_vanishing_source_does_not_melt(self):
        weak = dataclasses.replace(COND1, power=1e-6)
        size = evaluate_reduced(weak, NOMINAL)
        assert size == MeltPoolSize(length=0.0, depth=0.0, melted=False)

    def test_monotone_in_alpha(self):
        low = dataclasses.replace(NOMINAL, alpha=0.135)
        high = dataclasses.replace(NOMINAL, alpha=0.405)
        s_low = evaluate_reduced(COND1, low)
        s_high = evaluate_reduced(COND1, high)
        assert s_high.length > s_low.length
        assert s_high.depth > s_low.depth

    def test_monotone_in_power(self, dataset):
        designs = dataset.design_matrix()
        base = DesignVars(*designs[4])
        more = dataclasses.replace(base, power=base.power * 1.3)
        s0 = evaluate_reduced(base, NOMINAL)
        s1 = evaluate_reduced(more, NOMINAL)
        assert s1.length >= s0.length and s1.depth >= s0.depth

    def test_quadrature_converged(self, dataset, monkeypatch):
        """Doubling the node count moves dims by < 0.5% at every condition."""
        coarse = [evaluate_reduced(row.design, NOMINAL) for row in dataset]
        monkeypatch.setattr(forward, "QUAD_POINTS", 128)
        for row, s64 in zip(dataset, coarse):
            s128 = evaluate_reduced(row.design, NOMINAL)
            assert s128.length == pytest.approx(s64.length, rel=5e-3)
            assert s128.depth == pytest.approx(s64.depth, rel=5e-3)

    def test_all_conditions_melt_at_nominal(self, dataset):
        for row in dataset:
            assert evaluate_reduced(row.design, NOMINAL).melted

    def test_lower_melt_temperature_gives_larger_pool(self, monkeypatch):
        s0 = evaluate_reduced(COND1, NOMINAL)
        monkeypatch.setattr(forward, "MELT_TEMPERATURE", forward.MELT_TEMPERATURE - 100.0)
        s1 = evaluate_reduced(COND1, NOMINAL)
        assert s1.length > s0.length and s1.depth > s0.depth


class TestAgainstReference:
    """evaluate_reduced against a verbatim copy of its form that rebuilt
    every term of the quadrature on each probe: exactly the same sizes."""

    @staticmethod
    def assert_same(design, theta):
        assert (evaluate_reduced(design, theta)
                == forward_reference.evaluate_reduced(design, theta))

    def test_bundled_conditions_at_nominal(self, dataset):
        for row in dataset:
            self.assert_same(row.design, NOMINAL)

    def test_prior_draws(self, dataset):
        prior = prior_from_table2()
        rng = np.random.default_rng(11)
        for row in dataset:
            for _ in range(16):
                theta = CalibrationParams.from_array(
                    prior.lower() + rng.random(8) * (prior.upper() - prior.lower()))
                self.assert_same(row.design, theta)

    def test_rise_along_each_axis_is_bitwise_the_reference(self, dataset):
        for row in dataset:
            t_p, radius = row.design.pulse_duration, row.design.beam_radius
            times = np.linspace(t_p, 2.0 * t_p, forward.TIME_SAMPLES)
            x = np.linspace(0.0, 4.0 * radius, forward.TIME_SAMPLES)
            zero = np.zeros_like(x)
            field = _RiseField(_Source.build(row.design, NOMINAL), times)
            for r, z in ((x, zero), (zero, x)):
                want = forward_reference._rise_grid(
                    row.design, NOMINAL, forward_reference.ReducedModelConfig(),
                    r, z, times)
                assert np.array_equal(field(r, z), want)

    def test_no_melt(self):
        weak = dataclasses.replace(COND1, power=1e-6)
        assert not evaluate_reduced(weak, NOMINAL).melted
        self.assert_same(weak, NOMINAL)

    @pytest.mark.parametrize("changes", [{"QUAD_POINTS": 128}, {"TIME_SAMPLES": 5},
                                         {"SEARCH_TOLERANCE": 1e-7}])
    def test_other_settings(self, dataset, changes, monkeypatch):
        for name, value in changes.items():
            monkeypatch.setattr(forward, name, value)
        for row in dataset:
            self.assert_same(row.design, NOMINAL)

    def test_non_finite_integrand_names_the_node(self):
        message = r"non-finite integrand at quadrature node \[0\]$"
        with pytest.raises(NumericsError, match=message):
            temperature_rise(COND1, NOMINAL, math.nan, 0.0, 1e-3)
        with pytest.raises(NumericsError, match=message):
            forward_reference._rise_grid(
                COND1, NOMINAL, forward_reference.ReducedModelConfig(),
                np.array(math.nan), np.array(0.0), np.array(1e-3))
        source = dataclasses.replace(_Source.build(COND1, NOMINAL), a=math.nan)
        field = _RiseField(source, np.linspace(4e-3, 8e-3, 5))
        for axis in ("r", "z"):
            with pytest.raises(NumericsError, match=r"node \[0, 0\]$"):
                _max_extent(field, COND1.beam_radius, 1e-6, 100.0, axis)


class TestReducedModelConfig:
    """The reduced model's inputs are constants: no config section sets them."""

    @pytest.mark.parametrize("kwargs", [
        {"quad_points": 8},
        {"search_tolerance": 1e-3},
        {"chi": -0.1},
        {"ma_ref": 0.0},
        {"solid_conductivity_fraction": 0.0},
        {"thermal_mass_fraction": 1.5},
        {"density": 0.0},
        {"melt_temperature": 300.0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError, match=r"^unknown config keys: reduced$"):
            RunConfig.from_dict({"reduced": kwargs})


def _stub(tmp_path, body: str) -> ExternalModelSpec:
    script = tmp_path / "sim.sh"
    script.write_text("#!/bin/sh\n" + body + "\n")
    script.chmod(0o755)
    return ExternalModelSpec(command_template=f"{script} {{input}} {{output}}",
                             working_dir=tmp_path, timeout=10.0)


class TestExternalAdapter:
    def test_pass_through(self, tmp_path):
        spec = _stub(tmp_path, 'printf "length_mm=0.5\\ndepth_mm=0.2\\n" > "$2"')
        size = evaluate_external(spec, COND1, NOMINAL)
        assert size == MeltPoolSize(length=5e-4, depth=2e-4, melted=True)

    def test_nonzero_exit_status_reported(self, tmp_path):
        spec = _stub(tmp_path, "exit 3")
        with pytest.raises(AdapterError, match="status 3"):
            evaluate_external(spec, COND1, NOMINAL)

    def test_non_numeric_output_names_key(self, tmp_path):
        spec = _stub(tmp_path, 'printf "length_mm=abc\\ndepth_mm=0.2\\n" > "$2"')
        with pytest.raises(AdapterError, match="length_mm"):
            evaluate_external(spec, COND1, NOMINAL)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_output_raises(self, tmp_path, value):
        spec = _stub(tmp_path, f'printf "length_mm={value}\\ndepth_mm=0.2\\n" > "$2"')
        with pytest.raises(AdapterError, match="length_mm.*not finite"):
            evaluate_external(spec, COND1, NOMINAL)

    @pytest.mark.parametrize("length, depth, key", [("-0.4", "0.2", "length_mm"),
                                                    ("0.5", "-1e-3", "depth_mm")])
    def test_negative_output_names_key(self, tmp_path, length, depth, key):
        spec = _stub(tmp_path, f'printf "length_mm={length}\\ndepth_mm={depth}\\n" > "$2"')
        with pytest.raises(AdapterError, match=f"{key} is a negative pool size"):
            evaluate_external(spec, COND1, NOMINAL)

    def test_zero_output_is_no_melt(self, tmp_path):
        spec = _stub(tmp_path, 'printf "length_mm=0\\ndepth_mm=0.2\\n" > "$2"')
        size = evaluate_external(spec, COND1, NOMINAL)
        assert size == MeltPoolSize(length=0.0, depth=0.0, melted=False)

    def test_missing_output_file(self, tmp_path):
        spec = _stub(tmp_path, "true")
        with pytest.raises(AdapterError, match="no output"):
            evaluate_external(spec, COND1, NOMINAL)

    def test_input_file_reaches_simulator(self, tmp_path):
        # echo the absorbed-power inputs back through the protocol
        spec = _stub(tmp_path,
                     'grep -q "^alpha=0.27$" "$1" || exit 9\n'
                     'printf "length_mm=1\\ndepth_mm=1\\n" > "$2"')
        size = evaluate_external(spec, COND1, NOMINAL)
        assert size.melted

    def test_repeated_key_names_key(self, tmp_path):
        spec = _stub(tmp_path, 'printf "length_mm=0.5\\ndepth_mm=0.2\\nlength_mm=0.7\\n" > "$2"')
        with pytest.raises(AdapterError, match="repeats key 'length_mm'"):
            evaluate_external(spec, COND1, NOMINAL)

    def test_default_working_dir_is_the_directory_at_call_time(self, tmp_path,
                                                               monkeypatch):
        """With no working_dir, the simulator and its temp directory run in
        the directory the call is made from, not the one the spec was made in."""
        spec = dataclasses.replace(
            _stub(tmp_path, 'pwd > where.txt; dirname "$1" > tmp.txt\n'
                            'printf "length_mm=0.5\\ndepth_mm=0.2\\n" > "$2"'),
            working_dir=None)
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        assert evaluate_external(spec, COND1, NOMINAL).melted
        assert Path((run / "where.txt").read_text().strip()).samefile(run)
        assert Path((run / "tmp.txt").read_text().strip()).parent.samefile(run)

    def test_template_placeholders_required(self):
        with pytest.raises(ValueError):
            ExternalModelSpec(command_template="sim {input}")

    @pytest.mark.parametrize("timeout", [0.0, math.nan])
    def test_timeout_must_be_positive(self, timeout):
        with pytest.raises(ValueError, match="timeout must be positive"):
            ExternalModelSpec(command_template="sim {input} {output}", timeout=timeout)


class _CountingModel:
    def __init__(self):
        self.calls = 0

    def __call__(self, design, theta):
        self.calls += 1
        return MeltPoolSize(length=1e-4 * design.power / 100.0,
                            depth=5e-5, melted=True)


def _row(design, theta):
    return np.concatenate([design.as_array(), theta.as_array()])


class TestRunTable:
    def test_miss_then_hit(self, tmp_path):
        path = tmp_path / "runs.csv"
        stored = MeltPoolSize(length=1e-4, depth=5e-5, melted=True)
        write_run_table(path, [_row(COND1, NOMINAL)], [(stored.length, stored.depth)])
        before = path.read_bytes()
        model = _CountingModel()
        replay = table_model(RunTable(path), model)
        assert replay(COND1, NOMINAL) == stored
        assert model.calls == 0
        other = dataclasses.replace(COND1, power=600.0)
        first = replay(other, NOMINAL)
        second = replay(other, NOMINAL)  # a miss is not stored
        assert model.calls == 2
        assert first == second == _CountingModel()(other, NOMINAL)
        assert path.read_bytes() == before

    def test_replay_from_disk_without_fallback(self, tmp_path, dataset):
        path = tmp_path / "runs.csv"
        model = _CountingModel()
        rng = np.random.default_rng(0)
        prior = prior_from_table2()
        thetas = [CalibrationParams.from_array(
            prior.lower() + rng.random(8) * (prior.upper() - prior.lower()))
            for _ in range(10)]
        runs = [(row.design, theta) for row in dataset for theta in thetas]
        sizes = [model(design, theta) for design, theta in runs]
        write_run_table(path, [_row(*run) for run in runs],
                        [(size.length, size.depth) for size in sizes])

        replay = RunTable(path)
        assert len(replay) == 130
        fresh = _CountingModel()
        replayed = [table_model(replay, fresh)(*run) for run in runs]
        assert fresh.calls == 0
        for got, want in zip(replayed, sizes):
            assert got.length == pytest.approx(want.length, rel=1e-15)
            assert got.depth == pytest.approx(want.depth, rel=1e-15)

    def test_non_finite_row_raises_on_load(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_run_table(path, [_row(COND1, NOMINAL)], [(1e-4, 5e-5)])
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[-2] = "nan"
        path.write_text("\n".join([lines[0], ",".join(fields)]) + "\n")
        with pytest.raises(AdapterError, match="non-finite"):
            RunTable(path)

    @pytest.mark.parametrize("column, value", [("length_mm", "abc"), ("alpha", "2")])
    def test_bad_cell_names_file_and_row(self, tmp_path, column, value):
        """A non-numeric cell or a parameter outside its domain."""
        path = tmp_path / "runs.csv"
        write_run_table(path, [_row(COND1, NOMINAL)], [(1e-4, 5e-5)])
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[RunTable.COLUMNS.index(column)] = value
        path.write_text("\n".join([lines[0], ",".join(fields)]) + "\n")
        with pytest.raises(AdapterError, match="runs.csv: row 2"):
            RunTable(path)

    def test_negative_size_names_file_row_and_key(self, tmp_path):
        path = tmp_path / "runs.csv"
        other = dataclasses.replace(COND1, power=600.0)
        runs = [_row(COND1, NOMINAL), _row(other, NOMINAL)]
        write_run_table(path, runs, [(0.0, 5e-5), (1e-4, -5e-5)])
        with pytest.raises(AdapterError,
                           match="runs.csv: row 3: depth_mm is a negative pool size"):
            RunTable(path)
        write_run_table(path, runs[:1], [(0.0, 5e-5)])  # zero: no melt
        assert (RunTable(path).lookup(COND1, NOMINAL)
                == MeltPoolSize(length=0.0, depth=0.0, melted=False))

    def test_repeated_run_must_repeat_its_size(self, tmp_path):
        path = tmp_path / "runs.csv"
        other = dataclasses.replace(COND1, power=600.0)
        runs = [_row(COND1, NOMINAL), _row(other, NOMINAL), _row(COND1, NOMINAL)]
        write_run_table(path, runs, [(1e-4, 5e-5), (2e-4, 5e-5), (1e-4, 5e-5)])
        table = RunTable(path)  # an identical repeat loads
        assert len(table) == 2
        assert table.lookup(COND1, NOMINAL) == MeltPoolSize(length=1e-4, depth=5e-5,
                                                            melted=True)
        write_run_table(path, runs, [(1e-4, 5e-5), (2e-4, 5e-5), (1.1e-4, 5e-5)])
        with pytest.raises(AdapterError,
                           match="runs.csv: row 4: repeats the run of row 2 "
                                 "with another pool size"):
            RunTable(path)

    @given(st.floats(100.0, 2000.0))
    @settings(max_examples=20, deadline=None)
    def test_key_is_stable_under_formatting(self, tmp_path_factory, power):
        path = tmp_path_factory.mktemp("table") / "runs.csv"
        design = DesignVars(power=power, beam_radius=2e-4, pulse_duration=3e-3)
        write_run_table(path, [_row(design, NOMINAL)], [(1e-4, 1e-4)])
        size = RunTable(path).lookup(design, NOMINAL)
        assert size == MeltPoolSize(length=1e-4, depth=1e-4, melted=True)
