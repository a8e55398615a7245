"""Reduced conduction model and external adapter."""

import dataclasses
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from fd_oracle import solve_fd
import forward_reference
from helpers import temperature_rise
from meltcal import forward
from meltcal.domain import (
    CalibrationParams,
    DesignVars,
    MeltPoolSize,
    PRIOR_LOWER,
    PRIOR_NOMINAL,
    PRIOR_UPPER,
)
from meltcal.forward import (
    NumericsError,
    _max_extent,
    _RiseField,
    _Source,
    effective_conductivity,
    evaluate_reduced,
    loss_fraction,
)
from meltcal.pipeline import RunConfig
from meltcal.simulator import AdapterError, ExternalModelSpec, evaluate_external

NOMINAL = CalibrationParams.from_array(PRIOR_NOMINAL)
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
        rng = np.random.default_rng(11)
        for row in dataset:
            for _ in range(16):
                theta = CalibrationParams.from_array(
                    PRIOR_LOWER + rng.random(8) * (PRIOR_UPPER - PRIOR_LOWER))
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


class TestReducedModelConstants:
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
    return ExternalModelSpec(
        command_template=f"{shlex.quote(str(script))} {{input}} {{output}}",
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
        with pytest.raises(AdapterError,
                           match=f"^output key 'length_mm': non-finite value '{value}'$"):
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

    def test_paths_with_spaces_stay_one_argument(self, tmp_path):
        """The template is split before the paths go in, so a working
        directory with a space in its name gives the simulator whole paths."""
        spaced = tmp_path / "with space"
        spaced.mkdir()
        spec = _stub(spaced, '[ "$#" = 2 ] && [ -f "$1" ] || exit 8\n'
                             'printf "length_mm=0.5\\ndepth_mm=0.2\\n" > "$2"')
        size = evaluate_external(spec, COND1, NOMINAL)
        assert size == MeltPoolSize(length=5e-4, depth=2e-4, melted=True)

    def test_other_braces_pass_as_written(self, tmp_path):
        spec = _stub(tmp_path, '[ "$3" = "{print}" ] || exit 8\n'
                               'printf "length_mm=0.5\\ndepth_mm=0.2\\n" > "$2"')
        spec = dataclasses.replace(
            spec, command_template=spec.command_template + " '{print}'")
        assert evaluate_external(spec, COND1, NOMINAL).melted

    def test_timeout_reports_captured_output_as_text(self, tmp_path):
        spec = dataclasses.replace(_stub(tmp_path, "echo started run\nexec sleep 30"),
                                   timeout=1.0)
        with pytest.raises(AdapterError) as info:
            evaluate_external(spec, COND1, NOMINAL)
        assert str(info.value) == "external model timed out after 1.0s: started run\n"

    def test_template_placeholders_required(self):
        with pytest.raises(ValueError):
            ExternalModelSpec(command_template="sim {input}")

    @pytest.mark.parametrize("timeout", [0.0, math.nan])
    def test_timeout_must_be_positive(self, timeout):
        with pytest.raises(ValueError, match="timeout must be positive"):
            ExternalModelSpec(command_template="sim {input} {output}", timeout=timeout)

