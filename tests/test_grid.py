import math

import numpy as np
import pytest

from bessctl.grid import (
    DroopConfig,
    GridSample,
    TransformerParams,
    droop_targets,
    optimal_droops,
    predict_vac,
)


def cfg(alpha0=9003.0, beta0=8.39, **kw):
    return DroopConfig(alpha0=alpha0, beta0=beta0, **kw)


class TestDroopTargets:
    def test_zero_deviation_zero_targets(self):
        c = cfg()
        p0, q0 = droop_targets(GridSample(0.0, c.f_ref, c.v_ref), c)
        assert p0 == 0.0 and q0 == 0.0

    def test_over_frequency_charges(self):
        c = cfg()
        p0, _ = droop_targets(GridSample(0.0, c.f_ref + 0.0588, c.v_ref), c)
        assert p0 == pytest.approx(-529.3764, abs=1e-9)

    def test_under_voltage_is_capacitive(self):
        c = cfg()
        _, q0 = droop_targets(GridSample(0.0, c.f_ref, c.v_ref - 0.0672), c)
        assert q0 == pytest.approx(563.808, abs=1e-9)

    def test_sign_contract(self):
        rng = np.random.default_rng(1)
        c = cfg()
        for _ in range(300):
            f = c.f_ref + float(rng.uniform(-1, 1))
            v = c.v_ref + float(rng.uniform(-2, 2))
            p0, q0 = droop_targets(GridSample(0.0, f, v), c)
            assert math.copysign(1, p0) == -math.copysign(1, f - c.f_ref) or p0 == 0
            assert math.copysign(1, q0) == -math.copysign(1, v - c.v_ref) or q0 == 0


class TestPresetGainSizing:
    """The shipped presets' gains follow the paper's sizing, capability / (k * sigma)."""

    SIGMA_F_HZ = 0.01782
    SIGMA_V_V = 67.2
    SHRINK = 7.0 / 9.0

    def preset_gains(self, name):
        from bessctl.simctl import builtin_scenario_path, load_run_config

        scenario, _ = load_run_config(builtin_scenario_path(name))
        return scenario.alpha0, scenario.beta0

    def sized_gains(self, k_f, k_v):
        """Gains that reach the shrunk capability, 680.6 kW and 724.4 kvar,
        at k_f sigma_f and k_v sigma_V."""
        return (
            680.6 * self.SHRINK / (k_f * self.SIGMA_F_HZ),
            724.4 * self.SHRINK / (k_v * self.SIGMA_V_V),
        )

    @pytest.mark.parametrize(
        "name, k_f, k_v",
        [("scenario1", 3.3, 1.0), ("scenario2", 3.0, 1.0), ("scenario3", 1.5, 1.0)],
    )
    def test_header_k_sigma_reproduces_the_gains(self, name, k_f, k_v):
        from bessctl.simctl import builtin_scenario_path

        header = builtin_scenario_path(name).read_text("utf-8")
        assert f"({k_f:g} sigma_f on frequency, {k_v:g} sigma_V on voltage)" in header
        sized = self.sized_gains(k_f, k_v)
        assert self.preset_gains(name) == pytest.approx(sized, rel=1e-3)

    def test_scenario4_is_one_and_a_half_times_scenario3(self):
        alpha3, _ = self.preset_gains("scenario3")
        alpha4, beta4 = self.preset_gains("scenario4")
        assert alpha4 == 1.5 * alpha3
        sized3 = self.sized_gains(1.5, 1.0)
        assert (alpha4, beta4) == pytest.approx((1.5 * sized3[0], 1.5 * sized3[1]), rel=1e-3)


class TestDroopConfigValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lambda_p", "lambda_q", "alpha0", "beta0", "f_ref", "v_ref"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            cfg(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_v_ref_rejected(self, value):
        with pytest.raises(ValueError, match="^v_ref must be positive and finite"):
            cfg(v_ref=value)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            DroopConfig(alpha0=9003.0, beta0=0.0)

    @pytest.mark.parametrize(
        "line, bad, match",
        [("f_ref_hz 50.0", "f_ref_hz nan", "f_ref"), ("v_ref_kv 21.192", "v_ref_kv -1", "v_ref")],
        ids=["f_ref-nan", "v_ref-negative"],
    )
    def test_bad_reference_from_scenario_file_rejected(self, tmp_path, line, bad, match):
        from bessctl.simctl import builtin_scenario_path, load_run_config

        text = builtin_scenario_path("scenario1").read_text("utf-8")
        assert line in text
        path = tmp_path / "bad.cfg"
        path.write_text(text.replace(line, bad), "utf-8")
        with pytest.raises(ValueError, match=f"^{match} must be"):
            load_run_config(path)

    def test_nan_weight_from_scenario_file_rejected(self, tmp_path):
        from bessctl.simctl import builtin_scenario_path, load_run_config

        text = builtin_scenario_path("scenario1").read_text("utf-8")
        path = tmp_path / "nan.cfg"
        path.write_text(text.replace("lambda_q 1", "lambda_q nan"), "utf-8")
        with pytest.raises(ValueError, match="finite"):
            load_run_config(path)


class TestTransformerValidation:
    NAMEPLATE = {"n": 70.0, "v_lv": 300.0, "s_rated_kva": 630.0, "u_k": 0.0628}

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["n", "v_lv", "s_rated_kva", "u_k"])
    def test_non_finite_nameplate_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TransformerParams.from_nameplate(**{**self.NAMEPLATE, field: value})

    @pytest.mark.parametrize("field", ["v_lv", "s_rated_kva"])
    def test_zero_nameplate_rating_rejected(self, field):
        # A zero rating used to stop with ZeroDivisionError instead.
        with pytest.raises(ValueError, match=f"^{field} must be positive"):
            TransformerParams.from_nameplate(**{**self.NAMEPLATE, field: 0.0})

    def test_non_finite_reactance_rejected(self):
        with pytest.raises(ValueError, match="x_t"):
            TransformerParams(n=70.0, x_t=math.nan)

    @pytest.mark.parametrize("n", [0.0, -70.0])
    def test_nonpositive_turns_ratio_rejected(self, n):
        with pytest.raises(ValueError, match="turns ratio must be positive"):
            TransformerParams(n=n, x_t=0.009)

    def test_negative_reactance_rejected(self):
        with pytest.raises(ValueError, match="reactance must be nonnegative"):
            TransformerParams(n=70.0, x_t=-0.009)


class TestPredictVac:
    def test_zero_power_is_referred_measurement(self, transformer):
        sample = GridSample(0.0, 50.0, 21.0)
        assert predict_vac(sample, 0.0, 0.0, transformer) == 21000.0 / 70.0

    def test_nameplate_reactance_and_drop(self, transformer):
        assert transformer.x_t == pytest.approx(8.971428571428571e-3, rel=1e-12)
        sample = GridSample(0.0, 50.0, 21.0)
        v = predict_vac(sample, 680.0, 0.0, transformer)
        assert v > 300.0
        assert v == pytest.approx(300.2296464976935, rel=1e-12)

    def test_drop_term_quadruples_with_doubled_power(self, transformer):
        sample = GridSample(0.0, 50.0, 21.0)
        v_base = 21000.0 / 70.0
        d1 = predict_vac(sample, 100.0, 50.0, transformer) ** 2 - v_base**2
        d2 = predict_vac(sample, 200.0, 100.0, transformer) ** 2 - v_base**2
        assert d2 == pytest.approx(4.0 * d1, rel=1e-9)

    def test_never_below_referred_measurement(self, transformer):
        rng = np.random.default_rng(9)
        for _ in range(200):
            sample = GridSample(0.0, 50.0, float(rng.uniform(18.0, 24.0)))
            p, q = float(rng.uniform(-700, 700)), float(rng.uniform(-700, 700))
            assert predict_vac(sample, p, q, transformer) >= sample.v_mv * 1000.0 / transformer.n


class TestOptimalDroops:
    def test_unclipped_target_reproduces_gain(self):
        c = cfg()
        sample = GridSample(0.0, c.f_ref - 0.02, c.v_ref + 0.05)
        p0, q0 = droop_targets(sample, c)
        alpha, beta = optimal_droops(p0, q0, c.f_ref - sample.freq, (c.v_ref - sample.v_mv) * 1000.0)
        assert alpha == pytest.approx(c.alpha0, rel=1e-12)
        assert beta == pytest.approx(c.beta0, rel=1e-12)

    def test_zero_deviation_is_undefined(self):
        alpha, beta = optimal_droops(100.0, 100.0, 0.0, 0.0)
        assert alpha is None and beta is None

    def test_clipped_setpoint_halves_gain(self):
        c = cfg()
        sample = GridSample(0.0, c.f_ref - 0.02, c.v_ref)
        p0, _ = droop_targets(sample, c)
        alpha, _ = optimal_droops(p0 / 2.0, 0.0, c.f_ref - sample.freq, 0.0)
        assert alpha == pytest.approx(c.alpha0 / 2.0, rel=1e-12)


class TestSampleValidation:
    def test_frequency_window(self):
        with pytest.raises(ValueError):
            GridSample(0.0, 44.0, 21.0)

    def test_positive_voltage(self):
        with pytest.raises(ValueError):
            GridSample(0.0, 50.0, -1.0)

    @pytest.mark.parametrize(
        "timestamp, freq, v_mv",
        [
            (math.nan, 50.0, 21.0),
            (math.inf, 50.0, 21.0),
            (-math.inf, 50.0, 21.0),
            (0.0, math.nan, 21.0),
            (0.0, 50.01, math.nan),
            (0.0, 50.0, math.inf),
        ],
    )
    def test_non_finite_values_rejected(self, timestamp, freq, v_mv):
        with pytest.raises(ValueError):
            GridSample(timestamp, freq, v_mv)
