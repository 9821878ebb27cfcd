import math

import numpy as np
import pytest

from bessctl.battery import (
    BatteryConfig,
    InfeasiblePowerError,
    SocBandError,
    SocLimitError,
    TtcParams,
    TtcState,
    ac_from_dc,
    dc_from_ac,
    dc_power_bounds,
    open_circuit_voltage,
    params_for_soc,
    parse_ttc_params,
    soc_update,
    solve_vdc,
    ttc_step,
    validate_bands,
)
from bessctl.linefmt import LineFormatError


def band(bands, soc):
    return params_for_soc(soc, bands)


class TestOpenCircuitVoltage:
    def test_mid_band_midpoint(self, bands):
        assert open_circuit_voltage(0.5, band(bands, 0.5)) == pytest.approx(664.05, abs=1e-12)

    def test_low_band_at_zero(self, bands):
        assert open_circuit_voltage(0.0, band(bands, 0.0)) == 607.2

    def test_high_band_at_one_inside_dc_window(self, bands):
        v = open_circuit_voltage(1.0, band(bands, 1.0))
        assert v == pytest.approx(778.9, abs=1e-12)
        assert 500.0 <= v <= 890.0

    def test_wrong_band_rejected(self, bands):
        with pytest.raises(SocBandError):
            open_circuit_voltage(0.9, band(bands, 0.2))


class TestBandSelection:
    def test_bands_partition_unit_interval(self, bands):
        validate_bands(bands)
        for soc in np.linspace(0.0, 1.0, 1001):
            params = params_for_soc(float(soc), bands)
            assert params.covers(float(soc))

    def test_band_edges_are_half_open(self, bands):
        third = 1.0 / 3.0
        assert params_for_soc(math.nextafter(third, 0.0), bands).a == 607.2
        assert params_for_soc(third, bands).a == 607.1
        assert params_for_soc(2.0 / 3.0, bands).a == 590.0
        assert params_for_soc(1.0, bands).a == 590.0

    def test_gap_in_bands_rejected(self, bands):
        broken = [bands[0], bands[2]]
        with pytest.raises(ValueError):
            validate_bands(broken)

    def test_parse_requires_all_keys(self):
        lines = ["params x 0 1", "  a 600", "end"]
        with pytest.raises(LineFormatError):
            parse_ttc_params(lines, "doc")


class TestTtcStep:
    def test_zero_power_decays_branches(self, bands, battery_cfg):
        p = band(bands, 0.5)
        state = TtcState(5.0, 2.0, 1.0, 0.5)
        out = ttc_step(state, 0.0, 664.0, p, battery_cfg, dt=1.0)
        assert out.vc1 == pytest.approx(5.0 * math.exp(-1.0 / (p.r1 * p.c1)), rel=1e-14)
        assert out.vc2 == pytest.approx(2.0 * math.exp(-1.0 / (p.r2 * p.c2)), rel=1e-14)
        assert out.vc3 == pytest.approx(1.0 * math.exp(-1.0 / (p.r3 * p.c3)), rel=1e-14)
        assert out.soc == 0.5

    def test_zero_dt_is_identity(self, bands, battery_cfg):
        p = band(bands, 0.5)
        state = TtcState(5.0, 2.0, 1.0, 0.5)
        out = ttc_step(state, 100.0, 664.0, p, battery_cfg, dt=0.0)
        assert (out.vc1, out.vc2, out.vc3, out.soc) == (5.0, 2.0, 1.0, 0.5)

    def test_steady_state_reaches_branch_drop(self, bands):
        p = band(bands, 0.5)
        cfg = BatteryConfig(c_max_ah=1e9, delta_t=1.0)
        vdc = 660.0
        p_dc = 300.0
        i_dc = p_dc * 1000.0 / vdc
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        tau_max = max(p.r1 * p.c1, p.r2 * p.c2, p.r3 * p.c3)
        for _ in range(int(10 * tau_max) + 1):
            state = ttc_step(state, p_dc, vdc, p, cfg, dt=1.0)
        assert state.vc1 == pytest.approx(p.r1 * i_dc, rel=1e-3)
        assert state.vc2 == pytest.approx(p.r2 * i_dc, rel=1e-3)
        assert state.vc3 == pytest.approx(p.r3 * i_dc, rel=1e-3)

    def test_two_half_steps_match_one_full_step(self, bands, battery_cfg):
        p = band(bands, 0.5)
        state = TtcState(3.0, -1.0, 0.5, 0.5)
        full = ttc_step(state, 250.0, 650.0, p, battery_cfg, dt=1.0)
        half = ttc_step(state, 250.0, 650.0, p, battery_cfg, dt=0.5)
        half2 = ttc_step(half, 250.0, 650.0, p, battery_cfg, dt=0.5)
        assert half2.vc1 == pytest.approx(full.vc1, abs=1e-12)
        assert half2.vc2 == pytest.approx(full.vc2, abs=1e-12)
        assert half2.vc3 == pytest.approx(full.vc3, abs=1e-12)
        assert half2.soc == pytest.approx(full.soc, abs=1e-12)

    def test_nonpositive_vdc_rejected(self, bands, battery_cfg):
        with pytest.raises(ValueError):
            ttc_step(TtcState(), 0.0, 0.0, band(bands, 0.5), battery_cfg)


class TestSolveVdc:
    def test_zero_power_equals_open_circuit_voltage(self, bands):
        p = band(bands, 0.5)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        assert solve_vdc(0.0, state, p) == open_circuit_voltage(0.5, p)

    def test_double_root_at_maximum_power_point(self, bands):
        p = band(bands, 0.5)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        e = open_circuit_voltage(0.5, p)
        p_mpp = e * e / (4.0 * p.rs) / 1000.0
        vdc = solve_vdc(p_mpp, state, p)
        assert vdc == pytest.approx(e / 2.0, rel=1e-9)

    def test_beyond_maximum_power_errors(self, bands):
        p = band(bands, 0.5)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        e = open_circuit_voltage(0.5, p)
        with pytest.raises(InfeasiblePowerError):
            solve_vdc(e * e / (4.0 * p.rs) / 1000.0 * 1.001, state, p)

    def test_residual_and_monotonicity(self, bands):
        rng = np.random.default_rng(11)
        p = band(bands, 0.5)
        prev = None
        for p_dc in np.linspace(-1500.0, 4000.0, 300):
            state = TtcState(1.0, 0.5, 0.1, 0.5)
            vdc = solve_vdc(float(p_dc), state, p)
            e = open_circuit_voltage(0.5, p)
            residual = vdc * vdc + (state.vc_sum - e) * vdc + p_dc * 1000.0 * p.rs
            assert abs(residual) / max(1.0, vdc * vdc) <= 1e-9
            if prev is not None:
                assert vdc < prev
            prev = vdc
        del rng


class TestPowerConversion:
    def test_charging_applies_efficiency(self):
        assert dc_from_ac(-100.0, 0.97) == -97.0

    def test_discharging_divides_by_efficiency(self):
        assert dc_from_ac(100.0, 0.97) == pytest.approx(103.09278350515464)

    def test_zero_is_fixed_point(self):
        assert dc_from_ac(0.0, 0.5) == 0.0
        assert ac_from_dc(0.0, 0.5) == 0.0

    def test_roundtrip(self):
        for p in (-250.0, -1.0, 0.0, 3.0, 640.0):
            assert ac_from_dc(dc_from_ac(p, 0.97), 0.97) == pytest.approx(p, abs=1e-12)


class TestSocUpdate:
    def test_zero_power_keeps_soc(self, battery_cfg):
        assert soc_update(0.5, 0.0, 664.0, battery_cfg) == 0.5

    def test_discharge_decreases_soc(self, battery_cfg):
        assert soc_update(0.5, 100.0, 664.0, battery_cfg) < 0.5

    def test_charge_then_discharge_round_trip(self, battery_cfg):
        vdc = 660.0
        soc = 0.5
        for _ in range(30):
            soc = soc_update(soc, -200.0, vdc, battery_cfg)
        for _ in range(30):
            soc = soc_update(soc, 200.0, vdc, battery_cfg)
        assert soc == pytest.approx(0.5, abs=1e-12)

    def test_limit_violation_is_reported_not_clamped(self, battery_cfg):
        with pytest.raises(SocLimitError):
            soc_update(0.9, -10000.0, 660.0, battery_cfg, dt=3600.0)


class TestDcPowerBounds:
    def test_soc_at_min_blocks_discharge(self, bands, battery_cfg):
        state = TtcState(0.0, 0.0, 0.0, battery_cfg.soc_min)
        p_min, p_max = dc_power_bounds(state, band(bands, state.soc), battery_cfg)
        assert p_max == 0.0
        assert p_min < 0.0

    def test_soc_at_max_blocks_charge(self, bands, battery_cfg):
        state = TtcState(0.0, 0.0, 0.0, battery_cfg.soc_max)
        p_min, p_max = dc_power_bounds(state, band(bands, state.soc), battery_cfg)
        assert p_min == 0.0
        assert p_max > 0.0

    def test_maximum_power_term_for_fresh_state(self, bands):
        # With the vdc window opened wide and unlimited capacity, the only
        # discharge cap left is the circuit's maximum power point.
        cfg = BatteryConfig(c_max_ah=1e9, vdc_min=100.0, vdc_max=5000.0, delta_t=1.0)
        p = band(bands, 0.5)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        e = open_circuit_voltage(0.5, p)
        _, p_max = dc_power_bounds(state, p, cfg)
        assert p_max == pytest.approx(e * e / (4.0 * p.rs) / 1000.0, rel=1e-12)

    def test_vdc_window_tightens_bounds(self, bands, battery_cfg):
        p = band(bands, 0.5)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        p_min, p_max = dc_power_bounds(state, p, battery_cfg)
        assert solve_vdc(p_max, state, p) >= battery_cfg.vdc_min - 1e-3
        assert solve_vdc(p_min, state, p) <= battery_cfg.vdc_max + 1e-3

    def test_vdc_window_bounds_are_tight(self, bands, battery_cfg):
        # At SOC 0.5 the vdc window sets both bounds; a relative step of
        # 1e-9 past either bound must already leave the window.
        p = band(bands, 0.5)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        p_min, p_max = dc_power_bounds(state, p, battery_cfg)
        assert solve_vdc(p_max, state, p) >= battery_cfg.vdc_min
        assert solve_vdc(p_max * (1 + 1e-9), state, p) < battery_cfg.vdc_min
        assert solve_vdc(p_min, state, p) <= battery_cfg.vdc_max
        assert solve_vdc(p_min * (1 + 1e-9), state, p) > battery_cfg.vdc_max

    def test_bounds_always_solvable(self, bands, battery_cfg):
        rng = np.random.default_rng(5)
        for _ in range(300):
            soc = float(rng.uniform(battery_cfg.soc_min, battery_cfg.soc_max))
            state = TtcState(
                float(rng.uniform(-5, 15)),
                float(rng.uniform(-0.2, 0.2)),
                float(rng.uniform(-0.05, 0.05)),
                soc,
            )
            p = band(bands, soc)
            p_min, p_max = dc_power_bounds(state, p, battery_cfg)
            assert p_min <= 0.0 <= p_max
            for frac in (0.0, 0.25, 0.9, 1.0):
                solve_vdc(p_min + frac * (p_max - p_min), state, p)
                new_soc = soc_update(soc, p_max * frac, solve_vdc(p_max * frac, state, p), battery_cfg)
                assert battery_cfg.soc_min - 1e-9 <= new_soc <= battery_cfg.soc_max + 1e-9


class TestValidation:
    def test_state_rejects_nan_branches(self):
        with pytest.raises(ValueError):
            TtcState(math.nan, 0.0, 0.0, 0.5)

    def test_state_rejects_soc_outside_unit_interval(self):
        with pytest.raises(ValueError):
            TtcState(0.0, 0.0, 0.0, 1.5)

    def test_params_reject_nonpositive_resistance(self):
        with pytest.raises(ValueError):
            TtcParams(600, 100, 0.0, 0.01, 1e-5, 1e-6, 1500, 1e6, 1e7, 0.0, 1.0)

    def test_config_rejects_bad_soc_window(self):
        with pytest.raises(ValueError):
            BatteryConfig(c_max_ah=580, soc_min=0.9, soc_max=0.1)
