import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    solve_vdc,
    ttc_step,
    validate_bands,
)
from bessctl.linefmt import LineFormatError


def band(bands, soc):
    return params_for_soc(soc, bands)


def vdc_at(p_dc, state, params):
    """solve_vdc on the circuit of state under params."""
    return solve_vdc(p_dc, open_circuit_voltage(state.soc, params) - state.vc_sum, params.rs)


def with_dt(cfg, dt):
    return dataclasses.replace(cfg, delta_t=dt)


#: Valid values of every key of a parameter block.
VALID_BAND = {"a": "600", **dict.fromkeys(("b", "rs", "r1", "c1", "r2", "c2", "r3", "c3"), "1")}


def band_lines(header, **values):
    """A parameter block with the given header and VALID_BAND overridden by values."""
    return [header, *(f"  {k} {v}" for k, v in {**VALID_BAND, **values}.items()), "end"]


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

    @pytest.mark.parametrize(
        "header, values, message",
        [
            ("params x 0 1", {"a": "nan"}, "a must be finite"),
            ("params x 0 1", {"rs": "-1"}, "rs must be positive and finite"),
            ("params x 1 0", {}, "invalid SOC band [1.0, 0.0)"),
        ],
        ids=["a-nan", "rs-negative", "band-reversed"],
    )
    def test_invalid_band_names_its_header_line(self, header, values, message):
        with pytest.raises(LineFormatError) as err:
            parse_ttc_params(["# p", *band_lines(header, **values)], "doc")
        assert str(err.value) == f"doc:2: {message}"
        assert type(err.value.__cause__) is ValueError

    def test_band_gap_names_the_document(self):
        with pytest.raises(ValueError, match=r"^doc: bands must start at 0 and end at 1$"):
            parse_ttc_params(band_lines("params x 0 0.5"), "doc")


class TestTtcStep:
    def test_zero_power_decays_branches(self, bands, battery_cfg):
        p = band(bands, 0.5)
        state = TtcState(5.0, 2.0, 1.0, 0.5)
        out = ttc_step(state, 0.0, 664.0, p, with_dt(battery_cfg, 1.0))
        assert out.vc1 == pytest.approx(5.0 * math.exp(-1.0 / (p.r1 * p.c1)), rel=1e-14)
        assert out.vc2 == pytest.approx(2.0 * math.exp(-1.0 / (p.r2 * p.c2)), rel=1e-14)
        assert out.vc3 == pytest.approx(1.0 * math.exp(-1.0 / (p.r3 * p.c3)), rel=1e-14)
        assert out.soc == 0.5

    def test_steady_state_reaches_branch_drop(self, bands):
        p = band(bands, 0.5)
        cfg = BatteryConfig(c_max_ah=1e9, delta_t=1.0)
        vdc = 660.0
        p_dc = 300.0
        i_dc = p_dc * 1000.0 / vdc
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        tau_max = max(p.r1 * p.c1, p.r2 * p.c2, p.r3 * p.c3)
        for _ in range(int(10 * tau_max) + 1):
            state = ttc_step(state, p_dc, vdc, p, cfg)
        assert state.vc1 == pytest.approx(p.r1 * i_dc, rel=1e-3)
        assert state.vc2 == pytest.approx(p.r2 * i_dc, rel=1e-3)
        assert state.vc3 == pytest.approx(p.r3 * i_dc, rel=1e-3)

    def test_two_half_steps_match_one_full_step(self, bands, battery_cfg):
        p = band(bands, 0.5)
        state = TtcState(3.0, -1.0, 0.5, 0.5)
        full = ttc_step(state, 250.0, 650.0, p, with_dt(battery_cfg, 1.0))
        half = ttc_step(state, 250.0, 650.0, p, with_dt(battery_cfg, 0.5))
        half2 = ttc_step(half, 250.0, 650.0, p, with_dt(battery_cfg, 0.5))
        assert half2.vc1 == pytest.approx(full.vc1, abs=1e-12)
        assert half2.vc2 == pytest.approx(full.vc2, abs=1e-12)
        assert half2.vc3 == pytest.approx(full.vc3, abs=1e-12)
        assert half2.soc == pytest.approx(full.soc, abs=1e-12)

    def test_nonpositive_vdc_rejected(self, bands, battery_cfg):
        with pytest.raises(ValueError):
            ttc_step(TtcState(), 0.0, 0.0, band(bands, 0.5), battery_cfg)

    @settings(max_examples=400, deadline=None)
    @given(
        vc=st.tuples(st.floats(-50.0, 260.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        soc=st.floats(0.11, 0.89),
        p_dc=st.floats(-1000.0, 1000.0),
        vdc=st.floats(300.0, 900.0),
        dt=st.floats(1e-3, 2.0),
    )
    def test_half_steps_compose_to_the_full_step(self, bands, vc, soc, p_dc, vdc, dt):
        cfg = BatteryConfig(c_max_ah=580.0, soc_min=0.1, soc_max=0.9)
        p = band(bands, soc)
        state = TtcState(*vc, soc)
        full = ttc_step(state, p_dc, vdc, p, with_dt(cfg, dt))
        half = ttc_step(state, p_dc, vdc, p, with_dt(cfg, 0.5 * dt))
        half2 = ttc_step(half, p_dc, vdc, p, with_dt(cfg, 0.5 * dt))
        i_dc = p_dc * 1000.0 / vdc
        for r, before, a, b in zip(
            (p.r1, p.r2, p.r3), vc, (half2.vc1, half2.vc2, half2.vc3), (full.vc1, full.vc2, full.vc3)
        ):
            assert a == pytest.approx(b, rel=0.0, abs=1e-12 * max(1.0, abs(before), abs(r * i_dc)))
        assert half2.soc == pytest.approx(full.soc, rel=0.0, abs=1e-12)


class TestSolveVdc:
    def test_zero_power_equals_open_circuit_voltage(self, bands):
        p = band(bands, 0.5)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        assert vdc_at(0.0, state, p) == open_circuit_voltage(0.5, p)

    def test_double_root_at_maximum_power_point(self, bands):
        p = band(bands, 0.5)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        e = open_circuit_voltage(0.5, p)
        p_mpp = e * e / (4.0 * p.rs) / 1000.0
        vdc = vdc_at(p_mpp, state, p)
        assert vdc == pytest.approx(e / 2.0, rel=1e-9)

    def test_beyond_maximum_power_errors(self, bands):
        p = band(bands, 0.5)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        e = open_circuit_voltage(0.5, p)
        with pytest.raises(InfeasiblePowerError):
            vdc_at(e * e / (4.0 * p.rs) / 1000.0 * 1.001, state, p)

    def test_residual_and_monotonicity(self, bands):
        p = band(bands, 0.5)
        prev = None
        for p_dc in np.linspace(-1500.0, 4000.0, 300):
            state = TtcState(1.0, 0.5, 0.1, 0.5)
            vdc = vdc_at(float(p_dc), state, p)
            e = open_circuit_voltage(0.5, p)
            residual = vdc * vdc + (state.vc_sum - e) * vdc + p_dc * 1000.0 * p.rs
            assert abs(residual) / max(1.0, vdc * vdc) <= 1e-9
            if prev is not None:
                assert vdc < prev
            prev = vdc

    @settings(max_examples=500, deadline=None)
    @given(
        data=st.data(),
        vc=st.tuples(st.floats(-50.0, 260.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        soc=st.floats(0.0, 1.0),
    )
    def test_non_increasing_in_power_up_to_the_maximum_power_point(self, bands, data, vc, soc):
        # The controller's range tests read solve_vdc at the ends of a power
        # interval as bounds, which needs monotonicity in floating point, not
        # just in R.
        p = band(bands, soc)
        state = TtcState(*vc, soc)
        drive = open_circuit_voltage(soc, p) - state.vc_sum
        assume(drive > 0.0)
        p_mpp = drive * drive / (4.0 * p.rs) / 1000.0
        while drive * drive - 4.0 * p_mpp * 1000.0 * p.rs < 0:
            p_mpp = math.nextafter(p_mpp, 0.0)
        lo = data.draw(st.floats(-2.0 * p_mpp, p_mpp))
        hi = data.draw(
            st.one_of(st.just(min(math.nextafter(lo, math.inf), p_mpp)), st.floats(lo, p_mpp))
        )
        assert solve_vdc(lo, drive, p.rs) >= solve_vdc(hi, drive, p.rs)


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
    def soc_after(self, bands, soc, p_dc, vdc, cfg):
        return ttc_step(TtcState(0.0, 0.0, 0.0, soc), p_dc, vdc, band(bands, soc), cfg).soc

    def test_zero_power_keeps_soc(self, bands, battery_cfg):
        assert self.soc_after(bands, 0.5, 0.0, 664.0, battery_cfg) == 0.5

    def test_discharge_decreases_soc(self, bands, battery_cfg):
        assert self.soc_after(bands, 0.5, 100.0, 664.0, battery_cfg) < 0.5

    def test_charge_then_discharge_round_trip(self, bands, battery_cfg):
        vdc = 660.0
        soc = 0.5
        for _ in range(30):
            soc = self.soc_after(bands, soc, -200.0, vdc, battery_cfg)
        for _ in range(30):
            soc = self.soc_after(bands, soc, 200.0, vdc, battery_cfg)
        assert soc == pytest.approx(0.5, abs=1e-12)

    def test_limit_violation_is_reported_not_clamped(self, bands, battery_cfg):
        with pytest.raises(SocLimitError):
            self.soc_after(bands, 0.9, -10000.0, 660.0, with_dt(battery_cfg, 3600.0))


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
        assert vdc_at(p_max, state, p) >= battery_cfg.vdc_min - 1e-3
        assert vdc_at(p_min, state, p) <= battery_cfg.vdc_max + 1e-3

    def test_vdc_window_bounds_are_tight(self, bands, battery_cfg):
        # At SOC 0.5 the vdc window sets both bounds; a relative step of
        # 1e-9 past either bound must already leave the window.
        p = band(bands, 0.5)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        p_min, p_max = dc_power_bounds(state, p, battery_cfg)
        assert vdc_at(p_max, state, p) >= battery_cfg.vdc_min
        assert vdc_at(p_max * (1 + 1e-9), state, p) < battery_cfg.vdc_min
        assert vdc_at(p_min, state, p) <= battery_cfg.vdc_max
        assert vdc_at(p_min * (1 + 1e-9), state, p) > battery_cfg.vdc_max

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
                vdc_at(p_min + frac * (p_max - p_min), state, p)
                new_soc = ttc_step(state, p_max * frac, vdc_at(p_max * frac, state, p), p, battery_cfg).soc
                assert battery_cfg.soc_min - 1e-9 <= new_soc <= battery_cfg.soc_max + 1e-9

    @settings(max_examples=1000, deadline=None)
    @given(
        vc=st.tuples(st.floats(-50.0, 700.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        soc=st.floats(0.0, 1.0),
        eta=st.floats(0.5, 1.0),
        vdc_min=st.floats(1.0, 1000.0),
        width=st.floats(1e-3, 1000.0),
        c_max_ah=st.sampled_from([580.0, 1e6]),
    )
    # A discharge bound at vdc_min whose image lies below it, and a charge
    # bound at vdc_max whose image lies above it.
    @example(
        (85.02787421488071, -3.48189349410677, -4.822113170582552),
        0.8728798544455183, 0.7480522461465521, 435.2017367274314, 441.67371586336725, 1e6,
    )
    @example(
        (376.02567895338103, -1.6790225316976723, 1.4170565295202175),
        0.26365819755294884, 0.5189315927089341, 671.323598516888, 144.7481005881684, 1e6,
    )
    def test_bounds_round_trip_through_ac_inside_the_window(
        self, bands, vc, soc, eta, vdc_min, width, c_max_ah
    ):
        # A step clipped at a bound runs the bound's AC image back through
        # dc_from_ac, which rounding can put an ulp past the bound.  Both
        # must keep the bound's side of the vdc window; the other side is
        # not asserted, as the idle bus can already lie beyond it.
        p = band(bands, soc)
        state = TtcState(*vc, soc)
        assume(open_circuit_voltage(soc, p) > state.vc_sum)
        cfg = BatteryConfig(
            c_max_ah, eta, soc_min=0.1, soc_max=0.9, vdc_min=vdc_min, vdc_max=vdc_min + width
        )
        p_dc_min, p_dc_max = dc_power_bounds(state, p, cfg)
        for bound in (p_dc_max, p_dc_min):
            for p_dc in (bound, dc_from_ac(ac_from_dc(bound, eta), eta)):
                if bound > 0.0:
                    assert vdc_at(p_dc, state, p) >= cfg.vdc_min, (bound, p_dc)
                elif bound < 0.0:
                    assert vdc_at(p_dc, state, p) <= cfg.vdc_max, (bound, p_dc)


class TestSocLanding:
    @settings(max_examples=500, deadline=None)
    @given(
        vc=st.tuples(st.floats(-50.0, 260.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        limits=st.sampled_from([(0.0, 1.0), (0.1, 0.9)]),
        near_max=st.booleans(),
        offset=st.floats(0.0, 6e-4),
    )
    # Driven to the discharge bound, this state's SOC rounds to just below 0.
    @example(
        (21.17755969587742, -3.227887410614173, 0.8446087077844133),
        (0.0, 1.0), False, 0.0004782585375812977,
    )
    def test_a_step_to_a_bound_lands_inside_the_soc_limits(
        self, bands, vc, limits, near_max, offset
    ):
        soc_min, soc_max = limits
        soc = soc_max - offset if near_max else soc_min + offset
        cfg = BatteryConfig(c_max_ah=580.0, soc_min=soc_min, soc_max=soc_max)
        p = band(bands, soc)
        state = TtcState(*vc, soc)
        assume(open_circuit_voltage(soc, p) > state.vc_sum)
        for bound in dc_power_bounds(state, p, cfg):
            new_state = ttc_step(state, bound, vdc_at(bound, state, p), p, cfg)
            assert soc_min <= new_state.soc <= soc_max, (bound, new_state.soc)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["c_max_ah", "delta_t"])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            BatteryConfig(**{"c_max_ah": 580.0, field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a", "b", "rs", "r1", "c3"])
    def test_params_reject_non_finite(self, bands, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            dataclasses.replace(bands[0], **{field: value})

    def test_config_rejects_zero_efficiency(self):
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\]"):
            BatteryConfig(c_max_ah=580.0, eta=0.0)

    @pytest.mark.parametrize("convert", [dc_from_ac, ac_from_dc])
    def test_power_conversion_rejects_zero_efficiency(self, convert):
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\]"):
            convert(100.0, 0.0)

    def test_soc_without_a_band_rejected(self, bands):
        with pytest.raises(SocBandError, match="no parameter band covers soc=0.5"):
            params_for_soc(0.5, [b for b in bands if not b.covers(0.5)])

    def test_power_bounds_reject_branches_above_the_open_circuit_voltage(self, bands):
        # 1000 V across the branches exceeds E(0.5), about 664 V: drive <= 0.
        state = TtcState(1000.0, 0.0, 0.0, 0.5)
        with pytest.raises(InfeasiblePowerError, match="exceed the open-circuit voltage"):
            dc_power_bounds(state, band(bands, 0.5), BatteryConfig(c_max_ah=580.0))
