import math

import numpy as np
import pytest

import bessctl.optimizer as optimizer
from bessctl.battery import TtcState, dc_from_ac
from bessctl.capability import build_region
from bessctl.grid import DroopConfig, GridSample
from bessctl.optimizer import (
    ControllerConfig,
    ProjectionProblem,
    STATUS_CLAMP,
    STATUS_CLIPPED,
    STATUS_FALLBACK,
    STATUS_UNCHANGED,
    SetpointController,
    project,
)

from oracles import direct_feasible

WIDE = (-1e6, 1e6)


def problem(region, target, weights=(1.0, 1.0), bounds=WIDE):
    return ProjectionProblem(
        p_target=target[0],
        q_target=target[1],
        lambda_p=weights[0],
        lambda_q=weights[1],
        region=region,
        p_min=bounds[0],
        p_max=bounds[1],
    )


@pytest.fixture()
def region_600(curve_map):
    return build_region([curve_map[(600.0, 300.0)]], 1.0)


class TestProject:
    def test_feasible_target_unchanged(self, region_600):
        assert project(problem(region_600, (100.0, 50.0))) == (100.0, 50.0)
        assert project(problem(region_600, (-300.0, -400.0))) == (-300.0, -400.0)

    def test_pmax_binds_before_disk(self, region_600):
        p, q = project(problem(region_600, (1000.0, 0.0)))
        assert (p, q) == pytest.approx((678.71, 0.0), abs=1e-9)

    def test_flat_qmax_binds_at_zero_p(self, region_600):
        p, q = project(problem(region_600, (0.0, 1000.0)))
        assert (p, q) == pytest.approx((0.0, 657.1), abs=1e-9)

    def test_idempotent(self, curve_map):
        rng = np.random.default_rng(21)
        for anchors in [[(600.0, 300.0)], [(500.0, 270.0)], [(550.0, 300.0), (500.0, 330.0)]]:
            region = build_region([curve_map[a] for a in anchors], 7.0 / 9.0)
            for _ in range(100):
                target = (float(rng.uniform(-1500, 1500)), float(rng.uniform(-1500, 1500)))
                first = project(problem(region, target))
                second = project(problem(region, first))
                assert second[0] == pytest.approx(first[0], abs=1e-9)
                assert second[1] == pytest.approx(first[1], abs=1e-9)

    def test_output_feasible_for_random_targets(self, curve_map):
        rng = np.random.default_rng(7)
        for anchor in curve_map:
            region = build_region([curve_map[anchor]], 7.0 / 9.0)
            for _ in range(200):
                target = (float(rng.uniform(-1500, 1500)), float(rng.uniform(-1500, 1500)))
                p, q = project(problem(region, target))
                assert region.contains(p, q)

    def test_p_bounds_honoured(self, region_600):
        p, q = project(problem(region_600, (500.0, 0.0), bounds=(-100.0, 120.0)))
        assert (p, q) == pytest.approx((120.0, 0.0), abs=1e-9)
        p, q = project(problem(region_600, (-500.0, 300.0), bounds=(-100.0, 120.0)))
        assert p == pytest.approx(-100.0, abs=1e-9)
        assert q == pytest.approx(300.0, abs=1e-9)

    def test_matches_coarse_grid_oracle(self, region_600):
        grid = np.arange(-750.0, 750.0 + 1e-9, 2.5)
        pp, qq = np.meshgrid(grid, grid)
        mask = direct_feasible((600.0, 300.0), pp, qq)
        pf, qf = pp[mask], qq[mask]
        rng = np.random.default_rng(17)
        for _ in range(25):
            t = (float(rng.uniform(-1500, 1500)), float(rng.uniform(-1500, 1500)))
            p, q = project(problem(region_600, t))
            obj = (p - t[0]) ** 2 + (q - t[1]) ** 2
            grid_min = float(np.min((pf - t[0]) ** 2 + (qf - t[1]) ** 2))
            assert obj <= grid_min + 1e-6

    def test_weighted_projection_tilts_toward_heavy_axis(self, region_600):
        t = (400.0, 700.0)
        p_eq, q_eq = project(problem(region_600, t, weights=(1.0, 1.0)))
        p_hp, q_hp = project(problem(region_600, t, weights=(100.0, 1.0)))
        # Heavier P weight keeps P closer to the target at the expense of Q.
        assert abs(p_hp - t[0]) < abs(p_eq - t[0])
        assert abs(q_hp - t[1]) > abs(q_eq - t[1])

    def test_zero_q_weight_preserves_p_exactly(self, region_600):
        p, q = project(problem(region_600, (100.0, 1000.0), weights=(1.0, 0.0)))
        assert p == 100.0
        assert q == pytest.approx(657.1, abs=1e-9)
        p, q = project(problem(region_600, (1000.0, 50.0), weights=(1.0, 0.0)))
        assert p == pytest.approx(678.71, abs=1e-9)
        assert q == pytest.approx(50.0, abs=1e-9)

    def test_zero_p_weight_preserves_q_exactly(self, region_600):
        p, q = project(problem(region_600, (1000.0, 100.0), weights=(0.0, 1.0)))
        assert q == 100.0
        assert p == pytest.approx(678.71, abs=1e-9)

    def test_deterministic(self, region_600):
        t = (900.0, -900.0)
        assert project(problem(region_600, t)) == project(problem(region_600, t))


class TestSolveStep:
    def make_controller(self, controller_cfg, curve_map, bands, **droop_kw):
        if droop_kw:
            droop = DroopConfig(
                **{
                    "alpha0": controller_cfg.droop.alpha0,
                    "beta0": controller_cfg.droop.beta0,
                    "f_ref": controller_cfg.droop.f_ref,
                    "v_ref": controller_cfg.droop.v_ref,
                    **droop_kw,
                }
            )
            controller_cfg = ControllerConfig(
                droop=droop,
                battery=controller_cfg.battery,
                transformer=controller_cfg.transformer,
                shrink=controller_cfg.shrink,
            )
        return SetpointController(controller_cfg, curve_map, bands)

    def test_reference_sample_is_trivial(self, controller_cfg, curve_map, bands):
        ctl = self.make_controller(controller_cfg, curve_map, bands)
        sample = GridSample(0.0, controller_cfg.droop.f_ref, controller_cfg.droop.v_ref)
        record, state = ctl.solve_step(sample, TtcState(0.0, 0.0, 0.0, 0.5))
        assert record.p_target == 0.0 and record.q_target == 0.0
        assert record.p_opt == 0.0 and record.q_opt == 0.0
        assert STATUS_UNCHANGED in record.status
        assert record.alpha_star is None and record.beta_star is None
        assert state.soc == 0.5

    def test_large_undervoltage_clips_q_only(self, controller_cfg, curve_map, bands):
        # Reactive target beyond the envelope, small frequency deviation:
        # P must ride through unchanged and Q land on the region boundary.
        ctl = self.make_controller(controller_cfg, curve_map, bands)
        sample = GridSample(0.0, 50.005, 21.125)
        record, _ = ctl.solve_step(sample, TtcState(0.0, 0.0, 0.0, 0.5))
        assert STATUS_CLIPPED in record.status
        assert record.p_opt == pytest.approx(record.p_target, abs=1e-9)
        assert record.q_opt < record.q_target
        assert record.q_opt == pytest.approx(657.1 * 7.0 / 9.0, abs=1e-9)

    def test_records_are_always_feasible(self, controller_cfg, curve_map, bands):
        rng = np.random.default_rng(31)
        droop = DroopConfig(alpha0=29715.0, beta0=12.57, f_ref=50.0, v_ref=21.192)
        cfg = ControllerConfig(
            droop=droop,
            battery=controller_cfg.battery,
            transformer=controller_cfg.transformer,
            shrink=controller_cfg.shrink,
        )
        ctl = SetpointController(cfg, curve_map, bands)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        for t in range(150):
            sample = GridSample(
                float(t),
                50.0 + 0.01782 * float(rng.standard_normal()),
                21.192 + 0.0672 * float(rng.standard_normal()),
            )
            record, state = ctl.solve_step(sample, state)
            anchors = [record.curve_dc] + ([record.curve_ac] if record.curve_ac else [])
            region = build_region([curve_map[a] for a in anchors], cfg.shrink)
            assert region.contains(record.p_opt, record.q_opt)

    def test_low_vac_raises_conservative_clamp(self, controller_cfg, curve_map, bands):
        ctl = self.make_controller(controller_cfg, curve_map, bands)
        sample = GridSample(0.0, 50.0, 18.5)  # 264 V on the LV side
        record, _ = ctl.solve_step(sample, TtcState(0.0, 0.0, 0.0, 0.5))
        assert STATUS_CLAMP in record.status
        assert record.curve_ac == (500.0, 270.0)
        assert record.vac_pred <= 270.0

    def test_degraded_bus_voltage_falls_back(self, controller_cfg, curve_map, bands):
        # Branch voltages so high that the bus sits below every DC range.
        ctl = self.make_controller(controller_cfg, curve_map, bands)
        sample = GridSample(0.0, 50.01, 21.192)
        record, _ = ctl.solve_step(sample, TtcState(200.0, 0.0, 0.0, 0.5))
        assert STATUS_FALLBACK in record.status
        assert record.curve_dc == (500.0, 300.0)
        assert record.vdc_pred < 500.0

    def test_at_most_nine_projection_solves(
        self, controller_cfg, curve_map, bands, monkeypatch
    ):
        calls = {"n": 0}
        original = optimizer.project

        def counting_project(prob):
            calls["n"] += 1
            return original(prob)

        monkeypatch.setattr(optimizer, "project", counting_project)
        ctl = self.make_controller(controller_cfg, curve_map, bands)
        for sample, state in [
            (GridSample(0.0, 50.0, 21.192), TtcState(0.0, 0.0, 0.0, 0.5)),
            (GridSample(0.0, 49.95, 18.5), TtcState(0.0, 0.0, 0.0, 0.5)),
            (GridSample(0.0, 50.01, 21.192), TtcState(200.0, 0.0, 0.0, 0.5)),
        ]:
            calls["n"] = 0
            ctl.solve_step(sample, state)
            assert 1 <= calls["n"] <= 9

    def test_dc_bounds_respected_through_efficiency(self, controller_cfg, curve_map, bands):
        # Tiny capacity and 1 h steps make the SOC constraint bite hard.
        from bessctl.battery import BatteryConfig, dc_power_bounds, params_for_soc

        battery = BatteryConfig(
            c_max_ah=1.0, eta=0.97, soc_min=0.1, soc_max=0.9, delta_t=60.0
        )
        cfg = ControllerConfig(
            droop=controller_cfg.droop,
            battery=battery,
            transformer=controller_cfg.transformer,
            shrink=controller_cfg.shrink,
        )
        ctl = SetpointController(cfg, curve_map, bands)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        sample = GridSample(0.0, 49.94, 21.192)  # demands a big discharge
        record, new_state = ctl.solve_step(sample, state)
        p_min, p_max = dc_power_bounds(state, params_for_soc(0.5, bands), battery)
        assert dc_from_ac(record.p_opt, battery.eta) <= p_max + 1e-9
        assert battery.soc_min - 1e-9 <= new_state.soc <= battery.soc_max + 1e-9
        assert record.p_opt < record.p_target


class TestProjectionProblemValidation:
    def test_bounds_must_straddle_zero(self, region_600):
        with pytest.raises(ValueError):
            ProjectionProblem(0.0, 0.0, 1.0, 1.0, region_600, 10.0, 100.0)

    def test_weights_not_both_zero(self, region_600):
        with pytest.raises(ValueError):
            ProjectionProblem(0.0, 0.0, 0.0, 0.0, region_600, -1.0, 1.0)
