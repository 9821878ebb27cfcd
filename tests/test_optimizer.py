import copy
import dataclasses
import math
import pickle
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import minimize

import bessctl.battery as battery
import bessctl.capability as capability
import bessctl.optimizer as optimizer
from bessctl.battery import (
    BatteryConfig,
    TtcState,
    ac_from_dc,
    dc_from_ac,
    dc_power_bounds,
    open_circuit_voltage,
    params_for_soc,
)
from bessctl.capability import (
    AC_SELECTION,
    DC_SELECTION,
    KNOWN_ANCHORS,
    CapabilityCurve,
    Disk,
    FeasibleRegion,
    ParabolaCap,
    PMax,
    PMin,
    QMax,
    build_region,
)
from bessctl.grid import DroopConfig, GridSample, TransformerParams, predict_vac
from bessctl.optimizer import (
    ControlRecord,
    ControllerConfig,
    ProjectionProblem,
    STATUS_CLAMP,
    STATUS_CLIPPED,
    STATUS_FALLBACK,
    STATUS_UNCHANGED,
    SetpointController,
    project,
)
from bessctl.simctl import builtin_scenario_path, load_run_config, run_scenario

from oracles import certify, direct_feasible, least_in_cell, running_best_cell, violation
from reference_step import reference_solve_step

WIDE = (-1e6, 1e6)

#: The 600/300 envelope alone and with the conservative 500/270 clamp envelope.
ONE_ENV = ((600.0, 300.0),)
TWO_ENV = ((600.0, 300.0), (500.0, 270.0))


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


def oracle_feasible(anchors, shrink, p, q):
    """Direct-oracle membership in the intersection of the anchors' envelopes."""
    return np.logical_and.reduce([direct_feasible(a, p, q, shrink) for a in anchors])


def oracle_grid(anchors, shrink=1.0):
    """Points of a 2.5 kW/kvar grid that the direct oracle finds feasible."""
    grid = np.arange(-750.0, 750.0 + 1e-9, 2.5)
    pp, qq = np.meshgrid(grid, grid)
    mask = oracle_feasible(anchors, shrink, pp, qq)
    return pp[mask], qq[mask]


#: A 0.01 kW/kvar line across every envelope, to scan one slice of a region.
SLICE = np.linspace(-800.0, 800.0, 160_001)


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

    @pytest.mark.parametrize(
        "weights", [(1.0, 1.0), (1.0, 9.0), (25.0, 1.0)], ids=["equal", "q-heavy", "p-heavy"]
    )
    def test_matches_coarse_grid_oracle(self, region_600, weights):
        # Unequal weights take the weighted-disk bisection.
        pf, qf = oracle_grid(ONE_ENV)
        wp, wq = weights
        rng = np.random.default_rng(17)
        for _ in range(25):
            t = (float(rng.uniform(-1500, 1500)), float(rng.uniform(-1500, 1500)))
            p, q = project(problem(region_600, t, weights))
            obj = wp * (p - t[0]) ** 2 + wq * (q - t[1]) ** 2
            grid_min = float(np.min(wp * (pf - t[0]) ** 2 + wq * (qf - t[1]) ** 2))
            assert obj <= grid_min + 1e-6

    @pytest.mark.parametrize(
        "anchors, shrink", [(ONE_ENV, 1.0), (TWO_ENV, 7.0 / 9.0)], ids=["one_env", "two_env"]
    )
    @pytest.mark.parametrize("primary", [0, 1], ids=["lambda_q=0", "lambda_p=0"])
    def test_lexicographic_matches_coarse_grid_oracle(self, curve_map, anchors, shrink, primary):
        """With one weight zero the weighted (primary) coordinate is as close
        to its target as on the grid, and the set-point is tight: a 1e-6 step
        toward the target leaves the region.  When the primary falls short of
        its target the step moves it and no point of the slice there may be
        feasible; otherwise the step moves the secondary coordinate.  (A
        slice at the primary's extreme can be a single point, too thin to
        judge a step along it.)  On the two-envelope region the lambda_q = 0
        case bisects the P extent that the 500/270 disk sets inside the P box."""
        region = build_region([curve_map[a] for a in anchors], shrink)
        grid = oracle_grid(anchors, shrink)
        weights = (1.0, 0.0) if primary == 0 else (0.0, 1.0)
        rng = np.random.default_rng(17)
        for _ in range(60):
            t = (float(rng.uniform(-1500, 1500)), float(rng.uniform(-1500, 1500)))
            x = project(problem(region, t, weights))
            assert region.contains(*x)
            nearest = float(np.min(np.abs(grid[primary] - t[primary])))
            assert abs(x[primary] - t[primary]) <= nearest + 1e-9
            k = primary if x[primary] != t[primary] else 1 - primary
            if x[k] == t[k]:
                continue
            if primary == 0 and k == 1 and x[1] == 0.0 and t[1] < 0.0:
                # lambda_q = 0 leaves q out of the objective, so the two Q-sign
                # cells tie and the upper one wins at q = 0, although q nearer
                # a negative target is feasible in the lower cell.
                continue
            step = list(x)
            step[k] += math.copysign(1e-6, t[k] - x[k])
            if k == primary:
                step[1 - primary] = SLICE
            assert not np.any(oracle_feasible(anchors, shrink, *step)), (t, x)

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

    @pytest.mark.parametrize(
        "target, weights",
        [((1e20, 0.0), (1.0, 0.0)), ((1e30, 0.0), (1.0, 0.0)), ((0.0, 1e30), (0.0, 1.0))],
        ids=["lambda_q=0-p1e20", "lambda_q=0-p1e30", "lambda_p=0-q1e30"],
    )
    def test_lexicographic_exact_on_wide_spans(self, curve_map, target, weights):
        # The 500/270 envelope has no P box, so with P bounds of +-1e300 the
        # bisection starts from a span far wider than 2^80 float steps.
        region = build_region([curve_map[(500.0, 270.0)]], 1.0)
        p, q = project(problem(region, target, weights, bounds=(-1e300, 1e300)))
        if weights[1] == 0.0:
            assert (p, q) == (649.5, 0.0)  # the disk's P extent
        else:
            c0, c1, c2 = 382.95, 1.6e-3, -2.21e-4  # the cap's peak
            assert q == pytest.approx(c0 - c1 * c1 / (4.0 * c2), abs=1e-9)
            assert p == pytest.approx(-c1 / (2.0 * c2), abs=1e-4)

    @pytest.mark.parametrize(
        "anchors, p0, bisects",
        [(ONE_ENV, 100.0, False), (TWO_ENV, 678.71, True)],
        ids=["inside", "past-the-disk"],
    )
    def test_lexicographic_cell_solve_takes_the_q_interval_it_found(
        self, curve_map, monkeypatch, anchors, p0, bisects
    ):
        # A target whose q interval is nonempty evaluates it once; one past
        # the disk bisects, and its q comes from the interval at the p found.
        calls = []
        original = optimizer._q_interval_at

        def counting(cell, p):
            calls.append(p)
            return original(cell, p)

        monkeypatch.setattr(optimizer, "_q_interval_at", counting)
        cell = build_region([curve_map[a] for a in anchors], 1.0).upper_cell
        p, q, _ = optimizer._project_cell(cell, p0, 700.0, 1.0, 0.0)
        assert (len(calls) > 1) is bisects
        assert calls[0] == p0
        assert q == original(cell, p)[1]
        if not bisects:
            assert p == p0

    def test_far_off_candidate_is_not_ranked(self):
        # The nearly flat cap crosses the Q ceiling at p = -2e201, far
        # outside the P box, where the objective overflows.
        flat = (PMin(-600.0), PMax(600.0), ParabolaCap(100.0, 1e-200, 0.0), QMax(80.0))
        region = build_region([CapabilityCurve("flat", 600.0, 300.0, flat)], 1.0)
        assert project(problem(region, (700.0, 200.0))) == (600.0, 80.0)

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

    def test_warm_step_checks_no_region_membership(
        self, controller_cfg, curve_map, bands, monkeypatch
    ):
        # The origin check runs once per region build, not per projection.
        calls = []
        original = FeasibleRegion.contains

        def counting_contains(region, *args, **kwargs):
            calls.append(args)
            return original(region, *args, **kwargs)

        monkeypatch.setattr(FeasibleRegion, "contains", counting_contains)
        ctl = self.make_controller(controller_cfg, curve_map, bands)
        sample, state = GridSample(0.0, 49.95, 18.5), TtcState(0.0, 0.0, 0.0, 0.5)
        record, _ = ctl.solve_step(sample, state)
        assert STATUS_CLAMP in record.status
        assert calls == [(0.0, 0.0)] * len(ctl._regions)
        calls.clear()
        ctl.solve_step(sample, state)
        assert calls == []

    @pytest.mark.parametrize(
        "sample, state, status",
        [
            (GridSample(0.0, 50.0, 21.192), TtcState(0.0, 0.0, 0.0, 0.5), "k-switches(2)"),
            (GridSample(0.0, 49.95, 18.5), TtcState(0.0, 0.0, 0.0, 0.5), "k-switches(8)"),
            (GridSample(0.0, 50.01, 21.192), TtcState(200.0, 0.0, 0.0, 0.5), STATUS_FALLBACK),
        ],
        ids=["nominal", "undervoltage", "fallback"],
    )
    def test_one_projection_solve_per_step(
        self, controller_cfg, curve_map, bands, monkeypatch, sample, state, status
    ):
        # One (DC, AC) range pair is reachable in each case; the others are
        # skipped but still counted in k, and the fallback takes the lowest
        # DC envelope with the lone reachable AC range without a last probe.
        calls = {"n": 0}
        original = optimizer.project

        def counting_project(prob):
            calls["n"] += 1
            return original(prob)

        monkeypatch.setattr(optimizer, "project", counting_project)
        ctl = self.make_controller(controller_cfg, curve_map, bands)
        record, _ = ctl.solve_step(sample, state)
        assert any(flag.endswith(status) for flag in record.status), record.status
        assert calls["n"] == 1

    def test_step_driven_to_soc_min_zero_lands_on_it(self, bands, curve_map):
        # Drained to the discharge bound, the SOC rounds to -8.1e-20, inside
        # the limit check's slack; the step lands it on the limit.
        _, cfg = load_run_config(builtin_scenario_path("scenario4"))
        cfg = dataclasses.replace(cfg, battery=dataclasses.replace(cfg.battery, soc_min=0.0))
        ctl = SetpointController(cfg, curve_map, bands)
        record, new_state = ctl.solve_step(
            GridSample(0.0, 49.95, 21.192), TtcState(0.0, 0.0, 0.0, 0.00020017)
        )
        assert new_state.soc == 0.0
        assert record.p_opt < record.p_target

    @pytest.mark.parametrize(
        "lambda_q, sample, state",
        [
            (0.0, GridSample(0.0, 49.95, 21.3), TtcState(0.0, 0.0, 0.0, 0.1002)),
            (1.0, GridSample(0.0, 49.95, 18.5), TtcState(0.0, 0.0, 0.0, 0.5)),
        ],
        ids=["soc-edge", "undervoltage"],
    )
    def test_a_step_evaluates_the_circuit_twice(
        self, bands, curve_map, monkeypatch, lambda_q, sample, state
    ):
        # Once in dc_power_bounds and once for the drive that the voltage
        # bounds and every probe share.
        calls = []
        original = battery.open_circuit_voltage

        def counting(soc, params):
            calls.append(soc)
            return original(soc, params)

        monkeypatch.setattr(battery, "open_circuit_voltage", counting)
        monkeypatch.setattr(optimizer, "open_circuit_voltage", counting)
        _, cfg = load_run_config(builtin_scenario_path("scenario4"))
        cfg = dataclasses.replace(cfg, droop=dataclasses.replace(cfg.droop, lambda_q=lambda_q))
        ctl = SetpointController(cfg, curve_map, bands)
        record, _ = ctl.solve_step(sample, state)
        assert record.p_opt < record.p_target
        assert calls == [state.soc] * 2

    def test_step_builds_no_region_and_leaves_the_controller_unchanged(
        self, controller_cfg, curve_map, bands, monkeypatch
    ):
        ctl = self.make_controller(controller_cfg, curve_map, bands)
        before = {name: copy.copy(value) for name, value in vars(ctl).items()}

        def no_build(*args):
            raise AssertionError("solve_step built a region")

        monkeypatch.setattr(optimizer, "build_region", no_build)
        fresh, degraded = TtcState(0.0, 0.0, 0.0, 0.5), TtcState(200.0, 0.0, 0.0, 0.5)
        for sample, state in [
            (GridSample(0.0, 50.0, 21.192), fresh),
            (GridSample(1.0, 49.95, 18.5), fresh),
            (GridSample(2.0, 50.03, 24.5), fresh),
            (GridSample(3.0, 50.01, 21.192), degraded),
        ]:
            ctl.solve_step(sample, state)
        assert vars(ctl) == before

    def test_curves_without_500_330_run_scenario1(self, curve_map, bands):
        scenario, cfg = load_run_config(builtin_scenario_path("scenario1"))
        curves = {a: c for a, c in curve_map.items() if a != (500.0, 330.0)}
        records, _ = run_scenario(scenario, cfg, curves, bands)
        assert len(records) == 300
        # A step that has to probe a pair whose curve is missing fails,
        # naming that curve's anchor.
        ctl = SetpointController(cfg, curves, bands)
        with pytest.raises(ValueError, match="anchored at 500/330 V"):
            ctl.solve_step(GridSample(0.0, 50.0, 24.5), TtcState(0.0, 0.0, 0.0, 0.5))

    def test_step_clipped_at_the_maximum_power_point_completes(self, curve_map, bands):
        # vdc_min below drive/2, so the discharge bound is the maximum power
        # point; its AC image once mapped back to a DC power past it.
        battery = BatteryConfig(c_max_ah=1e6, eta=0.9, vdc_min=10.0)
        droop = DroopConfig(30000.0, 8.39)
        cfg = ControllerConfig(droop, battery, TransformerParams.from_nameplate(), 1.0)
        ctl = SetpointController(cfg, curve_map, bands)
        state = TtcState(515.4774991288954, 0.0, 0.0, 0.7425210625086651)
        record, _ = ctl.solve_step(GridSample(0.0, 49.9, 21.192), state)
        _, pdc_hi = dc_power_bounds(state, params_for_soc(state.soc, bands), battery)
        assert record.p_opt == ac_from_dc(pdc_hi, battery.eta) < record.p_target

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

    def test_controller_rejects_zero_shrink(self, controller_cfg):
        with pytest.raises(ValueError, match=re.escape("shrink must lie in (0, 1]")):
            dataclasses.replace(controller_cfg, shrink=0.0)

    @pytest.mark.parametrize(
        "target, weights",
        [
            ((math.nan, 0.0), (1.0, 1.0)),
            ((0.0, math.nan), (1.0, 1.0)),
            ((math.inf, 0.0), (1.0, 1.0)),
            ((0.0, -math.inf), (1.0, 1.0)),
            ((0.0, 0.0), (math.nan, 1.0)),
            ((0.0, 0.0), (1.0, math.nan)),
            ((0.0, 0.0), (math.inf, 1.0)),
            ((0.0, 0.0), (1.0, math.inf)),
        ],
    )
    def test_non_finite_targets_and_weights_rejected(self, region_600, target, weights):
        with pytest.raises(ValueError, match="finite"):
            problem(region_600, target, weights, bounds=(-1.0, 1.0))

    @pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    def test_target_too_far_to_square_rejected_naming_it(self, region_600, weights):
        # (p - p0) ** 2 overflows for every point of the region.
        prob = problem(region_600, (1e160, 1e160), weights)
        with pytest.raises(ValueError, match=re.escape("target (1e+160, 1e+160)")):
            project(prob)

    @pytest.mark.parametrize(
        "target, weights",
        [
            # The violated cap's cubic has a companion matrix that overflows.
            ((1e308, 0.0), (1.0, 1000.0)),
            ((0.0, 1e308), (1.0, 1.0)),
            # p0^2 and q0^2 are finite, their sum is not.
            ((1e154, 1e154), (1.0, 1.0)),
        ],
    )
    def test_target_whose_square_overflows_is_too_far(self, curve_map, target, weights):
        region = build_region([curve_map[(500.0, 270.0)]], 1.0)
        with pytest.raises(ValueError, match="too far from the region to project") as info:
            project(problem(region, target, weights))
        assert type(info.value) is ValueError


def sample_record(**changes):
    fields = dict(
        sample=GridSample(0.0, 50.0, 21.0),
        dfreq=0.0,
        dvac=192.0,
        p_target=-0.5,
        q_target=1610.88,
        p_opt=-0.5,
        q_opt=511.0,
        vdc_pred=700.25,
        vac_pred=301.5,
        curve_dc=(600.0, 300.0),
        curve_ac=None,
        alpha_star=None,
        beta_star=2.6614583333333335,
        status=(STATUS_CLIPPED,),
    )
    return ControlRecord(**{**fields, **changes})


class TestValueTypes:
    """The per-step values are immutable NamedTuples; the problem validates."""

    def test_problem_fields_cannot_be_assigned(self, region_600):
        prob = problem(region_600, (1.0, 2.0))
        with pytest.raises(AttributeError):
            prob.p_target = 3.0

    def test_problem_replace_validates(self, region_600):
        prob = problem(region_600, (1.0, 2.0), bounds=(-1.0, 1.0))
        assert prob._replace(q_target=3.0).q_target == 3.0
        with pytest.raises(ValueError, match=re.escape("AC power bounds must straddle 0")):
            prob._replace(p_min=0.5)

    def test_problem_pickle_round_trips(self, region_600):
        prob = problem(region_600, (1.0, 2.0), weights=(1.0, 0.0), bounds=(-1.0, 1.0))
        restored = pickle.loads(pickle.dumps(prob))
        assert type(restored) is ProjectionProblem
        assert project(restored) == project(prob)

    def test_record_fields_cannot_be_assigned(self):
        record = sample_record()
        with pytest.raises(AttributeError):
            record.p_opt = 0.0

    def test_record_repr_names_every_field(self):
        assert repr(sample_record()) == (
            "ControlRecord(sample=GridSample(timestamp=0.0, freq=50.0, v_mv=21.0), "
            "dfreq=0.0, dvac=192.0, p_target=-0.5, q_target=1610.88, p_opt=-0.5, "
            "q_opt=511.0, vdc_pred=700.25, vac_pred=301.5, curve_dc=(600.0, 300.0), "
            "curve_ac=None, alpha_star=None, beta_star=2.6614583333333335, "
            "status=('clipped-to-boundary',))"
        )

    def test_record_target_feasible(self):
        assert not sample_record().target_feasible
        assert sample_record(status=(STATUS_UNCHANGED,)).target_feasible

    def test_step_whose_droop_target_overflows_raises(self, controller_cfg, curve_map, bands):
        # alpha0 * 4.9 Hz overflows to an infinite p target.
        droop = dataclasses.replace(controller_cfg.droop, alpha0=1e308)
        ctl = SetpointController(
            dataclasses.replace(controller_cfg, droop=droop), curve_map, bands
        )
        with pytest.raises(ValueError, match="targets and weights must be finite"):
            ctl.solve_step(GridSample(0.0, 45.1, 21.192), TtcState(0.0, 0.0, 0.0, 0.5))


#: Each envelope alone, and every envelope pair the selection tables produce.
REGION_ANCHORS = [(a,) for a in sorted(KNOWN_ANCHORS)] + [
    (dc, ac) for _, _, dc in DC_SELECTION for _, _, ac, _ in AC_SELECTION if ac is not None
]

#: An envelope whose parabola cap drops below Q = 0 inside its P box
#: (outside about -292 < p < 342 kW), so its upper cell's caps_nonneg is False.
DIPPING = CapabilityCurve(
    "dipping",
    600.0,
    300.0,
    (PMin(-600.0), PMax(600.0), Disk(700.0), ParabolaCap(100.0, 0.05, -1e-3)),
)


#: An envelope whose cap crosses Q = 0 at p = sqrt(1e5) inside its P box.
CROSSING = CapabilityCurve(
    "crossing",
    600.0,
    300.0,
    (PMin(-500.0), PMax(500.0), Disk(700.0), ParabolaCap(100.0, 0.0, -1e-3)),
)
CROSSING_CORNER = (316.2277660168379, 0.0)
#: Offsets from CROSSING_CORNER large enough for a polished upper-cell point
#: to land below Q = 0.
CROSSING_DELTA = st.builds(
    math.copysign, st.floats(1e-8, 1e-7), st.sampled_from([-1.0, 1.0])
)


def numpy_real_roots(coeffs):
    """Polynomial roots polished with np.polyval/np.polyder, the reference
    for the scalar Horner polish of capability.poly_real_roots."""
    trimmed = list(coeffs)
    while trimmed and trimmed[0] == 0.0:
        trimmed.pop(0)
    if len(trimmed) <= 3:
        return optimizer.poly_real_roots(trimmed)
    arr = np.array(trimmed, dtype=float)
    deriv = np.polyder(arr)
    out = []
    for root in np.roots(arr):
        if abs(root.imag) > 1e-8 * (1.0 + abs(root.real)):
            continue
        x = float(root.real)
        for _ in range(2):
            d = float(np.polyval(deriv, x))
            if d == 0.0:
                break
            x -= float(np.polyval(arr, x)) / d
        out.append(x)
    return out


def fresh_corners(cell):
    """The target-independent crossings as the projection once enumerated
    them on every call, tagged: Q lines with the disk and the caps, the disk
    with each cap, then pairs of caps."""
    quad = optimizer.quad_roots
    cands = []
    for b, line in ((cell.q_lo, "q_lo"), (cell.q_hi, "q_hi")):
        if not math.isfinite(b):
            continue
        if math.isfinite(cell.r) and cell.r * cell.r >= b * b:
            s = math.sqrt(cell.r * cell.r - b * b)
            cands.extend([(s, b, line, "disk"), (-s, b, line, "disk")])
        for i, (c0, c1, c2) in enumerate(cell.paras):
            for p in quad(c2, c1, c0 - b):
                cands.append((p, b, line, i))
    if math.isfinite(cell.r):
        for i, (c0, c1, c2) in enumerate(cell.paras):
            coeffs = [
                c2 * c2,
                2.0 * c2 * c1,
                c1 * c1 + 2.0 * c2 * c0 + 1.0,
                2.0 * c1 * c0,
                c0 * c0 - cell.r * cell.r,
            ]
            for p in numpy_real_roots(coeffs):
                cands.append((p, c0 + c1 * p + c2 * p * p, "disk", i))
    for i in range(len(cell.paras)):
        for j in range(i + 1, len(cell.paras)):
            a0, a1, a2 = cell.paras[i]
            b0, b1, b2 = cell.paras[j]
            for p in quad(a2 - b2, a1 - b1, a0 - b0):
                cands.append((p, a0 + a1 * p + a2 * p * p, i, j))
    return tuple(cands)


def reference_project(prob):
    """Both narrowed cells solved; the lower one wins only if strictly better."""
    best = None
    for cell in (prob.region.upper_cell, prob.region.lower_cell):
        result = optimizer._project_cell(
            optimizer._narrowed(cell, prob.p_min, prob.p_max),
            prob.p_target,
            prob.q_target,
            prob.lambda_p,
            prob.lambda_q,
        )
        if result is not None and (best is None or result[2] < best[2]):
            best = result
    return best[0], best[1]


weights_st = st.tuples(
    st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 1e3)),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 1e3)),
).filter(lambda w: w[0] + w[1] > 0)
target_st = st.tuples(
    st.floats(-2000.0, 2000.0),
    st.one_of(st.floats(-2000.0, 2000.0), st.floats(-1e-9, 1e-9)),
)
p_min_st = st.one_of(st.just(0.0), st.just(-1e6), st.floats(-1000.0, 0.0))
p_max_st = st.one_of(st.just(0.0), st.just(1e6), st.floats(0.0, 1000.0))

#: Offsets across a boundary, dense within the _POINT_TOL of the status
#: flags and near its top, where a point is farther outside than a
#: relative 1e-12 of coordinates up to a few hundred kW.
BOUNDARY_DELTA = st.one_of(
    st.floats(-1e-9, 1e-9), st.sampled_from([0.6e-9, 0.9e-9, 0.99e-9, 1e-9, -1e-9])
)


def outcome(f, *args):
    """f(*args), or the name of the arithmetic error it raised."""
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc).__name__


def random_atoms(data):
    """An arbitrary envelope: a P box, a disk and a Q ceiling, each maybe
    missing, and up to two concave caps, all holding the origin."""
    atoms = []
    if data.draw(st.booleans()):
        atoms.append(PMin(-data.draw(st.floats(1.0, 1000.0))))
    if data.draw(st.booleans()):
        atoms.append(PMax(data.draw(st.floats(1.0, 1000.0))))
    if data.draw(st.booleans()):
        atoms.append(Disk(data.draw(st.floats(10.0, 1000.0))))
    if data.draw(st.booleans()):
        atoms.append(QMax(data.draw(st.floats(0.0, 1000.0))))
    for _ in range(data.draw(st.integers(0, 2))):
        atoms.append(
            ParabolaCap(
                data.draw(st.floats(0.0, 800.0)),
                data.draw(st.floats(-1.0, 1.0)),
                # A curvature whose square is subnormal overflows the
                # companion matrix of the disk-cap quartic, which
                # build_region rejects.
                -data.draw(st.one_of(st.just(0.0), st.floats(1e-8, 1e-2))),
            )
        )
    return atoms


def draw_cell(data, curve_map):
    """A shrink-scaled cell of a shipped region, of DIPPING or of random
    atoms, narrowed to random battery bounds as ``project`` narrows it."""
    source = data.draw(st.sampled_from(REGION_ANCHORS + ["dipping", "random"]))
    upper = data.draw(st.booleans())
    shrink = data.draw(st.floats(1e-3, 1.0))
    if source == "random":
        cell = capability._scaled_cell(random_atoms(data), shrink, upper)
    else:
        curves = [DIPPING] if source == "dipping" else [curve_map[a] for a in source]
        region = build_region(curves, shrink)
        cell = region.upper_cell if upper else region.lower_cell
    return optimizer._narrowed(cell, data.draw(p_min_st), data.draw(p_max_st))


def near_boundary(data, cell, deltas=BOUNDARY_DELTA):
    """A target within an offset drawn from deltas of a P line, a Q line,
    the disk, a cap or a finite stored corner of the cell, or anywhere."""
    kinds = ["anywhere", "cap", "corner"]
    kinds += ["p-line"] * any(map(math.isfinite, (cell.p_lo, cell.p_hi)))
    kinds += ["q-line"] * any(map(math.isfinite, (cell.q_lo, cell.q_hi)))
    kinds += ["disk"] * math.isfinite(cell.r)
    kind = data.draw(st.sampled_from(kinds))
    delta = data.draw(deltas)
    along = data.draw(st.floats(-1000.0, 1000.0))
    if kind == "p-line":
        edge = data.draw(st.sampled_from([p for p in (cell.p_lo, cell.p_hi) if math.isfinite(p)]))
        return edge + delta, along
    if kind == "q-line":
        edge = data.draw(st.sampled_from([q for q in (cell.q_lo, cell.q_hi) if math.isfinite(q)]))
        return along, edge + delta
    if kind == "disk":
        angle = data.draw(st.floats(0.0, 2.0 * math.pi))
        return (cell.r + delta) * math.cos(angle), (cell.r + delta) * math.sin(angle)
    if kind == "cap" and cell.paras:
        c0, c1, c2 = data.draw(st.sampled_from(cell.paras))
        return along, c0 + c1 * along + c2 * along * along + delta
    corners = [c[:2] for c in cell.corners if math.isfinite(c[0])]
    if kind == "corner" and corners:
        p, q = data.draw(st.sampled_from(corners))
        return p + delta, q + data.draw(deltas)
    return along, data.draw(st.floats(-1000.0, 1000.0))


#: Unit roundoff times two: the spacing of floats just above 1.
EPS = sys.float_info.epsilon


def certifies(cell, p, q, p0, q0, wp, wq):
    """(p, q) passes the screen and meets the KKT conditions for the target
    up to 1e-9 of its coordinates and its distance from the target, plus
    four ulps of the multipliers' terms, which are large where two binding
    normals are nearly parallel."""
    scale = max(1.0, abs(p), abs(q), abs(p - p0), abs(q - q0))
    multipliers, residual = certify(cell, p, q, p0, q0, wp, wq)
    rounding = 4.0 * EPS * sum(multipliers.values()) / max(wp, wq)
    return violation(cell, p, q) <= optimizer._SCREEN_TOL and residual <= 1e-9 * scale + rounding


def costs_no_more(cell, got, p0, q0, wp, wq):
    """The cell solve's (p, q, objective) costs at most every candidate of
    the running-best scan that lies in the cell after the polish (see
    oracles.least_in_cell), up to rounding: four ulps of the objective, and
    moving the point by two ulps of its coordinates."""
    p, q, objective = got
    least = least_in_cell(cell, p0, q0, wp, wq)
    move = 2.0 * math.ulp(max(1.0, abs(p), abs(q)))
    slope = 2.0 * math.hypot(wp * (p - p0), wq * (q - q0))
    rounding = 4.0 * math.ulp(least) + slope * move + max(wp, wq) * move * move
    return objective <= least + rounding


def assert_agrees_with_running_best(cell, p0, q0, wp, wq):
    """The cell solve returns what the running-best scan returns, or, where
    the two part, a point that costs no more than any of the scan's
    candidates in the cell (see costs_no_more) and that certifies, unless
    it came through the fallback of a cell whose binding normals are
    parallel.  They part where both reach one point by different roundings,
    or where the scan ranks a screened candidate outside the cell below the
    optimum.  Beyond about 1e154 from the target objectives overflow, and
    both raise the same error."""
    least = optimizer._least_objective
    with mock.patch.object(optimizer, "_least_objective", wraps=least) as fallback:
        got = outcome(optimizer._project_cell, cell, p0, q0, wp, wq)
    expected = outcome(running_best_cell, cell, p0, q0, wp, wq)
    if got != expected:
        p, q, _ = got
        assert fallback.called or certifies(cell, p, q, p0, q0, wp, wq)
        assert costs_no_more(cell, got, p0, q0, wp, wq)


def tol_deltas(tol):
    """Offsets across a boundary that straddle tol and -tol: each of them,
    the floats next to them, or anything within 2 tol + 1e-9."""
    edges = [s * math.nextafter(tol, d) for s in (-1.0, 1.0) for d in (-math.inf, 0.0, math.inf)]
    return st.one_of(st.sampled_from(edges + [0.0]), st.floats(-2 * tol - 1e-9, 2 * tol + 1e-9))


class TestProjectExactness:
    """project skips the Q cell that cannot win, reads each cell's corners
    from the region and screens candidates with Cell.within; none of these
    may change one bit of its result.  A cell solve returns what the
    running-best scan over every candidate returns, or a certified point
    that costs no more."""

    @settings(max_examples=3000, deadline=None)
    @given(data=st.data(), tol=st.sampled_from([0.0, optimizer._SCREEN_TOL]))
    def test_within_equals_violation_at_most_tol(self, curve_map, data, tol):
        # _project_cell only screens points inside the P box widened by tol,
        # so p is finite; q may be anything.
        cell = draw_cell(data, curve_map)
        p, q = near_boundary(data, cell, tol_deltas(tol))
        q = data.draw(st.sampled_from([q, q, q, math.inf, -math.inf, math.nan]))
        assert cell.within(p, q, tol) == (violation(cell, p, q) <= tol)

    def test_stored_corners_equal_fresh_enumeration(self, curve_map):
        for anchors in REGION_ANCHORS:
            for shrink in (1.0, 7.0 / 9.0, 0.3):
                region = build_region([curve_map[a] for a in anchors], shrink)
                for cell in (region.upper_cell, region.lower_cell):
                    assert cell.corners == fresh_corners(cell), (anchors, shrink)

    def test_shipped_upper_caps_stay_nonnegative(self, curve_map):
        for anchors in REGION_ANCHORS:
            if anchors == ((500.0, 270.0),):
                continue  # no P box of its own: the flag stays off
            region = build_region([curve_map[a] for a in anchors], 7.0 / 9.0)
            assert region.upper_cell.caps_nonneg, anchors

    @settings(max_examples=600, deadline=None)
    @given(
        anchors=st.sampled_from(REGION_ANCHORS + ["dipping"]),
        shrink=st.floats(1e-3, 1.0),
        weights=weights_st,
        target=target_st,
        p_min=p_min_st,
        p_max=p_max_st,
    )
    # q0 ** 2 underflows to 0, but wq * q0 * q0 rounded up to the least
    # subnormal: the skip bound must not exceed the far cell's objective.
    @example(
        anchors=((500.0, 300.0),),
        shrink=1.0,
        weights=(0.0, 26.0),
        target=(0.0, -3.140249944266625e-163),
        p_min=0.0,
        p_max=0.0,
    )
    def test_equals_both_cell_reference(
        self, curve_map, anchors, shrink, weights, target, p_min, p_max
    ):
        curves = [DIPPING] if anchors == "dipping" else [curve_map[a] for a in anchors]
        prob = problem(build_region(curves, shrink), target, weights, (p_min, p_max))
        assert project(prob) == reference_project(prob)

    @settings(max_examples=1500, deadline=None)
    @given(
        anchors=st.sampled_from(REGION_ANCHORS + ["dipping", "crossing"]),
        shrink=st.floats(1e-3, 1.0),
        wp=st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
        target=st.tuples(
            st.floats(-2000.0, 2000.0),
            st.one_of(
                st.floats(-2000.0, 2000.0), st.floats(-1e-9, 1e-9), st.sampled_from([0.0, -0.0])
            ),
        ),
        p_min=p_min_st,
        p_max=p_max_st,
    )
    def test_zero_q_weight_equals_both_cell_reference(
        self, curve_map, anchors, shrink, wp, target, p_min, p_max
    ):
        # With lambda_q = 0 and q0 >= 0 the lower cell is skipped when the
        # upper one costs at most lambda_p * d^2; it must lose every such tie.
        named = {"dipping": [DIPPING], "crossing": [CROSSING]}
        curves = named.get(anchors) or [curve_map[a] for a in anchors]
        prob = problem(build_region(curves, shrink), target, (wp, 0.0), (p_min, p_max))
        assert project(prob) == reference_project(prob)

    @pytest.mark.parametrize("q0, cells", [(50.0, 1), (0.0, 1), (-50.0, 2)])
    def test_zero_q_weight_solves_the_lower_cell_only_when_it_can_win(
        self, curve_map, monkeypatch, q0, cells
    ):
        # p0 lies beyond the battery bound, which both cells reach: the
        # objectives tie at lambda_p * (p_max - p0)^2.  The upper cell wins
        # ties, so solved first (q0 >= 0) it settles the step alone; solved
        # second (q0 < 0) it is still needed to break the tie.
        region = build_region([curve_map[(600.0, 300.0)]], 1.0)
        prob = problem(region, (800.0, q0), (1.0, 0.0), (-300.0, 300.0))
        expected = reference_project(prob)
        counts = count_calls(monkeypatch, (optimizer, "_project_cell"))
        assert project(prob) == expected
        assert counts == {"_project_cell": cells}

    @settings(max_examples=1500, deadline=None)
    @given(
        data=st.data(),
        weights=st.tuples(
            st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
            st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
        ),
    )
    def test_ranked_selection_equals_running_best(self, curve_map, data, weights):
        cell = draw_cell(data, curve_map)
        p0, q0 = near_boundary(data, cell)
        assert_agrees_with_running_best(cell, p0, q0, *weights)

    @settings(max_examples=1500, deadline=None)
    @given(
        data=st.data(),
        anchors=st.sampled_from(REGION_ANCHORS + ["dipping"]),
        shrink=st.floats(1e-3, 1.0),
        weights=weights_st,
        p_min=p_min_st,
        p_max=p_max_st,
    )
    def test_result_stays_inside_its_narrowed_cell(
        self, curve_map, data, anchors, shrink, weights, p_min, p_max
    ):
        curves = [DIPPING] if anchors == "dipping" else [curve_map[a] for a in anchors]
        region = build_region(curves, shrink)
        cells = [optimizer._narrowed(c, p_min, p_max) for c in (region.upper_cell, region.lower_cell)]
        target = near_boundary(data, data.draw(st.sampled_from(cells)))
        p, q = project(problem(region, target, weights, (p_min, p_max)))
        assert min(violation(cell, p, q) for cell in cells) <= 1e-12 * max(1.0, abs(p), abs(q))

    def test_dipping_cap_keeps_upper_cell_solved(self, monkeypatch):
        region = build_region([DIPPING], 1.0)
        assert not region.upper_cell.caps_nonneg
        solved = []
        original = optimizer._project_cell

        def counting(cell, *args):
            solved.append(cell.q_lo)
            return original(cell, *args)

        monkeypatch.setattr(optimizer, "_project_cell", counting)
        # The lower cell reaches this target within far less than q0^2.
        prob = problem(region, (650.0, -300.0))
        assert project(prob) == reference_project(prob)
        assert len(solved) == 4

    def test_target_beyond_the_p_box_solves_one_cell(self, curve_map, monkeypatch):
        # The upper cell's corner on P_max and the disk costs less than
        # lambda_p times the squared distance to P_max plus lambda_q * q0^2,
        # which the lower cell's projection costs at least.
        region = build_region([curve_map[(600.0, 300.0)]], 7.0 / 9.0)
        prob = problem(region, (1729.475, 207.775))
        expected = reference_project(prob)
        counts = count_calls(monkeypatch, (optimizer, "_project_cell"))
        assert project(prob) == expected
        assert counts == {"_project_cell": 1}

    def test_target_within_point_tol_of_axis_keeps_both_cells(self):
        # Disks of different radius per Q sign and no P box: the target is
        # 2e-9 outside the lower disk and 0.9e-9 below the upper cell.
        # Neither cell hands it back: the lower cell's projection, a tiny
        # step in p, beats the upper cell's, which costs lambda_q * q0^2.
        curve = CapabilityCurve(
            "split", 600.0, 300.0, (Disk(700.0, "upperQ"), Disk(650.0, "lowerQ"))
        )
        target = (650.0 + 2e-9, -0.9e-9)
        region = build_region([curve], 1.0)
        prob = problem(region, target, weights=(1e-3, 1e3))
        p, q = project(prob)
        assert (p, q) == reference_project(prob)
        assert violation(region.lower_cell, p, q) <= 0.0

    def test_crossing_cap_pulls_an_upper_cell_point_below_q_zero(self):
        # The upper cell's result is not in the upper cell: its corner of
        # Q = 0 with the cap rounds to where the cap is -1.4e-14, and _polish
        # takes the cap's min after clamping q to 0.  project returns the
        # lower cell's point, which costs less.
        region = build_region([CROSSING], 1.0)
        p0, q0 = -319.39004367700636, 0.5
        p, q, objective = optimizer._project_cell(region.upper_cell, p0, q0, 1.0, 1.0)
        assert (p, q) == (-316.22776601683796, -1.4210854715202004e-14)
        assert violation(region.lower_cell, p, q) <= 0.0
        lower = optimizer._project_cell(region.lower_cell, p0, q0, 1.0, 1.0)
        assert lower[2] < objective
        assert project(problem(region, (p0, q0))) == lower[:2]

    @settings(max_examples=1500, deadline=None)
    @given(
        dp=CROSSING_DELTA,
        dq=CROSSING_DELTA,
        weights=st.one_of(
            st.sampled_from([(1.0, 1.0), (1.0, 9.0), (25.0, 1.0), (1.0, 0.0), (0.0, 1.0)]),
            weights_st,
        ),
        p_min=p_min_st,
        p_max=st.one_of(p_max_st, st.floats(316.0, 316.3)),
    )
    def test_result_near_a_crossing_cap_keeps_the_bounds_invariants(
        self, dp, dq, weights, p_min, p_max
    ):
        # What _voltage_bounds relies on: the point is in the region, its p
        # in the narrowed P box, and its |S| within the disk radius.
        region = build_region([CROSSING], 1.0)
        target = (CROSSING_CORNER[0] + dp, CROSSING_CORNER[1] + dq)
        p, q = project(problem(region, target, weights, (p_min, p_max)))
        cells = [optimizer._narrowed(c, p_min, p_max) for c in (region.upper_cell, region.lower_cell)]
        assert region.contains(p, q)
        assert min(violation(cell, p, q) for cell in cells) <= 1e-12 * max(1.0, abs(p), abs(q))
        assert max(p_min, -500.0) <= p <= min(p_max, 500.0)
        assert math.hypot(p, q) <= 700.0 * (1.0 + 1e-12)

    def test_clipped_step_solves_no_quartic_and_one_cell(
        self, controller_cfg, curve_map, bands, monkeypatch
    ):
        droop = DroopConfig(alpha0=29715.0, beta0=12.57, f_ref=50.0, v_ref=21.192)
        cfg = ControllerConfig(
            droop=droop,
            battery=controller_cfg.battery,
            transformer=controller_cfg.transformer,
            shrink=controller_cfg.shrink,
        )
        ctl = SetpointController(cfg, curve_map, bands)
        state = TtcState(0.0, 0.0, 0.0, 0.5)
        ctl.solve_step(GridSample(0.0, 50.02, 21.15), state)  # builds the regions

        degrees = []
        eigvals = capability._eigvals

        def counting_eigvals(companion):
            degrees.append(len(companion))
            return eigvals(companion)

        counts = {"project": 0, "cell": 0}
        original_project, original_cell = optimizer.project, optimizer._project_cell

        def counting_project(prob):
            counts["project"] += 1
            return original_project(prob)

        def counting_cell(*args):
            counts["cell"] += 1
            return original_cell(*args)

        monkeypatch.setattr(capability, "_eigvals", counting_eigvals)
        monkeypatch.setattr(optimizer, "project", counting_project)
        monkeypatch.setattr(optimizer, "_project_cell", counting_cell)
        # Both gains oversized: the target lies outside every region, and
        # its projection onto the disk alone is the answer, so no cubic.
        record, _ = ctl.solve_step(GridSample(1.0, 49.97, 21.15), state)
        assert STATUS_CLIPPED in record.status
        assert degrees.count(3) == 0
        assert 4 not in degrees

        # A reactive target far beyond the Q ceilings, with P well inside:
        # the upper cell is within q0^2 of the target, so the lower cell,
        # which costs at least q0^2, is never solved.
        counts.update(project=0, cell=0)
        record, _ = ctl.solve_step(GridSample(2.0, 50.005, 21.125), state)
        assert STATUS_CLIPPED in record.status
        assert record.q_target > 500.0
        assert counts["cell"] == counts["project"] >= 1

        # Undervoltage: the conservative clamp's cap binds, and the step
        # solves that cap's cubic once, in one cell.
        degrees.clear()
        counts.update(project=0, cell=0)
        record, _ = ctl.solve_step(GridSample(3.0, 50.0, 18.7), state)
        assert STATUS_CLIPPED in record.status and STATUS_CLAMP in record.status
        assert degrees.count(3) == 1
        assert 4 not in degrees
        assert counts["cell"] == counts["project"] == 1


def log_uniform(lo_exp, hi_exp):
    """Magnitudes spread evenly over the decades 10**lo_exp to 10**hi_exp."""
    return st.floats(lo_exp, hi_exp).map(lambda x: 10.0**x)


def signed(magnitude):
    return st.builds(math.copysign, magnitude, st.sampled_from([-1.0, 1.0]))


#: Slopes, as magnitudes, from flat to steep.
SLOPE = st.one_of(st.just(0.0), log_uniform(-3.0, 3.0), log_uniform(1.0, 3.0))
#: Signed gaps of a cap over a level, from far below the cap margin to far
#: above, and often within a steep cap's fall over the screen's tolerance.
GAP = signed(st.one_of(log_uniform(-9.0, 3.0), log_uniform(-7.0, -3.0)))
CURVATURE = st.one_of(st.just(0.0), log_uniform(-8.0, -2.0))


def draw_cap(data, box, end, q_hi, caps):
    """A concave cap (c0, c1, c2) and the p it was placed at, if any: random;
    GAP above the Q ceiling or an earlier cap at box[end], falling off
    outward with a steep or gentle slope; or an earlier cap plus a convex
    bowl whose vertex lies in the box, GAP above or below it there, so that
    the two caps cross twice or never."""
    levels = caps + [(q_hi, 0.0, 0.0)] * math.isfinite(q_hi)
    kind = data.draw(st.sampled_from(["random"] + ["end"] * bool(levels) + ["bowl"] * bool(caps)))
    if kind == "random":
        c1 = data.draw(signed(SLOPE))
        return (data.draw(st.floats(0.0, 800.0)), c1, -data.draw(CURVATURE)), None
    if kind == "end":
        e = box[end]
        b0, b1, b2 = data.draw(st.sampled_from(levels))
        slope = -math.copysign(data.draw(SLOPE), e)
        c2 = -data.draw(CURVATURE)
        c1 = slope - 2.0 * c2 * e
        return (b0 + b1 * e + b2 * e * e + data.draw(GAP) - c1 * e - c2 * e * e, c1, c2), e
    b0, b1, b2 = data.draw(st.sampled_from(caps))
    k = data.draw(st.floats(0.0, 1.0)) * -b2
    v = data.draw(st.floats(*box))
    return (b0 + k * v * v + data.draw(GAP), b1 - 2.0 * k * v, b2 + k), v


def draw_spot_target(data, cell, spots):
    """A target anywhere, or 1e-9 to 1 from one of spots (scaled like the
    cell), more often than not level with the Q ceiling or a cap, give or
    take GAP."""
    kind = data.draw(st.sampled_from(["anywhere", "spot", "level", "level"]))
    if kind == "anywhere":
        return data.draw(st.floats(-2000.0, 2000.0)), data.draw(st.floats(-2000.0, 2000.0))
    p0 = data.draw(st.sampled_from(spots)) + data.draw(signed(log_uniform(-9.0, 0.0)))
    levels = [(cell.q_hi, 0.0, 0.0)] * math.isfinite(cell.q_hi) + list(cell.paras)
    if kind == "spot" or not levels:
        return p0, data.draw(st.floats(-2000.0, 2000.0))
    c0, c1, c2 = data.draw(st.sampled_from(levels))
    return p0, c0 + c1 * p0 + c2 * p0 * p0 + data.draw(GAP)


def draw_capped_atoms(data, upper):
    """(atoms, caps, spots): a finite P box, maybe a disk and a Q ceiling,
    and one to three caps from draw_cap that crowd one end of the box, all
    holding the origin; spots are that end and the places caps were put."""
    p_lo, p_hi = -data.draw(st.floats(1.0, 1000.0)), data.draw(st.floats(1.0, 1000.0))
    atoms = [PMin(p_lo), PMax(p_hi)]
    if data.draw(st.booleans()):
        atoms.append(Disk(data.draw(st.floats(10.0, 1500.0))))
    q_max = data.draw(st.one_of(st.just(math.inf), st.floats(0.0, 1000.0)))
    if math.isfinite(q_max):
        atoms.append(QMax(q_max))
    q_hi = q_max if upper else 0.0
    end = data.draw(st.sampled_from([0, 1]))
    caps, spots = [], [(p_lo, p_hi)[end]]
    for _ in range(data.draw(st.integers(1, 3))):
        cap, spot = draw_cap(data, (p_lo, p_hi), end, q_hi, caps)
        caps.append(cap)
        spots += [spot] * (spot is not None)
    # The origin is feasible in every region.
    assume(all(c0 >= 0.0 for c0, _, _ in caps))
    return atoms + [ParabolaCap(*c) for c in caps], caps, spots


class TestBindingCaps:
    """_scaled_cell keeps only the caps that can bind on its finite P box;
    projecting onto the pruned cell must equal projecting onto the cell
    with every cap, bit for bit."""

    def test_margin_covers_the_screen(self):
        # A dropped cap stays clear of every candidate the screen admits.
        assert optimizer._SCREEN_TOL < capability._CAP_MARGIN

    @settings(max_examples=1500, deadline=None)
    @given(
        data=st.data(),
        upper=st.booleans(),
        shrink=st.sampled_from([1.0, 7.0 / 9.0, 0.3]),
        weights=st.one_of(
            st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]),
            st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
        ),
        p_min=p_min_st,
        p_max=p_max_st,
    )
    def test_pruned_cell_projects_as_the_full_cell(
        self, data, upper, shrink, weights, p_min, p_max
    ):
        atoms, caps, spots = draw_capped_atoms(data, upper)
        paras = [(c0 * shrink, c1, c2 / shrink) for c0, c1, c2 in caps]
        try:
            pruned = capability._scaled_cell(atoms, shrink, upper)
            corners = capability._cell_corners(pruned.q_lo, pruned.q_hi, pruned.r, paras)
        except ValueError:
            assume(False)  # a cap too flat beside the disk
        full = dataclasses.replace(pruned, paras=tuple(paras), corners=corners)
        p0, q0 = draw_spot_target(data, full, [p * shrink for p in spots])
        cells = [optimizer._narrowed(c, p_min, p_max) for c in (pruned, full)]
        assert outcome(optimizer._project_cell, cells[0], p0, q0, *weights) == outcome(
            optimizer._project_cell, cells[1], p0, q0, *weights
        )

    def test_steep_cap_clearing_the_ceiling_at_a_box_end_is_kept(self):
        # 1e-5 above Q = 0 at p = -1, the cap falls below it 1e-8 further
        # out, where the screen still admits candidates: without the cap,
        # the screen would admit points that it rejects.
        cell = capability._scaled_cell(
            [PMin(-1.0), PMax(1.0), ParabolaCap(1000.00001, 1000.0, 0.0)], 1.0, False
        )
        assert cell.paras == ((1000.00001, 1000.0, 0.0),)
        without = dataclasses.replace(cell, paras=(), corners=())
        outside = (-1.0 - 5e-8, 0.0, optimizer._SCREEN_TOL)
        assert without.within(*outside) and not cell.within(*outside)
        # The cap's stationary point beyond the box no longer outranks the
        # clamp onto P_min, which is in the cell and so the optimum.
        target = (-1.01, 0.0, 1.0, 1.0)
        assert optimizer._project_cell(cell, *target)[:2] == (-1.0, 0.0)

    def test_scenario4_controller_solves_six_quartics(self, curve_map, bands, monkeypatch):
        degrees = []
        original = capability.poly_real_roots

        def counting(coeffs):
            degrees.append(len(coeffs) - 1)
            return original(coeffs)

        monkeypatch.setattr(capability, "poly_real_roots", counting)
        _, cfg = load_run_config(builtin_scenario_path("scenario4"))
        ctl = SetpointController(cfg, curve_map, bands)
        assert degrees.count(4) == 6
        cells = [c for r in ctl._regions.values() for c in (r.upper_cell, r.lower_cell)]
        assert all(len(c.paras) <= 1 for c in cells)


#: Offsets from a corner, a crossing or a boundary, 1e-8 to 1e-1 either way:
#: within the screen's tolerance of it and far beyond.
MARGIN_DELTA = signed(log_uniform(-8.0, -1.0))
#: Positive weights up to six decades apart, which tilt the single-constraint
#: projections and the multipliers of the crossings.
UNEQUAL_WEIGHTS = st.tuples(log_uniform(-3.0, 3.0), log_uniform(-3.0, 3.0))
#: Target coordinates up to 1e6 away from the origin.
FAR = signed(log_uniform(0.0, 6.0))


def p_crossings(cell):
    """The crossings of the cell's finite P lines with its finite Q lines,
    its disk and its caps, as the projection enumerates them."""
    out = []
    for a in (cell.p_lo, cell.p_hi):
        if not math.isfinite(a):
            continue
        out += [(a, b) for b in (cell.q_lo, cell.q_hi) if math.isfinite(b)]
        if math.isfinite(cell.r) and cell.r * cell.r >= a * a:
            s = math.sqrt(cell.r * cell.r - a * a)
            out += [(a, s), (a, -s)]
        out += [(a, c0 + c1 * a + c2 * a * a) for c0, c1, c2 in cell.paras]
    return out


def violated(cell, p, q):
    """How many of the cell's constraints (p, q) violates."""
    terms = [cell.p_lo - p, p - cell.p_hi, cell.q_lo - q, q - cell.q_hi]
    if cell.r is not None:
        terms.append(math.hypot(p, q) - cell.r)
    terms += [q - (c0 + c1 * p + c2 * p * p) for c0, c1, c2 in cell.paras]
    return sum(t > 0.0 for t in terms)


def margin_target(data, cell):
    """A target up to 1e6 away, or one MARGIN_DELTA from a P-line crossing,
    a stored corner or a boundary that violates exactly one constraint."""
    kind = data.draw(st.sampled_from(["far", "p-crossing", "near"]))
    if kind == "far":
        return data.draw(FAR), data.draw(FAR)
    crossings = p_crossings(cell)
    if kind == "p-crossing" and crossings:
        p, q = data.draw(st.sampled_from(crossings))
        target = p + data.draw(MARGIN_DELTA), q + data.draw(MARGIN_DELTA)
    else:
        target = near_boundary(data, cell, MARGIN_DELTA)
    assume(violated(cell, *target) == 1)
    return target


def count_calls(monkeypatch, *functions):
    """Count the calls of each (module, name) in functions, by name."""
    counts = dict.fromkeys((name for _, name in functions), 0)
    for module, name in functions:

        def counting(*args, name=name, original=getattr(module, name)):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    return counts


def violated_caps(cell, p0, q0):
    """The caps of the cell that the target lies above."""
    return [(c0, c1, c2) for c0, c1, c2 in cell.paras if q0 - (c0 + c1 * p0 + c2 * p0 * p0) > 0.0]


class TestSingleConstraintExit:
    """_project_cell returns the projection onto one constraint the target
    violates when it passes the screen, and otherwise the first crossing
    whose multipliers certify it.  The result must agree with the running-best
    scan, and a cell solve solves at most one cubic per cap the target
    violates and none for the other caps."""

    @settings(max_examples=3000, deadline=None)
    @given(data=st.data(), weights=UNEQUAL_WEIGHTS)
    def test_exit_equals_running_best(self, curve_map, data, weights):
        cell = draw_cell(data, curve_map)
        p0, q0 = margin_target(data, cell)
        assert_agrees_with_running_best(cell, p0, q0, *weights)

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data(), weights=UNEQUAL_WEIGHTS)
    def test_a_cell_solve_solves_each_root_once(self, curve_map, data, weights):
        cell = draw_cell(data, curve_map)
        if data.draw(st.booleans()):
            p0, q0 = data.draw(FAR), data.draw(FAR)
        else:  # outside any number of constraints
            p0, q0 = near_boundary(data, cell, MARGIN_DELTA)
        cubics, circles = [], []
        stationary, circle = optimizer._parabola_stationary, optimizer._circle_candidates

        def count_cubic(p0, q0, para, wp, wq):
            cubics.append(para)
            return stationary(p0, q0, para, wp, wq)

        def count_circle(*args):
            circles.append(args)
            return circle(*args)

        with mock.patch.object(optimizer, "_parabola_stationary", count_cubic):
            with mock.patch.object(optimizer, "_circle_candidates", count_circle):
                outcome(optimizer._project_cell, cell, p0, q0, *weights)
        assert len(circles) <= 1
        above = violated_caps(cell, p0, q0)
        assert all(cubics.count(para) <= above.count(para) for para in cubics)

    def test_cap_exit_takes_the_least_objective_stationary_point(self):
        # The target lies above DIPPING's cap, which has three stationary
        # points for it.  Only the one below the target is its projection
        # onto the cap, and it lies beyond the P box, so a crossing is taken.
        cell = optimizer._narrowed(build_region([DIPPING], 0.5).upper_cell, -1e6, 0.0)
        target = (172.0, 0.0, 1.0, 20.0)
        points = optimizer._parabola_stationary(172.0, 0.0, cell.paras[0], 1.0, 20.0)
        assert len(points) == 3
        assert [p for p, q in points if q < 0.0] == [points[0][0]]
        assert points[0][0] > cell.p_hi
        assert optimizer._project_cell(cell, *target) == running_best_cell(cell, *target)

    def test_cap_projection_is_the_root_below_the_target(self):
        # Of the cap's three stationary points for this target the first is
        # in the cell but above the target, where the cap's multiplier is
        # negative; the second, below the target, is the projection.
        cell = capability._scaled_cell(
            [PMin(-870.0), PMax(980.0), ParabolaCap(600.0, 0.8, -0.07)], 1.0, False
        )
        target = (-1365.0, -935.0, 0.005, 11.4)
        points = optimizer._parabola_stationary(-1365.0, -935.0, cell.paras[0], 0.005, 11.4)
        assert [q > -935.0 for _, q in points] == [True, False, True]
        assert cell.within(*points[0], 0.0)
        assert optimizer._project_cell(cell, *target) == (*points[1], 7472.781412262812)
        assert optimizer._project_cell(cell, *target) == running_best_cell(cell, *target)

    def test_cap_projection_rounded_above_the_target_is_kept(self):
        # With lambda_q 4e5 times lambda_p the projection onto the cap moves
        # almost only in p, and its root rounds to 1.1e-15 above q0; it is
        # still the root of least q, and in the cell.
        atoms = [PMin(-0.5), PMax(323.4277242377937), Disk(377.3323449440927)]
        cap = ParabolaCap(53.90462070629896, 0.05, -0.0018551285342466872)
        cell = capability._scaled_cell([*atoms, cap], 1.0, True)
        target = (184.46939508228442, 6e-10, 0.001, 416.0745913268247)
        points = optimizer._parabola_stationary(*target[:2], cell.paras[0], *target[2:])
        assert min(q for _, q in points) == 6.00010707785259e-10
        p, q, objective = optimizer._project_cell(cell, *target)
        assert (p, q) == (184.46939508072776, 6.00010707785259e-10)
        assert objective == least_in_cell(cell, *target) == 2.4232288007736523e-21

    def test_single_projection_that_misses_a_constraint_yields_to_the_corner(self):
        # The Q = 0 clamp lies 5.6e-11 above the cap, inside the screen, and
        # the cap's projection 4.7e-10 above Q = 0; polished, either costs
        # more than the Q = 0/cap corner, which the solve takes.
        atoms = [PMin(0.0), PMax(600.0), Disk(700.0), ParabolaCap(100.0, 0.05, -0.001)]
        cell = capability._scaled_cell(atoms, 1.0, False)
        target = (342.2144385113268, 6e-10, 1.0, 10.0)
        singles = list(optimizer._single_projections(cell, *target))
        assert [k for _, _, k in singles] == ["q_hi", 0]
        assert all(cell.within(p, q, optimizer._SCREEN_TOL) for p, q, _ in singles)
        p, q, objective = optimizer._project_cell(cell, *target)
        assert p == 342.21443851123803 == cell.corners[2][0]
        assert objective == least_in_cell(cell, *target) == 3.608054093426276e-18
        assert running_best_cell(cell, *target)[2] == 4.2866829644598274e-18

    def test_crossing_that_misses_a_third_constraint_yields_to_the_next(self):
        # A steep cap passes 3.7e-8 below the corner of P_max and the Q
        # ceiling, inside the screen.  The corner's multipliers are >= 0, but
        # polished onto the cap it costs 1.2e-4 more than the ceiling's
        # crossing with the cap, which the solve takes.
        atoms = [PMin(-165.85556396199), PMax(103.34323472064251), Disk(403.25810213567826)]
        atoms += [QMax(166.30557452482245), ParabolaCap(17276.329275174026, -165.565010103838, 0.0)]
        cell = capability._scaled_cell(atoms, 1.0, True)
        target = (1657.5789155523807, 1801.7152286111673, 1.1706002384022218, 1.0)
        box = (cell.p_hi, cell.q_hi)
        assert cell.within(*box, optimizer._SCREEN_TOL) and not cell.within(*box, 0.0)
        assert optimizer._certified(cell, *box, "p_hi", "q_hi", -1.0, -1.0)
        p, q, objective = optimizer._project_cell(cell, *target)
        assert (p, q, "q_hi", 0) == cell.corners[5]
        assert objective == least_in_cell(cell, *target) == 5502323.507044042
        assert running_best_cell(cell, *target)[2] == 5502323.507165149

    def test_cap_bound_cell_solve_enumerates_nothing(self, curve_map, monkeypatch):
        # The target of the clipped step at (2.0, 50.005, 21.125) in
        # TestProjectExactness: far above the Q ceiling, P well inside.
        cell = build_region([curve_map[(600.0, 300.0)]], 7.0 / 9.0).upper_cell
        target = (-148.6, 842.2, 1.0, 1.0)
        expected = running_best_cell(cell, *target)
        counts = count_calls(monkeypatch, (optimizer, "_crossings"), (capability, "_eigvals"))
        p, q, objective = optimizer._project_cell(cell, *target)
        assert (p, q, objective) == expected
        assert counts == {"_crossings": 0, "_eigvals": 1}
        (c0, c1, c2), = cell.paras
        assert q == c0 + c1 * p + c2 * p * p < cell.q_hi

    @pytest.mark.parametrize(
        "target, crossings, cubics",
        [
            # Outside the disk alone, 1e-3 above Q = 0: the circle point is
            # in the cell, and the cap, far above the target, needs no cubic.
            ((505.1666666666667 + 0.5, 0.001, 20.0, 1.0), 0, 0),
            # Beyond the P box, the disk and the cap, by where the cap meets
            # Q = 0: the circle point is in the cell, so the cap's cubic,
            # last in the pass, is not solved.
            ((1026.6554378595035 + 0.001, 0.001, 1.0, 20.0), 0, 0),
            # Above the cap and beyond the P box and the disk: no single
            # projection is in the cell, so the cap's cubic is solved once
            # and the crossings are searched, to the disk-cap corner.
            ((600.0, 400.0, 1.0, 1.0), 1, 1),
        ],
    )
    def test_near_corner_miss_solves_each_root_once(
        self, curve_map, monkeypatch, target, crossings, cubics
    ):
        curves = [curve_map[(600.0, 300.0)], curve_map[(500.0, 270.0)]]
        cell = build_region(curves, 7.0 / 9.0).upper_cell
        assert cubics <= len(violated_caps(cell, *target[:2]))
        expected = running_best_cell(cell, *target)
        counts = count_calls(
            monkeypatch,
            (optimizer, "_crossings"),
            (optimizer, "_circle_candidates"),
            (capability, "_eigvals"),
        )
        assert optimizer._project_cell(cell, *target) == expected
        assert counts == {"_crossings": crossings, "_circle_candidates": 1, "_eigvals": cubics}

    def test_cell_solve_without_a_screened_candidate_raises(self, curve_map, monkeypatch):
        # A cell holds the origin, so some crossing always passes the screen;
        # with the crossings emptied, and no single projection in the cell
        # for this target, none does.
        cell = build_region([curve_map[(600.0, 300.0)]], 1.0).upper_cell
        singles = list(optimizer._single_projections(cell, 2000.0, 300.0, 0.5, 0.5))
        assert singles
        assert not any(cell.within(p, q, optimizer._SCREEN_TOL) for p, q, _ in singles)
        monkeypatch.setattr(optimizer, "_crossings", lambda cell: iter(()))
        with pytest.raises(RuntimeError, match=re.escape("target (2000.0, 300.0)")):
            optimizer._project_cell(cell, 2000.0, 300.0, 1.0, 1.0)


def draw_spot_cell(data):
    """A cell of random_atoms or draw_capped_atoms, of either Q sign, scaled
    and narrowed as project narrows it, and a target from draw_spot_target."""
    upper = data.draw(st.booleans())
    shrink = data.draw(st.sampled_from([1.0, 7.0 / 9.0, 0.3]))
    if data.draw(st.booleans()):
        atoms, spots = random_atoms(data), [0.0]
    else:
        atoms, _, spots = draw_capped_atoms(data, upper)
    try:
        cell = capability._scaled_cell(atoms, shrink, upper)
    except ValueError:
        assume(False)  # a cap too flat beside the disk
    cell = optimizer._narrowed(cell, data.draw(p_min_st), data.draw(p_max_st))
    return cell, draw_spot_target(data, cell, [p * shrink for p in spots])


def slsqp_objective(cell, p0, q0, wp, wq):
    """The least objective scipy's SLSQP finds from the origin, and whether
    it converged.  The objective is divided by max(wp, wq) times the larger
    of 1 and the target's squared largest coordinate, and converges to 1e-16
    of that."""
    scale = max(wp, wq) * max(1.0, abs(p0), abs(q0)) ** 2

    def objective(x):
        dp, dq = x[0] - p0, x[1] - q0
        return (wp * dp * dp + wq * dq * dq) / scale, np.array([wp * dp, wq * dq]) * (2.0 / scale)

    def ineq(fun, jac):
        return {"type": "ineq", "fun": fun, "jac": jac}

    constraints = []
    if math.isfinite(cell.q_lo):
        constraints.append(ineq(lambda x: x[1] - cell.q_lo, lambda x: np.array([0.0, 1.0])))
    if math.isfinite(cell.q_hi):
        constraints.append(ineq(lambda x: cell.q_hi - x[1], lambda x: np.array([0.0, -1.0])))
    if math.isfinite(cell.r):
        r = cell.r
        constraints.append(
            ineq(lambda x: (r * r - x[0] ** 2 - x[1] ** 2) / r, lambda x: x * (-2.0 / r))
        )
    for c0, c1, c2 in cell.paras:
        constraints.append(
            ineq(
                lambda x, c0=c0, c1=c1, c2=c2: c0 + c1 * x[0] + c2 * x[0] ** 2 - x[1],
                lambda x, c1=c1, c2=c2: np.array([c1 + 2.0 * c2 * x[0], -1.0]),
            )
        )
    bounds = [tuple(b if math.isfinite(b) else None for b in (cell.p_lo, cell.p_hi)), (None, None)]
    result = minimize(
        objective,
        np.zeros(2),
        jac=True,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"ftol": 1e-16, "maxiter": 500},
    )
    return result.fun * scale, result.success


class TestKktCertificate:
    """With both weights positive, a cell solve returns a point that meets
    the KKT conditions (Boyd and Vandenberghe, 5.5.3), unless no crossing
    certifies, where it falls back to the screened crossing of least
    objective, which costs no more than any candidate of the running-best
    scan in the cell; and an independent solver finds no lower objective."""

    @settings(max_examples=1500, deadline=None)
    @given(data=st.data(), weights=UNEQUAL_WEIGHTS)
    def test_every_result_certifies_or_falls_back(self, data, weights):
        cell, (p0, q0) = draw_spot_cell(data)
        least = optimizer._least_objective
        with mock.patch.object(optimizer, "_least_objective", wraps=least) as fallback:
            got = optimizer._project_cell(cell, p0, q0, *weights)
        if fallback.called:
            assert costs_no_more(cell, got, p0, q0, *weights)
        else:
            assert certifies(cell, *got[:2], p0, q0, *weights)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), weights=UNEQUAL_WEIGHTS)
    def test_objective_equals_slsqp(self, data, weights):
        cell, (p0, q0) = draw_spot_cell(data)
        _, _, objective = optimizer._project_cell(cell, p0, q0, *weights)
        expected, converged = slsqp_objective(cell, p0, q0, *weights)
        assume(converged)
        # Within 1e-9 of SLSQP's objective, or of its convergence tolerance.
        floor = 1e-15 * max(weights) * max(1.0, abs(p0), abs(q0)) ** 2
        assert abs(objective - expected) <= 1e-9 * expected + floor

    @pytest.mark.parametrize("p_min", [0.0, -1e-4])
    def test_a_point_cell_falls_back_to_its_least_crossing(self, monkeypatch, p_min):
        # The cap q <= -0.01 p^2 meets Q >= 0 only at the origin, where the
        # normals of the cap and Q = 0 are parallel: no crossing certifies,
        # and the fallback takes the origin.  From P_min = -1e-4 the screen
        # also admits the P line's crossings, which come first but cost more.
        atoms = [PMin(-1.0), PMax(1.0), ParabolaCap(0.0, 0.0, -0.01)]
        cell = optimizer._narrowed(capability._scaled_cell(atoms, 1.0, True), p_min, 1.0)
        counts = count_calls(monkeypatch, (optimizer, "_least_objective"))
        assert optimizer._project_cell(cell, 1.0, 0.0, 1.0, 1.0) == (0.0, 0.0, 1.0)
        assert counts == {"_least_objective": 1}

    def test_a_multiplier_rounded_below_zero_still_certifies(self, monkeypatch):
        # The target lies on the ray through the Q ceiling's corner with the
        # disk, so the ceiling's multiplier there is 0, and it rounds to
        # just below 0: only _MU_TOL keeps the corner from the fallback.
        atoms = [PMin(-1000.0), PMax(1000.0), Disk(700.0), QMax(300.0)]
        cell = capability._scaled_cell(atoms, 1.0, True)
        corner = cell.corners[2]
        assert corner == (632.4555320336759, 300.0, "q_hi", "disk")
        target = (976.5113414599956, 463.2, 1.0, 1.0)
        counts = count_calls(monkeypatch, (optimizer, "_least_objective"))
        assert optimizer._project_cell(cell, *target) == (*corner[:2], 145008.64)
        assert counts == {"_least_objective": 0}
        monkeypatch.setattr(optimizer, "_MU_TOL", 0.0)
        assert optimizer._project_cell(cell, *target) == (*corner[:2], 145008.64)
        assert counts == {"_least_objective": 1}

    def test_nearly_parallel_normals_certify_nothing(self, monkeypatch):
        # The cap q <= -1.1e-293 p - 1.5e-7 p^2 clears Q = 0 only on
        # [-7.5e-287, 0]; its crossing with Q = 0 rounds to the vertex, where
        # the cap's normal is (0, 1) up to 1e-293, and Cramer's rule would
        # certify it with multipliers of 1e293.
        cap = ParabolaCap(0.0, -1.1490036370512318e-293, -1.5326908662857144e-07)
        cell = capability._scaled_cell([PMin(-1e6), PMax(0.0), cap], 1.0, True)
        p, q, a, b = cell.corners[0]
        assert (p, q, a, b) == (-3.74832153804015e-287, 0.0, "q_lo", 0)
        assert not optimizer._certified(cell, p, q, a, b, p + 1.0, q)
        counts = count_calls(monkeypatch, (optimizer, "_least_objective"))
        assert optimizer._project_cell(cell, -1.0, 0.0, 1.0, 1.0) == (0.0, 0.0, 1.0)
        assert counts == {"_least_objective": 1}

    @pytest.mark.parametrize("target", [(1e5, 3e4), (1e10, 3e9)])
    def test_overflowing_weights_project_as_unit_weights(self, curve_map, target):
        # Every objective is inf with lambda = 1e300, so ranking by it tied;
        # at (1e10, 3e9) the cap's stationary cubic overflowed as well.
        region = build_region([curve_map[(600.0, 300.0)]], 7.0 / 9.0)
        expected = (527.8855555555556, 193.86041571256084)
        for weight in (1.0, 1e290, 1e300):
            prob = problem(region, target, (weight, weight), (-700.0, 700.0))
            assert project(prob) == expected

    def test_huge_weights_do_not_overflow_the_multipliers(self, curve_map):
        # lambda * (q - q0) overflows at 1e300 * 1e10: the multipliers are
        # solved with the weights scaled by a power of two.
        region = build_region([curve_map[(600.0, 300.0)]], 7.0 / 9.0)
        cell = optimizer._narrowed(region.upper_cell, -700.0, 700.0)
        for weight in (1.0, 1e300):
            p, q, _ = optimizer._project_cell(cell, 1e5, -1e10, weight, weight)
            assert (p, q) == (527.8855555555556, 0.0)

    def test_weights_too_far_apart_to_scale_are_left_raw(self, curve_map):
        # Scaled by 2^-2, lambda_q = 5e-324 would round to 0, and the circle
        # point's bisection would end dividing 0 by 0.
        region = build_region([curve_map[(600.0, 300.0)]], 7.0 / 9.0)
        cell = optimizer._narrowed(region.upper_cell, -700.0, 700.0)
        p, q, _ = optimizer._project_cell(cell, 100.0, 800.0, 2.0, 5e-324)
        assert (p, q) == (100.0, 510.29952380952375)

    def test_far_target_takes_the_certified_corner(self, curve_map):
        # 1e19 away, the candidates' objectives differ by less than an ulp.
        region = build_region([curve_map[(600.0, 300.0)]], 7.0 / 9.0)
        cell = optimizer._narrowed(region.upper_cell, -700.0, 700.0)
        p, q, _ = optimizer._project_cell(cell, 1e19, -1e19, 1.0, 1.0)
        assert (p, q) == (527.8855555555556, 0.0)
        assert certifies(cell, p, q, 1e19, -1e19, 1.0, 1.0)

    @pytest.mark.xfail(
        strict=True,
        reason="project compares the two cells' objectives, which both round "
        "to 2e38 from (1e19, -1e19), and breaks the tie toward the upper cell",
    )
    def test_far_target_takes_the_nearer_cell(self, curve_map):
        region = build_region([curve_map[(600.0, 300.0)]], 7.0 / 9.0)
        upper, lower = (
            optimizer._project_cell(optimizer._narrowed(c, -700.0, 700.0), 1e19, -1e19, 1.0, 1.0)
            for c in (region.upper_cell, region.lower_cell)
        )
        assert lower[:2] == (395.53432019231906, -395.53432019231906)
        assert upper[:2] == (527.8855555555556, 0.0)
        assert project(problem(region, (1e19, -1e19), bounds=(-700.0, 700.0))) == lower[:2]


@st.composite
def exterior_targets(draw):
    """(r, p0, q0): a radius and a target outside its circle, from just
    past it to 1e150 r away."""
    r = draw(st.floats(1e-2, 1e3))
    dist = draw(st.one_of(log_uniform(-15.0, 0.0).map(lambda e: 1.0 + e), log_uniform(0.0, 150.0)))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    p0, q0 = r * dist * math.cos(angle), r * dist * math.sin(angle)
    assume(math.hypot(p0, q0) > r)
    return r, p0, q0


class TestBisection:
    """_bisect ends at adjacent floats: the disk multiplier puts the circle
    point on the circle however far the target, and a lexicographic solve
    stops at the last float whose slice is nonempty."""

    @settings(max_examples=2000, deadline=None)
    @example(circle=(700.0, 1e70, 1e70), wp=1.0, wq=2.0)
    @given(circle=exterior_targets(), wp=st.floats(1e-3, 1e3), wq=st.floats(1e-3, 1e3))
    def test_circle_point_lies_on_the_circle(self, circle, wp, wq):
        r, p0, q0 = circle
        [(p, q)] = optimizer._circle_candidates(p0, q0, r, wp, wq)
        assert abs(math.hypot(p, q) / r - 1.0) <= 1e-15

    def test_multiplier_overflow_raises_instead_of_looping(self, region_600):
        # wp * p0 overflows, so no finite multiplier brings the point inside.
        with pytest.raises(OverflowError):
            optimizer._circle_candidates(1e308, 0.0, 700.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="too far from the region"):
            project(problem(region_600, (1e308, 0.0), (2.0, 1.0)))

    @settings(max_examples=2000, deadline=None)
    @given(
        data=st.data(),
        axis=st.sampled_from(["p", "q"]),
        x=st.one_of(st.floats(-2000.0, 2000.0), signed(log_uniform(2.0, 6.0))),
    )
    def test_lexicographic_clip_stops_at_the_float_edge(self, curve_map, data, axis, x):
        cell = draw_cell(data, curve_map)
        if axis == "p":  # lambda_q = 0: p is fixed first, q is sought at it
            interval_at, x = optimizer._q_interval_at, min(max(x, cell.p_lo), cell.p_hi)
        else:
            interval_at, x = optimizer._p_interval_at, min(max(x, cell.q_lo), cell.q_hi)
        lo, hi = interval_at(cell, x)
        found, f_lo, f_hi = optimizer._clip_to_nonempty(interval_at, cell, x)
        assert (f_lo, f_hi) == interval_at(cell, found) and f_lo <= f_hi
        if lo <= hi:
            assert found == x
        else:
            assert abs(found) < abs(x) and found * x >= 0.0
            past_lo, past_hi = interval_at(cell, math.nextafter(found, x))
            assert past_lo > past_hi


#: The shipped 600/300 envelope without its disks, so that the region of
#: 600/300 alone has no disk and S_max is inf.
NO_DISK_600 = CapabilityCurve(
    "no_disk", 600.0, 300.0, (PMin(-681.89), PMax(678.71), QMax(657.1))
)

#: The same envelope at every anchor, with a disk that binds, so that a
#: probe can reach S_max.
ONE_DISK = {
    anchor: CapabilityCurve(
        "one_disk", *anchor, (PMin(-700.0), PMax(700.0), Disk(650.0), QMax(600.0))
    )
    for anchor in KNOWN_ANCHORS
}

STEP_BATTERY = BatteryConfig(c_max_ah=580.0, eta=0.97, soc_min=0.1, soc_max=0.9)
STEP_WEIGHTS = st.one_of(
    st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]),
    st.tuples(st.floats(1e-2, 1e2), st.floats(1e-2, 1e2)),
)
#: Offsets past an edge, dense within 2e-9 and near 1e-9, the set-point
#: tolerance of the status flags.
EDGE_DELTA = st.one_of(st.floats(-2e-9, 2e-9), st.sampled_from([0.6e-9, 0.9e-9, 0.99e-9]))


def step_voltage_bounds(ctl, sample, state):
    """The (vdc, vac) bounds that ctl's step at sample and state computes."""
    params = params_for_soc(state.soc, ctl.bands)
    pdc_lo, pdc_hi = dc_power_bounds(state, params, ctl.cfg.battery)
    eta = ctl.cfg.battery.eta
    drive = open_circuit_voltage(state.soc, params) - state.vc_sum
    return ctl._voltage_bounds(
        sample, drive, params.rs, ac_from_dc(pdc_lo, eta), ac_from_dc(pdc_hi, eta)
    )


def draw_step(data, curve_map, bands):
    """A controller, sample and state.  The droop target is random, or just
    past an end of the step's P interval (where a battery bound or the
    regions' P extent binds), or just outside the disk of ONE_DISK, which
    sets S_max.  In "vac-edge" mode the target is random and the MV voltage
    puts the step's vac bounds across 270 V or 330 V, so that the AC range
    of that edge is left to the probe in every DC range."""
    mode = data.draw(st.sampled_from(["random", "p-edge", "s-edge", "vac-edge"]))
    if mode == "s-edge":
        curves = ONE_DISK
    else:
        curves = data.draw(
            st.sampled_from([curve_map, {**curve_map, (600.0, 300.0): NO_DISK_600}, ONE_DISK])
        )
    wp, wq = data.draw(STEP_WEIGHTS)
    shrink = data.draw(st.floats(1e-3, 1.0))
    droop = DroopConfig(alpha0=9003.0, beta0=8.39, lambda_p=wp, lambda_q=wq)
    cfg = ControllerConfig(droop, STEP_BATTERY, TransformerParams.from_nameplate(), shrink)
    ctl = SetpointController(cfg, curves, bands)
    state = TtcState(
        data.draw(st.floats(-50.0, 260.0)),
        data.draw(st.floats(-5.0, 5.0)),
        data.draw(st.floats(-5.0, 5.0)),
        data.draw(st.floats(0.1, 0.9)),
    )
    p_min, p_max, s_max = ctl._extent
    if mode == "random":
        freq = data.draw(st.floats(49.9, 50.1))
        return ctl, GridSample(0.0, freq, data.draw(st.floats(17.5, 24.5))), state
    if mode == "vac-edge":
        # The LV voltage at S = 0 lies below the edge by less than the rise
        # that S_max adds at the edge; the rise is larger below it, so the
        # voltage at S_max lies above the edge.
        edge = data.draw(st.sampled_from([270.0, 330.0]))
        xf = cfg.transformer
        s_hi = ctl._widened[2]
        at_edge = GridSample(0.0, 50.0, edge * xf.n / 1000.0)
        rise = predict_vac(at_edge, s_hi, 0.0, xf) - edge if s_hi < math.inf else 50.0
        v_lv = edge - data.draw(st.floats(0.0, 1.0, exclude_max=True)) * rise
        sample = GridSample(0.0, data.draw(st.floats(49.9, 50.1)), v_lv * xf.n / 1000.0)
        vac_lo, vac_hi = step_voltage_bounds(ctl, sample, state)[1]
        assume(vac_lo <= edge < vac_hi)
        return ctl, sample, state
    delta = data.draw(EDGE_DELTA)
    if mode == "p-edge":
        pdc = dc_power_bounds(state, params_for_soc(state.soc, bands), STEP_BATTERY)
        pac_lo, pac_hi = (ac_from_dc(p, STEP_BATTERY.eta) for p in pdc)
        ends = [max(pac_lo, p_min), min(pac_hi, p_max)]
        edge = data.draw(st.sampled_from([p for p in ends if p != 0.0] or [0.0]))
        p0 = edge + math.copysign(delta, edge)
        q0 = data.draw(st.floats(-50.0, 50.0)) * shrink
    else:
        angle = data.draw(st.floats(0.0, 2.0 * math.pi))
        p0, q0 = (s_max + delta) * math.cos(angle), (s_max + delta) * math.sin(angle)
    freq = droop.f_ref - p0 / droop.alpha0
    return ctl, GridSample(0.0, freq, droop.v_ref - q0 / (droop.beta0 * 1000.0)), state


class TestPrunedAssumptionLoop:
    """solve_step skips the ranges that its voltage bounds rule out; it must
    give the records and states of the loop that probes every range."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_equals_unpruned_reference(self, curve_map, bands, data):
        ctl, sample, state = draw_step(data, curve_map, bands)
        record, new_state = ctl.solve_step(sample, state)
        ref_record, ref_state, _ = reference_solve_step(ctl, sample, state)
        assert repr(record) == repr(ref_record)
        assert new_state == ref_state

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_every_probe_lies_inside_the_voltage_bounds(self, curve_map, bands, data):
        ctl, sample, state = draw_step(data, curve_map, bands)
        _, _, probes = reference_solve_step(ctl, sample, state)
        (vdc_lo, vdc_hi), (vac_lo, vac_hi) = step_voltage_bounds(ctl, sample, state)
        for probe in probes:
            assert vdc_lo <= probe.vdc <= vdc_hi, probe
            assert vac_lo <= probe.vac <= vac_hi, probe


class TestPowerExtent:
    """The controller's (P_min, P_max, S_max) over the cells of its regions."""

    @staticmethod
    def extent(controller_cfg, curves, bands, shrink):
        cfg = dataclasses.replace(controller_cfg, shrink=shrink)
        return SetpointController(cfg, curves, bands)._extent

    def test_shipped_curves(self, controller_cfg, curve_map, bands):
        # The 794.34 disk of 500/330 is always cut by a DC envelope's disk.
        shrink = 7.0 / 9.0
        assert self.extent(controller_cfg, curve_map, bands, shrink) == (
            -681.89 * shrink,
            682.45 * shrink,
            723.03 * shrink,
        )

    def test_a_cell_without_disk_leaves_s_unbounded(self, controller_cfg, bands):
        upper_only = CapabilityCurve("u", 600.0, 300.0, (PMax(500.0), Disk(700.0, "upperQ")))
        assert self.extent(controller_cfg, {upper_only.anchor: upper_only}, bands, 0.5) == (
            -math.inf,
            250.0,
            math.inf,
        )
        lower_disk = CapabilityCurve("l", 550.0, 300.0, (Disk(600.0, "lowerQ"), Disk(650.0)))
        assert self.extent(controller_cfg, {lower_disk.anchor: lower_disk}, bands, 1.0) == (
            -650.0,
            650.0,
            650.0,
        )

    @pytest.mark.parametrize("shrink", [1.0, 7.0 / 9.0, 0.3])
    def test_every_region_cell_lies_inside(self, controller_cfg, curve_map, bands, shrink):
        p_min, p_max, s_max = self.extent(controller_cfg, curve_map, bands, shrink)
        for _, _, dc in DC_SELECTION:
            for _, _, ac, _ in AC_SELECTION:
                anchors = [dc] + ([ac] if ac is not None else [])
                region = build_region([curve_map[a] for a in anchors], shrink)
                for cell in (region.upper_cell, region.lower_cell):
                    assert p_min <= max(cell.p_lo, -cell.r) and min(cell.p_hi, cell.r) <= p_max
                    assert cell.r <= s_max
