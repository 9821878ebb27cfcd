import json
import math
import re

import numpy as np
import pytest

from bessctl.battery import BatteryConfig
from bessctl.grid import DroopConfig, GridSample, TransformerParams
from bessctl.linefmt import LineFormatError
from bessctl.optimizer import STATUS_CLIPPED, STATUS_UNCHANGED, ControllerConfig
from bessctl.simctl import (
    EnergyReport,
    ScenarioSpec,
    TraceError,
    builtin_scenario_path,
    energy_metrics,
    generate_trace,
    load_run_config,
    load_trace,
    parse_gen_spec,
    read_records,
    resolve_trace,
    run_scenario,
    summarize,
    write_records,
    write_trace,
)

#: The two required keys of a ``gen:`` trace spec.
SIGMAS = "gen:sigma_f=0.01,sigma_v=0.01"


class TestGenerateTrace:
    def test_zero_sigma_is_constant(self):
        trace = generate_trace(0.0, 0.0, 50.0, 21.192, 10, seed=1)
        assert all(s.freq == 50.0 and s.v_mv == 21.192 for s in trace)
        assert [s.timestamp for s in trace] == list(map(float, range(10)))

    def test_sample_sigma_close_to_input(self):
        sigma_f = 0.01782
        trace = generate_trace(sigma_f, 0.0672, 50.0, 21.192, 100_000, seed=4)
        freq = np.array([s.freq for s in trace])
        assert float(freq.std(ddof=1)) == pytest.approx(sigma_f, rel=0.02)

    def test_same_seed_same_trace(self):
        a = generate_trace(0.01, 0.05, 50.0, 21.192, 50, seed=9)
        b = generate_trace(0.01, 0.05, 50.0, 21.192, 50, seed=9)
        assert a == b

    def test_roundtrip_through_csv(self, tmp_path):
        trace = generate_trace(0.01, 0.05, 50.0, 21.192, 20, seed=2)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        assert load_trace(path) == trace

    @pytest.mark.parametrize("sigma_f, sigma_v", [(-0.01, 0.05), (0.01, -0.05)])
    def test_negative_sigma_rejected(self, sigma_f, sigma_v):
        with pytest.raises(ValueError, match="sigmas must be nonnegative"):
            generate_trace(sigma_f, sigma_v, 50.0, 21.192, 10, seed=1)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="need at least one sample"):
            generate_trace(0.01, 0.05, 50.0, 21.192, 0, seed=1)

    def test_nonmonotone_trace_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "timestamp_s,freq_hz,v_mv_kv\n1.0,50.0,21.0\n1.0,50.0,21.0\n", encoding="utf-8"
        )
        with pytest.raises(TraceError):
            load_trace(path)

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            "timestamp_s,freq_hz,v_mv_kv\n0.0,50.0,21.0\n1.0,50.01,nan\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="v_mv"):
            load_trace(path)

    @pytest.mark.parametrize(
        "row, match",
        [
            pytest.param("1.0,50.01", "expected 3 cells", id="short-row"),
            pytest.param("1.0,50.01,21.0,x", "expected 3 cells", id="long-row"),
            pytest.param("1.0,fifty,21.0", "could not convert string to float: 'fifty'", id="not-a-number"),
            pytest.param("1.0,60.0,21.0", r"frequency 60.0 Hz outside", id="60-hz"),
            pytest.param("0.0,50.0,21.0", "timestamps must be strictly increasing", id="repeat"),
        ],
    )
    def test_bad_row_names_its_file_and_line(self, tmp_path, row, match):
        path = tmp_path / "bad.csv"
        path.write_text(f"timestamp_s,freq_hz,v_mv_kv\n0.0,50.0,21.0\n{row}\n", encoding="utf-8")
        with pytest.raises(TraceError, match=f"^{re.escape(str(path))}:3: {match}"):
            load_trace(path)

    def test_gen_spec_parsing(self):
        kwargs = parse_gen_spec("gen:sigma_f=0.01,sigma_v=0.05,n=10,seed=3")
        assert kwargs == {"sigma_f": 0.01, "sigma_v": 0.05, "n": 10.0, "seed": 3.0}
        with pytest.raises(TraceError):
            parse_gen_spec("gen:bogus=1")
        with pytest.raises(TraceError):
            parse_gen_spec("not-a-gen")

    def test_resolve_trace_seed_override(self):
        spec = "gen:sigma_f=0.01,sigma_v=0.01,n=10,seed=3"
        assert resolve_trace(spec, seed=5) == generate_trace(0.01, 0.01, n=10, seed=5)
        assert resolve_trace(spec) == generate_trace(0.01, 0.01, n=10, seed=3)

    @pytest.mark.parametrize(
        "spec, match",
        [
            pytest.param(f"{SIGMAS},n=inf", "n must be a finite integer", id="n-inf"),
            pytest.param(f"{SIGMAS},n=nan", "n must be a finite integer", id="n-nan"),
            pytest.param(f"{SIGMAS},n=2.5", "n must be a finite integer", id="n-2.5"),
            pytest.param(f"{SIGMAS},seed=inf", "seed must be a finite integer", id="seed-inf"),
            pytest.param(f"{SIGMAS},seed=1.5", "seed must be a finite integer", id="seed-1.5"),
            pytest.param("gen:seed=5", r"keys \['sigma_f', 'sigma_v'\]", id="no-sigmas"),
            pytest.param("gen:sigma_f=0.01,n=10", r"keys \['sigma_v'\]", id="no-sigma_v"),
            pytest.param("gen:", r"keys \['sigma_f', 'sigma_v'\]", id="empty"),
            pytest.param(f"{SIGMAS},n=3,n=4", "repeats key 'n'", id="n-twice"),
            pytest.param(
                "gen:sigma_f=abc,sigma_v=1", "item 'sigma_f=abc' is no number", id="sigma_f-abc"
            ),
            pytest.param(f"{SIGMAS},seed=-1", "item 'seed=-1': seed must be nonneg", id="seed-neg"),
        ],
    )
    def test_bad_gen_spec_rejected(self, spec, match):
        with pytest.raises(TraceError, match=match):
            parse_gen_spec(spec)
        with pytest.raises(TraceError, match=match):
            resolve_trace(spec, seed=1)

    def test_integral_gen_spec_floats_become_ints(self):
        kwargs = parse_gen_spec(f"{SIGMAS},n=1e1,seed=3.0")
        assert type(kwargs["n"]) is int and type(kwargs["seed"]) is int
        assert resolve_trace(f"{SIGMAS},n=1e1,seed=3.0") == generate_trace(0.01, 0.01, n=10, seed=3)


class TestEnergyMetrics:
    def make_record(self, t, dfreq, p_target, p_opt, feasible):
        from bessctl.optimizer import ControlRecord

        return ControlRecord(
            sample=GridSample(float(t), 50.0 - dfreq, 21.192),
            dfreq=dfreq,
            dvac=0.0,
            p_target=p_target,
            q_target=0.0,
            p_opt=p_opt,
            q_opt=0.0,
            vdc_pred=660.0,
            vac_pred=302.0,
            curve_dc=(600.0, 300.0),
            curve_ac=None,
            alpha_star=None,
            beta_star=None,
            status=(STATUS_UNCHANGED,) if feasible else (STATUS_CLIPPED,),
        )

    def test_single_record_expected_energy(self):
        record = self.make_record(0, 0.0588, 9003.0 * 0.0588, 9003.0 * 0.0588, True)
        report = energy_metrics([record], 9003.0, 1.0)
        assert report.e_exp == pytest.approx(0.147049, abs=1e-9)
        assert round(report.e_exp, 5) == 0.14705
        assert report.e_star == report.e_exp
        assert report.e_0 == report.e_exp

    def test_all_zero_targets(self):
        records = [self.make_record(t, 0.0, 0.0, 0.0, True) for t in range(5)]
        report = energy_metrics(records, 9003.0, 1.0)
        assert (report.e_exp, report.e_star, report.e_0) == (0.0, 0.0, 0.0)
        assert report.ratio_star is None and report.ratio_0 is None

    def test_clipped_steps_zero_the_naive_baseline(self):
        alpha0 = 9003.0
        p1 = alpha0 * 0.02
        p2 = alpha0 * 0.08
        records = [
            self.make_record(0, 0.02, p1, p1, True),
            self.make_record(1, 0.08, p2, 520.0, False),
        ]
        report = energy_metrics(records, alpha0, 1.0)
        assert report.e_exp == pytest.approx((p1 + p2) / 3600.0)
        assert report.e_star == pytest.approx((p1 + 520.0) / 3600.0)
        assert report.e_0 == pytest.approx(p1 / 3600.0)

    def test_empty_records_rejected(self):
        with pytest.raises(TraceError):
            energy_metrics([], 9003.0, 1.0)

    @pytest.mark.parametrize(
        "alpha0, delta_t, match",
        [
            (9003.0, math.nan, "delta_t must be positive and finite, got nan"),
            (9003.0, math.inf, "delta_t must be positive and finite, got inf"),
            (9003.0, 0.0, "delta_t must be positive and finite, got 0.0"),
            (9003.0, -1.0, "delta_t must be positive and finite, got -1.0"),
            (math.nan, 1.0, "alpha0 must be finite, got nan"),
            (-math.inf, 1.0, "alpha0 must be finite, got -inf"),
        ],
    )
    def test_bad_step_length_or_gain_rejected_naming_it(self, alpha0, delta_t, match):
        record = self.make_record(0, 0.02, 180.0, 180.0, True)
        with pytest.raises(ValueError, match=f"^{match}$"):
            energy_metrics([record], alpha0, delta_t)

    def test_report_rejects_star_below_naive(self):
        with pytest.raises(ValueError):
            EnergyReport(1.0, 0.2, 0.5, 0.2, 0.5)

    def test_report_rejects_negative_energy(self):
        with pytest.raises(ValueError, match="energies must be nonnegative"):
            EnergyReport(1.0, 0.5, -0.1, 0.5, None)


class TestRunScenario:
    def test_scenario_rejects_soc_above_one(self):
        with pytest.raises(ValueError, match=r"soc_init must lie in \[0, 1\]"):
            ScenarioSpec(alpha0=9003.0, beta0=8.39, duration_s=10.0, soc_init=2.0)

    def test_scenario_without_a_trace_rejected(self, controller_cfg, curve_map, bands):
        scenario = ScenarioSpec(alpha0=9003.0, beta0=8.39, duration_s=10.0)
        with pytest.raises(TraceError, match="scenario has no trace and none was supplied"):
            run_scenario(scenario, controller_cfg, curve_map, bands)

    def test_reference_trace_gives_zero_energy(self, controller_cfg, curve_map, bands):
        scenario = ScenarioSpec(
            alpha0=9003.0, beta0=8.39, duration_s=10.0, c_shrink=7.0 / 9.0
        )
        trace = [GridSample(float(t), 50.0, 21.192) for t in range(10)]
        records, report = run_scenario(scenario, controller_cfg, curve_map, bands, trace=trace)
        assert len(records) == 10
        assert report.e_exp == 0.0 and report.e_star == 0.0 and report.e_0 == 0.0

    def test_feasible_scenario_delivers_everything(self, controller_cfg, curve_map, bands):
        # Moderate gains keep every target inside the envelope, so all three
        # energies coincide.
        from bessctl.grid import DroopConfig
        from bessctl.optimizer import ControllerConfig

        droop = DroopConfig(alpha0=9003.0, beta0=2.0, f_ref=50.0, v_ref=21.192)
        cfg = ControllerConfig(
            droop=droop,
            battery=controller_cfg.battery,
            transformer=controller_cfg.transformer,
            shrink=controller_cfg.shrink,
        )
        scenario = ScenarioSpec(alpha0=9003.0, beta0=2.0, duration_s=120.0, c_shrink=7.0 / 9.0)
        trace = generate_trace(0.01782, 0.0672, 50.0, 21.192, 120, seed=12)
        records, report = run_scenario(scenario, cfg, curve_map, bands, trace=trace)
        assert all(STATUS_UNCHANGED in r.status for r in records)
        assert report.e_star == pytest.approx(report.e_exp, rel=1e-12)
        assert report.e_0 == pytest.approx(report.e_exp, rel=1e-12)

    def test_oversized_gains_order_energies(self, controller_cfg, curve_map, bands):
        from bessctl.grid import DroopConfig
        from bessctl.optimizer import ControllerConfig

        droop = DroopConfig(alpha0=29715.0, beta0=12.57, f_ref=50.0, v_ref=21.192)
        cfg = ControllerConfig(
            droop=droop,
            battery=controller_cfg.battery,
            transformer=controller_cfg.transformer,
            shrink=controller_cfg.shrink,
        )
        scenario = ScenarioSpec(alpha0=29715.0, beta0=12.57, duration_s=120.0, c_shrink=7.0 / 9.0)
        trace = generate_trace(0.01782, 0.0672, 50.0, 21.192, 120, seed=3)
        records, report = run_scenario(scenario, cfg, curve_map, bands, trace=trace)
        assert any(STATUS_CLIPPED in r.status for r in records)
        assert 0.0 < report.e_0 < report.e_star < report.e_exp

    def test_short_trace_rejected(self, controller_cfg, curve_map, bands):
        scenario = ScenarioSpec(alpha0=9003.0, beta0=8.39, duration_s=100.0, c_shrink=7.0 / 9.0)
        trace = [GridSample(float(t), 50.0, 21.192) for t in range(10)]
        with pytest.raises(TraceError):
            run_scenario(scenario, controller_cfg, curve_map, bands, trace=trace)


class TestRecordsRoundTrip:
    def run_small(self, controller_cfg, curve_map, bands, seed=0):
        scenario = ScenarioSpec(
            alpha0=9003.0,
            beta0=8.39,
            duration_s=30.0,
            c_shrink=7.0 / 9.0,
            trace=f"gen:sigma_f=0.01782,sigma_v=0.0672,n=30,seed={seed}",
        )
        return run_scenario(scenario, controller_cfg, curve_map, bands)

    def test_csv_round_trip(self, controller_cfg, curve_map, bands, tmp_path):
        records, _ = self.run_small(controller_cfg, curve_map, bands)
        path = tmp_path / "records.csv"
        write_records(records, path)
        assert read_records(path) == records

    def test_undefined_droop_gains_round_trip(self, controller_cfg, curve_map, bands, tmp_path):
        # At the reference point both realized gains are undefined: empty cells.
        scenario = ScenarioSpec(alpha0=9003.0, beta0=8.39, duration_s=3.0, c_shrink=7.0 / 9.0)
        trace = [GridSample(float(t), 50.0, 21.192) for t in range(3)]
        records, _ = run_scenario(scenario, controller_cfg, curve_map, bands, trace=trace)
        assert all(r.alpha_star is None and r.beta_star is None for r in records)
        path = tmp_path / "records.csv"
        write_records(records, path)
        assert read_records(path) == records

    @pytest.mark.parametrize(
        "edit, match",
        [
            pytest.param(lambda cells: ["1.0", "49.9", "21.1"], "expected 16 cells", id="short"),
            pytest.param(lambda cells: cells + ["x"], "expected 16 cells", id="long-row"),
            pytest.param(
                lambda cells: cells[:7] + ["nan"] + cells[8:],
                "expected a finite number, got 'nan'",
                id="nan",
            ),
            pytest.param(
                lambda cells: cells[:7] + ["abc"] + cells[8:],
                "could not convert string to float: 'abc'",
                id="not-a-number",
            ),
            pytest.param(
                lambda cells: cells[:11] + [""] + cells[12:],
                "record without a DC curve",
                id="no-dc-curve",
            ),
        ],
    )
    def test_bad_row_names_its_file_and_line(
        self, controller_cfg, curve_map, bands, tmp_path, edit, match
    ):
        records, _ = self.run_small(controller_cfg, curve_map, bands)
        path = tmp_path / "records.csv"
        write_records(records[:2], path)
        header, first, second = path.read_text(encoding="utf-8").splitlines()
        path.write_text(
            "\n".join([header, first, ",".join(edit(second.split(",")))]) + "\n", encoding="utf-8"
        )
        with pytest.raises(TraceError, match=f"^{re.escape(str(path))}:3: {match}$"):
            read_records(path)

    def test_header_without_a_column_is_named(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("timestamp_s,freq_hz\n0.0,50.0\n", encoding="utf-8")
        with pytest.raises(TraceError, match=f"^{re.escape(str(path))}: expected header"):
            read_records(path)

    def test_byte_identical_for_same_seed(self, controller_cfg, curve_map, bands, tmp_path):
        records_a, _ = self.run_small(controller_cfg, curve_map, bands)
        records_b, _ = self.run_small(controller_cfg, curve_map, bands)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records(records_a, path_a)
        write_records(records_b, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_summary_is_json_serializable_and_deterministic(
        self, controller_cfg, curve_map, bands
    ):
        records, report = self.run_small(controller_cfg, curve_map, bands)
        summary = summarize(
            ScenarioSpec(alpha0=9003.0, beta0=8.39, duration_s=30.0, c_shrink=7.0 / 9.0),
            records,
            report,
        )
        text_a = json.dumps(summary, sort_keys=True)
        records2, report2 = self.run_small(controller_cfg, curve_map, bands)
        summary2 = summarize(
            ScenarioSpec(alpha0=9003.0, beta0=8.39, duration_s=30.0, c_shrink=7.0 / 9.0),
            records2,
            report2,
        )
        assert text_a == json.dumps(summary2, sort_keys=True)


class TestRunConfig:
    def test_builtin_presets_load(self):
        for name, alpha0, beta0 in [
            ("scenario1", 9003.0, 8.39),
            ("scenario2", 9905.0, 8.39),
            ("scenario3", 19810.0, 8.39),
            ("scenario4", 29715.0, 12.57),
        ]:
            scenario, cfg = load_run_config(builtin_scenario_path(name))
            assert scenario.alpha0 == alpha0
            assert scenario.beta0 == beta0
            assert scenario.duration_s == 300.0
            assert cfg.shrink == pytest.approx(7.0 / 9.0)
            assert cfg.battery.eta == 0.97

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(
            "alpha0_kw_per_hz 9003\nbeta0_kvar_per_v 8.39\nduration_s 10\nc_max_ah 580\nbogus 1\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"s\.cfg:5: unknown key 'bogus'"):
            load_run_config(path)

    def test_bad_number_names_its_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "alpha0_kw_per_hz 9003\nbeta0_kvar_per_v 8.39\nc_max_ah 580\n\nduration_s ten\n",
            encoding="utf-8",
        )
        with pytest.raises(LineFormatError, match=r"bad\.cfg:5: not a number: 'ten'$"):
            load_run_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key, field",
        [
            ("duration_s", "duration_s"),
            ("c_max_ah", "c_max_ah"),
            ("delta_t_s", "delta_t"),
            ("turns_ratio", "n"),
            ("v_lv_v", "v_lv"),
            ("s_rated_kva", "s_rated_kva"),
            ("u_k", "u_k"),
        ],
    )
    def test_non_finite_in_scenario_file_rejected(self, tmp_path, key, field, value):
        text = builtin_scenario_path("scenario4").read_text("utf-8")
        lines = [line for line in text.splitlines() if line.split()[:1] != [key]]
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines + [f"{key} {value}"]) + "\n", "utf-8")
        with pytest.raises(ValueError, match=f"^{field} must be"):
            load_run_config(path)

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "minimal.cfg"
        path.write_text(
            "alpha0_kw_per_hz 9003\nbeta0_kvar_per_v 8.39\nduration_s 10\nc_max_ah 580\n",
            encoding="utf-8",
        )
        scenario, cfg = load_run_config(path)
        assert scenario == ScenarioSpec(alpha0=9003.0, beta0=8.39, duration_s=10.0)
        assert cfg == ControllerConfig(
            droop=DroopConfig(alpha0=9003.0, beta0=8.39),
            battery=BatteryConfig(c_max_ah=580.0),
            transformer=TransformerParams.from_nameplate(70.0, 300.0, 630.0, 0.0628),
            shrink=1.0,
        )

    def test_missing_required_key_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("alpha0_kw_per_hz 9003\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_run_config(path)
