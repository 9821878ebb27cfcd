import json

import pytest
from click.testing import CliRunner

from bessctl.battery import builtin_params_text
from bessctl.capability import builtin_curve_text
from bessctl.grid import GridSample
from bessctl.optimizer import STATUS_UNCHANGED, ControlRecord
from bessctl.simctl import builtin_scenario_path, main, write_records


def short_scenario(tmp_path, duration=40, alpha0=9003, beta0=8.39):
    text = builtin_scenario_path("scenario1").read_text(encoding="utf-8")
    out = []
    for line in text.splitlines():
        if line.startswith("duration_s"):
            line = f"duration_s {duration}"
        elif line.startswith("alpha0_kw_per_hz"):
            line = f"alpha0_kw_per_hz {alpha0}"
        elif line.startswith("beta0_kvar_per_v"):
            line = f"beta0_kvar_per_v {beta0}"
        out.append(line)
    path = tmp_path / "short.cfg"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


def test_gen_trace_writes_deterministic_csv(tmp_path):
    runner = CliRunner()
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        result = runner.invoke(
            main,
            ["gen-trace", "--n", "25", "--seed", "6", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().startswith("timestamp_s,freq_hz,v_mv_kv")


def test_run_and_metrics_round_trip(tmp_path):
    runner = CliRunner()
    out_dir = tmp_path / "run1"
    result = runner.invoke(
        main,
        [
            "run",
            "--scenario",
            str(short_scenario(tmp_path)),
            "--trace",
            "gen:sigma_f=0.01782,sigma_v=0.0672,n=40,seed=2",
            "--out",
            str(out_dir),
        ],
    )
    assert result.exit_code == 0, result.output
    records_csv = out_dir / "records.csv"
    summary_json = out_dir / "summary.json"
    assert records_csv.exists() and summary_json.exists()

    summary = json.loads(summary_json.read_text())
    assert summary["steps"] == 40
    assert summary["energy_kwh"]["expected"] >= summary["energy_kwh"]["delivered_optimal"] >= 0

    metrics = runner.invoke(main, ["metrics", "--records", str(records_csv)])
    assert metrics.exit_code == 0, metrics.output
    payload = json.loads(metrics.output)
    assert payload["e_exp_kwh"] > 0
    assert payload["e_star_kwh"] >= payload["e_0_kwh"]


def test_run_with_trace_file_and_seeded_rerun_identical(tmp_path):
    runner = CliRunner()
    trace_csv = tmp_path / "trace.csv"
    result = runner.invoke(
        main, ["gen-trace", "--n", "40", "--seed", "3", "--out", str(trace_csv)]
    )
    assert result.exit_code == 0, result.output
    scenario = short_scenario(tmp_path, alpha0=19810)
    outputs = []
    for name in ("r1", "r2"):
        out_dir = tmp_path / name
        result = runner.invoke(
            main,
            [
                "run",
                "--scenario",
                str(scenario),
                "--trace",
                str(trace_csv),
                "--out",
                str(out_dir),
            ],
        )
        assert result.exit_code == 0, result.output
        outputs.append((out_dir / "records.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_run_trace_longer_than_duration_is_cut_to_horizon(tmp_path):
    runner = CliRunner()
    out_dir = tmp_path / "out"
    result = runner.invoke(
        main,
        [
            "run",
            "--scenario",
            str(short_scenario(tmp_path)),
            "--trace",
            "gen:sigma_f=0.01782,sigma_v=0.0672,n=60,seed=2",
            "--out",
            str(out_dir),
        ],
    )
    assert result.exit_code == 0, result.output
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["steps"] == 40


def test_run_duration_longer_than_trace_fails(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "run",
            "--scenario",
            str(builtin_scenario_path("scenario1")),
            "--trace",
            "gen:sigma_f=0.01,sigma_v=0.01,n=5",
            "--out",
            str(tmp_path / "out"),
        ],
    )
    assert result.exit_code != 0
    assert "trace has 5 samples" in result.output


def test_run_with_short_trace_row_names_its_line(tmp_path):
    trace_csv = tmp_path / "trace.csv"
    trace_csv.write_text("timestamp_s,freq_hz,v_mv_kv\n0,50.0,21.192\n1,50.01\n", encoding="utf-8")
    result = CliRunner().invoke(
        main,
        [
            "run",
            "--scenario",
            str(short_scenario(tmp_path)),
            "--trace",
            str(trace_csv),
            "--out",
            str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {trace_csv}:3: expected 3 cells\n" in result.output


def idle_records_csv(tmp_path, timestamps):
    """A records CSV of steps at the reference point, one per timestamp."""
    records = [
        ControlRecord(
            sample=GridSample(t, 50.0, 21.192),
            dfreq=0.0,
            dvac=0.0,
            p_target=0.0,
            q_target=0.0,
            p_opt=0.0,
            q_opt=0.0,
            vdc_pred=660.0,
            vac_pred=302.0,
            curve_dc=(600.0, 300.0),
            curve_ac=None,
            alpha_star=None,
            beta_star=None,
            status=(STATUS_UNCHANGED,),
        )
        for t in timestamps
    ]
    path = tmp_path / "records.csv"
    write_records(records, path)
    return path


#: The start of the error for a step length that is not positive and finite.
BAD_DT = "delta_t must be positive and finite, got "


@pytest.mark.parametrize(
    "timestamps, options, message",
    [
        pytest.param((0.0, 1.0), ["--delta-t", "nan"], BAD_DT + "nan", id="nan"),
        pytest.param((0.0, 1.0), ["--delta-t", "-1"], BAD_DT + "-1.0", id="negative"),
        pytest.param((0.0, 0.0), [], BAD_DT + "0.0", id="equal-timestamps"),
        pytest.param((0.0, 1.0), ["--alpha0", "nan"], "alpha0 must be finite, got nan", id="gain"),
    ],
)
def test_metrics_rejects_bad_step_length_and_gain(tmp_path, timestamps, options, message):
    records_csv = idle_records_csv(tmp_path, timestamps)
    result = CliRunner().invoke(main, ["metrics", "--records", str(records_csv), *options])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {message}\n" in result.output


def test_metrics_rejects_a_row_with_an_extra_cell(tmp_path):
    records_csv = idle_records_csv(tmp_path, (0.0, 1.0))
    header, first, second = records_csv.read_text(encoding="utf-8").splitlines()
    records_csv.write_text(f"{header}\n{first}\n{second},x\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["metrics", "--records", str(records_csv)])
    assert result.exit_code == 1
    assert f"Error: {records_csv}:3: expected 16 cells\n" in result.output


def test_metrics_on_missing_file_fails():
    runner = CliRunner()
    result = runner.invoke(main, ["metrics", "--records", "/nonexistent.csv"])
    assert result.exit_code != 0


def test_bad_scenario_file_fails(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha0_kw_per_hz 9003\n", encoding="utf-8")
    runner = CliRunner()
    result = runner.invoke(
        main, ["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code != 0
    assert "missing required keys" in result.output


def test_bad_gen_spec_is_a_usage_error_not_a_traceback(tmp_path):
    result = CliRunner().invoke(
        main,
        [
            "run",
            "--scenario",
            str(short_scenario(tmp_path)),
            "--trace",
            "gen:sigma_f=0.01,sigma_v=0.01,n=inf",
            "--out",
            str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Error: generator spec n must be a finite integer, got inf" in result.output


def test_bad_scenario_value_names_its_line(tmp_path):
    scenario = short_scenario(tmp_path, duration="ten")
    result = CliRunner().invoke(
        main, ["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 1
    assert f"Error: {scenario}:5: not a number: 'ten'\n" in result.output


def test_non_finite_curve_coefficient_names_the_curve(tmp_path):
    curves = tmp_path / "curves.txt"
    curves.write_text(builtin_curve_text().replace("parabola 382.95", "parabola nan"), "utf-8")
    result = CliRunner().invoke(
        main,
        [
            "run",
            "--scenario",
            str(short_scenario(tmp_path)),
            "--curves",
            str(curves),
            "--out",
            str(tmp_path / "o"),
        ],
    )
    header = builtin_curve_text().splitlines().index("curve dc500_ac270 500 270") + 1
    assert result.exit_code == 1
    assert f"Error: {curves}:{header}: curve 'dc500_ac270': ParabolaCap(c0=nan" in result.output


def test_non_finite_ttc_parameter_names_its_block(tmp_path):
    params = tmp_path / "params.txt"
    text = builtin_params_text()
    params.write_text(text.replace("  a 607.1", "  a nan"), "utf-8")
    result = CliRunner().invoke(
        main,
        [
            "run",
            "--scenario",
            str(short_scenario(tmp_path)),
            "--params",
            str(params),
            "--out",
            str(tmp_path / "o"),
        ],
    )
    header = text.splitlines().index("params mid 0.3333333333333333 0.6666666666666666") + 1
    assert result.exit_code == 1
    assert f"Error: {params}:{header}: a must be finite" in result.output


def test_missing_curve_a_step_needs_is_an_error_naming_its_anchor(tmp_path):
    text = builtin_curve_text()
    start = text.index("curve dc500_ac330 500 330")
    curves = tmp_path / "curves.txt"
    curves.write_text(text[:start] + text[text.index("end\n", start) + 4 :], "utf-8")
    scenario = short_scenario(tmp_path)

    def run(*trace):
        args = ["--scenario", str(scenario), "--curves", str(curves), "--out", str(tmp_path / "o")]
        return CliRunner().invoke(main, ["run", *args, *trace])

    # The scenario's own trace never needs the 500/330 envelope.
    assert run().exit_code == 0
    # An MV voltage of 24.5 kV puts the LV side in the 330 V range.
    result = run("--trace", "gen:sigma_f=0.01,sigma_v=0.01,mu_v=24.5,n=40")
    assert result.exit_code == 1
    assert "Error: no capability curve anchored at 500/330 V" in result.output
    assert "Traceback" not in result.output


def test_gen_trace_rejects_a_negative_sigma(tmp_path):
    out = tmp_path / "trace.csv"
    result = CliRunner().invoke(main, ["gen-trace", "--sigma-f", "-1", "--out", str(out)])
    assert result.exit_code == 1
    assert "Error: sigmas must be nonnegative\n" in result.output
    assert not out.exists()


def test_metrics_on_a_header_only_records_file_fails(tmp_path):
    records_csv = idle_records_csv(tmp_path, ())
    assert len(records_csv.read_text(encoding="utf-8").splitlines()) == 1
    result = CliRunner().invoke(main, ["metrics", "--records", str(records_csv)])
    assert result.exit_code == 1
    assert f"Error: {records_csv}: no records\n" in result.output
