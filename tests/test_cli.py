import json

import pytest

from bessctl.battery import builtin_params_text
from bessctl.capability import builtin_curve_text
from bessctl.grid import GridSample
from bessctl.optimizer import STATUS_UNCHANGED, ControlRecord
from bessctl.simctl import (
    TraceError,
    builtin_scenario_path,
    load_run_config,
    main,
    resolve_trace,
    run_scenario,
    write_records,
)


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


def test_gen_trace_writes_deterministic_csv(tmp_path, bessctl):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        result = bessctl(["gen-trace", "--n", "25", "--seed", "6", "--out", str(out)])
        assert result.exit_code == 0, result.output
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().startswith("timestamp_s,freq_hz,v_mv_kv")


def test_run_and_metrics_round_trip(tmp_path, bessctl):
    out_dir = tmp_path / "run1"
    result = bessctl(
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

    metrics = bessctl(["metrics", "--records", str(records_csv)])
    assert metrics.exit_code == 0, metrics.output
    payload = json.loads(metrics.output)
    assert payload["e_exp_kwh"] > 0
    assert payload["e_star_kwh"] >= payload["e_0_kwh"]


def test_run_with_trace_file_and_seeded_rerun_identical(tmp_path, bessctl):
    trace_csv = tmp_path / "trace.csv"
    result = bessctl(["gen-trace", "--n", "40", "--seed", "3", "--out", str(trace_csv)])
    assert result.exit_code == 0, result.output
    scenario = short_scenario(tmp_path, alpha0=19810)
    outputs = []
    for name in ("r1", "r2"):
        out_dir = tmp_path / name
        result = bessctl(
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


def test_run_seed_reseeds_only_the_scenario_trace(tmp_path, bessctl, curve_map, bands):
    path = short_scenario(tmp_path)
    scenario, cfg = load_run_config(path)
    trace = resolve_trace(scenario.trace, 7)
    records, _ = run_scenario(scenario, cfg, curve_map, bands, trace=trace)
    write_records(records, tmp_path / "expected.csv")

    def run(name, *options):
        out_dir = tmp_path / name
        result = bessctl(["run", "--scenario", str(path), *options, "--out", str(out_dir)])
        assert result.exit_code == 0, result.output
        return (out_dir / "records.csv").read_bytes(), (out_dir / "summary.json").read_bytes()

    seeded = run("seed7", "--seed", "7")
    assert seeded[0] == (tmp_path / "expected.csv").read_bytes()
    assert run("seed0", "--seed", "0")[0] != seeded[0]
    trace_csv = tmp_path / "trace.csv"
    result = bessctl(["gen-trace", "--n", "40", "--seed", "3", "--out", str(trace_csv)])
    assert result.exit_code == 0, result.output
    from_csv = run("csv", "--trace", str(trace_csv))
    assert run("csv7", "--trace", str(trace_csv), "--seed", "7") == from_csv


def test_run_trace_longer_than_duration_is_cut_to_horizon(tmp_path, bessctl):
    out_dir = tmp_path / "out"
    result = bessctl(
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


def test_run_duration_longer_than_trace_fails(tmp_path, bessctl):
    result = bessctl(
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


def test_short_trace_raises_outside_standalone_mode_and_exits_1_inside(tmp_path, bessctl):
    args = [
        "run",
        "--scenario",
        str(builtin_scenario_path("scenario1")),
        "--trace",
        "gen:sigma_f=0.01,sigma_v=0.01,n=5",
        "--out",
        str(tmp_path / "out"),
    ]
    with pytest.raises(TraceError, match="trace has 5 samples"):
        main(args, prog_name="bessctl", standalone_mode=False)
    result = bessctl(args)
    assert result.exit_code == 1
    assert result.stderr == "Error: trace has 5 samples, horizon needs 300\n"


def test_run_with_soc_init_below_soc_min_exits_1_before_stepping(tmp_path, bessctl):
    text = builtin_scenario_path("scenario1").read_text(encoding="utf-8")
    assert "\nsoc_init 0.5\n" in text and "\nsoc_min 0.1\n" in text
    scenario = tmp_path / "low_soc.cfg"
    scenario.write_text(text.replace("\nsoc_init 0.5\n", "\nsoc_init 0.05\n"), encoding="utf-8")
    out_dir = tmp_path / "out"
    result = bessctl(["run", "--scenario", str(scenario), "--out", str(out_dir)])
    assert result.exit_code == 1
    assert result.stderr == "Error: soc_init 0.05 outside [soc_min, soc_max] = [0.1, 0.9]\n"
    assert not out_dir.exists()


def test_run_with_short_trace_row_names_its_line(tmp_path, bessctl):
    trace_csv = tmp_path / "trace.csv"
    trace_csv.write_text("timestamp_s,freq_hz,v_mv_kv\n0,50.0,21.192\n1,50.01\n", encoding="utf-8")
    result = bessctl(
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
def test_metrics_rejects_bad_step_length_and_gain(tmp_path, timestamps, options, message, bessctl):
    records_csv = idle_records_csv(tmp_path, timestamps)
    result = bessctl(["metrics", "--records", str(records_csv), *options])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {message}\n" in result.output


def test_metrics_rejects_a_row_with_an_extra_cell(tmp_path, bessctl):
    records_csv = idle_records_csv(tmp_path, (0.0, 1.0))
    header, first, second = records_csv.read_text(encoding="utf-8").splitlines()
    records_csv.write_text(f"{header}\n{first}\n{second},x\n", encoding="utf-8")
    result = bessctl(["metrics", "--records", str(records_csv)])
    assert result.exit_code == 1
    assert f"Error: {records_csv}:3: expected 16 cells\n" in result.output


def test_metrics_on_missing_file_fails(bessctl):
    result = bessctl(["metrics", "--records", "/nonexistent.csv"])
    assert result.exit_code != 0


def test_bad_scenario_file_fails(tmp_path, bessctl):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha0_kw_per_hz 9003\n", encoding="utf-8")
    result = bessctl(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert result.exit_code != 0
    assert "missing required keys" in result.output


def test_bad_gen_spec_is_a_usage_error_not_a_traceback(tmp_path, bessctl):
    result = bessctl(
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


def test_bad_scenario_value_names_its_line(tmp_path, bessctl):
    scenario = short_scenario(tmp_path, duration="ten")
    result = bessctl(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert f"Error: {scenario}:5: not a number: 'ten'\n" in result.output


def test_non_finite_curve_coefficient_names_the_curve(tmp_path, bessctl):
    curves = tmp_path / "curves.txt"
    curves.write_text(builtin_curve_text().replace("parabola 382.95", "parabola nan"), "utf-8")
    result = bessctl(
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


def test_non_finite_ttc_parameter_names_its_block(tmp_path, bessctl):
    params = tmp_path / "params.txt"
    text = builtin_params_text()
    params.write_text(text.replace("  a 607.1", "  a nan"), "utf-8")
    result = bessctl(
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


def test_missing_curve_a_step_needs_is_an_error_naming_its_anchor(tmp_path, bessctl):
    text = builtin_curve_text()
    start = text.index("curve dc500_ac330 500 330")
    curves = tmp_path / "curves.txt"
    curves.write_text(text[:start] + text[text.index("end\n", start) + 4 :], "utf-8")
    scenario = short_scenario(tmp_path)

    def run(*trace):
        args = ["--scenario", str(scenario), "--curves", str(curves), "--out", str(tmp_path / "o")]
        return bessctl(["run", *args, *trace])

    # The scenario's own trace never needs the 500/330 envelope.
    assert run().exit_code == 0
    # An MV voltage of 24.5 kV puts the LV side in the 330 V range.
    result = run("--trace", "gen:sigma_f=0.01,sigma_v=0.01,mu_v=24.5,n=40")
    assert result.exit_code == 1
    assert "Error: no capability curve anchored at 500/330 V" in result.output
    assert "Traceback" not in result.output


def test_gen_trace_rejects_a_negative_sigma(tmp_path, bessctl):
    out = tmp_path / "trace.csv"
    result = bessctl(["gen-trace", "--sigma-f", "-1", "--out", str(out)])
    assert result.exit_code == 1
    assert "Error: sigmas must be nonnegative\n" in result.output
    assert not out.exists()


def test_metrics_on_a_header_only_records_file_fails(tmp_path, bessctl):
    records_csv = idle_records_csv(tmp_path, ())
    assert len(records_csv.read_text(encoding="utf-8").splitlines()) == 1
    result = bessctl(["metrics", "--records", str(records_csv)])
    assert result.exit_code == 1
    assert f"Error: {records_csv}: no records\n" in result.output


@pytest.mark.parametrize("option", ["--scenario", "--curves", "--params"])
def test_run_with_a_missing_input_path_exits_1_naming_it(tmp_path, bessctl, option):
    missing = str(tmp_path / "missing.txt")
    out = tmp_path / "out"
    # A repeated --scenario takes its last value.
    args = ["--scenario", str(short_scenario(tmp_path)), option, missing, "--out", str(out)]
    result = bessctl(["run", *args])
    assert result.exit_code == 1
    assert result.stderr == f"Error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not out.exists()


def test_metrics_with_a_missing_records_path_exits_1_naming_it(tmp_path, bessctl):
    missing = str(tmp_path / "missing.csv")
    result = bessctl(["metrics", "--records", missing])
    assert result.exit_code == 1
    assert result.stderr == f"Error: [Errno 2] No such file or directory: '{missing}'\n"


def test_run_out_naming_a_file_exits_1(tmp_path, bessctl):
    out = tmp_path / "out"
    out.write_text("", encoding="utf-8")
    result = bessctl(["run", "--scenario", str(short_scenario(tmp_path)), "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr == f"Error: [Errno 17] File exists: '{out}'\n"


def test_gen_trace_out_naming_a_directory_exits_1(tmp_path, bessctl):
    result = bessctl(["gen-trace", "--n", "3", "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert result.stderr.startswith("Error: [Errno 21] Is a directory: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["gen-trace", "--seed", "-1"], id="gen-trace"),
        pytest.param(["run", "--trace", "gen:sigma_f=0.01,sigma_v=0.01", "--seed", "-3"], id="run"),
    ],
)
def test_a_negative_seed_is_a_usage_error_naming_the_option(tmp_path, bessctl, command):
    scenario = ["--scenario", str(short_scenario(tmp_path))] if command[0] == "run" else []
    out = tmp_path / "out"
    result = bessctl([*command, *scenario, "--out", str(out)])
    assert result.exit_code == 2
    assert "error: argument --seed: expected a nonnegative integer, got '-" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        pytest.param([], id="no-command"),
        pytest.param(["simulate"], id="unknown-command"),
        pytest.param(["run", "--scenario", "scenario.cfg"], id="run-without-out"),
        pytest.param(["gen-trace"], id="gen-trace-without-out"),
        pytest.param(["gen-trace", "--n", "2.5", "--out", "trace.csv"], id="fractional-n"),
    ],
)
def test_usage_errors_exit_2_with_usage_on_stderr_and_write_nothing(
    tmp_path, monkeypatch, bessctl, args
):
    monkeypatch.chdir(tmp_path)
    result = bessctl(args)
    assert result.exit_code == 2
    assert result.stderr.startswith("usage: bessctl")
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, options",
    [
        ("run", ["--scenario", "--trace", "--curves", "--params", "--out", "--seed"]),
        ("gen-trace", ["--sigma-f", "--sigma-v", "--mu-f", "--mu-v", "--n", "--seed", "--out"]),
        ("metrics", ["--records", "--alpha0", "--delta-t"]),
    ],
)
def test_help_lists_each_option_of_its_command(bessctl, command, options):
    result = bessctl([command, "--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith(f"usage: bessctl {command}")
    assert all(option in result.stdout for option in options)
