"""Byte-for-byte regression of the controller's outputs.

perfbench/golden holds the records.csv and summary.json of each preset at
its shipped seed.  tests/data/undervoltage_records.csv holds the records of
a short low-voltage run, which takes the two-envelope regions and the
conservative clamp that the nominal-voltage presets never reach.
tests/data/soc_edge_records.csv holds a run with lambda_q = 0 that starts
near soc_min, so it takes the lexicographic projection and, once the SOC
reaches its floor, the battery's SOC bound.  A change
that alters them must regenerate them and say why; a refactor must leave
them untouched.
"""

import dataclasses
from pathlib import Path

import pytest
from click.testing import CliRunner

from bessctl.battery import builtin_ttc_params
from bessctl.capability import builtin_curves, index_curves
from bessctl.simctl import (
    builtin_scenario_path,
    generate_trace,
    load_run_config,
    main,
    read_records,
    run_scenario,
    write_records,
)

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
UNDERVOLTAGE_GOLDEN = Path(__file__).resolve().parent / "data" / "undervoltage_records.csv"
SOC_EDGE_GOLDEN = Path(__file__).resolve().parent / "data" / "soc_edge_records.csv"


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3", "scenario4"])
def test_preset_outputs_match_golden(name, tmp_path):
    result = CliRunner().invoke(
        main, ["run", "--scenario", str(builtin_scenario_path(name)), "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    for fname in ("records.csv", "summary.json"):
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


def write_undervoltage_records(path):
    """60 steps of scenario4's gains with the MV voltage 12 % low (mean 18.7 kV)."""
    scenario, cfg = load_run_config(builtin_scenario_path("scenario4"))
    scenario = dataclasses.replace(scenario, duration_s=60.0, trace=None)
    trace = generate_trace(0.01782, 0.0672, mu_v=18.7, n=60, seed=101)
    records, _ = run_scenario(
        scenario, cfg, index_curves(builtin_curves()), builtin_ttc_params(), trace=trace
    )
    write_records(records, path)
    return records


def test_undervoltage_records_match_golden(tmp_path):
    records = write_undervoltage_records(tmp_path / "records.csv")
    assert any(r.curve_ac is not None for r in records)
    assert (tmp_path / "records.csv").read_bytes() == UNDERVOLTAGE_GOLDEN.read_bytes()


def write_soc_edge_records(path):
    """300 steps of scenario4's gains with lambda_q = 0 from soc 0.11."""
    scenario, cfg = load_run_config(builtin_scenario_path("scenario4"))
    scenario = dataclasses.replace(
        scenario, duration_s=300.0, lambda_q=0.0, soc_init=0.11, trace=None
    )
    cfg = dataclasses.replace(cfg, droop=dataclasses.replace(cfg.droop, lambda_q=0.0))
    trace = generate_trace(0.01782, 0.0672, n=300, seed=101)
    records, _ = run_scenario(
        scenario, cfg, index_curves(builtin_curves()), builtin_ttc_params(), trace=trace
    )
    write_records(records, path)
    return records


def test_soc_edge_records_match_golden(tmp_path):
    records = write_soc_edge_records(tmp_path / "records.csv")
    # The SOC at its floor closes the discharge side: a P target > 0 gets 0.
    assert any(r.p_target > 0.0 and r.p_opt == 0.0 for r in records)
    assert (tmp_path / "records.csv").read_bytes() == SOC_EDGE_GOLDEN.read_bytes()


@pytest.mark.parametrize(
    "path",
    [GOLDEN / f"scenario{i}" / "records.csv" for i in range(1, 5)]
    + [UNDERVOLTAGE_GOLDEN, SOC_EDGE_GOLDEN],
    ids=lambda path: path.parent.name if path.name == "records.csv" else path.stem,
)
def test_records_round_trip_byte_for_byte(path, tmp_path):
    # The undervoltage file adds the AC curve column and the clamp status.
    records = read_records(path)
    write_records(records, tmp_path / "records.csv")
    assert (tmp_path / "records.csv").read_bytes() == path.read_bytes()
