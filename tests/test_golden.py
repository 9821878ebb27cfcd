"""Byte-for-byte regression of the controller's outputs.

perfbench/golden holds the records.csv and summary.json of each preset at
its shipped seed.  tests/data/undervoltage_records.csv holds the records of
a short low-voltage run, which takes the two-envelope regions and the
conservative clamp that the nominal-voltage presets never reach.
tests/data/soc_edge_records.csv holds a run with lambda_q = 0 that starts
near soc_min, so it takes the lexicographic projection and, once the SOC
reaches its floor, the battery's SOC bound.  Its q_opt is the feasible q
nearest q_target at p_opt, of either sign: a tie on p between the two
Q-sign cells goes to the one nearer q_target, so a feasible negative q
target is kept, not clipped to 0.  Three short runs cover the projection's
iterations: unequal_weights_records.csv (lambda_q = 4 at 18.7 kV) solves
the disk multiplier by Newton's method and exits at a cap on every step,
p_lex_records.csv (lambda_p = 0) bisects the feasible p slice, and
q_lex_undervoltage_records.csv (lambda_q = 0 at 18.7 kV) bisects the
q slice of two-envelope cells.  All five data files come from
write_golden_records.  A change that alters them must regenerate them and
say why; a refactor must leave them untouched.
"""

import dataclasses
from pathlib import Path

import pytest

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

from oracles import direct_feasible

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
DATA = Path(__file__).resolve().parent / "data"
UNDERVOLTAGE_GOLDEN = DATA / "undervoltage_records.csv"
SOC_EDGE_GOLDEN = DATA / "soc_edge_records.csv"
UNEQUAL_WEIGHTS_GOLDEN = DATA / "unequal_weights_records.csv"
P_LEX_GOLDEN = DATA / "p_lex_records.csv"
Q_LEX_UNDERVOLTAGE_GOLDEN = DATA / "q_lex_undervoltage_records.csv"

#: The MV reference voltage of the shipped scenarios [kV].
NOMINAL_KV = 21.192


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3", "scenario4"])
def test_preset_outputs_match_golden(name, tmp_path):
    # The call perfbench/workloads.run_preset makes.
    args = ["run", "--scenario", str(builtin_scenario_path(name)), "--out", str(tmp_path)]
    main(args, prog_name="bessctl", standalone_mode=False)
    for fname in ("records.csv", "summary.json"):
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


def write_golden_records(path, steps, mu_v, lambda_p, lambda_q, soc_init):
    """steps steps of scenario4's gains at seed 101 with the given MV mean
    [kV], weights and initial SOC, written to path."""
    scenario, cfg = load_run_config(builtin_scenario_path("scenario4"))
    scenario = dataclasses.replace(
        scenario,
        duration_s=float(steps),
        lambda_p=lambda_p,
        lambda_q=lambda_q,
        soc_init=soc_init,
        trace=None,
    )
    droop = dataclasses.replace(cfg.droop, lambda_p=lambda_p, lambda_q=lambda_q)
    cfg = dataclasses.replace(cfg, droop=droop)
    trace = generate_trace(0.01782, 0.0672, mu_v=mu_v, n=steps, seed=101)
    records, _ = run_scenario(
        scenario, cfg, index_curves(builtin_curves()), builtin_ttc_params(), trace=trace
    )
    write_records(records, path)
    return records


def test_undervoltage_records_match_golden(tmp_path):
    # The MV voltage 12 % low (mean 18.7 kV).
    records = write_golden_records(tmp_path / "records.csv", 60, 18.7, 1.0, 1.0, 0.5)
    assert any(r.curve_ac is not None for r in records)
    assert (tmp_path / "records.csv").read_bytes() == UNDERVOLTAGE_GOLDEN.read_bytes()


def test_soc_edge_records_match_golden(tmp_path):
    records = write_golden_records(tmp_path / "records.csv", 300, NOMINAL_KV, 1.0, 0.0, 0.11)
    # The SOC at its floor closes the discharge side: a P target > 0 gets 0.
    assert any(r.p_target > 0.0 and r.p_opt == 0.0 for r in records)
    assert (tmp_path / "records.csv").read_bytes() == SOC_EDGE_GOLDEN.read_bytes()


def test_soc_edge_keeps_every_feasible_q_target(tmp_path):
    # With lambda_q = 0, q is the feasible value nearest q_target at p_opt:
    # q_target itself whenever the direct oracle finds (p_opt, q_target) in
    # the step's region, whichever its sign.
    records = write_golden_records(tmp_path / "records.csv", 300, NOMINAL_KV, 1.0, 0.0, 0.11)
    shrink = load_run_config(builtin_scenario_path("scenario4"))[0].c_shrink
    kept = [
        r
        for r in records
        if all(
            direct_feasible(a, r.p_opt, r.q_target, shrink)
            for a in (r.curve_dc, r.curve_ac)
            if a is not None
        )
    ]
    assert any(r.q_target < 0.0 for r in kept)
    assert [r.q_opt for r in kept] == [r.q_target for r in kept]


def test_unequal_weights_records_match_golden(tmp_path):
    write_golden_records(tmp_path / "records.csv", 60, 18.7, 1.0, 4.0, 0.5)
    assert (tmp_path / "records.csv").read_bytes() == UNEQUAL_WEIGHTS_GOLDEN.read_bytes()


def test_p_lexicographic_records_match_golden(tmp_path):
    write_golden_records(tmp_path / "records.csv", 60, NOMINAL_KV, 0.0, 1.0, 0.5)
    assert (tmp_path / "records.csv").read_bytes() == P_LEX_GOLDEN.read_bytes()


def test_q_lexicographic_undervoltage_records_match_golden(tmp_path):
    write_golden_records(tmp_path / "records.csv", 60, 18.7, 1.0, 0.0, 0.5)
    assert (tmp_path / "records.csv").read_bytes() == Q_LEX_UNDERVOLTAGE_GOLDEN.read_bytes()


@pytest.mark.parametrize(
    "path",
    [GOLDEN / f"scenario{i}" / "records.csv" for i in range(1, 5)]
    + [
        UNDERVOLTAGE_GOLDEN,
        SOC_EDGE_GOLDEN,
        UNEQUAL_WEIGHTS_GOLDEN,
        P_LEX_GOLDEN,
        Q_LEX_UNDERVOLTAGE_GOLDEN,
    ],
    ids=lambda path: path.parent.name if path.name == "records.csv" else path.stem,
)
def test_records_round_trip_byte_for_byte(path, tmp_path):
    # The undervoltage file adds the AC curve column and the clamp status.
    records = read_records(path)
    write_records(records, tmp_path / "records.csv")
    assert (tmp_path / "records.csv").read_bytes() == path.read_bytes()
