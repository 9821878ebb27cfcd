"""Byte-for-byte regression of ``bessctl run`` on the shipped presets.

perfbench/golden holds the records.csv and summary.json of each preset at
its shipped seed.  A change that alters them must regenerate them and say
why; a refactor must leave them untouched.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from bessctl.simctl import builtin_scenario_path, main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3", "scenario4"])
def test_preset_outputs_match_golden(name, tmp_path):
    result = CliRunner().invoke(
        main, ["run", "--scenario", str(builtin_scenario_path(name)), "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    for fname in ("records.csv", "summary.json"):
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname
