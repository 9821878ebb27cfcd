from dataclasses import dataclass

import pytest

from bessctl import simctl
from bessctl.battery import BatteryConfig, builtin_ttc_params
from bessctl.capability import builtin_curves, index_curves
from bessctl.grid import DroopConfig, TransformerParams
from bessctl.optimizer import ControllerConfig


@pytest.fixture(scope="session")
def curves():
    return builtin_curves()


@pytest.fixture(scope="session")
def curve_map(curves):
    return index_curves(curves)


@pytest.fixture(scope="session")
def bands():
    return builtin_ttc_params()


@pytest.fixture()
def battery_cfg():
    return BatteryConfig(
        c_max_ah=580.0,
        eta=0.97,
        soc_min=0.1,
        soc_max=0.9,
        vdc_min=500.0,
        vdc_max=890.0,
        delta_t=1.0,
    )


@pytest.fixture()
def transformer():
    return TransformerParams.from_nameplate(n=70.0, v_lv=300.0, s_rated_kva=630.0, u_k=0.0628)


@pytest.fixture()
def controller_cfg(battery_cfg, transformer):
    droop = DroopConfig(alpha0=9003.0, beta0=8.39, f_ref=50.0, v_ref=21.192)
    return ControllerConfig(
        droop=droop, battery=battery_cfg, transformer=transformer, shrink=7.0 / 9.0
    )


@dataclass(frozen=True)
class CliResult:
    """What one in-process ``bessctl`` call left: its exit code, its stdout
    and stderr, and the SystemExit it raised (None when it returned)."""

    exit_code: int
    stdout: str
    stderr: str
    exception: SystemExit | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


@pytest.fixture()
def bessctl(capsys):
    """Run ``simctl.main`` on a list of arguments as the console script
    would, catching its SystemExit; any other exception propagates."""

    def invoke(args):
        capsys.readouterr()
        try:
            simctl.main(args)
            code, exception = 0, None
        except SystemExit as exc:
            code, exception = exc.code, exc
        out, err = capsys.readouterr()
        return CliResult(code, out, err, exception)

    return invoke
