"""Layer micro-cases: single layers called on fixed inputs, outside any loop.

Each case calls one public function a fixed number of times and reports the
median latency of one call.  The inputs are fixed, so the cases are the
same on every workload and every seed.
"""

from __future__ import annotations

import statistics
import time

from bessctl.battery import (
    BatteryConfig,
    TtcState,
    ac_from_dc,
    builtin_params_text,
    builtin_ttc_params,
    dc_power_bounds,
    params_for_soc,
    parse_ttc_params,
)
from bessctl.capability import build_region, builtin_curve_text, builtin_curves, index_curves, parse_curves
from bessctl.optimizer import ProjectionProblem, project
from bessctl.simctl import builtin_scenario_path, load_run_config

SHRINK = 7.0 / 9.0
BATTERY = BatteryConfig(c_max_ah=580.0, soc_min=0.1, soc_max=0.9)

#: Anchors of the region when the DC bus is in (600, 800] V, alone and with
#: the conservative low-voltage clamp envelope.
ONE_ENV = ((600.0, 300.0),)
TWO_ENV = ((600.0, 300.0), (500.0, 270.0))

#: name -> (target P [kW], target Q [kvar], lambda_q); lambda_p is 1.
TARGETS = {
    "interior": (100.0, 50.0, 1.0),
    "clipped": (900.0, 600.0, 1.0),
    "lex": (900.0, 600.0, 0.0),
}


def median_us(fn, args: tuple, calls: int) -> float:
    clock = time.perf_counter_ns
    samples = []
    for _ in range(calls):
        t0 = clock()
        fn(*args)
        samples.append(clock() - t0)
    return statistics.median(samples) / 1e3


def run_micro() -> dict[str, tuple[float, str]]:
    """All micro-cases as ``{metric name: (value, unit)}``."""
    out: dict[str, tuple[float, str]] = {}
    curves_text = builtin_curve_text().splitlines()
    params_text = builtin_params_text().splitlines()
    config_path = builtin_scenario_path("scenario4")
    out["linefmt.parse_curves_ms"] = (median_us(parse_curves, (curves_text,), 200) / 1e3, "ms")
    out["linefmt.parse_ttc_params_ms"] = (median_us(parse_ttc_params, (params_text,), 200) / 1e3, "ms")
    out["linefmt.load_run_config_ms"] = (median_us(load_run_config, (config_path,), 200) / 1e3, "ms")

    curves = index_curves(builtin_curves())
    bands = builtin_ttc_params()
    state = TtcState(0.0, 0.0, 0.0, 0.5)
    pdc_lo, pdc_hi = dc_power_bounds(state, params_for_soc(0.5, bands), BATTERY)
    pac_lo, pac_hi = ac_from_dc(pdc_lo, 0.97), ac_from_dc(pdc_hi, 0.97)
    for env_name, anchors in (("one_env", ONE_ENV), ("two_env", TWO_ENV)):
        region = build_region([curves[a] for a in anchors], SHRINK)
        for case, (p0, q0, lambda_q) in TARGETS.items():
            problem = ProjectionProblem(p0, q0, 1.0, lambda_q, region, pac_lo, pac_hi)
            out[f"micro.project.{case}.{env_name}_us"] = (median_us(project, (problem,), 300), "us")

    # With SOC at 0.5 the vdc_min window sets the discharge bound; 0.0002
    # above soc_min the one-step SOC drain sets it instead.
    for case, soc in (("vdc_bound", 0.5), ("soc_bound", BATTERY.soc_min + 0.0002)):
        state = TtcState(0.0, 0.0, 0.0, soc)
        args = (state, params_for_soc(soc, bands), BATTERY)
        out[f"micro.dc_power_bounds.{case}_us"] = (median_us(dc_power_bounds, args, 2000), "us")
    return out
