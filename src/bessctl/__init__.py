"""Battery-converter set-point control library and simulation CLI.

Computes, each control second, the optimal active/reactive power set-point a
battery storage converter can feasibly deliver for concurrent primary
frequency control and local voltage regulation, honouring capability curves
that vary with the DC-bus voltage, the AC terminal voltage and the state of
charge.
"""

from bessctl.battery import (
    BatteryConfig,
    InfeasiblePowerError,
    SocBandError,
    SocLimitError,
    TtcParams,
    TtcState,
    ac_from_dc,
    builtin_ttc_params,
    dc_from_ac,
    dc_power_bounds,
    load_ttc_params,
    open_circuit_voltage,
    params_for_soc,
    soc_update,
    solve_vdc,
    ttc_step,
)
from bessctl.capability import (
    CapabilityCurve,
    CurveFormatError,
    CurveSelection,
    CurveValidationError,
    DcVoltageRangeError,
    FeasibleRegion,
    build_region,
    builtin_curves,
    index_curves,
    load_curves,
    select_curves,
)
from bessctl.grid import (
    DroopConfig,
    GridSample,
    InsufficientDataError,
    TransformerParams,
    droop_targets,
    initial_droops,
    max_deviations,
    optimal_droops,
    predict_vac,
)
from bessctl.optimizer import (
    ControlRecord,
    ControllerConfig,
    ProjectionProblem,
    SetpointController,
    project,
)
from bessctl.simctl import (
    EnergyReport,
    ScenarioSpec,
    TraceError,
    energy_metrics,
    generate_trace,
    load_run_config,
    run_scenario,
)

__version__ = "0.1.0"
