"""Three-time-constant (TTC) battery equivalent circuit.

The pack is modelled as an open-circuit voltage source E(SOC) = a + b*SOC in
series with a resistance Rs and three parallel RC branches.  Branch voltages
are propagated with the exact zero-order-hold solution of the branch ODEs,
the DC-bus voltage follows from the circuit quadratic

    vdc^2 + (sum(vc) - E) * vdc + Pdc * Rs = 0

(larger root), and the state of charge integrates the DC current.  Solved
for the power instead, the same quadratic gives the DC power at which the
bus sits at a given voltage in closed form, P = v * (drive - v) / (Rs * 1000)
with drive = E - sum(vc), which is how the vdc window bounds the power.
Circuit parameters are banded by SOC; bands partition [0, 1].

Sign convention: positive AC/DC power discharges the battery and lowers both
the SOC and the DC-bus voltage.  Charging power is negative.

Parameter sets are immutable and states are values passed and returned, so
independent battery instances can be stepped concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from bessctl.linefmt import LineFormatError, parse_number, tokenize

#: Absolute SOC slack for the limit check, covering round-off when a step is
#: driven exactly to a bound computed by dc_power_bounds.
SOC_EPS = 1e-12


class SocBandError(ValueError):
    """SOC outside the band of the supplied parameter set."""


class InfeasiblePowerError(ValueError):
    """Requested discharge power beyond the circuit's maximum power point."""


class SocLimitError(ValueError):
    """A step would push the SOC outside its configured limits."""


@dataclass(frozen=True)
class TtcParams:
    """Equivalent-circuit parameters valid on one SOC band.

    a [V] and b [V per unit SOC] define the open-circuit voltage; rs is the
    series resistance and (r1, c1), (r2, c2), (r3, c3) the RC branches.
    The band [soc_lo, soc_hi) is half-open except at soc_hi == 1.
    """

    a: float
    b: float
    rs: float
    r1: float
    r2: float
    r3: float
    c1: float
    c2: float
    c3: float
    soc_lo: float
    soc_hi: float

    def __post_init__(self) -> None:
        for name in ("rs", "r1", "r2", "r3", "c1", "c2", "c3"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.soc_lo < self.soc_hi <= 1:
            raise ValueError(f"invalid SOC band [{self.soc_lo}, {self.soc_hi})")

    def covers(self, soc: float) -> bool:
        if self.soc_hi == 1.0:
            return self.soc_lo <= soc <= 1.0
        return self.soc_lo <= soc < self.soc_hi


@dataclass(frozen=True)
class TtcState:
    """RC branch voltages [V] and state of charge (fraction)."""

    vc1: float = 0.0
    vc2: float = 0.0
    vc3: float = 0.0
    soc: float = 0.5

    def __post_init__(self) -> None:
        for v in (self.vc1, self.vc2, self.vc3):
            if not math.isfinite(v):
                raise ValueError("branch voltages must be finite")
        if not 0 <= self.soc <= 1:
            raise ValueError(f"soc must lie in [0, 1], got {self.soc}")

    @property
    def vc_sum(self) -> float:
        return self.vc1 + self.vc2 + self.vc3


@dataclass(frozen=True)
class BatteryConfig:
    """Pack-level configuration: capacity, converter efficiency and limits."""

    c_max_ah: float
    eta: float = 0.97
    soc_min: float = 0.0
    soc_max: float = 1.0
    vdc_min: float = 500.0
    vdc_max: float = 890.0
    delta_t: float = 1.0

    def __post_init__(self) -> None:
        if self.c_max_ah <= 0:
            raise ValueError("c_max_ah must be positive")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if not 0 <= self.soc_min < self.soc_max <= 1:
            raise ValueError("need 0 <= soc_min < soc_max <= 1")
        if self.delta_t <= 0:
            raise ValueError("delta_t must be positive")
        if not 0 < self.vdc_min < self.vdc_max:
            raise ValueError("need 0 < vdc_min < vdc_max")

    @property
    def c_max_as(self) -> float:
        """Capacity in ampere-seconds."""
        return self.c_max_ah * 3600.0


def params_for_soc(soc: float, bands: Sequence[TtcParams]) -> TtcParams:
    """Select the parameter set whose band contains soc."""
    for params in bands:
        if params.covers(soc):
            return params
    raise SocBandError(f"no parameter band covers soc={soc}")


def validate_bands(bands: Sequence[TtcParams]) -> None:
    """Check that the bands partition [0, 1] without gaps or overlaps."""
    ordered = sorted(bands, key=lambda b: b.soc_lo)
    if not ordered:
        raise ValueError("no parameter bands given")
    if ordered[0].soc_lo != 0.0 or ordered[-1].soc_hi != 1.0:
        raise ValueError("bands must start at 0 and end at 1")
    for left, right in zip(ordered, ordered[1:]):
        if left.soc_hi != right.soc_lo:
            raise ValueError(
                f"bands do not partition [0, 1]: gap or overlap at {left.soc_hi}"
            )


def open_circuit_voltage(soc: float, params: TtcParams) -> float:
    """Open-circuit voltage a + b*soc [V]; soc must lie in the params band."""
    if not params.covers(soc):
        raise SocBandError(
            f"soc={soc} outside parameter band [{params.soc_lo}, {params.soc_hi})"
        )
    return params.a + params.b * soc


def dc_from_ac(p_ac_kw: float, eta: float) -> float:
    """DC-side power for an AC set-point: losses load the battery both ways."""
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if p_ac_kw < 0:
        return eta * p_ac_kw
    return p_ac_kw / eta


def ac_from_dc(p_dc_kw: float, eta: float) -> float:
    """Inverse of dc_from_ac."""
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if p_dc_kw < 0:
        return p_dc_kw / eta
    return eta * p_dc_kw


def solve_vdc(p_dc_kw: float, state: TtcState, params: TtcParams) -> float:
    """DC-bus voltage sustaining p_dc_kw, the larger root of the circuit quadratic."""
    drive = open_circuit_voltage(state.soc, params) - state.vc_sum
    disc = drive * drive - 4.0 * p_dc_kw * 1000.0 * params.rs
    if disc < 0:
        raise InfeasiblePowerError(
            f"p_dc={p_dc_kw} kW beyond the maximum power point "
            f"({drive * drive / (4.0 * params.rs) / 1000.0:.3f} kW)"
        )
    return 0.5 * (drive + math.sqrt(disc))


def soc_update(
    soc: float, p_dc_kw: float, vdc: float, cfg: BatteryConfig, dt: float | None = None
) -> float:
    """SOC after one step at p_dc_kw and bus voltage vdc.

    Violations of [soc_min, soc_max] raise; the result is never clamped.
    """
    if vdc <= 0:
        raise ValueError(f"vdc must be positive, got {vdc}")
    if dt is None:
        dt = cfg.delta_t
    new_soc = soc - (p_dc_kw * 1000.0 / (vdc * cfg.c_max_as)) * dt
    if new_soc < cfg.soc_min - SOC_EPS or new_soc > cfg.soc_max + SOC_EPS:
        raise SocLimitError(
            f"soc {new_soc:.6f} outside [{cfg.soc_min}, {cfg.soc_max}]"
        )
    return new_soc


def ttc_step(
    state: TtcState,
    p_dc_kw: float,
    vdc: float,
    params: TtcParams,
    cfg: BatteryConfig,
    dt: float | None = None,
) -> TtcState:
    """Advance branch voltages and SOC one step under constant p_dc_kw.

    Branches use the exact zero-order-hold solution for the DC current
    i = p_dc * 1000 / vdc held over the step, so halving dt and stepping
    twice reproduces the full step exactly.
    """
    if vdc <= 0:
        raise ValueError(f"vdc must be positive, got {vdc}")
    if dt is None:
        dt = cfg.delta_t
    i_dc = p_dc_kw * 1000.0 / vdc
    new_vc = []
    for vc, r, c in (
        (state.vc1, params.r1, params.c1),
        (state.vc2, params.r2, params.c2),
        (state.vc3, params.r3, params.c3),
    ):
        decay = math.exp(-dt / (r * c))
        new_vc.append(vc * decay + r * i_dc * (1.0 - decay))
    new_soc = soc_update(state.soc, p_dc_kw, vdc, cfg, dt)
    return TtcState(new_vc[0], new_vc[1], new_vc[2], new_soc)


def dc_power_bounds(
    state: TtcState, params: TtcParams, cfg: BatteryConfig
) -> tuple[float, float]:
    """DC power interval honouring the circuit, the SOC limits and the vdc window.

    Returns (p_dc_min <= 0, p_dc_max >= 0) in kW for one delta_t step.  The
    discharge side is capped by the maximum power point (E - sum(vc))^2 /
    (4 Rs), by the power that drains the SOC to soc_min in one step, and by
    vdc_min; the charge side symmetrically by soc_max and vdc_max.  A SOC
    already at a limit degenerates that side to 0.  The vdc terms are the
    closed-form powers at vdc_min and vdc_max, stepped toward 0 one float
    at a time until solve_vdc puts them inside the window.
    """
    drive = open_circuit_voltage(state.soc, params) - state.vc_sum
    if drive <= 0:
        raise InfeasiblePowerError("branch voltages exceed the open-circuit voltage")

    p_mpp = drive * drive / (4.0 * params.rs) / 1000.0
    # Guard the knife edge: make sure the discriminant at the bound is >= 0.
    while drive * drive - 4.0 * p_mpp * 1000.0 * params.rs < 0:
        p_mpp = math.nextafter(p_mpp, 0.0)

    i_mpp = drive / (2.0 * params.rs)
    candidates = [p_mpp]
    if cfg.vdc_min > 0.5 * drive:
        if drive <= cfg.vdc_min:
            candidates.append(0.0)
        else:
            # Near drive/2 the closed form can round past the maximum power
            # point, where solve_vdc would raise.
            p_vdc = min(p_mpp, cfg.vdc_min * (drive - cfg.vdc_min) / (params.rs * 1000.0))
            while solve_vdc(p_vdc, state, params) < cfg.vdc_min:
                p_vdc = math.nextafter(p_vdc, 0.0)
            candidates.append(p_vdc)
    # Current that lands exactly on soc_min after one step; the matching
    # power follows from vdc = drive - i * rs on the high-voltage root branch.
    i_soc = (state.soc - cfg.soc_min) * cfg.c_max_as / cfg.delta_t
    if i_soc < i_mpp:
        candidates.append(i_soc * (drive - i_soc * params.rs) / 1000.0)
    p_dc_max = max(0.0, min(candidates))

    i_soc_chg = (state.soc - cfg.soc_max) * cfg.c_max_as / cfg.delta_t
    p_soc_chg = i_soc_chg * (drive - i_soc_chg * params.rs) / 1000.0
    candidates_chg = [p_soc_chg]
    if drive >= cfg.vdc_max:
        candidates_chg.append(0.0)
    else:
        p_vdc = cfg.vdc_max * (drive - cfg.vdc_max) / (params.rs * 1000.0)
        while solve_vdc(p_vdc, state, params) > cfg.vdc_max:
            p_vdc = math.nextafter(p_vdc, 0.0)
        candidates_chg.append(p_vdc)
    p_dc_min = min(0.0, max(candidates_chg))
    return p_dc_min, p_dc_max


_PARAM_KEYS = ("a", "b", "rs", "r1", "c1", "r2", "c2", "r3", "c3")


def parse_ttc_params(lines: Iterable[str], origin: str = "<input>") -> list[TtcParams]:
    """Parse a battery-parameter document (same line format family as curves)."""
    bands: list[TtcParams] = []
    header: tuple[int, str, float, float] | None = None
    values: dict[str, float] = {}
    for lineno, tokens in tokenize(lines, origin):
        keyword = tokens[0]
        if header is None:
            if keyword != "params" or len(tokens) != 4:
                raise LineFormatError(origin, lineno, "expected `params <id> <soc_lo> <soc_hi>`")
            header = (
                lineno,
                tokens[1],
                parse_number(tokens[2], origin, lineno),
                parse_number(tokens[3], origin, lineno),
            )
            values = {}
        elif keyword == "end":
            missing = [k for k in _PARAM_KEYS if k not in values]
            if missing:
                raise LineFormatError(origin, lineno, f"missing keys {missing}")
            bands.append(
                TtcParams(
                    a=values["a"],
                    b=values["b"],
                    rs=values["rs"],
                    r1=values["r1"],
                    r2=values["r2"],
                    r3=values["r3"],
                    c1=values["c1"],
                    c2=values["c2"],
                    c3=values["c3"],
                    soc_lo=header[2],
                    soc_hi=header[3],
                )
            )
            header = None
        elif keyword in _PARAM_KEYS and len(tokens) == 2:
            values[keyword] = parse_number(tokens[1], origin, lineno)
        else:
            raise LineFormatError(origin, lineno, f"unknown parameter line {keyword!r}")
    if header is not None:
        raise LineFormatError(origin, header[0], f"params {header[1]!r} is missing `end`")
    validate_bands(bands)
    return bands


def load_ttc_params(path: str | Path) -> list[TtcParams]:
    """Load SOC-banded circuit parameters from a parameter file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ttc_params(fh, str(path))


def builtin_params_text() -> str:
    """Text of the parameter file shipped with the package."""
    return resources.files(__package__).joinpath("data/ttc_params.txt").read_text("utf-8")


def builtin_ttc_params() -> list[TtcParams]:
    """The SOC-banded parameter sets shipped with the package."""
    return parse_ttc_params(builtin_params_text().splitlines(), "builtin:ttc_params.txt")
