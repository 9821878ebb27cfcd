"""Three-time-constant (TTC) battery equivalent circuit.

The pack is modelled as an open-circuit voltage source E(SOC) = a + b*SOC in
series with a resistance Rs and three parallel RC branches.  Branch voltages
are propagated with the exact zero-order-hold solution of the branch ODEs,
the DC-bus voltage follows from the circuit quadratic

    vdc^2 + (sum(vc) - E) * vdc + Pdc * Rs = 0

(larger root), and the state of charge integrates the DC current.  Solved
for the power, it puts the bus at voltage v in closed form at
P = v * (drive - v) / (Rs * 1000) with drive = E - sum(vc).  Each side of
the power bounds takes its tightest closed-form cap and steps it toward 0
until it and its AC round trip keep that side's edge of the vdc window.
Circuit parameters are banded by SOC; bands partition [0, 1].

The functions a control step calls are scalar code.  ``dc_power_bounds``
compares its caps one at a time, with the tie rules of ``min`` and ``max``,
and ``ttc_step`` reads each field once into a local; neither builds a list.

Sign convention: positive AC/DC power discharges the battery and lowers both
the SOC and the DC-bus voltage.  Charging power is negative.

Parameter sets are immutable and states are values passed and returned, so
independent battery instances can be stepped concurrently.  ``TtcState``,
the value each step returns, is a validated NamedTuple: its ``__new__``
makes the checks and stores the fields in one tuple, where a frozen
dataclass would set each through ``object.__setattr__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from bessctl.linefmt import LineFormatError, parse_number, read_blocks

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
        for name in ("a", "b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("rs", "r1", "r2", "r3", "c1", "c2", "c3"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.soc_lo < self.soc_hi <= 1:
            raise ValueError(f"invalid SOC band [{self.soc_lo}, {self.soc_hi})")

    def covers(self, soc: float) -> bool:
        if self.soc_hi == 1.0:
            return self.soc_lo <= soc <= 1.0
        return self.soc_lo <= soc < self.soc_hi


class _TtcFields(NamedTuple):
    vc1: float
    vc2: float
    vc3: float
    soc: float


class TtcState(_TtcFields):
    """RC branch voltages [V] and state of charge (fraction).

    An immutable value that ttc_step takes and returns.  It is a validated
    NamedTuple: construction, ``_replace`` and unpickling all reject
    non-finite branch voltages and an SOC outside [0, 1].
    """

    __slots__ = ()

    def __new__(
        cls, vc1: float = 0.0, vc2: float = 0.0, vc3: float = 0.0, soc: float = 0.5
    ) -> "TtcState":
        if not (math.isfinite(vc1) and math.isfinite(vc2) and math.isfinite(vc3)):
            raise ValueError("branch voltages must be finite")
        if not 0 <= soc <= 1:
            raise ValueError(f"soc must lie in [0, 1], got {soc}")
        return tuple.__new__(cls, (vc1, vc2, vc3, soc))

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> "TtcState":
        return cls(*iterable)

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
        if not 0 < self.c_max_ah < math.inf:
            raise ValueError("c_max_ah must be positive and finite")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if not 0 <= self.soc_min < self.soc_max <= 1:
            raise ValueError("need 0 <= soc_min < soc_max <= 1")
        if not 0 < self.delta_t < math.inf:
            raise ValueError("delta_t must be positive and finite")
        if not 0 < self.vdc_min < self.vdc_max:
            raise ValueError("need 0 < vdc_min < vdc_max")

    @property
    def c_max_as(self) -> float:
        """Capacity in ampere-seconds."""
        return self.c_max_ah * 3600.0


def params_for_soc(soc: float, bands: Sequence[TtcParams]) -> TtcParams:
    """Select the parameter set whose band contains soc.

    Each band is tested as ``TtcParams.covers`` tests it, written out.
    """
    for params in bands:
        hi = params.soc_hi
        if params.soc_lo <= soc and (soc < hi or soc == hi == 1.0):
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


def solve_vdc(p_dc_kw: float, drive: float, rs: float) -> float:
    """DC-bus voltage sustaining p_dc_kw at circuit drive E - sum(vc) and series rs.

    The larger root of the circuit quadratic.  A power beyond the maximum
    power point, or any input that leaves the root nan, raises
    InfeasiblePowerError.
    """
    disc = drive * drive - 4.0 * p_dc_kw * 1000.0 * rs
    vdc = 0.5 * (drive + math.sqrt(disc)) if disc >= 0 else math.nan
    if math.isnan(vdc):
        raise InfeasiblePowerError(
            f"p_dc={p_dc_kw} kW beyond the maximum power point "
            f"({drive * drive / (4.0 * rs) / 1000.0:.3f} kW)"
        )
    return vdc


def ttc_step(
    state: TtcState, p_dc_kw: float, vdc: float, params: TtcParams, cfg: BatteryConfig
) -> TtcState:
    """Advance branch voltages and SOC one delta_t step under constant p_dc_kw.

    Branches use the exact zero-order-hold solution for the DC current
    i = p_dc * 1000 / vdc held over the step, so halving delta_t and stepping
    twice reproduces the full step exactly; the SOC integrates the same
    current.  A new SOC beyond [soc_min, soc_max] by more than SOC_EPS raises
    SocLimitError; one within the slack, the round-off of a step driven to a
    dc_power_bounds bound, lands on the limit it was driven to.
    """
    if vdc <= 0:
        raise ValueError(f"vdc must be positive, got {vdc}")
    vc1, vc2, vc3, soc = state
    r1, r2, r3 = params.r1, params.r2, params.r3
    dt, soc_min, soc_max = cfg.delta_t, cfg.soc_min, cfg.soc_max
    exp = math.exp
    i_dc = p_dc_kw * 1000.0 / vdc
    decay = exp(-dt / (r1 * params.c1))
    vc1 = vc1 * decay + r1 * i_dc * (1.0 - decay)
    decay = exp(-dt / (r2 * params.c2))
    vc2 = vc2 * decay + r2 * i_dc * (1.0 - decay)
    decay = exp(-dt / (r3 * params.c3))
    vc3 = vc3 * decay + r3 * i_dc * (1.0 - decay)
    # cfg.c_max_as, read as its defining product.
    new_soc = soc - (p_dc_kw * 1000.0 / (vdc * (cfg.c_max_ah * 3600.0))) * dt
    if new_soc < soc_min - SOC_EPS or new_soc > soc_max + SOC_EPS:
        raise SocLimitError(f"soc {new_soc:.6f} outside [{soc_min}, {soc_max}]")
    # min(max(new_soc, soc_min), soc_max) with soc_min < soc_max.
    if soc_min > new_soc:
        new_soc = soc_min
    elif soc_max < new_soc:
        new_soc = soc_max
    return TtcState(vc1, vc2, vc3, new_soc)


def _into_window(p: float, drive: float, rs: float, eta: float, lo: float, hi: float) -> float:
    """p stepped toward 0 one float at a time until the bus voltages of p and
    of ``dc_from_ac(ac_from_dc(p, eta), eta)`` lie in [lo, hi]; a power beyond
    the maximum power point has none.  The walk stops at 0.

    The round trip and ``solve_vdc``'s root are written out with their own
    float expressions, so a step of the walk calls no function of this
    module; eta was checked by BatteryConfig.
    """
    drive_sq = drive * drive
    while p != 0.0:
        disc = drive_sq - 4.0 * p * 1000.0 * rs
        if disc >= 0 and lo <= 0.5 * (drive + math.sqrt(disc)) <= hi:
            ac = p / eta if p < 0 else eta * p
            round_trip = eta * ac if ac < 0 else ac / eta
            disc = drive_sq - 4.0 * round_trip * 1000.0 * rs
            if disc >= 0 and lo <= 0.5 * (drive + math.sqrt(disc)) <= hi:
                return p
        p = math.nextafter(p, 0.0)
    return p


def dc_power_bounds(
    state: TtcState, params: TtcParams, cfg: BatteryConfig
) -> tuple[float, float]:
    """DC power interval honouring the circuit, the SOC limits and the vdc window.

    Returns (p_dc_min <= 0, p_dc_max >= 0) in kW for one delta_t step.  Each
    side takes its tightest closed-form cap, clamped at 0: discharge the
    maximum power point (E - sum(vc))^2 / (4 Rs), the power at vdc_min when
    vdc_min > drive/2 and the power that drains the SOC to soc_min in one
    step; charge the power at vdc_max and the one that fills it to soc_max.
    The cap is stepped toward 0 one float at a time until it and
    ``dc_from_ac(ac_from_dc(it, eta), eta)``, which rounding can put an ulp
    beyond it, keep the side's edge of the window: vdc >= vdc_min (none past
    the maximum power point) when discharging, vdc <= vdc_max when charging.
    So every AC power between the bounds' AC images maps back to a DC power
    that solve_vdc accepts and that keeps its side's edge.

    The caps are compared as scalars, in the order and with the tie rules of
    ``min`` and ``max`` over them, and the branch voltages are summed in
    ``TtcState.vc_sum``'s order; the drive still comes through
    open_circuit_voltage, which checks the band.
    """
    vc1, vc2, vc3, soc = state
    drive = open_circuit_voltage(soc, params) - (vc1 + vc2 + vc3)
    if drive <= 0:
        raise InfeasiblePowerError("branch voltages exceed the open-circuit voltage")
    rs = params.rs
    vdc_min, vdc_max, dt, eta = cfg.vdc_min, cfg.vdc_max, cfg.delta_t, cfg.eta
    c_max_as = cfg.c_max_ah * 3600.0
    cap = drive * drive / (4.0 * rs) / 1000.0
    if vdc_min > 0.5 * drive:
        other = vdc_min * (drive - vdc_min) / (rs * 1000.0)
        if other < cap:
            cap = other
    # Current that lands exactly on soc_min after one step; the matching
    # power follows from vdc = drive - i * rs on the high-voltage root branch.
    i_soc = (soc - cfg.soc_min) * c_max_as / dt
    if i_soc < drive / (2.0 * rs):
        other = i_soc * (drive - i_soc * rs) / 1000.0
        if other < cap:
            cap = other
    p_dc_max = _into_window(cap if cap > 0.0 else 0.0, drive, rs, eta, vdc_min, math.inf)

    cap = vdc_max * (drive - vdc_max) / (rs * 1000.0)
    i_soc = (soc - cfg.soc_max) * c_max_as / dt
    other = i_soc * (drive - i_soc * rs) / 1000.0
    if other > cap:
        cap = other
    p_dc_min = _into_window(cap if cap < 0.0 else 0.0, drive, rs, eta, -math.inf, vdc_max)
    return p_dc_min, p_dc_max


_PARAM_KEYS = ("a", "b", "rs", "r1", "c1", "r2", "c2", "r3", "c3")


def parse_ttc_params(lines: Iterable[str], origin: str = "<input>") -> list[TtcParams]:
    """Parse a battery-parameter document; the grammar is in the header of
    ``data/ttc_params.txt``."""
    bands: list[TtcParams] = []
    for lineno, (name, *band), body in read_blocks(lines, origin, "params <id> <soc_lo> <soc_hi>"):
        soc_lo, soc_hi = (parse_number(t, origin, lineno) for t in band)
        values: dict[str, float] = {}
        for n, (key, *args) in body:
            if key not in _PARAM_KEYS or len(args) != 1:
                raise LineFormatError(origin, n, f"unknown parameter line {key!r}")
            values[key] = parse_number(args[0], origin, n)
        missing = [k for k in _PARAM_KEYS if k not in values]
        if missing:
            raise LineFormatError(origin, lineno, f"params {name!r} is missing keys {missing}")
        try:
            bands.append(TtcParams(**values, soc_lo=soc_lo, soc_hi=soc_hi))
        except ValueError as exc:
            raise LineFormatError(origin, lineno, str(exc)) from exc
    try:
        validate_bands(bands)
    except ValueError as exc:
        raise ValueError(f"{origin}: {exc}") from exc
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
